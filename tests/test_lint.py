"""The invariant linter: each rule fires on its bad fixture, stays
silent on the good one, suppressions are honored, and -- the tier-1
gate -- the real source tree is clean."""

import textwrap
from pathlib import Path

from repro.analysis import Finding, all_rules, lint_paths, lint_project, \
    to_json, to_text
from repro.analysis.registry import ModuleSource, Project
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent


def lint_snippet(code, tests_text=None, path="src/snippet.py"):
    modules = [ModuleSource(Path(path), textwrap.dedent(code), path)]
    tests = []
    if tests_text is not None:
        tests = [ModuleSource(Path("tests/test_ref.py"),
                              textwrap.dedent(tests_text),
                              "tests/test_ref.py")]
    return lint_project(Project(modules, tests))


def fired(findings):
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# REP001 unseeded-rng


def test_rep001_fires_on_unseeded_and_global_rngs():
    findings = lint_snippet("""
        import random
        import numpy as np

        rng = random.Random()
        gen = np.random.default_rng()
        np.random.seed(0)
        values = np.random.rand(4)
        pick = random.randint(0, 10)
    """)
    assert fired(findings) == {"REP001"}
    assert len(findings) == 5


def test_rep001_silent_on_seeded_rngs():
    findings = lint_snippet("""
        import random
        import numpy as np

        rng = random.Random(42)
        derived = random.Random((7 << 8) ^ 3)
        gen = np.random.default_rng(7)
        stream = np.random.Generator(np.random.PCG64(1234))
        draw = rng.random()
    """)
    assert findings == []


# ----------------------------------------------------------------------
# REP002 salted-hash


def test_rep002_fires_on_builtin_hash():
    findings = lint_snippet("""
        def seed_for(name):
            return hash(name) & 0xFFFF
    """)
    assert fired(findings) == {"REP002"}


def test_rep002_silent_on_crc32_and_methods():
    findings = lint_snippet("""
        import zlib
        import hashlib

        def seed_for(name):
            return zlib.crc32(name.encode("ascii"))

        def signature(parts):
            return hashlib.sha256(repr(parts).encode()).hexdigest()

        class Thing:
            def digest(self):
                return self.hasher.hash()      # a method, not the builtin
    """)
    assert findings == []


def test_rep002_suppression_with_reason_is_honored():
    findings = lint_snippet("""
        class Multiset:
            def __hash__(self):
                # repro: allow[REP002] equality hashing only, never
                # persisted and never feeds a seed.
                return hash(self._items)
    """)
    assert findings == []


# ----------------------------------------------------------------------
# REP003 cache-key-drift


_CONFIG_TEMPLATE = """
    from dataclasses import dataclass
    from typing import ClassVar, FrozenSet


    @dataclass(frozen=True)
    class CampaignConfig:
        backend: str = "badco"
        seed: int = 0
        jobs: int = 1
        {extra_field}
        _SIGNATURE_EXCLUDE: ClassVar[FrozenSet[str]] = frozenset({exclude})

        @property
        def cache_key(self):
            return f"{{self.backend}}-s{{self.seed}}"
"""


def _config_snippet(extra_field="", exclude='{"jobs"}'):
    return _CONFIG_TEMPLATE.format(extra_field=extra_field, exclude=exclude)


def test_rep003_fires_on_unclassified_field():
    findings = lint_snippet(_config_snippet(extra_field="new_knob: int = 3"))
    assert fired(findings) == {"REP003"}
    assert "new_knob" in findings[0].message


def test_rep003_fires_on_stale_exclude_entry():
    findings = lint_snippet(
        _config_snippet(exclude='{"jobs", "gone_field"}'))
    assert fired(findings) == {"REP003"}
    assert "gone_field" in findings[0].message


def test_rep003_fires_when_exclude_list_is_missing():
    findings = lint_snippet("""
        from dataclasses import dataclass


        @dataclass(frozen=True)
        class CampaignConfig:
            backend: str = "badco"

            @property
            def cache_key(self):
                return self.backend
    """)
    assert fired(findings) == {"REP003"}
    assert "_SIGNATURE_EXCLUDE" in findings[0].message


def test_rep003_silent_on_a_fully_classified_config():
    findings = lint_snippet(_config_snippet())
    assert findings == []


# ----------------------------------------------------------------------
# REP004 parity-pair


_SCALAR_PAIR = """
    def rows_matrix(self, size, draws, seed):
        return self._vectorized(size, draws, seed)

    def rows_matrix_scalar(self, size, draws, seed):
        return [self._one(draw, seed) for draw in range(draws)]
"""


def test_rep004_fires_when_no_test_references_the_scalar():
    findings = lint_snippet(_SCALAR_PAIR,
                            tests_text="def test_nothing(): pass")
    assert fired(findings) == {"REP004"}
    assert "rows_matrix_scalar" in findings[0].message


def test_rep004_silent_when_a_test_references_the_scalar():
    findings = lint_snippet(_SCALAR_PAIR, tests_text="""
        def test_parity(plan):
            assert plan.rows_matrix(3, 5, 0) == plan.rows_matrix_scalar(
                3, 5, 0)
    """)
    assert findings == []


def test_rep004_skipped_without_a_tests_corpus():
    assert lint_snippet(_SCALAR_PAIR) == []


# ----------------------------------------------------------------------
# REP005 non-atomic-write


def test_rep005_fires_on_direct_final_path_writes():
    findings = lint_snippet("""
        import json
        import numpy as np
        from pathlib import Path

        def save(path, payload, arrays):
            with open(path, "w") as handle:
                json.dump(payload, handle)
            Path(path).write_text(json.dumps(payload))
            np.savez_compressed(path, **arrays)
    """)
    assert fired(findings) == {"REP005"}
    assert len(findings) == 3


def test_rep005_silent_on_the_temp_plus_replace_idiom():
    findings = lint_snippet("""
        import io
        import os
        import numpy as np

        def save(path, data, arrays):
            temporary = path.with_name(path.name + ".tmp")
            with open(temporary, "wb") as handle:
                handle.write(data)
            os.replace(temporary, path)

        def serialise(arrays):
            buffer = io.BytesIO()
            np.savez_compressed(buffer, **arrays)
            return buffer.getvalue()

        def load(path):
            with open(path) as handle:       # reads are always fine
                return handle.read()
    """)
    assert findings == []


def test_rep005_silent_on_atomic_open_handles():
    findings = lint_snippet("""
        import numpy as np
        from repro.ioutil import atomic_open

        def save_npz(path, arrays):
            with atomic_open(path, "wb") as handle:
                np.savez_compressed(handle, **arrays)
    """)
    assert findings == []


# ----------------------------------------------------------------------
# REP006 wall-clock-in-key


def test_rep006_fires_on_wall_clock_in_keys_and_names():
    findings = lint_snippet("""
        import os
        import time

        def run_name(prefix):
            return f"{prefix}-{time.time()}"

        class Store:
            def entry_signature(self, config):
                return repr(config) + str(os.getpid())
    """)
    assert fired(findings) == {"REP006"}
    assert len(findings) == 2


def test_rep006_silent_on_timing_measurements():
    findings = lint_snippet("""
        import time

        def measure(fn):
            started = time.perf_counter()
            fn()
            return time.perf_counter() - started

        def uptime(epoch):
            return time.time() - epoch       # arithmetic, not a key
    """)
    assert findings == []


# ----------------------------------------------------------------------
# REP007 set-iteration-order


def test_rep007_fires_on_ordered_output_from_sets():
    findings = lint_snippet("""
        def bad(names, mapping):
            first = list({n for n in names})
            rows = [mapping[n] for n in set(names)]
            for name in {"b", "a"}:
                rows.append(name)
            return first, rows
    """)
    assert fired(findings) == {"REP007"}
    assert len(findings) == 3


def test_rep007_silent_on_sorted_and_reductions():
    findings = lint_snippet("""
        def good(names, mapping):
            ordered = sorted(set(names))
            total = sum(mapping[n] for n in set(names))
            biggest = max({len(n) for n in names})
            unique = {n.upper() for n in set(names)}
            return ordered, total, biggest, unique
    """)
    assert findings == []


# ----------------------------------------------------------------------
# Suppression machinery (REP000)


def test_bare_suppression_without_reason_is_rep000():
    findings = lint_snippet("""
        def seed_for(name):
            return hash(name)  # repro: allow[REP002]
    """)
    assert fired(findings) == {"REP000"}
    assert "justification" in findings[0].message


def test_unknown_rule_id_in_allow_is_rep000():
    findings = lint_snippet("""
        x = 1  # repro: allow[REP999] no such rule
    """)
    assert fired(findings) == {"REP000"}
    assert "REP999" in findings[0].message


def test_standalone_suppression_reaches_past_comment_blocks():
    findings = lint_snippet("""
        def seed_for(name):
            # repro: allow[REP002] this fixture pretends to have a
            # reason that spans two comment lines.
            return hash(name)
    """)
    assert findings == []


def test_suppression_only_masks_the_named_rule():
    findings = lint_snippet("""
        import random

        def draw(name):
            rng = random.Random()  # repro: allow[REP002] wrong rule id
            return rng.random() + hash(name)
    """)
    # REP002 (hash on the next line) is NOT covered by a suppression on
    # the rng line, and REP001 is not named by the comment at all.
    assert fired(findings) == {"REP001", "REP002"}


def test_syntax_errors_surface_as_rep000():
    findings = lint_snippet("def broken(:\n    pass\n")
    assert fired(findings) == {"REP000"}
    assert "syntax error" in findings[0].message


# ----------------------------------------------------------------------
# Output formats and CLI


def test_text_and_json_renderings():
    findings = [Finding("src/a.py", 3, "REP001", "message one"),
                Finding("src/b.py", 9, "REP005", "message two")]
    text = to_text(findings)
    assert "src/a.py:3: REP001 message one" in text
    assert text.endswith("2 findings")
    import json

    payload = json.loads(to_json(findings))
    assert payload[0] == {"path": "src/a.py", "line": 3,
                          "rule": "REP001", "message": "message one"}


def test_cli_lint_exits_nonzero_on_findings(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrng = random.Random()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REP001" in out and "1 finding" in out


def test_cli_lint_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("key = hash('x')\n")
    assert main(["lint", str(bad), "--format", "json"]) == 1
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "REP002"


def test_cli_lint_rules_listing(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("REP001", "REP002", "REP003", "REP004", "REP005",
                    "REP006", "REP007"):
        assert rule_id in out


def test_every_rule_has_id_name_and_motivation():
    rules = all_rules()
    assert [rule.id for rule in rules] == [
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
        "REP007"]
    for rule in rules:
        assert rule.name and rule.motivation


# ----------------------------------------------------------------------
# The tier-1 gate: the shipped tree stays clean


def test_source_tree_is_clean():
    findings = lint_paths([REPO / "src" / "repro"],
                          tests_root=REPO / "tests", display_root=REPO)
    assert findings == [], "\n" + to_text(findings)


def test_cli_lint_defaults_to_the_package_tree(capsys):
    assert main(["lint"]) == 0
    assert "0 findings" in capsys.readouterr().out
