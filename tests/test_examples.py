"""Examples smoke test: the runnable walkthroughs must actually run.

Executes selected ``examples/`` scripts in-process against hermetic
cache/model-store directories.  Only the fast, smoke-sized examples
belong here; the simulation-heavy walkthroughs are exercised through
the experiment drivers they share code with.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def hermetic_dirs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_MODEL_STORE_DIR", str(tmp_path / "models"))
    return tmp_path


def test_two_stage_estimate_example(hermetic_dirs, capsys):
    module = _load("two_stage_estimate")
    module.main()
    out = capsys.readouterr().out
    assert "two-stage: analytic screen -> badco refine" in out
    assert "budget accounting:" in out
    assert "refined 12" in out  # round(0.2 * 60)


def test_full_scale_estimate_example(hermetic_dirs, capsys):
    module = _load("full_scale_estimate")
    module.main()
    out = capsys.readouterr().out
    # The walkthrough's three acts: cold pipeline, warm zero-training
    # reuse, and a pair with an actual verdict.
    assert "population frame" in out
    assert "training runs: 0" in out
    assert "bit-identical 1/cv: True" in out
    assert "RND vs LRU" in out


def test_new_policy_ship_example(hermetic_dirs, capsys):
    module = _load("new_policy_ship")
    module.main()
    out = capsys.readouterr().out
    assert "guideline: declare-equivalent" in out
    # Exact verdicts: the strata come from study.delta_column.
    assert "            random: 0.302" in out
    assert "   workload-strata: 0.352" in out
