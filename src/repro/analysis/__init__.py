"""Static analysis for the project's reproducibility invariants.

The reproduction rests on invariants that ordinary linters do not
know about: bit-identical determinism across processes, cache keys
that track every result-changing configuration field, vectorized /
scalar parity pairs with golden-reference test coverage, and atomic
persistence writes so concurrent readers never observe torn files.
Each of those has already bitten (the PR 1 per-process-salted
``hash()`` seeding bug, the ``-v2`` cache-key version bump) or is the
stated precondition for the next step (the concurrent estimation
daemon).  This package enforces them mechanically:

- :mod:`repro.analysis.findings` -- the :class:`Finding` record and
  text/JSON output;
- :mod:`repro.analysis.suppress` -- ``# repro: allow[REP00x] reason``
  suppression comments (a reason is mandatory);
- :mod:`repro.analysis.registry` -- rule base class, registry, and the
  parsed-module / project sources rules consume;
- :mod:`repro.analysis.rules` -- the project-specific rules REP001..7;
- :mod:`repro.analysis.runner` -- the file walker that ties it all
  together.

Run it as ``repro lint`` (or ``python -m repro.analysis``); the
tier-1 suite keeps the tree clean via ``tests/test_lint.py``.
"""

from repro.analysis.findings import Finding, to_json, to_text
from repro.analysis.registry import ModuleSource, Project, Rule, all_rules
from repro.analysis.runner import lint_paths, lint_project

__all__ = [
    "Finding",
    "ModuleSource",
    "Project",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_project",
    "to_json",
    "to_text",
]
