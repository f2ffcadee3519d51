"""Experiment drivers: one per table / figure of the paper.

Each driver module exposes a ``run(scale, session, ...)`` function
returning a structured result object with the same rows / series the
paper reports, plus a ``main()`` that prints it.  ``session`` is a
:class:`repro.api.Session` (a fresh one at ``scale`` when omitted), so
drivers handed the same session share its populations, model builders
and campaigns.  The benchmark harness under ``benchmarks/`` calls these
drivers and checks their shapes.
"""

from repro.experiments.common import POLICY_PAIRS

__all__ = ["POLICY_PAIRS"]
