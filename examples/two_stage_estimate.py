#!/usr/bin/env python
"""Two-stage estimation: analytic screen, budgeted event-driven refine.

The full-scale driver (``examples/full_scale_estimate.py``) scores the
whole frame on the analytic backend -- cheap, but the analytic closure
is a model of a model, and on scaled traces it can flatten real
contention to d(w) = 0.  ``Session.estimate_two_stage`` spends a
controlled simulation budget exactly where that matters:

1. *screen* the full frame analytically (stage 1 == the full-scale
   driver, same panels, same confidence curves);
2. *rank* rows by screening signal -- normalised |d(w)| plus each
   row's contribution to the cv spread -- with a floor share of the
   budget always allocated to evenly-spaced d(w) == 0 cells, so a
   screen that flattens a region to zero cannot hide it from stage 2;
3. *refine* the selected rows on an event-driven backend (``badco``
   here; ``interval`` also works) through the campaign engine's
   chunk-parallel grid calls -- bit-identical for any ``jobs``;
4. *splice* the refined d(w) values back into the column and
   re-estimate, reporting both stages side by side plus the
   refined-vs-screened disagreement (max/mean shift, sign flips).

The same pipeline is one CLI call::

    repro estimate LRU DIP --cores 8 --refine-backend badco \
        --refine-budget 200

This walkthrough runs at smoke scale (6 benchmarks, a 60-workload
4-core frame, budget 10) so it finishes in seconds.
"""

from repro.api import Session

#: A class-balanced subset so the walkthrough trains 6 models, not 22.
BENCHMARKS = ("bzip2", "gcc", "libquantum", "mcf", "namd", "povray")


def main() -> None:
    session = Session(scale="small", seed=0, benchmarks=list(BENCHMARKS))
    print("Two-stage estimate (analytic screen -> badco refine)...")
    estimate = session.estimate_two_stage(
        "LRU", "DIP", metric="IPCT", cores=4, sample=60,
        draws=200, sample_sizes=(10, 30),
        refine_backend="badco", refine_budget=10)
    for row in estimate.rows():
        print(row)

    print(f"\nbudget accounting: {estimate.refined} rows refined "
          f"({estimate.floor_allocated} from the no-signal floor), "
          f"{estimate.sign_flips} screen verdicts overturned")
    print(f"screen 1/cv {estimate.screen_inverse_cv:+.3f} -> "
          f"spliced 1/cv {estimate.inverse_cv:+.3f}")

    print("\nSame call with --refine-frac semantics (20% of the frame):")
    fractional = session.estimate_two_stage(
        "LRU", "DIP", metric="IPCT", cores=4, sample=60,
        draws=200, sample_sizes=(10, 30),
        refine_backend="badco", refine_frac=0.2)
    print(f"  frame 60 * 0.2 -> budget {fractional.refine_budget}, "
          f"refined {fractional.refined}")


if __name__ == "__main__":
    main()
