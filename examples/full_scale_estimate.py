#!/usr/bin/env python
"""End-to-end full-scale estimation: the paper's 8-core scenario.

The 8-core workload population has C(29, 8) = 4 292 145 members -- far
too many to simulate, which is exactly the situation the paper's
methodology is for.  ``Session.estimate_full_scale`` composes every
matrix-native layer into one driver:

1. *enumerate or rank-sample* the population as a ``CodeMatrix``
   (distinct combinadic ranks, unranked in bulk -- no rejection loop);
2. *score analytic panels*: the whole N x P x K IPC grid is one batch
   call on the ``analytic`` backend, with trained BADCO models and
   calibration anchors served from the persistent model store (a warm
   store performs **zero** training runs);
3. *build d(w)* as one columnar vector and report 1/cv;
4. *measure confidence* by Monte-Carlo resampling with simple random
   and workload-stratified sampling -- every draw batch comes from one
   seeded NumPy generator per sample size (see the README's "Draws"
   section).

This walkthrough runs the same pipeline at smoke scale (a 6-benchmark
suite, a 500-workload frame) so it finishes in seconds; switch
``BENCHMARKS`` to ``None`` and ``scale`` to ``"full"`` for the real
thing (the first run trains models; later runs reuse the store).  The
run also demonstrates the honest failure mode: if d(w) comes out
identically zero, the report says the backend cannot separate the
pair at this scale instead of feigning a verdict.
"""

from repro.api import Session

#: A class-balanced subset so the walkthrough trains 6 models, not 22.
#: Use None for the full suite.
BENCHMARKS = ("bzip2", "gcc", "libquantum", "mcf", "namd", "povray")


def main() -> None:
    session = Session(scale="small", seed=0,
                      benchmarks=BENCHMARKS and list(BENCHMARKS))
    print("First pass (cold model store trains what is missing)...")
    estimate = session.estimate_full_scale(
        "LRU", "DIP", metric="IPCT", cores=8, sample=500,
        draws=200, sample_sizes=(10, 30))
    for row in estimate.rows():
        print(row)

    print("\nSame estimate from a warm session "
          "(models load from the store):")
    warm = Session(scale="small", seed=0,
                   benchmarks=BENCHMARKS and list(BENCHMARKS))
    again = warm.estimate_full_scale(
        "LRU", "DIP", metric="IPCT", cores=8, sample=500,
        draws=200, sample_sizes=(10, 30))
    print(f"  training runs: {again.training_runs} "
          f"(bit-identical 1/cv: {again.inverse_cv == estimate.inverse_cv})")

    print("\nFor contrast, a 2-core pair the analytic closure can "
          "separate at this scale:")
    verdict = session.estimate_full_scale(
        "LRU", "RND", cores=2, draws=200, sample_sizes=(10, 30))
    for row in verdict.rows():
        print(row)


if __name__ == "__main__":
    main()
