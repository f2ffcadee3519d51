#!/usr/bin/env python
"""Evaluating a post-paper policy (SHiP) with the paper's method.

The whole point of the paper's methodology is to be reusable for the
*next* microarchitecture idea.  Here the candidate is SHiP
[Wu et al., MICRO 2011], published after DRRIP, implemented in
``repro.mem.replacement.ship`` -- and the question is the one the
method was built for: does SHiP beat DRRIP, and what does it take to
answer that credibly?

Workflow (all approximate simulation, SMALL scale):

1. ``Session.study`` runs the population under DRRIP and SHIP with the
   BADCO backend;
2. the pair is close (small |1/cv|), so the guideline routes to
   workload stratification;
3. show the confidence a 15-workload stratified sample achieves vs a
   15-workload random sample.
"""

from repro import Session, SimpleRandomSampling, WorkloadStratification


def main() -> None:
    session = Session(scale="small", seed=0)
    cores = 2
    population = session.population(cores)

    print("BADCO population run: DRRIP (baseline) vs SHIP (candidate)...")
    study = session.study("DRRIP", "SHIP", metric="IPCT", cores=cores)
    print(f"  1/cv = {study.inverse_cv:+.3f}   "
          f"(SHIP wins on population: {study.y_outperforms_x()})")
    decision = study.guideline(stratified_sample_size=15)
    print(f"  guideline: {decision.recommendation.value}")

    estimator = study.estimator(draws=600)
    strat = WorkloadStratification.from_column(
        study.delta_column, min_stratum=len(population) // 12)
    print(f"\nConfidence of a 15-workload sample "
          f"(decisive = far from 0.5):")
    for method in (SimpleRandomSampling(), strat):
        confidence = estimator.confidence(method, 15)
        print(f"  {method.name:>16}: {confidence:.3f}")
    print("\nThe stratified sample gives the decisive verdict a detailed "
          "simulator could then\nconfirm at a fraction of the cost of a "
          "large random sample (Section VII-A).")


if __name__ == "__main__":
    main()
