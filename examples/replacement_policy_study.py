#!/usr/bin/env python
"""The paper's full workflow: evaluate a *new* policy against a baseline.

Scenario: you built a new LLC replacement policy (here we cast NRU as
the "new" design, since it is not part of the paper's five) and want to
know -- with controlled simulation cost -- whether it beats the LRU
baseline on a 2-core CMP.

The Section VII recipe, driven through one :class:`repro.Session`:

1. simulate a large workload sample with the *fast approximate*
   backend (``badco``) for both machines;
2. estimate cv of d(w); route via the guideline
   (cv > 10 equivalent / cv < 2 random / else workload stratification);
3. build the small detailed-simulation sample accordingly;
4. run the *detailed* backend only on that small sample and take the
   verdict (weighted throughput difference).
"""

import random

from repro import BalancedRandomSampling, Session, WorkloadStratification
from repro.core.planner import Recommendation


BASELINE = "LRU"
NEW_POLICY = "NRU"


def main() -> None:
    session = Session(scale="small", seed=0)
    cores = 2
    population = session.population(cores)

    print(f"Step 1: BADCO population run ({len(population)} workloads, "
          f"{BASELINE} vs {NEW_POLICY})...")
    study = session.study(BASELINE, NEW_POLICY, metric="IPCT", cores=cores,
                          backend="badco")
    decision = study.guideline(stratified_sample_size=12)
    print(f"  1/cv = {study.inverse_cv:+.3f}  ->  "
          f"{decision.recommendation.value}")

    if decision.recommendation is Recommendation.EQUIVALENT:
        print("  The machines are throughput-equivalent; stop here.")
        return

    print(f"\nStep 2: select {decision.sample_size} workloads "
          f"({decision.recommendation.value})...")
    rng = random.Random(1)
    if decision.recommendation is Recommendation.BALANCED_RANDOM:
        sampler = BalancedRandomSampling()
        size = min(decision.sample_size, 12)
    else:
        sampler = WorkloadStratification.from_column(
            study.delta_column, min_stratum=len(population) // 12)
        size = decision.sample_size
    sample = sampler.sample(population, size, rng)

    print(f"\nStep 3: detailed simulation of the {len(sample)} selected "
          f"workloads only...")
    results = session.results("detailed", cores,
                              policies=[BASELINE, NEW_POLICY],
                              workloads=sorted(set(sample.workloads)))

    variable = study.delta_variable
    values = []
    for workload in sample.workloads:
        values.append(variable.value(
            workload,
            results.ipcs(BASELINE, workload),
            results.ipcs(NEW_POLICY, workload)))
    verdict = sample.weighted_mean(values)
    detailed = session.campaign("detailed", cores)
    print(f"\nDetailed-simulation verdict on D = mean d(w): {verdict:+.5f}")
    print(f"=> {NEW_POLICY} {'outperforms' if verdict > 0 else 'does not outperform'} "
          f"{BASELINE} (judged on {len(sample)} detailed workloads instead "
          f"of {len(population)}).")
    mips = detailed.timing.mips
    print(f"   detailed simulations: {detailed.timing.simulations} "
          f"({detailed.timing.instructions / 1e6:.0f} M uops at "
          f"{mips:.3f} MIPS)")


if __name__ == "__main__":
    main()
