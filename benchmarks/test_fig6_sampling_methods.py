"""Figure 6: the four sampling methods' confidence vs sample size."""

from repro.experiments import fig6_sampling_methods


def test_fig6_sampling_methods(benchmark, scale, session):
    sizes = (10, 20, 30, 60, 100)
    result = benchmark.pedantic(
        lambda: fig6_sampling_methods.run(
            scale, session, cores=2, sample_sizes=sizes),
        rounds=1, iterations=1)
    print()
    for row in result.rows():
        print(row)
    for pair, curves in result.curves.items():
        strat = curves["workload-strata"]
        rand = curves["random"]
        # Workload stratification is at least as decisive as random
        # sampling at every size (paper: reaches ~100 % with tens of
        # workloads where random needs hundreds).
        for s, r in zip(strat, rand):
            assert abs(s - 0.5) >= abs(r - 0.5) - 0.07, (pair, strat, rand)
