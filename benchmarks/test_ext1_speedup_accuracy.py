"""Extension 1: speedup accuracy (the paper's open problem)."""

from repro.experiments import ext1_speedup_accuracy


def test_ext1_speedup_accuracy(benchmark, scale, session):
    result = benchmark.pedantic(
        lambda: ext1_speedup_accuracy.run(
            scale, session, cores=2, epsilon=0.01,
            sample_sizes=(10, 20, 40, 80)),
        rounds=1, iterations=1)
    print()
    for row in result.rows():
        print(row)
    # The estimate converges: hit rates rise with sample size for
    # simple random sampling.
    random_curve = result.hit_rates["random"]
    assert random_curve[-1] >= random_curve[0] - 0.05
    # Workload stratification is never much worse than random, and its
    # mean speedup error is competitive.
    strat = result.mean_errors["workload-strata"]
    rand = result.mean_errors["random"]
    assert strat[-1] <= rand[-1] * 1.2
