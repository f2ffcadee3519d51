"""Figure 5: 1/cv on the BADCO population for all 3 metrics (4 cores)."""

from repro.experiments import fig5_cv_metrics


def test_fig5_cv_metrics(benchmark, scale, session):
    result = benchmark.pedantic(
        lambda: fig5_cv_metrics.run(scale, session, cores=4),
        rounds=1, iterations=1)
    print()
    for row in result.rows():
        print(row)
    # Metrics rank the policies identically on most pairs (the paper:
    # "the sign of cv does not depend on the throughput metric").
    assert len(result.sign_consistent_pairs()) >= 7
    # ...but magnitudes differ, so required sample sizes do too.
    sizes = result.required_sizes()
    spreads = [max(by_metric.values()) - min(by_metric.values())
               for by_metric in sizes.values() if len(by_metric) == 3]
    assert any(s > 0 for s in spreads)
