"""Figure 2: BADCO CPI accuracy vs the detailed simulator."""

from repro.experiments import fig2_cpi_accuracy


def test_fig2_cpi_accuracy(benchmark, scale, session):
    result = benchmark.pedantic(
        lambda: fig2_cpi_accuracy.run(scale, session, core_counts=(2, 4)),
        rounds=1, iterations=1)
    print()
    for row in result.rows():
        print(row)
    for cores, r in result.per_cores.items():
        # Paper: mean CPI error ~4-4.6 %, max < 22 %.  Our BADCO is a
        # coarser reimplementation; hold it to the same order.
        assert r.mean_cpi_error < 15.0, (cores, r.mean_cpi_error)
        # Speedup errors are much smaller than CPI errors (the paper's
        # central accuracy claim).
        assert r.mean_speedup_error < r.mean_cpi_error, cores
