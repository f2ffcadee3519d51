"""Figure 7: detailed-simulator-judged confidence (DIP vs LRU)."""

from repro.experiments import fig7_actual_confidence


def test_fig7_actual_confidence(benchmark, scale, session):
    result = benchmark.pedantic(
        lambda: fig7_actual_confidence.run(scale, session,
                                           core_counts=(2,)),
        rounds=1, iterations=1)
    print()
    for row in result.rows():
        print(row)
    curves = result.curves[2]
    assert set(curves) == {"random", "bench-strata", "workload-strata"}
    for series in curves.values():
        assert all(0.0 <= v <= 1.0 for v in series)
