"""Table III: BADCO vs detailed simulator speed (MIPS)."""

from repro.experiments import table3_speedup


def test_table3_speedup(benchmark, scale, session):
    result = benchmark.pedantic(
        lambda: table3_speedup.run(scale, session, workloads_per_point=2),
        rounds=1, iterations=1)
    print()
    for row in result.rows():
        print(row)
    # Shape: BADCO is much faster than the detailed simulator at every
    # core count (the paper's 14.8x-68.1x; absolute ratios differ).
    for row in result.rows_by_cores.values():
        assert row.speedup > 3.0, row
