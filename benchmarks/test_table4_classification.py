"""Table IV: MPKI classification of the 22 benchmarks."""

from repro.experiments import table4_classification


def test_table4_classification(benchmark, scale, session):
    result = benchmark.pedantic(
        lambda: table4_classification.run(scale, session),
        rounds=1, iterations=1)
    print()
    for row in result.rows():
        print(row)
    matches = result.matches_paper()
    threshold = 20 if scale.value != "small" else 12
    assert sum(matches.values()) >= threshold, matches
