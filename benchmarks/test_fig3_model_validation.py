"""Figure 3: analytical model vs measured confidence (DRRIP > DIP, WSU)."""

from repro.experiments import fig3_model_validation


def test_fig3_model_validation(benchmark, scale, session):
    result = benchmark.pedantic(
        lambda: fig3_model_validation.run(
            scale, session, core_counts=(2,),
            sample_sizes=(10, 20, 40, 80, 160)),
        rounds=1, iterations=1)
    print()
    for row in result.rows():
        print(row)
    # The model curve tracks the measurement (paper: "quite well, even
    # for small samples").
    assert result.series[2].max_gap() < 0.15
