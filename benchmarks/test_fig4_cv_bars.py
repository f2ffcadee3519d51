"""Figure 4: 1/cv per policy pair/metric/measurement source (4 cores)."""

from repro.experiments import fig4_cv_bars


def test_fig4_cv_bars(benchmark, scale, session):
    result = benchmark.pedantic(
        lambda: fig4_cv_bars.run(scale, session, cores=4,
                                 pairs=(("LRU", "FIFO"), ("LRU", "DIP"),
                                        ("DIP", "DRRIP"))),
        rounds=1, iterations=1)
    print()
    for row in result.rows():
        print(row)
    # Clear pair: all sources agree LRU beats FIFO (negative 1/cv).
    fifo = result.bars[("LRU", "FIFO")]["IPCT"]
    assert all(v < 0 for v in fifo.values()), fifo
    # Close pair: |1/cv| well below the clear pair's magnitude.
    close = result.bars[("DIP", "DRRIP")]["IPCT"]
    assert abs(close["badco-population"]) < abs(fifo["badco-population"])
