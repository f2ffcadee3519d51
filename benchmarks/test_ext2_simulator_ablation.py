"""Extension 2: BADCO vs interval-model simulator ablation."""

from repro.experiments import ext2_simulator_ablation


def test_ext2_simulator_ablation(benchmark, scale, session):
    result = benchmark.pedantic(
        lambda: ext2_simulator_ablation.run(scale, session, cores=2,
                                            sample_sizes=(10, 20, 40)),
        rounds=1, iterations=1)
    print()
    for row in result.rows():
        print(row)
    # The interval model trains from half the detailed-simulation work
    # per benchmark (one training run instead of BADCO's two).
    assert result.interval_uops_per_benchmark * 2 <= \
        result.badco_uops_per_benchmark + 1
    # BADCO is the more accurate of the two (its raison d'etre).
    assert result.badco_mean_error <= result.interval_mean_error + 2.0
    # Strata built from either approximate simulator are usable: at the
    # largest sample they are at least as decisive as random sampling.
    for name in ("strata-from-badco", "strata-from-interval"):
        strat = abs(result.confidence[name][-1] - 0.5)
        rand = abs(result.confidence["random"][-1] - 0.5)
        assert strat >= rand - 0.1, name
