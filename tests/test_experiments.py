"""Experiment drivers: structure and shape checks at SMALL scale.

These are integration tests over the whole stack (traces -> cores ->
uncore -> campaigns -> statistics).  They use the SMALL scale and a
shared module-scoped session, so the population is simulated once.
"""


import pytest

from repro.api import Scale, Session
from repro.experiments import (
    ext1_speedup_accuracy,
    ext2_simulator_ablation,
    fig1_confidence_curve,
    fig3_model_validation,
    fig4_cv_bars,
    fig5_cv_metrics,
    fig6_sampling_methods,
    fig7_actual_confidence,
    sec7_overhead,
    table4_classification,
)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    cache = tmp_path_factory.mktemp("campaigns")
    return Session(Scale.SMALL, seed=0, cache_dir=cache)


def test_fig1_saturation():
    result = fig1_confidence_curve.run()
    assert result.saturation_high > 0.997
    assert result.saturation_low < 0.003
    confs = [c for _, c in result.points]
    assert confs == sorted(confs)           # monotone in x


def test_sec7_paper_numbers_reproduce_exactly():
    result = sec7_overhead.run_paper_numbers()
    by_label = {s.label: s for s in result.scenarios}
    assert by_label["balanced random (75 %)"].detailed_hours == \
        pytest.approx(136, rel=0.01)
    assert by_label["balanced random (90 %)"].detailed_hours == \
        pytest.approx(544, rel=0.01)
    assert result.stratification_extra_fraction == pytest.approx(0.74,
                                                                 abs=0.02)


def test_table4_classes_match_paper_at_full_trace_length():
    """Classification needs the MEDIUM trace length to be stable."""
    medium = Session(Scale.MEDIUM, seed=0, cache_dir=None)
    result = table4_classification.run(Scale.MEDIUM, medium)
    matches = result.matches_paper()
    assert sum(matches.values()) >= 20      # at least 20/22 in class
    # The class *sizes* keep Table IV's shape.
    from repro.bench.spec import MpkiClass
    sizes = {cls: 0 for cls in MpkiClass}
    for cls in result.classes.values():
        sizes[cls] += 1
    assert sizes[MpkiClass.LOW] >= 9
    assert sizes[MpkiClass.HIGH] >= 5


def test_fig5_case_study_shape(session):
    """The qualitative Fig. 4/5 findings on the 2-core population."""
    result = fig5_cv_metrics.run(Scale.SMALL, session, cores=2)
    icv = {f"{x}>{y}": m for (x, y), m in result.bars.items()}
    # LRU beats RND and FIFO (negative 1/cv for d = t_other - t_LRU).
    assert icv["LRU>RND"]["IPCT"] < 0
    assert icv["LRU>FIFO"]["IPCT"] < 0
    # LRU vs DIP/DRRIP are *close* pairs: |1/cv| well below the clear
    # pairs' magnitudes (the sign itself is unstable at SMALL scale).
    assert abs(icv["LRU>DIP"]["IPCT"]) < 0.8
    assert abs(icv["LRU>DRRIP"]["IPCT"]) < 0.8
    # DIP vs DRRIP is a *close* pair: |1/cv| well below 1.
    assert abs(icv["DIP>DRRIP"]["IPCT"]) < 1.0


def test_fig5_signs_mostly_consistent_across_metrics(session):
    result = fig5_cv_metrics.run(Scale.SMALL, session, cores=2)
    consistent = result.sign_consistent_pairs()
    assert len(consistent) >= 7             # out of 10 pairs


def test_fig3_model_matches_experiment(session):
    result = fig3_model_validation.run(
        Scale.SMALL, session, core_counts=(2,),
        sample_sizes=(10, 40, 160))
    series = result.series[2]
    assert series.max_gap() < 0.15


def test_fig6_sampling_method_ordering(session):
    result = fig6_sampling_methods.run(
        Scale.SMALL, session, cores=2,
        pairs=(("LRU", "DIP"),), sample_sizes=(10, 30))
    curves = result.curves[("LRU", "DIP")]
    # Everybody is a probability.
    for series in curves.values():
        assert all(0.0 <= v <= 1.0 for v in series)
    # Workload stratification is at least as *decisive* as random
    # sampling (its estimator has lower variance, so its verdict sits
    # further from the 0.5 coin-flip whichever policy wins).
    for i in range(2):
        strat = abs(curves["workload-strata"][i] - 0.5)
        rand = abs(curves["random"][i] - 0.5)
        assert strat >= rand - 0.05


def test_fig4_sources_agree_on_clear_pairs(session):
    result = fig4_cv_bars.run(Scale.SMALL, session, cores=2,
                              pairs=(("LRU", "FIFO"),),
                              sources=("badco-sample", "badco-population"))
    cells = result.bars[("LRU", "FIFO")]["IPCT"]
    assert cells["badco-sample"] < 0
    assert cells["badco-population"] < 0


# ----------------------------------------------------------------------
# Exact pins of experiments whose SMALL answers no other test checks
# (values recorded before their panel reads moved to ``columnar_panel``).

def _hexed(values):
    return [value.hex() for value in values]


def test_fig7_detailed_judged_curves_are_pinned(session):
    # The only test that runs the detailed backend through an
    # experiment: BADCO strata, detailed verdicts, both d(w) columns
    # built from panels.
    zeros = [0.0] * 5
    result = fig7_actual_confidence.run(Scale.SMALL, session,
                                        core_counts=(2,))
    assert result.curves == {2: {"random": zeros, "bench-strata": zeros,
                                  "workload-strata": zeros}}
    result = fig7_actual_confidence.run(Scale.SMALL, session,
                                        pair=("RND", "LRU"),
                                        core_counts=(2,))
    curves = {name: _hexed(curve) for name, curve in result.curves[2].items()}
    assert curves == {
        "random": ["0x1.e8f5c28f5c28fp-1", "0x1.fd70a3d70a3d7p-1",
                   "0x1.0000000000000p+0", "0x1.0000000000000p+0",
                   "0x1.0000000000000p+0"],
        "bench-strata": ["0x1.0000000000000p+0"] * 5,
        "workload-strata": ["0x1.f0a3d70a3d70ap-1", "0x1.fd70a3d70a3d7p-1",
                            "0x1.0000000000000p+0", "0x1.0000000000000p+0",
                            "0x1.0000000000000p+0"],
    }


def test_ext1_speedup_accuracy_is_pinned(session):
    result = ext1_speedup_accuracy.run(Scale.SMALL, session)
    assert result.true_speedup.hex() == "0x1.ffdcb9e28ed52p-1"
    assert result.hit_rates == {name: [1.0] * 5 for name in
                                ("random", "bench-strata",
                                 "workload-strata")}
    assert {name: _hexed(errors)
            for name, errors in result.mean_errors.items()} == {
        "random": ["0x1.0e7f6bc5d3b9dp-12", "0x1.5465d5c0553bap-13",
                   "0x1.06fadf7d3a66dp-13", "0x1.3fffed4f07314p-14",
                   "0x1.062e1b4610f32p-14"],
        "bench-strata": ["0x1.d3e869583f34ap-13", "0x1.ab91e87915cfap-14",
                         "0x1.f18e9d1647bb8p-15", "0x1.22ceac83a7f83p-14",
                         "0x1.a2bf2b1e6008fp-15"],
        "workload-strata": ["0x1.44446de9968c8p-13",
                            "0x1.708e204a4a3c3p-14",
                            "0x1.5d2800ffcc672p-15",
                            "0x1.d4e7ac9bf3861p-15",
                            "0x1.5de28c9844991p-15"],
    }


def test_ext2_simulator_ablation_is_pinned(session):
    result = ext2_simulator_ablation.run(Scale.SMALL, session)
    assert [(row.benchmark, row.detailed_ipc.hex(), row.badco_ipc.hex(),
             row.interval_ipc.hex()) for row in result.accuracy] == [
        ("povray", "0x1.2be3ad5773798p-1", "0x1.2cc48826575abp-1",
         "0x1.3b62557a3ac2dp-1"),
        ("gcc", "0x1.70b89b3b498b6p-2", "0x1.770b54579d502p-2",
         "0x1.5616fb4288146p-2"),
        ("mcf", "0x1.3becbf02fab67p-5", "0x1.2d5e8cfa3b99ep-5",
         "0x1.412289b35616fp-4"),
        ("libquantum", "0x1.02618cb37798bp-3", "0x1.cb5154c45af8ep-4",
         "0x1.cf8e7fc56c7d9p-3"),
    ]
    assert result.badco_mean_error.hex() == "0x1.1bb32a846e636p+2"
    assert result.interval_mean_error.hex() == "0x1.86311c5400a45p+5"
    assert (result.badco_training_uops,
            result.interval_training_uops) == (48000, 132000)
    assert {name: _hexed(curve)
            for name, curve in result.confidence.items()} == {
        "random": ["0x1.c28f5c28f5c29p-4", "0x1.1eb851eb851ecp-5",
                   "0x0.0p+0"],
        "strata-from-badco": ["0x0.0p+0"] * 3,
        "strata-from-interval": ["0x1.1eb851eb851ecp-4",
                                 "0x1.47ae147ae147bp-8", "0x0.0p+0"],
    }
