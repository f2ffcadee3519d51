"""Experiment drivers: structure and shape checks at SMALL scale.

These are integration tests over the whole stack (traces -> cores ->
uncore -> campaigns -> statistics).  They use the SMALL scale and a
shared module-scoped session, so the population is simulated once.
"""


import pytest

from repro.core.metrics import IPCT
from repro.api import Scale, Session
from repro.experiments import (
    fig1_confidence_curve,
    fig3_model_validation,
    fig4_cv_bars,
    fig5_cv_metrics,
    fig6_sampling_methods,
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
