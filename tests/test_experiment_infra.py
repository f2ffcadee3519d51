"""Experiment infrastructure: scales, sessions, result formatting."""

import pytest

from repro.api import Scale, Session
from repro.experiments.common import POLICY_PAIRS
from repro.experiments.fig2_cpi_accuracy import Fig2CoreResult, Fig2Result
from repro.experiments.table3_speedup import Table3Result, Table3Row
from repro.experiments.fig5_cv_metrics import Fig5Result


def test_policy_pairs_are_the_papers_ten():
    assert len(POLICY_PAIRS) == 10
    assert ("LRU", "RND") in POLICY_PAIRS
    assert ("DIP", "DRRIP") in POLICY_PAIRS
    # Each unordered pair appears exactly once.
    unordered = {frozenset(p) for p in POLICY_PAIRS}
    assert len(unordered) == 10


def test_scales_are_ordered_in_size():
    small = Session(Scale.SMALL, cache_dir=None)
    medium = Session(Scale.MEDIUM, cache_dir=None)
    full = Session(Scale.FULL, cache_dir=None)
    assert small.parameters.trace_length < medium.parameters.trace_length \
        <= full.parameters.trace_length
    for cores in (2, 4, 8):
        assert small.parameters.population_cap[cores] <= \
            medium.parameters.population_cap[cores] <= \
            full.parameters.population_cap[cores]


def test_full_scale_matches_paper_population_sizes():
    params = Session(Scale.FULL, cache_dir=None).parameters
    assert params.population_cap[2] == 253
    assert params.population_cap[4] == 12650
    assert params.population_cap[8] == 10000
    assert params.detailed_sample == 250
    assert params.draws == 10000


def test_context_caches_populations_and_campaigns():
    session = Session(Scale.SMALL, cache_dir=None)
    assert session.population(2) is session.population(2)
    assert session.campaign("badco", 2) is session.campaign("badco", 2)
    assert session.builder() is session.builder()


def test_detailed_sample_is_deterministic_and_inside_population():
    session = Session(Scale.SMALL, cache_dir=None)
    a = session.detailed_sample(2)
    b = session.detailed_sample(2)
    assert a == b
    population = set(session.population(2))
    assert all(w in population for w in a)
    assert len(a) == session.parameters.detailed_sample


def test_table3_row_speedup():
    row = Table3Row(cores=4, detailed_mips=0.05, badco_mips=2.0)
    assert row.speedup == pytest.approx(40.0)
    result = Table3Result({4: row})
    assert any("40.0" in line for line in result.rows())


def test_fig2_rows_format():
    core_result = Fig2CoreResult(
        cores=2, points=[(1.0, 1.1)], mean_cpi_error=4.5,
        max_cpi_error=20.0, mean_speedup_error=0.7,
        badco_underestimates=0.8)
    result = Fig2Result({2: core_result})
    rows = result.rows()
    assert "4.50" in rows[1]
    assert "20.00" in rows[1]


def test_fig5_result_helpers():
    bars = {
        ("LRU", "FIFO"): {"IPCT": -0.5, "WSU": -0.6, "HSU": -0.4},
        ("LRU", "DIP"): {"IPCT": 0.2, "WSU": -0.1, "HSU": 0.1},
    }
    result = Fig5Result(cores=4, bars=bars)
    assert result.sign_consistent_pairs() == [("LRU", "FIFO")]
    sizes = result.required_sizes()
    assert sizes[("LRU", "FIFO")]["IPCT"] == 32     # 8 / 0.5^2
