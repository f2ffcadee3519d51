"""The vectorized ``random.sample`` replay vs the real generator.

:func:`repro.core.sampling.mtstream.replay_schedule` promises
bit-identical results to calling ``rng.sample`` / ``rng.shuffle`` /
``rng.randrange`` in a Python loop -- including the generator's final
state -- across both ``random.sample`` algorithms (the Fisher-Yates
pool path and the selection-set path) and the ``setsize`` crossover
between them.  These tests compare against CPython's own generator
with ``==``, no tolerances.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.sampling.mtstream as mtstream
from repro.core.sampling.mtstream import (
    apply_shuffle,
    pool_pick,
    replay_schedule,
    sample_uses_pool,
)


def scalar_reference(rng, ops, draws):
    """What the equivalent Python loop produces, draw-major."""
    results = [[] for _ in ops]
    for _ in range(draws):
        for index, (kind, n, k) in enumerate(ops):
            if kind == "randbelow":
                results[index].append([rng.randrange(n) for _ in range(k)])
            elif kind == "sample":
                results[index].append(rng.sample(range(n), k))
            else:
                values = list(range(n))
                rng.shuffle(values)
                results[index].append(values)
    return results


def replay_values(rng, ops, draws):
    """Replay a schedule and map every op to value level."""
    matrices = replay_schedule(rng, ops, draws)
    out = []
    for (kind, n, k), matrix in zip(ops, matrices):
        if kind == "sample" and sample_uses_pool(n, k):
            out.append(pool_pick(np.arange(n), matrix))
        elif kind == "shuffle":
            rows = np.broadcast_to(np.arange(n),
                                   (draws, n)).copy()
            apply_shuffle(rows, matrix)
            out.append(rows)
        else:
            out.append(matrix)
    return out


def assert_schedule_matches(ops, draws, seed):
    mine = random.Random(seed)
    theirs = random.Random(seed)
    got = replay_values(mine, ops, draws)
    expected = scalar_reference(theirs, ops, draws)
    for index in range(len(ops)):
        for draw in range(draws):
            assert got[index][draw].tolist() == expected[index][draw], \
                (ops, index, draw)
    # The replay leaves the generator exactly where the loop would.
    assert mine.getstate() == theirs.getstate()


def test_setsize_crossover_rule_matches_cpython():
    """Our pool/selection-set split must equal random.sample's."""
    for k in range(1, 40):
        boundary = [n for n in range(max(k, 1), 400)
                    if not sample_uses_pool(n, k)]
        if not boundary:
            continue
        first = boundary[0]
        # One draw on each side of the crossover agrees with CPython
        # (covered value-level by the parity tests; here we pin the
        # crossover point itself via the documented setsize formula).
        import math
        setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
        assert first == setsize + 1


# Pool sizes straddle the selection-set/pool crossover: k <= 5 flips
# at n == 21, k in (5, 21] at n == 85.
@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(1, 110), st.integers(1, 8)), min_size=1,
    max_size=4), st.integers(0, 2 ** 40))
def test_sample_replay_round_trip(pairs, seed):
    ops = [("sample", max(n, k), k) for n, k in pairs]
    assert_schedule_matches(ops, draws=7, seed=seed)


@settings(max_examples=25, deadline=None)
@given(st.integers(6, 30), st.integers(0, 2 ** 32))
def test_large_k_selection_set_round_trip(k, seed):
    # Force the selection-set path for k > 5 (setsize >= 85).
    ops = [("sample", 86 + (seed % 40), k)]
    assert_schedule_matches(ops, draws=5, seed=seed)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 32))
def test_shuffle_and_randbelow_round_trip(n, seed):
    ops = [("shuffle", n, 0), ("randbelow", n, 3), ("sample", n, 1)]
    assert_schedule_matches(ops, draws=9, seed=seed)


def test_duplicate_prone_selection_sets():
    """Small selection-set pools re-draw duplicates frequently."""
    ops = [("sample", 22, 5), ("sample", 23, 2), ("sample", 25, 4)]
    for seed in range(10):
        assert_schedule_matches(ops, draws=200, seed=seed)


def test_mixed_bounds_reuse_and_multi_accept():
    """One bound serving single-accept, multi-accept and k=2 steps."""
    ops = [("sample", 316, 1), ("randbelow", 316, 4), ("sample", 316, 2),
           ("sample", 316, 1)]
    assert_schedule_matches(ops, draws=150, seed=9)


def test_draws_zero_and_empty_ops_touch_nothing():
    rng = random.Random(3)
    state = rng.getstate()
    outs = replay_schedule(rng, [("sample", 10, 3)], 0)
    assert outs[0].shape == (0, 3)
    assert rng.getstate() == state
    assert replay_schedule(rng, [], 5) == []
    assert rng.getstate() == state


def test_buffer_regrow_still_bit_identical(monkeypatch):
    """An undersized first buffer extends and replays correctly."""
    original = mtstream._expected_words
    monkeypatch.setattr(
        mtstream, "_expected_words",
        lambda steps: (original(steps)[0] * 0.1, 0.0))
    assert_schedule_matches(
        [("sample", 400, 2), ("randbelow", 1, 2)], draws=300, seed=5)


def _count_walks(monkeypatch):
    """Spy on the straggler walk; returns the list its calls append to."""
    calls = []
    original = mtstream._walk_window

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mtstream, "_walk_window", spy)
    return calls


def test_window_straggler_fallback(monkeypatch):
    """Duplicate pile-ups beyond the window cap take the scalar walk."""
    monkeypatch.setattr(mtstream, "_WINDOW_EXTRA", 0)
    walks = _count_walks(monkeypatch)
    assert_schedule_matches([("sample", 22, 5)], draws=400, seed=11)
    assert walks


# ----------------------------------------------------------------------
# Selection-set windows: the duplicate-pair construction vs the
# per-offset scan it replaced, and parity at the served shape.

def window_ends_reference(previous, q, extra):
    """Window ends by one full pass per window offset (the reference).

    For every accepted start, scan offsets ``0 .. q + extra - 1``
    counting fresh values (``previous[index] < start``); starts still
    short of ``q`` distinct values after that finish with a scalar
    walk.  -1 where the buffer ends first.
    """
    total = len(previous)
    starts = np.arange(total + 1, dtype=np.int64)
    found = np.zeros(total + 1, dtype=np.int64)
    ends = np.full(total + 1, -1, dtype=np.int64)
    active = np.ones(total + 1, dtype=bool)
    cap = q + extra
    for offset in range(cap):
        index = starts + offset
        active &= index < total
        if not active.any():
            break
        safe = np.minimum(index, max(total - 1, 0))
        fresh = active & (previous[safe] < starts)
        found += fresh
        hit = fresh & (found == q)
        ends[hit] = index[hit]
        active &= ~hit
    else:
        for start in np.flatnonzero(active):
            start = int(start)
            seen = int(found[start])
            index = start + cap
            while index < total:
                if previous[index] < start:
                    seen += 1
                    if seen == q:
                        ends[start] = index
                        break
                index += 1
    return ends


def previous_reference(accepted):
    last = {}
    out = []
    for index, value in enumerate(accepted):
        out.append(last.get(value, -1))
        last[value] = index
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 300), st.data())
def test_window_ends_match_the_offset_scan(n, data):
    q = data.draw(st.integers(2, min(n, 40)), label="q")
    extra = data.draw(st.sampled_from([0, mtstream._WINDOW_EXTRA]),
                      label="extra")
    top = (1 << n.bit_length()) - 1
    words = data.draw(st.lists(st.integers(0, top), max_size=600),
                      label="words")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mtstream, "_WINDOW_EXTRA", extra)
        bound = mtstream._Bound(n, np.array(words, dtype=np.uint32),
                                q + extra)
        ends = bound.window_ends(q)
    previous = bound.previous()
    assert previous.tolist() == previous_reference(bound.accepted().tolist())
    expected = window_ends_reference(previous, q, extra)
    assert ends.tolist() == expected.tolist()


@pytest.mark.parametrize("n,q", [(10660, 80), (316, 80), (65535, 30),
                                 (70000, 30), (22, 5)])
def test_window_ends_match_on_long_buffers(n, q):
    """Radix-keyed (n < 2**16) and wide-keyed bounds over long buffers."""
    words = np.random.default_rng(n ^ q).integers(
        0, 1 << n.bit_length(), size=60_000).astype(np.uint32)
    bound = mtstream._Bound(n, words, q + mtstream._WINDOW_EXTRA)
    expected = window_ends_reference(bound.previous(), q,
                                     mtstream._WINDOW_EXTRA)
    assert np.array_equal(bound.window_ends(q), expected)


#: The workload-strata schedule of one W = 100 point of the benchmark's
#: served estimate (4 cores, 12 650 workloads, LRU vs DRRIP).
SERVED_W100 = [("sample", 316, 3), ("sample", 10660, 80),
               ("sample", 316, 3), ("sample", 316, 3), ("sample", 426, 4),
               ("sample", 414, 4), ("sample", 202, 3)]


@pytest.mark.parametrize("ops,draws,seed", [
    (SERVED_W100, 1000, 100),
    ([("sample", 10007, 80)], 300, 3),     # q = 80 over n ~ 10 000
])
def test_served_shape_selection_set_parity(ops, draws, seed):
    assert_schedule_matches(ops, draws=draws, seed=seed)


def test_windows_outgrowing_the_gap_limit_parity(monkeypatch):
    """Duplicate-heavy windows (q = 80 of n = 316, ~12 re-draws each)
    pass the gap limit and finish on the straggler walk."""
    walks = _count_walks(monkeypatch)
    assert_schedule_matches([("sample", 316, 80)], draws=300, seed=8)
    assert walks


def test_rejects_bad_schedules():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        replay_schedule(rng, [("sample", 3, 5)], 1)
    with pytest.raises(ValueError):
        replay_schedule(rng, [("randbelow", 0, 1)], 1)
    with pytest.raises(ValueError):
        replay_schedule(rng, [("bogus", 3, 1)], 1)
    with pytest.raises(ValueError):
        replay_schedule(rng, [("sample", 3, 1)], -1)


# ----------------------------------------------------------------------
# Plan-level parity: vectorized rows_matrix vs the scalar reference.

def _plan_parity(plan, sizes, draws=120):
    for size in sizes:
        fast_rng = random.Random(77 ^ size)
        slow_rng = random.Random(77 ^ size)
        rows, weights = plan.rows_matrix(size, draws, fast_rng)
        rows_ref, weights_ref = plan.rows_matrix_scalar(size, draws,
                                                        slow_rng)
        assert rows.tolist() == rows_ref.tolist()
        assert weights.tolist() == weights_ref.tolist()
        assert fast_rng.getstate() == slow_rng.getstate()


def test_stratified_plan_parity_and_rng_state():
    from repro.bench.spec import benchmark_names
    from repro.core.population import WorkloadPopulation
    from repro.core.sampling import WorkloadStratification

    population = WorkloadPopulation(benchmark_names()[:8], 3)
    rng = random.Random(5)
    delta = {w: rng.gauss(0.0, 1.0) for w in population}
    method = WorkloadStratification(delta, min_stratum=8)
    plan = method.plan(population.index, population)
    # Small sizes merge strata; large ones oversample (randbelow path).
    _plan_parity(plan, sizes=(3, 9, 40, len(population) + 15))


def test_balanced_plan_parity_both_modes():
    from repro.bench.spec import benchmark_names
    from repro.core.population import WorkloadPopulation
    from repro.core.sampling.balanced import BalancedRandomPlan

    population = WorkloadPopulation(benchmark_names()[:9], 2)
    for vectorized in (True, None):
        plan = BalancedRandomPlan(population.index, population,
                                  vectorized=vectorized)
        _plan_parity(plan, sizes=(4, 7, 30))


def test_stratified_plan_parity_at_the_served_shape():
    """8 strata, W = 100, 1 000 draws: rows and final state."""
    from repro.core.sampling import StratifiedRowPlan

    sizes = [10660, 316, 316, 316, 426, 414, 202, 2000]
    slots = [60, 3, 3, 3, 4, 4, 3, 20]
    cuts = np.cumsum([0] + sizes)
    strata = [list(range(int(lo), int(hi)))
              for lo, hi in zip(cuts[:-1], cuts[1:])]
    plan = StratifiedRowPlan(lambda size: list(zip(strata, slots)),
                             int(cuts[-1]))
    _plan_parity(plan, sizes=(100,), draws=1000)


def test_simple_plan_batches_advance_the_generator():
    """Consecutive batches continue the stream like sample() calls."""
    from repro.bench.spec import benchmark_names
    from repro.core.population import WorkloadPopulation
    from repro.core.sampling import SimpleRandomSampling

    population = WorkloadPopulation(benchmark_names()[:8], 3)
    method = SimpleRandomSampling()
    plan = method.plan(population.index, population)
    batched = random.Random(21)
    looped = random.Random(21)
    for size, draws in ((7, 50), (3, 40)):
        rows, _ = plan.rows_matrix(size, draws, batched)
        expected = [list(method.sample(population, size, looped).workloads)
                    for _ in range(draws)]
        assert [[population[r] for r in row]
                for row in rows.tolist()] == expected
    assert batched.getstate() == looped.getstate()
