"""MTStream must replay random.Random's exact word stream and commit it."""

import random

import numpy as np
import pytest

from repro.core.sampling.mtstream import MTStream


@pytest.mark.parametrize("seed", [0, 1, 42, (7 << 16) ^ 30, 2**63 + 11])
def test_words_match_getrandbits(seed):
    rng = random.Random(seed)
    stream = MTStream(random.Random(seed))
    expected = [rng.getrandbits(32) for _ in range(3000)]
    got = stream.words(3000)
    assert got.tolist() == expected


def test_words_across_multiple_calls_and_blocks(seed=5):
    rng = random.Random(seed)
    stream = MTStream(random.Random(seed))
    got = np.concatenate([stream.words(n) for n in (1, 623, 624, 1300, 7)])
    expected = [rng.getrandbits(32) for _ in range(len(got))]
    assert got.tolist() == expected


def test_snapshot_mid_stream():
    """Constructing from a partially-consumed generator continues it."""
    rng = random.Random(99)
    for _ in range(1000):       # leave the state mid-block
        rng.getrandbits(32)
    stream = MTStream(rng)
    expected = [rng.getrandbits(32) for _ in range(800)]
    assert stream.words(800).tolist() == expected


@pytest.mark.parametrize("n", [1, 2, 3, 21, 30, 253, 12650, 2**20 + 7])
def test_randbelow_matches_randrange(n):
    seed = (3 << 16) ^ n
    rng = random.Random(seed)
    stream = MTStream(random.Random(seed))
    count = 2500
    expected = [rng.randrange(n) for _ in range(count)]
    assert stream.randbelow(n, count).tolist() == expected


def test_randbelow_leaves_stream_at_scalar_position():
    """After a batched draw, the next values still match the scalar rng."""
    rng = random.Random(1234)
    stream = MTStream(random.Random(1234))
    for _ in range(777):
        rng.randrange(30)
    stream.randbelow(30, 777)
    expected = [rng.randrange(253) for _ in range(500)]
    assert stream.randbelow(253, 500).tolist() == expected
    # ... and raw words stay aligned too.
    assert stream.words(10).tolist() == [rng.getrandbits(32)
                                         for _ in range(10)]


def test_getrandbits_small_k():
    rng = random.Random(7)
    stream = MTStream(random.Random(7))
    expected = [rng.getrandbits(5) for _ in range(2000)]
    assert stream.getrandbits(5, 2000).tolist() == expected


def test_rejects_bad_arguments():
    stream = MTStream(random.Random(0))
    with pytest.raises(ValueError):
        stream.randbelow(0, 10)
    with pytest.raises(ValueError):
        stream.getrandbits(33, 1)
    with pytest.raises(ValueError):
        stream.words(-1)


def test_reads_leave_the_generator_alone_until_commit():
    """Words come from a clone; commit advances rng past the consumed
    words exactly as the scalar calls would."""
    rng = random.Random(31)
    state = rng.getstate()
    stream = MTStream(rng)
    stream.randbelow(253, 900)
    stream.words(17)
    assert rng.getstate() == state
    stream.commit()
    reference = random.Random(31)
    for _ in range(900):
        reference.randrange(253)
    for _ in range(17):
        reference.getrandbits(32)
    assert rng.getstate() == reference.getstate()
    stream.commit()             # nothing consumed since: a no-op
    assert rng.getstate() == reference.getstate()
    assert stream.words(5).tolist() == [reference.getrandbits(32)
                                        for _ in range(5)]
