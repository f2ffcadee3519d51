"""Batched, bit-compatible replay of :class:`random.Random` sampling.

The Monte-Carlo confidence estimator must stay *bit-compatible* with
the historical pure-Python loop: the same seed has to select the same
workloads.  CPython's :class:`random.Random` is a Mersenne Twister
(MT19937) whose integer methods all reduce to ``_randbelow(n)``::

    k = n.bit_length()
    r = getrandbits(k)          # one 32-bit word, top k bits
    while r >= n:
        r = getrandbits(k)      # rejection: one more word per retry

so every draw is a function of the generator's 32-bit word stream.
:class:`MTStream` reads that stream ahead from a *clone* of the
caller's generator -- one ``getrandbits(32 * m)`` call yields the next
``m`` words, least significant first, in CPython's own C loop -- and
advances the caller's generator past exactly the words a replay
consumed, with one more such call.  NumPy then turns millions of words
into sample indices in a handful of array operations instead of
millions of interpreter-level calls, with bit-for-bit identical
results.

Only ``getrandbits(k)`` with ``k <= 32`` is replayed (one word per
call), which covers ``randrange``/``_randbelow`` for any population
that fits in memory.

On top of the raw stream, :func:`replay_schedule` replays whole
*schedules* of CPython sampling calls -- both ``random.sample``
algorithms (the selection-set and the partial-Fisher-Yates pool path,
including the ``setsize`` crossover rule that picks between them),
``shuffle`` and runs of ``randrange`` -- for many independent draws in
batched array operations.  The central difficulty is that every
``_randbelow`` consumes a *data-dependent* number of words (rejections,
plus selection-set re-draws on duplicates), so the word offset of each
call depends on every call before it.  The replay resolves that in
three vectorized stages:

1. per distinct bound ``n``, classify every buffered word as accepted
   or rejected once (``word >> (32 - k) < n``), giving prefix counts
   and accepted-position tables; selection-set steps also get, for
   every accepted start, the end of their duplicate re-draw window,
   found from the few close duplicate pairs in time linear in the
   buffer;
2. compose, over *all* possible word offsets at once, the per-draw
   advance map ``G[o]`` = "a draw starting at word ``o`` ends at word
   ``G[o]``" (one gather per schedule step), then walk the draws
   through ``G`` -- the only sequential part, one array lookup per
   draw instead of one Python call per pick;
3. gather every draw's accepted values from the tables and map them
   through the pure value-level transforms (Fisher-Yates pool
   mutation, shuffle swaps), which vectorize across draws.

Results are bit-identical to calling ``rng.sample`` / ``rng.shuffle``
/ ``rng.randrange`` in a Python loop, and the caller's generator is
left in exactly the state that loop would have produced.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

import numpy as np


class MTStream:
    """The exact 32-bit output stream of one :class:`random.Random`.

    Words are read ahead from a private clone, so reading never
    disturbs ``rng``; :meth:`commit` then advances ``rng`` past exactly
    the words consumed so far, as the equivalent scalar calls would.

    Args:
        rng: the generator whose *future* outputs to replay.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._source = random.Random(0)     # any seed: setstate wins
        self._source.setstate(rng.getstate())
        self._ahead = np.empty(0, dtype=np.uint32)
        self._consumed = 0

    def peek(self, count: int) -> np.ndarray:
        """The unconsumed words, read ahead to at least ``count``."""
        missing = count - len(self._ahead)
        if missing > 0:
            raw = self._source.getrandbits(32 * missing)
            fresh = np.frombuffer(raw.to_bytes(4 * missing, "little"),
                                  dtype="<u4").astype(np.uint32, copy=False)
            self._ahead = np.concatenate([self._ahead, fresh])
        return self._ahead

    def advance(self, count: int) -> None:
        """Consume the next ``count`` words (already peeked)."""
        self._ahead = self._ahead[count:]
        self._consumed += count

    def commit(self) -> None:
        """Advance the caller's generator past every consumed word."""
        if self._consumed:
            self._rng.getrandbits(32 * self._consumed)
            self._consumed = 0

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` 32-bit words, as uint32."""
        if count < 0:
            raise ValueError("count must be >= 0")
        out = self.peek(count)[:count].copy()
        self.advance(count)
        return out

    def getrandbits(self, k: int, count: int) -> np.ndarray:
        """``count`` outputs of ``getrandbits(k)``, one word each."""
        if not 0 < k <= 32:
            raise ValueError("k must be in [1, 32]")
        return self.words(count) >> np.uint32(32 - k)

    def randbelow(self, n: int, count: int) -> np.ndarray:
        """``count`` outputs of ``Random._randbelow(n)``, as int64.

        Reproduces the rejection loop exactly: each attempt consumes
        one word and accepted values appear in stream order, so the
        result equals ``[rng.randrange(n) for _ in range(count)]`` and
        the stream ends at the same position the scalar loop would.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        k = n.bit_length()
        if k > 32:
            raise ValueError("populations beyond 2**32 are unsupported")
        shift = np.uint32(32 - k)
        bound = np.uint32(n)
        out = np.empty(count, dtype=np.int64)
        have = 0
        while have < count:
            need = count - have
            # Expected attempts = need / (n / 2**k); read ~10% headroom
            # so one round nearly always suffices.
            pool = self.peek(need * (1 << k) // n + (need >> 3) + 32)
            vals = pool >> shift
            hits = np.flatnonzero(vals < bound)
            if len(hits) >= need:
                # The scalar loop stops right after the need-th
                # acceptance: place the stream exactly there.
                out[have:] = vals[hits[:need]]
                self.advance(int(hits[need - 1]) + 1)
                break
            out[have:have + len(hits)] = vals[hits]
            have += len(hits)
            self.advance(len(pool))
        return out


# ----------------------------------------------------------------------
# Schedule replay: random.sample / shuffle / randrange, batched draws.
#
# A *schedule* is the per-draw sequence of sampling calls as
# ``(kind, n, k)`` tuples:
#
#   ("sample", n, k)    -- random.sample(seq_of_len_n, k); emits the k
#                          drawn j-indices, in selection order.  On the
#                          pool path they are partial-Fisher-Yates
#                          indices (map through pool_pick); on the
#                          selection-set path they index the sequence
#                          directly.
#   ("randbelow", n, k) -- k independent randrange(n) calls.
#   ("shuffle", n, 0)   -- random.shuffle of an n-element list; emits
#                          the n-1 swap partners j for i = n-1 .. 1
#                          (map through apply_shuffle).
#
# replay_schedule evaluates the whole schedule for `draws` consecutive
# draws against one generator, exactly as a Python loop would.

#: Re-draw slots a ``q``-pick selection-set window may use before the
#: rare straggler (a draw hitting an improbable duplicate pile-up)
#: falls back to a tiny scalar walk: only duplicate pairs closer than
#: ``q + _WINDOW_EXTRA`` slots are tracked.
_WINDOW_EXTRA = 16


def sample_uses_pool(n: int, k: int) -> bool:
    """Whether ``random.sample(seq_of_len_n, k)`` takes the pool path.

    Replicates CPython's ``setsize`` crossover: below it an n-length
    pool list is cheaper than a k-length selection set, so sample runs
    a partial Fisher-Yates; above it, it draws indices into a set and
    re-draws duplicates.
    """
    setsize = 21                # size of a small set minus an empty list
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return n <= setsize


def pool_pick(values: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Replay the pool path's value mutation for a batch of draws.

    Args:
        values: the sampled sequence (length n), shared by all draws.
        j: the (draws, k) pool-index matrix a ("sample", n, k) schedule
            entry produced.

    Returns:
        The (draws, k) matrix of selected values: ``result[i] =
        pool[j_i]; pool[j_i] = pool[n-i-1]`` per draw, vectorized over
        the draw axis.
    """
    values = np.asarray(values)
    draws, k = j.shape
    pool = np.broadcast_to(values, (draws, len(values))).copy()
    out = np.empty((draws, k), dtype=values.dtype)
    rows = np.arange(draws)
    n = len(values)
    for i in range(k):
        ji = j[:, i]
        out[:, i] = pool[rows, ji]
        pool[rows, ji] = pool[:, n - i - 1]
    return out


def apply_shuffle(matrix: np.ndarray, j: np.ndarray) -> None:
    """Replay Fisher-Yates swaps in place for a batch of draws.

    Args:
        matrix: (draws, n) rows to shuffle, one draw each.
        j: the (draws, n-1) swap-partner matrix a ("shuffle", n, 0)
            schedule entry produced (columns are i = n-1 .. 1).
    """
    draws, n = matrix.shape
    rows = np.arange(draws)
    for column, i in enumerate(range(n - 1, 0, -1)):
        ji = j[:, column]
        partner = matrix[rows, ji].copy()
        anchor = matrix[:, i].copy()        # copy: ji may equal i
        matrix[rows, ji] = anchor
        matrix[:, i] = partner


class _Step:
    """One ``_randbelow`` run of a schedule: ``q`` accepted values of
    bound ``n``, optionally distinct (the selection-set re-draw rule).

    ``op`` / ``column`` locate where the step's values land in the
    caller-visible output (operation index, first output column).
    """

    __slots__ = ("n", "q", "distinct", "op", "column")

    def __init__(self, n: int, q: int, distinct: bool, op: int,
                 column: int) -> None:
        if n < 1:
            raise ValueError("bound must be positive")
        if n.bit_length() > 32:
            raise ValueError("populations beyond 2**32 are unsupported")
        self.n = n
        self.q = q
        self.distinct = distinct
        self.op = op
        self.column = column


def _expand_schedule(ops: Sequence[Tuple[str, int, int]]
                     ) -> Tuple[List[_Step], List[int]]:
    """Flatten schedule entries into ``_randbelow`` steps + widths."""
    steps: List[_Step] = []
    widths: List[int] = []
    for index, (kind, n, k) in enumerate(ops):
        if kind == "randbelow":
            if k < 0:
                raise ValueError("randbelow count must be >= 0")
            widths.append(k)
            if k:
                steps.append(_Step(n, k, False, index, 0))
        elif kind == "sample":
            if not 0 <= k <= n:
                raise ValueError(
                    "sample larger than population or is negative")
            widths.append(k)
            if k == 0:
                continue
            if sample_uses_pool(n, k):
                for i in range(k):
                    steps.append(_Step(n - i, 1, False, index, i))
            else:
                # k == 1 cannot collide with the (empty) selection set,
                # so it needs none of the duplicate machinery.
                steps.append(_Step(n, k, k > 1, index, 0))
        elif kind == "shuffle":
            widths.append(max(n - 1, 0))
            for column, i in enumerate(range(n - 1, 0, -1)):
                steps.append(_Step(i + 1, 1, False, index, column))
        else:
            raise ValueError(f"unknown schedule op {kind!r}")
    return steps, widths


def _expected_words(steps: Sequence[_Step]) -> Tuple[float, float]:
    """Mean and variance of the words one draw consumes.

    Every accepted value costs a geometric number of words with success
    probability ``n / 2**bit_length(n)``; selection-set steps add the
    expected duplicate re-draws (a coupon-collector correction).
    """
    mean = 0.0
    variance = 0.0
    for step in steps:
        acceptance = step.n / float(1 << step.n.bit_length())
        accepts = float(step.q)
        if step.distinct:
            accepts *= 1.0 + (step.q - 1) / (2.0 * (step.n - step.q + 1))
        mean += accepts / acceptance
        variance += accepts * (1.0 - acceptance) / (acceptance * acceptance)
    return mean, variance


class _Bound:
    """Lazy acceptance bookkeeping of one bound over the word buffer.

    Offsets live in ``[0, length + 1]``; ``length + 1`` is the
    absorbing overflow state, and every padded table routes
    out-of-buffer consumption there.  All positional tables are stored
    *one past* the accepted word (``positions1``), because every
    consumer advances the stream right after accepting.
    """

    __slots__ = ("n", "length", "count", "positions1", "real", "_mask",
                 "_values", "_prefix", "_nxt1", "_accepted", "_next_diff",
                 "_previous", "_ends")

    def __init__(self, n: int, values: np.ndarray, pad: int) -> None:
        self.n = n
        self.length = len(values)
        self._values = values
        self._mask = values < np.uint32(n)
        #: The accepted word indices, in stream order.
        self.real = real = np.flatnonzero(self._mask)
        self.count = len(real)
        # Index `count + j` serves absorbed consumption: one past word
        # `length`, i.e. the overflow state, for overshoot up to `pad`.
        positions1 = np.empty(self.count + pad + 1, dtype=np.int64)
        np.add(real, 1, out=positions1[:self.count])
        positions1[self.count:] = self.length + 1
        self.positions1 = positions1
        self._prefix = None
        self._nxt1 = None
        self._accepted = None
        self._next_diff = None
        self._previous = None
        self._ends = {}

    def rank(self, points) -> np.ndarray:
        """Accepted words strictly before each offset, as int64.

        ``points=None`` means every offset ``0 .. length + 1`` (the
        identity domain).  Large batches amortise a dense prefix table;
        small ones binary-search the accepted positions.
        """
        if points is None or self._prefix is not None \
                or len(points) * 24 > self.length:
            prefix = self._prefix_table()
            gathered = prefix if points is None else prefix[points]
            return gathered.astype(np.int64)
        return np.searchsorted(self.real, points, side="left")

    def _prefix_table(self) -> np.ndarray:
        if self._prefix is None:
            length = self.length
            # int32: a plain int64 cumsum costs ~2x; rank() upcasts the
            # (usually much smaller) gathered batch instead.
            prefix = np.empty(length + 2, dtype=np.int32)
            prefix[0] = 0
            np.cumsum(self._mask.view(np.int8), dtype=np.int32,
                      out=prefix[1:length + 1])
            prefix[length + 1] = prefix[length]
            self._prefix = prefix
        return self._prefix

    def next_map(self) -> np.ndarray:
        """One past the first accepted word at-or-after every offset.

        The fused single-accept advance map: composing a step is then
        one gather.  Built only for bounds consumed by several steps
        (one-shot bounds go through :meth:`rank`, which is cheaper).
        """
        if self._nxt1 is None:
            self._nxt1 = self.positions1[self.rank(None)]
        return self._nxt1

    def accepted(self) -> np.ndarray:
        """The accepted values, in stream order."""
        if self._accepted is None:
            self._accepted = self._values[self.real]
        return self._accepted

    def next_diff(self) -> np.ndarray:
        """First later accepted index with a *different* value.

        The k = 2 selection-set fast path: the second distinct value is
        found by skipping the (rare) run of consecutive equal values,
        because any duplicate of the first pick is by definition equal
        to it.  ``next_diff()[count]`` absorbs into the overflow state.
        """
        if self._next_diff is None:
            count = self.count
            nd = np.arange(1, count + 2, dtype=np.int64)
            nd[count] = count
            if count:
                accepted = self.accepted()
                for t in np.flatnonzero(accepted[1:] == accepted[:-1])[::-1]:
                    nd[t] = nd[t + 1]
            self._next_diff = nd
        return self._next_diff

    def previous(self) -> np.ndarray:
        """Per accepted value, the index of its previous equal
        occurrence (-1 if none): the general selection-set duplicate
        test ``previous[t] >= window_start``."""
        if self._previous is None:
            accepted = self.accepted()
            # Values below 2**16 sort as uint16 keys: NumPy's stable
            # sort is then a radix sort, linear in the buffer.
            keys = accepted.astype(np.uint16) if self.n <= 0xFFFF \
                else accepted
            order = np.argsort(keys, kind="stable")
            previous = np.full(self.count, -1, dtype=np.int64)
            ordered = keys[order]
            same = ordered[1:] == ordered[:-1]
            previous[order[1:][same]] = order[:-1][same]
            self._previous = previous
        return self._previous

    def window_ends(self, q: int) -> np.ndarray:
        """Selection-set window ends for every accepted-start index.

        For each start ``T`` over the accepted-value sequence, the
        index completing ``q`` distinct selections when consuming from
        ``T`` (re-drawing duplicates), or -1 when the buffer ends
        first.

        Index ``j`` re-draws for start ``T`` iff ``previous[j] >= T``,
        so the end is the least ``e`` with ``e = T + q - 1 + dups(T,
        e)``, ``dups`` counting the pairs ``(previous[j], j)`` with
        ``T <= previous[j]`` and ``j <= e``.  Inside a window of at
        most ``q + _WINDOW_EXTRA`` slots only pairs closer than that
        can count: one difference-array pass counts each start's pairs
        within its first ``q`` slots (unless ``q`` nears the square
        root of ``n``, most starts have none), and the rest iterate
        ``e`` upwards over the pair list -- never past the true end.
        A scalar walk finishes windows outgrowing the cap.
        """
        ends = self._ends.get(q)
        if ends is not None:
            return ends
        previous = self.previous()
        total = self.count
        cap = q + _WINDOW_EXTRA
        gap = np.arange(total, dtype=np.int64) - previous
        right = np.flatnonzero((previous >= 0) & (gap < cap))
        left = previous[right]
        # Pair (p, j) lies in the first q slots of starts j-q+1 .. p.
        near = gap[right] < q
        counts = np.bincount(np.maximum(right[near] - (q - 1), 0),
                             minlength=total + 1)
        counts[:total] -= np.bincount(left[near] + 1, minlength=total)
        dups = np.cumsum(counts)
        live = max(total - q + 1, 0)    # starts whose first q slots fit
        ends = np.arange(q - 1, total + q, dtype=np.int64)
        ends[live:] = -1
        starts = np.flatnonzero(dups[:live])
        end = ends[starts]
        dups = dups[starts]
        ends[starts] = -1
        while len(starts):
            step = starts + (q - 1) + dups
            settled = step == end
            ends[starts[settled]] = end[settled]
            moving = ~settled & (step < total)
            outgrown = moving & (step - starts >= cap)
            for start, index, seen in zip(starts[outgrown],
                                          end[outgrown] + 1,
                                          (end - step + q)[outgrown]):
                ends[start] = _walk_window(previous, int(start), int(index),
                                           int(seen), q)
            moving &= ~outgrown
            starts, end, step, dups = (starts[moving], end[moving],
                                       step[moving], dups[moving])
            # Pairs newly inside the window: right end in (end, step].
            first = np.searchsorted(right, end, side="right")
            width = np.searchsorted(right, step, side="right") - first
            owner = np.repeat(np.arange(len(starts)), width)
            pair = np.arange(len(owner)) \
                + np.repeat(first - np.cumsum(width) + width, width)
            dups += np.bincount(owner[left[pair] >= starts[owner]],
                                minlength=len(starts))
            end = step
        self._ends[q] = ends
        return ends


def _walk_window(previous: np.ndarray, start: int, index: int, seen: int,
                 q: int) -> int:
    """Finish one window scalar-wise: ``seen`` distinct selections were
    made before ``index``; -1 when the buffer ends first."""
    while index < len(previous):
        if previous[index] < start:
            seen += 1
            if seen == q:
                return index
        index += 1
    return -1


def replay_schedule(rng: random.Random, ops: Sequence[Tuple[str, int, int]],
                    draws: int) -> List[np.ndarray]:
    """Replay ``draws`` repetitions of a sampling schedule, batched.

    Args:
        rng: the generator to replay (and advance: afterwards it sits
            exactly where the equivalent scalar loop would leave it).
        ops: the per-draw call sequence (see the module docstring).
        draws: number of schedule repetitions.

    Returns:
        One int64 ``(draws, width)`` matrix per schedule entry: the
        drawn j-indices (sample), the randrange values (randbelow), or
        the swap partners (shuffle) -- bit-identical to the scalar
        calls, draw by draw.
    """
    if draws < 0:
        raise ValueError("draws must be >= 0")
    steps, widths = _expand_schedule(ops)
    outs = [np.empty((draws, width), dtype=np.int64) for width in widths]
    if draws == 0 or not steps:
        return outs
    stream = MTStream(rng)
    mean, variance = _expected_words(steps)
    budget = int(draws * mean
                 + 6.0 * math.sqrt(max(draws * variance, 1.0))) + 64
    buffer = stream.peek(budget)
    while True:
        consumed = _replay_buffer(buffer, steps, draws, outs)
        if consumed is not None:
            break
        # The buffer ran out mid-schedule (an unlucky rejection streak):
        # extend it and redo the bookkeeping over the longer buffer.
        buffer = stream.peek(len(buffer) + max(len(buffer) // 2, 1024))
    stream.advance(consumed)
    stream.commit()
    return outs


def _replay_buffer(buffer: np.ndarray, steps: Sequence[_Step], draws: int,
                   outs: List[np.ndarray]):
    """One replay attempt against a fixed word buffer.

    Returns the number of words consumed, or None if any draw ran past
    the end of the buffer (the caller then extends it and retries).

    The composed per-draw advance map ("a draw starting at word ``o``
    ends at word ``G[o]``") is built over every possible offset at
    once: each step costs a couple of array gathers, after which the
    inherently sequential draw chain is one lookup per draw instead of
    one Python sampling call per pick.
    """
    length = len(buffer)
    sentinel = length + 1
    values_by_kappa = {}

    def values_for(n: int) -> np.ndarray:
        kappa = n.bit_length()
        values = values_by_kappa.get(kappa)
        if values is None:
            values = buffer >> np.uint32(32 - kappa)
            values_by_kappa[kappa] = values
        return values

    pad = {}
    single_steps = {}
    for step in steps:
        pad[step.n] = max(pad.get(step.n, 0),
                          step.q + (_WINDOW_EXTRA if step.distinct else 0))
        if step.q == 1 and not step.distinct:
            single_steps[step.n] = single_steps.get(step.n, 0) + 1
    bounds = {n: _Bound(n, values_for(n), amount)
              for n, amount in pad.items()}

    # Stage 2a: compose the per-draw advance map over every offset at
    # once (a couple of gathers per step; bounds feeding two or more
    # single-accept steps fuse them into one next-word map each).
    advance = None
    for step in steps:
        bound = bounds[step.n]
        if step.q == 1 and not step.distinct \
                and single_steps[step.n] > 1:
            fused = bound.next_map()
            advance = fused.copy() if advance is None else fused[advance]
            continue
        t = bound.rank(advance)
        if not step.distinct:
            advance = bound.positions1[t + (step.q - 1)]
        elif step.q == 2:
            advance = bound.positions1[bound.next_diff()[t]]
        else:
            ends = bound.window_ends(step.q)[t]
            advance = np.where(ends >= 0, bound.positions1[ends], sentinel)

    # Stage 2b: walk the draws through the composed map -- the only
    # sequential part, one array lookup per draw.
    starts = np.empty(draws, dtype=np.int64)
    cursor = 0
    for draw in range(draws):
        starts[draw] = cursor
        cursor = int(advance[cursor])
        if cursor > length:
            return None
    consumed = cursor

    # Stage 3: gather every step's accepted values at the now-known
    # offsets (vectorized across draws) into the output matrices.
    offsets = starts
    for step in steps:
        bound = bounds[step.n]
        out = outs[step.op]
        t = bound.rank(offsets)
        if not step.distinct:
            after = bound.positions1[t[:, None] + np.arange(step.q)]
            out[:, step.column:step.column + step.q] = \
                bound._values[after - 1]
            offsets = after[:, -1]
            continue
        accepted = bound.accepted()
        if step.q == 2:
            second = bound.next_diff()[t]
            out[:, step.column] = accepted[t]
            out[:, step.column + 1] = accepted[second]
            offsets = bound.positions1[second]
            continue
        ends = bound.window_ends(step.q)[t]
        previous = bound.previous()
        taken = np.zeros(draws, dtype=np.int64)
        active = np.ones(draws, dtype=bool)
        rows = np.arange(draws)
        offset = 0
        while active.any():
            index = t + offset
            fresh = active & (previous[np.minimum(
                index, bound.count - 1)] < t)
            chosen = rows[fresh]
            out[chosen, step.column + taken[chosen]] = \
                accepted[index[fresh]]
            taken[fresh] += 1
            active &= taken < step.q
            offset += 1
        offsets = bound.positions1[ends]
    return consumed
