"""LRU and the LRU-insertion variants LIP and BIP.

LIP (LRU Insertion Policy) and BIP (Bimodal Insertion Policy) are the
building blocks of DIP [Qureshi et al., ISCA 2007]: LIP inserts new
lines in the LRU position so streaming data is evicted quickly, and BIP
occasionally (with probability ``epsilon``) inserts at MRU so a policy
following LIP can still adapt when the working set changes.
"""

from __future__ import annotations

from repro.mem.replacement.base import ReplacementPolicy


class LruPolicy(ReplacementPolicy):
    """Classic least-recently-used replacement.

    Recency is tracked with a per-way logical timestamp; the victim is
    the way with the smallest stamp.  This is behaviourally identical to
    a recency stack but cheaper to update in Python.
    """

    name = "LRU"

    def __init__(self, num_sets: int, ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, ways, seed)
        self._stamp = [[0] * ways for _ in range(num_sets)]
        self._clock = 0

    def _touch(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._stamp[set_index][way] = self._clock

    def victim(self, set_index: int) -> int:
        stamps = self._stamp[set_index]
        return stamps.index(min(stamps))

    on_fill = on_hit = _touch


class LipPolicy(LruPolicy):
    """LRU Insertion Policy: fills go to the LRU position.

    A filled line is only promoted to MRU if it is reused, which makes
    the policy thrash-resistant: a streaming scan occupies one way per
    set instead of flushing the whole set.
    """

    name = "LIP"

    def on_fill(self, set_index: int, way: int) -> None:
        # Insert at LRU: give the line a stamp older than every current
        # stamp in the set so it is the next victim unless reused.
        stamps = self._stamp[set_index]
        stamps[way] = min(stamps) - 1


class BipPolicy(LipPolicy):
    """Bimodal Insertion Policy: LIP with rare MRU insertions.

    With probability ``epsilon`` (1/32 in the DIP paper) a fill is
    promoted to MRU, letting the policy adapt when the working set
    changes while retaining LIP's thrash resistance.
    """

    name = "BIP"
    epsilon = 1.0 / 32.0

    def on_fill(self, set_index: int, way: int) -> None:
        if self.rng.random() < self.epsilon:
            self._touch(set_index, way)       # MRU insertion
        else:
            LipPolicy.on_fill(self, set_index, way)
