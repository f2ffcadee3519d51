"""FIFO (round-robin) replacement."""

from __future__ import annotations

from repro.mem.replacement.base import ReplacementPolicy


class FifoPolicy(ReplacementPolicy):
    """First-in first-out replacement.

    Each set evicts its ways in fill order, implemented as a per-set
    round-robin pointer.  Hits do not update any state, which is what
    distinguishes FIFO from LRU.
    """

    name = "FIFO"

    def __init__(self, num_sets: int, ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, ways, seed)
        self._next = [0] * num_sets

    def victim(self, set_index: int) -> int:
        return self._next[set_index]

    def on_fill(self, set_index: int, way: int) -> None:
        # Advance the pointer only when the fill consumed the head slot;
        # fills into invalid ways (cold misses) also move insertion order
        # forward so eviction follows true fill order.
        if way == self._next[set_index]:
            self._next[set_index] = (way + 1) % self.ways
