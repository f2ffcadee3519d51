"""RRIP-family replacement [Jaleel et al., ISCA 2010].

Re-Reference Interval Prediction keeps an M-bit re-reference prediction
value (RRPV) per line.  SRRIP inserts lines with a *long* predicted
interval (RRPV = 2^M - 2), promotes them on hit, and evicts lines whose
RRPV has aged to the maximum.  BRRIP inserts at the maximum ("distant")
most of the time, mirroring BIP's thrash resistance.  DRRIP set-duels
SRRIP against BRRIP.
"""

from __future__ import annotations

from repro.mem.replacement.base import ReplacementPolicy, SetDuelingMonitor


class SrripPolicy(ReplacementPolicy):
    """Static RRIP with hit-priority promotion (SRRIP-HP)."""

    name = "SRRIP"
    rrpv_bits = 2

    def __init__(self, num_sets: int, ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, ways, seed)
        self.rrpv_max = (1 << self.rrpv_bits) - 1
        self._rrpv = [[self.rrpv_max] * ways for _ in range(num_sets)]

    def victim(self, set_index: int) -> int:
        rrpvs = self._rrpv[set_index]
        while True:
            for way, value in enumerate(rrpvs):
                if value == self.rrpv_max:
                    return way
            # Nobody distant: age the whole set and retry.
            for way in range(self.ways):
                rrpvs[way] += 1

    def _insertion_rrpv(self, set_index: int) -> int:
        return self.rrpv_max - 1          # "long" re-reference interval

    def on_fill(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = self._insertion_rrpv(set_index)

    def on_hit(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = 0    # hit priority: promote to "near"


class BrripPolicy(SrripPolicy):
    """Bimodal RRIP: distant insertion with rare long insertions."""

    name = "BRRIP"
    epsilon = 1.0 / 32.0

    def _insertion_rrpv(self, set_index: int) -> int:
        if self.rng.random() < self.epsilon:
            return self.rrpv_max - 1      # occasional "long"
        return self.rrpv_max              # usually "distant"


class DrripPolicy(SrripPolicy):
    """Dynamic RRIP: SRRIP vs BRRIP set dueling."""

    name = "DRRIP"
    epsilon = BrripPolicy.epsilon

    def __init__(self, num_sets: int, ways: int, seed: int = 0,
                 leaders_per_policy: int = 8) -> None:
        super().__init__(num_sets, ways, seed)
        self.duel = SetDuelingMonitor(num_sets, leaders_per_policy)
        # A demand miss only steers PSEL: the cache calls the monitor.
        self.on_miss = self.duel.record_miss

    def on_fill(self, set_index: int, way: int) -> None:
        # One frame per fill: SRRIP's "long" insertion where the duel
        # picks SRRIP (``use_policy_a``, read inline), else BRRIP's --
        # whose draw happens only there, as it always has.
        duel = self.duel
        role = duel.roles[set_index]
        if (role > 0 or (not role and duel.psel < duel.midpoint)
                or self.rng.random() < self.epsilon):
            self._rrpv[set_index][way] = self.rrpv_max - 1
        else:
            self._rrpv[set_index][way] = self.rrpv_max
