"""DIP: Dynamic Insertion Policy [Qureshi et al., ISCA 2007].

DIP set-duels classic LRU insertion against BIP: a few leader sets
always use LRU, a few always use BIP, and a saturating PSEL counter
driven by leader-set misses decides which insertion policy the follower
sets adopt.  DIP retains LRU's behaviour on LRU-friendly workloads while
resisting thrashing scans.
"""

from __future__ import annotations

from repro.mem.replacement.base import SetDuelingMonitor
from repro.mem.replacement.lru import BipPolicy, LruPolicy


class DipPolicy(LruPolicy):
    """Dynamic Insertion Policy (LRU vs BIP set dueling).

    Victim selection is plain LRU; only the *insertion* position of a
    fill is policy-dependent, exactly as in the DIP paper.
    """

    name = "DIP"
    epsilon = BipPolicy.epsilon

    def __init__(self, num_sets: int, ways: int, seed: int = 0,
                 leaders_per_policy: int = 8) -> None:
        super().__init__(num_sets, ways, seed)
        self.duel = SetDuelingMonitor(num_sets, leaders_per_policy)
        # A demand miss only steers PSEL: the cache calls the monitor.
        self.on_miss = self.duel.record_miss

    def on_fill(self, set_index: int, way: int) -> None:
        # One frame per fill: the duel's choice (``use_policy_a``) and
        # the MRU touch are read inline; BIP draws only where LRU
        # insertion is not chosen, as it always has.
        duel = self.duel
        role = duel.roles[set_index]
        if (role > 0 or (not role and duel.psel < duel.midpoint)
                or self.rng.random() < self.epsilon):
            # LRU insertion, or BIP's rare one: new line goes to MRU.
            self._clock = clock = self._clock + 1
            self._stamp[set_index][way] = clock
        else:
            # BIP's usual LRU-position insertion.
            stamps = self._stamp[set_index]
            stamps[way] = min(stamps) - 1
