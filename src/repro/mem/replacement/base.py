"""Replacement-policy interface, its no-op filter and the set-dueling
building block."""

from __future__ import annotations

import random
import zlib
from typing import Callable, Optional

#: The hooks a cache calls as it goes (``victim`` is not one: a cache
#: calls it only for a full set, and every policy defines it).
HOOKS = ("on_hit", "on_miss", "on_fill")


class ReplacementPolicy:
    """Interface all replacement policies implement.

    A policy instance manages the replacement state of one cache
    (``num_sets`` sets of ``ways`` ways).  The cache calls:

    - :meth:`victim` when a fill needs a way and the set is full;
    - :meth:`on_fill` when a line is installed into a way;
    - :meth:`on_hit` when an access hits a way;
    - :meth:`on_miss` when a demand access misses the set (used by
      set-dueling policies to steer their selector).

    The cache itself prefers invalid ways, so :meth:`victim` may assume
    the set is full of valid lines.  A policy that ignores a hook
    inherits the no-op here, and :func:`active_hook` tells callers it
    needs no call.
    """

    #: Canonical display name; subclasses override.
    name = "?"

    def __init__(self, num_sets: int, ways: int, seed: int = 0) -> None:
        if num_sets < 1 or ways < 1:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        # crc32, not hash(): str hashes are salted per process
        # (PYTHONHASHSEED), which would make campaigns -- and their
        # on-disk caches -- irreproducible across runs.
        name_hash = zlib.crc32(type(self).__name__.encode("ascii"))
        self.rng = random.Random((seed << 8) ^ name_hash)

    def victim(self, set_index: int) -> int:
        """Way to evict from a full set."""
        raise NotImplementedError

    def on_fill(self, set_index: int, way: int) -> None:
        """A new line was installed into (set_index, way) (default:
        no-op)."""

    def on_hit(self, set_index: int, way: int) -> None:
        """An access hit (set_index, way) (default: no-op)."""

    def on_miss(self, set_index: int) -> None:
        """A demand access missed in set_index (default: no-op)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(sets={self.num_sets}, ways={self.ways})"


def active_hook(policy: object, name: str) -> Optional[Callable]:
    """``policy``'s bound ``name`` hook, or None where it is the base
    class's no-op: the one test of whether a hook needs calling.

    It reads the bound attribute, so anything shaped like a policy (a
    tee over several, say) answers for what it binds.
    """
    bound = getattr(policy, name)
    if getattr(bound, "__func__", None) is getattr(ReplacementPolicy, name):
        return None
    return bound


class SetDuelingMonitor:
    """Set-dueling selector shared by DIP and DRRIP.

    A few *leader sets* are dedicated to each of two competing insertion
    policies; a saturating counter (PSEL) counts demand misses in each
    group and the remaining *follower sets* adopt whichever leader group
    misses less [Qureshi et al., ISCA 2007].

    Leader selection uses the simple modulo constituency scheme: with a
    dueling period ``p = num_sets // leaders_per_policy``, sets with
    ``index % p == 0`` lead policy A and ``index % p == p // 2`` lead
    policy B.  Each set's role (+1 A-leader, -1 B-leader, 0 follower)
    is computed once.

    Args:
        num_sets: number of cache sets.
        leaders_per_policy: leader sets dedicated to each policy.
        psel_bits: width of the saturating selector counter.
    """

    def __init__(self, num_sets: int, leaders_per_policy: int = 8,
                 psel_bits: int = 10) -> None:
        leaders = max(1, min(leaders_per_policy, num_sets // 2))
        self.period = max(2, num_sets // leaders)
        self.psel_max = (1 << psel_bits) - 1
        self.psel = self.psel_max // 2
        #: PSEL below this means the A-leaders miss less.
        self.midpoint = (self.psel_max + 1) // 2
        #: Each set's role: +1 A-leader, -1 B-leader, 0 follower.
        self.roles = [1 if self.is_leader_a(index)
                      else -1 if self.is_leader_b(index) else 0
                      for index in range(num_sets)]

    def is_leader_a(self, set_index: int) -> bool:
        return set_index % self.period == 0

    def is_leader_b(self, set_index: int) -> bool:
        return set_index % self.period == self.period // 2

    def record_miss(self, set_index: int) -> None:
        """Steer PSEL on a demand miss in a leader set.

        A miss in an A-leader pushes PSEL up (evidence against A); a
        miss in a B-leader pushes it down.
        """
        role = self.roles[set_index]
        if role > 0:
            self.psel = min(self.psel + 1, self.psel_max)
        elif role:
            self.psel = max(self.psel - 1, 0)

    def use_policy_a(self, set_index: int) -> bool:
        """Insertion policy the given set should use right now (DIP and
        DRRIP read :attr:`roles` and :attr:`psel` inline, to the same
        effect)."""
        role = self.roles[set_index]
        if role:
            return role > 0
        # Followers: PSEL below midpoint means A-leaders miss less.
        return self.psel < self.midpoint
