"""Micro-operation trace records.

A *trace* is the unit of work a simulated core executes: a deterministic
sequence of micro-operations (uops).  The paper generates traces with
SimpleScalar's EIO feature and replays exactly the same dynamic uop
sequence in every simulation; we preserve that property -- a
:class:`Trace` is immutable once built and fully determined by the
benchmark spec and seed that produced it.

A :class:`Uop` is a :class:`typing.NamedTuple`, which the detailed core
unpacks once per uop.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, NamedTuple, Optional, Sequence


class UopKind(enum.IntEnum):
    """Kinds of micro-operations understood by the core models."""

    INT_ALU = 0
    FP_ALU = 1
    LOAD = 2
    STORE = 3
    BRANCH = 4
    NOP = 5


#: Execution latency, in core cycles, of each uop kind once issued.
#: Memory uops use these as address-generation latency; the cache
#: hierarchy adds the access time on top.
EXECUTION_LATENCY = {
    UopKind.INT_ALU: 1,
    UopKind.FP_ALU: 4,
    UopKind.LOAD: 1,
    UopKind.STORE: 1,
    UopKind.BRANCH: 1,
    UopKind.NOP: 1,
}


class Uop(NamedTuple):
    """One dynamic micro-operation (immutable; fields in unpack order).

    Attributes:
        kind: operation class.
        pc: address of the instruction this uop belongs to.
        src_distances: distances (in dynamic uops, > 0) to the producers
            of this uop's register inputs.  A distance larger than the
            current position means "no producer" (value is ready).
        address: effective memory address for LOAD/STORE, else ``None``.
        taken: branch outcome for BRANCH, else ``None``.
        target: branch target address for BRANCH, else ``None``.
    """

    kind: UopKind
    pc: int
    src_distances: Sequence[int] = ()
    address: Optional[int] = None
    taken: Optional[bool] = None
    target: Optional[int] = None

    @property
    def is_memory(self) -> bool:
        return self.kind in (UopKind.LOAD, UopKind.STORE)

    @property
    def latency(self) -> int:
        return EXECUTION_LATENCY[self.kind]


class Trace:
    """An immutable sequence of uops plus provenance metadata.

    Args:
        name: benchmark name the trace was generated from.
        uops: the dynamic uop sequence.
        seed: RNG seed used by the generator (for provenance).
    """

    def __init__(self, name: str, uops: List[Uop], seed: int = 0) -> None:
        self.name = name
        self.seed = seed
        self._uops = tuple(uops)

    def __len__(self) -> int:
        return len(self._uops)

    def __getitem__(self, index: int) -> Uop:
        return self._uops[index]

    def __iter__(self) -> Iterator[Uop]:
        return iter(self._uops)

    @property
    def uops(self) -> Sequence[Uop]:
        return self._uops

    def count(self, kind: UopKind) -> int:
        """Number of uops of the given kind."""
        return sum(1 for u in self._uops if u.kind == kind)

    def memory_footprint(self) -> int:
        """Number of distinct 64-byte lines touched by LOAD/STORE uops."""
        lines = {u.address >> 6 for u in self._uops if u.address is not None}
        return len(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(name={self.name!r}, len={len(self)}, seed={self.seed})"
