"""Deterministic trace generation from benchmark specs.

Trace generation happens in two stages, like a real program:

1. A *static program* is built: ``code_footprint / 4`` instruction
   slots, each with a fixed kind (drawn from the spec's instruction
   mix), fixed register-dependency distances, and -- for branches -- a
   fixed control-flow role (loop-back or forward-skip) and a fixed
   outcome behaviour.  Static identity is what lets the branch
   predictor learn per-PC patterns and the stride prefetcher learn
   per-PC strides, as they do on real codes.
2. The static program is *executed*: the PC walks the slots, loop
   branches iterate blocks, memory slots draw effective addresses from
   the spec's address stream, and every other slot yields one uop,
   built once and shared by all its visits.

``generate_trace(spec, length, seed)`` is a pure function: the same
(spec, length, seed) triple always yields the same uop sequence.  This
mirrors the paper's use of SimpleScalar EIO traces -- "we assume that
simulations are reproducible, so that traces represent exactly the same
sequence of dynamic uops".
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.bench.behaviors import (AddressStream, BranchBehavior,
                                   ChaseColdStream, HotChaseStream,
                                   HotColdStream, make_address_stream)
from repro.bench.spec import BenchmarkSpec, MemoryPattern
from repro.bench.trace import Trace, Uop, UopKind

#: Default dynamic trace length in uops.  The paper uses 100M-instruction
#: traces; we scale down for pure-Python simulation (the statistics of
#: the study operate on per-workload IPCs, not on trace length).
DEFAULT_TRACE_LENGTH = 20_000

#: Base of the synthetic data segment; code lives below it.
_DATA_BASE = 0x1000_0000
_CODE_BASE = 0x0040_0000
_INSTRUCTION_BYTES = 4


def _sample_dep_distances(rng: random.Random, mean_distance: float,
                          count: int = 2) -> Tuple[int, ...]:
    """Sample register-producer distances from a geometric distribution.

    A uop at position i depends on the uops at positions i - d for each
    sampled distance d.  The geometric shape concentrates dependencies
    on recent producers (short dependency chains <=> low ILP).
    """
    p = 1.0 / max(mean_distance, 1.0)
    distances = []
    for _ in range(count):
        # Inverse-CDF sampling of a geometric distribution on {1, 2, ...}.
        u = rng.random()
        d = 1
        cumulative = p
        while u > cumulative and d < 64:
            d += 1
            cumulative += p * (1.0 - p) ** (d - 1)
        distances.append(d)
    return tuple(distances)


class _StaticInstruction:
    """One slot of the static program."""

    __slots__ = ("kind", "deps", "target_slot", "behavior")

    def __init__(self, kind: UopKind, deps: Tuple[int, ...],
                 target_slot: Optional[int] = None,
                 behavior: Optional[BranchBehavior] = None) -> None:
        self.kind = kind
        self.deps = deps
        self.target_slot = target_slot
        self.behavior = behavior


def _build_static_program(spec: BenchmarkSpec,
                          rng: random.Random) -> List[_StaticInstruction]:
    """Lay out the static instruction slots of the synthetic program."""
    slots = max(spec.code_footprint // _INSTRUCTION_BYTES, 32)
    cutoffs = (
        spec.load_fraction,
        spec.load_fraction + spec.store_fraction,
        spec.load_fraction + spec.store_fraction + spec.branch_fraction,
        spec.load_fraction + spec.store_fraction + spec.branch_fraction
        + spec.fp_fraction,
    )
    program: List[_StaticInstruction] = []
    for slot in range(slots):
        draw = rng.random()
        deps = _sample_dep_distances(rng, spec.mean_dep_distance)
        if draw < cutoffs[0]:
            program.append(_StaticInstruction(UopKind.LOAD, deps))
        elif draw < cutoffs[1]:
            program.append(_StaticInstruction(UopKind.STORE, deps))
        elif draw < cutoffs[2]:
            program.append(_make_static_branch(spec, rng, slot, slots, deps))
        elif draw < cutoffs[3]:
            program.append(_StaticInstruction(UopKind.FP_ALU, deps))
        else:
            program.append(_StaticInstruction(UopKind.INT_ALU, deps))
    return program


def _make_static_branch(spec: BenchmarkSpec, rng: random.Random, slot: int,
                        slots: int, deps: Tuple[int, ...]) -> _StaticInstruction:
    """A static branch: either a loop-back branch or a forward skip.

    Loop branches are taken (trip - 1) out of trip times and jump
    backwards, re-executing their block -- the exit in the pattern
    bounds every loop.  Forward branches skip a few instructions with
    the spec's bias.  Both get the spec's noise level as their
    unpredictable fraction.
    """
    if rng.random() < 0.6:
        trip = rng.choice((2, 4, spec.branch_period, 2 * spec.branch_period))
        behavior = BranchBehavior(rng, period=trip,
                                  bias=(trip - 1) / trip,
                                  noise=spec.branch_noise)
        target_slot = max(slot - rng.randrange(2, 24), 0)
    else:
        period = rng.choice((1, 2, spec.branch_period))
        bias = min(max(spec.branch_bias + rng.uniform(-0.3, 0.3), 0.0), 1.0)
        behavior = BranchBehavior(rng, period=period, bias=bias,
                                  noise=spec.branch_noise)
        target_slot = min(slot + rng.randrange(2, 16), slots - 1)
    return _StaticInstruction(UopKind.BRANCH, deps, target_slot, behavior)


def generate_trace(spec: BenchmarkSpec, length: int = DEFAULT_TRACE_LENGTH,
                   seed: int = 0) -> Trace:
    """Generate the dynamic uop trace of a benchmark.

    Args:
        spec: the benchmark description.
        length: number of dynamic uops to generate.
        seed: RNG seed; combined with the benchmark name so two
            benchmarks with identical parameters still produce distinct
            traces.

    Returns:
        A deterministic :class:`Trace` of exactly ``length`` uops.
    """
    if length <= 0:
        raise ValueError("trace length must be positive")
    rng = random.Random(f"{spec.name}/{seed}")
    next_address = _make_address_stream(spec, rng).next_address
    program = _build_static_program(spec, rng)
    slots = len(program)
    # A slot that is neither a branch nor a memory access yields the
    # same uop on every visit: build it once (None marks the others).
    fixed = [None if static.kind in (UopKind.LOAD, UopKind.STORE,
                                     UopKind.BRANCH)
             else Uop(static.kind, _CODE_BASE + slot * _INSTRUCTION_BYTES,
                      static.deps)
             for slot, static in enumerate(program)]

    uops: List[Uop] = []
    append = uops.append
    slot = 0
    for _ in range(length):
        uop = fixed[slot]
        if uop is not None:
            append(uop)
            slot += 1
        else:
            static = program[slot]
            pc = _CODE_BASE + slot * _INSTRUCTION_BYTES
            if static.kind == UopKind.BRANCH:
                taken = static.behavior.next_outcome()
                target = _CODE_BASE + static.target_slot * _INSTRUCTION_BYTES
                append(Uop(UopKind.BRANCH, pc, static.deps, None, taken,
                           target))
                slot = static.target_slot if taken else slot + 1
            else:
                append(Uop(static.kind, pc, static.deps, next_address()))
                slot += 1
        if slot >= slots:
            slot = 0
    return Trace(spec.name, uops, seed=seed)


def _make_address_stream(spec: BenchmarkSpec,
                         rng: random.Random) -> AddressStream:
    if spec.pattern == MemoryPattern.HOT_COLD:
        return HotColdStream(_DATA_BASE, spec.working_set, rng,
                             hot_bytes=spec.hot_bytes,
                             hot_fraction=spec.hot_fraction)
    if spec.pattern == MemoryPattern.CHASE_COLD:
        return ChaseColdStream(_DATA_BASE, spec.working_set, rng,
                               reuse_bytes=spec.hot_bytes,
                               reuse_fraction=spec.hot_fraction)
    if spec.pattern == MemoryPattern.HOT_CHASE:
        return HotChaseStream(_DATA_BASE, spec.working_set, rng,
                              hot_bytes=spec.hot_bytes,
                              hot_fraction=spec.hot_fraction)
    return make_address_stream(spec.pattern.value, _DATA_BASE,
                               spec.working_set, rng, stride=spec.stride)


@lru_cache(maxsize=64)
def cached_trace(name: str, length: int = DEFAULT_TRACE_LENGTH,
                 seed: int = 0) -> Trace:
    """Memoised :func:`generate_trace` keyed by benchmark *name*.

    Trace generation is cheap but not free; campaigns that simulate
    thousands of workloads reuse each benchmark's trace many times.
    """
    from repro.bench.spec import benchmark_by_name

    return generate_trace(benchmark_by_name(name), length=length, seed=seed)
