"""Pluggable simulator backends.

A *backend* wraps one simulator family behind a uniform factory
interface so campaigns, the CLI and the :class:`repro.api.Session`
facade can drive any of them by name.  The registry ships with the
repository's four families, each one :class:`BuiltinBackend` over its
simulator and builder classes:

- ``detailed`` -- the slow ground truth (out-of-order cores);
- ``badco``    -- the paper's fast approximate simulator (two training
  runs per benchmark, per-node latency sensitivities);
- ``interval`` -- the cruder one-training-run interval model;
- ``analytic`` -- the array-evaluated BADCO variant: whole workload
  panels in a handful of NumPy calls (see :mod:`repro.sim.analytic`).

Every simulator scores a grid through ``run_batch(workloads) ->
BatchRun``, the workloads a sequence or a code matrix; the campaign
engine calls it once per policy (or per row chunk on its process pool).
Backends that can also batch the policy dimension declare
``supports_policy_axis = True`` and expose ``run_batch_grid(workloads,
policies) -> GridRun`` (one N x P x K call); the engine then collapses
its per-policy loop into a single dispatch whenever every policy shares
the same pending workloads.  The builtin ones take the flag from their
simulator class: ``analytic`` scores the policy axis in its array
expression, and ``badco`` and ``interval`` run each row once until its
LLC first fills a set, then fork it per policy (see
:mod:`repro.sim.detailed`).  ``detailed`` runs a row per policy: its
cores' pipelines cannot be copied.

Third-party simulators plug in without touching this package::

    from repro.api import SimulatorBackend, register_backend

    class SniperBackend:
        name = "sniper"
        def make_builder(self, trace_length, seed): ...
        def make_simulator(self, cores, policy, trace_length,
                           warmup_fraction, seed, builder=None): ...

    register_backend(SniperBackend())
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, Tuple, runtime_checkable

from repro.sim.analytic import AnalyticModelBuilder, AnalyticSimulator
from repro.sim.badco import BadcoModelBuilder, BadcoSimulator
from repro.sim.detailed import DetailedSimulator
from repro.sim.interval import IntervalProfileBuilder, IntervalSimulator


@runtime_checkable
class SimulatorBackend(Protocol):
    """Factory interface one simulator family must implement.

    The simulator object returned by :meth:`make_simulator` must offer
    ``run_batch(workloads) -> BatchRun`` (the N x K panel of a workload
    sequence, in row order; a code matrix on a backend that declares
    ``supports_policy_axis``) and ``reference_ipc(benchmark) -> float``.
    An event-driven simulator gets both, and ``run``, by subclassing
    :class:`~repro.sim.detailed.EventDrivenSimulator` and giving
    ``_stepper(benchmark, port)``, as
    :class:`~repro.sim.detailed.DetailedSimulator`,
    :class:`~repro.sim.badco.BadcoSimulator` and
    :class:`~repro.sim.interval.IntervalSimulator` do.
    """

    name: str

    def make_builder(self, trace_length: int, seed: int) -> Optional[Any]:
        """A shareable model builder, or None if the family needs none.

        Builders memoise per-benchmark training, so campaigns share one
        across simulators of the same (trace_length, seed).
        """

    def make_simulator(self, cores: int, policy: str, trace_length: int,
                       warmup_fraction: float = 0.25, seed: int = 0,
                       builder: Optional[Any] = None) -> Any:
        """Construct a ready-to-run simulator instance."""


class BuiltinBackend:
    """One shipped simulator family: its simulator and builder classes.

    Args:
        simulator: the simulator class; its ``name`` names the backend
            and its ``supports_policy_axis`` says whether it scores a
            grid in one ``run_batch_grid`` call (see
            :func:`backend_supports_policy_axis`).
        builder: the shared model builder class, built from
            ``(trace_length, seed)``, or None if the family needs none.
    """

    def __init__(self, simulator: type,
                 builder: Optional[type] = None) -> None:
        self.name = simulator.name
        self.simulator = simulator
        self.builder = builder
        self.supports_policy_axis = simulator.supports_policy_axis

    def make_builder(self, trace_length: int, seed: int) -> Optional[Any]:
        return (None if self.builder is None
                else self.builder(trace_length, seed))

    def make_simulator(self, cores: int, policy: str, trace_length: int,
                       warmup_fraction: float = 0.25, seed: int = 0,
                       builder: Optional[Any] = None) -> Any:
        options = {}
        if self.builder is not None:
            options["builder"] = (builder
                                  or self.make_builder(trace_length, seed))
        return self.simulator(
            cores=cores, policy=policy, trace_length=trace_length,
            warmup_fraction=warmup_fraction, seed=seed, **options)


def backend_supports_policy_axis(backend: SimulatorBackend) -> bool:
    """Whether a backend's simulators offer ``run_batch_grid``.

    Policy-axis backends score a whole (workloads x policies) grid in
    one N x P x K call; the engine then replaces its per-policy batch
    loop with a single dispatch.
    """
    return bool(getattr(backend, "supports_policy_axis", False))


class UnknownBackendError(ValueError):
    """Raised for a backend name absent from :data:`BACKENDS`."""


#: Registry of simulator backends by name.
BACKENDS: Dict[str, SimulatorBackend] = {}


def register_backend(backend: SimulatorBackend, *,
                     replace: bool = False) -> SimulatorBackend:
    """Add a backend to :data:`BACKENDS` under ``backend.name``.

    Args:
        backend: the backend instance to register.
        replace: allow overwriting an existing registration.

    Returns:
        The backend, so the call composes as a decorator-ish one-liner.

    Raises:
        ValueError: if the name is empty or already taken (and
            ``replace`` is false).
    """
    name = getattr(backend, "name", "")
    if not name:
        raise ValueError("backend must have a non-empty name")
    if name in BACKENDS and not replace:
        raise ValueError(
            f"backend {name!r} is already registered; "
            f"pass replace=True to overwrite")
    BACKENDS[name] = backend
    return backend


def get_backend(name: str) -> SimulatorBackend:
    """Look up a backend by name.

    Raises:
        UnknownBackendError: naming the known backends, so callers
            (and CLI users) see what is available.
    """
    try:
        return BACKENDS[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown simulator backend {name!r}; "
            f"known backends: {', '.join(sorted(BACKENDS))}") from None


def backend_names() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(BACKENDS))


register_backend(BuiltinBackend(DetailedSimulator))
register_backend(BuiltinBackend(BadcoSimulator, BadcoModelBuilder))
register_backend(BuiltinBackend(IntervalSimulator, IntervalProfileBuilder))
register_backend(BuiltinBackend(AnalyticSimulator, AnalyticModelBuilder))
