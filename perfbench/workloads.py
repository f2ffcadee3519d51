"""The benchmark's three workloads over one shared universe.

Universe: scale ``full`` (trace length 20 000, the 22 benchmarks),
``cores=4`` (the exhaustive 12 650-workload population), 1 000 draws,
and the policy-pair cycle LRU/DIP -> LRU/DRRIP -> FIFO/DRRIP ->
RND/DIP.  Every timed phase covers whole cycles.

- ``oneshot``: per step, a ``fresh`` estimate on an empty campaign cache
  then a ``cached`` estimate reopening it, each on a new ``Session``
  over a warm model store (the CLI's cost profile).
- ``served``: a ``repro serve`` daemon answering two closed-loop client
  connections, each cycling its own half of the pairs.
- ``refine``: a two-stage estimate (analytic screen, 8-row BADCO
  refine) on a new ``Session`` and an empty cache per op.

Each run sets up ``SETUPS`` times from empty directories, side by side
on the host's CPUs, and reports the median; the last set-up serves the
timed ops and the first one the references every answer is checked
against.  Times are calibrated to a nominal host speed (``hostspeed``).
See README.md for the metrics and the layer table.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import hostspeed, tracing

SCALE = "full"
#: The program's session seed.  Fixed: the trained universe depends on
#: it, and at other seeds the analytic d(w) can be identically zero
#: (seed 2) or a refine op 1.7x dearer (seed 1), so a benchmark that
#: must read the same across its own ``--seed`` values keeps it.
SESSION_SEED = 0
CORES = 4
DRAWS = 1000
PAIRS: Tuple[Tuple[str, str], ...] = (
    ("LRU", "DIP"), ("LRU", "DRRIP"), ("FIFO", "DRRIP"), ("RND", "DIP"))
ONESHOT_SIZES = (30,)
REFINE = {"refine_backend": "badco", "refine_budget": 8}
SETUPS = 2
#: Pinned for every program process (the default, bit-compatible draw
#: path); the run also points the cache and model-store defaults into
#: its temp root.
PINNED_ENV = {"REPRO_FAST_SAMPLING": "0", "REPRO_SAMPLING_KERNELS": "0"}
#: A failed op counts as taking this long, so it misses every latency
#: bound; it is also the served clients' per-reply timeout.
OP_TIMEOUT_S = 60.0
SETUP_TIMEOUT_S = 150.0


def pair_cycle(seed: int) -> List[Tuple[str, str]]:
    """The cycle the seed generates: the fixed order, rotated."""
    start = random.Random(seed).randrange(len(PAIRS))
    return list(PAIRS[start:] + PAIRS[:start])


def answer_fields(estimate: Any) -> Dict[str, Any]:
    """An estimate as a dict, timings aside (they measure the run)."""
    fields = dataclasses.asdict(estimate)
    fields.pop("timings", None)
    return fields


def check_answer(answer: Any, reference: Dict[str, Any],
                 refine: bool = False) -> Optional[str]:
    """Why an answer is wrong, or None when it is right."""
    if answer.training_runs != 0:
        return f"training_runs={answer.training_runs}"
    if refine and answer.refine_training_runs != 0:
        return f"refine_training_runs={answer.refine_training_runs}"
    if answer.inverse_cv == 0.0:
        return "inverse_cv == 0 (degenerate d(w))"
    fields = answer_fields(answer)
    if fields != reference:
        wrong = sorted(key for key in set(fields) | set(reference)
                       if fields.get(key) != reference.get(key))
        return f"differs from the reference in {', '.join(wrong)}"
    return None


class Tally:
    """Attempted and failed ops, with latencies per kind.

    ``latencies`` are wall seconds, ``calibrated`` the same at the
    nominal host speed (see ``hostspeed``).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.latencies: Dict[str, List[float]] = {}
        self.calibrated: Dict[str, List[float]] = {}
        self._lock = threading.Lock()

    def record(self, kind: str, seconds: float, error: Optional[str],
               factor: float) -> Tuple[float, bool]:
        """Count one op whose wall seconds ``factor`` calibrates;
        returns (calibrated latency, whether it passed)."""
        with self._lock:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                seconds, factor = OP_TIMEOUT_S, 1.0
                if len(self.errors) < 5:
                    self.errors.append(f"{kind}: {error}")
            self.latencies.setdefault(kind, []).append(seconds)
            self.calibrated.setdefault(kind, []).append(seconds * factor)
        return seconds * factor, error is None


def timed(call: Callable[[], Any],
          check: Callable[[Any], Optional[str]]) -> Tuple[float, Optional[str]]:
    """Run one op; returns (seconds, error).  Checking is not timed."""
    started = time.perf_counter()
    try:
        answer = call()
    except Exception as error:     # any failure of the op counts
        return time.perf_counter() - started, \
            f"{type(error).__name__}: {error}"
    seconds = time.perf_counter() - started
    return seconds, check(answer)


def median_ms(values: Sequence[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Set-up


@dataclasses.dataclass
class Universe:
    """Where one set-up lives: a model store plus cache directories."""

    root: Path

    @property
    def models(self) -> Path:
        return self.root / "models"

    def session(self, cache: str = "cache"):
        from repro import Session

        return Session(SCALE, seed=SESSION_SEED, cache_dir=self.root / cache,
                       model_store_dir=self.models)


def prepare(directory: Path) -> None:
    """Set up one universe: train BADCO models and run every analytic
    calibration and probe the five policies need (a set-up process's
    whole job)."""
    session = Universe(directory).session()
    session.builder("analytic").prepare(session.benchmarks,
                                        session.policies, cores=CORES)


def _spawn(run: "Run", argv: List[str], log: Path) -> subprocess.Popen:
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as out:
        return subprocess.Popen(argv, cwd=run.root, env=run.env,
                                stdout=out, stderr=subprocess.STDOUT)


def stop_process(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Wait for a process to end, terminating then killing it."""
    for signal_it in (None, proc.terminate, proc.kill):
        if signal_it is not None:
            signal_it()
        try:
            proc.wait(timeout=grace)
            return
        except subprocess.TimeoutExpired:
            continue
    proc.wait()


def run_setups(run: "Run", count: int, traced: Optional[int] = None
               ) -> Tuple[List[float], List[Universe]]:
    """Set up ``count`` universes side by side (at most one per CPU).

    Each set-up is its own process on its own CPU, timed from spawn to
    exit: what a user waits for between empty directories and a warm
    model store, calibrated by the set-up's sampler.  ``traced`` names
    the set-up whose spans are recorded.
    """
    universes = [Universe(run.tmp / f"setup{i}") for i in range(count)]
    seconds: List[float] = [0.0] * count
    width = max(1, min(count, os.cpu_count() or 1))
    for first in range(0, count, width):
        batch = {}
        try:
            for i in range(first, min(first + width, count)):
                argv = [sys.executable, str(run.root / "perfbench" / "run.py"),
                        "--prepare", str(universes[i].root),
                        "--cpu", str(hostspeed.setup_cpu(i))]
                if i == traced:
                    argv += ["--trace-out", str(run.trace_path("setup"))]
                batch[i] = (_spawn(run, argv, run.tmp / f"setup{i}.log"),
                            time.monotonic())
            deadline = time.monotonic() + SETUP_TIMEOUT_S
            pending = dict(batch)
            while pending and time.monotonic() < deadline:
                for i, (proc, started) in list(pending.items()):
                    if proc.poll() is not None:
                        seconds[i] = time.monotonic() - started
                        del pending[i]
                time.sleep(0.005)
        finally:
            for proc, _ in batch.values():
                if proc.poll() is None:
                    stop_process(proc, grace=1.0)
        for i, (proc, _) in batch.items():
            if proc.returncode != 0:
                raise RuntimeError(
                    f"set-up {i} failed:\n" + _tail(run.tmp / f"setup{i}.log"))
            calibration = universes[i].root / "hostspeed.json"
            seconds[i] *= json.loads(calibration.read_text())["factor"]
    return seconds, universes


def _tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return "(no log)"


# ----------------------------------------------------------------------
# The run


@dataclasses.dataclass
class Run:
    """One invocation: its inputs, directories and accounting."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    tmp: Path
    traces: Path
    env: Dict[str, str]
    tally: Tally = dataclasses.field(default_factory=Tally)
    run_errors: List[str] = dataclasses.field(default_factory=list)

    @classmethod
    def create(cls, root: Path, workload: str, seed: int, seconds: float,
               trace: bool) -> "Run":
        """A run with its temp root made and its environment pinned."""
        tmp = root / ".perfbench" / "tmp" / f"{workload}-{seed}-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, **PINNED_ENV,
                   REPRO_CACHE_DIR=str(tmp / "default-cache"),
                   REPRO_MODEL_STORE_DIR=str(tmp / "default-models"),
                   PYTHONPATH=os.pathsep.join([str(root / "src"),
                                               str(root)]))
        return cls(workload=workload, seed=seed, seconds=seconds,
                   trace=trace, root=root, tmp=tmp,
                   traces=root / ".perfbench" / "traces", env=env)

    @property
    def cycle(self) -> List[Tuple[str, str]]:
        return pair_cycle(self.seed)

    def trace_path(self, part: str) -> Path:
        return self.traces / f"{self.workload}-seed{self.seed}-{part}.json"


@dataclasses.dataclass
class Outcome:
    """What a workload measured."""

    metrics: Dict[str, float]
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)


def whole_cycles(seconds: float, cycle: Callable[[int], None],
                 minimum: int = 1) -> int:
    """Run ``cycle(k)`` for k = 0, 1, ... while ``seconds`` have not
    passed, and at least ``minimum`` times; returns the cycle count."""
    started = time.perf_counter()
    done = 0
    while done < minimum or time.perf_counter() - started < seconds:
        cycle(done)
        done += 1
    return done


# ----------------------------------------------------------------------
# In-process workloads: oneshot and refine


def _in_process(run: Run, estimate: Callable[[Any, Tuple[str, str]], Any],
                kinds: Sequence[str], refine: bool = False
                ) -> Tuple[Outcome, List[Any]]:
    """Set up, compute references, then time steps of ``kinds`` ops.

    A step runs one op per kind for one pair, all on new sessions over
    one empty campaign-cache directory (so ``oneshot``'s ``cached`` op
    reopens what its ``fresh`` op wrote).  Each op starts from a
    collected heap, outside its timed span.  A traced run alternates
    traced and untraced cycles, so it measures its own overhead.
    The ops run on one CPU, calibrated by a sampler there.  Returns
    the outcome and every answer.
    """
    setup_seconds, universes = run_setups(
        run, SETUPS, traced=0 if run.trace else None)
    hostspeed.pin(hostspeed.program_cpu())
    reference_session = universes[0].session("reference")
    references = {pair: answer_fields(estimate(reference_session, pair))
                  for pair in run.cycle}
    del reference_session
    store = universes[-1]
    tracer = tracing.Tracer() if run.trace else None
    sampler = hostspeed.Sampler([hostspeed.program_cpu()])
    steps: Dict[bool, List[float]] = {True: [], False: []}
    traced_ops: List[int] = []
    answers: List[Any] = []
    caches = itertools.count()
    completed = 0

    def op(kind: str, cache: str, pair: Tuple[str, str],
           traced: bool) -> Tuple[float, bool]:
        gc.collect()

        def call():
            answer = estimate(store.session(cache), pair)
            answers.append(answer)
            return answer

        def check(answer):
            return check_answer(answer, references[pair], refine=refine)

        started = time.perf_counter()
        if not traced:
            seconds, error = timed(call, check)
        else:
            with tracer.op(f"{run.workload}.{kind}") as span:
                seconds, error = timed(call, check)
            traced_ops.append(span.span.id)
            kind += ".traced"
        return run.tally.record(kind, seconds, error, sampler.factor(
            started, started + seconds))

    def cycle(k: int) -> None:
        nonlocal completed
        traced = tracer is not None and k % 2 == 0
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        for pair in run.cycle:
            cache = f"op{next(caches)}"
            results = [op(kind, cache, pair, traced) for kind in kinds]
            steps[traced].append(sum(seconds for seconds, _ in results))
            completed += all(ok for _, ok in results)
            shutil.rmtree(store.root / cache, ignore_errors=True)

    try:
        with sampler:
            whole_cycles(run.seconds, cycle,
                         minimum=1 if tracer is None else 2)
    finally:
        if tracer is not None:
            tracer.uninstall()
    all_steps = steps[False] + steps[True]
    busy = sum(all_steps)
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "p50_ms": median_ms(all_steps),
        # The heap collection between ops is the benchmark's, not the
        # program's, so throughput is over the time spent in ops.
        "ops_per_s": completed / busy if busy else 0.0,
        "host.slowdown": sampler.slowdown(),
        "wall_p50_ms": median_ms([sum(ops) for ops in zip(*(
            run.tally.latencies.get(kind, []) for kind in kinds))]),
    }
    if tracer is None:
        return Outcome(metrics), answers
    spans = tracing.spans_of_ops(tracer.spans, traced_ops)
    traced_steps = len(steps[True])
    layers = tracing.layer_table(spans, traced_steps)
    layers.update(tracing.setup_table(
        tracing.read_chrome(run.trace_path("setup")), 1))
    layers["trace.overhead"] = _overhead(steps[True], steps[False])
    layers["host.slowdown"] = metrics["host.slowdown"]
    for kind in kinds:
        layers[f"{run.workload}.{kind}_p50_ms"] = median_ms(
            run.tally.calibrated.get(kind, []))
    roots = [span for span in spans if span.parent == 0]
    for key, attr in (("cpu.user_ms", "cpu_user"), ("cpu.sys_ms", "cpu_sys")):
        layers[key] = 1e3 * sum(span.attrs[attr] for span in roots) \
            / max(traced_steps, 1)
    tracer.write_chrome(run.trace_path("ops"), {"workload": run.workload})
    return Outcome(metrics, layers), answers


def _overhead(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Traced p50 / untraced p50 - 1 (0 when either side is empty)."""
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def oneshot(run: Run) -> Outcome:
    def estimate(session, pair):
        return session.estimate_full_scale(
            *pair, cores=CORES, draws=DRAWS, sample_sizes=ONESHOT_SIZES)

    return _in_process(run, estimate, ("fresh", "cached"))[0]


def refine(run: Run) -> Outcome:
    def estimate(session, pair):
        return session.estimate_two_stage(
            *pair, cores=CORES, draws=DRAWS, sample_sizes=ONESHOT_SIZES,
            **REFINE)

    outcome, answers = _in_process(run, estimate, ("refine",), refine=True)
    if run.trace:
        # Deterministic at the session seed: the run's refined rows,
        # counted the way TwoStageEstimate counts them.
        refined = sum(answer.refined for answer in answers)
        outcome.layers["refine.abs_shift"] = sum(
            answer.mean_shift * answer.refined for answer in answers) \
            / refined
        outcome.layers["refine.sign_flip_rate"] = sum(
            answer.sign_flips for answer in answers) / refined
    return outcome


# ----------------------------------------------------------------------
# served


def served_params(pair: Tuple[str, str]) -> Dict[str, Any]:
    """One served query; ``sample_sizes`` stays the daemon's default."""
    return {"scale": SCALE, "seed": SESSION_SEED, "cores": CORES,
            "draws": DRAWS, "baseline": pair[0], "candidate": pair[1]}


class Daemon:
    """A ``repro serve`` subprocess over one universe's directories."""

    def __init__(self, run: Run, universe: Universe,
                 trace_out: Optional[Path] = None) -> None:
        self.universe = universe
        universe.root.mkdir(parents=True, exist_ok=True)
        # Relative to the checkout (both processes run there), which
        # keeps the path inside the Unix socket length limit.
        self.socket = str((universe.root / "s.sock").relative_to(run.root))
        serve = ["serve", "--socket", self.socket,
                 "--cache-dir", str(universe.root / "cache"),
                 "--model-store", str(universe.models)]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro.cli"] + serve
        else:
            argv = [sys.executable,
                    str(run.root / "perfbench" / "serve_launcher.py"),
                    "--trace-out", str(trace_out), "--"] + serve
        self.started = time.perf_counter()
        self.proc = _spawn(run, argv, universe.root.with_suffix(".log"))
        self.warmed = self.started

    def client(self):
        """A connected client, once the daemon accepts connections."""
        from repro.serve import ReproClient

        deadline = time.monotonic() + SETUP_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "daemon exited:\n"
                    + _tail(self.universe.root.with_suffix(".log")))
            client = ReproClient(socket_path=self.socket,
                                 timeout=OP_TIMEOUT_S)
            try:
                client.ping()
                return client
            except OSError:
                client.close()
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)

    def warm(self, pairs: Sequence[Tuple[str, str]]) -> float:
        """Seconds from spawn until every pair is a d(w)-memo hit."""
        with self.client() as client:
            for pair in pairs:
                client.estimate(**served_params(pair))
        self.warmed = time.perf_counter()
        return self.warmed - self.started

    def stats(self) -> Dict[str, Any]:
        with self.client() as client:
            return client.stats()

    def proc_status(self, field_name: str) -> float:
        """A ``/proc/<pid>/status`` field in kB (e.g. ``VmHWM``)."""
        text = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in text.splitlines():
            if line.startswith(field_name + ":"):
                return float(line.split()[1])
        raise KeyError(field_name)

    def cpu_seconds(self) -> Tuple[float, float]:
        """(user, system) CPU seconds so far, from ``/proc/<pid>/stat``."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return int(fields[11]) / ticks, int(fields[12]) / ticks

    def stop(self) -> None:
        """Shut the daemon down and reap it, whatever state it is in."""
        if self.proc.poll() is None:
            try:
                from repro.serve import ReproClient

                ReproClient(socket_path=self.socket, timeout=5.0).shutdown()
            except (OSError, RuntimeError):
                pass            # stop_process escalates below
        stop_process(self.proc)
        sock = Path(self.socket)
        if sock.exists():
            sock.unlink()


def client_load(run: Run, daemon: Daemon, seconds: float,
                references: Dict[Tuple[str, str], Dict[str, Any]],
                kind: str) -> Tuple[List[float], float, float]:
    """Closed loop: two connections, each cycling its half of the pairs.

    The daemon may use every CPU, so samplers on all of them calibrate
    each query.  Returns (calibrated latencies, calibrated wall seconds,
    the samplers' slowdown).  Each client stops after the half-cycle
    during which ``seconds`` ran out.
    """
    halves = [run.cycle[0::2], run.cycle[1::2]]
    clients = [daemon.client() for _ in halves]
    start = threading.Barrier(len(halves) + 1)
    sampler = hostspeed.Sampler(hostspeed.all_cpus())
    latencies: List[float] = []
    finished: List[float] = []
    lock = threading.Lock()

    def loop(client, half) -> None:
        start.wait()
        stop_at = time.monotonic() + seconds
        mine = []
        while True:
            for pair in half:
                began = time.perf_counter()
                result, error = timed(
                    lambda: client.estimate(**served_params(pair)),
                    lambda answer: check_answer(answer, references[pair]))
                mine.append(run.tally.record(kind, result, error,
                                             sampler.factor(
                                                 began, began + result))[0])
            if time.monotonic() >= stop_at:
                break
        with lock:
            latencies.extend(mine)
            finished.append(time.perf_counter())

    threads = [threading.Thread(target=loop, args=(client, half))
               for client, half in zip(clients, halves)]
    try:
        with sampler:
            for thread in threads:
                thread.start()
            start.wait()
            began = time.perf_counter()
            for thread in threads:
                thread.join()
    finally:
        for client in clients:
            client.close()
    ended = max(finished, default=began)
    return (latencies, (ended - began) * sampler.factor(began, ended),
            sampler.slowdown())


def served(run: Run) -> Outcome:
    universes = [Universe(run.tmp / f"daemon{i}") for i in range(SETUPS)]
    daemons: List[Daemon] = []
    try:
        # The last daemon serves the timed load; in a traced run it is
        # the traced one and the first stays plain for the comparison.
        # Samplers on every CPU calibrate their start-up.
        with hostspeed.Sampler(hostspeed.all_cpus()) as sampler:
            for i, universe in enumerate(universes):
                traced = run.trace and i == len(universes) - 1
                daemons.append(Daemon(
                    run, universe,
                    run.trace_path("daemon") if traced else None))
            setup_seconds = [
                seconds * sampler.factor(daemon.started, daemon.warmed)
                for seconds, daemon in zip(
                    _parallel([lambda d=d: d.warm(run.cycle)
                               for d in daemons]), daemons)]
        reference_session = universes[0].session()
        references = {pair: answer_fields(
            reference_session.estimate_full_scale(
                *pair, cores=CORES, draws=DRAWS)) for pair in run.cycle}
        target = daemons[-1]
        if not run.trace:
            del reference_session
            daemons[0].stop()
            before = target.stats()["scheduler"]
            latencies, busy, slowdown = client_load(
                run, target, run.seconds, references, "query")
            after = target.stats()["scheduler"]
            rss = target.proc_status("VmHWM") / 1024.0
            _require_no_dedup(run, before, after)
            metrics = {
                "setup_s": statistics.median(setup_seconds),
                "peak_rss_mb": rss,
                "p50_ms": median_ms(latencies),
                "ops_per_s": (len(latencies) - run.tally.failed) / busy,
                "host.slowdown": slowdown,
                "wall_p50_ms": median_ms(run.tally.latencies["query"]),
            }
            return Outcome(metrics)
        return _served_traced(run, daemons, setup_seconds, references,
                              reference_session)
    finally:
        for daemon in daemons:
            daemon.stop()


def _require_no_dedup(run: Run, before: Dict[str, int],
                      after: Dict[str, int]) -> int:
    deduplicated = after["deduplicated"] - before["deduplicated"]
    if deduplicated:
        run.run_errors.append(
            f"the scheduler deduplicated {deduplicated} requests: the "
            f"client streams overlapped")
    return deduplicated


def _served_traced(run: Run, daemons: List[Daemon],
                   setup_seconds: List[float],
                   references: Dict[Tuple[str, str], Dict[str, Any]],
                   reference_session: Any) -> Outcome:
    plain, traced = daemons
    half = run.seconds / 2.0
    stats0 = traced.stats()
    cpu0 = traced.cpu_seconds()
    window0 = time.monotonic()
    tracer = tracing.Tracer().install()
    try:
        traced_latencies, busy, slowdown = client_load(
            run, traced, half, references, "traced")
    finally:
        tracer.uninstall()
    window1 = time.monotonic()
    cpu1 = traced.cpu_seconds()
    stats1 = traced.stats()
    untraced_latencies, _, _ = client_load(run, plain, half, references,
                                           "query")
    local: List[float] = []
    hostspeed.pin(hostspeed.program_cpu())
    deadline = time.monotonic() + min(half, 5.0)
    with hostspeed.Sampler([hostspeed.program_cpu()]) as sampler:
        while not local or time.monotonic() < deadline:
            for pair in run.cycle:
                started = time.perf_counter()
                reference_session.estimate_full_scale(*pair, cores=CORES,
                                                      draws=DRAWS)
                ended = time.perf_counter()
                local.append((ended - started)
                             * sampler.factor(started, ended))
    rss = traced.proc_status("VmHWM") / 1024.0
    traced.stop()

    spans = tracing.read_chrome(run.trace_path("daemon"))
    ops = [span for span in spans if span.parent == 0
           and span.name == "session.estimate"
           and window0 <= span.start <= window1]
    op_spans = tracing.spans_of_ops(spans, [span.id for span in ops])
    layers = tracing.layer_table(op_spans, len(ops))
    layers.update(tracing.setup_table(
        [span for span in spans if span.end <= window0], 1))
    sched0, sched1 = stats0["scheduler"], stats1["scheduler"]
    for name in ("requests", "deduplicated", "dispatch_groups",
                 "coalesced"):
        layers[f"serve.{name}"] = float(sched1[name] - sched0[name])
    _require_no_dedup(run, sched0, sched1)
    lru = stats1["panel_cache"]
    lookups = lru["hits"] + lru["misses"]
    layers["serve.lru_hit_rate"] = lru["hits"] / lookups if lookups else 0.0
    client_spans = [span for span in tracer.spans
                    if span.name == "serve.client"]
    layers["serve.client_ms"] = 1e3 * statistics.fmean(
        span.seconds for span in client_spans) if client_spans else 0.0
    layers["serve.overhead_ms"] = median_ms(untraced_latencies) \
        - median_ms(local)
    layers["trace.overhead"] = _overhead(traced_latencies,
                                         untraced_latencies)
    queries = max(len(ops), 1)
    layers["host.slowdown"] = slowdown
    layers["cpu.user_ms"] = 1e3 * (cpu1[0] - cpu0[0]) / queries
    layers["cpu.sys_ms"] = 1e3 * (cpu1[1] - cpu0[1]) / queries
    tracer.write_chrome(run.trace_path("clients"),
                        {"workload": run.workload})
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": rss,
        "p50_ms": median_ms(traced_latencies),
        "ops_per_s": len(traced_latencies) / busy,
    }
    return Outcome(metrics, layers)


def _parallel(calls: Sequence[Callable[[], float]]) -> List[float]:
    """Run calls on threads; returns their results in order."""
    results: List[Any] = [None] * len(calls)

    def target(i: int) -> None:
        try:
            results[i] = calls[i]()
        except BaseException as error:     # re-raised on this thread
            results[i] = error

    threads = [threading.Thread(target=target, args=(i,))
               for i in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


WORKLOADS: Dict[str, Callable[[Run], Outcome]] = {
    "oneshot": oneshot,
    "served": served,
    "refine": refine,
}
