"""Execution backends for per-partition tasks, with adaptive selection.

Each backend runs one callable per partition and records the task's CPU
duration.  Durations feed the simulated cluster scheduler
(:mod:`repro.cluster.scheduler`), which is how a single machine stands
in for the paper's 16-node cluster: per-partition work is real and
measured; only the parallel placement is simulated.

Backends:

* ``"serial"`` — run tasks one by one (deterministic, default);
* ``"thread"`` — a thread pool (numpy releases the GIL in kernels, so
  this gives real parallelism for distance-heavy workloads);
* ``"process"`` — a process pool, for DP-heavy measures (EDR/LCSS row
  scans) whose Python-level loops keep the GIL held.  Tasks and their
  results must be picklable: the REPOSE build and query tasks are
  module-level callables for exactly this reason, so the whole
  distributed engine runs on real subprocess workers when
  user-supplied index factories are picklable too;
* ``"auto"`` — pick one of the above per :meth:`ExecutionEngine.run`
  call from a small cost model over :class:`WorkloadHints` (measure
  class x partition size x batch width; see :func:`choose_backend`).

Thread and process pools are created once per engine and reused across
``run`` calls, so worker startup (and, for processes, interpreter
spawn) is amortized over a whole scheduled query batch instead of paid
per query.  Backend choice never changes results — every backend runs
the same tasks and returns them in partition order — so ``"auto"`` is
purely a placement decision.

Two driver-feedback extensions support the two-phase query planner:
:meth:`ExecutionEngine.run_waves` dispatches lazily produced task
waves with an inter-wave callback (the planner's threshold-propagation
hook) on the same persistent pools, and
:meth:`ExecutionEngine.calibrate` replaces the ``"auto"`` cost model's
dev-box ballpark constants with rates measured from one real partition
task per measure on this machine.

Fault tolerance: :meth:`run` and :meth:`run_waves` return one
:class:`TaskOutcome` per task instead of raising on worker failure.
Without a :class:`FaultPolicy` the engine keeps its historical
fail-fast contract (a worker exception propagates), every outcome is
a success wrapper, and the only added resilience is that a
``BrokenProcessPool`` disposes the poisoned persistent pool — so the
*next* run on the same engine rebuilds it — before surfacing as a
:class:`~repro.exceptions.TaskFailedError`.  With a policy, a
supervisor loop drives the pools: failed attempts are retried with
deterministic exponential backoff, attempts running past the policy's
per-task timeout are abandoned (their straggler result is still
accepted if it lands before a retry wins), stragglers past the
speculation threshold get a duplicate launch with first-result-wins,
timed-out or crashed process tasks are re-dispatched on the thread
pool, and a broken process pool is rebuilt at most once per run.
Tasks must be effectively pure (REPOSE partition searches are):
retries and speculative duplicates re-run them from scratch.
"""

from __future__ import annotations

import pickle
import os
import time
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, ThreadPoolExecutor, wait)
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from ..exceptions import ReproError, TaskFailedError

__all__ = ["TaskTiming", "WorkloadHints", "choose_backend", "FaultPolicy",
           "TaskFailure", "TaskOutcome", "require_results",
           "ExecutionEngine"]

_BACKENDS = ("serial", "thread", "process", "auto")


@dataclass(frozen=True)
class TaskTiming:
    """Duration of one per-partition task."""

    partition_id: int
    seconds: float


@dataclass(frozen=True)
class WorkloadHints:
    """What the driver knows about a batch of per-partition tasks.

    The ``"auto"`` backend feeds these into :func:`choose_backend`;
    every field is optional, and with no hints at all the engine stays
    serial (the deterministic default).

    Attributes
    ----------
    measure:
        Distance measure name, keying the per-point cost and
        GIL-residency tables below.
    partition_points:
        Average number of trajectory points per partition — the size of
        the work one task touches.
    num_tasks:
        Tasks in this ``run`` call (queries x partitions for scheduled
        batches).
    batch_width:
        Queries amortized over the same dispatch; pool startup is paid
        once for the whole batch.
    queries_per_task:
        Queries evaluated *inside* each task.  The batch query planner
        dispatches multi-query partition tasks (one task searches one
        partition for a whole query group), so per-task work scales
        with the group width even though ``num_tasks`` shrinks; this
        keeps the cost model's total-work estimate honest for them.
    kernels:
        Resolved DP kernel backend the refiner will run
        (``"cnative"``, ``"numpy"``, or ``None`` for the numpy default;
        never ``"auto"`` — the driver resolves before hinting).
        Compiled backends shrink the exact-DP share of a task and run
        it outside the GIL, which shifts both the per-point cost and
        the thread-vs-process placement below.
    """

    measure: str | None = None
    partition_points: int = 0
    num_tasks: int = 0
    batch_width: int = 1
    queries_per_task: float = 1.0
    kernels: str | None = None


#: Rough leaf-refinement cost per trajectory point of one local query,
#: in microseconds, by measure (dev-box ballpark with the batch
#: refinement engine).  Only the ratios to the overhead constants below
#: matter, not the absolute values.
_MEASURE_COST_US = {
    "hausdorff": 0.05,
    "frechet": 0.35,
    "dtw": 0.30,
    "erp": 0.60,
    "edr": 1.20,
    "lcss": 1.20,
}
_DEFAULT_COST_US = 0.50

#: Fraction of a task's work spent holding the GIL.  The tensor-based
#: measures run in numpy kernels that release it (threads parallelize
#: well); EDR/LCSS still run Python-level row loops per survivor, so
#: only processes parallelize them.
_GIL_FRACTION = {
    "hausdorff": 0.10,
    "frechet": 0.25,
    "dtw": 0.25,
    "erp": 0.40,
    "edr": 0.90,
    "lcss": 0.90,
}
_DEFAULT_GIL_FRACTION = 0.50

#: The exact elastic-DP measures the compiled kernel tier accelerates
#: (:mod:`repro.distances.kernels`).  Hausdorff never reaches a DP
#: sweep, so kernel hints leave its cost untouched.
_DP_MEASURES = frozenset({"frechet", "dtw", "erp", "edr", "lcss"})

#: Ballpark per-point cost multiplier when the exact DP stage runs on a
#: compiled backend instead of the numpy sweeps.  Used only until
#: :meth:`ExecutionEngine.calibrate` measures the real composite rate.
_COMPILED_COST_SCALE = {
    "cnative": 0.25,
}

#: GIL-held share for DP measures under a compiled backend: the row
#: loops that kept EDR/LCSS Python-bound move into native code that
#: releases the GIL.
_COMPILED_GIL_FRACTION = 0.15


def _cost_key(measure: str | None, kernels: str | None) -> str | None:
    """Cost-table key for a (measure, kernel backend) pair.

    Compiled backends get composite ``"measure+backend"`` keys so a
    calibration under one backend never masquerades as another's rate;
    the numpy fallback (and no hint at all) keeps the plain measure key
    for backward compatibility with pre-kernel calibrations.
    """
    if measure is None or kernels in (None, "numpy"):
        return measure
    if measure in _DP_MEASURES:
        return f"{measure}+{kernels}"
    return measure


def _lookup_cost_us(measure: str | None, kernels: str | None,
                    cost_us: dict[str, float] | None) -> float:
    """Per-point cost (us) for the hinted measure/backend pair.

    Measured composite rates win; otherwise the plain-measure ballpark
    is scaled by the compiled backend's expected exact-DP speedup."""
    table = cost_us or {}
    key = _cost_key(measure, kernels)
    cost = table.get(key)
    if cost is not None:
        return cost
    cost = table.get(measure)
    if cost is None:
        cost = _MEASURE_COST_US.get(measure, _DEFAULT_COST_US)
    if key != measure:
        cost *= _COMPILED_COST_SCALE.get(kernels, 0.25)
    return cost


def _gil_fraction(measure: str | None, kernels: str | None) -> float:
    """GIL-held share for the hinted measure/backend pair."""
    if kernels not in (None, "numpy") and measure in _DP_MEASURES:
        return _COMPILED_GIL_FRACTION
    return _GIL_FRACTION.get(measure, _DEFAULT_GIL_FRACTION)

#: Below this much estimated total work (us) any pool dispatch costs
#: more than it saves; above it, threads are the cheap default.
_SERIAL_CUTOFF_US = 2_000.0

#: GIL share above which threads stop scaling and processes become
#: worth their pickling cost.
_GIL_THRESHOLD = 0.5

#: One-off cost of spinning up a process pool (interpreter spawn plus
#: task/index pickling).  Amortized: once the engine's pool exists, the
#: model only charges the per-run pickling share.
_PROCESS_SPAWN_US = 250_000.0
_PROCESS_WARM_US = 25_000.0


def choose_backend(hints: WorkloadHints | None,
                   process_pool_warm: bool = False,
                   cost_us: dict[str, float] | None = None) -> str:
    """Resolve ``"auto"`` to a concrete backend for one task batch.

    The model estimates total work as ``measure cost x partition points
    x batch width x queries per task x tasks`` and compares the
    GIL-held share against pool overheads:

    * tiny batches (or a single task) stay serial;
    * GIL-releasing workloads go to the thread pool;
    * GIL-bound workloads go to the process pool once their parallel
      benefit covers worker startup — startup that drops to the warm
      rate when the engine's pool already exists.

    ``cost_us`` optionally overrides the built-in per-measure cost
    table with *measured* rates (see :meth:`ExecutionEngine.calibrate`)
    so the model reflects this machine rather than the dev-box
    ballparks.  When ``hints.kernels`` names a compiled DP backend the
    lookup prefers the composite ``"measure+backend"`` calibration key
    and otherwise scales the ballpark by the backend's expected
    exact-DP speedup; the GIL share also drops, since the DP loops run
    in native code.  Pure function of its inputs (no measurement at
    choice time), so selections are reproducible and unit-testable.
    """
    if hints is None or hints.num_tasks <= 1:
        return "serial"
    cost = _lookup_cost_us(hints.measure, hints.kernels, cost_us)
    per_task = (cost * max(hints.partition_points, 1)
                * max(hints.batch_width, 1)
                * max(hints.queries_per_task, 1.0))
    total = per_task * hints.num_tasks
    if total < _SERIAL_CUTOFF_US:
        return "serial"
    gil = _gil_fraction(hints.measure, hints.kernels)
    if gil > _GIL_THRESHOLD:
        spawn = _PROCESS_WARM_US if process_pool_warm else _PROCESS_SPAWN_US
        if total * gil > spawn:
            return "process"
    return "thread"


def _jitter01(pid: int, attempt: int) -> float:
    """Deterministic hash of ``(pid, attempt)`` into ``[0, 1)``.

    A tiny integer mix (xorshift-multiply) rather than ``random`` so
    the same task/attempt pair always backs off by the same amount —
    fault-injected runs stay reproducible end to end.
    """
    x = (pid * 1_000_003 + attempt * 7_919 + 0x9E3779B9) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x45D9F3B) & 0xFFFFFFFF
    x ^= x >> 16
    return x / 2.0 ** 32


@dataclass(frozen=True)
class FaultPolicy:
    """Retry/timeout/speculation policy for supervised task execution.

    Attributes
    ----------
    max_retries:
        Re-dispatches allowed per task after its first attempt
        (speculative duplicates do not consume this budget).
    backoff_seconds:
        Base delay before the first retry.
    backoff_multiplier:
        Exponential growth factor for successive retries.
    jitter_fraction:
        Each backoff is stretched by up to this fraction using a
        *deterministic* hash of ``(partition id, attempt)`` — retries
        de-synchronize without sacrificing reproducibility.
    task_timeout:
        Hard per-attempt timeout in seconds.  ``None`` derives one from
        the engine's cost model instead (see ``timeout_slack``); if no
        estimate is available either, attempts never time out.
    timeout_slack:
        Multiplier applied to the cost model's per-task estimate (the
        calibrated per-point rate times the partition size, see
        :meth:`ExecutionEngine.calibrate`) when deriving a timeout.
    min_timeout:
        Floor for derived timeouts, so tiny estimates on fast machines
        do not declare healthy tasks dead.
    speculate:
        Enable straggler speculation: a task still running past the
        speculation threshold gets one duplicate launch and the first
        result wins.
    speculation_seconds:
        Explicit speculation threshold.  ``None`` derives it as
        ``speculation_factor`` times the cost-model estimate (or half
        the timeout when only a timeout is known).
    speculation_factor:
        Multiplier on the estimate used for the derived threshold.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.25
    task_timeout: float | None = None
    timeout_slack: float = 16.0
    min_timeout: float = 0.5
    speculate: bool = False
    speculation_seconds: float | None = None
    speculation_factor: float = 4.0

    def backoff_for(self, pid: int, attempt: int) -> float:
        """Delay before re-dispatching ``pid`` after ``attempt``
        attempts have failed (deterministic in its arguments)."""
        base = self.backoff_seconds * self.backoff_multiplier ** max(
            attempt - 1, 0)
        return base * (1.0 + self.jitter_fraction * _jitter01(pid, attempt))

    def timeout_for(self, estimate_seconds: float | None) -> float | None:
        """Per-attempt timeout given the cost model's task estimate
        (``None`` means attempts are never abandoned)."""
        if self.task_timeout is not None:
            return self.task_timeout
        if estimate_seconds is None:
            return None
        return max(self.min_timeout, estimate_seconds * self.timeout_slack)

    def speculation_after(self, estimate_seconds: float | None,
                          timeout: float | None) -> float | None:
        """Runtime after which a straggler earns a speculative
        duplicate, or ``None`` when speculation is off/underivable."""
        if not self.speculate:
            return None
        if self.speculation_seconds is not None:
            return self.speculation_seconds
        if estimate_seconds is not None:
            return estimate_seconds * self.speculation_factor
        if timeout is not None:
            return timeout * 0.5
        return None


@dataclass(frozen=True)
class TaskFailure:
    """Terminal failure of one task after its retry budget ran out.

    ``kind`` is ``"error"`` (the task raised), ``"timeout"`` (every
    attempt exceeded the per-task deadline) or ``"crash"`` (a process
    worker died, e.g. segfault/``os._exit``); ``message`` carries the
    last attempt's diagnostic.
    """

    kind: str
    message: str


@dataclass(frozen=True)
class TaskOutcome:
    """Per-task verdict from a supervised :meth:`ExecutionEngine.run`.

    Exactly one of ``result``/``failure`` is meaningful: ``failure`` is
    ``None`` on success.  ``attempts`` counts every dispatch including
    speculative duplicates, ``timeouts`` the attempts abandoned at the
    deadline, and ``speculative_win`` whether a speculative duplicate
    (rather than the original straggler) produced the result.
    """

    partition_id: int
    timing: TaskTiming
    result: object = None
    failure: TaskFailure | None = None
    attempts: int = 1
    timeouts: int = 0
    speculative: int = 0
    speculative_win: bool = False

    @property
    def ok(self) -> bool:
        """True when the task produced a result."""
        return self.failure is None

    @property
    def retries(self) -> int:
        """Non-speculative re-dispatches this task consumed."""
        return max(self.attempts - self.speculative - 1, 0)


def require_results(outcomes: Sequence[TaskOutcome]) -> list[object]:
    """Unwrap outcomes into plain results, raising on any failure.

    The fail-fast adapter for call sites that cannot degrade
    gracefully (the index build): raises :class:`~repro.exceptions.TaskFailedError` naming the
    failed partitions, otherwise returns results in partition order.
    """
    failed = [o for o in outcomes if not o.ok]
    if failed:
        detail = "; ".join(
            f"partition {o.partition_id} ({o.failure.kind} after "
            f"{o.attempts} attempt(s)): {o.failure.message}"
            for o in failed[:3])
        more = f" (+{len(failed) - 3} more)" if len(failed) > 3 else ""
        raise TaskFailedError(
            f"{len(failed)} task(s) failed: {detail}{more}")
    return [o.result for o in outcomes]


def _timed_task(pid: int, task: Callable[[], object]) -> tuple[object, TaskTiming]:
    """Run one task and measure it (module level so process pools can
    pickle it)."""
    start = time.perf_counter()
    result = task()
    elapsed = time.perf_counter() - start
    return result, TaskTiming(partition_id=pid, seconds=elapsed)


class ExecutionEngine:
    """Runs one task per partition and records durations.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"thread"``, ``"process"`` or ``"auto"``.  With
        ``"auto"`` every :meth:`run` call resolves a concrete backend
        from its :class:`WorkloadHints` via :func:`choose_backend`; the
        resolution is recorded on :attr:`last_backend` (``"thread"`` or
        ``"mixed"`` when unpicklable tasks made an auto-selected
        process run retry on threads).
    max_workers:
        Pool size for the thread/process backends (defaults to the CPU
        count capped at 32).  Pools are created lazily and kept for the
        engine's lifetime — call :meth:`close` (or use the engine as a
        context manager) to release them.
    fault_policy:
        Optional :class:`FaultPolicy`.  ``None`` (the default) keeps
        the historical fail-fast contract; a policy makes :meth:`run`
        supervise attempts with retries, timeouts and speculation and
        report per-task :class:`TaskOutcome` failures instead of
        raising.
    task_wrapper:
        Optional callable applied to every task at dispatch time
        (``wrapped = task_wrapper(task)``).  The deterministic fault
        injector (:class:`repro.testing.faults.FaultInjector`) installs
        itself here; the hook is also a natural seam for tracing.
    """

    def __init__(self, backend: str = "serial", max_workers: int | None = None,
                 fault_policy: FaultPolicy | None = None,
                 task_wrapper: Callable[[Callable[[], object]],
                                        Callable[[], object]] | None = None):
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (use one of {_BACKENDS})")
        self.backend = backend
        self.max_workers = max_workers
        self.fault_policy = fault_policy
        self.task_wrapper = task_wrapper
        self.last_backend: str | None = None
        #: Measured per-point task costs (us) keyed by measure name —
        #: or ``"measure+backend"`` for compiled DP kernel backends —
        #: filled by :meth:`calibrate`; overrides the built-in cost
        #: table for this engine's ``"auto"`` resolutions.
        self.calibrated_cost_us: dict[str, float] = {}
        self._thread_pool: ThreadPoolExecutor | None = None
        self._process_pool: ProcessPoolExecutor | None = None
        self._closed = False

    def run(self, tasks: Sequence[Callable[[], object]],
            hints: WorkloadHints | None = None,
            ) -> tuple[list[TaskOutcome], list[TaskTiming]]:
        """Execute ``tasks`` (one per partition).

        ``hints`` matter for the ``"auto"`` backend's placement choice
        and (under a :class:`FaultPolicy`) for deriving per-task
        timeouts from the cost model.  Returns ``(outcomes, timings)``
        in partition order regardless of backend.  Without a fault
        policy a worker exception propagates (fail-fast) and every
        returned outcome is a success; with one, failures are retried
        per the policy and terminal failures come back as outcomes
        with ``ok == False`` — no exception escapes the worker layer.
        """
        if self._closed:
            raise ReproError(
                "ExecutionEngine is closed; create a new engine (or a new "
                "ClusterContext) instead of reusing a closed one")
        tasks = list(tasks)
        if self.task_wrapper is not None:
            tasks = [self.task_wrapper(task) for task in tasks]
        backend = self.backend
        if backend == "auto":
            backend = choose_backend(hints, self._process_pool is not None,
                                     self.calibrated_cost_us)
        if not tasks:
            backend = "serial"
        self.last_backend = backend
        if self.fault_policy is None:
            if backend == "serial":
                results, timings = self._run_serial(tasks)
            elif backend == "process":
                if self.backend == "auto":
                    results, timings = self._run_processes_with_fallback(tasks)
                else:
                    results, timings = self._run_processes(tasks)
            else:
                results, timings = self._run_threads(tasks)
            outcomes = [TaskOutcome(partition_id=timing.partition_id,
                                    timing=timing, result=result)
                        for result, timing in zip(results, timings)]
            return outcomes, timings
        if backend == "serial":
            outcomes = self._run_supervised_serial(tasks)
        else:
            outcomes = self._run_supervised_pooled(tasks, backend, hints)
        return outcomes, [outcome.timing for outcome in outcomes]

    def run_waves(self, waves: Iterable[Sequence[Callable[[], object]]],
                  hints: WorkloadHints | None = None,
                  on_wave: Callable[[int, list, list[TaskTiming]], None]
                  | None = None,
                  ) -> tuple[list[TaskOutcome], list[list[TaskTiming]]]:
        """Execute task batches wave by wave on the persistent pools.

        ``waves`` is pulled *lazily*: the next wave's tasks are only
        requested after the previous wave finished and ``on_wave``
        (called as ``on_wave(index, outcomes, timings)``) ran, which is
        what lets a driver-side planner shape wave ``w + 1`` from wave
        ``w``'s results (fold partials, tighten the global threshold,
        re-enqueue failed partitions, rebuild the remaining tasks).
        Pools persist across waves exactly as they do across
        :meth:`run` calls, so the feedback loop costs no worker
        restarts.

        ``hints`` describe one wave; ``num_tasks`` is re-derived per
        wave from the actual wave size so an ``"auto"`` engine resolves
        each dispatch against what it really runs.  A producer that
        knows more may yield ``(tasks, wave_hints)`` instead of bare
        ``tasks`` to override the hints for that wave — the batch
        planner uses this to report each wave's *actual* mean group
        width rather than a whole-batch estimate.  Returns the
        flattened outcomes plus per-wave timing lists (wave boundaries
        are synchronization barriers, which the wave-aware makespan
        simulation in :func:`repro.cluster.scheduler
        .simulate_schedule_waves` accounts for).  If ``on_wave`` (or
        the producer) raises, the wave generator is closed before the
        exception propagates, so a planner's in-flight bookkeeping is
        released rather than leaked.
        """
        all_outcomes: list[TaskOutcome] = []
        wave_timings: list[list[TaskTiming]] = []
        waves_iter = iter(waves)
        try:
            for index, tasks in enumerate(waves_iter):
                wave_hints = hints
                if isinstance(tasks, tuple):
                    tasks, wave_hints = tasks
                tasks = list(tasks)
                wave_hints = (replace(wave_hints, num_tasks=len(tasks))
                              if wave_hints is not None else None)
                outcomes, timings = self.run(tasks, hints=wave_hints)
                all_outcomes.extend(outcomes)
                wave_timings.append(timings)
                if on_wave is not None:
                    on_wave(index, outcomes, timings)
        finally:
            close = getattr(waves_iter, "close", None)
            if close is not None:
                close()
        return all_outcomes, wave_timings

    def calibrate(self, measure: str | None,
                  task: Callable[[], object],
                  partition_points: int,
                  kernels: str | None = None) -> float:
        """One-shot cost-model calibration for ``measure``.

        Runs ``task`` (a representative single-partition query task)
        once, serially, and converts the measured duration into the
        per-point microsecond rate the ``"auto"`` cost model uses —
        replacing the dev-box ballpark constant for that measure on
        this engine.  Returns the measured rate.  One timing is enough:
        the model only needs order-of-magnitude ratios against the pool
        overhead constants, and a single real task reflects this
        machine's numpy/BLAS/GIL behaviour far better than any built-in
        table.  The same rate feeds :class:`FaultPolicy` timeout
        derivation, so calibrated engines time out on measured — not
        guessed — expectations.

        ``kernels`` names the resolved DP kernel backend the timed task
        ran under; compiled backends store the rate under the composite
        ``"measure+backend"`` key so each backend keeps its own
        measured rate (a cnative calibration must not make the numpy
        fallback look five times cheaper than it is).
        """
        _, timing = _timed_task(0, task)
        rate = timing.seconds * 1e6 / max(partition_points, 1)
        self.calibrated_cost_us[_cost_key(measure, kernels)] = rate
        return rate

    # -- pool management ----------------------------------------------------

    def _workers(self) -> int:
        return self.max_workers or min(32, os.cpu_count() or 4)

    def _threads(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self._workers())
        return self._thread_pool

    def _processes(self) -> ProcessPoolExecutor:
        if self._process_pool is None:
            self._process_pool = ProcessPoolExecutor(
                max_workers=self._workers())
        return self._process_pool

    def _dispose_process_pool(self) -> None:
        """Drop a (possibly broken) process pool so the next use
        lazily rebuilds a healthy one."""
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=False)
            self._process_pool = None

    def close(self) -> None:
        """Shut down any pools this engine started (idempotent).

        After ``close`` the engine refuses further :meth:`run` calls
        with a :class:`~repro.exceptions.ReproError` instead of the
        opaque pool error the executors would raise.
        """
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=True)
            self._process_pool = None
        self._closed = True

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:
            pass

    # -- backends -----------------------------------------------------------

    @staticmethod
    def _timed(pid: int, task: Callable[[], object]) -> tuple[object, TaskTiming]:
        return _timed_task(pid, task)

    def _run_serial(self, tasks):
        results = []
        timings = []
        for pid, task in enumerate(tasks):
            result, timing = self._timed(pid, task)
            results.append(result)
            timings.append(timing)
        return results, timings

    def _run_threads(self, tasks):
        pool = self._threads()
        futures = [pool.submit(self._timed, pid, task)
                   for pid, task in enumerate(tasks)]
        pairs = [future.result() for future in futures]
        results = [result for result, _ in pairs]
        timings = [timing for _, timing in pairs]
        return results, timings

    def _run_processes(self, tasks):
        pool = self._processes()
        futures = [pool.submit(_timed_task, pid, task)
                   for pid, task in enumerate(tasks)]
        try:
            pairs = [future.result() for future in futures]
        except BrokenExecutor as exc:
            # A dead worker poisons the whole persistent pool; dispose
            # it so the next run on this engine rebuilds cleanly.
            self._dispose_process_pool()
            raise TaskFailedError(
                "a process worker died and broke the pool; the pool was "
                "disposed and will be rebuilt on the next run") from exc
        results = [result for result, _ in pairs]
        timings = [timing for _, timing in pairs]
        return results, timings

    def _run_processes_with_fallback(self, tasks):
        """Process-pool run that retries unpicklable tasks on threads.

        Only used when the backend was *auto-selected*: the cost model
        cannot know whether user-supplied callables pickle, and a task
        that fails to pickle never reached a worker, so rerunning just
        those tasks on the thread pool duplicates no work and no side
        effects.  PicklingError covers module-level failures,
        AttributeError "can't pickle local object" (closures/lambdas);
        a task that genuinely raises either while *executing* re-raises
        from the thread run just the same.  A broken pool is disposed
        (and the error surfaced) exactly as in the explicit path.
        """
        pool = self._processes()
        futures = [pool.submit(_timed_task, pid, task)
                   for pid, task in enumerate(tasks)]
        pairs: list = [None] * len(tasks)
        retry: list[int] = []
        for pid, future in enumerate(futures):
            try:
                pairs[pid] = future.result()
            except (pickle.PicklingError, AttributeError):
                retry.append(pid)
            except BrokenExecutor as exc:
                self._dispose_process_pool()
                raise TaskFailedError(
                    "a process worker died and broke the pool; the pool "
                    "was disposed and will be rebuilt on the next run"
                ) from exc
        if retry:
            self.last_backend = "thread" if len(retry) == len(tasks) else "mixed"
            thread_pool = self._threads()
            retried = [thread_pool.submit(self._timed, pid, tasks[pid])
                       for pid in retry]
            for pid, future in zip(retry, retried):
                pairs[pid] = future.result()
        results = [result for result, _ in pairs]
        timings = [timing for _, timing in pairs]
        return results, timings

    # -- supervised execution (fault policy) --------------------------------

    def _estimate_task_seconds(self, hints: WorkloadHints | None
                               ) -> float | None:
        """Cost-model estimate of one task's runtime in seconds, or
        ``None`` when the hints carry no sizing information."""
        if hints is None or hints.partition_points <= 0:
            return None
        cost = _lookup_cost_us(hints.measure, hints.kernels,
                               self.calibrated_cost_us)
        per_task_us = (cost * max(hints.partition_points, 1)
                       * max(hints.batch_width, 1)
                       * max(hints.queries_per_task, 1.0))
        return per_task_us / 1e6

    def _run_supervised_serial(self, tasks):
        """Serial execution under a fault policy: inline retries with
        backoff.  Timeouts and speculation need a pool (serial
        execution cannot preempt itself), so only ``"error"`` failures
        occur here."""
        policy = self.fault_policy
        outcomes: list[TaskOutcome] = []
        for pid, task in enumerate(tasks):
            attempts = 0
            while True:
                attempts += 1
                start = time.perf_counter()
                try:
                    result, timing = self._timed(pid, task)
                except Exception as exc:
                    elapsed = time.perf_counter() - start
                    if attempts > policy.max_retries:
                        outcomes.append(TaskOutcome(
                            partition_id=pid,
                            timing=TaskTiming(pid, elapsed),
                            failure=TaskFailure("error", repr(exc)),
                            attempts=attempts))
                        break
                    time.sleep(policy.backoff_for(pid, attempts))
                    continue
                outcomes.append(TaskOutcome(
                    partition_id=pid, timing=timing, result=result,
                    attempts=attempts))
                break
        return outcomes

    def _run_supervised_pooled(self, tasks, backend, hints):
        """Pool execution under a fault policy.

        A single supervisor loop drives every attempt: it submits
        retries when their backoff expires, abandons attempts past the
        per-task deadline (still accepting a straggler's late result
        while no replacement has won), launches one speculative
        duplicate per straggling task, moves timed-out/crashed process
        tasks to the thread pool, and rebuilds a broken process pool at
        most once per run.  Breaks are counted per pool instance: one
        dead worker fails every future of its pool, which is still one
        break.  :attr:`last_backend` reports where attempts actually
        ran (``"mixed"`` when on both pools).  Returns one
        :class:`TaskOutcome` per task, in partition order; never raises
        for task-level faults.
        """
        policy = self.fault_policy
        estimate = self._estimate_task_seconds(hints)
        timeout = policy.timeout_for(estimate)
        spec_after = policy.speculation_after(estimate, timeout)
        n = len(tasks)
        outcomes: list[TaskOutcome | None] = [None] * n
        attempts = [0] * n           # non-speculative submissions
        spec_launched = [0] * n      # speculative submissions (0 or 1)
        timeout_count = [0] * n
        thread_only = [False] * n
        last_failure: list[tuple[str, str, float] | None] = [None] * n
        # future -> [pid, start, speculative, abandoned, pool]
        in_flight: dict[object, list] = {}
        retry_at: dict[int, float] = {}
        use_processes = backend == "process"
        broken_pools: set[object] = set()
        ran_on: set[str] = set()

        def submit(pid: int, speculative: bool = False) -> None:
            on_threads = thread_only[pid] or not use_processes
            if speculative:
                spec_launched[pid] += 1
            else:
                attempts[pid] += 1
            if on_threads:
                pool = self._threads()
                future = pool.submit(self._timed, pid, tasks[pid])
            else:
                pool = self._processes()
                future = pool.submit(_timed_task, pid, tasks[pid])
            ran_on.add("thread" if on_threads else "process")
            in_flight[future] = [pid, time.monotonic(), speculative, False,
                                 pool]

        def active_attempts(pid: int) -> int:
            return sum(1 for info in in_flight.values()
                       if info[0] == pid and not info[3])

        def resolve(pid: int, outcome: TaskOutcome) -> None:
            outcomes[pid] = outcome
            retry_at.pop(pid, None)
            for future, info in list(in_flight.items()):
                if info[0] == pid:
                    future.cancel()
                    del in_flight[future]

        def attempt_failed(pid: int, kind: str, message: str,
                           elapsed: float) -> None:
            # Decide between scheduling a retry and declaring the task
            # dead — but only once no sibling attempt is still racing.
            last_failure[pid] = (kind, message, elapsed)
            if kind in ("timeout", "crash"):
                thread_only[pid] = True
            if active_attempts(pid) > 0 or pid in retry_at:
                return
            if attempts[pid] <= policy.max_retries:
                retry_at[pid] = (time.monotonic()
                                 + policy.backoff_for(pid, attempts[pid]))
            else:
                resolve(pid, TaskOutcome(
                    partition_id=pid, timing=TaskTiming(pid, elapsed),
                    failure=TaskFailure(kind, message),
                    attempts=attempts[pid] + spec_launched[pid],
                    timeouts=timeout_count[pid],
                    speculative=spec_launched[pid]))

        for pid in range(n):
            submit(pid)

        while any(outcome is None for outcome in outcomes):
            now = time.monotonic()
            for pid, due in list(retry_at.items()):
                if due <= now:
                    del retry_at[pid]
                    submit(pid)
            # Earliest of: an attempt's deadline, a speculation
            # trigger, a scheduled retry — bounds how long we block.
            next_event: float | None = None
            for info in in_flight.values():
                pid, start, speculative, abandoned, _ = info
                if outcomes[pid] is not None or abandoned:
                    continue
                if timeout is not None:
                    deadline = start + timeout
                    next_event = (deadline if next_event is None
                                  else min(next_event, deadline))
                if (spec_after is not None and not speculative
                        and not spec_launched[pid]):
                    trigger = start + spec_after
                    next_event = (trigger if next_event is None
                                  else min(next_event, trigger))
            for due in retry_at.values():
                next_event = due if next_event is None else min(next_event,
                                                                due)
            if in_flight:
                block = (None if next_event is None
                         else max(next_event - time.monotonic(), 0.0))
                done, _ = wait(set(in_flight), timeout=block,
                               return_when=FIRST_COMPLETED)
            else:
                done = set()
                if next_event is not None:
                    time.sleep(max(next_event - time.monotonic(), 0.0))
            for future in done:
                # A sibling completing in the same wait() batch may
                # already have resolved this pid and dropped the entry.
                info = in_flight.pop(future, None)
                if info is None:
                    continue
                pid, start, speculative, abandoned, pool = info
                if outcomes[pid] is not None:
                    continue
                elapsed = time.monotonic() - start
                try:
                    result, timing = future.result()
                except BrokenExecutor as exc:
                    if pool not in broken_pools:
                        broken_pools.add(pool)
                        if pool is self._process_pool:
                            self._dispose_process_pool()
                        if len(broken_pools) > 1:
                            # A rebuilt pool broke too: stop trusting
                            # processes for the rest of this run.
                            use_processes = False
                    if not abandoned:
                        attempt_failed(pid, "crash", repr(exc), elapsed)
                except (pickle.PicklingError, AttributeError,
                        TypeError) as exc:
                    # Pickling failures (PicklingError, "can't pickle
                    # local object" AttributeError, "cannot pickle ..."
                    # TypeError) only happen on the process path and
                    # mean the task never ran a byte: re-dispatch on
                    # the thread pool without consuming the retry
                    # budget.  The same exception types raised by the
                    # task itself *executing* on the thread pool are
                    # ordinary task errors.
                    if isinstance(pool, ThreadPoolExecutor):
                        if not abandoned:
                            attempt_failed(pid, "error", repr(exc), elapsed)
                    else:
                        if speculative:
                            spec_launched[pid] -= 1
                        else:
                            attempts[pid] -= 1
                        thread_only[pid] = True
                        if not abandoned:
                            submit(pid, speculative=speculative)
                except Exception as exc:
                    if not abandoned:
                        attempt_failed(pid, "error", repr(exc), elapsed)
                else:
                    resolve(pid, TaskOutcome(
                        partition_id=pid, timing=timing, result=result,
                        attempts=attempts[pid] + spec_launched[pid],
                        timeouts=timeout_count[pid],
                        speculative=spec_launched[pid],
                        speculative_win=speculative))
            now = time.monotonic()
            for future, info in list(in_flight.items()):
                pid, start, speculative, abandoned, _ = info
                if outcomes[pid] is not None or abandoned:
                    continue
                if timeout is not None and now - start >= timeout:
                    # Abandon the attempt (the worker may still finish;
                    # a late success is accepted until a retry wins).
                    info[3] = True
                    timeout_count[pid] += 1
                    attempt_failed(pid, "timeout",
                                   f"attempt exceeded {timeout:.3f}s",
                                   now - start)
                elif (spec_after is not None and not speculative
                      and not spec_launched[pid] and now - start >= spec_after):
                    submit(pid, speculative=True)
        for future in in_flight:
            future.cancel()
        self.last_backend = ("mixed" if len(ran_on) > 1
                             else next(iter(ran_on), backend))
        return outcomes
