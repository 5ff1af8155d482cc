"""The REPOSE distributed framework and its baseline harness.

Mirrors the paper's Section V-C architecture: trajectories are globally
partitioned, each partition is packaged together with its local index
into an ``RpTraj`` record, one task per partition builds the local
indexes (the paper's ``mapPartitions``), and queries run per-partition
local searches that the driver merges.  Every query shape has one
execution path: single top-k and range queries go through the wave
planner (:mod:`repro.cluster.planner`), batches through the batch
planner (:mod:`repro.cluster.batch`).

The same machinery runs the baselines — DFT, DITA and LS implement the
local-index interface — so every algorithm is measured on an identical
substrate (one ``DistributedTopK`` per algorithm).

Reported times:

* ``wall_seconds`` — real elapsed time on this machine;
* ``simulated_seconds`` — the makespan of the measured per-partition
  durations scheduled onto the virtual cluster (default: the paper's
  16 workers x 4 cores), wave barriers included, the reproduction's
  stand-in for distributed query time (QT) and index construction
  time (IT).
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cluster.batch import BatchPlanReport, BatchQueryPlanner
from .cluster.driver import merge_range
from .cluster.engine import (ExecutionEngine, FaultPolicy, WorkloadHints,
                             require_results)
from .cluster.planner import PlanReport, QueryPlanner
from .cluster.rdd import ClusterContext
from .cluster.scheduler import (
    ClusterSpec,
    ScheduleReport,
    simulate_schedule,
    simulate_schedule_waves,
)
from .core.grid import Grid
from .core.pivots import select_pivots
from .core.rptrie import RPTrie
from .core.search import (
    PartitionProbe,
    TopKResult,
    local_range_search,
    local_search,
    local_search_multi,
    probe_search,
)
from .core.succinct import SuccinctRPTrie
from .distances.base import Measure, get_measure
from .distances.batch import banded_upper_bound
from .distances.kernels import resolve_backend
from .exceptions import IndexNotBuiltError, PartialResultError
from .partitioning.strategies import make_strategy
from .types import Trajectory, TrajectoryDataset

__all__ = ["RpTraj", "RPTrieLocalIndex", "BuildReport", "QueryOutcome",
           "BatchOutcome", "DistributedTopK", "Repose", "make_baseline"]


@dataclass
class RpTraj:
    """The paper's ``case class RpTraj(trajectory: Array, Index: RP-Trie)``:
    one partition's trajectories packaged with its local index."""

    trajectories: list[Trajectory]
    index: object  # any local index (RPTrieLocalIndex, DFTIndex, ...)


class _BuildPartition:
    """Task building one partition's local index (the paper's
    ``mapPartitions`` build step).

    Module-level (rather than a closure) so the ``"process"`` execution
    backend can pickle the task when the index factory is picklable.
    """

    def __init__(self, index_factory: Callable[[], object],
                 trajectories: list[Trajectory]):
        self.index_factory = index_factory
        self.trajectories = trajectories

    def __call__(self) -> RpTraj:
        index = self.index_factory()
        index.build(self.trajectories)
        return RpTraj(trajectories=self.trajectories, index=index)


def _make_rptrie_index(grid: Grid, measure: Measure, optimized: bool,
                       num_pivots: int, succinct: bool,
                       search_options: dict | None,
                       pivot_box: list) -> "RPTrieLocalIndex":
    """Per-partition index factory (module level for picklability).

    ``pivot_box`` is a one-element list owned by the engine, read at
    call time: pivots assigned to the engine after construction but
    before :meth:`DistributedTopK.build` are still the ones every
    partition indexes, matching the driver-computed ``dqp``.
    """
    pivots = pivot_box[0]
    return RPTrieLocalIndex(grid, measure, optimized=optimized,
                            num_pivots=num_pivots, pivots=pivots or None,
                            succinct=succinct,
                            search_options=search_options)


class _LocalTopKTask:
    """One (query, partition) top-k task of a wave (picklable)."""

    def __init__(self, rp: RpTraj, query: Trajectory, k: int, kwargs: dict):
        self.rp = rp
        self.query = query
        self.k = k
        self.kwargs = kwargs

    def __call__(self):
        return self.rp.index.top_k(self.query, self.k, **self.kwargs)


#: Per-index-type memo of "does ``top_k_multi`` accept
#: ``share_groups``?" — the signature inspection costs tens of
#: microseconds, which would otherwise be paid on every dispatched
#: multi-query task (process-backend workers each warm their own copy).
_MULTI_ACCEPTS_SHARES: dict[type, bool] = {}


def _multi_accepts_share_groups(index) -> bool:
    """Whether ``index.top_k_multi`` declares a ``share_groups``
    parameter, memoized per index type."""
    key = type(index)
    accepts = _MULTI_ACCEPTS_SHARES.get(key)
    if accepts is None:
        accepts = "share_groups" in inspect.signature(
            index.top_k_multi).parameters
        _MULTI_ACCEPTS_SHARES[key] = accepts
    return accepts


class _LocalMultiTopKTask:
    """One (partition, query group) task of a batched wave plan.

    Picklable for the process backend.  Prefers the index's
    ``top_k_multi`` (REPOSE's shares one columnar gather per leaf
    across the group); indexes without it — the baselines — fall back
    to a per-query loop *inside* the task, so grouping still amortizes
    the dispatch itself.  ``share_groups`` carries the batch planner's
    near-duplicate labels (None entries for unshared queries); it is
    forwarded only to a ``top_k_multi`` that declares the parameter
    (:func:`_multi_accepts_share_groups`), so older or third-party
    multi-query indexes keep working — labels are a sharing hint,
    never required for correctness.
    """

    def __init__(self, rp: RpTraj, queries: list[Trajectory], k: int,
                 kwargs_list: list[dict],
                 share_groups: list | None = None):
        self.rp = rp
        self.queries = queries
        self.k = k
        self.kwargs_list = kwargs_list
        self.share_groups = share_groups

    def __call__(self) -> list:
        multi = getattr(self.rp.index, "top_k_multi", None)
        if multi is not None:
            shares = self.share_groups
            if (shares is not None
                    and any(label is not None for label in shares)
                    and _multi_accepts_share_groups(self.rp.index)):
                return multi(self.queries, self.k, self.kwargs_list,
                             share_groups=shares)
            return multi(self.queries, self.k, self.kwargs_list)
        return [self.rp.index.top_k(query, self.k, **kwargs)
                for query, kwargs in zip(self.queries, self.kwargs_list)]


class _LocalRangeTask:
    """One (query, partition) range-search task of a wave (picklable)."""

    def __init__(self, rp: RpTraj, query: Trajectory, radius: float,
                 kwargs: dict):
        self.rp = rp
        self.query = query
        self.radius = radius
        self.kwargs = kwargs

    def __call__(self):
        return self.rp.index.range_query(self.query, self.radius,
                                         **self.kwargs)


@dataclass
class BuildReport:
    """Index construction metrics (the paper's IT and IS)."""

    wall_seconds: float
    simulated_seconds: float
    index_bytes: int
    partition_sizes: list[int] = field(default_factory=list)
    schedule: ScheduleReport | None = None


@dataclass
class QueryOutcome:
    """One distributed top-k (or range) execution.

    ``plan`` carries the query planner's per-wave report (dispatch
    order, probe bounds, threshold broadcasts, per-wave pruned-node and
    exact-refinement counts).  The same counters are also summed onto
    ``result.stats`` so existing stats plumbing reports them.

    Degradation state (meaningful under an engine
    :class:`~repro.cluster.engine.FaultPolicy`): ``complete`` is False
    when some partitions exhausted every retry, ``failed_partitions``
    names them, and ``exact`` tells whether the result is nevertheless
    provably identical to the fault-free answer (every failed
    partition's probe lower bound strictly exceeded the final
    threshold).  ``complete`` implies ``exact``; an incomplete,
    non-exact outcome is best-effort.
    """

    result: TopKResult
    wall_seconds: float
    simulated_seconds: float
    plan: PlanReport
    per_partition_seconds: list[float] = field(default_factory=list)
    schedule: ScheduleReport | None = None
    complete: bool = True
    exact: bool = True
    failed_partitions: list[int] = field(default_factory=list)

    def require_complete(self) -> "QueryOutcome":
        """Fail-fast guard: raise unless every partition contributed.

        Returns ``self`` when complete, so calls chain; otherwise
        raises :class:`~repro.exceptions.PartialResultError` naming the
        failed partitions and the exactness verdict.
        """
        if self.complete:
            return self
        raise PartialResultError(
            f"query lost partitions {self.failed_partitions} "
            f"(result {'still provably exact' if self.exact else 'best-effort'})")


@dataclass
class BatchOutcome:
    """A batch of queries executed under one coordinated plan.

    This is the paper's Section V-A scenario: a batch of analysis
    queries (possibly skewed towards hot regions) issued at once.
    ``results`` holds one merged global top-k per query, in input
    order.  ``plan`` carries the batch planner's
    :class:`~repro.cluster.batch.BatchPlanReport` — dispatched
    multi-query tasks, per-query wave accounting, probe, share-group
    and cross-query threshold savings.  The makespan and utilization
    expose the resource waste that homogeneous partitioning causes
    when query load concentrates on a few partitions.

    Degradation state mirrors :class:`QueryOutcome`, per query:
    ``complete`` is the whole batch's verdict, while ``exact[qi]`` and
    ``failed_partitions[qi]`` report each query individually.
    """

    results: list[TopKResult]
    wall_seconds: float
    simulated_seconds: float
    plan: BatchPlanReport
    schedule: ScheduleReport | None = None
    complete: bool = True
    exact: list[bool] = field(default_factory=list)
    failed_partitions: list[list[int]] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        return self.schedule.utilization if self.schedule else 1.0

    def require_complete(self) -> "BatchOutcome":
        """Fail-fast guard: raise unless every query saw every
        partition; returns ``self`` when complete, so calls chain."""
        if self.complete:
            return self
        bad = [qi for qi, failed in enumerate(self.failed_partitions)
               if failed]
        raise PartialResultError(
            f"batch queries {bad} lost partitions "
            f"{[self.failed_partitions[qi] for qi in bad]}")


class RPTrieLocalIndex:
    """Adapter giving the RP-Trie the common local-index interface.

    Parameters mirror :class:`~repro.core.rptrie.RPTrie`; ``succinct``
    freezes the built trie into the SuRF-style structure before
    querying.

    The adapter announces the two planner capabilities: ``probe``
    (first-level lower bounds for promise ordering and partition
    skipping) and ``supports_threshold`` (``top_k`` accepts the
    driver-broadcast ``dk``).  Baseline indexes expose neither and the
    planner degrades gracefully around them.
    """

    #: The planner may pass ``dk=`` (the running global k-th best) to
    #: :meth:`top_k`; seeding is strictly work-pruning, never
    #: answer-changing (see :func:`repro.core.search.local_search`).
    supports_threshold = True

    def __init__(self, grid: Grid, measure: Measure, optimized: bool = True,
                 num_pivots: int = 5, pivots: list[Trajectory] | None = None,
                 succinct: bool = False,
                 search_options: dict | None = None):
        self.grid = grid
        self.measure = measure
        self.optimized = optimized
        self.num_pivots = num_pivots
        self.pivots = pivots
        self.succinct = succinct
        self.search_options = search_options or {}
        self._trie: RPTrie | SuccinctRPTrie | None = None

    def build(self, trajectories: list[Trajectory]) -> "RPTrieLocalIndex":
        trie = RPTrie(self.grid, self.measure, optimized=self.optimized,
                      num_pivots=self.num_pivots, pivots=self.pivots)
        trie.build(trajectories)
        self._trie = SuccinctRPTrie(trie) if self.succinct else trie
        return self

    def _search_options(self, kernels: str | None = None) -> dict:
        """Search options with a per-call kernel backend override.

        ``kernels`` (from the planner's ``plan_options``) wins over the
        engine-level ``search_options`` entry; None keeps the
        configured options untouched.
        """
        if kernels is None:
            return self.search_options
        return {**self.search_options, "kernels": kernels}

    def top_k(self, query: Trajectory, k: int,
              dqp: np.ndarray | None = None,
              dk: float = float("inf"),
              kernels: str | None = None) -> TopKResult:
        """Local top-k; ``dk`` optionally seeds an external threshold,
        ``kernels`` overrides the DP kernel backend for this call."""
        if self._trie is None:
            raise IndexNotBuiltError("call build() before top_k()")
        return local_search(self._trie, query, k, dqp=dqp, dk=dk,
                            **self._search_options(kernels))

    def top_k_multi(self, queries: list[Trajectory], k: int,
                    kwargs_list: list[dict],
                    share_groups: list | None = None) -> list[TopKResult]:
        """Local top-k for a whole query group, sharing leaf gathers.

        The batch planner's multi-query entry point
        (:func:`repro.core.search.local_search_multi`): one call runs
        every query of a partition-affine group, building each touched
        leaf's padded candidate tensor once for the group.  Per-query
        ``kwargs_list`` entries carry the same keys :meth:`top_k`
        accepts (``dqp``, ``dk``); ``share_groups`` forwards the batch
        planner's near-duplicate labels so group members run
        back-to-back against the shared gather store.  Results are
        bit-identical to calling :meth:`top_k` per query.
        """
        if self._trie is None:
            raise IndexNotBuiltError("call build() before top_k_multi()")
        kernels = next((kwargs["kernels"] for kwargs in kwargs_list
                        if kwargs.get("kernels") is not None), None)
        return local_search_multi(
            self._trie, queries, k,
            dqps=[kwargs.get("dqp") for kwargs in kwargs_list],
            dks=[kwargs.get("dk", float("inf")) for kwargs in kwargs_list],
            share_groups=share_groups,
            **self._search_options(kernels))

    def probe(self, query: Trajectory,
              dqp: np.ndarray | None = None) -> PartitionProbe:
        """First-level partition summary for the planner's probe phase.

        Respects the same ablation switches the search runs with, so
        the probe bound is sound for the configured search.
        """
        if self._trie is None:
            raise IndexNotBuiltError("call build() before probe()")
        options = self.search_options
        return probe_search(
            self._trie, query, dqp=dqp,
            use_pivots=options.get("use_pivots", True),
            use_lbt=options.get("use_lbt", True),
            use_lbo=options.get("use_lbo", True))

    def range_query(self, query: Trajectory, radius: float,
                    dqp: np.ndarray | None = None,
                    kernels: str | None = None) -> TopKResult:
        if self._trie is None:
            raise IndexNotBuiltError("call build() before range_query()")
        options = self._search_options(kernels)
        return local_range_search(
            self._trie, query, radius, dqp=dqp,
            use_pivots=options.get("use_pivots", True),
            batch_refine=options.get("batch_refine", True),
            kernels=options.get("kernels"))

    def memory_bytes(self) -> int:
        if self._trie is None:
            raise IndexNotBuiltError("call build() before memory_bytes()")
        return self._trie.memory_bytes()

    def insert(self, traj: Trajectory) -> None:
        """Incrementally insert (mutable tries only; not succinct)."""
        if self._trie is None:
            raise IndexNotBuiltError("call build() before insert()")
        if isinstance(self._trie, SuccinctRPTrie):
            raise IndexNotBuiltError(
                "succinct tries are immutable; rebuild to add trajectories")
        self._trie.insert(traj)

    @property
    def trie(self) -> RPTrie | SuccinctRPTrie:
        if self._trie is None:
            raise IndexNotBuiltError("index not built")
        return self._trie


class DistributedTopK:
    """Distributed top-k search: any local index on the execution engine.

    Parameters
    ----------
    dataset:
        The trajectories to index.
    index_factory:
        Zero-argument callable returning a fresh local index per
        partition.
    strategy:
        Global partitioning strategy name ("heterogeneous",
        "homogeneous", "random") or a callable
        ``(dataset, num_partitions) -> list[list[Trajectory]]``.
    num_partitions:
        Partition count (paper default: 64, one per core).
    cluster_spec:
        Virtual cluster shape for simulated times.
    engine:
        Execution backend for real per-partition work: an
        :class:`~repro.cluster.engine.ExecutionEngine` or a backend
        name (``"serial"``, ``"thread"``, ``"process"`` or ``"auto"``).
        With ``"auto"`` the engine picks a backend per dispatch from
        the workload hints this driver supplies (measure, partition
        size, batch width); the choice never changes results.
    measure_hint:
        Measure name forwarded to an ``"auto"`` engine's cost model.
        :class:`Repose` and :func:`make_baseline` fill it in; only
        custom index factories need to pass it explicitly.
    kernels_hint:
        Resolved DP kernel backend name (``"numpy"``/``"cnative"``)
        forwarded to the ``"auto"`` engine's cost model:
        compiled kernels shift per-candidate rates (and the
        serial/thread/process break-even) enough that the model keys
        its calibrated rates by ``measure+backend``.
        :meth:`Repose.build` fills it in from its ``kernels``
        argument; never affects results, only backend placement.
    plan_options:
        Planner knobs: ``{"wave_size": int}`` (partitions per wave,
        default: the partition count cut into 4 waves; the partition
        count itself gives one probe-ordered wave, the paper's
        one-shot fan-out);
        ``{"share_eps": float}`` (batch queries within this distance
        of a share-group representative adopt its probe/wave plan —
        near-duplicate sharing, default off); ``{"sample_size": int}``
        (shared-sample candidates behind the batch planner's sampled
        non-metric cross-query bounds; default auto-sizes to
        ``max(2k, 8)``, 0 disables); ``{"query_index": bool}``
        (default True: route the batch planner's driver-side query
        scans — share clustering, cross-query tightening, registry
        neighbor lookups — through the VP-tree metric index of
        :mod:`repro.cluster.query_index`, lifting the 64-query cap on
        cross-query reuse; False restores the legacy greedy scans as a
        comparison baseline — results are identical either way);
        ``{"kernels": name}`` (DP kernel backend for leaf refinement —
        see :mod:`repro.distances.kernels` — forwarded to every local
        search, overriding the index's build-time setting; never
        changes results).
    fault_policy:
        Optional :class:`~repro.cluster.engine.FaultPolicy` installed
        on the engine: partition tasks are retried with backoff, timed
        out against the calibrated cost model, optionally speculated,
        and queries degrade to flagged partial results (see
        :attr:`QueryOutcome.complete`) instead of raising when a
        partition exhausts every retry.
    """

    #: Every knob :attr:`plan_options` accepts; anything else raises
    #: ``ValueError`` up front instead of being silently ignored.
    _PLAN_OPTION_KEYS = frozenset(
        {"wave_size", "share_eps", "sample_size", "kernels",
         "query_index"})

    def __init__(self, dataset: TrajectoryDataset,
                 index_factory: Callable[[], object],
                 strategy: str | Callable = "heterogeneous",
                 num_partitions: int = 64,
                 cluster_spec: ClusterSpec | None = None,
                 engine: ExecutionEngine | str | None = None,
                 measure_hint: str | None = None,
                 kernels_hint: str | None = None,
                 plan_options: dict | None = None,
                 fault_policy: FaultPolicy | None = None):
        self.dataset = dataset
        self.index_factory = index_factory
        self.strategy = (make_strategy(strategy)
                         if isinstance(strategy, str) else strategy)
        self.num_partitions = num_partitions
        self.cluster_spec = cluster_spec or ClusterSpec()
        if isinstance(engine, str):
            engine = ExecutionEngine(engine)
        self.context = ClusterContext(engine or ExecutionEngine())
        if fault_policy is not None:
            self.context.engine.fault_policy = fault_policy
        self.measure_hint = measure_hint
        self.kernels_hint = kernels_hint
        self.plan_options = self._validate_plan_options(plan_options)
        self._partition_points: int | None = None
        self._parts: list[RpTraj] | None = None
        self.build_report: BuildReport | None = None
        #: The serving front-end attached by ``build(service=...)``
        #: (see :meth:`serve`); None until one is requested.
        self.service = None

    @classmethod
    def _validate_plan_options(cls, plan_options: dict | None) -> dict:
        """Reject unknown planner knobs up front.

        A typo'd option (``wave_sizes``) would otherwise be silently
        ignored and the query would run with defaults — the worst kind
        of mis-configuration.  Returns a fresh dict copy of the valid
        options.
        """
        options = dict(plan_options or {})
        unknown = sorted(set(options) - cls._PLAN_OPTION_KEYS)
        if unknown:
            supported = ", ".join(sorted(cls._PLAN_OPTION_KEYS))
            raise ValueError(
                f"unknown plan option(s) {unknown}; "
                f"supported knobs: {supported}")
        return options

    def _inject_kernels(self, kwargs: dict,
                        options: dict | None = None) -> dict:
        """Thread the planner-level kernel backend into query kwargs.

        Only acts when a ``kernels`` plan option is actually set (the
        engine-level :attr:`plan_options` by default, or a per-call
        merge) and the caller did not already pass one — baseline
        indexes, whose ``top_k`` knows nothing of kernel backends,
        never see an injected key.
        """
        opts = self.plan_options if options is None else options
        if "kernels" in opts and "kernels" not in kwargs:
            kwargs = {**kwargs, "kernels": opts["kernels"]}
        return kwargs

    def _workload_hints(self, num_tasks: int, batch_width: int = 1,
                        queries_per_task: float = 1.0) -> WorkloadHints:
        """Hints for the ``"auto"`` engine: what one dispatch looks like.

        The average partition size is computed from the dataset once
        and cached; the measure comes from :attr:`measure_hint` (None
        for custom factories, which makes the cost model conservative).
        ``queries_per_task`` describes multi-query partition tasks
        (the batch planner's grouped dispatch).
        """
        if self._partition_points is None:
            total = sum(len(t) for t in self.dataset.trajectories)
            self._partition_points = total // max(self.num_partitions, 1)
        return WorkloadHints(measure=self.measure_hint,
                             partition_points=self._partition_points,
                             num_tasks=num_tasks,
                             batch_width=batch_width,
                             queries_per_task=queries_per_task,
                             kernels=self.kernels_hint)

    def build(self) -> BuildReport:
        """Partition the dataset and build one local index per partition."""
        start = time.perf_counter()
        partitions = self.strategy(self.dataset, self.num_partitions)
        tasks = [_BuildPartition(self.index_factory, part)
                 for part in partitions]
        outcomes, timings = self.context.engine.run(
            tasks, hints=self._workload_hints(len(tasks)))
        self.context.record_timings([timings])
        # Building is all-or-nothing: a partition whose index failed to
        # build would silently drop its trajectories from every answer.
        # The planners address the driver-held partitions directly.
        self._parts = require_results(outcomes)
        wall = time.perf_counter() - start
        # Fresh indexes invalidate every memoized planner probe.
        self.context.probe_cache.bump_epoch()
        schedule = simulate_schedule(timings, self.cluster_spec)
        self.build_report = BuildReport(
            wall_seconds=wall,
            simulated_seconds=schedule.makespan,
            index_bytes=sum(rp.index.memory_bytes() for rp in self._parts),
            partition_sizes=[len(p) for p in partitions],
            schedule=schedule,
        )
        return self.build_report

    def _require_built(self, action: str) -> None:
        if self._parts is None:
            raise IndexNotBuiltError(f"call build() before {action}")

    def _query_kwargs_for(self, query: Trajectory,
                          provided: dict | None = None) -> dict:
        """Driver-side per-query kwargs shared with every partition.

        Subclasses override this to compute query-global state exactly
        once per query (e.g. :class:`Repose` supplies the query-to-pivot
        distances ``dqp``); every query path — single, batch and range
        — threads the result through so no partition repeats the work.
        ``provided`` holds the caller's explicit kwargs so an override
        can skip recomputing values the caller supplied.
        """
        return {}

    def _planner(self) -> QueryPlanner:
        """The wave planner bound to this engine's execution pools."""
        return QueryPlanner(self.context.engine,
                            wave_size=self.plan_options.get("wave_size"),
                            probe_cache=self.context.probe_cache)

    def _query_distance_fn(self) -> Callable | None:
        """Driver-side query-to-query distance for the batch planner's
        cross-query threshold reuse, or None when the measure's
        triangle inequality cannot certify it.  The base driver knows
        nothing about its index's measure, so it opts out;
        :class:`Repose` supplies its metric measures' distance."""
        return None

    def _share_distance_fn(self) -> Callable | None:
        """Driver-side query-to-query distance for near-duplicate
        share-group *clustering* (``plan_options={"share_eps": ...}``).
        Unlike :meth:`_query_distance_fn` it needs no metric property
        — clustering only decides which queries adopt a shared plan,
        whose soundness the planner restores per measure — but the
        base driver still knows no measure, so it opts out and
        ``share_eps`` is inert; :class:`Repose` supplies its measure's
        distance unconditionally."""
        return None

    def _sampled_bound_fn(self) -> Callable | None:
        """Driver-side pairwise *upper* bound backing the batch
        planner's sampled cross-query bounds for non-metric measures,
        or None to disable (the base driver, and metric measures —
        which already get the stronger triangle coupling)."""
        return None

    def top_k(self, query: Trajectory, k: int,
              **query_kwargs) -> QueryOutcome:
        """Distributed top-k through the two-phase wave planner.

        Probes every partition driver-side, dispatches them by promise
        in waves, folds each wave into a running global merge and
        broadcasts the tightened ``dk`` into the next wave (see
        :mod:`repro.cluster.planner`); the simulated time treats every
        wave boundary as a cluster barrier.  Extra ``query_kwargs`` are
        forwarded to every local index's ``top_k`` (on top of
        :meth:`_query_kwargs_for`, which lets :class:`Repose` share
        driver-computed query-pivot distances).
        """
        self._require_built("top_k()")
        start = time.perf_counter()
        kwargs = self._inject_kernels(
            {**self._query_kwargs_for(query, query_kwargs),
             **query_kwargs})
        result, wave_timings, report = self._planner().execute_top_k(
            self._parts, query, k, kwargs,
            make_task=lambda rp, kw: _LocalTopKTask(rp, query, k, kw),
            hints=self._workload_hints(self.num_partitions))
        return self._outcome(result, wave_timings, report, start)

    def _outcome(self, result: TopKResult, wave_timings: list,
                 report: PlanReport, start: float) -> QueryOutcome:
        """Record one planned query's timings and wrap its outcome."""
        self.context.record_timings(wave_timings)
        wall = time.perf_counter() - start
        schedule = simulate_schedule_waves(wave_timings, self.cluster_spec)
        return QueryOutcome(
            result=result,
            wall_seconds=wall,
            simulated_seconds=schedule.makespan,
            plan=report,
            per_partition_seconds=[t.seconds
                                   for t in self.context.last_timings],
            schedule=schedule,
            complete=report.complete,
            exact=report.exact,
            failed_partitions=list(report.failed_partitions),
        )

    def calibrate(self, query: Trajectory | None = None,
                  k: int = 10) -> float:
        """Calibrate the ``"auto"`` cost model on this machine.

        Times one real partition task (a local top-k of ``query``
        against the largest partition) through
        :meth:`~repro.cluster.engine.ExecutionEngine.calibrate`,
        replacing the dev-box ballpark constant for this engine's
        measure, and persists the measured rates on the cluster
        context so they outlive the engine.  Returns the measured
        per-point rate in microseconds.
        """
        self._require_built("calibrate()")
        parts = [rp for rp in self._parts if rp.trajectories]
        if not parts:
            raise IndexNotBuiltError("cannot calibrate an empty dataset")
        rp = max(parts, key=lambda rp: sum(len(t) for t in rp.trajectories))
        if query is None:
            query = rp.trajectories[0]
        kwargs = self._inject_kernels(self._query_kwargs_for(query))
        task = _LocalTopKTask(rp, query, k, kwargs)
        points = sum(len(t) for t in rp.trajectories)
        rate = self.context.engine.calibrate(self.measure_hint, task, points,
                                             kernels=self.kernels_hint)
        self.context.calibration = dict(
            self.context.engine.calibrated_cost_us)
        return rate

    def top_k_batch(self, queries: list[Trajectory], k: int,
                    plan_options: dict | None = None,
                    registry=None) -> BatchOutcome:
        """Run a batch of queries under one coordinated plan.

        The whole batch goes through the multi-query
        :class:`~repro.cluster.batch.BatchQueryPlanner`: every
        (query, partition) pair is probed once (served from the
        context's epoch-invalidated probe cache on repeats), queries
        are grouped by partition affinity so one dispatched task
        searches one partition for a whole group, and a per-query
        running ``dk`` vector — cross-tightened by the triangle
        inequality for metric measures — is broadcast between waves.
        With ``plan_options={"share_eps": eps}`` *near-duplicate*
        queries (within ``eps`` of a share-group representative) skip
        their own probe pass and adopt the representative's wave plan,
        marching through shared partition tasks and leaf tensors while
        still being refined exactly; for the non-metric measures
        (DTW/EDR/LCSS) a sampled banded bound over a small shared
        candidate sample tightens sibling thresholds where the
        triangle inequality cannot (``{"sample_size": n}`` sizes it, 0
        disables).  All of the planner's driver-side query scans run
        against the VP-tree metric index of
        :mod:`repro.cluster.query_index` by default, which lifts the
        64-query cap on cross-query reuse;
        ``plan_options={"query_index": False}`` restores the greedy
        scans (identical results, more driver-side distance calls).
        Every query's merged result is bit-identical to running that
        query alone through :meth:`top_k`.  ``plan_options`` overrides
        the engine-level planner knobs for this call.

        ``registry`` optionally passes a
        :class:`~repro.cluster.service.HotQueryRegistry` persisting
        exact final results *across* batches (the serving layer
        threads one through every micro-batch): recurring and
        near-duplicate queries are seeded with certified thresholds
        and exact results are stored back.
        """
        self._require_built("batch queries")
        start = time.perf_counter()
        options = {**self.plan_options,
                   **self._validate_plan_options(plan_options)}
        kwargs_list = [
            self._inject_kernels(self._query_kwargs_for(query),
                                 options=options)
            for query in queries]
        planner = BatchQueryPlanner(
            self.context.engine,
            wave_size=options.get("wave_size"),
            probe_cache=self.context.probe_cache,
            query_distance=self._query_distance_fn(),
            share_eps=options.get("share_eps"),
            share_distance=self._share_distance_fn(),
            sampled_bound=self._sampled_bound_fn(),
            sample_size=options.get("sample_size"),
            registry=registry,
            query_index=options.get("query_index", True))
        results, wave_timings, report = planner.execute_batch(
            self._parts, queries, k, kwargs_list,
            make_task=lambda rp, group, kws, shares: _LocalMultiTopKTask(
                rp, group, k, kws, share_groups=shares),
            hints=self._workload_hints(
                self.num_partitions,
                queries_per_task=max(len(queries), 1)))
        self.context.record_timings(wave_timings)
        wall = time.perf_counter() - start
        schedule = simulate_schedule_waves(wave_timings, self.cluster_spec)
        return BatchOutcome(results=results, wall_seconds=wall,
                            simulated_seconds=schedule.makespan,
                            plan=report, schedule=schedule,
                            complete=report.complete,
                            exact=[plan.exact for plan in report.per_query],
                            failed_partitions=[list(plan.failed_partitions)
                                               for plan in report.per_query])

    def range_query(self, query: Trajectory, radius: float,
                    **query_kwargs) -> QueryOutcome:
        """Distributed range search: every trajectory within ``radius``.

        Supported when the local index exposes ``range_query`` (the
        RP-Trie adapter does; the baselines are top-k only).  Per-query
        driver state (:meth:`_query_kwargs_for`) is shared with every
        partition, as in :meth:`top_k`.  The planner's probe phase
        skips partitions whose first-level bound already exceeds the
        radius; the radius being a fixed threshold, nothing propagates
        between waves.
        """
        self._require_built("range_query()")
        start = time.perf_counter()
        kwargs = self._inject_kernels(
            {**self._query_kwargs_for(query, query_kwargs),
             **query_kwargs})
        partials, wave_timings, report = self._planner().execute_range(
            self._parts, query, radius, kwargs,
            make_task=lambda rp, kw: _LocalRangeTask(rp, query, radius, kw),
            hints=self._workload_hints(self.num_partitions))
        result = merge_range(partials)
        result.stats.waves = len(report.waves)
        result.stats.partitions_skipped = report.partitions_skipped
        return self._outcome(result, wave_timings, report, start)

    def index_bytes(self) -> int:
        if self.build_report is None:
            raise IndexNotBuiltError("call build() first")
        return self.build_report.index_bytes

    def local_indexes(self) -> list[object]:
        """The per-partition local index objects, in partition order."""
        self._require_built("local_indexes()")
        return [rp.index for rp in self._parts]

    def insert(self, traj: Trajectory) -> None:
        """Route a new trajectory to the smallest partition and insert.

        Requires the local index to support incremental ``insert``
        (the RP-Trie adapter does).  Subsequent queries see the new
        trajectory; the build report's partition sizes are updated.
        """
        self._require_built("insert()")
        sizes = self.build_report.partition_sizes
        target = min(range(len(sizes)), key=lambda pid: sizes[pid])
        rp = self._parts[target]
        rp.index.insert(traj)
        rp.trajectories.append(traj)
        sizes[target] += 1
        # The mutated partition's bounds changed: memoized probes for
        # every in-flight fingerprint are stale.
        self.context.probe_cache.bump_epoch()

    def serve(self, **service_options):
        """An always-on async micro-batching service over this engine.

        Returns an (unstarted)
        :class:`~repro.cluster.service.ReposeService`; keyword options
        (``max_wait_ms``, ``max_batch``, ``plan_options``,
        ``dispatch``, registry knobs, ...) are forwarded to its
        constructor.  Requires a built index.  Use it from an event
        loop::

            service = engine.serve(max_wait_ms=2.0, max_batch=16)
            outcome = await service.top_k(query, k=10)
            await service.stop()
        """
        # Imported lazily: repro.cluster.service imports this module
        # for QueryOutcome, so a top-level import would be circular.
        from .cluster.service import ReposeService
        self._require_built("serve()")
        return ReposeService(self, **service_options)


class Repose(DistributedTopK):
    """The REPOSE framework (paper, Sections III-V).

    Use :meth:`Repose.build` to construct a ready-to-query engine::

        engine = Repose.build(dataset, measure="hausdorff", delta=0.15)
        outcome = engine.top_k(query, k=100)
    """

    def __init__(self, dataset: TrajectoryDataset, measure: Measure,
                 grid: Grid, **kwargs):
        self.measure = measure
        self.grid = grid
        self._pivot_box: list = [kwargs.pop("pivots", [])]
        optimized = kwargs.pop("optimized", True)
        num_pivots = kwargs.pop("num_pivots", 5)
        succinct = kwargs.pop("succinct", False)
        search_options = kwargs.pop("search_options", None)

        # functools.partial over a module-level function (not a
        # closure) keeps the factory picklable for the process
        # execution backend; the pivot box keeps the binding live.
        factory = functools.partial(
            _make_rptrie_index, grid, measure, optimized, num_pivots,
            succinct, search_options, self._pivot_box)
        kwargs.setdefault("measure_hint", measure.name)
        super().__init__(dataset, factory, **kwargs)

    @property
    def pivots(self) -> list[Trajectory]:
        """Global pivot trajectories shared with every partition."""
        return self._pivot_box[0]

    @pivots.setter
    def pivots(self, value: list[Trajectory]) -> None:
        self._pivot_box[0] = value

    def _query_kwargs_for(self, query: Trajectory,
                          provided: dict | None = None) -> dict:
        """Driver computes the query-pivot distances once (pivots are
        global) and shares them with every partition's local search
        (paper, Section IV-D).  Routing this through the base class hook
        covers single queries, scheduled batches and range queries, so
        no partition ever recomputes ``dqp``.  A caller-supplied ``dqp``
        is respected without recomputation."""
        if (self.pivots and self.measure.is_metric
                and not (provided and "dqp" in provided)):
            return {"dqp": np.array(
                [self.measure.distance(query, p) for p in self.pivots])}
        return {}

    def _query_distance_fn(self) -> Callable | None:
        """Metric measures certify cross-query threshold reuse: the k
        results query ``i`` holds lie within ``dk_i + d(q_i, q_j)`` of
        query ``j`` by the triangle inequality, so that sum soundly
        upper-bounds ``j``'s final k-th best.  Non-metric measures
        (DTW/EDR/LCSS) return None — they couple through the sampled
        bound (:meth:`_sampled_bound_fn`) instead."""
        if self.measure.is_metric:
            return self.measure.distance
        return None

    def _share_distance_fn(self) -> Callable:
        """Near-duplicate clustering distance: always the measure's own
        distance — clustering needs similarity under the *query*
        measure, not a metric (the planner restores soundness of the
        adopted plans per measure)."""
        return self.measure.distance

    def _sampled_bound_fn(self) -> Callable | None:
        """Sampled cross-query bound for the non-metric measures: a
        banded (warp-window / eps-shift) upper bound on the measure's
        distance (:func:`repro.distances.batch.banded_upper_bound`),
        evaluated driver-side against a small shared candidate sample.
        Metric measures return None — the triangle coupling of
        :meth:`_query_distance_fn` is stronger and cheaper there."""
        if self.measure.is_metric:
            return None
        return functools.partial(banded_upper_bound, self.measure)

    @classmethod
    def build(cls, dataset: TrajectoryDataset,  # type: ignore[override]
              measure: Measure | str = "hausdorff",
              delta: float | None = None, num_partitions: int = 64,
              strategy: str | Callable = "heterogeneous",
              optimized: bool = True, num_pivots: int = 5,
              succinct: bool = False,
              cluster_spec: ClusterSpec | None = None,
              engine: ExecutionEngine | str | None = None,
              search_options: dict | None = None,
              kernels: str | None = None,
              plan_options: dict | None = None,
              fault_policy: FaultPolicy | None = None,
              pivot_sample: int = 500, seed: int = 7,
              service: dict | bool | None = None) -> "Repose":
        """Construct and build a REPOSE engine in one call.

        ``delta`` defaults to 1/128 of the dataset's smaller span.
        Global pivots are selected once, driver-side, from a sample of
        ``pivot_sample`` trajectories, then shared by every partition.

        Parameters worth calling out:

        plan_options:
            Planner knobs (queries always run through the two-phase
            planner: probe partitions, dispatch by promise in waves,
            broadcast the tightening global ``dk``).
            ``plan_options={"wave_size": n}`` controls partitions per
            wave;
            ``plan_options={"share_eps": eps}`` additionally lets
            :meth:`top_k_batch` share probe/wave plans and leaf
            tensors between near-duplicate batch queries, and
            ``{"sample_size": n}`` sizes the sampled non-metric
            cross-query bound (0 disables).
        engine:
            Execution backend for per-partition work.  Accepts an
            :class:`~repro.cluster.engine.ExecutionEngine` or a backend
            name; ``engine="auto"`` lets a small cost model pick
            serial/thread/process per dispatch from the measure,
            partition size and batch width (results are identical
            under every backend — only placement changes).  Default:
            serial, the deterministic choice.
        fault_policy:
            Optional :class:`~repro.cluster.engine.FaultPolicy`
            making partition tasks retry with backoff, time out
            against the calibrated cost model and optionally
            speculate; queries then degrade to flagged partial results
            instead of raising when a partition exhausts every retry.
        search_options:
            Per-partition search keyword arguments, forwarded to
            :func:`~repro.core.search.local_search`.  The most useful
            key is ``batch_refine`` (default True): refine leaf
            candidates through the vectorized batch engine
            (:mod:`repro.distances.batch` — batched screens, banded
            upper-bound DPs and batched exact DPs) instead of one
            trajectory at a time.  Both settings return bit-identical
            results; ``batch_refine=False`` exists for the exactness
            property tests and like-for-like benchmarks.  The ablation
            switches ``use_pivots``/``use_lbt``/``use_lbo`` are also
            accepted.
        kernels:
            DP kernel backend for the batch refinement engine
            (:mod:`repro.distances.kernels`): ``"numpy"`` (the
            always-available vectorized sweeps), ``"cnative"`` (the
            compiled tier), or ``"auto"``/None (the
            fastest available; the ``REPRO_KERNELS`` environment
            variable overrides the auto choice).  Requesting an
            unavailable backend raises at build time.  Backends never
            change results — the compiled kernels are bit-identical to
            the numpy sweeps — only throughput; the resolved name is
            also forwarded to the ``"auto"`` engine's cost model,
            which keys calibrated rates by measure+backend.
        service:
            Attach an always-on serving front-end
            (:class:`~repro.cluster.service.ReposeService`) to the
            built engine as ``engine.service``: ``True`` with
            defaults, or a dict of service constructor options
            (``max_wait_ms``, ``max_batch``, ``dispatch``, ...).  The
            service is created unstarted — start it from an event
            loop (``await engine.service.start()`` or ``async with``).
        """
        measure_obj = get_measure(measure) if isinstance(measure, str) else measure
        box = dataset.bounding_box()
        if delta is None:
            delta = max(min(box.width, box.height) / 128.0, 1e-9)
        grid = Grid.fit(box, delta)

        pivots: list[Trajectory] = []
        if measure_obj.is_metric and num_pivots > 0 and len(dataset) > 0:
            rng = np.random.default_rng(seed)
            size = min(pivot_sample, len(dataset))
            index = rng.choice(len(dataset.trajectories), size=size,
                               replace=False)
            sample = [dataset.trajectories[int(i)] for i in index]
            pivots = select_pivots(sample, measure_obj,
                                   num_pivots=num_pivots, rng=rng)

        if kernels is not None:
            search_options = {**(search_options or {}), "kernels": kernels}
        # Resolve the backend batch refinement will actually run with
        # (fails fast on an unavailable explicit request) so the
        # "auto" engine's cost model keys its rates by it.
        kernels_hint = None
        if (search_options or {}).get("batch_refine", True):
            kernels_hint = resolve_backend(
                (search_options or {}).get("kernels"))

        engine_obj = cls(dataset, measure_obj, grid,
                         pivots=pivots, optimized=optimized,
                         num_pivots=num_pivots, succinct=succinct,
                         strategy=strategy, num_partitions=num_partitions,
                         cluster_spec=cluster_spec, engine=engine,
                         search_options=search_options,
                         kernels_hint=kernels_hint,
                         plan_options=plan_options,
                         fault_policy=fault_policy)
        DistributedTopK.build(engine_obj)
        if service:
            engine_obj.service = engine_obj.serve(
                **(service if isinstance(service, dict) else {}))
        return engine_obj


def make_baseline(name: str, dataset: TrajectoryDataset,
                  measure: Measure | str, num_partitions: int = 64,
                  strategy: str | Callable = "homogeneous",
                  cluster_spec: ClusterSpec | None = None,
                  engine: ExecutionEngine | str | None = None,
                  **index_kwargs) -> DistributedTopK:
    """Distributed engine for a baseline: "dft", "dita" or "ls".

    Baselines default to the homogeneous partitioning the original
    systems use; pass ``strategy="heterogeneous"`` for the Heter-DITA /
    Heter-DFT variants of Tables VIII and IX.  LS defaults to random
    partitioning (it has no locality to exploit).
    """
    from .baselines.dft import DFTIndex
    from .baselines.dita import DITAIndex
    from .baselines.linear import LinearScanIndex

    measure_obj = get_measure(measure) if isinstance(measure, str) else measure
    key = name.strip().lower()
    if key == "dft":
        factory = functools.partial(DFTIndex, measure_obj, **index_kwargs)
    elif key == "dita":
        factory = functools.partial(DITAIndex, measure_obj, **index_kwargs)
    elif key in ("ls", "linear"):
        factory = functools.partial(LinearScanIndex, measure_obj,
                                    **index_kwargs)
        if strategy == "homogeneous":
            strategy = "random"
    else:
        raise ValueError(f"unknown baseline {name!r} (use dft, dita or ls)")
    return DistributedTopK(dataset, factory, strategy=strategy,
                           num_partitions=num_partitions,
                           cluster_spec=cluster_spec, engine=engine,
                           measure_hint=measure_obj.name)
