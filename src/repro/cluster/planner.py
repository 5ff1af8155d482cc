"""Two-phase query planner with cross-partition threshold propagation.

The paper's driver runs one monolithic map-then-merge: every partition
computes its local top-k to full precision and the master merges the
collected lists (Section V-C).  A partition holding none of the global
top-k still refines k candidates exactly, and no partition ever
benefits from another's k-th-best distance.  This module replaces that
one-shot fan-out with a coordinated two-phase plan:

1. **Probe phase** — every partition is asked for its root/first-level
   RP-Trie lower bounds (:func:`repro.core.search.probe_search`): a
   near-free, refinement-free summary giving a sound lower bound on
   the distance from the query to *everything* the partition holds,
   plus an LB-only candidate estimate.
2. **Wave phase** — partitions are ordered by estimated promise
   (ascending probe bound) and dispatched in configurable waves
   through :meth:`repro.cluster.engine.ExecutionEngine.run_waves`.
   After each wave the driver folds the partials into a running
   global :class:`~repro.cluster.driver.RunningTopK` and *broadcasts
   the tightened k-th best distance* ``dk`` into the next wave's
   ``local_search`` calls, where it seeds the result heap, the trie
   pruning, the banded screens and the batch refinement threshold.
   Partitions whose probe bound already exceeds the running ``dk``
   are skipped outright — their every trajectory is provably out.

Threshold propagation only ever prunes work: the broadcast ``dk`` is
applied strictly (candidates tied with it survive, matching the driver
merge's (distance, tid) tie-breaks) and is only finite once k global
results exist, so waved execution is **bit-identical** to one unpruned
wave over every partition — property-tested for every measure in
``tests/test_planner.py``, against a brute-force oracle.  Range queries ride the same machinery with
the fixed radius in place of a tightening ``dk`` (no broadcasts, but
probe-phase partition skipping applies unchanged).

The probe phase also feeds the *scheduler*: within each wave, tasks are
submitted heaviest-estimated-work first
(:func:`repro.cluster.scheduler.lpt_order` over
:meth:`QueryPlanner.task_weight`), so FIFO core placement packs light
partitions around the heavy ones instead of letting a straggler
stretch the wave barrier.  Probes are memoizable across repeated
queries through a driver-owned
:class:`~repro.cluster.rdd.ProbeCache`, and the multi-query batch
variant of this planner lives in :mod:`repro.cluster.batch` — whose
own driver-side scans over *queries* (share clustering, cross-query
tightening, registry neighbor lookups) run against the metric index
in :mod:`repro.cluster.query_index`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core.search import PartitionProbe, SearchStats, TopKResult
from .driver import RunningTopK, merge_stats
from .engine import ExecutionEngine, TaskTiming, WorkloadHints
from .scheduler import lpt_order

__all__ = ["WaveReport", "PlanReport", "QueryPlanner"]

#: Default number of waves a plan is cut into when no explicit
#: ``wave_size`` is configured: enough feedback rounds for the
#: threshold to bite, few enough that barrier overhead stays small.
DEFAULT_WAVES = 4

#: Floor on the default wave size.  Every wave is a synchronization
#: barrier, so cutting a handful of partitions into many tiny waves
#: serializes the cluster for negligible propagation benefit; below
#: this many partitions per wave the default plan degenerates to one
#: probe-ordered wave (explicit ``wave_size`` overrides the floor).
MIN_WAVE_SIZE = 8

#: Planner-level re-dispatches per failed partition.  The engine's
#: :class:`~repro.cluster.engine.FaultPolicy` already retried each
#: dispatch; the planner re-enqueues a failed partition into a later
#: wave this many times (where a tightened ``dk`` may even skip it
#: outright) before reporting it in ``failed_partitions``.
PLANNER_REDISPATCHES = 1


@dataclass
class WaveReport:
    """What one dispatched wave did (per-wave planner statistics)."""

    #: Zero-based wave number.
    index: int
    #: Partition ids dispatched in this wave, in dispatch order:
    #: heaviest estimated work first (LPT), so FIFO placement never
    #: leaves the wave's longest task straggling at the barrier.
    partitions: list[int] = field(default_factory=list)
    #: Partition ids skipped because their probe bound exceeded the
    #: running global ``dk`` — every trajectory in them is provably out.
    skipped: list[int] = field(default_factory=list)
    #: Global k-th best distance broadcast into this wave (inf for the
    #: first wave / an unfilled heap).
    dk_before: float = float("inf")
    #: Global k-th best after folding this wave's results.
    dk_after: float = float("inf")
    #: Trie nodes pruned inside this wave's local searches.
    nodes_pruned: int = 0
    #: Exact evaluations paid inside this wave's local searches.
    exact_refinements: int = 0
    #: Partition ids whose task failed terminally in this wave (they
    #: are re-enqueued into a later wave, or reported on the plan's
    #: ``failed_partitions`` once the planner budget runs out too).
    failed: list[int] = field(default_factory=list)


@dataclass
class PlanReport:
    """One executed query plan, wave by wave.

    Attached to :class:`repro.repose.QueryOutcome` so experiments can
    report how much work threshold propagation saved (skipped
    partitions, per-wave pruned-node and exact-refinement counts)
    alongside the usual timing numbers.
    """

    #: ``"waves"`` (this planner) or ``"batch-waves"`` (one query of a
    #: batch plan, see :mod:`repro.cluster.batch`).
    mode: str
    #: Partitions per wave the plan was cut into.
    wave_size: int
    #: Dispatch order (partition ids, most promising first).
    order: list[int] = field(default_factory=list)
    #: Per-partition probe bounds, indexed by partition id.
    probe_bounds: list[float] = field(default_factory=list)
    #: Driver-side seconds spent in the probe phase.
    probe_seconds: float = 0.0
    #: Per-wave execution reports.
    waves: list[WaveReport] = field(default_factory=list)
    #: Number of waves that received a finite broadcast threshold.
    threshold_broadcasts: int = 0
    #: Probe-cache lookups served / computed during this plan's probe
    #: phase (both zero when no cache is configured).
    probe_cache_hits: int = 0
    probe_cache_misses: int = 0
    #: Engine-level task re-dispatches consumed across the plan.
    retries: int = 0
    #: Task attempts abandoned at the per-task deadline.
    timeouts: int = 0
    #: Tasks whose speculative duplicate beat the original straggler.
    speculative_wins: int = 0
    #: Partitions that exhausted every retry (engine and planner level)
    #: and contributed nothing to the result.
    failed_partitions: list[int] = field(default_factory=list)
    #: Exactness verdict: True when the result provably equals the
    #: fault-free answer — vacuously so with no failed partitions, and
    #: otherwise because every failed partition's probe lower bound
    #: strictly exceeds the final threshold (``dk`` for top-k, the
    #: radius for range), so nothing it holds could have placed.
    exact: bool = True

    @property
    def partitions_skipped(self) -> int:
        """Partitions never searched because their probe bound proved
        every trajectory they hold is outside the global top-k."""
        return sum(len(w.skipped) for w in self.waves)

    @property
    def complete(self) -> bool:
        """True when every dispatched partition produced a result."""
        return not self.failed_partitions


class QueryPlanner:
    """Probe, order and dispatch partitions in threshold-coupled waves.

    The planner is index-agnostic: it drives opaque per-partition
    records through caller-supplied task factories, discovering the two
    optional capabilities by duck typing —

    * a ``probe(query, dqp=...)`` method on the local index (returning
      a :class:`~repro.core.search.PartitionProbe`) enables promise
      ordering and probe-bound partition skipping;
    * a truthy ``supports_threshold`` attribute enables the ``dk``
      broadcast into the index's ``top_k``.

    Indexes with neither (the DFT/DITA/LS baselines) still execute
    correctly — they are simply dispatched in id order with no
    propagation, degenerating to a barriered single-shot plan.

    Parameters
    ----------
    engine:
        The :class:`~repro.cluster.engine.ExecutionEngine` whose
        persistent pools run every wave.
    wave_size:
        Partitions per wave; ``None`` cuts the plan into
        :data:`DEFAULT_WAVES` equal waves.  ``wave_size >= partitions``
        degenerates to single-shot dispatch (still probe-ordered).
    probe_cache:
        Optional :class:`~repro.cluster.rdd.ProbeCache`.  When given,
        :meth:`probe` serves repeated (query, partition) probes from it
        instead of recomputing — the cache is epoch-invalidated by the
        driver whenever indexes change, so a served probe is always the
        one that would have been computed.
    """

    def __init__(self, engine: ExecutionEngine,
                 wave_size: int | None = None,
                 probe_cache=None):
        self.engine = engine
        self.wave_size = wave_size
        self.probe_cache = probe_cache

    # -- phase 1: probe ------------------------------------------------------

    def probe(self, parts: Sequence, query, kwargs: dict,
              ) -> list[PartitionProbe | None]:
        """Collect every partition's first-level probe, driver-side.

        The probe is orders of magnitude cheaper than a search (no
        leaf refinement, no distance computations beyond the shared
        query-pivot distances already in ``kwargs``), so it runs
        serially on the driver — the same place the paper computes
        ``dqp`` — rather than paying a dispatch round-trip.  With a
        :attr:`probe_cache`, a query fingerprinted identically to an
        earlier one (same points, same ``dqp``) reuses that query's
        probes outright.
        """
        probe_kwargs = ({"dqp": kwargs["dqp"]} if "dqp" in kwargs else {})
        cache = self.probe_cache
        fingerprint = (cache.fingerprint(query, probe_kwargs.get("dqp"))
                       if cache is not None else None)
        probes: list[PartitionProbe | None] = []
        for pid, rp in enumerate(parts):
            probe_fn = getattr(rp.index, "probe", None)
            if probe_fn is None:
                probes.append(None)
                continue
            probe = (cache.get(pid, fingerprint)
                     if fingerprint is not None else None)
            if probe is None:
                probe = probe_fn(query, **probe_kwargs)
                if fingerprint is not None:
                    cache.put(pid, fingerprint, probe)
            probes.append(probe)
        return probes

    @staticmethod
    def task_weight(probe: PartitionProbe | None, dk: float) -> float:
        """Estimated work of searching one partition under ``dk``.

        The probe's first-level bounds say how many of the partition's
        subtrees a search seeded with ``dk`` could still be forced to
        descend into; scaling the partition's trajectory count by that
        live fraction estimates the candidates the task will touch.
        Probe-less partitions weigh 0 (no information — they sort after
        every estimated task, keeping dispatch deterministic).  Weights
        only order dispatch within a wave; they never affect results.
        """
        if probe is None or not probe.child_bounds:
            return 0.0
        live = probe.estimated_candidates(dk)
        return probe.trajectories * live / len(probe.child_bounds)

    def plan_order(self, probes: Sequence[PartitionProbe | None],
                   ) -> list[int]:
        """Partition dispatch order: ascending probe bound, then id.

        Promising partitions (small lower bounds) go first so the
        running global ``dk`` tightens as early as possible; the id
        tie-break keeps plans deterministic.  Partitions without a
        probe sort as bound 0 — never skippable, maximally early —
        which is the conservative choice for unknown indexes.
        """
        keyed = [(p.bound if p is not None else 0.0, pid)
                 for pid, p in enumerate(probes)]
        return [pid for _, pid in sorted(keyed)]

    def plan_waves(self, order: list[int]) -> list[list[int]]:
        """Cut the dispatch order into waves of ``wave_size``."""
        if not order:
            return []
        size = self.wave_size
        if size is None:
            size = max(MIN_WAVE_SIZE,
                       math.ceil(len(order) / DEFAULT_WAVES))
        size = max(1, int(size))
        return [order[lo:lo + size] for lo in range(0, len(order), size)]

    # -- phase 2: waves ------------------------------------------------------

    def _prepare_plan(self, parts: Sequence, query, kwargs: dict,
                      ) -> tuple[list[PartitionProbe | None],
                                 list[list[int]], PlanReport]:
        """Shared phase-1 setup: probe, order, cut waves, open report."""
        start = time.perf_counter()
        before = self.cache_counters()
        probes = self.probe(parts, query, kwargs)
        hits, misses = self.cache_delta(before)
        report = PlanReport(
            mode="waves",
            wave_size=0,
            order=self.plan_order(probes),
            probe_bounds=[p.bound if p is not None else 0.0
                          for p in probes],
            probe_seconds=time.perf_counter() - start,
            probe_cache_hits=hits,
            probe_cache_misses=misses,
        )
        waves = self.plan_waves(report.order)
        report.wave_size = len(waves[0]) if waves else 0
        return probes, waves, report

    def cache_counters(self) -> tuple[int, int]:
        """Probe-cache ``(hits, misses)`` snapshot ((0, 0) uncached)."""
        if self.probe_cache is None:
            return (0, 0)
        return self.probe_cache.counters()

    def cache_delta(self, before: tuple[int, int]) -> tuple[int, int]:
        """Cache activity since a :meth:`cache_counters` snapshot."""
        hits, misses = self.cache_counters()
        return hits - before[0], misses - before[1]

    def execute_top_k(self, parts: Sequence, query, k: int, kwargs: dict,
                      make_task: Callable[[object, dict], Callable],
                      hints: WorkloadHints | None = None,
                      ) -> tuple[TopKResult, list[list[TaskTiming]],
                                 PlanReport]:
        """Run one distributed top-k query as a two-phase wave plan.

        ``make_task(rp, task_kwargs)`` builds the engine task for one
        partition record; the planner owns which partitions run, in
        which wave, and with which extra ``dk`` kwarg.  Returns the
        merged global result (bit-identical to single-shot execution
        whenever ``report.complete``), the per-wave task timings for
        barrier-aware makespan simulation, and the :class:`PlanReport`.

        Failed tasks never raise here: a partition whose dispatch
        failed terminally (its engine-level retries exhausted) is
        re-enqueued into a later wave up to
        :data:`PLANNER_REDISPATCHES` times — where the by-then tighter
        ``dk`` may even skip it soundly — and only then lands on
        ``report.failed_partitions``, flagging the result best-effort
        unless the exactness verdict proves otherwise.
        """
        probes, waves, report = self._prepare_plan(parts, query, kwargs)
        merge = RunningTopK(k)
        retry_queue: list[int] = []
        redispatches: dict[int, int] = {}

        def wave_tasks():
            """Lazily build each wave against the freshest global dk,
            appending re-dispatch waves for failed partitions."""
            planned = iter(waves)
            index = 0
            while True:
                wave = next(planned, None)
                if wave is None:
                    if not retry_queue:
                        return
                    wave = list(retry_queue)
                    retry_queue.clear()
                dk = merge.dk
                wave_report = WaveReport(index=index, dk_before=dk)
                report.waves.append(wave_report)
                dispatch = []
                for pid in wave:
                    probe = probes[pid]
                    if probe is not None and probe.bound > dk:
                        # Sound skip: probe.bound lower-bounds every
                        # trajectory here, and dk certifies k global
                        # results at or below it already exist.  Ties
                        # are dispatched (strict >) to preserve the
                        # merge's tid tie-breaking bit-for-bit.
                        wave_report.skipped.append(pid)
                        continue
                    dispatch.append(pid)
                # The probe also feeds the scheduler: submit the wave's
                # heaviest-looking partitions first so FIFO placement
                # packs light tasks around them (LPT) instead of letting
                # a straggler stretch the wave barrier.
                weights = [self.task_weight(probes[pid], dk)
                           for pid in dispatch]
                tasks = []
                broadcast = False
                for rank in lpt_order(weights):
                    pid = dispatch[rank]
                    task_kwargs = kwargs
                    if (math.isfinite(dk)
                            and getattr(parts[pid].index,
                                        "supports_threshold", False)):
                        # A caller-supplied dk stays in force when it
                        # is the tighter of the two.
                        task_kwargs = {
                            **kwargs,
                            "dk": min(dk, kwargs.get("dk", float("inf"))),
                        }
                        broadcast = True
                    wave_report.partitions.append(pid)
                    tasks.append(make_task(parts[pid], task_kwargs))
                if broadcast:
                    report.threshold_broadcasts += 1
                yield tasks
                index += 1

        def fold_wave(index: int, outcomes: list,
                      timings: list[TaskTiming]) -> None:
            wave_report = report.waves[index]
            results = self._fold_outcomes(
                wave_report, outcomes, report, retry_queue, redispatches)
            merge.fold(results)
            wave_report.dk_after = merge.dk
            wave_stats = merge_stats(r.stats for r in results)
            wave_report.nodes_pruned = wave_stats.nodes_pruned
            wave_report.exact_refinements = wave_stats.exact_refinements

        _, wave_timings = self.engine.run_waves(
            wave_tasks(), hints=hints, on_wave=fold_wave)

        result = merge.result()
        report.exact = self._exactness(report.failed_partitions, probes,
                                       merge.dk)
        self._finalize_stats(result.stats, report)
        return result, wave_timings, report

    def execute_range(self, parts: Sequence, query, radius: float,
                      kwargs: dict,
                      make_task: Callable[[object, dict], Callable],
                      hints: WorkloadHints | None = None,
                      ) -> tuple[list[TopKResult], list[list[TaskTiming]],
                                 PlanReport]:
        """Run one distributed range query as a probed wave plan.

        The radius is a fixed threshold, so there is nothing to
        propagate between waves — but the probe phase still skips every
        partition whose first-level bound exceeds the radius without
        searching it, and dispatch stays wave-structured so range and
        top-k share one execution (and accounting) path.  Returns the
        per-partition partials in dispatch order (the driver's
        ``merge_range`` is order-insensitive), per-wave timings and the
        report.
        """
        probes, waves, report = self._prepare_plan(parts, query, kwargs)
        partials: list[TopKResult] = []
        retry_queue: list[int] = []
        redispatches: dict[int, int] = {}

        def wave_tasks():
            planned = iter(waves)
            index = 0
            while True:
                wave = next(planned, None)
                if wave is None:
                    if not retry_queue:
                        return
                    wave = list(retry_queue)
                    retry_queue.clear()
                wave_report = WaveReport(index=index, dk_before=radius,
                                         dk_after=radius)
                report.waves.append(wave_report)
                dispatch = []
                for pid in wave:
                    probe = probes[pid]
                    if probe is not None and probe.bound > radius:
                        wave_report.skipped.append(pid)
                        continue
                    dispatch.append(pid)
                weights = [self.task_weight(probes[pid], radius)
                           for pid in dispatch]
                tasks = []
                for rank in lpt_order(weights):
                    pid = dispatch[rank]
                    wave_report.partitions.append(pid)
                    tasks.append(make_task(parts[pid], kwargs))
                yield tasks
                index += 1

        def fold_wave(index: int, outcomes: list,
                      timings: list[TaskTiming]) -> None:
            wave_report = report.waves[index]
            results = self._fold_outcomes(
                wave_report, outcomes, report, retry_queue, redispatches)
            partials.extend(results)
            wave_stats = merge_stats(r.stats for r in results)
            wave_report.nodes_pruned = wave_stats.nodes_pruned
            wave_report.exact_refinements = wave_stats.exact_refinements

        _, wave_timings = self.engine.run_waves(
            wave_tasks(), hints=hints, on_wave=fold_wave)
        report.exact = self._exactness(report.failed_partitions, probes,
                                       radius)
        return partials, wave_timings, report

    @staticmethod
    def _fold_outcomes(wave_report: WaveReport, outcomes: list,
                       report: PlanReport, retry_queue: list[int],
                       redispatches: dict[int, int]) -> list:
        """Split one wave's outcomes into results and failures.

        Successful results are returned for folding; each failed
        partition either re-enters ``retry_queue`` (within the
        :data:`PLANNER_REDISPATCHES` budget) or is recorded terminally
        on ``report.failed_partitions``.  Engine-level fault counters
        are aggregated onto the report either way.
        """
        results = []
        for pid, outcome in zip(wave_report.partitions, outcomes):
            report.retries += outcome.retries
            report.timeouts += outcome.timeouts
            report.speculative_wins += int(outcome.speculative_win)
            if outcome.ok:
                results.append(outcome.result)
                continue
            wave_report.failed.append(pid)
            attempts = redispatches.get(pid, 0) + 1
            redispatches[pid] = attempts
            if attempts <= PLANNER_REDISPATCHES:
                retry_queue.append(pid)
            else:
                report.failed_partitions.append(pid)
        return results

    @staticmethod
    def _exactness(failed: list[int],
                   probes: Sequence[PartitionProbe | None],
                   threshold: float) -> bool:
        """Whether a degraded result is still provably exact.

        True iff every failed partition's probe lower bound *strictly*
        exceeds ``threshold`` (the final ``dk`` for top-k, the radius
        for range): nothing the partition holds could have entered the
        answer, so losing it lost nothing.  Strict comparison because a
        tie at ``dk`` could still displace a kept item via the
        (distance, tid) tie-break; probe-less partitions are never
        provable.  Vacuously True with no failures.
        """
        for pid in failed:
            probe = probes[pid]
            if probe is None or not probe.bound > threshold:
                return False
        return True

    @staticmethod
    def _finalize_stats(stats: SearchStats, report: PlanReport) -> None:
        """Copy driver-level plan counters onto the merged stats."""
        stats.waves = len(report.waves)
        stats.threshold_broadcasts = report.threshold_broadcasts
        stats.partitions_skipped = report.partitions_skipped
        stats.retries = report.retries
        stats.timeouts = report.timeouts
        stats.speculative_wins = report.speculative_wins
