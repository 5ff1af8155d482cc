"""Multi-query batch planner: shared probes, partition-affinity
dispatch, and cross-query threshold reuse.

The single-query planner (:mod:`repro.cluster.planner`) already turned
one query's fan-out into a probe-then-waves feedback loop.  A
production service, though, receives *streams* of concurrent queries,
and running each one as its own wave plan dispatches
``queries x partitions`` tasks and lets no query benefit from another's
work.  This module plans a whole batch at once:

1. **Shared probe pass.**  Every (query, partition) pair is probed once
   — through the driver's epoch-invalidated
   :class:`~repro.cluster.rdd.ProbeCache`, so repeated queries across
   consecutive batches pay nothing — producing per-query promise
   orders and wave cuts exactly as the single-query planner would.
2. **Partition-affinity dispatch.**  Within each wave, queries bound
   for the same partition are *grouped*: one dispatched task searches
   one partition for the whole group through the multi-query entry
   point (:func:`repro.core.search.local_search_multi`), which shares
   one columnar gather per leaf and the store's per-measure caches
   across the group.  Skewed workloads — many queries hot on the same
   partitions — collapse to one task per (wave, partition) instead of
   one per (query, partition).  Each wave's tasks are submitted
   heaviest-estimated-group first
   (:func:`repro.cluster.scheduler.lpt_order`), so FIFO placement
   never leaves the biggest group straggling at the barrier.
3. **Per-query threshold vector, cross-query reuse.**  Between waves
   the driver folds every task's per-query partials into a
   :class:`~repro.cluster.driver.RunningTopKVector` and broadcasts the
   per-query running ``dk`` vector into the next wave.  For metric
   measures the vector is additionally tightened *across* queries by
   the triangle inequality (query ``j``'s final k-th best cannot
   exceed ``dk_i + d(q_i, q_j)``), so a query that has not yet filled
   its own heap can still skip partitions and seed its searches off a
   neighbour's results.

Fingerprint-identical queries inside a batch — the same trajectory
issued twice in one stream, a common production pattern — are
*deduplicated* outright: one representative executes and its twins
reuse the merged result, which is trivially bit-identical (a search's
answer is a pure function of the query's points and shared kwargs).

**Near-duplicate sharing** (``share_eps``) extends dedup to queries
that are *almost* repeated — jittered re-issues of a hot query, GPS
noise on the same route.  Active queries are greedily clustered into
*share groups* whose pairwise distance to the group representative
stays within ``share_eps``; members skip their own probe pass and
adopt the representative's promise order and wave cut, so the whole
group marches through the same (wave, partition) tasks and its leaf
tensors hit one shared gather store
(:class:`~repro.core.search._SharedGatherStore`, keyed per group so
finished groups can release memory).  Each member is still *searched
and refined exactly* with its own query points, ``dqp`` and
thresholds — sharing reuses plans and read-only tensors, never
answers.  For metric measures the adopted probe bounds are shifted
down by the member-to-representative distance (``d(member, t) >=
d(rep, t) - d(rep, member)``), keeping probe-based partition skipping
sound; for non-metric measures the adopted bounds carry no skipping
power (never wrong, just conservative).

**Sampled cross-query bounds** close the non-metric gap in step 3:
DTW/EDR/LCSS admit no triangle inequality, so instead the driver
takes a small *shared sample* of the best candidates any query has
found so far (:meth:`~repro.cluster.driver.RunningTopKVector
.sample_items`) and evaluates a cheap banded — warp-window for DTW,
eps-shifted edit window for EDR/LCSS — upper bound from each query to
each sample member (:func:`repro.distances.batch.banded_upper_bound`).
The k-th smallest of those values certifies k distinct trajectories
at or under it, so it upper-bounds the query's *final* k-th best with
no metric assumption and is min-folded into the broadcast vector
(:meth:`~repro.cluster.driver.RunningTopKVector.broadcast_vector`).

**The query-side metric index** (:mod:`repro.cluster.query_index`)
carries all of this to production batch widths: share clustering,
cross-query tightening and the registry's neighbor scan each run as
lookups against a VP-tree over the batch's queries — content
fingerprints pre-filter byte-identical queries before any distance
call, a shared pair cache deduplicates evaluations across the three
phases, and :data:`CROSS_QUERY_LIMIT` survives only as each lookup's
fresh-distance-call budget (the historical hard cap on cross-query
reuse is lifted; ``query_index=False`` restores the legacy greedy
scans as a comparison baseline).  Thresholds, clusters and answers are
value-identical wherever the budgets never bind — the index only
removes driver-side distance calls, measured by the
``query_distance_calls`` report counter.

**Cross-batch reuse** extends both mechanisms beyond one batch: a
:class:`~repro.cluster.service.HotQueryRegistry` passed to the planner
persists exact final results keyed by probe fingerprint, so a query
recurring in a *later* batch is seeded with its previous final
threshold, and a near-duplicate of a stored representative with a
triangle or sampled banded bound — the serving layer
(:class:`~repro.cluster.service.ReposeService`) threads one registry
through every micro-batch of a query stream.

Every threshold is applied strictly and upper-bounds the query's final
k-th-best distance, and each query's merge is the single-query merge,
so every per-query answer is **bit-identical** to running that query
alone through :meth:`repro.repose.DistributedTopK.top_k` —
property-tested for all six measures in ``tests/test_batch_planner.py``
and fuzzed across random batch mixes in
``tests/test_fuzz_equivalence.py``, both against a brute-force
oracle.  The batch only removes
work: fewer probes (caching, share-group adoption), fewer dispatched
tasks (grouping, dedup), fewer exact refinements (dedup, and earlier
tighter thresholds).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..core.search import PartitionProbe, SearchStats, TopKResult
from .driver import RunningTopKVector
from .engine import TaskTiming, WorkloadHints
from .planner import (PLANNER_REDISPATCHES, PlanReport, QueryPlanner,
                      WaveReport)
from .query_index import IncrementalSampledBounds, QueryIndex
from .rdd import ProbeCache
from .scheduler import lpt_order

__all__ = ["BatchPlanReport", "BatchQueryPlanner"]

#: Driver-side *distance-call budget* per query-index lookup: share
#: clustering, cross-query tightening and registry neighbor lookups
#: each spend at most this many fresh trajectory-distance evaluations
#: per query (:mod:`repro.cluster.query_index` truncates soundly — a
#: partial lookup only forfeits an optimization, never an answer).
#: Under the legacy greedy scans (``query_index=False``) this is the
#: historical hard cap instead: at most this many share-group
#: representatives are scanned per query, and batches with more
#: distinct queries skip cross-query reuse entirely (the O(B^2)
#: pairwise matrix would cost more than it prunes).  The metric index
#: is what lifted that cap — indexed batches tighten at any width.
CROSS_QUERY_LIMIT = 64

#: Floor on the automatic sampled-bound sample size (the default is
#: ``max(2 * k, SAMPLE_MIN)`` distinct candidates): below this many
#: the k-th smallest upper bound is too loose to prune anything.
SAMPLE_MIN = 8

#: Per-query *fresh distance-call budget* for the hot-query registry's
#: near-duplicate neighbor lookup
#: (:meth:`repro.cluster.service.HotQueryRegistry.neighbors`), keeping
#: the per-miss cost bounded independently of registry capacity.  The
#: indexed lookup reaches *every* live entry — cached and
#: content-identical comparisons are free — where the legacy greedy
#: scan (``query_index=False``) spends the same budget on just the
#: most-recently-used entries.
REGISTRY_SCAN_LIMIT = 8


@dataclass
class BatchPlanReport:
    """One executed multi-query batch plan.

    Aggregates the batch-level counters (task grouping, probe-cache
    effectiveness, share groups, cross-query tightenings) and keeps one
    full single-query-style :class:`~repro.cluster.planner.PlanReport`
    per query, so per-query wave accounting (dispatched/skipped
    partitions, per-wave thresholds, pruned-node and exact-refinement
    counts) stays as inspectable as it is for single queries.
    """

    #: Plan kind tag, ``"batch-waves"`` (shared with every per-query
    #: report, which single queries tag ``"waves"``).
    mode: str = "batch-waves"
    #: Queries in the batch.
    num_queries: int = 0
    #: Partitions per wave each query's plan was cut into.
    wave_size: int = 0
    #: Near-duplicate sharing threshold in force (None: disabled).
    share_eps: float | None = None
    #: Driver-side seconds spent probing (all queries).
    probe_seconds: float = 0.0
    #: Multi-query partition tasks actually dispatched — the number a
    #: per-query plan would inflate to ``sum of per-query dispatches``.
    tasks_dispatched: int = 0
    #: Sum over dispatched tasks of their group width; divided by
    #: :attr:`tasks_dispatched` this is the mean queries-per-task the
    #: grouping achieved (1.0 means no affinity was found).
    grouped_queries: int = 0
    #: Queries whose broadcast threshold was tightened below their own
    #: running ``dk`` by a neighbour's results through the triangle
    #: inequality (summed over waves; metric measures only).
    cross_query_tightenings: int = 0
    #: Driver-side trajectory-distance evaluations between *queries*
    #: (share clustering, cross-query tightening, registry neighbor
    #: lookups) — fresh calls only, so pair-cache and content-identity
    #: hits are free.  The number the metric query index exists to
    #: shrink; counted identically under both modes so indexed and
    #: greedy batches compare directly.
    query_distance_calls: int = 0
    #: Fresh sampled banded-bound evaluations (the non-metric
    #: cross-query DPs), deduplicated per (query, candidate) pair
    #: across waves by :class:`~repro.cluster.query_index
    #: .IncrementalSampledBounds`.
    sampled_bound_calls: int = 0
    #: Queries whose broadcast threshold was tightened below their own
    #: running ``dk`` by the sampled banded bound (summed over waves;
    #: the non-metric counterpart of cross-query tightening).
    sampled_tightenings: int = 0
    #: Queries that were fingerprint-identical to an earlier batch
    #: member and reused its merged result without executing.
    queries_deduplicated: int = 0
    #: Near-duplicate share groups with at least two members.
    share_groups: int = 0
    #: Queries that adopted a share-group representative's probe and
    #: wave plan instead of probing themselves (excludes the
    #: representatives, which plan normally).
    queries_shared: int = 0
    #: Probe-cache lookups served / computed during the batch's probe
    #: pass (share-group members perform no lookups at all).
    probe_cache_hits: int = 0
    probe_cache_misses: int = 0
    #: Queries whose threshold was seeded from a hot-query registry
    #: entry with an identical fingerprint (a recurring query across
    #: batches starting under its previous final ``dk``).
    registry_hits: int = 0
    #: Queries seeded from a stored *near-duplicate* representative —
    #: a registry entry within ``share_eps`` — through the metric
    #: triangle bound or the sampled non-metric banded bound.
    registry_neighbor_seeds: int = 0
    #: Exact, complete per-query results this batch persisted into the
    #: hot-query registry for later batches to seed from.
    registry_stores: int = 0
    #: Per-query plan reports, aligned with the input queries.
    per_query: list[PlanReport] = field(default_factory=list)
    #: Engine-level task re-dispatches consumed across the batch.
    #: Counted once per *task* (a grouped task serves several queries),
    #: so these batch totals are not the sum of any per-query number.
    retries: int = 0
    #: Task attempts abandoned at the per-task deadline.
    timeouts: int = 0
    #: Tasks whose speculative duplicate beat the original straggler.
    speculative_wins: int = 0

    @property
    def complete(self) -> bool:
        """True when no query lost a partition terminally."""
        return all(plan.complete for plan in self.per_query)

    @property
    def partition_queries_dispatched(self) -> int:
        """Total (query, partition) searches executed — the work the
        thresholds could not prove away, however it was grouped."""
        return sum(len(w.partitions) for plan in self.per_query
                   for w in plan.waves)

    @property
    def partitions_skipped(self) -> int:
        """Total (query, partition) searches skipped via probe bounds."""
        return sum(plan.partitions_skipped for plan in self.per_query)


class BatchQueryPlanner(QueryPlanner):
    """Plan and execute a whole query batch in threshold-coupled waves.

    Extends :class:`~repro.cluster.planner.QueryPlanner` (whose probe /
    promise-order / wave-cut primitives are reused per query) with
    partition-affinity task grouping, near-duplicate share groups and
    the per-query threshold vector.  Like its parent it is
    index-agnostic: grouping requires nothing of the index (the
    driver's task factory decides how a group is executed — REPOSE's
    uses ``top_k_multi``, baselines fall back to a per-query loop
    inside the task), probing and threshold seeding remain duck-typed
    capabilities.

    Parameters
    ----------
    engine, wave_size, probe_cache:
        As for :class:`~repro.cluster.planner.QueryPlanner`.
    query_distance:
        Optional metric ``distance(query_a, query_b)`` used for
        cross-query threshold reuse and for shifting share-group
        members' adopted probe bounds.  Pass None (the default) for
        non-metric measures — triangle reuse is then disabled and
        adopted probe bounds never skip.
    share_eps:
        Near-duplicate sharing threshold: active queries within this
        distance of a share-group representative adopt its probe and
        wave plan.  None (the default) disables sharing.
    share_distance:
        ``distance(query_a, query_b)`` used to *cluster* near
        duplicates.  Unlike ``query_distance`` it needs no metric
        property (clustering only shares plans, whose soundness is
        restored separately), so drivers pass the measure's own
        distance for every measure.  Required for ``share_eps`` to
        take effect.
    sampled_bound:
        Optional ``upper_bound(query_points, candidate_points)``
        returning a sound upper bound on the measure's distance (the
        driver passes :func:`repro.distances.batch.banded_upper_bound`
        for the non-metric measures).  Enables sampled cross-query
        tightening of the broadcast vector.
    sample_size:
        Distinct shared-sample candidates the sampled bound evaluates
        per query and wave.  None (the default) auto-sizes to
        ``max(2 * k, SAMPLE_MIN)``; 0 disables the sampled bound;
        positive values below ``k`` are raised to ``k`` (fewer than k
        samples can never certify a k-th-best bound).
    registry:
        Optional :class:`~repro.cluster.service.HotQueryRegistry`
        (duck-typed: ``epoch``, ``get``, ``recent``, ``put``)
        persisting exact final results *across* batches.  Before the
        waves run, each active query is seeded with a certified upper
        bound on its final k-th best — its own stored final threshold
        on an exact fingerprint hit, or a triangle / sampled banded
        bound against a stored near-duplicate representative within
        ``share_eps`` — folded into the broadcast vector from wave 0.
        After the waves, exact complete results are stored back under
        the batch-*start* epoch, so results raced by a concurrent
        index write are dropped rather than served stale.  None (the
        default) disables cross-batch reuse.
    query_index:
        True (the default) routes the three driver-side query scans —
        share clustering, cross-query tightening, registry neighbor
        lookups — through the VP-tree metric index
        (:class:`~repro.cluster.query_index.QueryIndex`), lifting the
        :data:`CROSS_QUERY_LIMIT` batch-width cap on cross-query reuse
        (the constant survives as a per-lookup distance-call budget).
        False restores the legacy greedy scans bit-for-bit — the
        comparison baseline for benchmarks and equivalence tests.
        Either way every per-query answer is identical; the flag only
        moves driver-side distance-call cost.
    """

    def __init__(self, engine, wave_size: int | None = None,
                 probe_cache=None,
                 query_distance: Callable | None = None,
                 share_eps: float | None = None,
                 share_distance: Callable | None = None,
                 sampled_bound: Callable | None = None,
                 sample_size: int | None = None,
                 registry=None, query_index: bool = True):
        super().__init__(engine, wave_size=wave_size,
                         probe_cache=probe_cache)
        self.query_distance = query_distance
        self.share_eps = share_eps
        self.share_distance = share_distance
        self.sampled_bound = sampled_bound
        self.sample_size = sample_size
        self.registry = registry
        self.query_index = query_index

    @property
    def _share_distance_is_metric(self) -> bool:
        """True when clustering distances are also metric distances.

        Share-group clustering may run under *any* distance, but two
        reuses require the clustered value to be the same metric
        distance :attr:`query_distance` certifies with: seeding the
        triangle pairwise matrix, and shifting a member's adopted
        probe bounds.  Equality (not identity) so drivers returning a
        fresh bound method per call — ``measure.distance`` — still
        qualify; any mismatch simply forfeits the two reuses, never
        soundness.
        """
        return (self.query_distance is not None
                and self.share_distance == self.query_distance)

    def _pairwise(self, queries: Sequence, active: Sequence[int],
                  known: dict[tuple[int, int], float] | None = None,
                  report: BatchPlanReport | None = None) -> np.ndarray:
        """Symmetric query-to-query distance matrix (zero diagonal).

        Computed driver-side, once per batch, and only on demand: the
        cross-query bound needs some query to already hold k results,
        so the first wave never pays for it.  Only the ``active``
        (representative, non-deduplicated) queries get real distances —
        every other entry stays ``+inf``, which
        :meth:`~repro.cluster.driver.RunningTopKVector.broadcast_vector`
        treats as "no coupling".  ``known`` carries pair distances the
        share-group clustering already computed, so those pairs are
        never evaluated twice; the caller must only pass it when the
        clustering distance *is* the metric distance
        (:attr:`_share_distance_is_metric`).  ``report``, when given,
        has every fresh evaluation counted into its
        ``query_distance_calls``.
        """
        count = len(queries)
        pairwise = np.full((count, count), np.inf)
        np.fill_diagonal(pairwise, 0.0)
        for ai, i in enumerate(active):
            for j in active[ai + 1:]:
                distance = (known or {}).get((min(i, j), max(i, j)))
                if distance is None:
                    distance = float(self.query_distance(queries[i],
                                                         queries[j]))
                    if report is not None:
                        report.query_distance_calls += 1
                pairwise[i, j] = pairwise[j, i] = distance
        return pairwise

    def _share_clusters(self, queries: Sequence, active: Sequence[int],
                        report: BatchPlanReport,
                        ) -> tuple[dict[int, int], dict[int, float],
                                   dict[tuple[int, int], float]]:
        """Cluster active queries into near-duplicate share groups.

        Walks the active queries in input order; each joins the
        lowest-indexed existing representative within
        :attr:`share_eps` under :attr:`share_distance`, else becomes a
        representative itself — deterministic, and every
        representative precedes its members.  Returns ``(rep_of,
        dist_to_rep, known)``: each active query's representative
        (itself for reps), each member's exact distance to its
        representative, and every pair distance evaluated along the
        way (keyed ``(min, max)``; :meth:`execute_batch` reuses them
        for cross-query tightening only under
        :attr:`_share_distance_is_metric`).  Queries without a point
        array never cluster (nothing to compare).

        Under ``query_index=True`` the representatives live in a
        :class:`~repro.cluster.query_index.QueryIndex` and each query
        is one range lookup — triangle-pruned when the clustering
        distance is the metric distance, an early-stopping linear scan
        otherwise, either way at most :data:`CROSS_QUERY_LIMIT` fresh
        distance calls (content-identical queries attach for free).  A
        budget-truncated lookup falls back to "new representative",
        exactly where the legacy greedy scan's hard cap lands: under
        ``query_index=False`` each query compares against at most the
        first :data:`CROSS_QUERY_LIMIT` representatives, so the driver
        pays O(batch x 64) calls worst case with *no* pruning or
        caching.  Both modes produce identical groups whenever the cap
        never binds (the index only removes distance calls).
        """
        rep_of = {qi: qi for qi in active}
        dist_to_rep: dict[int, float] = {}
        known: dict[tuple[int, int], float] = {}
        if self.share_eps is None or self.share_distance is None:
            return rep_of, dist_to_rep, known
        if self.query_index:
            index = QueryIndex(self.share_distance,
                               metric=self._share_distance_is_metric,
                               pair_cache=known)
            for qi in active:
                if getattr(queries[qi], "points", None) is None:
                    continue
                matches = index.range_search(queries[qi], self.share_eps,
                                             obj_key=qi,
                                             budget=CROSS_QUERY_LIMIT,
                                             first=True)
                if matches:
                    rep, distance = matches[0]
                    rep_of[qi] = rep
                    dist_to_rep[qi] = distance
                    report.queries_shared += 1
                else:
                    index.add(qi, queries[qi])
            report.query_distance_calls += index.distance_calls
        else:
            reps: list[int] = []
            for qi in active:
                if getattr(queries[qi], "points", None) is None:
                    continue
                for rep in reps[:CROSS_QUERY_LIMIT]:
                    distance = float(self.share_distance(queries[rep],
                                                         queries[qi]))
                    report.query_distance_calls += 1
                    known[(min(rep, qi), max(rep, qi))] = distance
                    if distance <= self.share_eps:
                        rep_of[qi] = rep
                        dist_to_rep[qi] = distance
                        report.queries_shared += 1
                        break
                else:
                    reps.append(qi)
        report.share_groups = len(
            {rep for qi, rep in rep_of.items() if rep != qi})
        return rep_of, dist_to_rep, known

    def _adopted_probes(self, probes: Sequence[PartitionProbe | None],
                        shift: float) -> list[PartitionProbe | None]:
        """A share-group member's view of its representative's probes.

        For metric measures every trajectory ``t`` satisfies
        ``d(member, t) >= d(rep, t) - d(rep, member)``, so shifting the
        representative's (lower-bound) probe values down by the
        member-to-representative distance yields *sound* lower bounds
        for the member — partition skipping and task weighting keep
        working, just ``shift`` looser.  This requires ``shift`` to be
        a *metric* distance, i.e. the clustering distance must be the
        metric distance (:attr:`_share_distance_is_metric`); otherwise
        — no metric at all, or a planner configured with a looser
        clustering distance — no shifted value is a bound, so the
        member adopts probe-less entries: never skipped, weight 0 —
        conservative, and exactly how indexes without ``probe`` are
        already treated.
        """
        if not self._share_distance_is_metric:
            return [None] * len(probes)
        adopted: list[PartitionProbe | None] = []
        for probe in probes:
            if probe is None:
                adopted.append(None)
                continue
            adopted.append(PartitionProbe(
                bound=max(0.0, probe.bound - shift),
                child_bounds=tuple(max(0.0, b - shift)
                                   for b in probe.child_bounds),
                trajectories=probe.trajectories))
        return adopted

    def _sampled_bounds(self, queries: Sequence, active: Sequence[int],
                        k: int, merges: RunningTopKVector,
                        traj_points: dict[int, np.ndarray],
                        cache: dict | None = None,
                        ) -> np.ndarray | None:
        """Per-query sampled upper bounds on each final k-th best.

        Takes the batch's shared candidate sample (the globally best
        distinct trajectories any query holds so far) and evaluates
        :attr:`sampled_bound` from every active query to every sample
        member.  The k-th smallest value certifies k distinct indexed
        trajectories at or under it, so it upper-bounds that query's
        *final* k-th-best distance — sound for any measure, metric or
        not.  Returns None when disabled, when fewer than k distinct
        candidates exist yet, or when the sample trajectories cannot
        be resolved driver-side.  ``cache`` memoizes evaluated
        ``(query index, tid)`` pairs across waves — both point arrays
        are immutable, so as the sample stabilizes each wave only pays
        for candidates it has not bounded before.  Passing an
        :class:`~repro.cluster.query_index.IncrementalSampledBounds`
        (what :meth:`execute_batch` does) additionally memoizes each
        query's k-th value per sample epoch, so a wave whose shared
        sample did not change skips even the selection pass; a plain
        dict keeps the value-level caching only.  Bound *values* are
        identical either way.
        """
        if self.sampled_bound is None or self.sample_size == 0:
            return None
        size = (self.sample_size if self.sample_size is not None
                else max(2 * k, SAMPLE_MIN))
        # Fewer than k samples can never produce a bound, so a small
        # configured size is raised to k rather than silently turning
        # the whole mechanism off (only 0 disables, as documented).
        size = max(size, k)
        sample = merges.sample_items(size)
        resolved = [(tid, traj_points.get(tid)) for _, tid in sample]
        resolved = [(tid, pts) for tid, pts in resolved
                    if pts is not None]
        if len(resolved) < k:
            return None
        if cache is None:
            cache = {}
        epoch = getattr(merges, "sample_epoch", None)
        bounds = np.full(len(queries), np.inf)
        for qi in active:
            query_points = getattr(queries[qi], "points", None)
            if query_points is None:
                continue
            if isinstance(cache, IncrementalSampledBounds):
                bounds[qi] = cache.kth(qi, query_points, resolved, k,
                                       epoch=epoch)
                continue
            values = []
            for tid, pts in resolved:
                value = cache.get((qi, tid))
                if value is None:
                    value = float(self.sampled_bound(query_points, pts))
                    cache[(qi, tid)] = value
                values.append(value)
            values.sort()
            bounds[qi] = values[k - 1]
        return bounds

    @staticmethod
    def _trajectory_points(parts: Sequence) -> dict[int, np.ndarray]:
        """Driver-side ``tid -> points`` lookup over every partition.

        The sampled bound evaluates distances to trajectories the
        searches have already *found*, all of which live in some
        partition's driver-held record — including incrementally
        inserted ones, which the driver appends to the partition's
        trajectory list.  Partitions without a trajectory list (test
        fakes) simply contribute nothing.
        """
        lookup: dict[int, np.ndarray] = {}
        for rp in parts:
            for traj in getattr(rp, "trajectories", None) or ():
                lookup[traj.traj_id] = traj.points
        return lookup

    @staticmethod
    def _registry_fingerprint(query, kwargs: dict) -> bytes | None:
        """Registry key for one query, or None when ineligible.

        The registry key is the probe fingerprint (query points +
        ``dqp``), so it is only a faithful identity when no *other*
        kwarg could change the answer — queries carrying any kwarg
        beyond ``dqp`` opt out of the registry entirely (both seeding
        and storing), mirroring :meth:`_dedup_key`'s safety posture.
        """
        if any(key != "dqp" for key in kwargs):
            return None
        return ProbeCache.fingerprint(query, kwargs.get("dqp"))

    def _registry_seeds(self, parts: Sequence, queries: Sequence,
                        active: Sequence[int], k: int,
                        fingerprints: dict[int, bytes],
                        report: BatchPlanReport,
                        traj_points: dict[int, np.ndarray] | None,
                        cache=None) -> tuple[np.ndarray | None,
                                             dict[int, np.ndarray] | None]:
        """Per-query certified seed thresholds from the registry.

        For each active fingerprintable query, in preference order:

        * **Exact hit** — an entry with the same fingerprint at the
          current epoch stores the final merged top-k of an identical
          query; its k-th distance *is* this query's final ``dk``
          (the search is deterministic), so it seeds exactly.
        * **Near-duplicate** — failing that, stored entries within
          ``share_eps`` of this query are tried as representatives:
          under a metric, ``stored_dk + d(rep, query)`` upper-bounds
          this query's final k-th best by the triangle inequality; for
          non-metric measures the k-th smallest :attr:`sampled_bound`
          from the query to the entry's stored trajectories certifies
          k distinct trajectories at or under it.  The tightest such
          bound seeds the query.  Under ``query_index=True`` the
          candidates come from the registry's own metric lookup
          (:meth:`~repro.cluster.service.HotQueryRegistry.neighbors`)
          over *all* live entries at :data:`REGISTRY_SCAN_LIMIT` fresh
          distance calls per query; the legacy path scans the
          :data:`REGISTRY_SCAN_LIMIT` most-recently-used entries
          instead (and is the fallback for registries without
          ``neighbors``).

        Every seed upper-bounds the query's *final* k-th best, and is
        applied downstream through the same strict (``>``) skip and
        ``nextafter`` search cutoff as any other threshold, so seeded
        results stay bit-identical to cold ones.  ``cache`` optionally
        carries the batch's
        :class:`~repro.cluster.query_index.IncrementalSampledBounds`,
        so non-metric seed evaluations prime the wave-time sampled
        bounds (same (query, tid) value space).  Returns ``(seeds,
        traj_points)`` — seeds is None when nothing seeded; the
        (lazily built) trajectory lookup is returned for reuse.
        """
        seeds = np.full(len(queries), np.inf)
        candidates: list | None = None
        can_neighbor = (self.share_eps is not None
                        and self.share_distance is not None)
        use_index = self.query_index and hasattr(self.registry,
                                                 "neighbors")
        for qi in active:
            fingerprint = fingerprints.get(qi)
            if fingerprint is None:
                continue
            entry = self.registry.get(fingerprint, k)
            if entry is not None:
                seeds[qi] = entry.threshold(k)
                report.registry_hits += 1
                continue
            if not can_neighbor:
                continue
            query_points = getattr(queries[qi], "points", None)
            if query_points is None:
                continue
            if use_index:
                pairs, fresh = self.registry.neighbors(
                    queries[qi], self.share_eps, self.share_distance,
                    metric=self._share_distance_is_metric,
                    budget=REGISTRY_SCAN_LIMIT, query_key=fingerprint)
                report.query_distance_calls += fresh
            else:
                if candidates is None:
                    candidates = self.registry.recent(REGISTRY_SCAN_LIMIT)
                pairs = []
                for candidate in candidates:
                    if getattr(candidate.query, "points", None) is None:
                        continue
                    if len(candidate.items) < k:
                        continue
                    distance = float(self.share_distance(
                        queries[qi], candidate.query))
                    report.query_distance_calls += 1
                    if distance <= self.share_eps:
                        pairs.append((candidate, distance))
            best = np.inf
            for candidate, distance in pairs:
                if len(candidate.items) < k:
                    continue
                if self._share_distance_is_metric:
                    bound = candidate.threshold(k) + distance
                elif self.sampled_bound is not None:
                    if traj_points is None:
                        traj_points = self._trajectory_points(parts)
                    values = []
                    for _, tid in candidate.items:
                        points = traj_points.get(tid)
                        if points is None:
                            continue
                        if isinstance(cache, IncrementalSampledBounds):
                            values.append(cache.value(qi, query_points,
                                                      tid, points))
                        else:
                            values.append(float(
                                self.sampled_bound(query_points, points)))
                    if len(values) < k:
                        continue
                    values.sort()
                    bound = values[k - 1]
                else:
                    continue
                best = min(best, bound)
            if np.isfinite(best):
                seeds[qi] = best
                self.registry.neighbor_hits = getattr(
                    self.registry, "neighbor_hits", 0) + 1
                report.registry_neighbor_seeds += 1
        if not np.isfinite(seeds).any():
            return None, traj_points
        return seeds, traj_points

    def execute_batch(self, parts: Sequence, queries: Sequence, k: int,
                      kwargs_list: Sequence[dict],
                      make_task: Callable[[object, list, list, list],
                                          Callable],
                      hints: WorkloadHints | None = None,
                      ) -> tuple[list[TopKResult],
                                 list[list[TaskTiming]], BatchPlanReport]:
        """Run a batch of top-k queries as one grouped wave plan.

        ``make_task(rp, group_queries, group_kwargs, group_shares)``
        builds one engine task searching partition record ``rp`` for
        every query in the group (kwargs and share-group labels
        aligned with the group; a label is the share group's
        representative index, or None for unshared queries).  The task
        must return one :class:`~repro.core.search.TopKResult` per
        group query, in order.  Returns the per-query merged results
        (input order, each bit-identical to single-shot execution
        whenever its plan reports ``complete``), the per-wave task
        timings, and the :class:`BatchPlanReport`.

        Fault handling mirrors the single-query planner: a grouped
        task that failed terminally re-enqueues its (partition, query)
        pairs into re-dispatch waves appended after the planned ones —
        where the by-then tighter per-query thresholds may skip them
        soundly — and pairs that exhaust the planner budget too land on
        that query's ``failed_partitions`` with a per-query exactness
        verdict, instead of aborting the batch.
        """
        start = time.perf_counter()
        report = BatchPlanReport(num_queries=len(queries),
                                 share_eps=self.share_eps)
        alias = self._dedup(queries, kwargs_list, report)
        active = [qi for qi in range(len(queries)) if alias[qi] == qi]
        rep_of, dist_to_rep, known = self._share_clusters(
            queries, active, report)
        # Share-group labels for task building: the whole group —
        # representative included — shares one gather-store key.
        in_group = {rep for qi, rep in rep_of.items() if rep != qi}
        share_label = {qi: (rep_of[qi] if rep_of[qi] in in_group else None)
                       for qi in active}
        cache_before = self.cache_counters()
        plans = []  # per query: (probes, waves); empty for duplicates
        for qi, (query, kwargs) in enumerate(zip(queries, kwargs_list)):
            if alias[qi] != qi:
                # Duplicate: never probed, never dispatched — it will
                # copy its representative's merged result at the end.
                report.per_query.append(PlanReport(mode="batch-waves",
                                                   wave_size=0))
                plans.append(([], []))
                continue
            if rep_of[qi] != qi:
                # Near-duplicate member: adopt the representative's
                # promise order and wave cut (already planned — the
                # greedy clustering guarantees rep index < member
                # index), with probe bounds made sound for *this*
                # query.  No probe pass, no cache lookups.  The
                # member's plan is *staggered* one wave behind the
                # representative's: by the time its first partitions
                # dispatch, the representative's wave-1 results have
                # been folded, so the broadcast vector hands the
                # member a near-final threshold — through the triangle
                # inequality (metric) or the sampled banded bound
                # (non-metric) — and its entire search runs maximally
                # pruned.  One barrier of extra latency buys a search
                # that skips most of the work its twin already did.
                rep = rep_of[qi]
                probes = self._adopted_probes(plans[rep][0],
                                              dist_to_rep[qi])
                rep_plan = report.per_query[rep]
                report.per_query.append(PlanReport(
                    mode="batch-waves",
                    wave_size=rep_plan.wave_size,
                    order=list(rep_plan.order),
                    probe_bounds=[p.bound if p is not None else 0.0
                                  for p in probes],
                ))
                plans.append((probes, [[]] + list(plans[rep][1])))
                continue
            before = self.cache_counters()
            probes = self.probe(parts, query, kwargs)
            hits, misses = self.cache_delta(before)
            order = self.plan_order(probes)
            waves = self.plan_waves(order)
            plan = PlanReport(
                mode="batch-waves",
                wave_size=len(waves[0]) if waves else 0,
                order=order,
                probe_bounds=[p.bound if p is not None else 0.0
                              for p in probes],
                probe_cache_hits=hits,
                probe_cache_misses=misses,
            )
            report.per_query.append(plan)
            plans.append((probes, waves))
        report.probe_cache_hits, report.probe_cache_misses = (
            self.cache_delta(cache_before))
        report.probe_seconds = time.perf_counter() - start
        report.wave_size = next(
            (plan.wave_size for plan in report.per_query if plan.order), 0)
        num_waves = max((len(waves) for _, waves in plans), default=0)
        merges = RunningTopKVector(len(queries), k)
        pairwise: np.ndarray | None = None
        cross_index: QueryIndex | None = None
        traj_points: dict[int, np.ndarray] | None = None
        bound_cache = (IncrementalSampledBounds(self.sampled_bound)
                       if self.sampled_bound is not None else None)
        # Cross-batch hot-query registry: snapshot the epoch *before*
        # the waves (results are stored under it — a concurrent index
        # write mid-batch rolls the registry epoch past it, so those
        # stores are dropped on arrival instead of served stale), and
        # seed every recurring / near-duplicate query's threshold from
        # stored final results.
        registry_epoch = 0
        fingerprints: dict[int, bytes] = {}
        seed_bounds: np.ndarray | None = None
        if self.registry is not None:
            registry_epoch = self.registry.epoch
            registry_stores_before = getattr(self.registry, "stores", 0)
            for qi in active:
                fingerprint = self._registry_fingerprint(queries[qi],
                                                         kwargs_list[qi])
                if fingerprint is not None:
                    fingerprints[qi] = fingerprint
            seed_bounds, traj_points = self._registry_seeds(
                parts, queries, active, k, fingerprints, report,
                traj_points, cache=bound_cache)
        # Per wave: the dispatched (pid, group) pairs, for the fold.
        wave_groups: list[list[tuple[int, list[int]]]] = []
        # Failed (partition -> queries) pairs awaiting a re-dispatch
        # wave, and how often each (pid, qi) pair was re-dispatched.
        retry_map: dict[int, list[int]] = {}
        redispatches: dict[tuple[int, int], int] = {}

        def wave_tasks():
            """Lazily build each wave against the freshest dk vector,
            appending re-dispatch waves for failed (partition, query)
            pairs after the planned ones."""
            nonlocal pairwise, cross_index, traj_points
            index = 0
            while True:
                retry_wave: dict[int, list[int]] | None = None
                if index >= num_waves:
                    if not retry_map:
                        return
                    retry_wave = {pid: list(qis) for pid, qis
                                  in sorted(retry_map.items())}
                    retry_map.clear()
                # Cross-query triangle coupling, built lazily: the
                # bound needs some query to already hold k results, so
                # the first wave never pays for it.  Indexed mode
                # builds the VP-tree over *all* active queries (the
                # lifted cap — CROSS_QUERY_LIMIT survives as each
                # lookup's fresh-call budget, with clustering's pair
                # distances prepaying the build wherever the
                # clustering distance is the metric one); legacy mode
                # keeps the capped full pairwise matrix.
                if (self.query_index and cross_index is None
                        and self.query_distance is not None
                        and len(active) > 1
                        and np.isfinite(merges.dk_vector()).any()):
                    cross_index = QueryIndex(
                        self.query_distance, metric=True,
                        pair_cache=(known if self._share_distance_is_metric
                                    else None))
                    for qi in active:
                        cross_index.add(qi, queries[qi])
                    report.query_distance_calls += (
                        cross_index.distance_calls)
                if (not self.query_index and pairwise is None
                        and self.query_distance is not None
                        and 1 < len(active) <= CROSS_QUERY_LIMIT
                        and np.isfinite(merges.dk_vector()).any()):
                    pairwise = self._pairwise(
                        queries, active,
                        known if self._share_distance_is_metric else None,
                        report=report)
                bounds = None
                if self.sampled_bound is not None and index > 0:
                    # Only queries actually dispatching in this wave
                    # can use a threshold — exhausted plans and
                    # staggered members' empty leading waves would pay
                    # for banded DPs nobody reads.
                    if retry_wave is not None:
                        live = sorted({qi for qis in retry_wave.values()
                                       for qi in qis})
                    else:
                        live = [qi for qi in active
                                if index < len(plans[qi][1])
                                and plans[qi][1][index]]
                    if live:
                        if traj_points is None:
                            traj_points = self._trajectory_points(parts)
                        bounds = self._sampled_bounds(
                            queries, live, k, merges, traj_points,
                            cache=bound_cache)
                raw = merges.dk_vector()
                if bounds is not None:
                    report.sampled_tightenings += int(
                        np.count_nonzero(bounds < raw))
                if cross_index is not None:
                    # Indexed cross-tightening: one budgeted weighted
                    # nearest-neighbor lookup per item instead of the
                    # full matrix reduction — value-identical to it
                    # whenever the budget never binds (each query's
                    # own dk rides in via the zero self-distance), and
                    # a sound partial minimum when it does.
                    weights = {qi: float(raw[qi]) for qi in active}
                    before_calls = cross_index.distance_calls
                    cross_vals, improved = cross_index.tighten(
                        weights, budget=CROSS_QUERY_LIMIT)
                    report.query_distance_calls += (
                        cross_index.distance_calls - before_calls)
                    report.cross_query_tightenings += improved
                    tightenings = np.full(len(queries), np.inf)
                    for qi, value in cross_vals.items():
                        tightenings[qi] = value
                    bounds = (tightenings if bounds is None
                              else np.minimum(bounds, tightenings))
                if seed_bounds is not None:
                    # Registry seeds are certified upper bounds on the
                    # final k-th best, so folding them in every wave is
                    # sound; they are counted separately above so the
                    # sampled counter keeps meaning "tightened by this
                    # wave's sampled pass".
                    bounds = (seed_bounds if bounds is None
                              else np.minimum(bounds, seed_bounds))
                dks, tightened = merges.broadcast_vector(pairwise,
                                                         bounds=bounds)
                report.cross_query_tightenings += tightened
                groups: dict[int, list[int]] = {}
                if retry_wave is not None:
                    for pid, qis in retry_wave.items():
                        for qi in qis:
                            plan = report.per_query[qi]
                            if (not plan.waves
                                    or plan.waves[-1].index != index):
                                plan.waves.append(WaveReport(
                                    index=index,
                                    dk_before=float(dks[qi])))
                            probe = plans[qi][0][pid]
                            if probe is not None and probe.bound > dks[qi]:
                                # The threshold tightened since the
                                # failure: the partition is now provably
                                # irrelevant for this query — a sound
                                # resolution, not a failure.
                                plan.waves[-1].skipped.append(pid)
                            else:
                                groups.setdefault(pid, []).append(qi)
                else:
                    for qi, (probes, waves) in enumerate(plans):
                        if index >= len(waves) or not waves[index]:
                            # Plan exhausted, or a staggered member's
                            # empty leading wave: nothing to dispatch
                            # or report.
                            continue
                        wave_report = WaveReport(index=index,
                                                 dk_before=float(dks[qi]))
                        report.per_query[qi].waves.append(wave_report)
                        for pid in waves[index]:
                            probe = probes[pid]
                            if probe is not None and probe.bound > dks[qi]:
                                # Same sound strict skip as the
                                # single-query planner: the probe bound
                                # proves every trajectory here sits
                                # outside this query's final top-k.
                                wave_report.skipped.append(pid)
                            else:
                                groups.setdefault(pid, []).append(qi)
                # Heaviest group first: a group's weight is the sum of
                # its members' probe-estimated work on this partition.
                pids = sorted(groups)
                weights = [sum(self.task_weight(plans[qi][0][pid],
                                                float(dks[qi]))
                               for qi in groups[pid]) for pid in pids]
                tasks = []
                entries: list[tuple[int, list[int]]] = []
                broadcast_queries: set[int] = set()
                for rank in lpt_order(weights):
                    pid = pids[rank]
                    group = groups[pid]
                    supports = getattr(parts[pid].index,
                                       "supports_threshold", False)
                    group_kwargs = []
                    for qi in group:
                        kwargs = kwargs_list[qi]
                        if supports and math.isfinite(dks[qi]):
                            kwargs = {
                                **kwargs,
                                "dk": min(float(dks[qi]),
                                          kwargs.get("dk", float("inf"))),
                            }
                            broadcast_queries.add(qi)
                        report.per_query[qi].waves[-1].partitions.append(
                            pid)
                        group_kwargs.append(kwargs)
                    tasks.append(make_task(
                        parts[pid], [queries[qi] for qi in group],
                        group_kwargs,
                        [share_label.get(qi) for qi in group]))
                    entries.append((pid, group))
                # At most one broadcast per (query, wave), mirroring the
                # single-query planner's per-wave accounting.
                for qi in broadcast_queries:
                    report.per_query[qi].threshold_broadcasts += 1
                wave_groups.append(entries)
                report.tasks_dispatched += len(tasks)
                grouped = sum(len(g) for _, g in entries)
                report.grouped_queries += grouped
                if hints is not None and tasks:
                    # Report this wave's *actual* mean group width so
                    # the "auto" cost model sees the real per-task
                    # work, not a whole-batch upper bound.
                    yield tasks, replace(
                        hints, queries_per_task=grouped / len(tasks))
                else:
                    yield tasks
                index += 1

        def fold_wave(index: int, outcomes: list,
                      timings: list[TaskTiming]) -> None:
            for (pid, group), outcome in zip(wave_groups[index],
                                             outcomes):
                report.retries += outcome.retries
                report.timeouts += outcome.timeouts
                report.speculative_wins += int(outcome.speculative_win)
                if not outcome.ok:
                    # The whole group lost this partition; re-enqueue
                    # each (partition, query) pair or record it
                    # terminally once the planner budget is spent too.
                    for qi in group:
                        report.per_query[qi].waves[-1].failed.append(pid)
                        count = redispatches.get((pid, qi), 0) + 1
                        redispatches[(pid, qi)] = count
                        if count <= PLANNER_REDISPATCHES:
                            retry_map.setdefault(pid, []).append(qi)
                        else:
                            report.per_query[qi].failed_partitions.append(
                                pid)
                    continue
                for qi, partial in zip(group, outcome.result):
                    merges.fold(qi, [partial])
                    wave_report = report.per_query[qi].waves[-1]
                    wave_report.nodes_pruned += partial.stats.nodes_pruned
                    wave_report.exact_refinements += (
                        partial.stats.exact_refinements)
            for qi in range(len(queries)):
                plan = report.per_query[qi]
                if plan.waves and plan.waves[-1].index == index:
                    plan.waves[-1].dk_after = merges.dk(qi)

        _, wave_timings = self.engine.run_waves(
            wave_tasks(), hints=hints, on_wave=fold_wave)

        if bound_cache is not None:
            report.sampled_bound_calls = bound_cache.calls
        results = merges.results()
        for qi in active:
            plan = report.per_query[qi]
            plan.exact = self._exactness(plan.failed_partitions,
                                         plans[qi][0], merges.dk(qi))
        if self.registry is not None:
            # Persist exact, fully-answered results for later batches;
            # stamped with the batch-start epoch so entries raced by a
            # concurrent write never enter circulation.
            for qi in active:
                fingerprint = fingerprints.get(qi)
                plan = report.per_query[qi]
                if (fingerprint is None or not plan.exact
                        or len(results[qi].items) < k):
                    continue
                self.registry.put(fingerprint, queries[qi],
                                  results[qi].items, epoch=registry_epoch)
            report.registry_stores = (getattr(self.registry, "stores", 0)
                                      - registry_stores_before)
        for qi, rep in enumerate(alias):
            if rep != qi:
                # Same points, same shared kwargs: the search's answer
                # is a pure function of both, so the twin's result is
                # the representative's.  Fresh zero stats keep the
                # batch's work accounting truthful (nothing ran).
                # Degradation state is inherited the same way: losing
                # the representative's partitions lost the twin's too.
                results[qi] = TopKResult(items=list(results[rep].items),
                                         stats=SearchStats())
                plan = report.per_query[qi]
                plan.failed_partitions = list(
                    report.per_query[rep].failed_partitions)
                plan.exact = report.per_query[rep].exact
        for result, plan in zip(results, report.per_query):
            self._finalize_stats(result.stats, plan)
        return results, wave_timings, report

    def _dedup(self, queries: Sequence, kwargs_list: Sequence[dict],
               report: BatchPlanReport) -> list[int]:
        """Alias fingerprint-identical queries to their first occurrence.

        Returns ``alias`` with ``alias[qi]`` the index of the query
        ``qi`` will reuse the result of (itself for representatives).
        Queries only deduplicate when their points and every shared
        kwarg fingerprint identically (:meth:`_dedup_key`); anything
        unfingerprintable runs on its own.
        """
        alias = list(range(len(queries)))
        seen: dict = {}
        for qi, (query, kwargs) in enumerate(zip(queries, kwargs_list)):
            key = self._dedup_key(query, kwargs)
            if key is None:
                continue
            representative = seen.setdefault(key, qi)
            if representative != qi:
                alias[qi] = representative
                report.queries_deduplicated += 1
        return alias

    @staticmethod
    def _dedup_key(query, kwargs: dict):
        """Content key two queries must share to be interchangeable.

        The point-array (and ``dqp``) fingerprint comes from
        :meth:`~repro.cluster.rdd.ProbeCache.fingerprint`; remaining
        kwargs participate only when they are plain scalars, whose
        equality is unambiguous — any richer kwarg disables dedup for
        safety (None return)."""
        fingerprint = ProbeCache.fingerprint(query, kwargs.get("dqp"))
        if fingerprint is None:
            return None
        extra = sorted((key, value) for key, value in kwargs.items()
                       if key != "dqp")
        for _, value in extra:
            if not isinstance(value, (int, float, str, bool, type(None))):
                return None
        return (fingerprint, tuple(extra))
