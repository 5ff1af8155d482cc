"""The multi-query batch planner and its supporting machinery.

The load-bearing property: ``top_k_batch`` — shared (cached) probes,
partition-affinity task grouping, per-query threshold vectors with
cross-query triangle-inequality reuse — must return **bit-identical**
per-query results to running each query alone through ``top_k``, and
every answer must pass the brute-force oracle
(:mod:`repro.testing.oracle`), for every measure.  Alongside that
property live
unit tests for the pieces: the multi-query local search and its shared
gather view, the per-query running-merge vector and its cross-query
broadcast, the probe cache and its epoch invalidation, LPT wave
ordering, the multi-query workload hints, and the per-query
``SearchStats``/``PlanReport`` accounting (satellite: ``merge_stats``
field-generic folding under multi-query tasks).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.batch import BatchPlanReport, BatchQueryPlanner
from repro.cluster.driver import RunningTopKVector, merge_stats
from repro.cluster.engine import ExecutionEngine, WorkloadHints, choose_backend
from repro.cluster.planner import QueryPlanner
from repro.cluster.rdd import ProbeCache
from repro.cluster.scheduler import lpt_order
from repro.core.grid import Grid
from repro.core.rptrie import RPTrie
from repro.core.search import (
    PartitionProbe,
    SearchStats,
    TopKResult,
    local_search,
    local_search_multi,
)
from repro.distances import get_measure
from repro.repose import Repose, make_baseline
from repro.testing import oracle
from repro.types import Trajectory, TrajectoryDataset

MEASURES = ["hausdorff", "frechet", "dtw", "erp", "edr", "lcss"]
SPAN = 10.0


def _clustered_trajectories(count: int, seed: int) -> list[Trajectory]:
    """Skewed data: most trajectories huddle in one hot corner."""
    rng = np.random.default_rng(seed)
    trajectories = []
    for i in range(count):
        n = int(rng.integers(3, 18))
        if i % 4 == 0:
            start = rng.uniform(0.05 * SPAN, 0.95 * SPAN, 2)
        else:
            start = rng.uniform(0.05 * SPAN, 0.25 * SPAN, 2)
        steps = rng.normal(0, 0.02 * SPAN, (n - 1, 2))
        points = np.vstack([start, start + np.cumsum(steps, axis=0)])
        np.clip(points, 0.001, SPAN - 0.001, out=points)
        trajectories.append(Trajectory(points, traj_id=i))
    return trajectories


@pytest.fixture(scope="module")
def skewed_dataset() -> TrajectoryDataset:
    return TrajectoryDataset(
        name="skewed", trajectories=_clustered_trajectories(100, seed=5))


def _build(dataset, measure, **kwargs):
    kwargs.setdefault("delta", 0.4)
    kwargs.setdefault("num_partitions", 12)
    kwargs.setdefault("plan_options", {"wave_size": 3})
    return Repose.build(dataset, measure=measure, **kwargs)


def _assert_exact(engine, queries, results, k, measure=None, corpus=None):
    """Each batch answer is bit-identical to the query run alone
    through ``top_k`` and passes the brute-force oracle."""
    truth = oracle.Oracle(
        engine.measure if measure is None else measure,
        engine.dataset.trajectories if corpus is None else corpus)
    for query, result in zip(queries, results):
        assert result.items == engine.top_k(query, k).result.items
        truth.check_top_k(result.items, query, k)


class TestBatchBitIdentity:
    @pytest.mark.parametrize("name", MEASURES)
    def test_batch_equals_per_query_single_shot(self, skewed_dataset, name):
        """The acceptance property: top_k_batch returns, per query,
        exactly what top_k returns for that query alone — same items,
        same distances, same tie-breaks — and the brute-force answer,
        for every measure."""
        engine = _build(skewed_dataset, name)
        queries = [skewed_dataset.trajectories[i] for i in (0, 1, 2, 17)]
        for k in (1, 7, 25):
            batch = engine.top_k_batch(queries, k)
            _assert_exact(engine, queries, batch.results, k)

    def test_ties_at_global_kth_survive_cross_query_reuse(self):
        """Duplicate trajectories across partitions plus duplicate
        queries: cross-query thresholds must not drop the smaller-tid
        twin the oracle's (distance, tid) order keeps at the k-th
        boundary."""
        base = _clustered_trajectories(40, seed=9)
        twin_points = [(1.0, 1.0), (1.5, 1.2), (2.0, 1.1)]
        trajs = base + [Trajectory(twin_points, traj_id=200 + i)
                        for i in range(6)]
        dataset = TrajectoryDataset(name="twins", trajectories=trajs)
        engine = _build(dataset, "hausdorff", strategy="random",
                        num_partitions=8, plan_options={"wave_size": 2})
        queries = [Trajectory(twin_points, traj_id=999),
                   Trajectory(twin_points, traj_id=998),
                   dataset.trajectories[0]]
        for k in (2, 4, 6):
            batch = engine.top_k_batch(queries, k)
            _assert_exact(engine, queries, batch.results, k)
            # The tie at the k-th boundary resolves to the smaller tids.
            assert batch.results[0].ids() == list(range(200, 200 + k))

    def test_batch_never_does_more_partition_work(self, skewed_dataset):
        """Grouping and cross-query reuse may only remove work: the
        batch dispatches at most as many (query, partition) searches —
        and strictly fewer tasks — than per-query waved execution."""
        engine = _build(skewed_dataset, "dtw")
        queries = [skewed_dataset.trajectories[i] for i in (1, 2, 5, 6)]
        per_query_tasks = 0
        per_query_exact = 0
        for query in queries:
            outcome = engine.top_k(query, 10)
            per_query_tasks += sum(len(w.partitions)
                                   for w in outcome.plan.waves)
            per_query_exact += outcome.result.stats.exact_refinements
        batch = engine.top_k_batch(queries, 10)
        assert batch.plan.tasks_dispatched < per_query_tasks
        assert batch.plan.partition_queries_dispatched <= per_query_tasks
        assert sum(r.stats.exact_refinements
                   for r in batch.results) <= per_query_exact
        # Affinity grouping found real sharing on the skewed batch.
        assert batch.plan.grouped_queries > batch.plan.tasks_dispatched

    def test_baselines_run_under_batch_plan(self, skewed_dataset):
        """Indexes without top_k_multi/probe/threshold capabilities
        still execute correctly (per-query loop inside the task)."""
        engine = make_baseline("ls", skewed_dataset, "hausdorff",
                               num_partitions=6)
        engine.build()
        queries = skewed_dataset.trajectories[:3]
        batch = engine.top_k_batch(queries, 5)
        _assert_exact(engine, queries, batch.results, 5,
                      measure=get_measure("hausdorff"))


class TestMultiQueryLocalSearch:
    @pytest.mark.parametrize("name", MEASURES)
    def test_multi_matches_individual_searches(self, skewed_dataset, name):
        grid = Grid.fit(skewed_dataset.bounding_box(), 0.4)
        trajs = skewed_dataset.trajectories[:50]
        trie = RPTrie(grid, name).build(trajs)
        queries = [trajs[0], trajs[7], trajs[13]]
        solo = [local_search(trie, query, 8) for query in queries]
        dks = [float("inf"), solo[1].items[3][0], solo[2].items[0][0]]
        multi = local_search_multi(trie, queries, 8, dks=dks)
        seeded = [local_search(trie, query, 8, dk=dk)
                  for query, dk in zip(queries, dks)]
        for got, expected in zip(multi, seeded):
            assert got.items == expected.items
        assert multi[0].items == solo[0].items

    def test_shared_gather_view_is_transparent(self, skewed_dataset):
        from repro.core.search import _SharedGatherStore
        grid = Grid.fit(skewed_dataset.bounding_box(), 0.4)
        trajs = skewed_dataset.trajectories[:30]
        trie = RPTrie(grid, "hausdorff").build(trajs)
        shared = _SharedGatherStore(trie.store)
        tids = [t.traj_id for t in trajs[:8]]
        first = shared.gather(tids)
        again = shared.gather(tids)
        assert first[0] is again[0]  # memoized, not rebuilt
        direct = trie.store.gather(tids)
        np.testing.assert_array_equal(first[0], direct[0])
        np.testing.assert_array_equal(first[1], direct[1])
        # Delegation: non-gather attributes reach the wrapped store.
        assert shared.points_of(tids[0]) is trie.store.points_of(tids[0])

    def test_release_group_evicts_oldest_finished_group(self):
        """Groups released while under budget stay eviction-eligible:
        once a later group pushes past the budget, finished groups are
        dropped oldest-first until back under it."""
        from repro.core.search import _SharedGatherStore

        class _FakeStore:
            def __init__(self):
                self.calls = 0

            def gather(self, tids, max_len=None):
                self.calls += 1
                return (np.zeros((len(tids), 4, 2)),
                        np.full(len(tids), 4))

        store = _FakeStore()
        shared = _SharedGatherStore(store, budget_elems=40)
        shared.begin_group("a")
        shared.gather([1, 2])              # 16 elems, under budget
        shared.release_group("a")          # queued, nothing evicted
        assert shared.hits == 0 and shared.misses == 1
        shared.begin_group("b")
        shared.gather([3, 4])
        shared.gather([5, 6])              # 48 elems total: over budget
        shared.release_group("b")          # evicts group a (oldest)
        assert store.calls == 3
        shared.gather([3, 4])              # b survived the eviction
        assert store.calls == 3 and shared.hits == 1
        shared.gather([1, 2])              # a was evicted: rebuilt
        assert store.calls == 4


class TestRunningTopKVector:
    def _result(self, items, **stats):
        return TopKResult(items=items, stats=SearchStats(**stats))

    def test_per_query_folds_are_independent(self):
        vector = RunningTopKVector(2, k=2)
        vector.fold(0, [self._result([(1.0, 1), (2.0, 2)])])
        vector.fold(1, [self._result([(5.0, 5)])])
        assert vector.dk(0) == 2.0
        assert vector.dk(1) == float("inf")
        results = vector.results()
        assert results[0].items == [(1.0, 1), (2.0, 2)]
        assert results[1].items == [(5.0, 5)]

    def test_broadcast_vector_cross_tightens(self):
        vector = RunningTopKVector(3, k=1)
        vector.fold(0, [self._result([(1.0, 1)])])
        vector.fold(1, [self._result([(10.0, 2)])])
        # query 2 holds nothing yet: dk = inf.
        pairwise = np.array([[0.0, 2.0, 0.5],
                             [2.0, 0.0, 9.0],
                             [0.5, 9.0, 0.0]])
        thresholds, tightened = vector.broadcast_vector(pairwise)
        # q1: min(10, 1 + 2) = 3; q2: min(inf, 1 + 0.5) = 1.5.
        assert thresholds.tolist() == [1.0, 3.0, 1.5]
        assert tightened == 2
        # The merges themselves are untouched.
        assert vector.dk(1) == 10.0
        assert vector.dk(2) == float("inf")

    def test_broadcast_without_pairwise_is_identity(self):
        vector = RunningTopKVector(2, k=1)
        vector.fold(0, [self._result([(1.0, 1)])])
        thresholds, tightened = vector.broadcast_vector(None)
        assert thresholds.tolist() == [1.0, float("inf")]
        assert tightened == 0

    def test_stats_fold_field_generically_per_query(self):
        """merge_stats folding stays field-generic under multi-query
        tasks: every SearchStats field sums per query, independently."""
        vector = RunningTopKVector(2, k=3)
        vector.fold(0, [self._result([(1.0, 1)], nodes_visited=3,
                                     exact_refinements=2, nodes_pruned=1)])
        vector.fold(0, [self._result([(2.0, 2)], nodes_visited=4,
                                     exact_refinements=5)])
        vector.fold(1, [self._result([(3.0, 3)], distance_computations=7,
                                     leaf_refinements=2)])
        first, second = vector.results()
        assert first.stats == merge_stats(
            [SearchStats(nodes_visited=3, exact_refinements=2,
                         nodes_pruned=1),
             SearchStats(nodes_visited=4, exact_refinements=5)])
        assert second.stats.distance_computations == 7
        assert second.stats.leaf_refinements == 2
        assert second.stats.nodes_visited == 0


class _ScriptedIndex:
    """Planner-facing fake: scripted probe bounds and top-k items,
    recording every received dk."""

    supports_threshold = True

    def __init__(self, bound, items):
        self.bound = bound
        self.items = items
        self.seen_dks: list[float] = []

    def probe(self, query, dqp=None):
        return PartitionProbe(bound=self.bound,
                              child_bounds=(self.bound,), trajectories=1)

    def top_k(self, query, k, dk=float("inf"), **kwargs):
        self.seen_dks.append(dk)
        return TopKResult(items=[item for item in self.items
                                 if item[0] <= dk][:k])


class _ScriptedPart:
    def __init__(self, index):
        self.index = index


class TestBatchPlannerMechanics:
    def _make_task(self, rp, queries, kwargs_list, shares=None):
        return lambda: [rp.index.top_k(query, 1, **kwargs)
                        for query, kwargs in zip(queries, kwargs_list)]

    def test_cross_query_threshold_reaches_later_waves(self):
        """A query that has found nothing still receives a finite
        threshold derived from its neighbour's results."""
        parts = [_ScriptedPart(_ScriptedIndex(0.0, [(1.0, 7)])),
                 _ScriptedPart(_ScriptedIndex(0.5, [(9.0, 8)]))]
        planner = BatchQueryPlanner(
            ExecutionEngine(), wave_size=1,
            query_distance=lambda a, b: 0.25)
        queries = ["qa", "qb"]
        results, _, report = planner.execute_batch(
            parts, queries, 1, [{}, {}], make_task=self._make_task)
        # Wave 2 broadcast: both queries hold dk=1.0 from partition 0,
        # and the cross bound 1.0 + 0.25 cannot beat it — but partition
        # 1's searches must have received the finite own-dk threshold.
        finite = [dk for dk in parts[1].index.seen_dks
                  if np.isfinite(dk)]
        assert len(finite) == 2
        # Both queries share each wave's partition: 2 grouped tasks
        # where per-query dispatch would have used 4.
        assert report.tasks_dispatched == 2
        assert report.grouped_queries == 4
        assert results[0].items == [(1.0, 7)]

    def test_cross_query_tightening_counted_and_used(self):
        # Partition 0 serves only query a (b's probe bound exceeds any
        # threshold it could derive... so give b an empty first hit):
        # a finds dk=1 in wave 1; b finds nothing (its partition-0
        # items all filtered by nothing — empty list).  Wave 2: b's own
        # dk is inf, the cross bound 1 + 0.5 = 1.5 must be broadcast.
        parts = [_ScriptedPart(_ScriptedIndex(0.0, [(1.0, 7)])),
                 _ScriptedPart(_ScriptedIndex(0.2, [(9.0, 8)]))]
        parts[0].index.items = [(1.0, 7)]

        class _EmptyFirst(_ScriptedIndex):
            def top_k(self, query, k, dk=float("inf"), **kwargs):
                self.seen_dks.append(dk)
                if query == "qb":
                    return TopKResult(items=[])
                return super().top_k(query, k, dk=dk, **kwargs)

        parts[0] = _ScriptedPart(_EmptyFirst(0.0, [(1.0, 7)]))
        planner = BatchQueryPlanner(
            ExecutionEngine(), wave_size=1,
            query_distance=lambda a, b: 0.5)
        results, _, report = planner.execute_batch(
            parts, ["qa", "qb"], 1, [{}, {}],
            make_task=self._make_task)
        assert report.cross_query_tightenings >= 1
        # qb's wave-2 search saw the cross-derived 1.5 threshold.
        assert any(dk == pytest.approx(1.5)
                   for dk in parts[1].index.seen_dks)

    def test_pairwise_skips_duplicates_and_respects_limit(self,
                                                          monkeypatch):
        """Query-to-query distances are only computed between distinct
        representatives, and the legacy greedy mode disables cross
        reuse outright past CROSS_QUERY_LIMIT while the indexed mode
        keeps it under a per-lookup budget."""
        import repro.cluster.batch as batch_mod
        calls = []

        def distance(a, b):
            calls.append((a, b))
            return 0.5

        parts = [_ScriptedPart(_ScriptedIndex(0.0, [(1.0, 7)])),
                 _ScriptedPart(_ScriptedIndex(0.2, [(2.0, 8)]))]
        queries = [Trajectory([(0.0, 0.0)], traj_id=1),
                   Trajectory([(0.0, 0.0)], traj_id=2),   # duplicate
                   Trajectory([(3.0, 3.0)], traj_id=3)]
        for query_index in (True, False):
            calls.clear()
            planner = BatchQueryPlanner(ExecutionEngine(), wave_size=1,
                                        query_distance=distance,
                                        query_index=query_index)
            _, _, report = planner.execute_batch(
                parts, queries, 1, [{}, {}, {}],
                make_task=self._make_task)
            assert report.queries_deduplicated == 1
            # Only the 2 representatives pair up: one distance (the
            # index's single routing insert, or the one matrix cell).
            assert len(calls) == 1
            assert report.query_distance_calls == 1
        calls.clear()
        monkeypatch.setattr(batch_mod, "CROSS_QUERY_LIMIT", 1)
        legacy = BatchQueryPlanner(ExecutionEngine(), wave_size=1,
                                   query_distance=distance,
                                   query_index=False)
        legacy.execute_batch(parts, queries, 1, [{}, {}, {}],
                             make_task=self._make_task)
        assert calls == []  # over the limit: cross reuse disabled
        indexed = BatchQueryPlanner(ExecutionEngine(), wave_size=1,
                                    query_distance=distance)
        _, _, report = indexed.execute_batch(
            parts, queries, 1, [{}, {}, {}], make_task=self._make_task)
        # Indexed mode still couples the two representatives — the cap
        # survives only as a fresh-call budget per lookup, and the one
        # tree-build call stays within it.
        assert len(calls) == 1
        assert report.query_distance_calls == 1

    def test_per_query_wave_accounting(self, skewed_dataset):
        """Satellite: waves / threshold_broadcasts / partitions_skipped
        sum correctly per query onto each result's SearchStats."""
        engine = _build(skewed_dataset, "hausdorff")
        queries = [skewed_dataset.trajectories[i] for i in (0, 3)]
        batch = engine.top_k_batch(queries, 6)
        assert batch.plan is not None
        assert batch.plan.num_queries == 2
        for result, plan in zip(batch.results, batch.plan.per_query):
            stats = result.stats
            assert stats.waves == len(plan.waves)
            assert stats.threshold_broadcasts == plan.threshold_broadcasts
            assert stats.partitions_skipped == plan.partitions_skipped
            dispatched = [pid for w in plan.waves for pid in w.partitions]
            skipped = [pid for w in plan.waves for pid in w.skipped]
            # Every partition is dispatched or provably skipped, once.
            assert sorted(dispatched + skipped) == list(range(12))
        total_partitions = sum(len(w.partitions)
                               for plan in batch.plan.per_query
                               for w in plan.waves)
        assert batch.plan.partition_queries_dispatched == total_partitions
        assert batch.plan.grouped_queries == total_partitions


class TestProbeCache:
    def test_repeated_queries_hit_the_cache(self, skewed_dataset):
        engine = _build(skewed_dataset, "hausdorff")
        cache = engine.context.probe_cache
        query = skewed_dataset.trajectories[0]
        engine.top_k(query, 4)
        misses = cache.misses
        assert cache.hits == 0
        engine.top_k(query, 4)
        assert cache.hits == misses  # every partition served cached
        assert cache.misses == misses

    def test_batch_reuses_single_query_probes(self, skewed_dataset):
        engine = _build(skewed_dataset, "hausdorff")
        cache = engine.context.probe_cache
        queries = skewed_dataset.trajectories[:3]
        for query in queries:
            engine.top_k(query, 4)
        misses = cache.misses
        batch = engine.top_k_batch(queries, 4)
        assert cache.misses == misses  # no probe recomputed
        assert cache.hits >= misses
        _assert_exact(engine, queries, batch.results, 4)

    def test_insert_invalidates_probes(self, skewed_dataset):
        engine = _build(skewed_dataset, "hausdorff",
                        num_partitions=4)
        cache = engine.context.probe_cache
        query = skewed_dataset.trajectories[0]
        engine.top_k(query, 4)
        epoch = cache.epoch
        engine.insert(Trajectory([(1.0, 1.0), (1.2, 1.1)], traj_id=5000))
        assert cache.epoch == epoch + 1
        hits = cache.hits
        engine.top_k(query, 4)
        assert cache.hits == hits  # stale probes were dropped
        # And the inserted trajectory is visible to batch queries.
        ids = set()
        batch = engine.top_k_batch([Trajectory([(1.0, 1.0), (1.2, 1.1)],
                                               traj_id=6000)], 1)
        ids.update(batch.results[0].ids())
        assert 5000 in ids

    def test_capacity_bounds_entries(self):
        cache = ProbeCache(capacity=2)
        cache.put(0, b"a", "p0")
        cache.put(1, b"a", "p1")
        cache.put(2, b"a", "p2")
        assert cache.get(0, b"a") is None  # evicted oldest
        assert cache.get(2, b"a") == "p2"

    def test_fingerprint_depends_on_query_and_dqp(self):
        query = Trajectory([(0.0, 0.0), (1.0, 1.0)], traj_id=1)
        other = Trajectory([(0.0, 0.0), (1.0, 2.0)], traj_id=1)
        fp1 = ProbeCache.fingerprint(query)
        fp2 = ProbeCache.fingerprint(other)
        fp3 = ProbeCache.fingerprint(query, np.array([1.0]))
        assert fp1 != fp2 and fp1 != fp3
        assert ProbeCache.fingerprint(query) == fp1
        assert ProbeCache.fingerprint("not a trajectory") is None


class TestNearDuplicateSharing:
    def _jitter(self, rng, traj, scale, traj_id):
        points = traj.points + rng.normal(0.0, scale, traj.points.shape)
        return Trajectory(np.clip(points, 0.001, SPAN - 0.001),
                          traj_id=traj_id)

    @pytest.mark.parametrize("name", ["hausdorff", "dtw", "edr"])
    def test_share_groups_stay_bit_identical(self, skewed_dataset, name):
        """share_eps only shares plans and tensors — every member of a
        share group still gets its exact answer."""
        rng = np.random.default_rng(11)
        engine = _build(skewed_dataset, name)
        base = [skewed_dataset.trajectories[i] for i in (0, 5)]
        jittered = [self._jitter(rng, t, 1e-4, 700 + i)
                    for i, t in enumerate(base * 2)]
        queries = base + jittered + [skewed_dataset.trajectories[40]]
        batch = engine.top_k_batch(queries, 8, plan_options={
            "share_eps": 1.0})
        _assert_exact(engine, queries, batch.results, 8)
        assert batch.plan.share_eps == 1.0
        assert batch.plan.share_groups >= 1
        assert batch.plan.queries_shared >= 2

    def test_members_adopt_rep_plan_without_probing(self, skewed_dataset):
        """Share-group members never touch the probe cache and reuse
        the representative's promise order and wave cut."""
        rng = np.random.default_rng(13)
        engine = _build(skewed_dataset, "hausdorff")
        base = skewed_dataset.trajectories[2]
        twin = self._jitter(rng, base, 1e-4, 801)
        batch = engine.top_k_batch([base, twin], 5,
                                   plan_options={"share_eps": 1.0})
        report = batch.plan
        assert report.queries_shared == 1
        # Only the representative probed: 12 partitions, 12 misses.
        assert report.probe_cache_misses == 12
        assert report.probe_cache_hits == 0
        rep_plan, member_plan = report.per_query
        assert member_plan.order == rep_plan.order
        assert member_plan.probe_cache_misses == 0
        # Metric measure: adopted bounds are the rep's, shifted down.
        assert all(mb <= rb for mb, rb in zip(member_plan.probe_bounds,
                                              rep_plan.probe_bounds))

    def test_adopted_probes_shift_metric_only(self):
        probe = PartitionProbe(bound=1.0, child_bounds=(1.0, 2.5),
                               trajectories=9)

        def distance(a, b):
            return 0.0

        metric = BatchQueryPlanner(ExecutionEngine(),
                                   query_distance=distance,
                                   share_distance=distance)
        adopted = metric._adopted_probes([probe, None], 0.4)
        assert adopted[0].bound == pytest.approx(0.6)
        assert adopted[0].child_bounds == (0.6, 2.1)
        assert adopted[0].trajectories == 9
        assert adopted[1] is None
        # Shifts never go negative.
        floor = metric._adopted_probes([probe], 3.0)[0]
        assert floor.bound == 0.0 and floor.child_bounds == (0.0, 0.0)
        # Without a metric the adopted probes carry no skipping power.
        loose = BatchQueryPlanner(ExecutionEngine())
        assert loose._adopted_probes([probe, None], 0.1) == [None, None]

    def test_mismatched_share_distance_never_shifts_or_seeds(self):
        """A clustering distance that is not the metric distance must
        forfeit bound shifting and pairwise seeding — its values
        certify nothing under the triangle inequality."""
        probe = PartitionProbe(bound=1.0, child_bounds=(1.0,),
                               trajectories=3)
        planner = BatchQueryPlanner(ExecutionEngine(),
                                    query_distance=lambda a, b: 9.0,
                                    share_distance=lambda a, b: 0.0)
        assert not planner._share_distance_is_metric
        assert planner._adopted_probes([probe], 0.5) == [None]
        # Bound-method equality still qualifies (drivers return a
        # fresh bound method per call).
        from repro.distances import get_measure
        measure = get_measure("hausdorff")
        same = BatchQueryPlanner(ExecutionEngine(),
                                 query_distance=measure.distance,
                                 share_distance=measure.distance)
        assert same._share_distance_is_metric

    def test_share_clustering_is_greedy_and_deterministic(self):
        planner = BatchQueryPlanner(
            ExecutionEngine(), share_eps=1.0,
            share_distance=lambda a, b: abs(a.points[0, 0]
                                            - b.points[0, 0]))
        queries = [Trajectory([(x, 0.0)], traj_id=i)
                   for i, x in enumerate([0.0, 0.5, 5.0, 0.9, 5.8])]
        report = BatchPlanReport()
        rep_of, dist, _ = planner._share_clusters(
            queries, list(range(5)), report)
        assert rep_of == {0: 0, 1: 0, 2: 2, 3: 0, 4: 2}
        assert dist[1] == pytest.approx(0.5)
        assert dist[4] == pytest.approx(0.8)
        assert report.share_groups == 2
        assert report.queries_shared == 3

    def test_share_clustering_caps_representative_comparisons(
            self, monkeypatch):
        """Driver-side clustering cost is bounded: each query compares
        against at most CROSS_QUERY_LIMIT representatives."""
        import repro.cluster.batch as batch_mod
        monkeypatch.setattr(batch_mod, "CROSS_QUERY_LIMIT", 2)
        calls = []

        def distance(a, b):
            calls.append((a, b))
            return 100.0  # nobody clusters: representative list grows

        planner = BatchQueryPlanner(ExecutionEngine(), share_eps=0.1,
                                    share_distance=distance)
        queries = [Trajectory([(float(i), 0.0)], traj_id=i)
                   for i in range(6)]
        report = BatchPlanReport()
        rep_of, _, _ = planner._share_clusters(queries, list(range(6)),
                                               report)
        assert all(rep_of[i] == i for i in range(6))
        # Uncapped this would be 0+1+2+3+4+5 = 15 comparisons.
        assert len(calls) == 0 + 1 + 2 + 2 + 2 + 2

    def test_share_eps_inert_without_share_distance(self, skewed_dataset):
        """A driver that supplies no clustering distance (the base
        DistributedTopK) silently ignores share_eps."""
        engine = make_baseline("ls", skewed_dataset, "hausdorff",
                               num_partitions=4)
        engine.build()
        queries = skewed_dataset.trajectories[:3]
        batch = engine.top_k_batch(queries, 4,
                                   plan_options={"share_eps": 100.0})
        assert batch.plan.share_groups == 0
        assert batch.plan.queries_shared == 0
        _assert_exact(engine, queries, batch.results, 4,
                      measure=get_measure("hausdorff"))


class TestSampledBounds:
    def test_sampled_bound_tightens_non_metric_batches(self,
                                                       skewed_dataset):
        """DTW batches (no triangle inequality) still cross-tighten:
        the sampled banded bound produces finite sibling thresholds."""
        rng = np.random.default_rng(17)
        engine = _build(skewed_dataset, "dtw")
        base = [skewed_dataset.trajectories[i] for i in (0, 4, 8)]
        jittered = [Trajectory(t.points + rng.normal(0, 1e-3,
                                                     t.points.shape),
                               traj_id=900 + i)
                    for i, t in enumerate(base)]
        queries = base + jittered
        tightened = engine.top_k_batch(queries, 6, plan_options={
            "share_eps": 1.0})
        assert tightened.plan.sampled_tightenings > 0
        assert tightened.plan.cross_query_tightenings == 0  # non-metric
        _assert_exact(engine, queries, tightened.results, 6)

    def test_disabled_sampled_bound_is_a_noop_for_non_metric(
            self, skewed_dataset):
        """Boundary: with sample_size=0 a non-metric batch simply runs
        with per-query thresholds — no error, no cross coupling."""
        engine = _build(skewed_dataset, "dtw")
        queries = [skewed_dataset.trajectories[i] for i in (0, 3, 7)]
        batch = engine.top_k_batch(queries, 5,
                                   plan_options={"sample_size": 0})
        assert batch.plan.sampled_tightenings == 0
        assert batch.plan.cross_query_tightenings == 0
        _assert_exact(engine, queries, batch.results, 5)

    def test_small_sample_size_is_raised_to_k_not_disabled(self):
        """A configured sample_size below k is clamped up to k (only 0
        disables the bound, as documented)."""
        planner = BatchQueryPlanner(ExecutionEngine(),
                                    sampled_bound=lambda a, b: 1.0,
                                    sample_size=3)
        merges = RunningTopKVector(1, k=5)
        merges.fold(0, [TopKResult(items=[(0.1, 1), (0.2, 2), (0.3, 3),
                                          (0.4, 4), (0.5, 5)])])
        lookup = {tid: np.zeros((1, 2)) for tid in (1, 2, 3, 4, 5)}
        queries = [Trajectory([(0.0, 0.0)], traj_id=1)]
        bounds = planner._sampled_bounds(queries, [0], 5, merges, lookup)
        assert bounds is not None and bounds[0] == pytest.approx(1.0)
        # With fewer than k distinct candidates found, no bound exists.
        sparse = RunningTopKVector(1, k=5)
        sparse.fold(0, [TopKResult(items=[(0.1, 1), (0.2, 2)])])
        assert planner._sampled_bounds(queries, [0], 5, sparse,
                                       lookup) is None
        # sample_size=0 is the only off switch.
        off = BatchQueryPlanner(ExecutionEngine(),
                                sampled_bound=lambda a, b: 1.0,
                                sample_size=0)
        assert off._sampled_bounds(queries, [0], 5, merges,
                                   lookup) is None

    def test_sampled_bounds_take_kth_smallest_upper_bound(self):
        queries = [Trajectory([(0.0, 0.0)], traj_id=1)]
        planner = BatchQueryPlanner(
            ExecutionEngine(),
            sampled_bound=lambda a, b: float(b[0, 0]))
        merges = RunningTopKVector(1, k=2)
        merges.fold(0, [TopKResult(items=[(1.0, 10), (2.0, 11),
                                          (3.0, 12)])])
        lookup = {10: np.array([[7.0, 0.0]]),
                  11: np.array([[5.0, 0.0]]),
                  12: np.array([[9.0, 0.0]])}
        bounds = planner._sampled_bounds(queries, [0], 2, merges, lookup)
        # Upper bounds 7, 5, 9 -> 2nd smallest is 7.
        assert bounds[0] == pytest.approx(7.0)

    def test_broadcast_vector_folds_external_bounds(self):
        vector = RunningTopKVector(2, k=1)
        vector.fold(0, [TopKResult(items=[(4.0, 1)])])
        bounds = np.array([2.0, 3.5])
        thresholds, tightened = vector.broadcast_vector(None,
                                                        bounds=bounds)
        assert thresholds.tolist() == [2.0, 3.5]
        assert tightened == 0  # pairwise tightenings only
        # The merges themselves stay untouched.
        assert vector.dk(0) == 4.0

    def test_sample_items_dedupes_and_ranks(self):
        vector = RunningTopKVector(2, k=3)
        vector.fold(0, [TopKResult(items=[(1.0, 5), (2.0, 6)])])
        vector.fold(1, [TopKResult(items=[(0.5, 6), (3.0, 7)])])
        assert vector.sample_items(10) == [(0.5, 6), (1.0, 5), (3.0, 7)]
        assert vector.sample_items(1) == [(0.5, 6)]


class TestRunningTopKVectorBoundaries:
    def _scripted_parts(self):
        return [_ScriptedPart(_ScriptedIndex(0.0, [(1.0, 7)])),
                _ScriptedPart(_ScriptedIndex(0.2, [(2.0, 8)]))]

    def _make_task(self, rp, queries, kwargs_list, shares=None):
        return lambda: [rp.index.top_k(query, 1, **kwargs)
                        for query, kwargs in zip(queries, kwargs_list)]

    def test_cross_query_cap_at_64_distinct_queries(self):
        """Boundary: the legacy greedy mode builds the pairwise matrix
        at exactly CROSS_QUERY_LIMIT (64) distinct queries and disables
        cross reuse at 65; the indexed mode keeps cross reuse alive
        past the cap with strictly fewer distance calls than the full
        matrix would need."""
        calls = []

        def distance(a, b):
            calls.append((a, b))
            return 0.25

        for count, expect_pairs in ((64, 64 * 63 // 2), (65, 0)):
            calls.clear()
            planner = BatchQueryPlanner(ExecutionEngine(), wave_size=1,
                                        query_distance=distance,
                                        query_index=False)
            queries = [f"q{i}" for i in range(count)]
            results, _, report = planner.execute_batch(
                self._scripted_parts(), queries, 1,
                [{} for _ in queries], make_task=self._make_task)
            assert len(calls) == expect_pairs, count
            assert report.query_distance_calls == expect_pairs
            assert all(r.items == [(1.0, 7)] for r in results)
        # Lifted cap: at 65 queries the indexed mode still tightens —
        # only q0 finds anything in wave 1, so the other 64 queries
        # enter wave 2 with dk=inf and receive the finite cross bound
        # 1.0 + 0.25 — within the per-lookup fresh-call budget instead
        # of the all-pairs matrix (the lookups themselves ride on the
        # pair distances the tree build already cached).
        class _FirstOnly(_ScriptedIndex):
            def top_k(self, query, k, dk=float("inf"), **kwargs):
                self.seen_dks.append(dk)
                if query != "q0":
                    return TopKResult(items=[])
                return TopKResult(items=list(self.items))

        calls.clear()
        parts = [_ScriptedPart(_FirstOnly(0.0, [(1.0, 7)])),
                 _ScriptedPart(_ScriptedIndex(0.2, [(1.0, 7)]))]
        planner = BatchQueryPlanner(ExecutionEngine(), wave_size=1,
                                    query_distance=distance)
        queries = [f"q{i}" for i in range(65)]
        results, _, report = planner.execute_batch(
            parts, queries, 1,
            [{} for _ in queries], make_task=self._make_task)
        assert report.cross_query_tightenings == 64
        assert 0 < len(calls) < 65 * 64 // 2
        assert report.query_distance_calls == len(calls)
        # The 64 coupled searches saw the cross-derived 1.25 threshold.
        assert sum(dk == pytest.approx(1.25)
                   for dk in parts[1].index.seen_dks) == 64
        assert all(r.items == [(1.0, 7)] for r in results)

    def test_single_query_batch(self, skewed_dataset):
        """Boundary: a batch of one runs the full machinery (no
        pairwise, no sharing partner) and matches the query alone."""
        engine = _build(skewed_dataset, "hausdorff")
        query = skewed_dataset.trajectories[3]
        batch = engine.top_k_batch([query], 5, plan_options={
            "share_eps": 1.0})
        assert batch.plan.num_queries == 1
        assert batch.plan.cross_query_tightenings == 0
        assert batch.plan.share_groups == 0
        _assert_exact(engine, [query], batch.results, 5)

    def test_empty_vector_broadcast(self):
        vector = RunningTopKVector(0, k=3)
        thresholds, tightened = vector.broadcast_vector(None)
        assert thresholds.tolist() == [] and tightened == 0
        assert vector.results() == []


class TestProbeCacheEpochRegression:
    def test_insert_between_batches_invalidates_and_is_counted(
            self, skewed_dataset):
        """Regression: an insert() between two identical batches must
        drop every cached probe — the second batch re-probes (misses
        in its BatchPlanReport) instead of serving stale bounds, and
        its results reflect the mutated index."""
        engine = _build(skewed_dataset, "hausdorff", num_partitions=4)
        queries = [skewed_dataset.trajectories[i] for i in (0, 2)]

        first = engine.top_k_batch(queries, 4)
        assert first.plan.probe_cache_misses == 8  # 2 queries x 4 parts
        assert first.plan.probe_cache_hits == 0

        warm = engine.top_k_batch(queries, 4)
        assert warm.plan.probe_cache_hits == 8
        assert warm.plan.probe_cache_misses == 0

        epoch = engine.context.probe_cache.epoch
        probe = Trajectory(queries[0].points + 1e-4, traj_id=7000)
        engine.insert(probe)
        assert engine.context.probe_cache.epoch == epoch + 1

        cold = engine.top_k_batch(queries, 4)
        assert cold.plan.probe_cache_misses == 8  # the insert's miss
        assert cold.plan.probe_cache_hits == 0
        # And the re-probed batch sees the inserted trajectory.
        fresh = engine.top_k_batch([Trajectory(probe.points,
                                               traj_id=7001)], 1)
        assert fresh.results[0].ids() == [7000]
        _assert_exact(engine, queries, cold.results, 4,
                      corpus=skewed_dataset.trajectories + [probe])


class TestSchedulerFeedback:
    def test_lpt_order_sorts_heaviest_first(self):
        assert lpt_order([1.0, 5.0, 3.0]) == [1, 2, 0]
        assert lpt_order([2.0, 2.0, 7.0]) == [2, 0, 1]  # ties: index order
        assert lpt_order([]) == []

    def test_single_query_waves_dispatch_heaviest_first(self, skewed_dataset):
        engine = _build(skewed_dataset, "hausdorff")
        query = skewed_dataset.trajectories[1]
        outcome = engine.top_k(query, 6)
        plan = outcome.plan
        # Wave membership is still promise-cut: each wave's partitions
        # (dispatched + skipped) form a contiguous slice of the order.
        flat = []
        for wave in plan.waves:
            members = sorted(wave.partitions + wave.skipped,
                             key=plan.order.index)
            flat.extend(members)
        assert flat == plan.order

    def test_task_weight_estimates(self):
        probe = PartitionProbe(bound=0.5, child_bounds=(0.5, 1.0, 3.0),
                               trajectories=30)
        full = QueryPlanner.task_weight(probe, float("inf"))
        assert full == pytest.approx(30.0)
        partial = QueryPlanner.task_weight(probe, 1.5)
        assert partial == pytest.approx(30 * 2 / 3)
        assert QueryPlanner.task_weight(None, 1.0) == 0.0


class TestMultiQueryHints:
    def test_run_waves_accepts_per_wave_hint_overrides(self):
        engine = ExecutionEngine("auto")
        base = WorkloadHints(measure="hausdorff", partition_points=800,
                             queries_per_task=64.0)
        narrow = WorkloadHints(measure="hausdorff", partition_points=800,
                               queries_per_task=1.0)

        def waves():
            yield [lambda: 1, lambda: 2], narrow

        engine.run_waves(waves(), hints=base)
        # The per-wave override (width 1) keeps the dispatch serial
        # where the whole-batch estimate (width 64) would go threaded.
        assert engine.last_backend == "serial"
        engine.close()

    def test_queries_per_task_scales_cost_model(self):
        base = WorkloadHints(measure="hausdorff", partition_points=800,
                             num_tasks=8)
        assert choose_backend(base) == "serial"
        grouped = WorkloadHints(measure="hausdorff", partition_points=800,
                                num_tasks=8, queries_per_task=16)
        assert choose_backend(grouped) == "thread"

    def test_auto_engine_handles_batched_plan(self, skewed_dataset):
        engine = _build(skewed_dataset, "hausdorff", engine="auto")
        queries = skewed_dataset.trajectories[:3]
        batch = engine.top_k_batch(queries, 5)
        serial = _build(skewed_dataset, "hausdorff")
        expected = serial.top_k_batch(queries, 5)
        assert [r.items for r in batch.results] == \
            [r.items for r in expected.results]
        engine.context.engine.close()
