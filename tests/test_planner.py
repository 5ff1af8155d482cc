"""The two-phase query planner and cross-partition threshold propagation.

The load-bearing property: a waved plan — probe, promise-ordered
dispatch, running-merge threshold broadcasts, probe-bound partition
skips — must return **bit-identical** results to a single-shot plan
(one unpruned wave over every partition, the paper's map-then-merge)
for every measure, because threshold seeding is strictly work-pruning;
both must match the brute-force oracle (:mod:`repro.testing.oracle`).
Alongside that property test live unit tests
for the pieces: the incremental driver merge (tie-breaking, stats
summation, fold associativity), the probe's soundness, the
threshold-seeded heap and ``local_search(dk=...)``, wave dispatch and
barrier-aware makespan simulation, the engine's one-shot calibration,
and the ``dk``-driven adaptive band screen.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.driver import (
    RunningTopK,
    merge_range,
    merge_stats,
    merge_top_k,
)
from repro.cluster.engine import ExecutionEngine, WorkloadHints, choose_backend
from repro.cluster.planner import QueryPlanner
from repro.cluster.rdd import ClusterContext
from repro.cluster.scheduler import (
    ClusterSpec,
    TaskTiming,
    simulate_schedule,
    simulate_schedule_waves,
)
from repro.core.grid import Grid
from repro.core.rptrie import RPTrie
from repro.core.search import (
    ResultHeap,
    SearchStats,
    TopKResult,
    local_search,
    probe_search,
)
from repro.core.store import TrajectoryStore
from repro.distances.base import get_measure
from repro.distances.batch import BatchRefiner, refine_top_k
from repro.distances.threshold import distance_with_threshold
from repro.repose import Repose, make_baseline
from repro.testing import oracle
from repro.types import BoundingBox, Trajectory, TrajectoryDataset

MEASURES = ["hausdorff", "frechet", "dtw", "erp", "edr", "lcss"]
SPAN = 10.0


def _clustered_trajectories(count: int, seed: int) -> list[Trajectory]:
    """Skewed data: most trajectories huddle in one hot corner, the
    rest spread out — so partitions differ sharply in promise."""
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
        name="skewed", trajectories=_clustered_trajectories(90, seed=5))


def _build(dataset, measure, **kwargs):
    kwargs.setdefault("delta", 0.4)
    kwargs.setdefault("num_partitions", 12)
    kwargs.setdefault("plan_options", {"wave_size": 3})
    return Repose.build(dataset, measure=measure, **kwargs)


def _single_shot(dataset, measure, **kwargs):
    """The same engine with every partition in one wave: no threshold
    ever reaches a partition, so nothing is pruned by propagation."""
    partitions = kwargs.setdefault("num_partitions", 12)
    return _build(dataset, measure, plan_options={"wave_size": partitions},
                  **kwargs)


class TestWavedBitIdentity:
    @pytest.mark.parametrize("name", MEASURES)
    def test_waved_equals_single_shot(self, skewed_dataset, name):
        """The acceptance property: the waved plan is bit-identical to
        a single-shot plan — same items, same distances, same
        tie-breaks — and to brute force, for every measure and several
        queries/k."""
        engine = _build(skewed_dataset, name)
        one_wave = _single_shot(skewed_dataset, name)
        truth = oracle.Oracle(engine.measure, skewed_dataset.trajectories)
        for qi, k in ((0, 1), (1, 7), (17, 25)):
            query = skewed_dataset.trajectories[qi]
            waved = engine.top_k(query, k)
            single = one_wave.top_k(query, k)
            assert len(single.plan.waves) == 1
            assert waved.result.items == single.result.items
            truth.check_top_k(waved.result.items, query, k)

    @pytest.mark.parametrize("name", ["hausdorff", "dtw"])
    def test_waved_range_equals_single_shot(self, skewed_dataset, name):
        engine = _build(skewed_dataset, name)
        query = skewed_dataset.trajectories[2]
        radius = engine.top_k(query, 8).result.items[-1][0]
        waved = engine.range_query(query, radius)
        single = _single_shot(skewed_dataset, name).range_query(query,
                                                                 radius)
        assert waved.result.items == single.result.items
        oracle.Oracle(engine.measure, skewed_dataset.trajectories
                      ).check_range(waved.result.items, query, radius)

    def test_waved_never_refines_more(self, skewed_dataset):
        """Propagation may only remove work: the waved plan's exact
        refinement and candidate counts never exceed single-shot."""
        engine = _build(skewed_dataset, "dtw")
        query = skewed_dataset.trajectories[3]
        waved = engine.top_k(query, 10).result.stats
        single = _single_shot(skewed_dataset, "dtw").top_k(
            query, 10).result.stats
        assert waved.exact_refinements <= single.exact_refinements
        assert waved.distance_computations <= single.distance_computations

    def test_ties_at_global_kth_survive_broadcast(self):
        """Duplicate trajectories land in different partitions; the
        broadcast threshold must not drop the smaller-tid twin that
        brute force keeps at the k-th boundary."""
        base = _clustered_trajectories(40, seed=9)
        twin_points = [(1.0, 1.0), (1.5, 1.2), (2.0, 1.1)]
        trajs = base + [Trajectory(twin_points, traj_id=200 + i)
                        for i in range(6)]
        dataset = TrajectoryDataset(name="twins", trajectories=trajs)
        engine = _build(dataset, "hausdorff", strategy="random",
                        num_partitions=8, plan_options={"wave_size": 2})
        query = Trajectory(twin_points, traj_id=999)
        for k in (2, 4, 6):
            waved = engine.top_k(query, k)
            assert waved.result.items == oracle.brute_force(
                engine.measure, query, trajs, k)

    def test_baseline_indexes_run_under_waves(self, skewed_dataset):
        """Indexes without probe/threshold capabilities still execute
        correctly under the default waved plan."""
        engine = make_baseline("ls", skewed_dataset, "hausdorff",
                               num_partitions=6)
        engine.build()
        query = skewed_dataset.trajectories[0]
        waved = engine.top_k(query, 5)
        oracle.Oracle(get_measure("hausdorff"), skewed_dataset.trajectories
                      ).check_top_k(waved.result.items, query, 5)


class TestWaveStats:
    def test_plan_report_exposed(self, skewed_dataset):
        engine = _build(skewed_dataset, "hausdorff")
        query = skewed_dataset.trajectories[1]
        outcome = engine.top_k(query, 6)
        report = outcome.plan
        assert report is not None and report.mode == "waves"
        assert len(report.waves) == 4                # 12 partitions / 3
        assert sorted(report.order) == list(range(12))
        assert len(report.probe_bounds) == 12
        dispatched = [pid for w in report.waves for pid in w.partitions]
        skipped = [pid for w in report.waves for pid in w.skipped]
        assert sorted(dispatched + skipped) == list(range(12))
        # Per-wave pruned counts and thresholds are populated.
        assert all(w.dk_after <= w.dk_before for w in report.waves)
        stats = outcome.result.stats
        assert stats.waves == len(report.waves)
        assert stats.threshold_broadcasts == report.threshold_broadcasts
        assert stats.partitions_skipped == report.partitions_skipped

    def test_threshold_broadcasts_happen(self, skewed_dataset):
        engine = _build(skewed_dataset, "dtw")
        query = skewed_dataset.trajectories[4]
        outcome = engine.top_k(query, 5)
        # After wave 1 the heap holds 5 results, so every later wave
        # must have received a finite threshold.
        assert outcome.result.stats.threshold_broadcasts >= 1
        assert outcome.plan.waves[1].dk_before < float("inf")

    def test_single_shot_is_one_probe_ordered_wave(self, skewed_dataset):
        outcome = _single_shot(skewed_dataset, "hausdorff").top_k(
            skewed_dataset.trajectories[0], 3)
        assert [len(w.partitions) for w in outcome.plan.waves] == [12]
        assert outcome.plan.threshold_broadcasts == 0
        assert outcome.result.stats.waves == 1

    def test_wave_size_floor_applies_without_options(self, skewed_dataset):
        engine = Repose.build(skewed_dataset, measure="hausdorff",
                              delta=0.4, num_partitions=4)
        outcome = engine.top_k(skewed_dataset.trajectories[0], 3)
        assert len(outcome.plan.waves) == 1          # floor of 8 per wave


class TestDriverMerge:
    def _result(self, items, **stats):
        return TopKResult(items=items, stats=SearchStats(**stats))

    def test_merge_tie_breaks_by_tid(self):
        a = self._result([(1.0, 9), (2.0, 4)])
        b = self._result([(1.0, 2), (2.0, 14)])
        merged = merge_top_k([a, b], k=3)
        assert merged.items == [(1.0, 2), (1.0, 9), (2.0, 4)]

    def test_merge_stats_sums_every_field(self):
        a = SearchStats(nodes_visited=1, nodes_pruned=2, leaf_refinements=3,
                        distance_computations=4, exact_refinements=5,
                        waves=1, threshold_broadcasts=1,
                        partitions_skipped=2)
        b = SearchStats(nodes_visited=10, nodes_pruned=20,
                        leaf_refinements=30, distance_computations=40,
                        exact_refinements=50, waves=1,
                        threshold_broadcasts=2, partitions_skipped=3)
        merged = merge_stats([a, b])
        assert merged == SearchStats(11, 22, 33, 44, 55, 2, 3, 5)

    def test_merge_range_sums_stats(self):
        a = self._result([(0.5, 1)], nodes_visited=3, exact_refinements=2)
        b = self._result([(0.2, 7)], nodes_visited=4, exact_refinements=1)
        merged = merge_range([a, b])
        assert merged.items == [(0.2, 7), (0.5, 1)]
        assert merged.stats.nodes_visited == 7
        assert merged.stats.exact_refinements == 3

    def test_running_fold_matches_one_shot_merge(self):
        rng = np.random.default_rng(0)
        partials = [
            self._result(sorted((round(float(d), 3), int(t))
                                for d, t in zip(rng.uniform(0, 5, 6),
                                                rng.integers(0, 1000, 6))),
                         nodes_visited=i)
            for i in range(7)
        ]
        one_shot = merge_top_k(partials, k=9)
        for split in (1, 2, 3):
            running = RunningTopK(9)
            for lo in range(0, len(partials), split):
                running.fold(partials[lo:lo + split])
            assert running.result().items == one_shot.items
            assert running.result().stats == one_shot.stats

    def test_running_dk_only_finite_when_full(self):
        running = RunningTopK(3)
        assert running.dk == float("inf")
        running.fold([self._result([(1.0, 1), (2.0, 2)])])
        assert running.dk == float("inf")
        running.fold([self._result([(0.5, 3)])])
        assert running.dk == 2.0


class TestThresholdSeeding:
    def test_heap_threshold_is_strict(self):
        heap = ResultHeap(3, threshold=2.0)
        heap.offer(2.0, 1)      # == threshold: rejected
        heap.offer(1.0, 2)
        heap.offer(3.0, 3)
        assert heap.sorted_items() == [(1.0, 2)]
        assert heap.dk == 2.0   # unfilled heap still caps at threshold
        clone = heap.clone()
        assert clone.threshold == 2.0

    @pytest.mark.parametrize("name", MEASURES)
    def test_seeded_search_keeps_survivors_exact(self, skewed_dataset, name):
        """Every item a dk-seeded search returns must appear, with the
        same distance, in the unseeded result (seeding only drops
        candidates provably outside the global top-k)."""
        grid = Grid.fit(skewed_dataset.bounding_box(), 0.4)
        trajs = skewed_dataset.trajectories[:40]
        trie = RPTrie(grid, name).build(trajs)
        query = trajs[6]
        plain = local_search(trie, query, 8)
        dk = plain.items[3][0]
        seeded = local_search(trie, query, 8, dk=dk)
        plain_map = dict((tid, d) for d, tid in plain.items)
        for d, tid in seeded.items:
            assert d <= np.nextafter(dk, np.inf)
            assert plain_map[tid] == d
        # Ties at exactly dk survive the strict threshold.
        assert [it for it in plain.items if it[0] <= dk] == [
            it for it in seeded.items if it[0] <= dk]

    def test_seeded_search_prunes_more(self, skewed_dataset):
        grid = Grid.fit(skewed_dataset.bounding_box(), 0.4)
        trajs = skewed_dataset.trajectories[:60]
        trie = RPTrie(grid, "dtw").build(trajs)
        query = trajs[0]
        plain = local_search(trie, query, 5)
        seeded = local_search(trie, query, 5, dk=plain.items[0][0])
        assert seeded.stats.exact_refinements <= plain.stats.exact_refinements
        assert seeded.stats.nodes_visited <= plain.stats.nodes_visited


class TestProbe:
    @pytest.mark.parametrize("name", MEASURES)
    def test_probe_bound_is_sound(self, skewed_dataset, name):
        """The probe bound never exceeds the true nearest distance in
        the partition — the property partition skipping relies on."""
        grid = Grid.fit(skewed_dataset.bounding_box(), 0.4)
        measure = get_measure(name)
        trajs = skewed_dataset.trajectories[40:70]
        trie = RPTrie(grid, name).build(trajs)
        for query in (skewed_dataset.trajectories[0],
                      skewed_dataset.trajectories[25]):
            probe = probe_search(trie, query)
            nearest = min(measure.distance(query.points, t.points)
                          for t in trajs)
            assert probe.bound <= nearest + 1e-12
            assert probe.trajectories == len(trajs)
            assert probe.estimated_candidates(float("inf")) == len(
                probe.child_bounds)

    def test_probe_runs_no_refinement(self, skewed_dataset):
        grid = Grid.fit(skewed_dataset.bounding_box(), 0.4)
        trie = RPTrie(grid, "hausdorff").build(
            skewed_dataset.trajectories[:30])
        probe = probe_search(trie, skewed_dataset.trajectories[0])
        assert probe.child_bounds == tuple(sorted(probe.child_bounds))

    def test_planner_orders_by_promise(self):
        class FakeIndex:
            def __init__(self, bound):
                self._bound = bound

            def probe(self, query, dqp=None):
                from repro.core.search import PartitionProbe
                return PartitionProbe(bound=self._bound, child_bounds=(),
                                      trajectories=1)

        class FakePart:
            def __init__(self, bound):
                self.index = FakeIndex(bound)

        planner = QueryPlanner(ExecutionEngine(), wave_size=2)
        parts = [FakePart(b) for b in (3.0, 0.5, 2.0, 0.5)]
        probes = planner.probe(parts, query=None, kwargs={})
        order = planner.plan_order(probes)
        assert order == [1, 3, 2, 0]
        assert planner.plan_waves(order) == [[1, 3], [2, 0]]


class TestEngineWaves:
    def test_run_waves_is_lazy_and_ordered(self):
        engine = ExecutionEngine()
        seen = []

        def waves():
            yield [lambda: "a0", lambda: "a1"]
            # Built only after wave 0's callback ran.
            assert seen == [0]
            yield [lambda: "b0"]

        def on_wave(index, outcomes, timings):
            seen.append(index)

        outcomes, wave_timings = engine.run_waves(waves(), on_wave=on_wave)
        assert [o.result for o in outcomes] == ["a0", "a1", "b0"]
        assert all(o.ok for o in outcomes)
        assert [len(w) for w in wave_timings] == [2, 1]
        assert seen == [0, 1]

    def test_run_waves_rederives_num_tasks(self):
        engine = ExecutionEngine("auto")
        hints = WorkloadHints(measure="hausdorff", partition_points=10,
                              num_tasks=999, batch_width=1)
        engine.run_waves([[lambda: 1]], hints=hints)
        # A single-task wave must resolve serial despite stale hints.
        assert engine.last_backend == "serial"

    def test_simulated_waves_chain_barriers(self):
        spec = ClusterSpec(num_workers=2, cores_per_worker=1)
        w1 = [TaskTiming(0, 1.0), TaskTiming(1, 0.2)]
        w2 = [TaskTiming(0, 0.5)]
        waved = simulate_schedule_waves([w1, w2], spec)
        flat = simulate_schedule(w1 + w2, spec)
        assert waved.makespan == pytest.approx(1.5)   # barrier after w1
        assert flat.makespan == pytest.approx(1.0)    # no barrier
        assert waved.total_work == pytest.approx(flat.total_work)

    def test_context_records_wave_timings(self):
        ctx = ClusterContext()
        ctx.record_timings([[TaskTiming(0, 0.1)], [TaskTiming(0, 0.2)]])
        assert len(ctx.last_wave_timings) == 2
        assert [t.seconds for t in ctx.last_timings] == [0.1, 0.2]
        ctx.record_timings([[TaskTiming(0, 0.3), TaskTiming(1, 0.4)]])
        assert len(ctx.last_wave_timings) == 1
        assert [t.seconds for t in ctx.last_timings] == [0.3, 0.4]


class TestCalibration:
    def test_calibrated_rate_overrides_cost_table(self):
        engine = ExecutionEngine("auto")
        hints = WorkloadHints(measure="hausdorff", partition_points=2000,
                              num_tasks=8, batch_width=4)
        assert choose_backend(hints) == "thread"
        # A measured rate of ~0 pushes the same workload under the
        # serial cutoff.
        rate = engine.calibrate("hausdorff", lambda: None, 10_000_000)
        assert rate >= 0.0
        assert choose_backend(hints, cost_us=engine.calibrated_cost_us) \
            == "serial"
        engine.run([lambda: 1, lambda: 2], hints=hints)
        assert engine.last_backend == "serial"

    def test_replacement_engine_reseeded_from_context(self):
        ctx = ClusterContext()
        ctx.engine.calibrate("dtw", lambda: None, 100)
        ctx.calibration = dict(ctx.engine.calibrated_cost_us)
        fresh = ExecutionEngine("auto")
        ctx.engine = fresh
        assert "dtw" in fresh.calibrated_cost_us
        # An engine's own measured rate wins over the stored one.
        own = ExecutionEngine("auto")
        own.calibrate("dtw", lambda: sum(range(50_000)), 1)
        rate = own.calibrated_cost_us["dtw"]
        ctx.engine = own
        assert own.calibrated_cost_us["dtw"] == rate

    def test_distributed_calibrate_persists_on_context(self, skewed_dataset):
        engine = _build(skewed_dataset, "dtw", num_partitions=4)
        rate = engine.calibrate(k=3)
        assert rate > 0.0
        # Compiled DP kernel backends key their measured rate by
        # measure+backend so per-backend rates never mix; the numpy
        # fallback keeps the plain measure key.
        kern = engine.kernels_hint
        key = "dtw" if kern in (None, "numpy") else f"dtw+{kern}"
        assert engine.context.calibration[key] == pytest.approx(rate)
        assert engine.context.engine.calibrated_cost_us[key] == \
            pytest.approx(rate)
        # Calibration must not disturb query results.
        query = skewed_dataset.trajectories[0]
        oracle.Oracle(engine.measure, skewed_dataset.trajectories
                      ).check_top_k(engine.top_k(query, 4).result.items,
                                    query, 4)


class TestAdaptiveBand:
    @pytest.mark.parametrize("name", ["dtw", "frechet"])
    def test_uppers_stay_upper_bounds_under_finite_dk(self, skewed_dataset,
                                                      name):
        measure = get_measure(name)
        trajs = skewed_dataset.trajectories[:64]
        store = TrajectoryStore(trajs)
        tids = [t.traj_id for t in trajs]
        query = trajs[10].points
        exact = np.array([measure.distance(query, store.points_of(t))
                          for t in tids])
        for dk in (np.inf, float(np.median(exact)), float(exact.min())):
            refiner = BatchRefiner(measure, query, store, tids, dk=dk)
            uppers = refiner.uppers
            assert uppers is not None
            finite = np.isfinite(uppers)
            assert np.all(uppers[finite] >= exact[finite] - 1e-12)
            if refiner.exact_mask is not None:
                known = refiner.exact_mask
                assert np.all(uppers[known] == exact[known])

    @pytest.mark.parametrize("name", ["dtw", "frechet"])
    def test_refinement_bit_identical_with_adaptive_band(self, skewed_dataset,
                                                         name):
        """The dk that drives the band comes from a warm heap; results
        must still match the sequential thresholded loop exactly."""
        measure = get_measure(name)
        trajs = skewed_dataset.trajectories
        store = TrajectoryStore(trajs)
        tids = [t.traj_id for t in trajs]
        query = trajs[1].points
        warm = ResultHeap(6)
        for tid in tids[:20]:
            warm.offer(measure.distance(query, store.points_of(tid)), tid)

        batch_heap = warm.clone()
        refine_top_k(measure, query, tids, store, batch_heap)
        seq_heap = warm.clone()
        for tid in tids:
            dist = distance_with_threshold(measure, query,
                                           store.points_of(tid), seq_heap.dk)
            seq_heap.offer(dist, tid)
        assert batch_heap.sorted_items() == seq_heap.sorted_items()
