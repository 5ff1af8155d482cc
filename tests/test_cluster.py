"""Tests for the execution engine, driver merge and simulated scheduler."""

import pytest

from repro.cluster.engine import (
    ExecutionEngine,
    TaskTiming,
    WorkloadHints,
    choose_backend,
    require_results,
)
from repro.cluster.driver import merge_top_k
from repro.cluster.scheduler import ClusterSpec, simulate_schedule
from repro.core.search import TopKResult


class TestScheduler:
    def test_single_core_sums(self):
        timings = [TaskTiming(i, 1.0) for i in range(4)]
        report = simulate_schedule(timings, ClusterSpec(1, 1))
        assert report.makespan == pytest.approx(4.0)

    def test_enough_cores_takes_max(self):
        timings = [TaskTiming(0, 3.0), TaskTiming(1, 1.0), TaskTiming(2, 2.0)]
        report = simulate_schedule(timings, ClusterSpec(1, 4))
        assert report.makespan == pytest.approx(3.0)

    def test_two_waves(self):
        # 4 equal tasks on 2 cores: two waves.
        timings = [TaskTiming(i, 1.0) for i in range(4)]
        report = simulate_schedule(timings, ClusterSpec(1, 2))
        assert report.makespan == pytest.approx(2.0)

    def test_imbalance_detected(self):
        balanced = [TaskTiming(i, 1.0) for i in range(4)]
        skewed = [TaskTiming(0, 4.0)] + [TaskTiming(i, 0.1) for i in range(1, 4)]
        spec = ClusterSpec(2, 2)
        assert (simulate_schedule(skewed, spec).imbalance
                > simulate_schedule(balanced, spec).imbalance)

    def test_utilization_bounds(self):
        timings = [TaskTiming(i, float(i + 1)) for i in range(10)]
        report = simulate_schedule(timings, ClusterSpec(2, 2))
        assert 0.0 < report.utilization <= 1.0

    def test_empty_schedule(self):
        report = simulate_schedule([], ClusterSpec(1, 2))
        assert report.makespan == 0.0

    def test_paper_cluster_defaults(self):
        assert ClusterSpec().total_cores == 64


class TestMergeTopK:
    def test_merges_and_sorts(self):
        a = TopKResult(items=[(1.0, 10), (3.0, 11)])
        b = TopKResult(items=[(2.0, 20), (4.0, 21)])
        merged = merge_top_k([a, b], k=3)
        assert merged.items == [(1.0, 10), (2.0, 20), (3.0, 11)]

    def test_fewer_than_k(self):
        merged = merge_top_k([TopKResult(items=[(1.0, 1)])], k=5)
        assert len(merged) == 1

    def test_stats_summed(self):
        a = TopKResult(items=[])
        a.stats.nodes_visited = 3
        b = TopKResult(items=[])
        b.stats.nodes_visited = 4
        assert merge_top_k([a, b], k=1).stats.nodes_visited == 7


def _square(value):
    """Module-level so the process backend can pickle it."""
    return value * value


class _SquareTask:
    """Picklable zero-argument task for the process backend."""

    def __init__(self, value):
        self.value = value

    def __call__(self):
        return _square(self.value)


class TestProcessBackend:
    def test_backend_selection(self):
        assert ExecutionEngine("process").backend == "process"
        with pytest.raises(ValueError):
            ExecutionEngine("fork-bomb")

    def test_results_in_partition_order(self):
        engine = ExecutionEngine("process", max_workers=2)
        tasks = [_SquareTask(v) for v in range(6)]
        outcomes, timings = engine.run(tasks)
        assert require_results(outcomes) == [0, 1, 4, 9, 16, 25]
        assert [t.partition_id for t in timings] == list(range(6))
        assert all(t.seconds >= 0 for t in timings)

    def test_matches_serial_backend(self):
        tasks = [_SquareTask(v) for v in range(5)]
        serial, _ = ExecutionEngine("serial").run(tasks)
        procs, _ = ExecutionEngine("process", max_workers=2).run(tasks)
        assert require_results(procs) == require_results(serial)

    def test_empty_task_list(self):
        outcomes, timings = ExecutionEngine("process").run([])
        assert outcomes == [] and timings == []

class TestAutoBackend:
    def test_no_hints_stays_serial(self):
        assert choose_backend(None) == "serial"
        assert choose_backend(WorkloadHints(num_tasks=1)) == "serial"

    def test_tiny_work_stays_serial(self):
        hints = WorkloadHints(measure="hausdorff", partition_points=100,
                              num_tasks=4)
        assert choose_backend(hints) == "serial"

    def test_numpy_heavy_work_goes_to_threads(self):
        hints = WorkloadHints(measure="hausdorff", partition_points=10**6,
                              num_tasks=16)
        assert choose_backend(hints) == "thread"

    def test_gil_heavy_work_goes_to_processes(self):
        hints = WorkloadHints(measure="lcss", partition_points=10**6,
                              num_tasks=16, batch_width=8)
        assert choose_backend(hints) == "process"

    def test_warm_pool_lowers_the_process_bar(self):
        hints = WorkloadHints(measure="edr", partition_points=4_000,
                              num_tasks=16)
        assert choose_backend(hints, process_pool_warm=False) == "thread"
        assert choose_backend(hints, process_pool_warm=True) == "process"

    def test_auto_resolution_recorded(self):
        engine = ExecutionEngine("auto", max_workers=2)
        hints = WorkloadHints(measure="hausdorff", partition_points=10**6,
                              num_tasks=3)
        outcomes, timings = engine.run(
            [lambda: 1, lambda: 2, lambda: 3], hints=hints)
        assert require_results(outcomes) == [1, 2, 3]
        assert engine.last_backend == "thread"
        engine.close()

    def test_auto_falls_back_to_threads_on_unpicklable_tasks(self):
        engine = ExecutionEngine("auto", max_workers=2)
        hints = WorkloadHints(measure="lcss", partition_points=10**6,
                              num_tasks=2, batch_width=8)
        assert choose_backend(hints) == "process"
        outcomes, _ = engine.run([lambda: 1, lambda: 2], hints=hints)
        assert require_results(outcomes) == [1, 2]
        assert engine.last_backend == "thread"
        engine.close()

    def test_mixed_picklability_retries_only_failed_tasks(self):
        # Picklable tasks execute once in the process pool; only the
        # unpicklable one is retried on threads (no duplicated work).
        engine = ExecutionEngine("auto", max_workers=2)
        hints = WorkloadHints(measure="lcss", partition_points=10**6,
                              num_tasks=3, batch_width=8)
        tasks = [_SquareTask(3), lambda: 99, _SquareTask(5)]
        outcomes, timings = engine.run(tasks, hints=hints)
        assert require_results(outcomes) == [9, 99, 25]
        assert [t.partition_id for t in timings] == [0, 1, 2]
        assert engine.last_backend == "mixed"
        engine.close()

    def test_explicit_process_backend_still_raises(self):
        engine = ExecutionEngine("process", max_workers=2)
        import pickle
        with pytest.raises((pickle.PicklingError, AttributeError)):
            engine.run([lambda: 1])
        engine.close()

    def test_auto_never_changes_distributed_results(self):
        # The acceptance regression: backend auto-selection is a pure
        # placement decision; top-k, batch and range results must be
        # identical to the serial engine's.
        from repro.repose import Repose
        from repro.types import Trajectory, TrajectoryDataset
        import numpy as np

        rng = np.random.default_rng(5)
        dataset = TrajectoryDataset(name="auto", trajectories=[
            Trajectory(rng.uniform(0, 1, (int(rng.integers(4, 20)), 2)),
                       traj_id=i) for i in range(120)])
        queries = [dataset.trajectories[i] for i in (0, 17, 44)]
        for measure in ("hausdorff", "dtw"):
            serial = Repose.build(dataset, measure=measure,
                                  num_partitions=6)
            auto = Repose.build(dataset, measure=measure,
                                num_partitions=6, engine="auto")
            for query in queries:
                assert (auto.top_k(query, 7).result.items
                        == serial.top_k(query, 7).result.items)
            batch_auto = auto.top_k_batch(queries, 5)
            batch_serial = serial.top_k_batch(queries, 5)
            assert ([r.items for r in batch_auto.results]
                    == [r.items for r in batch_serial.results])
            radius = serial.top_k(queries[0], 5).result.kth_distance()
            assert (auto.range_query(queries[0], radius).result.items
                    == serial.range_query(queries[0], radius).result.items)
            auto.context.engine.close()


class TestPersistentPools:
    def test_thread_pool_reused_across_runs(self):
        engine = ExecutionEngine("thread", max_workers=2)
        engine.run([lambda: 1])
        pool = engine._thread_pool
        engine.run([lambda: 2])
        assert engine._thread_pool is pool
        engine.close()
        assert engine._thread_pool is None

    def test_process_pool_reused_across_runs(self):
        engine = ExecutionEngine("process", max_workers=2)
        tasks = [_SquareTask(v) for v in range(3)]
        engine.run(tasks)
        pool = engine._process_pool
        outcomes, _ = engine.run(tasks)
        assert engine._process_pool is pool
        assert require_results(outcomes) == [0, 1, 4]
        engine.close()

    def test_context_manager_closes(self):
        with ExecutionEngine("thread", max_workers=2) as engine:
            engine.run([lambda: 1])
            assert engine._thread_pool is not None
        assert engine._thread_pool is None


class TestProcessBackendDistributed:
    def test_distributed_engine_on_process_backend(self):
        # Build and top-k with real subprocess workers; the
        # LinearScanIndex partitions pickle cleanly.
        from repro.repose import make_baseline
        from repro.types import Trajectory, TrajectoryDataset
        import numpy as np

        rng = np.random.default_rng(0)
        dataset = TrajectoryDataset(name="p", trajectories=[
            Trajectory(rng.uniform(0, 1, (5, 2)), traj_id=i)
            for i in range(30)])
        serial = make_baseline("ls", dataset, "hausdorff", num_partitions=3,
                               engine=ExecutionEngine("serial"))
        procs = make_baseline("ls", dataset, "hausdorff", num_partitions=3,
                              engine=ExecutionEngine("process",
                                                     max_workers=2))
        serial.build()
        procs.build()
        query = dataset.trajectories[0]
        assert (procs.top_k(query, 5).result.items
                == serial.top_k(query, 5).result.items)
