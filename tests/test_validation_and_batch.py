"""Tests for the validation harness and batch scheduling."""

import numpy as np
import pytest

from repro.cluster.scheduler import ClusterSpec
from repro.repose import Repose
from repro.validation import validate_dataset


class TestValidation:
    @pytest.mark.parametrize("measure", ["hausdorff", "frechet", "dtw"])
    def test_all_engines_agree(self, small_dataset, measure):
        report = validate_dataset(small_dataset, measure=measure, k=6,
                                  num_queries=2, num_partitions=4, delta=0.5)
        report.raise_on_mismatch()
        assert report.agreed
        assert report.queries_checked == 2

    def test_engine_roster_respects_support(self, small_dataset):
        report = validate_dataset(small_dataset, measure="hausdorff", k=3,
                                  num_queries=1, num_partitions=4, delta=0.5)
        assert "dita" not in report.engines  # no Hausdorff in DITA
        assert "dft" in report.engines
        report_f = validate_dataset(small_dataset, measure="frechet", k=3,
                                    num_queries=1, num_partitions=4,
                                    delta=0.5)
        assert "dita" in report_f.engines

    def test_mismatch_raises(self):
        from repro.validation import ValidationReport
        report = ValidationReport(measure="x", engines=[], queries_checked=1,
                                  agreed=False, mismatches=["query 0: a != b"])
        with pytest.raises(AssertionError):
            report.raise_on_mismatch()


class TestBatchScheduling:
    def test_batch_results_match_individual(self, small_dataset):
        engine = Repose.build(small_dataset, measure="hausdorff", delta=0.5,
                              num_partitions=4)
        queries = small_dataset.trajectories[:3]
        batch = engine.top_k_batch(queries, k=5)
        assert len(batch.results) == 3
        for query, batched in zip(queries, batch.results):
            single = engine.top_k(query, 5).result
            assert [round(d, 9) for d in batched.distances()] == \
                [round(d, 9) for d in single.distances()]

    def test_batch_makespan_at_least_single_query(self, small_dataset):
        """A batch schedule contains each query's tasks, so its
        makespan cannot beat the longest single task."""
        spec = ClusterSpec(2, 2)
        engine = Repose.build(small_dataset, measure="hausdorff", delta=0.5,
                              num_partitions=4, cluster_spec=spec)
        queries = small_dataset.trajectories[:4]
        batch = engine.top_k_batch(queries, k=5)
        assert batch.simulated_seconds > 0
        assert 0.0 < batch.utilization <= 1.0

    def test_batch_schedules_all_tasks(self, small_dataset):
        """Every dispatched batch task lands on a core: total busy time
        across cores equals the schedule's total work."""
        spec = ClusterSpec(1, 2)
        engine = Repose.build(small_dataset, measure="hausdorff", delta=0.5,
                              num_partitions=4, cluster_spec=spec)
        batch = engine.top_k_batch(small_dataset.trajectories[:8], k=5)
        assert len(batch.results) == 8
        schedule = batch.schedule
        assert schedule is not None
        assert sum(schedule.core_busy) == pytest.approx(schedule.total_work)
        # Two cores: the makespan is at least half the total work.
        assert batch.simulated_seconds >= schedule.total_work / 2 - 1e-9
