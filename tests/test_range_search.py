"""Tests for range search (local and distributed) and incremental insert."""

import numpy as np
import pytest

from repro.core.rptrie import RPTrie
from repro.core.search import local_range_search, local_search
from repro.distances import get_measure
from repro.repose import Repose
from repro.testing.oracle import brute_range
from repro.types import Trajectory

MEASURES = {
    "hausdorff": get_measure("hausdorff"),
    "frechet": get_measure("frechet"),
    "dtw": get_measure("dtw"),
    "erp": get_measure("erp"),
}


@pytest.mark.parametrize("name", list(MEASURES))
class TestLocalRangeSearch:
    def test_matches_brute_force(self, small_grid, small_trajectories, name):
        measure = MEASURES[name]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        query = small_trajectories[5]
        # Radius chosen from data so the result is non-trivial.
        distances = sorted(measure.distance(query, t)
                           for t in small_trajectories)
        radius = distances[len(distances) // 3]
        result = local_range_search(trie, query, radius)
        expected = brute_range(measure, query, small_trajectories, radius)
        assert [round(d, 9) for d in result.distances()] == \
            [round(d, 9) for d, _ in expected]
        assert result.ids() == [tid for _, tid in expected]

    def test_zero_radius_finds_self(self, small_grid, small_trajectories,
                                    name):
        measure = MEASURES[name]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        query = small_trajectories[2]
        result = local_range_search(trie, query, 0.0)
        assert query.traj_id in result.ids()

    def test_huge_radius_returns_everything(self, small_grid,
                                            small_trajectories, name):
        measure = MEASURES[name]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        result = local_range_search(trie, small_trajectories[0], 1e9)
        assert len(result) == len(small_trajectories)


class TestBoundaryInclusion:
    def test_distance_equal_to_radius_included(self, small_grid,
                                               small_trajectories):
        measure = MEASURES["hausdorff"]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        query = small_trajectories[0]
        exact = measure.distance(query, small_trajectories[1])
        result = local_range_search(trie, query, exact)
        assert small_trajectories[1].traj_id in result.ids()


class TestDistributedRange:
    def test_matches_brute_force(self, small_dataset):
        measure = MEASURES["hausdorff"]
        engine = Repose.build(small_dataset, measure=measure, delta=0.5,
                              num_partitions=4)
        query = small_dataset.trajectories[3]
        distances = sorted(measure.distance(query, t) for t in small_dataset)
        radius = distances[len(distances) // 2]
        outcome = engine.range_query(query, radius)
        expected = brute_range(measure, query,
                               small_dataset.trajectories, radius)
        assert [round(d, 9) for d in outcome.result.distances()] == \
            [round(d, 9) for d, _ in expected]


class TestIncrementalInsert:
    def test_inserted_trajectory_found(self, small_grid, small_trajectories):
        measure = MEASURES["hausdorff"]
        trie = RPTrie(small_grid, measure, num_pivots=3,
                      pivot_groups=3).build(small_trajectories)
        rng = np.random.default_rng(5)
        new = Trajectory(rng.uniform(0.1, 7.9, (8, 2)), traj_id=999)
        trie.insert(new)
        result = local_search(trie, new, 1)
        assert result.ids() == [999]
        assert result.distances()[0] == pytest.approx(0.0, abs=1e-12)

    def test_search_stays_exact_after_inserts(self, small_grid,
                                              small_trajectories):
        measure = MEASURES["frechet"]
        initial = small_trajectories[:40]
        trie = RPTrie(small_grid, measure, num_pivots=2,
                      pivot_groups=2).build(initial)
        added = []
        rng = np.random.default_rng(6)
        for i in range(10):
            traj = Trajectory(rng.uniform(0.1, 7.9, (6, 2)),
                              traj_id=1000 + i)
            trie.insert(traj)
            added.append(traj)
        everything = initial + added
        query = added[3]
        result = local_search(trie, query, 8)
        expected = sorted(measure.distance(query, t)
                          for t in everything)[:8]
        assert [round(d, 9) for d in result.distances()] == \
            [round(d, 9) for d in expected]

    def test_duplicate_id_rejected(self, small_grid, small_trajectories):
        trie = RPTrie(small_grid, "hausdorff").build(small_trajectories)
        with pytest.raises(ValueError):
            trie.insert(small_trajectories[0])

    def test_node_count_updated(self, small_grid, small_trajectories):
        trie = RPTrie(small_grid, "hausdorff").build(small_trajectories)
        before = trie.node_count
        rng = np.random.default_rng(7)
        trie.insert(Trajectory(rng.uniform(0.1, 7.9, (12, 2)), traj_id=500))
        assert trie.node_count >= before
        stored = [tid for leaf in trie.iter_leaves() for tid in leaf.tids]
        assert 500 in stored
