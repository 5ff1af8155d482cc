"""Tests for the best-first top-k search (Algorithm 2).

The defining invariant: for every measure and every trie variant, the
search returns exactly the brute-force top-k distances.
"""

import numpy as np
import pytest

from repro.core.rptrie import RPTrie
from repro.core.search import TopKResult, local_search
from repro.core.succinct import SuccinctRPTrie
from repro.distances import get_measure
from repro.testing.oracle import brute_force
from repro.types import Trajectory

MEASURES = {
    "hausdorff": get_measure("hausdorff"),
    "frechet": get_measure("frechet"),
    "dtw": get_measure("dtw"),
    "lcss": get_measure("lcss", eps=0.4),
    "edr": get_measure("edr", eps=0.4),
    "erp": get_measure("erp"),
}


def assert_same_distances(result: TopKResult, expected, abs_tol=1e-9):
    got = [round(d, 9) for d in result.distances()]
    want = [round(d, 9) for d, _ in expected]
    assert got == want, f"got {got[:5]}..., want {want[:5]}..."


@pytest.mark.parametrize("name", list(MEASURES))
class TestExactness:
    def test_topk_matches_brute_force(self, small_grid, small_trajectories,
                                      name):
        measure = MEASURES[name]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        query = small_trajectories[7]
        result = local_search(trie, query, 10)
        assert_same_distances(result,
                              brute_force(measure, query,
                                          small_trajectories, 10))

    def test_k_one(self, small_grid, small_trajectories, name):
        measure = MEASURES[name]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        query = small_trajectories[3]
        result = local_search(trie, query, 1)
        # The query itself is in the dataset: nearest distance is 0.
        assert result.distances()[0] == pytest.approx(0.0, abs=1e-12)

    def test_k_larger_than_dataset(self, small_grid, small_trajectories,
                                   name):
        measure = MEASURES[name]
        subset = small_trajectories[:8]
        trie = RPTrie(small_grid, measure).build(subset)
        result = local_search(trie, subset[0], 50)
        assert len(result) == 8

    def test_external_query(self, small_grid, small_trajectories, name):
        """Query not contained in the dataset."""
        measure = MEASURES[name]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        rng = np.random.default_rng(42)
        query = Trajectory(rng.uniform(0.1, 7.9, (9, 2)), traj_id=777)
        result = local_search(trie, query, 5)
        assert_same_distances(result,
                              brute_force(measure, query,
                                          small_trajectories, 5))


class TestOptimizedTrieExactness:
    def test_hausdorff_optimized_exact(self, small_grid, small_trajectories):
        measure = MEASURES["hausdorff"]
        trie = RPTrie(small_grid, measure, optimized=True).build(
            small_trajectories)
        query = small_trajectories[11]
        result = local_search(trie, query, 10)
        assert_same_distances(result,
                              brute_force(measure, query,
                                          small_trajectories, 10))


class TestSuccinctExactness:
    @pytest.mark.parametrize("name", ["hausdorff", "frechet", "dtw"])
    def test_frozen_trie_same_results(self, small_grid, small_trajectories,
                                      name):
        measure = MEASURES[name]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        frozen = SuccinctRPTrie(trie)
        query = small_trajectories[5]
        live = local_search(trie, query, 10)
        cold = local_search(frozen, query, 10)
        assert [round(d, 9) for d in live.distances()] == \
            [round(d, 9) for d in cold.distances()]


class TestAblationSwitches:
    def test_disabling_bounds_preserves_exactness(self, small_grid,
                                                  small_trajectories):
        measure = MEASURES["hausdorff"]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        query = small_trajectories[2]
        expected = brute_force(measure, query, small_trajectories, 10)
        for options in ({"use_pivots": False}, {"use_lbt": False},
                        {"use_lbo": False},
                        {"use_pivots": False, "use_lbt": False,
                         "use_lbo": False}):
            result = local_search(trie, query, 10, **options)
            assert_same_distances(result, expected)

    def test_bounds_reduce_refinements(self, small_grid, small_trajectories):
        """With all pruning off, every trajectory must be refined."""
        measure = MEASURES["hausdorff"]
        trie = RPTrie(small_grid, measure).build(small_trajectories)
        query = small_trajectories[2]
        with_bounds = local_search(trie, query, 3)
        without = local_search(trie, query, 3, use_pivots=False,
                               use_lbt=False, use_lbo=False)
        assert (with_bounds.stats.distance_computations
                <= without.stats.distance_computations)


class TestPaperExample:
    def test_running_example_top2(self, paper_grid, paper_trajectories,
                                  paper_query):
        """Example 1: the top-2 under Hausdorff is {tau_1, tau_4}."""
        trie = RPTrie(paper_grid, "hausdorff").build(paper_trajectories)
        result = local_search(trie, paper_query, 2)
        assert sorted(result.ids()) == [1, 4]
        assert result.distances()[0] == pytest.approx(2.83, abs=0.005)
        assert result.distances()[1] == pytest.approx(3.16, abs=0.005)


class TestResultContainer:
    def test_kth_distance_of_empty(self):
        assert TopKResult().kth_distance() == float("inf")

    def test_sorted_ascending(self, small_grid, small_trajectories):
        trie = RPTrie(small_grid, "hausdorff").build(small_trajectories)
        result = local_search(trie, small_trajectories[0], 10)
        distances = result.distances()
        assert distances == sorted(distances)

    def test_stats_populated(self, small_grid, small_trajectories):
        trie = RPTrie(small_grid, "hausdorff").build(small_trajectories)
        result = local_search(trie, small_trajectories[0], 5)
        assert result.stats.nodes_visited > 0
        assert result.stats.distance_computations > 0
