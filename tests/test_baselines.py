"""Tests for the LS, DFT and DITA baselines.

Every baseline must return exactly the brute-force top-k distances on
the measures it supports, and refuse the measures it does not (the
paper's compatibility matrix).
"""

import numpy as np
import pytest

from repro.baselines.dft import DFTIndex
from repro.baselines.dita import DITAIndex, _select_pivots
from repro.baselines.linear import LinearScanIndex
from repro.distances import get_measure
from repro.exceptions import IndexNotBuiltError, UnsupportedMeasureError
from repro.testing.oracle import brute_force
from repro.types import Trajectory


def assert_distances_match(result, expected):
    got = [round(d, 9) for d in result.distances()]
    want = [round(d, 9) for d, _ in expected]
    assert got == want


class TestLinearScan:
    @pytest.mark.parametrize("name", ["hausdorff", "frechet", "dtw",
                                      "lcss", "edr", "erp"])
    def test_exact_on_all_measures(self, small_trajectories, name):
        measure = (get_measure(name, eps=0.4) if name in ("lcss", "edr")
                   else get_measure(name))
        index = LinearScanIndex(measure).build(small_trajectories)
        query = small_trajectories[4]
        result = index.top_k(query, 10)
        assert_distances_match(result,
                               brute_force(measure, query,
                                           small_trajectories, 10))

    def test_unbuilt_raises(self):
        with pytest.raises(IndexNotBuiltError):
            LinearScanIndex("hausdorff").top_k(
                Trajectory([(0.0, 0.0)], traj_id=0), 1)

    def test_distance_computations_equal_dataset_size(self,
                                                      small_trajectories):
        index = LinearScanIndex("hausdorff").build(small_trajectories)
        result = index.top_k(small_trajectories[0], 5)
        assert result.stats.distance_computations == len(small_trajectories)


class TestDFT:
    @pytest.mark.parametrize("name", ["hausdorff", "frechet", "dtw"])
    def test_exact_on_supported_measures(self, small_trajectories, name):
        measure = get_measure(name)
        index = DFTIndex(measure).build(small_trajectories)
        query = small_trajectories[9]
        result = index.top_k(query, 10)
        assert_distances_match(result,
                               brute_force(measure, query,
                                           small_trajectories, 10))

    @pytest.mark.parametrize("name", ["lcss", "edr", "erp"])
    def test_unsupported_measures_rejected(self, name):
        with pytest.raises(UnsupportedMeasureError):
            DFTIndex(get_measure(name))

    def test_k_exceeds_dataset(self, small_trajectories):
        index = DFTIndex("hausdorff").build(small_trajectories[:5])
        assert len(index.top_k(small_trajectories[0], 50).items) == 5

    def test_threshold_sampling_prunes(self, small_trajectories):
        """DFT should refine fewer trajectories than LS on clustered data."""
        index = DFTIndex("hausdorff").build(small_trajectories)
        ls = LinearScanIndex("hausdorff").build(small_trajectories)
        query = small_trajectories[0]
        dft_comps = index.top_k(query, 3).stats.distance_computations
        ls_comps = ls.top_k(query, 3).stats.distance_computations
        # Sampling C*k=15 + refinement should stay below 2x LS worst case.
        assert dft_comps <= 2 * ls_comps

    def test_memory_includes_dual_index(self, small_trajectories):
        index = DFTIndex("hausdorff").build(small_trajectories)
        assert index.memory_bytes() > 0

    def test_unbuilt_raises(self):
        with pytest.raises(IndexNotBuiltError):
            DFTIndex("hausdorff").top_k(Trajectory([(0, 0)], traj_id=0), 1)

    def test_deterministic_given_seed(self, small_trajectories):
        a = DFTIndex("hausdorff", seed=3).build(small_trajectories)
        b = DFTIndex("hausdorff", seed=3).build(small_trajectories)
        q = small_trajectories[1]
        assert a.top_k(q, 5).items == b.top_k(q, 5).items


class TestDITA:
    @pytest.mark.parametrize("name", ["frechet", "dtw"])
    def test_exact_on_supported_measures(self, small_trajectories, name):
        measure = get_measure(name)
        index = DITAIndex(measure).build(small_trajectories)
        query = small_trajectories[13]
        result = index.top_k(query, 10)
        assert_distances_match(result,
                               brute_force(measure, query,
                                           small_trajectories, 10))

    def test_hausdorff_rejected(self):
        """As in the paper: DITA does not support Hausdorff."""
        with pytest.raises(UnsupportedMeasureError):
            DITAIndex(get_measure("hausdorff"))

    def test_k_exceeds_dataset(self, small_trajectories):
        index = DITAIndex("frechet").build(small_trajectories[:4])
        assert len(index.top_k(small_trajectories[0], 50).items) == 4

    def test_unbuilt_raises(self):
        with pytest.raises(IndexNotBuiltError):
            DITAIndex("frechet").top_k(Trajectory([(0, 0)], traj_id=0), 1)

    def test_invalid_pivot_count(self):
        with pytest.raises(ValueError):
            DITAIndex("frechet", pivot_count=1)

    def test_memory_positive(self, small_trajectories):
        index = DITAIndex("frechet").build(small_trajectories)
        assert index.memory_bytes() > 0


class TestDITAPivotSelection:
    def test_keeps_endpoints(self):
        points = np.array([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (6.0, 0.0)])
        pivots = _select_pivots(Trajectory(points, traj_id=0), 4)
        assert tuple(pivots[0]) == (0.0, 0.0)
        assert tuple(pivots[-1]) == (6.0, 0.0)

    def test_pads_short_trajectories(self):
        points = np.array([(0.0, 0.0), (1.0, 1.0)])
        pivots = _select_pivots(Trajectory(points, traj_id=0), 4)
        assert pivots.shape == (4, 2)
        assert tuple(pivots[-1]) == (1.0, 1.0)

    def test_inner_pivot_prefers_sharp_detour(self):
        # The spike at index 2 has the largest neighbour distances.
        points = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 9.0),
                           (3.0, 0.0), (4.0, 0.0), (5.0, 0.0)])
        pivots = _select_pivots(Trajectory(points, traj_id=0), 3)
        assert tuple(pivots[1]) == (2.0, 9.0)

    def test_fixed_length_representation(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 10, 50):
            traj = Trajectory(rng.uniform(0, 1, (n, 2)), traj_id=0)
            assert _select_pivots(traj, 4).shape == (4, 2)
