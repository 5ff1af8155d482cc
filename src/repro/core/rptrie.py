"""The reference point trie (RP-Trie) index (paper, Section III).

The trie indexes reference trajectories (z-value sequences).  Every
sequence is terminated by a ``$`` leaf holding the trajectory ids,
the leaf ``Dmax``, and pivot-distance ``HR`` annotations.  For metric
measures, ``HR[i]`` on every node stores the (min, max) distance from
the *actual* trajectories in the subtree to pivot ``i``.  This is the
sound variant of the paper's Eq. 5 bound: with ``HR[i] = (lo, hi)``,
the triangle inequality gives every trajectory ``t`` in the subtree
``d(q, t) >= max(d(q, p_i) - hi, lo - d(q, p_i))``, whereas distances
taken from the grid-snapped reference trajectories would be off by up
to the cell size and could prune a true result.

Construction cost is dominated by pivot-to-trajectory distance
computation, O(N * L^2 * Np), as the paper's cost analysis states.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from ..distances.base import Measure, get_measure
from ..exceptions import IndexNotBuiltError
from ..types import Trajectory
from .grid import Grid
from .node import TERMINAL, TrieNode
from .pivots import select_pivots
from .rearrange import rearrange_dataset
from .reference import ReferenceEncoder, ReferenceTrajectory, encoder_mode_for
from .store import TrajectoryStore

__all__ = ["RPTrie", "TrieStats"]


@dataclass(frozen=True)
class TrieStats:
    """Structural statistics of a built RP-Trie."""

    num_trajectories: int
    node_count: int
    leaf_count: int
    depth: int
    avg_leaf_occupancy: float
    memory_bytes: int


class RPTrie:
    """An RP-Trie over one set (partition) of trajectories.

    Parameters
    ----------
    grid:
        Discretization grid shared by all partitions.
    measure:
        Similarity measure (name or :class:`Measure`).
    optimized:
        Apply the Section III-C z-value re-arrangement.  Only honoured
        for order-independent measures (Hausdorff); ignored otherwise,
        mirroring the paper.
    num_pivots:
        The paper's ``Np``; pivots are only used for metric measures.
    pivot_groups:
        The paper's ``m`` sampling groups for pivot selection.
    pivots:
        Pre-selected global pivot trajectories.  In the distributed
        setting the driver selects pivots once and shares them with all
        partitions; when None, pivots are selected locally.
    """

    def __init__(self, grid: Grid, measure: Measure | str = "hausdorff",
                 optimized: bool = False, num_pivots: int = 5,
                 pivot_groups: int = 10,
                 pivots: list[Trajectory] | None = None,
                 rng: np.random.Generator | None = None):
        self.grid = grid
        self.measure = get_measure(measure) if isinstance(measure, str) else measure
        self.optimized = optimized and not self.measure.order_sensitive
        self.num_pivots = num_pivots if self.measure.is_metric else 0
        self.pivot_groups = pivot_groups
        self.pivots: list[Trajectory] = pivots if pivots is not None else []
        self._rng = rng if rng is not None else np.random.default_rng(7)
        self.root = TrieNode(TERMINAL - 1)
        self._trajectories: dict[int, Trajectory] = {}
        self._store: TrajectoryStore | None = None
        self._store_source: dict | None = None
        self._built = False
        self._node_count = 0

    # -- construction -------------------------------------------------------

    def build(self, trajectories: list[Trajectory]) -> "RPTrie":
        """Build the index over ``trajectories`` (idempotent: rebuilds)."""
        self.root = TrieNode(TERMINAL - 1)
        self._trajectories = {t.traj_id: t for t in trajectories}
        self.attach_store(TrajectoryStore(self._trajectories.values()))

        mode = encoder_mode_for(self.measure, optimized=self.optimized)
        encoder = ReferenceEncoder(self.grid, mode=mode)
        refs = encoder.encode_many(trajectories)
        if self.optimized:
            refs = rearrange_dataset(refs)

        if self.num_pivots > 0 and not self.pivots:
            self.pivots = select_pivots(
                trajectories, self.measure, num_pivots=self.num_pivots,
                num_groups=self.pivot_groups, rng=self._rng)

        use_dmax = self.measure.name in ("hausdorff", "frechet")
        for ref in refs:
            traj = self._trajectories[ref.traj_id]
            pivot_distances = self._pivot_distances(traj)
            dmax_term = self._dmax_bound(traj) if use_dmax else 0.0
            self._insert(ref, traj, pivot_distances, dmax_term)

        self._node_count = self.root.count_nodes() - 1  # exclude root sentinel
        self._built = True
        return self

    def insert(self, traj: Trajectory) -> None:
        """Incrementally add one trajectory to a built index.

        The paper builds tries once per partition; a library user also
        wants appends.  The insert updates the path's ``HR`` ranges,
        ``max_traj_len`` and the leaf's ``Dmax``, preserving every
        search invariant (HR ranges only widen; bounds stay sound).
        Note: the z-value re-arrangement is *not* re-run, so a heavily
        appended optimized trie gradually loses prefix sharing —
        rebuild to restore it.
        """
        self._require_built()
        if traj.traj_id is None or traj.traj_id in self._trajectories:
            raise ValueError(
                f"trajectory must carry a fresh id, got {traj.traj_id!r}")
        self._trajectories[traj.traj_id] = traj
        if self._store is not None:
            self._store.append(traj)
        mode = encoder_mode_for(self.measure, optimized=self.optimized)
        ref = ReferenceEncoder(self.grid, mode=mode).encode(traj)
        use_dmax = self.measure.name in ("hausdorff", "frechet")
        dmax_term = self._dmax_bound(traj) if use_dmax else 0.0
        before = self.root.count_nodes()
        self._insert(ref, traj, self._pivot_distances(traj), dmax_term)
        self._node_count += self.root.count_nodes() - before

    def _dmax_bound(self, traj: Trajectory) -> float:
        """Upper bound on the distance between a trajectory and its
        reference trajectory: the max point-to-own-cell-center distance
        (a valid Hausdorff/Frechet coupling), O(L) per trajectory."""
        return float(self.grid.own_cell_center_distances(traj.points).max())

    def _pivot_distances(self, traj: Trajectory) -> np.ndarray | None:
        if not self.pivots:
            return None
        return np.array([self.measure.distance(traj, p) for p in self.pivots])

    def _insert(self, ref: ReferenceTrajectory, traj: Trajectory,
                pivot_distances: np.ndarray | None, dmax_term: float) -> None:
        node = self.root
        path = [node]
        for z in ref.z_values:
            node = node.get_or_create_child(z)
            path.append(node)
        leaf = node.get_or_create_child(TERMINAL)
        path.append(leaf)

        leaf.tids.append(ref.traj_id)
        leaf.dmax = max(leaf.dmax, dmax_term)
        traj_len = len(traj)
        for visited in path:
            visited.max_traj_len = max(visited.max_traj_len, traj_len)
            if pivot_distances is not None:
                visited.update_hr(pivot_distances)

    # -- accessors ------------------------------------------------------------

    @property
    def built(self) -> bool:
        return self._built

    def _require_built(self) -> None:
        if not self._built:
            raise IndexNotBuiltError("call build() before querying the RP-Trie")

    @property
    def num_trajectories(self) -> int:
        return len(self._trajectories)

    def attach_store(self, store: TrajectoryStore) -> None:
        """Install a pre-built columnar store for the current
        trajectory dict (used by :mod:`repro.persistence` for the
        zero-copy load path)."""
        self._store = store
        self._store_source = self._trajectories

    @property
    def store(self) -> TrajectoryStore:
        """Columnar view over the indexed trajectories.

        Built during :meth:`build` and kept in sync by :meth:`insert`;
        rebuilt lazily when the trajectory dict was replaced wholesale
        (detected by dict identity, so a same-length replacement cannot
        serve stale points).
        """
        if (self._store is None
                or self._store_source is not self._trajectories
                or len(self._store) != len(self._trajectories)):
            self.attach_store(TrajectoryStore(self._trajectories.values()))
        return self._store

    @property
    def node_count(self) -> int:
        """Number of trie nodes excluding the root sentinel (Fig. 7 metric)."""
        self._require_built()
        return self._node_count

    def trajectory(self, tid: int) -> Trajectory:
        return self._trajectories[tid]

    def trajectories(self) -> list[Trajectory]:
        return list(self._trajectories.values())

    def depth(self) -> int:
        """Maximum root-to-leaf depth (excluding the ``$`` leaf)."""
        self._require_built()
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            for child in node.children.values():
                if child.is_leaf:
                    best = max(best, d)
                else:
                    stack.append((child, d + 1))
        return best

    def iter_leaves(self):
        """Yield every ``$`` leaf node."""
        self._require_built()
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in node.children.values():
                if child.is_leaf:
                    yield child
                else:
                    stack.append(child)

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint of the trie structure.

        Counts node objects, children dictionaries, tid lists and HR
        arrays.  Used for the paper's index-size (IS) metric; the
        succinct structure offers a smaller frozen footprint.
        """
        self._require_built()
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += object.__sizeof__(node)
            total += sys.getsizeof(node.children)
            if node.tids:
                total += sys.getsizeof(node.tids) + 8 * len(node.tids)
            if node.hr_min is not None:
                total += node.hr_min.nbytes + node.hr_max.nbytes
            stack.extend(node.children.values())
        return total

    def stats(self) -> TrieStats:
        """Structural statistics (for observability and experiments)."""
        self._require_built()
        leaves = list(self.iter_leaves())
        stored = sum(len(leaf.tids) for leaf in leaves)
        return TrieStats(
            num_trajectories=self.num_trajectories,
            node_count=self.node_count,
            leaf_count=len(leaves),
            depth=self.depth(),
            avg_leaf_occupancy=stored / len(leaves) if leaves else 0.0,
            memory_bytes=self.memory_bytes(),
        )

    def __repr__(self) -> str:
        state = f"{self._node_count} nodes" if self._built else "unbuilt"
        return (f"RPTrie(measure={self.measure.name}, "
                f"n={len(self._trajectories)}, {state})")
