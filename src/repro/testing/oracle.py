"""Brute-force reference answers for top-k and range queries.

The oracle shares no trie, bound, planner, refinement or heap code with
the program it checks: it calls ``measure.distance`` on every
trajectory and sorts.  A top-k answer over ``n`` trajectories satisfies
its contract when

* it has ``min(k, n)`` items with distinct tids, ordered by
  ``(distance, tid)``;
* each item's distance matches its tid's true distance within
  :data:`REL_TOL` relative (with the same absolute floor, so a true
  zero accepts only rounding noise);
* no omitted trajectory is closer than the k-th item.

A range answer must hold exactly the tids within the radius, ordered
and matched the same way.  The checks raise ``AssertionError`` naming
the broken clause, so tests and benchmarks share one verdict.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["REL_TOL", "Oracle", "brute_force", "brute_range"]

#: Relative tolerance between a reported and a true distance.
REL_TOL = 1e-9


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL)


class Oracle:
    """Brute-force answers over one corpus under one measure.

    True distances are memoized per query content, so harnesses that
    repeat or duplicate queries pay each scan once; :meth:`add` grows
    the corpus (mirroring an index ``insert``) and drops the memo.
    """

    def __init__(self, measure, trajectories: Iterable):
        self.measure = measure
        self.trajectories = list(trajectories)
        self._memo: dict[tuple, dict[int, float]] = {}

    def add(self, trajectory) -> None:
        """Add one trajectory to the corpus."""
        self.trajectories.append(trajectory)
        self._memo.clear()

    def distances(self, query) -> dict[int, float]:
        """``tid -> measure.distance(query, t)`` over the corpus."""
        key = (query.points.shape, query.points.tobytes())
        truth = self._memo.get(key)
        if truth is None:
            truth = {t.traj_id: float(self.measure.distance(query, t))
                     for t in self.trajectories}
            self._memo[key] = truth
        return truth

    def top_k(self, query, k: int) -> list[tuple[float, int]]:
        """The exact top-k as ``(distance, tid)`` pairs, ties by tid."""
        return sorted((d, tid) for tid, d in
                      self.distances(query).items())[:k]

    def range(self, query, radius: float) -> list[tuple[float, int]]:
        """Every ``(distance, tid)`` within ``radius``, ties by tid."""
        return sorted((d, tid) for tid, d in
                      self.distances(query).items() if d <= radius)

    def check_top_k(self, items: Sequence, query, k: int,
                    context: str = "") -> None:
        """Assert ``items`` is a correct top-k answer (module contract)."""
        truth = self.distances(query)
        assert len(items) == min(k, len(truth)), (
            f"{len(items)} items for k={k} over {len(truth)}: {context}")
        tids = self._check_items(items, truth, context)
        omitted = [truth[tid] for tid in truth.keys() - set(tids)]
        if items and omitted:
            kth, closest = items[-1][0], min(omitted)
            assert closest >= kth or _close(closest, kth), (
                f"an omitted trajectory at {closest!r} beats the k-th "
                f"item at {kth!r}: {context}")

    def check_range(self, items: Sequence, query, radius: float,
                    context: str = "") -> None:
        """Assert ``items`` holds exactly the trajectories within
        ``radius`` (module contract)."""
        truth = self.distances(query)
        tids = self._check_items(items, truth, context)
        expected = {tid for tid, d in truth.items() if d <= radius}
        assert set(tids) == expected, (
            f"range answer {sorted(tids)} != {sorted(expected)}: {context}")

    @staticmethod
    def _check_items(items: Sequence, truth: dict[int, float],
                     context: str) -> list[int]:
        """Distinct tids, ``(distance, tid)`` order, true distances."""
        items = [tuple(item) for item in items]
        tids = [tid for _, tid in items]
        assert len(set(tids)) == len(tids), (
            f"duplicate tids {tids}: {context}")
        assert items == sorted(items), (
            f"not ordered by (distance, tid): {context}")
        for dist, tid in items:
            assert tid in truth, f"unknown tid {tid}: {context}"
            assert _close(dist, truth[tid]), (
                f"tid {tid} reported at {dist!r}, true distance "
                f"{truth[tid]!r}: {context}")
        return tids


def brute_force(measure, query, trajectories,
                k: int) -> list[tuple[float, int]]:
    """One-off :meth:`Oracle.top_k`."""
    return Oracle(measure, trajectories).top_k(query, k)


def brute_range(measure, query, trajectories,
                radius: float) -> list[tuple[float, int]]:
    """One-off :meth:`Oracle.range`."""
    return Oracle(measure, trajectories).range(query, radius)
