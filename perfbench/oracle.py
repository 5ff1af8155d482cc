"""Brute-force answers that share no code with the program.

Every distance is a full dynamic program (or, for Hausdorff, a full
point-distance reduction) over every trajectory, vectorised across
candidates with numpy: no trie, bound, planner, threshold or heap.
Candidates are processed in length-sorted chunks so padding stays
small; a padded column never feeds an earlier one, so each
candidate's answer is read at its own last column.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1024
#: A chunk ends before the first length beyond this factor of its
#: shortest, which keeps padding near a quarter of the real cells.
_PAD_RATIO = 1.25
_HAUSDORFF_POINTS = 1 << 15


def _chunks(points: list[np.ndarray]):
    """Yield ``(indices, padded (C, n, 2), lengths)`` by ascending length."""
    lengths = np.array([len(p) for p in points])
    order = np.argsort(lengths, kind="stable")
    lo = 0
    while lo < len(order):
        limit = lengths[order[lo]] * _PAD_RATIO + 2
        hi = lo + 1
        while (hi < len(order) and hi - lo < _CHUNK
               and lengths[order[hi]] <= limit):
            hi += 1
        idx = order[lo:hi]
        lo = hi
        lens = lengths[idx]
        padded = np.zeros((len(idx), int(lens.max()), 2))
        for row, i in enumerate(idx):
            padded[row, :lens[row]] = points[i]
        yield idx, padded, lens


def _costs(query: np.ndarray, padded: np.ndarray) -> np.ndarray:
    """Euclidean point costs, shape (m, C, n)."""
    dx = query[:, 0, None, None] - padded[None, :, :, 0]
    dy = query[:, 1, None, None] - padded[None, :, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def _dtw_chunk(cost: np.ndarray) -> np.ndarray:
    """Full DTW table, row by row; returns the last row (C, n).

    Within a row ``E[j] = c[j] + min(a[j], E[j-1])`` with ``a`` the
    best of the two cells above; unrolled, ``E[j] = P[j] +
    min_{l<=j}(a[l] + c[l] - P[l])`` for the row prefix sums ``P``.
    """
    row = np.cumsum(cost[0], axis=1)
    for i in range(1, cost.shape[0]):
        c = cost[i]
        a = row.copy()
        np.minimum(row[:, 1:], row[:, :-1], out=a[:, 1:])
        prefix = np.cumsum(c, axis=1)
        row = prefix + np.minimum.accumulate(a + c - prefix, axis=1)
    return row


def _frechet_chunk(cost: np.ndarray) -> np.ndarray:
    """Full discrete Frechet table, row by row; returns the last row.

    Within a row ``E[j] = max(c[j], min(a[j], E[j-1]))``, i.e. ``E[j]``
    is ``E[j-1]`` clamped to ``[c[j], max(a[j], c[j])]``.  Clamps
    compose into clamps, so the row is an inclusive scan over clamp
    intervals (log-step doubling), applied to ``a[0]``.
    """
    row = np.maximum.accumulate(cost[0], axis=1)
    width = cost.shape[2]
    for i in range(1, cost.shape[0]):
        c = cost[i]
        a = row.copy()
        np.minimum(row[:, 1:], row[:, :-1], out=a[:, 1:])
        lo = c.copy()
        hi = np.maximum(a, c)
        hi[:, 0] = np.inf            # E[0] = max(c[0], a[0])
        step = 1
        while step < width:
            inner_lo = lo[:, :-step]
            inner_hi = hi[:, :-step]
            outer_lo = lo[:, step:]
            outer_hi = hi[:, step:]
            new_lo = np.maximum(np.minimum(inner_lo, outer_hi), outer_lo)
            new_hi = np.maximum(np.minimum(inner_hi, outer_hi), outer_lo)
            lo[:, step:] = new_lo
            hi[:, step:] = new_hi
            step *= 2
        row = np.maximum(np.minimum(a[:, :1], hi), lo)
    return row


def _dp_distances(query: np.ndarray, points: list[np.ndarray],
                  sweep) -> np.ndarray:
    out = np.empty(len(points))
    for idx, padded, lens in _chunks(points):
        last = sweep(_costs(query, padded))
        out[idx] = last[np.arange(len(idx)), lens - 1]
    return out


def _hausdorff_distances(query: np.ndarray,
                         points: list[np.ndarray]) -> np.ndarray:
    out = np.empty(len(points))
    start = 0
    while start < len(points):
        stop, total = start, 0
        while stop < len(points) and (stop == start
                                      or total < _HAUSDORFF_POINTS):
            total += len(points[stop])
            stop += 1
        block = np.concatenate(points[start:stop])
        offsets = np.cumsum([0] + [len(p) for p in points[start:stop - 1]])
        dx = query[:, 0, None] - block[None, :, 0]
        dy = query[:, 1, None] - block[None, :, 1]
        dm = np.sqrt(dx * dx + dy * dy)                 # (m, total)
        forward = np.minimum.reduceat(dm, offsets, axis=1).max(axis=0)
        backward = np.maximum.reduceat(dm.min(axis=0), offsets)
        out[start:stop] = np.maximum(forward, backward)
        start = stop
    return out


_SWEEPS = {"dtw": _dtw_chunk, "frechet": _frechet_chunk}


def distances(measure: str, query: np.ndarray,
              points: list[np.ndarray]) -> np.ndarray:
    """Exact distance from ``query`` to every trajectory in ``points``."""
    if measure == "hausdorff":
        return _hausdorff_distances(query, points)
    return _dp_distances(query, points, _SWEEPS[measure])


def check_top_k(items, tids: np.ndarray, dist: np.ndarray, k: int,
                rel: float = 1e-9) -> str | None:
    """Compare a top-k answer with brute-force distances.

    ``items`` are the program's ``(distance, tid)`` pairs.  Distances
    may differ from the oracle's in the last bits (the DPs sum in
    another order), so values match within ``rel``; an answer is wrong
    when an item's distance is off, the order by ``(distance, tid)``
    is broken, an item is missing, or a left-out trajectory is closer
    than the k-th kept one.  Returns None when correct, else why.
    """
    want = min(k, len(tids))
    if len(items) != want:
        return f"{len(items)} items, expected {want}"
    where = {int(t): i for i, t in enumerate(tids)}
    kept = set()
    previous = None
    for d, tid in items:
        i = where.get(int(tid))
        if i is None:
            return f"unknown tid {tid}"
        if abs(dist[i] - d) > rel * max(1.0, abs(d)):
            return f"tid {tid}: distance {d!r}, oracle {dist[i]!r}"
        if previous is not None and (d, tid) < previous:
            return "items out of (distance, tid) order"
        previous = (d, tid)
        kept.add(i)
    kth = items[-1][0] if items else np.inf
    rest = np.ones(len(tids), dtype=bool)
    rest[list(kept)] = False
    if rest.any():
        closest = float(dist[rest].min())
        if closest < kth - rel * max(1.0, abs(kth)):
            return f"missed a trajectory at {closest!r} < k-th {kth!r}"
    return None
