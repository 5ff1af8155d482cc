"""Driver-side cluster state: the context and its probe cache.

The paper keeps trajectories and their local RP-Tries in an RDD and
runs ``mapPartitions``/``collect`` over it (Section V-C).  Here the
driver holds the built partitions directly and dispatches per-partition
tasks through an :class:`~repro.cluster.engine.ExecutionEngine`; this
module keeps what the driver needs around those dispatches: the
:class:`ClusterContext` (engine, calibration, recorded task timings)
and the planners' epoch-invalidated :class:`ProbeCache`.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

import numpy as np

from .engine import ExecutionEngine, TaskTiming

__all__ = ["ProbeCache", "ClusterContext"]


class ProbeCache:
    """Driver-side cache of planner partition probes, epoch-invalidated.

    A probe (:class:`~repro.core.search.PartitionProbe`) is a pure
    function of the query, the shared query-pivot distances and the
    partition's index, and the query planners re-probe every partition
    on every planned query.  A stream of repeated queries — the same
    trajectory issued in consecutive scheduled batches — therefore
    recomputes identical probes.  This cache memoizes them per
    ``(partition id, query fingerprint)`` for the current *index epoch*:
    any index rebuild or incremental insert bumps the epoch
    (:meth:`bump_epoch`), dropping every cached probe, because a changed
    partition's bounds are new.  Capacity-bounded, evicting oldest
    entries first; :attr:`hits`/:attr:`misses` expose effectiveness.

    The epoch is also the driver's *index epoch*: any derived cache
    whose validity depends on the indexes not having changed (the
    serving layer's :class:`~repro.cluster.service.HotQueryRegistry`)
    can :meth:`subscribe` to epoch rolls and drop its own state in the
    same moment probes are dropped, so no reader anywhere observes
    state from a previous epoch.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self._entries: dict[tuple, object] = {}
        self._listeners: list[Callable[[int], None]] = []

    def subscribe(self, listener: Callable[[int], None]) -> None:
        """Register ``listener(new_epoch)`` to be called on every
        :meth:`bump_epoch`, synchronously and in subscription order.

        Listeners let epoch-stamped derived caches (the hot-query
        registry) invalidate eagerly instead of lazily checking the
        epoch on every read — a write (insert/rebuild) then leaves no
        stale entry behind for any reader to race with.
        """
        self._listeners.append(listener)

    @staticmethod
    def fingerprint(query, dqp=None) -> bytes | None:
        """Content fingerprint of one probe input, or None when the
        query exposes no point array (caching is then skipped)."""
        points = getattr(query, "points", None)
        if points is None:
            return None
        digest = hashlib.blake2b(
            np.ascontiguousarray(points).tobytes(), digest_size=16)
        if dqp is not None:
            digest.update(np.ascontiguousarray(dqp).tobytes())
        return digest.digest()

    def bump_epoch(self) -> None:
        """Invalidate every cached probe (the indexes changed) and
        notify every subscribed listener of the new epoch."""
        self.epoch += 1
        self._entries.clear()
        for listener in self._listeners:
            listener(self.epoch)

    def counters(self) -> tuple[int, int]:
        """Current ``(hits, misses)`` snapshot.

        The planners diff two snapshots around one plan's probe phase
        to attribute cache effectiveness to that plan's report —
        share-group members never probe at all, so their fingerprints
        appear in neither counter (the saving shows up as the *absence*
        of lookups, reported separately as ``queries_shared``).
        """
        return self.hits, self.misses

    def get(self, partition_id: int, fingerprint: bytes):
        """The cached probe for this (partition, query), or None."""
        probe = self._entries.get((partition_id, fingerprint))
        if probe is None:
            self.misses += 1
        else:
            self.hits += 1
        return probe

    def put(self, partition_id: int, fingerprint: bytes, probe) -> None:
        """Cache one computed probe, evicting the oldest entry at
        capacity."""
        if len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[(partition_id, fingerprint)] = probe


class ClusterContext:
    """Driver-side context, playing the role of Spark's ``SparkContext``:
    the execution engine plus what outlives one dispatch on it."""

    def __init__(self, engine: ExecutionEngine | None = None):
        #: Measured cost-model rates persisted by
        #: :meth:`repro.repose.DistributedTopK.calibrate`.  Assigning a
        #: new :attr:`engine` re-seeds it from this dict, so
        #: calibration outlives any single engine.  (Set before the
        #: engine so the setter can read it.)
        self.calibration: dict[str, float] = {}
        self.engine = engine if engine is not None else ExecutionEngine()
        self.last_timings: list[TaskTiming] = []
        #: Wave-aware task accounting: per-wave timing lists of the most
        #: recent action.  An index build records one wave; the
        #: planners record one entry per dispatched wave, which is
        #: what the barrier-aware makespan simulation
        #: (:func:`repro.cluster.scheduler.simulate_schedule_waves`)
        #: consumes.  ``last_timings`` stays the flat concatenation.
        self.last_wave_timings: list[list[TaskTiming]] = []
        #: Planner probe memoization (see :class:`ProbeCache`).  The
        #: driver bumps its epoch whenever indexes are (re)built or a
        #: trajectory is inserted, so stale probes can never be served.
        self.probe_cache = ProbeCache()

    @property
    def engine(self) -> ExecutionEngine:
        """The execution engine running this context's actions."""
        return self._engine

    @engine.setter
    def engine(self, engine: ExecutionEngine) -> None:
        """Install ``engine``, seeding it with any persisted calibration
        (engine-measured rates win over previously stored ones)."""
        for measure, rate in self.calibration.items():
            engine.calibrated_cost_us.setdefault(measure, rate)
        self._engine = engine

    def record_timings(self,
                       wave_timings: Sequence[list[TaskTiming]]) -> None:
        """Record one action's per-wave task timings (flat + waved)."""
        self.last_wave_timings = [list(w) for w in wave_timings]
        self.last_timings = [t for wave in self.last_wave_timings
                             for t in wave]
