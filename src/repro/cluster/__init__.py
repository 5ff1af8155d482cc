"""Single-machine stand-in for the paper's Spark substrate.

The paper runs REPOSE on Spark (Section V-C): trajectories and the local
RP-Trie are packaged into an ``RpTrieRDD``, built with one
``mapPartitions`` and queried with ``mapPartitions``/``collect``.  Here
the driver (:class:`repro.repose.DistributedTopK`) holds the built
partitions itself and runs every build and query as per-partition tasks
on an execution engine.  Each query shape has exactly one execution
path: a single top-k or range query goes through the wave planner, a
batch through the batch planner.

* :mod:`~repro.cluster.rdd` — the driver-side
  :class:`~repro.cluster.rdd.ClusterContext` (engine, calibration,
  recorded task timings) and the planners' epoch-invalidated
  :class:`~repro.cluster.rdd.ProbeCache`;
* :mod:`~repro.cluster.engine` — execution backends (serial, thread,
  process, auto) that run one task per partition, record its duration
  and, under a fault policy, retry, time out and speculate;
* :mod:`~repro.cluster.scheduler` — a simulated ``W x C``-core cluster
  that schedules recorded task durations and reports the makespan.  It
  stands in for wall-clock query time on the paper's 16-node cluster,
  which one machine cannot measure directly;
* :mod:`~repro.cluster.planner` — the two-phase query planner: probe
  partitions for first-level lower bounds, dispatch them in promise
  order through coordinated waves, and broadcast the tightening global
  k-th-best distance into every later wave's local searches.  One wave
  of all partitions is the paper's one-shot fan-out;
* :mod:`~repro.cluster.batch` — the multi-query batch planner: shared
  (cached) probes, partition-affinity task grouping, and a per-query
  threshold vector with cross-query triangle-inequality reuse;
* :mod:`~repro.cluster.query_index` — the driver-side metric index
  (mutable VP-tree with content-fingerprint prefilter and a shared
  pair cache) the batch planner's query scans — share clustering,
  cross-query tightening, registry neighbor lookups — run against,
  plus the incremental cross-wave cache for sampled non-metric bounds;
* :mod:`~repro.cluster.service` — the always-on micro-batching service
  in front of the batch planner.
"""

from .rdd import ClusterContext, ProbeCache
from .engine import ExecutionEngine, TaskTiming
from .scheduler import (
    ClusterSpec,
    ScheduleReport,
    lpt_order,
    simulate_schedule,
    simulate_schedule_waves,
)
from .driver import RunningTopK, RunningTopKVector, merge_range, merge_top_k
from .planner import PlanReport, QueryPlanner, WaveReport
from .query_index import IncrementalSampledBounds, QueryIndex
from .batch import BatchPlanReport, BatchQueryPlanner

__all__ = [
    "ClusterContext",
    "ProbeCache",
    "ExecutionEngine",
    "TaskTiming",
    "ClusterSpec",
    "ScheduleReport",
    "lpt_order",
    "simulate_schedule",
    "simulate_schedule_waves",
    "RunningTopK",
    "RunningTopKVector",
    "merge_top_k",
    "merge_range",
    "QueryPlanner",
    "PlanReport",
    "WaveReport",
    "BatchQueryPlanner",
    "BatchPlanReport",
    "QueryIndex",
    "IncrementalSampledBounds",
]
