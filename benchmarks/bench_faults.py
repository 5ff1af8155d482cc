"""BENCH_faults — fault-handling overhead and recovery cost.

Two questions about the fault-tolerant execution layer
(:class:`~repro.cluster.engine.FaultPolicy`):

* **Overhead** — what does supervision cost when nothing fails?  The
  same skewed batch workload runs on the same thread pool twice: once
  on the legacy fail-fast path (no policy) and once under a policy
  (retries, derived timeouts, the supervisor loop) with zero injected
  faults.  Both are timed as the minimum of ``REPEATS`` runs; the
  acceptance gate bounds the supervised slowdown at
  ``REPRO_BENCH_FAULT_MARGIN`` (default 2%).
* **Recovery** — what does surviving faults cost?  The same workload
  runs with a deterministic
  :class:`~repro.testing.faults.FaultInjector` at a 10% fault rate;
  every query must complete bit-identical to the fault-free reference
  (each query's own ``top_k`` answer, checked against brute force),
  and the recorded wall time + retry counters show the price of the
  retries that made that happen.

Results land in ``benchmarks/results/BENCH_faults.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.bench import BenchConfig, format_table, make_workload, write_report
from repro.bench.config import RESULTS_DIR
from repro.cluster.engine import FaultPolicy
from repro.repose import Repose
from repro.testing import FaultInjector
from repro.testing.oracle import Oracle

CFG = BenchConfig.from_env()

NUM_PARTITIONS = 16
K = 10
REPEATS = int(os.environ.get("REPRO_BENCH_FAULT_REPEATS", "7"))
MARGIN = float(os.environ.get("REPRO_BENCH_FAULT_MARGIN", "0.02"))
FAULT_RATE = 0.1

# Explicit generous timeout: hot dtw tasks can exceed the derived
# floor under thread contention, and a spurious timeout-retry would
# pollute the overhead measurement.
POLICY = FaultPolicy(max_retries=3, backoff_seconds=0.001,
                     jitter_fraction=0.25, task_timeout=30.0)


def _skewed_queries(workload) -> list:
    """A hot-corner-skewed batch: most queries from the densest corner
    of the dataset, a couple from the far side."""
    dataset = workload.dataset
    box = dataset.bounding_box()
    anchor = np.array([box.min_x, box.min_y])

    def corner_distance(t):
        return float(np.linalg.norm(t.points.mean(axis=0) - anchor))

    ranked = sorted(dataset.trajectories, key=corner_distance)
    return ranked[:8] + ranked[-2:]


def _min_wall(engine: Repose, queries, repeats: int) -> tuple[float, object]:
    """Minimum batch wall time over ``repeats`` runs (plus the last
    outcome, for its counters)."""
    best = float("inf")
    outcome = None
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = engine.top_k_batch(queries, K)
        best = min(best, time.perf_counter() - start)
    return best, outcome


def test_report_faults():
    """Benchmark entry point (also runnable under pytest)."""
    workload = make_workload("t-drive", "dtw", scale=CFG.scale,
                             num_queries=1, cap=min(CFG.cap, 600),
                             seed=CFG.seed)
    engine = Repose.build(workload.dataset, measure="dtw",
                          delta=workload.delta * 2,
                          num_partitions=NUM_PARTITIONS,
                          engine="thread")
    queries = _skewed_queries(workload)

    truth = Oracle(engine.measure, workload.dataset.trajectories)
    reference = []
    for query in queries:
        items = engine.top_k(query, K).result.items
        truth.check_top_k(items, query, K)
        reference.append(items)

    # -- overhead: fail-fast vs supervised, zero faults ------------------
    engine.context.engine.fault_policy = None
    baseline_wall, baseline_outcome = _min_wall(engine, queries, REPEATS)
    engine.context.engine.fault_policy = POLICY
    supervised_wall, supervised_outcome = _min_wall(engine, queries, REPEATS)
    for outcome in (baseline_outcome, supervised_outcome):
        assert outcome.complete
        for result, expected in zip(outcome.results, reference):
            assert result.items == expected
    assert supervised_outcome.plan.retries == 0
    assert supervised_outcome.plan.timeouts == 0
    overhead = (supervised_wall - baseline_wall) / baseline_wall

    # -- recovery: 10% injected faults must be absorbed ------------------
    injector = FaultInjector(seed=CFG.seed + 13, rate=FAULT_RATE,
                             kinds=("raise", "delay"),
                             delay_seconds=0.002)
    injector.install(engine.context.engine)
    recovery_wall = float("inf")
    recovery_outcome = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        recovery_outcome = engine.top_k_batch(queries, K)
        recovery_wall = min(recovery_wall, time.perf_counter() - start)
        assert recovery_outcome.complete
        for result, expected in zip(recovery_outcome.results, reference):
            assert result.items == expected
    injector.uninstall(engine.context.engine)
    engine.context.engine.fault_policy = None

    rows = [
        ["fail-fast (no policy)", f"{baseline_wall * 1e3:.2f}", "-", "-"],
        ["supervised, no faults", f"{supervised_wall * 1e3:.2f}",
         f"{overhead * 100:+.2f}%", "0"],
        [f"supervised, {FAULT_RATE:.0%} faults",
         f"{recovery_wall * 1e3:.2f}",
         f"{(recovery_wall - baseline_wall) / baseline_wall * 100:+.2f}%",
         str(recovery_outcome.plan.retries)],
    ]
    table = format_table(
        f"Fault-handling overhead and recovery (dtw, k={K}, "
        f"{len(queries)} skewed queries, {NUM_PARTITIONS} partitions, "
        f"min of {REPEATS} runs)",
        ["Configuration", "Batch wall (ms)", "vs fail-fast", "Retries"],
        rows)
    write_report("faults", table)

    payload = {
        "config": {"k": K, "num_partitions": NUM_PARTITIONS,
                   "queries": len(queries), "repeats": REPEATS,
                   "margin": MARGIN, "fault_rate": FAULT_RATE,
                   "scale": CFG.scale, "cap": min(CFG.cap, 600)},
        "overhead": {
            "baseline_wall_seconds": baseline_wall,
            "supervised_wall_seconds": supervised_wall,
            "overhead_fraction": overhead,
        },
        "recovery": {
            "wall_seconds": recovery_wall,
            "injected": dict(injector.injected),
            "retries": recovery_outcome.plan.retries,
            "timeouts": recovery_outcome.plan.timeouts,
            "bit_identical": True,
            "complete": recovery_outcome.complete,
        },
    }
    path = RESULTS_DIR / "BENCH_faults.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[fault-tolerance benchmark saved to {path}]")

    # Acceptance: supervision is near-free when nothing fails, and the
    # injected-fault run actually exercised recovery.
    assert overhead < MARGIN, (
        f"supervised overhead {overhead:.1%} exceeds the {MARGIN:.0%} "
        f"margin (REPRO_BENCH_FAULT_MARGIN to override)")
    assert injector.total_injected > 0
    assert recovery_outcome.plan.retries >= 1


if __name__ == "__main__":
    test_report_faults()
