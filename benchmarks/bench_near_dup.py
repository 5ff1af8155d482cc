"""BENCH_near_dup — identical-only dedup vs near-duplicate sharing.

Runs a *jittered-duplicate* workload — hot seed queries re-issued with
GPS-noise-level jitter, the way production streams repeat almost-but-
not-exactly identical queries — through two batch configurations per
measure:

* ``dedup``  — PR 4's batch planner exactly: fingerprint-identical
  dedup only (``share_eps`` unset, sampled bound disabled), so every
  jittered re-issue probes and plans on its own;
* ``shared`` — near-duplicate sharing (``plan_options={"share_eps"}``):
  jittered re-issues cluster into share groups, adopt their
  representative's probe and wave plan staggered one wave behind it,
  and run their entire search under rep-derived thresholds — the
  triangle inequality for metric measures, the sampled banded bound
  (``sample_size`` auto) for DTW/EDR/LCSS.

Recorded per measure: probe lookups, leaf tensor builds (the columnar
stores' ``gather_calls``), exact refinements, dispatched tasks,
share-group and tightening counters, wall and simulated times.  Both
configurations are exact and bit-identical per query to the query's
own ``top_k`` answer, itself checked against the brute-force oracle
(asserted here; property-tested in
``tests/test_batch_planner.py``, fuzzed in
``tests/test_fuzz_equivalence.py``), so every delta is pure work
moved or saved.  Results land in
``benchmarks/results/BENCH_near_dup.json``.

The edit measures run with a workload-scaled ``eps`` (their library
default of 0.001 is below the jitter, which would make every jittered
twin maximally distant) and each measure indexes at the grid
granularity where its leaf population is realistic for its bound
quality — coarse for the strong-bound metric measures, fine for the
weak-bound DP measures.

Acceptance (asserted, also run in CI): per measure, the shared
configuration performs strictly fewer probe lookups and strictly
fewer exact refinements while never building more leaf tensors; over
the whole workload it builds strictly fewer leaf tensors.  Member
streams *can* re-gather tensors their representative's task already
built (staggering trades that duplication for threshold pruning), so
the per-measure gather guarantee is "no worse", with the strict win
coming from the measures whose bounds convert the tighter thresholds
into pruned leaves.
"""

from __future__ import annotations

import json

import numpy as np

from repro.bench import BenchConfig, format_table, make_workload, write_report
from repro.bench.config import RESULTS_DIR
from repro.distances import get_measure
from repro.repose import Repose
from repro.types import Trajectory
from repro.testing.oracle import Oracle

CFG = BenchConfig.from_env()

NUM_PARTITIONS = 16
WAVE_SIZE = 2
K = 20
NUM_SEEDS = 4
JITTERS_PER_SEED = 3
JITTER = 1e-3

#: Per-measure (measure params, share_eps, grid-delta multiplier).
#: share_eps is in the measure's own units (integer edits for EDR,
#: [0, 1] for LCSS); the delta multiplier sets leaf granularity.
MEASURES = {
    "hausdorff": ({}, 0.3, 6),
    "frechet": ({}, 0.3, 4),
    "erp": ({}, 0.5, 6),
    "dtw": ({}, 0.3, 2),
    "edr": ({"eps": 0.05}, 6.0, 2),
    "lcss": ({"eps": 0.05}, 0.4, 2),
}


def _jittered_queries(workload) -> list:
    """Hot-corner seed queries, each re-issued with tiny jitter, plus
    one disjoint far query (never shareable)."""
    dataset = workload.dataset
    box = dataset.bounding_box()
    anchor = np.array([box.min_x, box.min_y])

    def corner_distance(t):
        return float(np.linalg.norm(t.points.mean(axis=0) - anchor))

    ranked = sorted(dataset.trajectories, key=corner_distance)
    rng = np.random.default_rng(7)
    queries = []
    for si, seed in enumerate(ranked[:NUM_SEEDS]):
        queries.append(seed)
        for j in range(JITTERS_PER_SEED):
            points = seed.points + rng.normal(0.0, JITTER,
                                              seed.points.shape)
            queries.append(Trajectory(points, traj_id=5000 + si * 10 + j))
    queries.append(ranked[-1])
    return queries


def _gather_calls(engine) -> int:
    """Total leaf tensor builds across every partition's store."""
    return sum(index.trie.store.gather_calls
               for index in engine.local_indexes())


def _near_dup_cell(name: str, workload) -> dict:
    """Identical-only dedup vs near-duplicate sharing for one measure."""
    params, share_eps, delta_mul = MEASURES[name]
    measure = get_measure(name, **params) if params else name
    engine = Repose.build(workload.dataset, measure=measure,
                          delta=workload.delta * delta_mul,
                          num_partitions=NUM_PARTITIONS,
                          plan_options={"wave_size": WAVE_SIZE})
    queries = _jittered_queries(workload)

    # Exactness reference: each query's own top_k answer, checked
    # against brute force.
    truth = Oracle(engine.measure, workload.dataset.trajectories)
    reference = []
    for query in queries:
        items = engine.top_k(query, K).result.items
        truth.check_top_k(items, query, K, name)
        reference.append(items)

    def run(plan_options: dict) -> dict:
        before = _gather_calls(engine)
        outcome = engine.top_k_batch(queries, K, plan_options=plan_options)
        for result, expected in zip(outcome.results, reference):
            assert result.items == expected, name
        report = outcome.plan
        return {
            "leaf_gathers": _gather_calls(engine) - before,
            "exact_refinements": sum(r.stats.exact_refinements
                                     for r in outcome.results),
            "probe_lookups": (report.probe_cache_hits
                              + report.probe_cache_misses),
            "tasks": report.tasks_dispatched,
            "partition_queries": report.partition_queries_dispatched,
            "partitions_skipped": report.partitions_skipped,
            "share_groups": report.share_groups,
            "queries_shared": report.queries_shared,
            "queries_deduplicated": report.queries_deduplicated,
            "cross_query_tightenings": report.cross_query_tightenings,
            "sampled_tightenings": report.sampled_tightenings,
            "wall_seconds": outcome.wall_seconds,
            "simulated_seconds": outcome.simulated_seconds,
        }

    # PR 4 semantics: identical-only dedup, no near-dup machinery.
    dedup = run({"share_eps": None, "sample_size": 0})
    shared = run({"share_eps": share_eps})

    return {
        "queries": len(queries),
        "seeds": NUM_SEEDS,
        "jitters_per_seed": JITTERS_PER_SEED,
        "share_eps": share_eps,
        "delta_multiplier": delta_mul,
        "measure_params": params,
        "k": K,
        "dedup": dedup,
        "shared": shared,
        "exact_refinements_saved": (dedup["exact_refinements"]
                                    - shared["exact_refinements"]),
        "probe_lookups_saved": (dedup["probe_lookups"]
                                - shared["probe_lookups"]),
        "leaf_gathers_saved": (dedup["leaf_gathers"]
                               - shared["leaf_gathers"]),
    }


def test_report_near_dup():
    """Benchmark entry point (also runnable under pytest)."""
    workload = make_workload("t-drive", "hausdorff", scale=CFG.scale,
                             num_queries=1, cap=min(CFG.cap, 600),
                             seed=CFG.seed)
    results = {}
    rows = []
    for name in MEASURES:
        cell = _near_dup_cell(name, workload)
        results[name] = cell
        rows.append([
            name,
            cell["dedup"]["probe_lookups"],
            cell["shared"]["probe_lookups"],
            cell["dedup"]["exact_refinements"],
            cell["shared"]["exact_refinements"],
            cell["dedup"]["leaf_gathers"],
            cell["shared"]["leaf_gathers"],
            cell["shared"]["share_groups"],
            cell["shared"]["queries_shared"],
            (cell["shared"]["cross_query_tightenings"]
             + cell["shared"]["sampled_tightenings"]),
        ])
    table = format_table(
        "Near-duplicate sharing: identical-only dedup vs share_eps "
        f"(k={K}, partitions={NUM_PARTITIONS}, wave={WAVE_SIZE}, "
        f"{NUM_SEEDS} seeds x {1 + JITTERS_PER_SEED} issues + 1 far)",
        ["Measure", "Probes dedup", "Probes shared", "Exact dedup",
         "Exact shared", "Gathers dedup", "Gathers shared", "Groups",
         "Shared", "Tightenings"],
        rows)
    write_report("near_dup", table)

    payload = {
        "config": {"k": K, "num_partitions": NUM_PARTITIONS,
                   "wave_size": WAVE_SIZE, "seeds": NUM_SEEDS,
                   "jitters_per_seed": JITTERS_PER_SEED,
                   "jitter": JITTER, "scale": CFG.scale,
                   "cap": min(CFG.cap, 600)},
        "measures": results,
    }
    path = RESULTS_DIR / "BENCH_near_dup.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[near-duplicate sharing benchmark saved to {path}]")

    # Acceptance: per measure, sharing strictly reduces probe lookups
    # and exact refinements without ever building more leaf tensors;
    # across the workload it builds strictly fewer leaf tensors.
    for name, cell in results.items():
        dedup, shared = cell["dedup"], cell["shared"]
        assert shared["probe_lookups"] < dedup["probe_lookups"], (
            name, shared["probe_lookups"], dedup["probe_lookups"])
        assert (shared["exact_refinements"]
                < dedup["exact_refinements"]), (
            name, shared["exact_refinements"], dedup["exact_refinements"])
        assert shared["leaf_gathers"] <= dedup["leaf_gathers"], (
            name, shared["leaf_gathers"], dedup["leaf_gathers"])
        # Every jittered re-issue must share; mutually-close seeds may
        # legitimately merge into fewer, larger groups.
        assert shared["share_groups"] >= 1, name
        assert shared["queries_shared"] >= (NUM_SEEDS
                                            * JITTERS_PER_SEED), name
    total_dedup = sum(c["dedup"]["leaf_gathers"] for c in results.values())
    total_shared = sum(c["shared"]["leaf_gathers"]
                       for c in results.values())
    assert total_shared < total_dedup, (total_shared, total_dedup)


if __name__ == "__main__":
    test_report_near_dup()
