"""BENCH_query_index — greedy driver scans vs the query-side metric index.

Runs a 256-query skewed batch — a few dozen hot seed queries, their
jittered near-duplicates, and a long tail of exact re-issues, the shape
production streams actually have — through the batch planner twice per
cell: once with the legacy greedy scans (``plan_options={"query_index":
False}``: greedy first-fit clustering, the full pairwise cross-query
matrix under the 64-active cap, MRU-8 registry scans) and once with the
VP-tree query index that replaced them.  Results are asserted
bit-identical per query to the query's own ``top_k`` answer, itself
checked against the brute-force oracle, in every configuration — the
index only reorganizes driver-side work.

Cells:

* ``hausdorff skewed`` — the acceptance cell: few enough distinct
  queries that the greedy path still runs its full cross-query matrix.
  The index must do **strictly fewer** driver-side query-distance calls
  (``query_distance_calls``: clustering + cross-tightening + registry
  neighbors, fresh evaluations only) at equal results.
* ``hausdorff wide`` — more actives than the legacy 64-query cap, where
  the greedy path silently drops cross-query reuse and the index keeps
  it under a per-lookup budget.  The index may *pay* driver distance
  calls the greedy path skips, but partition-side exact refinements
  must be no worse, and the greedy path must show zero tightenings.
* ``dtw skewed`` — non-metric: the index degrades to the same budgeted
  linear scan the greedy code ran, so driver calls must be no worse
  (the content-twin prefilter can only remove work).

Results land in ``benchmarks/results/BENCH_query_index.json``.
"""

from __future__ import annotations

import json

import numpy as np

from repro.bench import BenchConfig, format_table, make_workload, write_report
from repro.bench.config import RESULTS_DIR
from repro.repose import Repose
from repro.testing.oracle import Oracle
from repro.types import Trajectory

CFG = BenchConfig.from_env()

NUM_PARTITIONS = 8
WAVE_SIZE = 2
K = 10
TOTAL_QUERIES = 256
JITTER = 1e-3

#: (measure, distinct actives, share_eps) per cell.  The skewed cells
#: keep the distinct-query count under the legacy 64-active cap so the
#: greedy path still runs its cross-query matrix; the wide cell
#: overshoots it on purpose.
CELLS = {
    "hausdorff skewed": ("hausdorff", 56, 0.3),
    "hausdorff wide": ("hausdorff", 120, 0.3),
    "dtw skewed": ("dtw", 56, 0.3),
}


def _skewed_queries(workload, distinct: int) -> list[Trajectory]:
    """A 256-query stream with ``distinct`` non-identical members:
    hot-corner seeds and their jittered near-duplicates, padded to
    ``TOTAL_QUERIES`` with exact re-issues of the seeds (Zipf-ish: the
    hottest seeds repeat the most)."""
    dataset = workload.dataset
    box = dataset.bounding_box()
    anchor = np.array([box.min_x, box.min_y])
    ranked = sorted(dataset.trajectories,
                    key=lambda t: float(np.linalg.norm(
                        t.points.mean(axis=0) - anchor)))
    num_seeds = max(2, distinct // 2)
    seeds = ranked[:num_seeds]
    rng = np.random.default_rng(11)
    queries = list(seeds)
    for j in range(distinct - num_seeds):
        base = seeds[j % num_seeds]
        points = base.points + rng.normal(0.0, JITTER, base.points.shape)
        queries.append(Trajectory(points, traj_id=7000 + j))
    hot = 0
    while len(queries) < TOTAL_QUERIES:
        queries.append(seeds[hot % max(1, num_seeds // 4)])
        hot += 1
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def _total_refinements(outcome) -> int:
    return sum(r.stats.exact_refinements for r in outcome.results)


def _cell(cell_name: str, workload) -> dict:
    measure, distinct, share_eps = CELLS[cell_name]
    engine = Repose.build(workload.dataset, measure=measure,
                          delta=workload.delta * 4,
                          num_partitions=NUM_PARTITIONS,
                          plan_options={"wave_size": WAVE_SIZE})
    queries = _skewed_queries(workload, distinct)
    assert len(queries) == TOTAL_QUERIES

    # Exactness references, memoized by point content (exact re-issues
    # share one computation): each query's own top_k answer, checked
    # against brute force.
    truth = Oracle(engine.measure, workload.dataset.trajectories)
    memo: dict[bytes, list] = {}
    reference = []
    for query in queries:
        ckey = query.points.tobytes()
        if ckey not in memo:
            memo[ckey] = engine.top_k(query, K).result.items
            truth.check_top_k(memo[ckey], query, K, cell_name)
        reference.append(memo[ckey])

    def run(query_index: bool) -> dict:
        outcome = engine.top_k_batch(
            queries, K,
            plan_options={"share_eps": share_eps,
                          "query_index": query_index})
        for result, expected in zip(outcome.results, reference):
            assert result.items == expected, (cell_name, query_index)
        report = outcome.plan
        return {
            "query_distance_calls": report.query_distance_calls,
            "sampled_bound_calls": report.sampled_bound_calls,
            "exact_refinements": _total_refinements(outcome),
            "probe_lookups": (report.probe_cache_hits
                              + report.probe_cache_misses),
            "share_groups": report.share_groups,
            "queries_shared": report.queries_shared,
            "queries_deduplicated": report.queries_deduplicated,
            "cross_query_tightenings": report.cross_query_tightenings,
            "sampled_tightenings": report.sampled_tightenings,
            "wall_seconds": outcome.wall_seconds,
            "simulated_seconds": outcome.simulated_seconds,
        }

    # Warm-up run: populates the probe cache and hot-query registry so
    # the measured pair runs at identical engine state and differs only
    # in driver-scan machinery.
    run(query_index=True)
    greedy = run(query_index=False)
    indexed = run(query_index=True)

    distinct_measured = TOTAL_QUERIES - indexed["queries_deduplicated"]
    return {
        "measure": measure,
        "queries": TOTAL_QUERIES,
        "distinct": distinct_measured,
        "share_eps": share_eps,
        "k": K,
        "greedy": greedy,
        "indexed": indexed,
        "query_distance_calls_saved": (greedy["query_distance_calls"]
                                       - indexed["query_distance_calls"]),
    }


def test_report_query_index():
    """Benchmark entry point (also runnable under pytest)."""
    workload = make_workload("t-drive", "hausdorff", scale=CFG.scale,
                             num_queries=1, cap=min(CFG.cap, 600),
                             seed=CFG.seed)
    results = {}
    rows = []
    for cell_name in CELLS:
        cell = _cell(cell_name, workload)
        results[cell_name] = cell
        rows.append([
            cell_name, cell["distinct"],
            cell["greedy"]["query_distance_calls"],
            cell["indexed"]["query_distance_calls"],
            cell["greedy"]["cross_query_tightenings"],
            cell["indexed"]["cross_query_tightenings"],
            cell["greedy"]["exact_refinements"],
            cell["indexed"]["exact_refinements"],
            cell["indexed"]["share_groups"],
            cell["indexed"]["queries_deduplicated"],
        ])
    table = format_table(
        "Query-side metric index vs greedy driver scans "
        f"(k={K}, partitions={NUM_PARTITIONS}, wave={WAVE_SIZE}, "
        f"{TOTAL_QUERIES} queries)",
        ["Cell", "Distinct", "QD calls greedy", "QD calls indexed",
         "Tighten greedy", "Tighten indexed", "Exact greedy",
         "Exact indexed", "Groups", "Deduped"], rows)
    write_report("query_index", table)

    skewed = results["hausdorff skewed"]
    wide = results["hausdorff wide"]
    dtw = results["dtw skewed"]
    # Acceptance: under the cap, where both paths run the full
    # cross-query machinery, the index does strictly fewer driver-side
    # query-distance calls at bit-identical results.
    assert (skewed["indexed"]["query_distance_calls"]
            < skewed["greedy"]["query_distance_calls"])
    # Past the cap the greedy path gave up on cross-query reuse
    # entirely; the index keeps tightening and never refines more.
    assert wide["greedy"]["cross_query_tightenings"] == 0
    assert (wide["indexed"]["exact_refinements"]
            <= wide["greedy"]["exact_refinements"])
    # Non-metric mode degrades to the same budgeted scan: never more
    # driver distance calls than the greedy loop it replaced.
    assert (dtw["indexed"]["query_distance_calls"]
            <= dtw["greedy"]["query_distance_calls"])
    path = RESULTS_DIR / "BENCH_query_index.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True,
                               default=float) + "\n")


if __name__ == "__main__":
    test_report_query_index()
