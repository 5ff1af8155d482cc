"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``  synthesize a dataset to CSV from a Table III spec
``query``     build an engine over a CSV dataset and run a top-k query
``serve``     stream requests through the always-on micro-batching service
``bench``     run one paper experiment (delegates to benchmarks/run_all)
``info``      print dataset statistics for a CSV file

The CLI is a thin veneer over the library; every option maps 1:1 to an
API parameter so scripts can graduate to Python painlessly.
"""

from __future__ import annotations

import argparse
import sys

from .datasets.io import load_csv, save_csv
from .datasets.preprocess import preprocess, sample_queries
from .datasets.stats import DATASET_SPECS
from .datasets.synthetic import generate_dataset
from .cluster.engine import FaultPolicy
from .distances import get_measure, list_measures
from .repose import Repose

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="REPOSE: distributed top-k trajectory similarity search")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a dataset to CSV")
    gen.add_argument("dataset", choices=sorted(DATASET_SPECS))
    gen.add_argument("output", help="output CSV path")
    gen.add_argument("--scale", type=float, default=0.001,
                     help="cardinality scale factor (default 0.001)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--no-preprocess", action="store_true",
                     help="skip the paper's length filtering/splitting")

    query = sub.add_parser("query", help="top-k query over a CSV dataset")
    query.add_argument("data", help="CSV dataset (traj_id,x,y rows)")
    query.add_argument("--measure", default="hausdorff",
                       choices=sorted(list_measures()))
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--delta", type=float, default=None,
                       help="grid cell side (default: span/128)")
    query.add_argument("--partitions", type=int, default=16)
    query.add_argument("--strategy", default="heterogeneous",
                       choices=["heterogeneous", "homogeneous", "random"])
    query.add_argument("--query-id", type=int, default=None,
                       help="trajectory id to use as the query "
                            "(default: random sample)")
    query.add_argument("--radius", type=float, default=None,
                       help="run a range query instead of top-k")
    query.add_argument("--wave-size", type=int, default=None,
                       help="partitions per planner wave "
                            "(plan_options={'wave_size': N}; the "
                            "partition count gives one wave)")
    query.add_argument("--share-eps", type=float, default=None,
                       help="near-duplicate sharing threshold for "
                            "--batch: queries within this distance of "
                            "a share-group representative reuse its "
                            "probe and wave plan "
                            "(plan_options={'share_eps': EPS})")
    query.add_argument("--no-query-index", action="store_true",
                       help="use the legacy greedy driver scans for "
                            "--batch instead of the query-side metric "
                            "index (restores the 64-distinct-query "
                            "cross-tightening cap; "
                            "plan_options={'query_index': False})")
    query.add_argument("--kernels", default=None,
                       choices=["auto", "numpy", "cnative"],
                       help="DP kernel backend for batch refinement: "
                            "'numpy' (always available), 'cnative' "
                            "(compiled tier, bit-identical results), "
                            "or 'auto' (fastest available, the "
                            "default; REPRO_KERNELS env overrides)")
    query.add_argument("--calibrate", action="store_true",
                       help="calibrate the 'auto' cost model on one "
                            "real partition task before querying")
    query.add_argument("--max-retries", type=int, default=None,
                       metavar="N",
                       help="enable fault-tolerant execution: retry each "
                            "failed/timed-out partition task up to N "
                            "times with backoff, then degrade to a "
                            "flagged partial result instead of raising")
    query.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-task deadline for fault-tolerant "
                            "execution (default: derived from the "
                            "calibrated cost model); implies "
                            "--max-retries 2 when given alone")
    query.add_argument("--speculate", action="store_true",
                       help="launch a speculative duplicate of straggler "
                            "tasks (first result wins); implies "
                            "--max-retries 2 when given alone")
    query.add_argument("--batch", type=int, default=None, metavar="N",
                       help="run N sampled queries as one batch through "
                            "the multi-query batch planner and print "
                            "per-query top-1 plus batch statistics")

    serve = sub.add_parser(
        "serve", help="stream top-k requests through the always-on "
                      "micro-batching service (ReposeService)")
    serve.add_argument("data", help="CSV dataset (traj_id,x,y rows)")
    serve.add_argument("--measure", default="hausdorff",
                       choices=sorted(list_measures()))
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument("--delta", type=float, default=None,
                       help="grid cell side (default: span/128)")
    serve.add_argument("--partitions", type=int, default=16)
    serve.add_argument("--strategy", default="heterogeneous",
                       choices=["heterogeneous", "homogeneous", "random"])
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="micro-batch window: a request waits at most "
                            "this long for companions (default 2.0)")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="micro-batch size cap (default 16)")
    serve.add_argument("--requests", type=int, default=8,
                       help="distinct sampled queries to stream "
                            "(default 8)")
    serve.add_argument("--repeat", type=int, default=2,
                       help="times each query is issued, interleaved; "
                            "repeats exercise the cross-batch hot-query "
                            "registry (default 2)")
    serve.add_argument("--share-eps", type=float, default=None,
                       help="near-duplicate sharing threshold for each "
                            "micro-batch and for registry neighbor "
                            "seeding")

    info = sub.add_parser("info", help="dataset statistics for a CSV file")
    info.add_argument("data")

    bench = sub.add_parser("bench", help="run paper experiments")
    bench.add_argument("experiments", nargs="*",
                       help="experiment ids (default: all); "
                            "e.g. table4 fig6 table7")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    data = generate_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if not args.no_preprocess:
        data = preprocess(data)
    save_csv(data, args.output)
    box = data.bounding_box()
    print(f"wrote {len(data)} trajectories "
          f"(avg length {data.average_length():.1f}, "
          f"span {box.width:.3g} x {box.height:.3g}) to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    data = load_csv(args.data)
    box = data.bounding_box()
    lengths = [len(t) for t in data]
    print(f"dataset:      {data.name}")
    print(f"trajectories: {len(data)}")
    print(f"points:       {sum(lengths)}")
    print(f"avg length:   {data.average_length():.1f}")
    print(f"min/max len:  {min(lengths)} / {max(lengths)}")
    print(f"spatial span: ({box.width:.6g}, {box.height:.6g})")
    return 0


def _fault_policy_from(args: argparse.Namespace) -> FaultPolicy | None:
    """Build the engine's fault policy from the CLI flags, or None
    when no fault-tolerance flag was given (fail-fast default)."""
    if (args.max_retries is None and args.task_timeout is None
            and not args.speculate):
        return None
    retries = args.max_retries if args.max_retries is not None else 2
    return FaultPolicy(max_retries=retries,
                       task_timeout=args.task_timeout,
                       speculate=args.speculate)


def _warn_incomplete(outcome) -> None:
    """Print a degradation warning for a partial query outcome."""
    if outcome.complete:
        return
    if isinstance(outcome.exact, list):  # BatchOutcome
        bad = [qi for qi, failed in enumerate(outcome.failed_partitions)
               if failed]
        print(f"warning: batch queries {bad} lost partitions "
              f"{[outcome.failed_partitions[qi] for qi in bad]} after "
              f"exhausting retries; flagged results are best-effort",
              file=sys.stderr)
        return
    verdict = ("still provably exact" if outcome.exact
               else "best-effort")
    print(f"warning: partitions {outcome.failed_partitions} failed "
          f"after exhausting retries; the result is {verdict}",
          file=sys.stderr)


def _cmd_query(args: argparse.Namespace) -> int:
    if args.batch is not None and (args.radius is not None
                                   or args.query_id is not None):
        print("error: --batch samples its own top-k queries and cannot "
              "be combined with --radius or --query-id", file=sys.stderr)
        return 2
    if args.batch is None and args.share_eps is not None:
        print("error: --share-eps applies to batches; combine it with "
              "--batch N", file=sys.stderr)
        return 2
    data = load_csv(args.data)
    measure = get_measure(args.measure)
    plan_options = {}
    if args.wave_size is not None:
        plan_options["wave_size"] = args.wave_size
    if args.share_eps is not None:
        plan_options["share_eps"] = args.share_eps
    if args.no_query_index:
        plan_options["query_index"] = False
    engine = Repose.build(data, measure=measure, delta=args.delta,
                          num_partitions=args.partitions,
                          strategy=args.strategy,
                          kernels=args.kernels,
                          plan_options=plan_options or None,
                          fault_policy=_fault_policy_from(args))
    if args.calibrate:
        rate = engine.calibrate(k=args.k)
        print(f"calibrated {measure.name}: {rate:.3f} us/point")
    if args.batch is not None:
        return _run_batch(engine, data, args)
    if args.query_id is not None:
        query = data.get(args.query_id)
    else:
        query = sample_queries(data, count=1)[0]
    if args.radius is not None:
        outcome = engine.range_query(query, args.radius)
        print(f"range query (id {query.traj_id}, radius {args.radius}): "
              f"{len(outcome.result)} results")
    else:
        outcome = engine.top_k(query, args.k)
        print(f"top-{args.k} for trajectory {query.traj_id} "
              f"({measure.name}):")
    for rank, (dist, tid) in enumerate(outcome.result.items, start=1):
        print(f"  {rank:3d}. id {tid:6d}  distance {dist:.6f}")
    plan = outcome.plan
    print(f"plan: {len(plan.waves)} waves, "
          f"{plan.partitions_skipped} partitions skipped, "
          f"{plan.threshold_broadcasts} threshold broadcasts")
    if plan.retries or plan.timeouts:
        print(f"faults: {plan.retries} retries, {plan.timeouts} timeouts, "
              f"{plan.speculative_wins} speculative wins")
    _warn_incomplete(outcome)
    print(f"simulated query time: {outcome.simulated_seconds * 1e3:.2f} ms "
          f"(wall {outcome.wall_seconds * 1e3:.2f} ms)")
    return 0


def _run_batch(engine: Repose, data, args: argparse.Namespace) -> int:
    """Run ``--batch N`` sampled queries through ``top_k_batch``."""
    queries = sample_queries(data, count=args.batch)
    batch = engine.top_k_batch(queries, args.k)
    print(f"batch of {len(queries)} top-{args.k} queries "
          f"({engine.measure.name}):")
    for query, result in zip(queries, batch.results):
        best = (f"id {result.items[0][1]} "
                f"distance {result.items[0][0]:.6f}"
                if result.items else "no results")
        print(f"  query {query.traj_id:6d}: {len(result)} results, "
              f"best {best}")
    report = batch.plan
    grouped = (report.grouped_queries / report.tasks_dispatched
               if report.tasks_dispatched else 0.0)
    print(f"batch plan ({report.mode}): {report.tasks_dispatched} "
          f"multi-query tasks for "
          f"{report.partition_queries_dispatched} partition-"
          f"queries ({grouped:.2f} queries/task), "
          f"{report.partitions_skipped} skipped, "
          f"{report.cross_query_tightenings} cross-query + "
          f"{report.sampled_tightenings} sampled tightenings")
    if report.share_eps is not None:
        print(f"near-duplicate sharing (eps={report.share_eps:g}): "
              f"{report.share_groups} share groups, "
              f"{report.queries_shared} queries adopted a "
              f"representative's plan, "
              f"{report.queries_deduplicated} deduplicated")
    if report.retries or report.timeouts:
        print(f"faults: {report.retries} retries, "
              f"{report.timeouts} timeouts, "
              f"{report.speculative_wins} speculative wins")
    _warn_incomplete(batch)
    print(f"simulated batch time: {batch.simulated_seconds * 1e3:.2f} ms "
          f"(wall {batch.wall_seconds * 1e3:.2f} ms)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Stream sampled requests through a :class:`ReposeService`.

    Each of ``--requests`` sampled queries is issued ``--repeat``
    times, interleaved (q1 q2 ... q1 q2 ...), so later rounds recur
    across micro-batches and hit the hot-query registry.  Prints
    per-query results once, then batching, latency and registry
    statistics.
    """
    import asyncio

    data = load_csv(args.data)
    measure = get_measure(args.measure)
    plan_options = ({"share_eps": args.share_eps}
                    if args.share_eps is not None else None)
    engine = Repose.build(data, measure=measure, delta=args.delta,
                          num_partitions=args.partitions,
                          strategy=args.strategy)
    distinct = sample_queries(data, count=max(1, args.requests))
    stream = [query for _ in range(max(1, args.repeat))
              for query in distinct]
    service = engine.serve(max_wait_ms=args.max_wait_ms,
                           max_batch=args.max_batch,
                           plan_options=plan_options)

    async def run_stream():
        futures = [await service.submit(query, args.k)
                   for query in stream]
        outcomes = await asyncio.gather(*futures)
        await service.stop()
        return outcomes

    outcomes = asyncio.run(run_stream())
    print(f"served {len(stream)} requests ({len(distinct)} distinct "
          f"queries x {args.repeat}, {measure.name}, "
          f"k={args.k}):")
    for query, outcome in zip(distinct, outcomes):
        result = outcome.result
        best = (f"id {result.items[0][1]} "
                f"distance {result.items[0][0]:.6f}"
                if result.items else "no results")
        print(f"  query {query.traj_id:6d}: {len(result)} results, "
              f"best {best}")
    stats = service.stats
    mean_batch = (sum(stats.batch_sizes) / len(stats.batch_sizes)
                  if stats.batch_sizes else 0.0)
    latencies = sorted(stats.latencies)

    def _pct(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1,
                             int(q * len(latencies)))] * 1e3

    print(f"micro-batches: {stats.batches} "
          f"(mean size {mean_batch:.2f}, cap {args.max_batch}, "
          f"window {args.max_wait_ms:g} ms)")
    print(f"latency: p50 {_pct(0.50):.2f} ms, p99 {_pct(0.99):.2f} ms")
    registry = service.registry.counters()
    print(f"hot-query registry: {registry['hits']} hits, "
          f"{registry['neighbor_hits']} neighbor seeds, "
          f"{registry['stores']} stores, "
          f"{registry['entries']} entries")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
    import run_all
    return run_all.main(args.experiments)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "info": _cmd_info,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
