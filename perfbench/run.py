"""REPOSE benchmark: one command, three workloads, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload topk-dtw --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the same workload once untraced and once with every layer
boundary wrapped (see ``layers.py``) and reports per-layer self times
and counters.  Every answer is checked against a brute-force oracle
(``oracle.py``) outside the timed region.  The last line of standard
output is the result object; the line before it, also written to
``.bench_build/perfbench/``, holds the detail: workload fingerprint,
environment, tail percentiles and sample counts, and the per-layer
self-check.  A run whose inputs hash differently from those recorded
in ``fingerprints.json`` is refused (exit 3, no result line).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

# One compute thread per process: numpy's own pools would otherwise
# compete with the service's worker thread for the two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ["REPRO_KERNEL_CACHE_DIR"] = str(ROOT / ".bench_build" / "kernels")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

perf = time.perf_counter

#: Closed-loop queries whose work counters are reported as the
#: deterministic base for count claims (every run completes them).
COUNT_PREFIX = 5
#: A serve run is rejected when the generator's tail lag exceeds this
#: share of the mean inter-arrival gap.
LAG_SHARE = 0.5
#: Seed whose recorded fingerprint vouches for unrecorded seeds.
CANARY_SEED = 0


class RejectedRun(Exception):
    """The run measured the harness rather than the program."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-kernels", default=None,
                        help="flag a run whose kernel backend differs")
    parser.add_argument("--expect-engine", default=None,
                        help="flag a run whose engine backend differs")
    return parser.parse_args(argv)


# -- statistics ---------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile that still
    has at least ten samples beyond it, but never below p90.

    Below 100 samples the ten-beyond rule would fall under p90 (under
    the median at 20 samples), so the nearest-rank p90 is taken
    instead, with fewer samples beyond it: on ``topk-dtw``'s ~17
    queries that is the second-largest latency.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, math.ceil(0.9 * n))      # 1-based
    return ordered[rank - 1], 100.0 * rank / n, n


def latency_metrics(prefix: str, seconds: list[float], detail: dict) -> dict:
    ms = [1000.0 * s for s in seconds]
    value, pct, n = tail(ms)
    detail[f"{prefix}_tail"] = {"percentile": round(pct, 2), "n": n}
    return {f"{prefix}_p50_ms": statistics.median(ms),
            f"{prefix}_tail_ms": value}


# -- set-up -------------------------------------------------------------------

def build_engine(inputs):
    from repro.repose import Repose
    from workloads import PARTITIONS
    return Repose.build(inputs.dataset, measure=inputs.spec.measure,
                        delta=inputs.delta, num_partitions=PARTITIONS)


def set_up(inputs, repeats: int):
    """Build ``repeats`` times; returns the last engine and each wall."""
    walls = []
    engine = None
    for _ in range(repeats):
        engine = None
        gc.collect()
        start = perf()
        engine = build_engine(inputs)
        walls.append(perf() - start)
    return engine, walls


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- closed loop --------------------------------------------------------------

def closed_loop(engine, queries, seconds: float, after_each=None):
    """Sequential ``top_k`` calls until ``seconds`` pass.

    Returns ``(records, wall)``; a record is ``(latency, served,
    outcome, lag)`` where ``served`` runs from the moment the request
    was due — the previous answer's arrival, for one client — to its
    answer, and ``lag`` is how late the client sent it.
    """
    from workloads import K
    records = []
    start = perf()
    deadline = start + seconds
    due = start
    for i, query in enumerate(queries):
        if perf() >= deadline:
            break
        sent = perf()
        outcome = engine.top_k(query, K)
        done = perf()
        records.append((done - sent, done - due, outcome, sent - due))
        due = done
        if after_each is not None:
            after_each(i)
    return records, perf() - start


def check_topk(inputs, records) -> list[str]:
    """Oracle verdict per record (None when correct)."""
    import numpy as np
    import oracle
    from workloads import K
    trajs = inputs.dataset.trajectories
    points = [t.points for t in trajs]
    tids = np.array([t.traj_id for t in trajs])
    verdicts = []
    for query, (_, _, outcome, _) in zip(inputs.queries, records):
        dist = oracle.distances(inputs.spec.measure, query.points, points)
        verdicts.append(oracle.check_top_k(outcome.result.items, tids,
                                           dist, K))
    return verdicts


# -- open loop ----------------------------------------------------------------

class ServeState:
    """Open-loop bookkeeping shared by successive passes of one run."""

    def __init__(self, inputs):
        from repro.types import Trajectory
        self.inputs = inputs
        self.next_op = 0
        self.inserted: list[int] = []      # held-out indices, applied order
        # A fresh object per request, as separate clients would send.
        self.requests = [Trajectory(inputs.queries[op.index].points,
                                    traj_id=inputs.queries[op.index].traj_id)
                         if op.kind == "query" else None
                         for op in inputs.ops]


class Completion:
    __slots__ = ("op", "due", "sent", "finished", "inserts_before",
                 "applied_inserts", "outcome", "error")

    def __init__(self, op, due, sent):
        self.op = op
        self.due = due
        self.sent = sent
        self.finished = None
        self.inserts_before = 0
        self.applied_inserts = []
        self.outcome = None
        self.error = None


async def open_loop(service, state: ServeState, seconds: float,
                    ctx=None) -> tuple[list, float]:
    """Send the operations due in the next ``seconds``, on schedule.

    Requests and inserts are issued when due, whatever is still in
    flight; completion callbacks record arrival order, which settles
    which inserts each answer must reflect (inserts are barriers
    between batches).
    """
    from workloads import K, RATE
    ops = state.inputs.ops
    first = state.next_op
    origin = ops[first].at
    count = 0
    while (first + count < len(ops)
           and (ops[first + count].at - origin) / RATE < seconds):
        count += 1
    if first + count >= len(ops):
        raise RejectedRun("serve stream exhausted; lower --seconds")
    records, pending = [], []
    start = perf() + 1.0 / RATE

    def finish(record, future):
        record.finished = perf()
        record.inserts_before = len(state.inserted)
        if future.cancelled():
            record.error = "cancelled"
        elif future.exception() is not None:
            record.error = repr(future.exception())
        elif record.op.kind == "insert":
            state.inserted.append(record.op.index)
        else:
            record.outcome = future.result()

    for i in range(count):
        position = first + i
        op = ops[position]
        due = start + (op.at - origin) / RATE
        delay = due - perf()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = perf()
        record = Completion(op, due, sent)
        records.append(record)
        if op.kind == "query":
            query = state.requests[position]
            if ctx is not None:
                ctx.submitted[id(query)] = sent
            future = await service.submit(query, K)
        else:
            future = asyncio.ensure_future(
                service.insert(state.inputs.held_out[op.index]))
        future.add_done_callback(lambda f, r=record: finish(r, f))
        pending.append(future)
    await asyncio.gather(*pending, return_exceptions=True)
    await asyncio.sleep(0)      # let the last done-callbacks run
    state.next_op += count
    return records, max(r.finished for r in records) - start


def check_served(inputs, records) -> list:
    """Oracle verdict per query record, as of the inserts it follows."""
    import numpy as np
    import oracle
    from workloads import K
    measure = inputs.spec.measure
    base = inputs.dataset.trajectories
    base_points = [t.points for t in base]
    base_tids = np.array([t.traj_id for t in base])
    held = inputs.held_out
    cache: dict[int, np.ndarray] = {}
    verdicts = []
    for record in records:
        if record.op.kind != "query":
            continue
        if record.error is not None:
            verdicts.append(record.error)
            continue
        query = inputs.queries[record.op.index]
        if record.op.index not in cache:
            cache[record.op.index] = oracle.distances(
                measure, query.points, base_points)
        applied = record.applied_inserts
        extra = [held[i] for i in applied]
        dist = cache[record.op.index]
        tids = base_tids
        if extra:
            dist = np.concatenate([dist, oracle.distances(
                measure, query.points, [t.points for t in extra])])
            tids = np.concatenate([tids, [t.traj_id for t in extra]])
        verdicts.append(oracle.check_top_k(
            record.outcome.result.items, tids, dist, K))
    return verdicts


def mark_inserts(state: ServeState, records) -> None:
    """Attach to each query record the held-out indices it must see."""
    for record in records:
        record.applied_inserts = state.inserted[:record.inserts_before]


def lag_check(records, detail: dict) -> float:
    from workloads import RATE
    lags = [1000.0 * (r.sent - r.due) for r in records]
    value, pct, n = tail(lags)
    limit = LAG_SHARE * 1000.0 / RATE
    detail["loadgen_lag"] = {"tail_ms": value, "percentile": round(pct, 2),
                             "n": n, "p50_ms": statistics.median(lags),
                             "limit_ms": limit}
    if value > limit:
        raise RejectedRun(
            f"generator lag {value:.2f} ms at p{pct:.1f} exceeds "
            f"{limit:.2f} ms ({LAG_SHARE:.0%} of the mean arrival gap)")
    return value


def unique_batch_seconds(records) -> tuple[float, int]:
    """Summed engine seconds of the distinct batches that answered
    ``records`` (requests of one batch share its measured wall)."""
    walls = {r.outcome.wall_seconds for r in records
             if r.op.kind == "query" and r.outcome is not None}
    answered = sum(1 for r in records
                   if r.op.kind == "query" and r.outcome is not None)
    return sum(walls), answered


# -- environment --------------------------------------------------------------

def environment(engine, args) -> dict:
    import numpy
    from repro.distances.kernels import resolve_backend
    kernels = resolve_backend(None)
    backend = engine.context.engine.backend
    env = {"kernels": kernels, "engine": backend,
           "nproc": os.cpu_count(),
           "python": platform.python_version(),
           "numpy": numpy.__version__, "flags": []}
    if args.expect_kernels and kernels != args.expect_kernels:
        env["flags"].append(f"kernel backend {kernels} differs from the "
                            f"recorded {args.expect_kernels}")
    if args.expect_engine and backend != args.expect_engine:
        env["flags"].append(f"engine backend {backend} differs from the "
                            f"recorded {args.expect_engine}")
    for flag in env["flags"]:
        print(f"warning: {flag}", file=sys.stderr)
    return env


# -- workloads ----------------------------------------------------------------

def run_topk(inputs, args, detail) -> tuple[dict, int, int]:
    if args.trace:
        return trace_topk(inputs, args, detail)
    engine, walls = set_up(inputs, inputs.spec.setup_repeats)
    detail["env"] = environment(engine, args)
    detail["setup_walls_s"] = walls
    index_mb = engine.index_bytes() / 1e6
    engine.top_k(inputs.warmup, 10)
    records, wall = closed_loop(engine, inputs.queries, args.seconds)
    rss = peak_rss_mb()
    verdicts = check_topk(inputs, records)
    failed = report_failures(verdicts, detail)
    metrics = {"setup_s": statistics.median(walls), "index_mb": index_mb,
               "peak_rss_mb": rss}
    metrics.update(latency_metrics("query", [r[0] for r in records], detail))
    metrics["qps"] = len(records) / wall
    metrics.update(latency_metrics("served", [r[1] for r in records],
                                   detail))
    return metrics, len(records), failed


def run_serve(inputs, args, detail) -> tuple[dict, int, int]:
    if args.trace:
        return trace_serve(inputs, args, detail)
    engine, walls = set_up(inputs, inputs.spec.setup_repeats)
    detail["env"] = environment(engine, args)
    detail["setup_walls_s"] = walls
    index_mb = engine.index_bytes() / 1e6
    state = ServeState(inputs)

    async def session():
        service = engine.serve()
        await service.start()
        try:
            await service.top_k(inputs.warmup, 10)
            return await open_loop(service, state, args.seconds)
        finally:
            await service.stop()

    records, wall = asyncio.run(session())
    rss = peak_rss_mb()
    lag_check(records, detail)
    mark_inserts(state, records)
    failed = sum(1 for r in records
                 if r.op.kind == "insert" and r.error is not None)
    failed += report_failures(check_served(inputs, records), detail)
    queries = [r for r in records if r.op.kind == "query"]
    inserts = [r for r in records if r.op.kind == "insert"]
    ok = [r for r in queries if r.outcome is not None]
    metrics = {"setup_s": statistics.median(walls), "index_mb": index_mb,
               "peak_rss_mb": rss}
    metrics.update(latency_metrics(
        "query", [r.outcome.wall_seconds for r in ok], detail))
    # Serving capacity: the delivered rate would only echo the offered
    # RATE until the service saturates.
    busy, answered = unique_batch_seconds(records)
    metrics["qps"] = answered / busy
    detail["delivered_per_s"] = len(ok) / wall
    metrics.update(latency_metrics(
        "served", [r.finished - r.due for r in queries], detail))
    detail["insert_p50_ms"] = statistics.median(
        1000.0 * (r.finished - r.due) for r in inserts)
    detail["inserts"] = len(inserts)
    return metrics, len(records), failed


def report_failures(verdicts, detail) -> int:
    bad = [v for v in verdicts if v is not None]
    if bad:
        detail.setdefault("failures", []).extend(bad[:5])
    return len(bad)


# -- traced runs --------------------------------------------------------------

def traced_build(inputs, tracer, ctx):
    """Build once traced; returns the engine, span totals and wall."""
    import layers
    layers.install(tracer, ctx)
    try:
        gc.collect()
        start = perf()
        engine = build_engine(inputs)
        wall = perf() - start
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    tracer.reset()
    return engine, totals, wall


def trace_topk(inputs, args, detail) -> tuple[dict, int, int]:
    import layers
    from spans import Tracer
    tracer, ctx = Tracer(), layers.TraceContext()
    engine, build_totals, build_wall = traced_build(inputs, tracer, ctx)
    detail["env"] = environment(engine, args)
    engine.top_k(inputs.warmup, 10)
    plain, _ = closed_loop(engine, inputs.queries, args.seconds / 2)
    n = len(plain)
    if n < COUNT_PREFIX:
        raise RejectedRun(f"only {n} queries ran; need {COUNT_PREFIX}")
    prefix_extends = {}

    def snapshot(i):
        if i == COUNT_PREFIX - 1:
            prefix_extends["value"] = tracer.totals()["counts"].get(
                "bounds.search_extends", 0)

    # The traced pass repeats the untraced queries; drop the probes the
    # first pass memoised so both passes do the same work.
    engine.context.probe_cache.bump_epoch()
    layers.install(tracer, ctx)
    try:
        traced, wall = closed_loop(engine, inputs.queries[:n],
                                   float("inf"), after_each=snapshot)
    finally:
        tracer.uninstall()
    totals = tracer.totals()

    failed = report_failures(check_topk(inputs, plain), detail)
    same = sum(1 for a, b in zip(plain, traced)
               if a[2].result.items != b[2].result.items)
    failed += same
    outcomes = [r[2] for r in traced]
    metrics = layers.metrics(totals, wall, build_totals, build_wall,
                             outcomes, ctx, detail)
    metrics["trace.overhead_ratio"] = statistics.median(
        b[0] / a[0] for a, b in zip(plain, traced))
    head = [r[2] for r in plain[:COUNT_PREFIX]]
    metrics.update({
        "count.exact_refinements": sum(o.result.stats.exact_refinements
                                       for o in head),
        "count.nodes_visited": sum(o.result.stats.nodes_visited
                                   for o in head),
        "count.bound_extends": prefix_extends["value"],
        "count.tasks_dispatched": sum(len(w.partitions) for o in head
                                      for w in o.plan.waves),
        "count.probe_calls": sum(o.plan.probe_cache_misses for o in head),
    })
    detail["counts"] = {"queries": COUNT_PREFIX, "timing_dependent": False}
    metrics["error_rate"] = failed / (2 * n)
    # A closed loop issues no writes.
    metrics["service.insert_p50_ms"] = 0.0
    metrics["loadgen.lag_ms"] = tail([1000.0 * r[3] for r in plain])[0]
    return metrics, 2 * n, failed


def trace_serve(inputs, args, detail) -> tuple[dict, int, int]:
    import layers
    from spans import Tracer
    tracer, ctx = Tracer(), layers.TraceContext()
    engine, build_totals, build_wall = traced_build(inputs, tracer, ctx)
    detail["env"] = environment(engine, args)
    state = ServeState(inputs)
    half = args.seconds / 2

    async def session():
        service = engine.serve()
        await service.start()
        try:
            await service.top_k(inputs.warmup, 10)
            plain, _ = await open_loop(service, state, half)
            batches = service.stats.batches
            layers.install(tracer, ctx)
            try:
                traced, _ = await open_loop(service, state, half,
                                            ctx=ctx)
            finally:
                tracer.uninstall()
            return plain, traced, service.stats.batches - batches
        finally:
            await service.stop()

    plain, traced, batches = asyncio.run(session())
    totals = tracer.totals()
    lag = lag_check(plain, detail)
    records = plain + traced
    mark_inserts(state, records)
    failed = sum(1 for r in records
                 if r.op.kind == "insert" and r.error is not None)
    failed += report_failures(check_served(inputs, records), detail)
    outcomes = [r.outcome for r in traced
                if r.op.kind == "query" and r.outcome is not None]
    traced_batches = totals["counts"].get("service.batches", 0)
    if not traced_batches == len(ctx.batch_sizes) == batches:
        raise AssertionError(
            f"service batches: program {batches}, traced {traced_batches}, "
            f"engine calls {len(ctx.batch_sizes)}")
    metrics = layers.metrics(totals, ctx.busy_s, build_totals, build_wall,
                             outcomes, ctx, detail)
    busy_plain, n_plain = unique_batch_seconds(plain)
    busy_traced, n_traced = unique_batch_seconds(traced)
    metrics["trace.overhead_ratio"] = ((busy_traced / n_traced)
                                       / (busy_plain / n_plain))
    metrics.update({
        "count.exact_refinements": sum(o.result.stats.exact_refinements
                                       for o in outcomes),
        "count.nodes_visited": sum(o.result.stats.nodes_visited
                                   for o in outcomes),
        "count.bound_extends": totals["counts"].get(
            "bounds.search_extends", 0),
        "count.tasks_dispatched": ctx.tasks_dispatched,
        "count.probe_calls": totals["counts"].get("planner.probe_calls", 0),
    })
    detail["counts"] = {"requests": len(outcomes), "timing_dependent": True}
    metrics["error_rate"] = failed / len(records)
    inserts = [1000.0 * (r.finished - r.due) for r in plain
               if r.op.kind == "insert"]
    metrics["service.insert_p50_ms"] = (statistics.median(inserts)
                                        if inserts else 0.0)
    metrics["loadgen.lag_ms"] = lag
    return metrics, len(records), failed


# -- entry point --------------------------------------------------------------

def fingerprint_mismatch(workload: str, seed: int,
                         actual: str) -> str | None:
    """Why this run's inputs differ from those recorded with the
    benchmark, or ``None``.

    A seed outside the record is vouched for by ``CANARY_SEED``: the
    generator code must still produce that seed's recorded inputs.
    """
    import workloads
    recorded = json.loads((HERE / "fingerprints.json").read_text())
    recorded = recorded.get(workload, {})
    expected = recorded.get(str(seed))
    if expected is None:
        seed = CANARY_SEED
        expected = recorded.get(str(seed))
        actual = workloads.make_inputs(workload, seed).fingerprint
    if expected != actual:
        return (f"{workload} seed {seed} inputs hash to {actual[:12]}, "
                f"recorded {str(expected)[:12]}")
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.SPECS:
        print(f"unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.SPECS)}", file=sys.stderr)
        return 2
    # The one-time compile of the native kernels happens here, before
    # any timed region.
    from repro.distances.kernels import get_kernels
    get_kernels(None)

    inputs = workloads.make_inputs(args.workload, args.seed)

    # Runs of two commits are comparable only on identical load: a
    # change to the dataset generator or the workload definitions must
    # come with re-recorded fingerprints, never pass silently.
    mismatch = fingerprint_mismatch(args.workload, args.seed,
                                    inputs.fingerprint)
    if mismatch is not None:
        print(f"refusing to run: {mismatch}; if the change is intended, "
              f"re-record perfbench/fingerprints.json (see "
              f"workloads.py)", file=sys.stderr)
        return 3
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "fingerprint": inputs.fingerprint}
    if inputs.spec.kind == "serve":
        detail["rate"] = workloads.RATE
    runner = run_topk if inputs.spec.kind == "topk" else run_serve
    try:
        metrics, attempted, failed = runner(inputs, args, detail)
    except RejectedRun as exc:
        print(f"run rejected: {exc}", file=sys.stderr)
        return 4
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if args.trace else "end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in group}
    if set(unit_of) != set(metrics):
        raise AssertionError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(unit_of) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(unit_of))}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in group}}
    detail["result"] = result
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str))
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
