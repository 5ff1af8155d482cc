"""Which functions bound each layer, and the per-layer metrics.

Layer names follow the program's modules.  Self time is charged to
the innermost wrapped call, so e.g. ``bounds.extend`` time is taken
out of the ``search.traverse`` span that encloses it.  Counters that
the program also keeps (``SearchStats``) are counted here
independently at call sites, and :func:`metrics` refuses to report
when the two disagree.

The layers are closed against a wall measured without spans: the
closed loop's own clock on the topk workloads, and on the serve
workload the service's busy time (its batch coroutines and insert
applications, timed around the whole call).  ``trace.other_s`` is that
wall minus every named layer's self time.
"""

from __future__ import annotations

import sys
import time

from spans import Tracer

#: Layer of the driver entry points the benchmark calls; their self
#: time (glue in ``repro.repose``) is claimed by no named layer and
#: counts toward ``trace.other_s``.
OTHER = "trace.other"


class TraceContext:
    """Benchmark state the service hooks read (submit times by query)."""

    def __init__(self):
        self.submitted: dict[int, float] = {}
        self.admission_waits: list[float] = []
        self.batch_sizes: list[int] = []
        self.batch_registry_hits = 0
        self.batch_queries = 0
        self.tasks_dispatched = 0
        self.deduped = 0
        #: Service busy seconds: batch coroutines plus insert applies.
        self.busy_s = 0.0


def install(tracer: Tracer, ctx: TraceContext) -> None:
    """Patch every layer boundary (see the module docstring)."""
    from repro import repose
    from repro.cluster import (batch, driver, engine, planner, query_index,
                               rdd, service)
    from repro.core import bounds, node, rptrie
    from repro.distances import batch as dbatch

    def timed(layer, **kw):
        return lambda fn: tracer.timed(fn, layer, **kw)

    # -- set-up ------------------------------------------------------------
    tracer.patch_function("repro.partitioning.strategies",
                          "heterogeneous_partitions",
                          timed("build.partition"))
    tracer.patch_function("repro.core.pivots", "select_pivots",
                          timed("build.pivots"))
    tracer.patch_method(rptrie.RPTrie, "build", timed("build.trie"))

    # -- driver roots ------------------------------------------------------
    tracer.patch_method(repose.DistributedTopK, "top_k", timed(OTHER))

    def batch_start(args, kwargs):
        queries = args[1]
        now = time.perf_counter()
        for query in queries:
            sent = ctx.submitted.get(id(query))
            if sent is not None:
                ctx.admission_waits.append(now - sent)
        ctx.batch_sizes.append(len(queries))
        return None

    def batch_done(args, kwargs, outcome):
        report = outcome.plan
        if report is not None:
            ctx.batch_registry_hits += report.registry_hits
            ctx.batch_queries += report.num_queries

    tracer.patch_method(repose.DistributedTopK, "top_k_batch",
                        timed(OTHER, before=batch_start, after=batch_done))
    tracer.patch_method(repose.Repose, "_query_kwargs_for",
                        timed("driver.dqp"))

    # -- planner -----------------------------------------------------------
    tracer.patch_method(planner.QueryPlanner, "probe",
                        timed("planner.probe"))
    tracer.patch_method(planner.QueryPlanner, "execute_top_k",
                        timed("planner.plan"))
    tracer.patch_method(
        repose.RPTrieLocalIndex, "probe",
        lambda fn: tracer.counted(fn, "planner.probe_calls"))

    def cache_get(args, kwargs, result):
        tracer.count("planner.cache_hits" if result is not None
                     else "planner.cache_misses")

    tracer.patch_method(
        rdd.ProbeCache, "get",
        lambda fn: tracer.counted(fn, "planner.cache_gets", after=cache_get))

    # -- batch planner -----------------------------------------------------
    def batch_report(args, kwargs, result):
        report = result[2]
        ctx.tasks_dispatched += report.tasks_dispatched
        ctx.deduped += report.queries_deduplicated

    tracer.patch_method(batch.BatchQueryPlanner, "execute_batch",
                        timed("batch.plan", after=batch_report))

    # -- query index -------------------------------------------------------
    for name in ("add", "range_search", "nearest", "tighten"):
        tracer.patch_method(query_index.QueryIndex, name,
                            timed("query_index"))
    for name in ("value", "kth"):
        tracer.patch_method(query_index.IncrementalSampledBounds, name,
                            timed("query_index"))

    # -- service -----------------------------------------------------------
    def busy(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ctx.busy_s += time.perf_counter() - start
        wrapper.__wrapped__ = fn
        return wrapper

    def busy_async(fn):
        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                ctx.busy_s += time.perf_counter() - start
        wrapper.__wrapped__ = fn
        return wrapper

    tracer.patch_method(
        service.ReposeService, "_apply_insert",
        lambda fn: busy(tracer.timed(fn, "service.insert_apply")))
    tracer.patch_method(
        service.ReposeService, "_run_batch",
        lambda fn: tracer.counted_async(busy_async(fn), "service.batches"))

    # -- engine ------------------------------------------------------------
    def run_done(args, kwargs, result):
        outcomes = result[0]
        tracer.count("engine.tasks", len(outcomes))
        tracer.count("engine.retries",
                     sum(outcome.retries for outcome in outcomes))

    def planner_callbacks(args, kwargs):
        # The wave producer and the per-wave fold are planner code run
        # from inside the engine's loop: charge them to the planner.
        args = list(args)
        waves = args[1] if len(args) > 1 else kwargs.pop("waves")
        args[1:2] = [_traced_iter(tracer, waves, "planner.plan")]
        on_wave = kwargs.get("on_wave")
        if on_wave is not None:
            kwargs["on_wave"] = tracer.timed(on_wave, "planner.plan")
        return tuple(args), kwargs

    tracer.patch_method(engine.ExecutionEngine, "run",
                        timed("engine.dispatch", after=run_done))
    tracer.patch_method(engine.ExecutionEngine, "run_waves",
                        timed("engine.dispatch", before=planner_callbacks))

    # -- traversal ---------------------------------------------------------
    for name in ("local_search", "local_search_multi"):
        tracer.patch_function("repro.core.search", name,
                              timed("search.traverse", search=True))

    def iter_children(fn):
        def wrapper(self):
            if tracer.in_search:
                tracer.count("search.internal_visits")
            return fn(self)
        wrapper.__wrapped__ = fn
        return wrapper

    tracer.patch_method(node.TrieNode, "iter_children", iter_children)

    def in_search_count(key):
        def hook(args, kwargs, result):
            if tracer.in_search:
                tracer.count(key)
        return hook

    for cls in (bounds.HausdorffBounds, bounds.FrechetBounds,
                bounds.DTWBounds, bounds.EDRBounds, bounds.LCSSBounds,
                bounds.ERPBounds):
        tracer.patch_method(cls, "extend", timed(
            "bounds.extend", after=in_search_count("bounds.search_extends")))
        tracer.patch_method(cls, "leaf_bound", timed(
            "bounds.leaf", after=in_search_count("bounds.search_leaves")))

    # -- refinement --------------------------------------------------------
    tracer.patch_function("repro.distances.batch", "refine_top_k",
                          timed("refine.leaf",
                                after=in_search_count("refine.leaf_calls")))

    def per_pair(args, kwargs, result):
        if tracer.in_search:
            tracer.count("refine.per_pair_evals")

    tracer.patch_function("repro.distances.threshold",
                          "distance_with_threshold",
                          timed("refine.per_pair", after=per_pair))
    tracer.patch_method(dbatch.BatchRefiner, "exact_or_bound",
                        timed("refine.per_pair", after=per_pair))
    tracer.patch_method(dbatch.BatchRefiner, "_exact_pair",
                        timed("refine.per_pair"))

    def screened(args, kwargs, result):
        refiner = args[0]
        mask = refiner.exact_mask
        if (tracer.in_search and not refiner.is_exact
                and mask is not None and tracer.parent_layer()
                == "refine.leaf"):
            known = int(mask.sum())
            tracer.count("refine.kernel_evals", known)
            if refiner.kernels.compiled:
                tracer.count("refine.compiled_evals", known)

    tracer.patch_method(
        dbatch.BatchRefiner, "__init__",
        lambda fn: tracer.counted(fn, "refine.batches", after=screened))

    def exact_batch(args, kwargs, result):
        if not tracer.in_search:
            return
        refiner, idxs = args[0], args[1]
        if len(idxs) == 1:
            tracer.count("refine.per_pair_evals")
            return
        tracer.count("refine.kernel_evals", len(idxs))
        if refiner.kernels.compiled:
            tracer.count("refine.compiled_evals", len(idxs))

    tracer.patch_method(
        dbatch.BatchRefiner, "exact_batch",
        lambda fn: tracer.counted(fn, "refine.exact_batches",
                                  after=exact_batch))

    # -- merge -------------------------------------------------------------
    tracer.patch_function("repro.cluster.driver", "merge_top_k",
                          timed("merge"))
    tracer.patch_method(driver.RunningTopK, "fold", timed("merge"))
    tracer.patch_method(driver.RunningTopKVector, "fold", timed("merge"))


def _traced_iter(tracer: Tracer, iterable, layer: str):
    """Yield from ``iterable``, charging each ``next()`` to ``layer``."""
    iterator = iter(iterable)
    try:
        while True:
            with tracer.span(layer):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


#: Layer -> self-time metric name.
TIME_METRICS = {
    "build.partition": "build.partition_s",
    "build.pivots": "build.pivots_s",
    "build.trie": "build.trie_s",
    "driver.dqp": "driver.dqp_s",
    "planner.probe": "planner.probe_s",
    "planner.plan": "planner.plan_self_s",
    "batch.plan": "batch.plan_self_s",
    "query_index": "query_index.s",
    "service.insert_apply": "service.insert_apply_s",
    "engine.dispatch": "engine.dispatch_overhead_s",
    "search.traverse": "search.traverse_self_s",
    "bounds.extend": "bounds.extend_s",
    "bounds.leaf": "bounds.leaf_s",
    "refine.leaf": "refine.leaf_s",
    "refine.per_pair": "refine.per_pair_s",
    "merge": "merge.s",
}

#: The layers the serve workload exists to expose (driver-side
#: planning and the service); their summed share is compared across
#: workloads.
DRIVER_LAYERS = ("planner.probe", "planner.plan", "batch.plan",
                 "query_index", "service.insert_apply")


#: Share of the traced wall the named layers should claim; a trace
#: below it explains too little of the run and is flagged.
ATTRIBUTED_FLOOR = 0.9

#: Layers of the set-up phase; ``build.other_s`` is the build wall
#: minus their self times.
BUILD_LAYERS = ("build.partition", "build.pivots", "build.trie")


def metrics(totals: dict, wall: float, build_totals: dict,
            build_wall: float, outcomes: list, ctx: TraceContext,
            detail: dict) -> dict:
    """Per-layer metrics of one traced pass, after the self-check.

    ``wall`` and ``build_wall`` are measured outside the spans (see the
    module docstring).  ``outcomes`` are the program's answers from the
    traced pass; their ``SearchStats`` must agree with the counts taken
    at call sites.
    """
    self_s, counts = totals["self_s"], totals["counts"]
    out = {}
    for layer, name in TIME_METRICS.items():
        source = build_totals if layer in BUILD_LAYERS else totals
        out[name] = source["self_s"].get(layer, 0.0)
    build_named = sum(build_totals["self_s"].get(layer, 0.0)
                      for layer in BUILD_LAYERS)
    out["build.other_s"] = build_wall - build_named
    attributed = sum(value for layer, value in self_s.items()
                     if layer != OTHER)

    leaf_calls = counts.get("refine.leaf_calls", 0)
    visits = counts.get("search.internal_visits", 0) + leaf_calls
    per_pair = counts.get("refine.per_pair_evals", 0)
    kernel = counts.get("refine.kernel_evals", 0)
    exact = per_pair + kernel
    stats = [o.result.stats for o in outcomes]
    program = {
        "leaf_refinements": sum(s.leaf_refinements for s in stats),
        "nodes_visited": sum(s.nodes_visited for s in stats),
        "exact_refinements": sum(s.exact_refinements for s in stats),
    }
    traced = {"leaf_refinements": leaf_calls, "nodes_visited": visits,
              "exact_refinements": exact}
    detail["self_check"] = {
        "program": program, "traced": traced,
        "wall_s": wall, "spans_s": totals["root_s"],
        "build_wall_s": build_wall, "build_spans_s": build_totals["root_s"],
        "attributed_ratio": attributed / wall,
        "batches_traced": len(ctx.batch_sizes),
    }
    if traced != {key: int(value) for key, value in program.items()}:
        raise AssertionError(f"trace counts {traced} != program {program}")
    # Every span nests inside the independently measured wall; spans
    # summing past it would mean the span bookkeeping double-counts.
    for spans, measured in ((totals["root_s"], wall),
                            (build_totals["root_s"], build_wall)):
        if spans > measured * (1 + 1e-9) + 1e-9:
            raise AssertionError(
                f"spans {spans:.6f}s exceed the measured wall "
                f"{measured:.6f}s")
    if min(self_s.values(), default=0.0) < -1e-6:
        raise AssertionError(f"negative self time: {self_s}")
    if attributed < ATTRIBUTED_FLOOR * wall:
        print(f"warning: named layers claim {attributed / wall:.1%} of "
              f"the traced wall (floor {ATTRIBUTED_FLOOR:.0%})",
              file=sys.stderr)

    pruned = sum(s.nodes_pruned for s in stats)
    bounded = (counts.get("bounds.search_extends", 0)
               + counts.get("bounds.search_leaves", 0))
    kept = sum(len(o.result.items) for o in outcomes)
    gets = counts.get("planner.cache_gets", 0)
    out.update({
        "planner.probe_calls": counts.get("planner.probe_calls", 0),
        "planner.probe_cache_hit_ratio": (
            counts.get("planner.cache_hits", 0) / gets if gets else 0.0),
        "batch.tasks_dispatched": ctx.tasks_dispatched,
        "batch.deduped": ctx.deduped,
        "query_index.calls": totals["calls"].get("query_index", 0),
        "service.admission_wait_ms": (
            1000.0 * _median(ctx.admission_waits)),
        "service.batch_size_mean": (
            sum(ctx.batch_sizes) / len(ctx.batch_sizes)
            if ctx.batch_sizes else 0.0),
        "service.registry_hit_ratio": (
            ctx.batch_registry_hits / ctx.batch_queries
            if ctx.batch_queries else 0.0),
        "engine.tasks": counts.get("engine.tasks", 0),
        "engine.retries": counts.get("engine.retries", 0),
        "search.nodes_visited": visits,
        "search.nodes_pruned": pruned,
        "search.prune_ratio": pruned / bounded if bounded else 0.0,
        "bounds.extend_calls": totals["calls"].get("bounds.extend", 0),
        "refine.leaf_calls": leaf_calls,
        "refine.per_pair_calls": per_pair,
        "refine.exact_refinements": exact,
        "refine.useful_ratio": kept / exact if exact else 0.0,
        "kernels.compiled_share": (
            counts.get("refine.compiled_evals", 0) / exact if exact
            else 0.0),
        "trace.other_s": wall - attributed,
        "trace.wall_s": wall,
        "trace.attributed_ratio": attributed / wall,
        "trace.driver_share": (
            sum(self_s.get(layer, 0.0) for layer in DRIVER_LAYERS) / wall),
    })
    return out


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
