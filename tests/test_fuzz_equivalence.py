"""Randomized batch/single fuzzing against a brute-force oracle.

The batch planner's contract is absolute: whatever combination of
sharing machinery a batch engages — probe caching, fingerprint dedup,
near-duplicate share groups, partition-affinity grouping, triangle or
sampled cross-query thresholds — every per-query answer must pass the
brute-force oracle (:mod:`repro.testing.oracle`, which shares no index
or planner code with the engine) and be **bit-identical** to running
that query alone through ``top_k``.  The targeted property tests in
``tests/test_batch_planner.py`` pin the mechanisms; this harness
hammers the *combinations*: for every measure it replays hundreds of
randomized cases mixing duplicate, jittered and disjoint queries,
random ``k``, wave sizes, ``share_eps`` and sampled bound sizes, with
``insert()`` calls interleaved between batches (so probe-cache epochs
roll over mid-stream), and occasionally re-runs a batch against the
now-warm probe cache.

Every case is derived from one integer seed, so the run is fully
deterministic; any violation fails with the case seed and its full
parameter set in the message.  Knobs (environment):

A second harness streams the same randomized mixes through the
always-on serving layer (:class:`~repro.cluster.service.ReposeService`
on the deterministic virtual-clock loop): randomized arrival times
land requests in randomized micro-batch cuts, recurrences are served
registry-warm, and mid-stream barrier ``insert()``s roll the index
epoch — and every served answer must still pass the oracle and be
bit-identical to ``top_k`` at the matching index state.

``REPRO_FUZZ_CASES``
    Cases per measure (default 36 — 216 total across 6 measures).
    The served-path harness runs ``max(2, cases // 6)`` cases per
    measure (each case covers a whole request stream twice).
``REPRO_FUZZ_SEED``
    Base seed (default 20260729).  Reproduce a CI failure by exporting
    the seed printed in the failure message and re-running this file.
"""

from __future__ import annotations

import asyncio
import itertools
import os

import numpy as np
import pytest

from repro.repose import Repose
from repro.testing.oracle import Oracle
from repro.types import Trajectory, TrajectoryDataset

MEASURES = ["hausdorff", "frechet", "dtw", "erp", "edr", "lcss"]

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260729"))
CASES_PER_MEASURE = int(os.environ.get("REPRO_FUZZ_CASES", "36"))

SPAN = 10.0
NUM_PARTITIONS = 6

#: Jitter scales for near-duplicate queries: well under the edit
#: measures' eps (so EDR/LCSS see the twin as identical), around it,
#: and well over it (a "near duplicate" only spatially).
JITTER_SCALES = (1e-5, 5e-4, 1e-2)

#: share_eps values to fuzz: off, exact-only, tight, loose, and
#: everything-is-one-group.
SHARE_EPS_CHOICES = (None, 0.0, 0.05, 0.5, 5.0, float("inf"))

_INSERT_IDS = itertools.count(100000)
_QUERY_IDS = itertools.count(900000)


def _random_trajectory(rng: np.random.Generator, traj_id: int,
                       hot: bool = True) -> Trajectory:
    """A short random walk, biased into the hot corner when ``hot``."""
    n = int(rng.integers(3, 13))
    if hot:
        start = rng.uniform(0.05 * SPAN, 0.3 * SPAN, 2)
    else:
        start = rng.uniform(0.05 * SPAN, 0.95 * SPAN, 2)
    steps = rng.normal(0.0, 0.02 * SPAN, (n - 1, 2))
    points = np.vstack([start, start + np.cumsum(steps, axis=0)])
    np.clip(points, 0.001, SPAN - 0.001, out=points)
    return Trajectory(points, traj_id=traj_id)


def _jittered(rng: np.random.Generator, base: Trajectory) -> Trajectory:
    """A near-duplicate of ``base``: same shape, perturbed points."""
    scale = float(rng.choice(JITTER_SCALES))
    points = base.points + rng.normal(0.0, scale, base.points.shape)
    np.clip(points, 0.001, SPAN - 0.001, out=points)
    return Trajectory(points, traj_id=next(_QUERY_IDS))


def _query_mix(rng: np.random.Generator, engine: Repose) -> list[Trajectory]:
    """A randomized batch: dataset queries, their exact duplicates and
    jittered near-duplicates, plus disjoint random queries, shuffled."""
    trajectories = engine.dataset.trajectories
    queries: list[Trajectory] = []
    for _ in range(int(rng.integers(1, 4))):
        base = trajectories[int(rng.integers(len(trajectories)))]
        queries.append(base)
        for _ in range(int(rng.integers(0, 3))):
            queries.append(base if rng.random() < 0.4
                           else _jittered(rng, base))
    for _ in range(int(rng.integers(0, 3))):
        queries.append(_random_trajectory(rng, next(_QUERY_IDS),
                                          hot=bool(rng.random() < 0.5)))
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def _case_options(rng: np.random.Generator, k: int) -> dict:
    """Random planner knobs for one case."""
    options: dict = {"wave_size": int(rng.integers(1, 7))}
    share_eps = SHARE_EPS_CHOICES[int(rng.integers(
        len(SHARE_EPS_CHOICES)))]
    if share_eps is not None:
        options["share_eps"] = share_eps
    sample_size = int(rng.choice([-1, 0, k, 3 * k]))
    if sample_size >= 0:
        options["sample_size"] = sample_size
    return options


@pytest.mark.parametrize("measure", MEASURES)
def test_fuzz_batch_matches_single(measure):
    """Batched execution with every sharing feature randomized passes
    the oracle and stays bit-identical, per query, to the query run
    alone."""
    build_rng = np.random.default_rng((BASE_SEED, MEASURES.index(measure)))
    dataset = TrajectoryDataset(
        name=f"fuzz-{measure}",
        trajectories=[_random_trajectory(build_rng, i,
                                         hot=bool(i % 3))
                      for i in range(70)])
    engine = Repose.build(dataset, measure=measure, delta=0.4,
                          num_partitions=NUM_PARTITIONS)
    truth = Oracle(engine.measure, dataset.trajectories)

    for case in range(CASES_PER_MEASURE):
        case_seed = (BASE_SEED, MEASURES.index(measure), case)
        rng = np.random.default_rng(case_seed)
        if rng.random() < 0.25:
            # Interleaved growth: bumps the probe-cache epoch, so the
            # next batch must re-probe instead of serving stale bounds.
            newcomer = _random_trajectory(rng, next(_INSERT_IDS),
                                          hot=bool(rng.random() < 0.5))
            engine.insert(newcomer)
            truth.add(newcomer)
        queries = _query_mix(rng, engine)
        k = int(rng.integers(1, 13))
        options = _case_options(rng, k)
        context = (f"case_seed={case_seed} measure={measure} k={k} "
                   f"options={options} queries={len(queries)} "
                   f"(rerun: REPRO_FUZZ_SEED={BASE_SEED} "
                   f"python -m pytest tests/test_fuzz_equivalence.py "
                   f"-k {measure})")

        batch = engine.top_k_batch(queries, k, plan_options=options)
        expected = [engine.top_k(query, k).result.items
                    for query in queries]
        for qi, (query, result, items) in enumerate(
                zip(queries, batch.results, expected)):
            truth.check_top_k(result.items, query, k,
                              f"batch query {qi}: {context}")
            assert result.items == items, (
                f"batch/single divergence on query {qi}: {context}")

        if rng.random() < 0.3:
            # Re-issue against the warm probe cache: served probes must
            # reproduce the computed ones exactly.
            again = engine.top_k_batch(queries, k, plan_options=options)
            for qi, (query, result, items) in enumerate(
                    zip(queries, again.results, expected)):
                truth.check_top_k(result.items, query, k,
                                  f"warm batch query {qi}: {context}")
                assert result.items == items, (
                    f"warm-cache divergence on query {qi}: {context}")


SERVED_CASES_PER_MEASURE = max(2, CASES_PER_MEASURE // 6)


@pytest.mark.parametrize("measure", MEASURES)
def test_fuzz_served_path_matches_single(measure):
    """Requests streamed through the serving layer — randomized
    arrival times, randomized windows, cold then registry-warm, with
    optional mid-stream barrier inserts — pass the oracle and stay
    bit-identical, per request, to ``top_k`` at the same index
    state."""
    build_rng = np.random.default_rng((BASE_SEED, 7,
                                       MEASURES.index(measure)))
    dataset = TrajectoryDataset(
        name=f"fuzz-served-{measure}",
        trajectories=[_random_trajectory(build_rng, i, hot=bool(i % 3))
                      for i in range(70)])
    engine = Repose.build(dataset, measure=measure, delta=0.4,
                          num_partitions=NUM_PARTITIONS)
    truth = Oracle(engine.measure, dataset.trajectories)
    from repro.testing import run_virtual

    for case in range(SERVED_CASES_PER_MEASURE):
        case_seed = (BASE_SEED, 7, MEASURES.index(measure), case)
        rng = np.random.default_rng(case_seed)
        queries = _query_mix(rng, engine)
        k = int(rng.integers(1, 10))
        options = _case_options(rng, k)
        max_wait_ms = float(rng.uniform(1.0, 5.0))
        max_batch = int(rng.integers(2, 6))
        delays = rng.uniform(0.0, 0.004, len(queries))
        newcomer = (_random_trajectory(rng, next(_INSERT_IDS),
                                       hot=bool(rng.random() < 0.5))
                    if rng.random() < 0.5 else None)
        context = (f"case_seed={case_seed} measure={measure} k={k} "
                   f"options={options} max_wait_ms={max_wait_ms:.2f} "
                   f"max_batch={max_batch} insert={newcomer is not None} "
                   f"queries={len(queries)} "
                   f"(rerun: REPRO_FUZZ_SEED={BASE_SEED} "
                   f"python -m pytest tests/test_fuzz_equivalence.py "
                   f"-k 'served and {measure}')")

        # Phase-1 references at the pre-insert index state must be
        # computed before any traffic runs.
        pre = [engine.top_k(query, k).result.items for query in queries]

        async def scenario():
            service = engine.serve(max_wait_ms=max_wait_ms,
                                   max_batch=max_batch,
                                   plan_options=options,
                                   dispatch="inline")
            async with service:
                futures = []
                for delay, query in zip(delays, queries):
                    if delay > 0:
                        await asyncio.sleep(float(delay))
                    futures.append(await service.submit(query, k))
                phase1 = await asyncio.gather(*futures)
                if newcomer is not None:
                    await service.insert(newcomer)
                futures = [await service.submit(query, k)
                           for query in queries]
                phase2 = await asyncio.gather(*futures)
            return service, phase1, phase2

        service, phase1, phase2 = run_virtual(scenario())
        assert sum(service.stats.batch_sizes) == 2 * len(queries)
        for qi, (query, outcome, items) in enumerate(
                zip(queries, phase1, pre)):
            truth.check_top_k(outcome.result.items, query, k,
                              f"phase-1 request {qi}: {context}")
            assert outcome.result.items == items, (
                f"served/single divergence on phase-1 request {qi}: "
                f"{context}")

        # Phase-2 references reflect the post-insert state (the
        # engine keeps the insert applied inside the service).
        if newcomer is not None:
            truth.add(newcomer)
        post = [engine.top_k(query, k).result.items for query in queries]
        for qi, (query, outcome, items) in enumerate(
                zip(queries, phase2, post)):
            truth.check_top_k(outcome.result.items, query, k,
                              f"phase-2 request {qi}: {context}")
            assert outcome.result.items == items, (
                f"served/single divergence on phase-2 request {qi}: "
                f"{context}")
        if newcomer is not None:
            assert service.registry.epoch == engine.context.probe_cache.epoch, (
                f"registry missed the epoch roll: {context}")


WIDE_QUERIES = int(os.environ.get("REPRO_FUZZ_WIDE_QUERIES", "120"))


def _wide_query_mix(rng: np.random.Generator, engine: Repose,
                    total: int) -> list[Trajectory]:
    """A serving-scale batch: many near-duplicate families around
    dataset members (exact duplicates included), padded with disjoint
    random queries, shuffled.  Sized so the distinct-query count far
    exceeds the legacy 64-query cross-tightening cap."""
    trajectories = engine.dataset.trajectories
    queries: list[Trajectory] = []
    while len(queries) < (2 * total) // 3:
        base = trajectories[int(rng.integers(len(trajectories)))]
        queries.append(base)
        for _ in range(int(rng.integers(0, 4))):
            queries.append(base if rng.random() < 0.25
                           else _jittered(rng, base))
    while len(queries) < total:
        queries.append(_random_trajectory(rng, next(_QUERY_IDS),
                                          hot=bool(rng.random() < 0.5)))
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def _total_refinements(plan) -> int:
    return sum(wave.exact_refinements
               for per_query in plan.per_query
               for wave in per_query.waves)


@pytest.mark.parametrize("measure", MEASURES)
def test_fuzz_wide_batch_matches_single_with_no_worse_counters(measure):
    """Serving-scale batches (far past the legacy 64-query cap) pass
    the oracle and stay bit-identical, per query, to ``top_k`` under
    both the query-index and the greedy-scan driver paths — and the
    index path never probes or refines more than the greedy path it
    replaces."""
    build_rng = np.random.default_rng((BASE_SEED, 23,
                                       MEASURES.index(measure)))
    dataset = TrajectoryDataset(
        name=f"fuzz-wide-{measure}",
        trajectories=[_random_trajectory(build_rng, i, hot=bool(i % 3))
                      for i in range(70)])
    engine = Repose.build(dataset, measure=measure, delta=0.4,
                          num_partitions=NUM_PARTITIONS)
    truth = Oracle(engine.measure, dataset.trajectories)

    case_seed = (BASE_SEED, 23, MEASURES.index(measure), 0)
    rng = np.random.default_rng(case_seed)
    queries = _wide_query_mix(rng, engine, WIDE_QUERIES)
    k = int(rng.integers(1, 9))
    options = {"wave_size": 2, "share_eps": 0.05}
    context = (f"case_seed={case_seed} measure={measure} k={k} "
               f"queries={len(queries)} "
               f"(rerun: REPRO_FUZZ_SEED={BASE_SEED} "
               f"python -m pytest tests/test_fuzz_equivalence.py "
               f"-k 'wide and {measure}')")

    # Per-query references, memoized by point content (duplicates
    # share one reference computation).
    memo: dict[bytes, list] = {}
    expected = []
    for query in queries:
        ckey = query.points.tobytes()
        if ckey not in memo:
            memo[ckey] = engine.top_k(query, k).result.items
        expected.append(memo[ckey])

    def check(label, batch):
        for qi, (query, result, items) in enumerate(
                zip(queries, batch.results, expected)):
            truth.check_top_k(result.items, query, k,
                              f"{label} query {qi}: {context}")
            assert result.items == items, (
                f"{label} diverged on query {qi}: {context}")

    # Cold indexed run (empty registry): the lifted cap must not cost
    # exactness at serving scale.
    cold = engine.top_k_batch(queries, k, plan_options=options)
    check("indexed cold batch", cold)

    distinct = cold.plan.num_queries - cold.plan.queries_deduplicated
    assert distinct > 64, (
        f"workload regression: only {distinct} distinct queries, the "
        f"legacy cap would never have engaged: {context}")

    # Warm pair: identical engine state (probe cache and registry were
    # both populated by the cold run), so the two driver paths differ
    # only in their query-scan machinery.
    indexed = engine.top_k_batch(queries, k, plan_options=options)
    greedy = engine.top_k_batch(
        queries, k, plan_options={**options, "query_index": False})
    check("indexed warm batch", indexed)
    check("greedy warm batch", greedy)

    # Probe counters: clustering decisions are mode-identical, so the
    # probe pass must be too.
    assert (indexed.plan.probe_cache_hits
            == greedy.plan.probe_cache_hits), context
    assert (indexed.plan.probe_cache_misses
            == greedy.plan.probe_cache_misses), context
    assert indexed.plan.share_groups == greedy.plan.share_groups, context
    assert indexed.plan.queries_shared == greedy.plan.queries_shared, (
        context)

    # Refinements: the index only ever tightens thresholds further, so
    # partition-side exact work is pointwise no worse in total.
    assert (_total_refinements(indexed.plan)
            <= _total_refinements(greedy.plan)), context

    # The legacy path skips cross-query reuse entirely past its cap;
    # the index is what lifts it.
    assert greedy.plan.cross_query_tightenings == 0, context
    assert (indexed.plan.cross_query_tightenings
            >= greedy.plan.cross_query_tightenings), context
