"""Chaos suite: the fuzz equivalence harness under injected faults.

Runs the batch/single fuzz workload (see
``tests/test_fuzz_equivalence.py``) with a deterministic
:class:`~repro.testing.faults.FaultInjector` wrapping every dispatched
partition task and a :class:`~repro.cluster.engine.FaultPolicy` driving
retries and timeouts.  The acceptance contract:

* every query either completes (``complete=True``) with the
  brute-force answer (:mod:`repro.testing.oracle`), **bit-identical**
  to the fault-free engine's, or comes back flagged partial with
  accurate ``failed_partitions`` — and a partial flagged ``exact``
  must still be the brute-force answer;
* no unhandled exception ever escapes a query;
* no wave hangs (the per-test timeout in ``conftest.py`` enforces it).

Because the injector's faults fire once per wrapped task and the
policy's retry budget exceeds one, every injected fault is recoverable
here — so the suite additionally asserts that *every* batch completes.
Knobs: ``REPRO_CHAOS_CASES`` (cases per measure, default 6),
``REPRO_CHAOS_SEED`` (base seed, default 20260807), ``REPRO_CHAOS_RATE``
(injection rate, default 0.1).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cluster.engine import FaultPolicy
from repro.repose import Repose
from repro.testing import FaultInjector
from repro.testing.oracle import Oracle
from repro.types import Trajectory, TrajectoryDataset

MEASURES = ["hausdorff", "frechet", "dtw", "erp", "edr", "lcss"]

BASE_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20260807"))
CASES_PER_MEASURE = int(os.environ.get("REPRO_CHAOS_CASES", "6"))
FAULT_RATE = float(os.environ.get("REPRO_CHAOS_RATE", "0.1"))

SPAN = 10.0
NUM_PARTITIONS = 6

POLICY = FaultPolicy(max_retries=3, backoff_seconds=0.001,
                     jitter_fraction=0.25, task_timeout=5.0)


def _random_trajectory(rng: np.random.Generator, traj_id: int) -> Trajectory:
    n = int(rng.integers(3, 13))
    start = rng.uniform(0.05 * SPAN, 0.8 * SPAN, 2)
    steps = rng.normal(0.0, 0.02 * SPAN, (n - 1, 2))
    points = np.vstack([start, start + np.cumsum(steps, axis=0)])
    np.clip(points, 0.001, SPAN - 0.001, out=points)
    return Trajectory(points, traj_id=traj_id)


def _build_pair(measure: str):
    """A fault-free baseline engine and a chaos engine over the same
    dataset (identical indexes; only the execution layer differs)."""
    rng = np.random.default_rng((BASE_SEED, MEASURES.index(measure)))
    dataset = TrajectoryDataset(
        name=f"chaos-{measure}",
        trajectories=[_random_trajectory(rng, i) for i in range(60)])
    baseline = Repose.build(dataset, measure=measure, delta=0.4,
                            num_partitions=NUM_PARTITIONS)
    chaotic = Repose.build(dataset, measure=measure, delta=0.4,
                           num_partitions=NUM_PARTITIONS,
                           engine="thread", fault_policy=POLICY)
    return baseline, chaotic


@pytest.mark.parametrize("measure", MEASURES)
def test_chaos_batches_recover_bit_identical(measure):
    """Injected raise/delay faults at ``FAULT_RATE``: every batch must
    recover through retries, pass the oracle and stay bit-identical
    to fault-free execution."""
    baseline, chaotic = _build_pair(measure)
    truth = Oracle(baseline.measure, baseline.dataset.trajectories)
    injector = FaultInjector(seed=BASE_SEED + MEASURES.index(measure),
                             rate=FAULT_RATE,
                             kinds=("raise", "delay"),
                             delay_seconds=0.002)
    injector.install(chaotic.context.engine)

    for case in range(CASES_PER_MEASURE):
        rng = np.random.default_rng((BASE_SEED, MEASURES.index(measure),
                                     case))
        count = int(rng.integers(2, 6))
        picks = rng.choice(len(baseline.dataset.trajectories),
                           size=count, replace=False)
        queries = [baseline.dataset.trajectories[int(i)] for i in picks]
        k = int(rng.integers(1, 9))
        options = {"wave_size": int(rng.integers(1, 7))}
        context = (f"measure={measure} case={case} k={k} "
                   f"options={options} seed={BASE_SEED}")

        batch = chaotic.top_k_batch(queries, k, plan_options=options)
        assert batch.complete, (
            f"recoverable faults must not lose partitions: {context} "
            f"failed={batch.failed_partitions}")
        assert all(batch.exact), context
        for qi, query in enumerate(queries):
            truth.check_top_k(batch.results[qi].items, query, k,
                              f"query {qi}: {context}")
            expected = baseline.top_k(query, k)
            assert batch.results[qi].items == expected.result.items, (
                f"chaos divergence on query {qi}: {context}")

        single = chaotic.top_k(queries[0], k)
        assert single.complete, context
        truth.check_top_k(single.result.items, queries[0], k, context)
        assert (single.result.items
                == baseline.top_k(queries[0], k).result.items), context

    assert injector.total_injected > 0, (
        "the chaos run injected no faults; raise REPRO_CHAOS_CASES or "
        "REPRO_CHAOS_RATE")
    chaotic.context.engine.close()


@pytest.mark.parametrize("measure", ["hausdorff", "edr"])
def test_chaos_with_timeouts_and_hangs(measure):
    """Hang-kind faults trip the per-task timeout; retries recover and
    results stay exact and bit-identical."""
    baseline, chaotic = _build_pair(measure)
    truth = Oracle(baseline.measure, baseline.dataset.trajectories)
    chaotic.context.engine.fault_policy = FaultPolicy(
        max_retries=3, backoff_seconds=0.001, task_timeout=0.25)
    injector = FaultInjector(seed=BASE_SEED + 77, rate=0.15,
                             kinds=("hang",), hang_seconds=0.6)
    injector.install(chaotic.context.engine)

    rng = np.random.default_rng((BASE_SEED, 999))
    picks = rng.choice(len(baseline.dataset.trajectories), size=4,
                       replace=False)
    queries = [baseline.dataset.trajectories[int(i)] for i in picks]
    batch = chaotic.top_k_batch(queries, 5)
    assert batch.complete
    for qi, query in enumerate(queries):
        truth.check_top_k(batch.results[qi].items, query, 5)
        expected = baseline.top_k(query, 5)
        assert batch.results[qi].items == expected.result.items
    chaotic.context.engine.close()


def test_chaos_unrecoverable_faults_are_flagged_not_raised():
    """With a zero retry budget and aggressive injection, queries may
    lose partitions — they must come back flagged, never raise, and
    the failed-partition list must name real partitions."""
    baseline, chaotic = _build_pair("hausdorff")
    truth = Oracle(baseline.measure, baseline.dataset.trajectories)
    chaotic.context.engine.fault_policy = FaultPolicy(
        max_retries=0, backoff_seconds=0.001)
    injector = FaultInjector(seed=BASE_SEED + 5, rate=0.6,
                             kinds=("raise",))
    injector.install(chaotic.context.engine)

    saw_partial = False
    for qi in range(8):
        query = baseline.dataset.trajectories[qi * 7]
        outcome = chaotic.top_k(query, 5)  # must not raise
        assert isinstance(outcome.complete, bool)
        if outcome.exact:
            truth.check_top_k(outcome.result.items, query, 5)
        if outcome.complete:
            expected = baseline.top_k(query, 5)
            assert outcome.result.items == expected.result.items
        else:
            saw_partial = True
            assert outcome.failed_partitions
            assert all(0 <= pid < NUM_PARTITIONS
                       for pid in outcome.failed_partitions)
            if outcome.exact:
                # An "exact" partial is a provable claim: every failed
                # partition's probe bound beat the final threshold.
                dk = outcome.result.kth_distance()
                for pid in outcome.failed_partitions:
                    assert outcome.plan.probe_bounds[pid] > dk
    assert saw_partial, "rate=0.6 with no retries should lose partitions"
    chaotic.context.engine.close()
