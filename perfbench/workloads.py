"""Workload inputs, built from the seed alone, and their fingerprint.

Every workload indexes the same synthetic T-drive-like dataset
(``make_workload("t-drive", measure, scale=1.0, cap=4000,
seed=DATASET_SEED)``, 4,000 trajectories) and queries it with k=10
over 16 partitions.  ``--seed`` draws the query and insert streams;
the dataset stays fixed so that the spread between runs measures the
program and the machine rather than how costly one generated city
happens to be (index size alone varies by 6% between generator seeds,
and query time with it).

* ``topk-dtw`` / ``topk-frechet`` — a closed loop of one client
  issuing ``engine.top_k(q, 10)`` over distinct sampled queries, so no
  cache or registry is reused.  DTW is traversal-bound (bound
  extension dominates); Frechet is refinement-bound and its set-up is
  dominated by per-trajectory pivot distances.
* ``serve-hausdorff`` — an open loop at a fixed rate, operations
  arriving in pairs, through ``engine.serve()``: Zipf-skewed requests
  over a pool of distinct queries plus jittered near-duplicates (the
  pool fits the 512-entry registry), with an insert of a held-out
  trajectory every ``INSERT_EVERY`` operations.  Hausdorff queries
  are cheap, so the driver-side layers hold a visible share.

The fingerprint hashes the dataset, the query stream and the insert
stream, so two commits can only be compared on identical load.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

K = 10
DATASET_SEED = 0
PARTITIONS = 16
CARDINALITY = 4000

#: Distinct queries in a closed-loop stream (more than a run can use;
#: the oracle checks only those that ran).
TOPK_STREAM = 300

#: Serve workload: pool of distinct queries and their near-duplicates.
POOL_DISTINCT = 64
POOL_JITTERED = 64
ZIPF_S = 0.8
#: Near-duplicate jitter, as a share of the grid cell size ``delta``.
JITTER = 0.05
#: One insert per this many operations (4% of operations are writes).
INSERT_EVERY = 25
#: Operations arrive in groups of this size at a fixed rate, as from
#: clients that issue a few requests at once: groups let micro-batches
#: form (cross-query tightening, dedup) on a schedule whose load does
#: not vary from run to run the way Poisson bursts would.
GROUP = 2
#: Offered rate of the serve stream, operations per second.  Pairs
#: take about 100 ms of each 250 ms slot on a 2-core x86 VM, about half
#: the sustained pair capacity; faster rates let queueing amplify
#: machine noise.
RATE = 8.0
SERVE_STREAM = 2000
HELD_OUT = SERVE_STREAM // INSERT_EVERY


@dataclass
class Spec:
    """What distinguishes one workload."""

    measure: str
    kind: str                 # "topk" (closed loop) or "serve" (open loop)
    #: Builds per run; ``setup_s`` is their median.  Frechet builds
    #: take tens of seconds, so that workload builds once.
    setup_repeats: int


SPECS = {
    "topk-dtw": Spec("dtw", "topk", setup_repeats=3),
    "topk-frechet": Spec("frechet", "topk", setup_repeats=1),
    "serve-hausdorff": Spec("hausdorff", "serve", setup_repeats=3),
}


@dataclass
class Op:
    """One operation of the serve stream."""

    kind: str                 # "query" or "insert"
    index: int                # pool index, or index into ``held_out``
    #: Arrival time in mean inter-arrival gaps; the run divides it by
    #: the offered rate.
    at: float


@dataclass
class Inputs:
    """Everything a run feeds the program."""

    name: str
    spec: Spec
    dataset: object           # TrajectoryDataset indexed at set-up
    delta: float
    warmup: object            # Trajectory queried before timing
    queries: list = field(default_factory=list)   # topk stream / serve pool
    ops: list = field(default_factory=list)       # serve stream
    held_out: list = field(default_factory=list)  # serve inserts
    fingerprint: str = ""


@functools.lru_cache(maxsize=None)
def _dataset(measure: str):
    from repro.bench.workloads import make_workload
    return make_workload("t-drive", measure, scale=1.0, cap=CARDINALITY,
                         seed=DATASET_SEED)


def make_inputs(name: str, seed: int) -> Inputs:
    """Build one workload's inputs from ``seed``."""
    from repro.datasets.preprocess import sample_queries
    from repro.types import Trajectory, TrajectoryDataset

    spec = SPECS[name]
    work = _dataset(spec.measure)
    if spec.kind == "topk":
        queries = sample_queries(work.dataset, count=TOPK_STREAM + 1,
                                 seed=seed)
        inputs = Inputs(name, spec, work.dataset, work.delta,
                        warmup=queries[-1], queries=queries[:-1])
    else:
        rng = np.random.default_rng([seed, 1])
        trajs = work.dataset.trajectories
        order = rng.permutation(len(trajs))
        held = [trajs[int(i)] for i in order[:HELD_OUT]]
        base = TrajectoryDataset(
            name=work.dataset.name,
            trajectories=[trajs[int(i)] for i in sorted(order[HELD_OUT:])])
        members = order[HELD_OUT:HELD_OUT + POOL_DISTINCT + 1]
        pool = [trajs[int(i)] for i in members[:POOL_DISTINCT]]
        sigma = JITTER * work.delta
        for _ in range(POOL_JITTERED):
            src = pool[int(rng.integers(POOL_DISTINCT))]
            pool.append(Trajectory(
                src.points + rng.normal(0.0, sigma, src.points.shape)))
        ranks = rng.permutation(len(pool))
        weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_S
        draws = rng.choice(len(pool), size=SERVE_STREAM,
                           p=weights / weights.sum())
        ops, inserted = [], 0
        for i in range(SERVE_STREAM):
            at = float(i - i % GROUP)
            if i % INSERT_EVERY == INSERT_EVERY // 2:
                ops.append(Op("insert", inserted, at))
                inserted += 1
            else:
                ops.append(Op("query", int(ranks[draws[i]]), at))
        inputs = Inputs(name, spec, base, work.delta,
                        warmup=trajs[int(members[-1])], queries=pool,
                        ops=ops, held_out=held)
    inputs.fingerprint = fingerprint(inputs)
    return inputs


def fingerprint(inputs: Inputs) -> str:
    """SHA-256 over the dataset, query stream and insert stream (and
    the constants that shape the load without appearing in them)."""
    digest = hashlib.sha256()

    def trajectory(traj):
        digest.update(str(traj.traj_id).encode())
        digest.update(np.ascontiguousarray(traj.points).tobytes())

    digest.update(inputs.name.encode())
    digest.update(f"k={K};partitions={PARTITIONS};".encode())
    if inputs.spec.kind == "serve":
        digest.update(f"rate={RATE!r};".encode())
    for traj in inputs.dataset.trajectories:
        trajectory(traj)
    digest.update(b"queries")
    trajectory(inputs.warmup)
    for traj in inputs.queries:
        trajectory(traj)
    digest.update(b"ops")
    for op in inputs.ops:
        digest.update(f"{op.kind}:{op.index}:{op.at!r};".encode())
    digest.update(b"inserts")
    for traj in inputs.held_out:
        trajectory(traj)
    return digest.hexdigest()


if __name__ == "__main__":
    # Record fingerprints for a seed range:
    #   python3 perfbench/workloads.py 0 99 > perfbench/fingerprints.json
    import json
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    first, last = int(sys.argv[1]), int(sys.argv[2])
    print(json.dumps({name: {str(seed): make_inputs(name, seed).fingerprint
                             for seed in range(first, last + 1)}
                      for name in SPECS}, indent=1))
