#!/usr/bin/env python3
"""Ride-sharing analytics: skewed batch queries over hot regions.

The paper's introduction motivates REPOSE with ride-hailing analytics:
companies "issue a batch of analysis queries in hot regions".  This
example reproduces that workload on a synthetic Xi'an-like dataset and
shows why heterogeneous partitioning matters for it:

* queries are *not* uniform — they all come from one hot region;
* with homogeneous (DITA/DFT-style) partitioning, the partitions that
  hold that region do all the work while the rest idle;
* with REPOSE's heterogeneous partitioning, every partition holds a
  slice of the hot region, so all cores contribute.

The script runs the same skewed batch through the batch planner under
both partitionings and compares simulated makespan, cluster
utilization (wave barriers included) and exact refinements.
"""

import numpy as np

from repro import Repose
from repro.cluster.scheduler import ClusterSpec
from repro.datasets import generate_dataset, preprocess


def hot_region_queries(data, count, rng):
    """Queries concentrated in one corner of the city (a 'hot region')."""
    box = data.bounding_box()
    hot_x = box.min_x + 0.25 * box.width
    hot_y = box.min_y + 0.25 * box.height
    scored = sorted(
        data.trajectories,
        key=lambda t: float(np.hypot(t.centroid()[0] - hot_x,
                                     t.centroid()[1] - hot_y)))
    pool = scored[:max(count * 5, 20)]
    index = rng.choice(len(pool), size=count, replace=False)
    return [pool[int(i)] for i in index]


def main() -> None:
    rng = np.random.default_rng(3)
    data = preprocess(generate_dataset("xian", scale=0.0002, seed=3))
    queries = hot_region_queries(data, count=8, rng=rng)
    print(f"dataset: {len(data)} trajectories; "
          f"{len(queries)} hot-region batch queries; k=10\n")

    spec = ClusterSpec(num_workers=4, cores_per_worker=4)
    for strategy in ("heterogeneous", "homogeneous"):
        engine = Repose.build(data, measure="hausdorff", delta=0.01,
                              num_partitions=16, strategy=strategy,
                              cluster_spec=spec)
        batch = engine.top_k_batch(queries, k=10)
        refinements = sum(r.stats.exact_refinements for r in batch.results)
        print(f"{strategy:>14}: batch makespan "
              f"{batch.simulated_seconds * 1e3:8.2f} ms, "
              f"core utilization {batch.utilization:5.1%}, "
              f"{refinements} exact refinements")

    print("\nHeterogeneous partitioning gives every partition a slice of"
          "\nthe hot region, so each hot-region query spreads over all"
          "\ncores; homogeneous placement concentrates it on the few"
          "\npartitions holding the region (Section V-B of the paper)."
          "\nAt this small scale the two stay close; Table VII"
          "\n(python benchmarks/run_all.py table7) compares the"
          "\npartitionings at scale.")


if __name__ == "__main__":
    main()
