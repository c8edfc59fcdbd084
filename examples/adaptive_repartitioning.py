#!/usr/bin/env python
"""Adaptive repartitioning across simulation time steps.

Scenario (paper §8 outlook: "repartitioning"): an adaptive FEM solver
refines elements where the solution is interesting, so node weights grow
step by step. Recomputing the partition from scratch each step migrates
almost everything; repartitioning adapts the old assignment, migrating
only what balance requires.

Run:  python examples/adaptive_repartitioning.py
"""

import numpy as np

from repro import FAST, partition_graph
from repro.core import incremental_repartition, metrics
from repro.generators import graded_mesh
from repro.graph import Graph


def refine_hotspot(g, center, radius, factor=2.0):
    """Grow node weights near a moving 'interesting' region."""
    d = np.linalg.norm(g.coords - center, axis=1)
    vwgt = g.vwgt.copy()
    vwgt[d < radius] *= factor
    return Graph(g.xadj, g.adjncy, g.adjwgt, vwgt, coords=g.coords,
                 validate=False)


def main() -> None:
    k = 8
    g = graded_mesh(6000, seed=11)
    res = partition_graph(g, k, config=FAST, seed=0)
    part = res.partition.part
    print(f"t=0: fresh partition, cut={res.cut:.0f}, "
          f"balance={res.partition.balance:.3f}")

    rng = np.random.default_rng(3)
    total_migrated = 0.0
    for step in range(1, 6):
        center = rng.random(2)
        g = refine_hotspot(g, center, radius=0.18)
        feasible = metrics.is_balanced(g, part, k, 0.03)
        # every node counts as dirty: weights changed all over the mesh
        rep = incremental_repartition(g, part, k, np.arange(g.n),
                                      config=FAST, seed=step)
        part = rep.partition.part
        total_migrated += rep.migration_fraction
        print(f"t={step}: hotspot at ({center[0]:.2f},{center[1]:.2f}) "
              f"{'kept balance' if feasible else 'BROKE balance'} -> "
              f"repartitioned: cut={rep.cut:.0f} "
              f"balance={rep.partition.balance:.3f} "
              f"migrated={rep.migration_fraction:.1%} "
              f"in {rep.time_s:.2f}s")

    fresh = partition_graph(g, k, config=FAST, seed=99)
    moved = (fresh.partition.part != part).mean()
    print(f"\nfinal comparison: repartitioned cut={metrics.cut_value(g, part):.0f} "
          f"vs fresh cut={fresh.cut:.0f}")
    print(f"a fresh run now would relabel {moved:.0%} of the nodes; "
          f"five repartitioning steps moved {total_migrated:.1%} in total.")


if __name__ == "__main__":
    main()
