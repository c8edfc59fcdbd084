"""Objectives benchmark: cut vs topology-aware mapping, plus the
Section 1 cut-correlation experiment.

Two entry points share this file:

* ``pytest benchmarks/bench_objectives.py`` regenerates the paper's
  Section 1 claim (cut is highly correlated with the alternative
  objective formulations) via :mod:`repro.experiments.objectives_exp`.
* ``python benchmarks/bench_objectives.py [--smoke]`` is a standalone
  quality benchmark for the generalized constraint model: it partitions
  each instance under the plain ``cut`` objective and under
  ``objective="mapping"`` on a 2-level topology, with and without fixed
  vertices, and writes ``BENCH_objectives.json``::

      {"schema": "repro.bench_objectives/1",
       "meta":   {"k", "topology", "preset", "seed", "engine", "cpus",
                  "python", "git_sha", "timestamp", ...},
       "records": [{"graph", "objective", "fixed", "cut", "mapping_cost",
                    "max_imbalance", "fixed_respected", "wall_s"}, ...]}

  The claim checked (and reported) is the tentpole acceptance bar:
  the mapping objective yields a lower ``mapping_cost`` than the cut
  objective on the same instance/seed, and fixed vertices are never
  relabeled.

Usage::

    PYTHONPATH=src python benchmarks/bench_objectives.py           # full
    PYTHONPATH=src python benchmarks/bench_objectives.py --smoke   # tiny
    PYTHONPATH=src python benchmarks/bench_objectives.py \
        --engine process
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # direct script invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import metrics, preset
from repro.core.objectives import Topology, mapping_cost
from repro.core.partitioner import KappaPartitioner
from repro.generators import delaunay_graph, random_geometric_graph
from repro.graph.csr import Graph
from repro.provenance import provenance


# -- pytest entry point: Section 1 correlation experiment ---------------
def test_objective_correlation(benchmark, record_experiment):
    from repro.experiments import objectives_exp

    result = benchmark.pedantic(
        lambda: objectives_exp.run(k=8, seed=0),
        rounds=1, iterations=1,
    )
    record_experiment(result, "objectives_correlation.txt")


# -- standalone entry point: mapping-quality benchmark ------------------
def _with_fixed(g: Graph, k: int) -> Graph:
    """Pin every 19th vertex round-robin over the ``k`` blocks."""
    fixed = np.full(g.n, -1, dtype=np.int64)
    pins = np.arange(0, g.n, 19)
    fixed[pins] = pins % k
    return Graph(g.xadj, g.adjncy, g.adjwgt, g.vwgt, coords=g.coords,
                 fixed=fixed)


def _max_imbalance(g: Graph, part: np.ndarray, k: int) -> float:
    """Worst block weight over the perfectly-balanced average, across
    every constraint dimension."""
    worst = 0.0
    totals = g.total_node_weights()
    for d in range(g.n_constraints):
        block_w = np.zeros(k)
        np.add.at(block_w, part, g.vwgts[:, d])
        if totals[d] > 0:
            worst = max(worst, float(block_w.max() * k / totals[d]))
    return worst


def bench_instance(name: str, g: Graph, k: int, topo: Topology, cfg_base,
                   seed: int, execution: str, engine) -> list:
    records = []
    for fixed_mode in (False, True):
        inst = _with_fixed(g, k) if fixed_mode else g
        for objective in ("cut", "mapping"):
            cfg = (cfg_base if objective == "cut"
                   else cfg_base.derive(
                       objective="mapping",
                       topology=":".join(map(str, topo.levels))))
            t0 = time.perf_counter()
            res = KappaPartitioner(cfg).partition(
                inst, k, seed=seed, execution=execution, engine=engine)
            wall = time.perf_counter() - t0
            part = res.partition.part
            respected = True
            if inst.fixed is not None:
                pinned = inst.fixed >= 0
                respected = bool(
                    np.array_equal(part[pinned], inst.fixed[pinned]))
            records.append({
                "graph": name,
                "objective": objective,
                "fixed": fixed_mode,
                "cut": float(metrics.cut_value(inst, part)),
                "mapping_cost": float(mapping_cost(inst, part, topo)),
                "max_imbalance": _max_imbalance(inst, part, k),
                "fixed_respected": respected,
                "wall_s": wall,
            })
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=8)
    ap.add_argument("--topology", default="2:4",
                    help="mapping topology spec (leaves must equal k)")
    ap.add_argument("--preset", default="fast",
                    choices=("minimal", "fast", "strong"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--execution", default="sequential",
                    choices=("sequential", "cluster"))
    ap.add_argument("--engine", default=None,
                    help="cluster engine (implies --execution cluster)")
    ap.add_argument("--smoke", action="store_true",
                    help="fast CI mode: n~400 instances, minimal preset")
    ap.add_argument("-o", "--output", default="BENCH_objectives.json")
    args = ap.parse_args(argv)

    execution = "cluster" if args.engine else args.execution
    topo = Topology.parse(args.topology)
    if topo.k != args.k:
        ap.error(f"topology {args.topology} has {topo.k} leaves, "
                 f"k={args.k}")
    if args.smoke:
        graphs = {"rgg400": random_geometric_graph(420, seed=11),
                  "delaunay380": delaunay_graph(380, seed=12)}
        cfg = preset("minimal")
    else:
        graphs = {"rgg2k": random_geometric_graph(2048, seed=11),
                  "delaunay2k": delaunay_graph(2048, seed=12)}
        cfg = preset(args.preset)

    print(f"objectives benchmark: k={args.k}, topology={args.topology}, "
          f"preset={cfg.name}, execution={execution}"
          + (f", engine={args.engine}" if args.engine else ""), flush=True)
    records = []
    for name, g in graphs.items():
        print(f"  {name} (n={g.n}, m={g.m}) ...", flush=True)
        records.extend(bench_instance(name, g, args.k, topo, cfg,
                                      args.seed, execution, args.engine))

    doc = {
        "schema": "repro.bench_objectives/1",
        "meta": {
            "k": args.k,
            "topology": args.topology,
            "preset": cfg.name,
            "seed": args.seed,
            "execution": execution,
            "engine": args.engine,
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **provenance(),
        },
        "records": records,
    }
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    print(f"\n{'graph':<14} {'objective':<9} {'fixed':<6} {'cut':>7} "
          f"{'map cost':>9} {'imbal':>6} {'pins ok':>7}")
    for r in records:
        print(f"{r['graph']:<14} {r['objective']:<9} "
              f"{str(r['fixed']):<6} {r['cut']:>7g} "
              f"{r['mapping_cost']:>9g} {r['max_imbalance']:>6.3f} "
              f"{str(r['fixed_respected']):>7}")

    failures = []
    for r in records:
        if not r["fixed_respected"]:
            failures.append(f"{r['graph']}: fixed vertices moved")
    by_key = {(r["graph"], r["fixed"], r["objective"]): r for r in records}
    mapping_runs = sum(1 for key in by_key if key[2] == "mapping")
    wins = 0
    for (name, fixed_mode, obj), r in by_key.items():
        if obj != "mapping":
            continue
        cut_r = by_key[(name, fixed_mode, "cut")]
        if r["mapping_cost"] <= cut_r["mapping_cost"]:
            wins += 1
        elif not fixed_mode:
            # the unpinned comparison is the acceptance bar; pinned runs
            # are reported but a pin layout can dominate the objective
            failures.append(
                f"{name}: mapping objective did not improve mapping_cost "
                f"({r['mapping_cost']:g} vs {cut_r['mapping_cost']:g})")
    print(f"\nmapping objective improved mapping_cost on {wins}/"
          f"{mapping_runs} runs")
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"CLAIM FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
