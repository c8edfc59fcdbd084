"""Execution-engine benchmark: sim vs process vs threads wall clock.

Runs the full SPMD pipeline (``execution="cluster"``) on each engine and
compares end-to-end wall-clock time; the partitions are asserted
bit-identical across engines, so the comparison is pure runtime.  Writes
``BENCH_engines.json``::

    {"schema": "repro.bench_engines/1",
     "meta":   {"graph", "n", "m", "k", "pes", "preset", "seed",
                "cpus", "python", "repeats", "git_sha", "timestamp"},
     "records": [{"engine", "wall_s", "best_wall_s", "makespan_s",
                  "cut", "phase_times"}, ...],
     "speedup_process_vs_sim": <sim wall / process wall>,
     "speedup_threads_vs_sim": <sim wall / threads wall>}

The process engine runs one OS process per virtual PE, so its speedup
over the one-PE-at-a-time sim engine scales with the machine's cores: the
redundant per-PE work (initial partitioning on all PEs, both sides of
every refinement pair) executes concurrently instead of interleaved.
The threads engine shares one process — zero graph-copy and zero
pickling overhead — and parallelises wherever the GIL is released
(numpy kernels, the ``numba`` backend's ``nogil`` kernels, blocking
waits), with a work-stealing queue keeping idle PEs busy during
refinement.  ``meta.cpus`` records how many cores the run actually had —
on a single-core host no wall-clock speedup is physically possible and
the recorded ratio documents exactly that.

Usage::

    PYTHONPATH=src python benchmarks/bench_engines.py            # road16k, k=8
    PYTHONPATH=src python benchmarks/bench_engines.py --smoke    # tiny, 2 PEs
    PYTHONPATH=src python benchmarks/bench_engines.py \
        --graph rgg11 -k 4 --engines sim process threads --repeats 3
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

from repro.core import preset
from repro.core.partitioner import KappaPartitioner
from repro.engine import ENGINES
from repro.generators import random_geometric_graph
from repro.provenance import provenance
from repro.generators.suite import load

#: road16k is the largest graph of the generator suite
DEFAULT_GRAPH = "road16k"


def bench_engine(engine: str, g, k: int, cfg, seed: int,
                 repeats: int) -> dict:
    partitioner = KappaPartitioner(cfg)
    walls, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = partitioner.partition(g, k, seed=seed,
                                       execution="cluster", engine=engine)
        walls.append(time.perf_counter() - t0)
    return {
        "engine": engine,
        "wall_s": sum(walls) / len(walls),
        "best_wall_s": min(walls),
        "makespan_s": result.stats.get("makespan_s"),
        "cut": result.cut,
        "phase_times": {key: val for key, val in result.stats.items()
                        if key.startswith("phase_")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--graph", default=DEFAULT_GRAPH,
                    help=f"suite instance (default: {DEFAULT_GRAPH})")
    ap.add_argument("-k", type=int, default=8, help="blocks = virtual PEs")
    ap.add_argument("--preset", default="fast",
                    choices=("minimal", "fast", "strong"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=1,
                    help="runs per engine (mean and best reported)")
    ap.add_argument("--engines", nargs="+",
                    default=["sim", "process", "threads"],
                    choices=sorted(ENGINES))
    ap.add_argument("--smoke", action="store_true",
                    help="fast CI mode: rgg n=512, k=2 (2 PEs), minimal "
                         "preset")
    ap.add_argument("-o", "--output", default="BENCH_engines.json",
                    help="output JSON path (default: ./BENCH_engines.json)")
    args = ap.parse_args(argv)

    if args.smoke:
        g, graph_name, k = random_geometric_graph(512, seed=0), "rgg_smoke", 2
        cfg = preset("minimal")
    else:
        g, graph_name, k = load(args.graph), args.graph, args.k
        cfg = preset(args.preset)

    print(f"engine benchmark: {graph_name} (n={g.n}, m={g.m}), k={k}, "
          f"preset={cfg.name}, repeats={args.repeats}", flush=True)
    records, parts = [], {}
    for engine in args.engines:
        print(f"  running engine={engine} ...", flush=True)
        partitioner = KappaPartitioner(cfg)
        res = partitioner.partition(g, k, seed=args.seed,
                                    execution="cluster", engine=engine)
        parts[engine] = res.partition.part
        records.append(bench_engine(engine, g, k, cfg, args.seed,
                                    args.repeats))
        print(f"    wall={records[-1]['wall_s']:.2f}s "
              f"cut={records[-1]['cut']:g}", flush=True)

    reference = next(iter(parts.values()))
    for engine, part in parts.items():
        assert np.array_equal(part, reference), \
            f"engine {engine} produced a different partition"

    walls = {r["engine"]: r["wall_s"] for r in records}
    speedup = (walls["sim"] / walls["process"]
               if "sim" in walls and "process" in walls else None)
    speedup_threads = (walls["sim"] / walls["threads"]
                       if "sim" in walls and "threads" in walls else None)
    doc = {
        "schema": "repro.bench_engines/1",
        "meta": {
            "graph": graph_name,
            "n": g.n,
            "m": g.m,
            "k": k,
            "pes": k,
            "preset": cfg.name,
            "seed": args.seed,
            "repeats": args.repeats,
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **provenance(),
        },
        "records": records,
        "speedup_process_vs_sim": speedup,
        "speedup_threads_vs_sim": speedup_threads,
    }
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    print(f"\n{'engine':<12} {'wall s':>8} {'best s':>8} {'cut':>8}")
    for r in records:
        print(f"{r['engine']:<12} {r['wall_s']:>8.2f} "
              f"{r['best_wall_s']:>8.2f} {r['cut']:>8g}")
    if speedup is not None:
        print(f"\nprocess-vs-sim wall-clock speedup: {speedup:.2f}x "
              f"on {doc['meta']['cpus']} cpu(s)")
    if speedup_threads is not None:
        print(f"threads-vs-sim wall-clock speedup: {speedup_threads:.2f}x "
              f"on {doc['meta']['cpus']} cpu(s)")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
