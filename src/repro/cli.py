"""Command-line interface.

Subcommands::

    repro partition  graph.metis -k 8 --preset strong -o out.part
    repro evaluate   graph.metis out.part -k 8 --epsilon 0.03
    repro generate   rgg --param n=4096 -o graph.metis
    repro info       graph.metis
    repro report     trace.json -o report.html
    repro compare    base.trace.json new.trace.json
    repro dynamic    graph.metis --mutations stream.jsonl -k 8

``repro dynamic`` replays a mutation-batch stream (JSONL, one
:class:`repro.graph.MutationBatch` per line) against a base graph and
repartitions after every batch — incrementally by default
(``--mode scratch`` repartitions from scratch instead, for comparison).
``--drift-threshold`` and ``--band-width`` tune the incremental
repartitioner; ``--metrics`` exports its registry (migrated weight,
dirty-band sizes, fallbacks) in Prometheus format.

Graphs are read/written in METIS format (``--format dimacs`` for DIMACS);
partition files hold one block id per line (METIS convention).

Observability flags (accepted before the subcommand or on ``partition``)::

    repro --trace out.json --check-invariants strict   # built-in demo run
    repro partition graph.metis -k 8 --trace out.json --check-invariants strict

``--trace PATH`` writes a structured JSON trace (phase timings, counters,
per-level records; schema ``repro.trace/3``) and prints a per-level
summary table; ``--check-invariants {off,sampled,strict}`` enables the
runtime invariant checker.  With the flags given and no subcommand, a
demo partitioning run on a generated graph is traced end to end.

Telemetry exports (``repro.observability``; each switches on per-PE
recording for cluster runs)::

    repro partition g.metis -k 4 --engine process --trace-events t.json
    repro partition g.metis -k 4 --engine sim --metrics m.prom --journal runs.jsonl

``--trace-events PATH`` writes a Chrome ``trace_event`` file (open at
https://ui.perfetto.dev — one track per PE); ``--metrics PATH`` writes
the run's metrics registry in Prometheus text exposition format;
``--journal PATH`` appends one JSON line per run.  ``repro report``
renders a trace into a single-file HTML (or markdown) report with a
phase Gantt per PE, a communication heatmap and the per-level table;
``repro compare`` diffs two trace/journal/benchmark files and exits
non-zero on regressions beyond ``--threshold``.

Discovery flags: ``repro --list-engines`` / ``repro
--list-kernel-backends`` print the registered execution engines and
kernel backends.

Resilience / chaos flags on ``partition`` (see ``repro.resilience``)::

    repro partition g.metis -k 4 --engine process \\
        --faults "pe1:crash@refine:level0" --checkpoint-dir ckpts \\
        --on-pe-failure restart --max-restarts 2

``--faults SPEC`` injects deterministic failures (``peN:crash@PHASE``,
``peN:hang@PHASE``, ``drop=P``, ``delay=5ms``, ``dup=P``);
``--checkpoint-dir`` enables phase-boundary checkpoint/restart;
``--on-pe-failure {fail,restart,degrade}``, ``--max-restarts``,
``--heartbeat-timeout`` and ``--recv-retries`` tune the process-engine
supervisor.  A recovered run is bit-identical to the fault-free one.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from .baselines import (
    metis_like_partition,
    parmetis_like_partition,
    scotch_like_partition,
)
from .core import format_trace_summary, metrics, preset
from .engine import ENGINES
from .instrument import CHECK_MODES, Tracer
from .kernels import BACKENDS as KERNEL_BACKENDS, use_backend
from .graph import (
    read_dimacs,
    read_metis,
    read_partition,
    write_dimacs,
    write_metis,
    write_partition,
)

__all__ = ["main", "build_parser"]

# the generator table lives with the service wire format so that
# `repro generate`, `repro serve` and remote requests resolve specs
# against the same families/defaults; re-exported here for back-compat
from .service.graphspec import GENERATORS

TOOLS = ("kappa", "metis_like", "parmetis_like", "scotch_like")


def _read_graph(path: str, fmt: str):
    return read_dimacs(path) if fmt == "dimacs" else read_metis(path)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KaPPa-reproduction graph partitioner",
    )
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSON pipeline trace to PATH")
    parser.add_argument("--check-invariants", default=None,
                        choices=CHECK_MODES, dest="check_invariants",
                        help="runtime invariant checking mode")
    parser.add_argument("--kernel-backend", default=None,
                        choices=KERNEL_BACKENDS, dest="kernel_backend",
                        help="hot-path kernel backend (default: numpy)")
    parser.add_argument("--trace-events", default=None, dest="trace_events",
                        metavar="PATH",
                        help="write a Chrome trace_event JSON to PATH "
                             "(open in Perfetto; implies per-PE telemetry)")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write run metrics in Prometheus text "
                             "exposition format to PATH")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="append one JSON line per run to PATH")
    parser.add_argument("--list-engines", action="store_true",
                        help="list the registered execution engines and exit")
    parser.add_argument("--list-kernel-backends", action="store_true",
                        help="list the registered kernel backends and exit")
    sub = parser.add_subparsers(dest="command", required=False)

    p = sub.add_parser("partition", help="partition a graph into k blocks")
    p.add_argument("graph", help="input graph file")
    p.add_argument("-k", type=int, required=True, help="number of blocks")
    p.add_argument("--preset", default="fast",
                   choices=("minimal", "fast", "strong", "walshaw",
                            "mapping"))
    p.add_argument("--tool", default="kappa", choices=TOOLS)
    p.add_argument("--epsilon", type=float, default=0.03)
    p.add_argument("--epsilons", default=None, metavar="E0,E1,...",
                   help="per-constraint-dimension imbalance tolerances "
                        "for graphs with vector vertex weights "
                        "(comma-separated, one per dimension)")
    p.add_argument("--objective", default=None, choices=("cut", "mapping"),
                   help="optimisation objective (default: the preset's; "
                        "'mapping' = communication volume x machine "
                        "distance)")
    p.add_argument("--topology", default=None, metavar="SPEC",
                   help="machine topology for --objective mapping, as "
                        "colon-separated tier sizes, e.g. '2:4' = 2 racks "
                        "x 4 nodes (product must equal k; default: "
                        "derived from k)")
    p.add_argument("--fixed-vertices", default=None, dest="fixed_vertices",
                   metavar="PATH",
                   help="file pinning vertices to blocks: one integer per "
                        "line (line i = vertex i's block, -1 = free), or "
                        "'vertex block' pairs on each line")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--execution", default="sequential",
                   choices=("sequential", "cluster"))
    p.add_argument("--engine", default=None, choices=sorted(ENGINES),
                   help="execution engine for the SPMD cluster path "
                        "(implies --execution cluster)")
    p.add_argument("--format", default="metis", choices=("metis", "dimacs"))
    p.add_argument("-o", "--output", default=None,
                   help="partition output file (default: <graph>.part.<k>)")
    # resilience / chaos-testing flags (repro.resilience); each implies
    # --execution cluster, since faults act on the SPMD pipeline
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="fault-injection spec, e.g. "
                        "'pe1:crash@refine:level2,drop=0.01,delay=5ms'")
    p.add_argument("--checkpoint-dir", default=None, dest="checkpoint_dir",
                   metavar="DIR",
                   help="write/resume phase-boundary checkpoints in DIR")
    p.add_argument("--checkpoint-phases", default=None,
                   dest="checkpoint_phases", metavar="PHASES",
                   help="which boundaries checkpoint: 'all', 'none' or a "
                        "comma list of coarsening,initial,refine,final")
    p.add_argument("--on-pe-failure", default=None, dest="on_pe_failure",
                   choices=("fail", "restart", "degrade"),
                   help="supervisor reaction to a dead/hung PE "
                        "(process engine)")
    p.add_argument("--max-restarts", default=None, type=int,
                   dest="max_restarts",
                   help="gang restarts the supervisor may spend (default 2)")
    p.add_argument("--heartbeat-timeout", default=None, type=float,
                   dest="heartbeat_timeout_s", metavar="SECONDS",
                   help="declare a PE hung after this heartbeat silence")
    p.add_argument("--recv-retries", default=None, type=int,
                   dest="recv_retries",
                   help="extra recv attempts with doubled timeout")
    # SUPPRESS keeps a flag given before the subcommand from being reset
    # to the subparser default
    p.add_argument("--trace", default=argparse.SUPPRESS, metavar="PATH",
                   help="write a JSON pipeline trace to PATH")
    p.add_argument("--check-invariants", default=argparse.SUPPRESS,
                   choices=CHECK_MODES, dest="check_invariants",
                   help="runtime invariant checking mode")
    p.add_argument("--kernel-backend", default=argparse.SUPPRESS,
                   choices=KERNEL_BACKENDS, dest="kernel_backend",
                   help="hot-path kernel backend (default: numpy)")
    p.add_argument("--trace-events", default=argparse.SUPPRESS,
                   dest="trace_events", metavar="PATH",
                   help="write a Chrome trace_event JSON to PATH "
                        "(open in Perfetto; implies per-PE telemetry)")
    p.add_argument("--metrics", default=argparse.SUPPRESS, metavar="PATH",
                   help="write run metrics in Prometheus text "
                        "exposition format to PATH")
    p.add_argument("--journal", default=argparse.SUPPRESS, metavar="PATH",
                   help="append one JSON line per run to PATH")

    d = sub.add_parser("dynamic",
                       help="replay a mutation stream, repartitioning "
                            "after every batch")
    d.add_argument("graph", help="base graph file")
    d.add_argument("--mutations", required=True, metavar="PATH",
                   help="mutation-batch stream (JSONL, one batch per line)")
    d.add_argument("-k", type=int, required=True, help="number of blocks")
    d.add_argument("--mode", default="incremental",
                   choices=("incremental", "scratch"),
                   help="incremental repartitioning (default) or full "
                        "multilevel from scratch per batch")
    d.add_argument("--preset", default="fast",
                   choices=("minimal", "fast", "strong", "walshaw"))
    d.add_argument("--epsilon", type=float, default=0.03)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--drift-threshold", type=float, default=None,
                   dest="drift_threshold",
                   help="fall back to a full run when the incremental cut "
                        "exceeds (1+threshold) x the last full run's cut "
                        "(default 0.3)")
    d.add_argument("--band-width", type=int, default=None, dest="band_width",
                   help="BFS width of the dirty band around mutated nodes "
                        "(default 3)")
    d.add_argument("--format", default="metis", choices=("metis", "dimacs"))
    d.add_argument("-o", "--output", default=None,
                   help="final partition output file "
                        "(default: <graph>.part.<k>)")
    d.add_argument("--metrics", default=argparse.SUPPRESS, metavar="PATH",
                   help="write the incremental metrics registry in "
                        "Prometheus text exposition format to PATH")
    d.add_argument("--journal", default=argparse.SUPPRESS, metavar="PATH",
                   help="append one JSON line per batch to PATH")

    e = sub.add_parser("evaluate", help="evaluate an existing partition")
    e.add_argument("graph")
    e.add_argument("partition")
    e.add_argument("-k", type=int, default=None,
                   help="number of blocks (default: max id + 1)")
    e.add_argument("--epsilon", type=float, default=0.03)
    e.add_argument("--format", default="metis", choices=("metis", "dimacs"))

    g = sub.add_parser("generate", help="generate a benchmark instance")
    g.add_argument("family", choices=sorted(GENERATORS))
    g.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="generator parameter override (repeatable)")
    g.add_argument("--format", default="metis", choices=("metis", "dimacs"))
    g.add_argument("-o", "--output", required=True)

    i = sub.add_parser("info", help="print graph statistics")
    i.add_argument("graph")
    i.add_argument("--format", default="metis", choices=("metis", "dimacs"))

    r = sub.add_parser("report",
                       help="render a trace file into an HTML/markdown "
                            "run report")
    r.add_argument("trace", help="trace JSON file (repro.trace/1, /2 or /3)")
    r.add_argument("-o", "--output", default=None,
                   help="output file (default: <trace>.report.<ext>)")
    r.add_argument("--report-format", default=None, dest="report_format",
                   choices=("html", "markdown"),
                   help="report format (default: inferred from output "
                        "suffix, else html)")

    a = sub.add_parser("analyze",
                       help="critical-path / bottleneck analysis of a "
                            "causal trace (repro.trace/3)")
    a.add_argument("trace", help="trace JSON file (any schema; causal "
                                 "analysis needs /3 events)")
    a.add_argument("--json", default=None, metavar="OUT",
                   help="also write the repro.analysis/1 JSON document "
                        "(diffable with 'repro compare')")
    a.add_argument("--top", type=int, default=10,
                   help="number of longest waits to list (default 10)")
    a.add_argument("--max-path", type=int, default=20, dest="max_path",
                   help="critical-path events to print (default 20)")

    c = sub.add_parser("compare",
                       help="diff two trace/journal/benchmark/analysis "
                            "files and flag regressions")
    c.add_argument("base", help="baseline file")
    c.add_argument("new", help="candidate file")
    c.add_argument("--threshold", type=float, default=0.25,
                   help="relative change beyond which a bad-direction "
                        "delta is a regression (default 0.25)")
    c.add_argument("--require-provenance", default="none",
                   dest="require_provenance", choices=("none", "new", "both"),
                   help="require git_sha+timestamp meta on the candidate "
                        "('new') or both files")
    c.add_argument("--show-all", action="store_true", dest="show_all",
                   help="print every compared metric, not just regressions")

    s = sub.add_parser("serve",
                       help="run the partitioning service (HTTP, JSON)")
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8777)
    s.add_argument("--workers", type=int, default=2,
                   help="partitioning worker threads (default 2)")
    s.add_argument("--queue-limit", type=int, default=16, dest="queue_limit",
                   help="max queued jobs before 503 (default 16)")
    s.add_argument("--cache-mb", type=float, default=256.0, dest="cache_mb",
                   help="result-cache byte budget in MiB; 0 disables "
                        "retention (default 256)")
    s.add_argument("--rate", type=float, default=None,
                   help="per-tenant request rate limit (requests/s; "
                        "default: no quotas)")
    s.add_argument("--burst", type=float, default=None,
                   help="per-tenant token-bucket burst (default: rate)")
    s.add_argument("--max-request-mb", type=float, default=32.0,
                   dest="max_request_mb",
                   help="reject request bodies beyond this size with 413 "
                        "(default 32)")
    s.add_argument("--artifacts-dir", default=None, dest="artifacts_dir",
                   metavar="DIR",
                   help="write per-job trace artifacts and a JSONL job "
                        "journal under DIR")
    s.add_argument("--drain-timeout", type=float, default=30.0,
                   dest="drain_timeout",
                   help="seconds to wait for in-flight jobs on "
                        "SIGTERM/SIGINT (default 30)")
    return parser


def _read_fixed(path: str, n: int) -> np.ndarray:
    """Parse a fixed-vertex file: either one block id per line (line i
    pins vertex i; -1 = free) or 'vertex block' pairs.  Comment lines
    (#) and blanks are skipped."""
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) not in (1, 2):
                raise ValueError(
                    f"{path}:{lineno}: expected one block id or a "
                    f"'vertex block' pair, got {len(toks)} fields")
            try:
                rows.append((lineno, [int(t) for t in toks]))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-integer field in {line!r}"
                ) from None
    fixed = np.full(n, -1, dtype=np.int64)
    widths = {len(vals) for _, vals in rows}
    if not rows:
        return fixed
    if widths == {1}:
        if len(rows) != n:
            raise ValueError(
                f"{path}: positional format needs one line per vertex "
                f"({n}), got {len(rows)}")
        fixed[:] = [vals[0] for _, vals in rows]
    elif widths == {2}:
        for lineno, (v, b) in rows:
            if not (0 <= v < n):
                raise ValueError(
                    f"{path}:{lineno}: vertex {v} out of range (n={n})")
            fixed[v] = b
    else:
        raise ValueError(
            f"{path}: mixed formats — use either one block id per line "
            f"or 'vertex block' pairs throughout")
    return fixed


def _instrumented_run(g, args, k: int):
    """Run the kappa partitioner honouring ``--trace`` and
    ``--check-invariants``; returns ``(result, tracer_or_None)``."""
    check = args.check_invariants or "off"
    overrides = {}
    if getattr(args, "kernel_backend", None):
        overrides["kernel_backend"] = args.kernel_backend
    if getattr(args, "objective", None):
        overrides["objective"] = args.objective
    if getattr(args, "topology", None):
        overrides["topology"] = args.topology
        if not getattr(args, "objective", None):
            overrides["objective"] = "mapping"  # --topology implies it
    if getattr(args, "epsilons", None):
        try:
            overrides["epsilons"] = tuple(
                float(t) for t in args.epsilons.split(","))
        except ValueError:
            raise ValueError(
                f"bad --epsilons {args.epsilons!r}: expected "
                f"comma-separated floats") from None
    engine = getattr(args, "engine", None)
    execution = args.execution
    if engine is not None:
        # an explicit engine only makes sense for the SPMD cluster path
        execution = "cluster"
        overrides["engine"] = engine
    for name in ("faults", "checkpoint_dir", "checkpoint_phases",
                 "on_pe_failure", "max_restarts", "heartbeat_timeout_s",
                 "recv_retries"):
        value = getattr(args, name, None)
        if value is not None:
            # resilience acts on the SPMD pipeline's phase boundaries
            overrides[name] = value
            execution = "cluster"
    if _obs_outputs(args):
        # any telemetry export switches on per-PE recording (spans,
        # comm matrix, metrics) for cluster runs; sequential runs still
        # get driver phases + the metrics registry
        overrides["observe"] = True
    # the CLI goes through the same PartitionRequest -> PartitionResult
    # facade as the service (options here may exceed WIRE_OPTIONS: the
    # allowlist binds the wire boundary, not in-process callers)
    from .service.api import PartitionRequest, execute_request

    request = PartitionRequest(
        k=k, preset=args.preset, seed=args.seed, execution=execution,
        options=dict(epsilon=args.epsilon, check_invariants=check,
                     **overrides),
    )
    # a Chrome trace is derived from the trace document, so --trace-events
    # needs a live tracer even without --trace
    tracer = (Tracer()
              if (args.trace or getattr(args, "trace_events", None))
              else None)
    res = execute_request(g, request, tracer=tracer).kappa
    return res, tracer


def _obs_outputs(args) -> bool:
    """True when any telemetry export flag was given."""
    return bool(getattr(args, "trace_events", None)
                or getattr(args, "metrics", None)
                or getattr(args, "journal", None))


def _run_meta(args, g, k: int):
    """Provenance + run identity recorded on journal lines."""
    from .provenance import provenance

    meta = dict(provenance())
    meta.update({
        "graph": getattr(args, "graph", "<generated>"),
        "n": g.n, "m": g.m, "k": k,
        "preset": args.preset, "seed": args.seed,
        "execution": getattr(args, "execution", "sequential"),
    })
    engine = getattr(args, "engine", None)
    if engine:
        meta["engine"] = engine
    return meta


def _report_instrumentation(res, args, g=None, k=None) -> int:
    # guard against duplicate emission: under the process engine's
    # "fork" start method worker PEs inherit the CLI module, so any
    # module-level reporting must run on the primary process only
    from .observability import is_primary_process

    if not is_primary_process():  # pragma: no cover - worker-side guard
        return 0
    if getattr(args, "trace_events", None):
        from .observability import write_chrome_trace

        try:
            write_chrome_trace(res.trace, args.trace_events)
        except OSError as exc:
            print(f"error: cannot write trace events to "
                  f"{args.trace_events}: {exc}", file=sys.stderr)
            return 1
        print(f"chrome trace written to {args.trace_events} "
              f"(open at https://ui.perfetto.dev)")
    if getattr(args, "metrics", None):
        from .observability import prometheus_text

        try:
            with open(args.metrics, "w") as fh:
                fh.write(prometheus_text(res.metrics))
        except OSError as exc:
            print(f"error: cannot write metrics to {args.metrics}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"metrics written to {args.metrics} (Prometheus text format)")
    if getattr(args, "journal", None):
        from .observability import append_journal, journal_record

        meta = _run_meta(args, g, k) if g is not None else None
        try:
            append_journal(args.journal, journal_record(res, meta=meta))
        except OSError as exc:
            print(f"error: cannot append journal to {args.journal}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"journal line appended to {args.journal}")
    if args.trace:
        tracer_doc = res.trace
        try:
            with open(args.trace, "w") as fh:
                import json

                json.dump(tracer_doc, fh, indent=2,
                          default=lambda o: o.item() if hasattr(o, "item") else o)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}",
                  file=sys.stderr)
            return 1
        print()
        print(format_trace_summary(tracer_doc))
        print(f"trace written to {args.trace}")
    if args.check_invariants and args.check_invariants != "off":
        print(f"invariant checks: mode={args.check_invariants} "
              f"violations={len(res.violations)}")
    return 0


def _cmd_partition(args) -> int:
    g = _read_graph(args.graph, args.format)
    if getattr(args, "fixed_vertices", None):
        if args.tool != "kappa":
            print("error: --fixed-vertices requires --tool kappa",
                  file=sys.stderr)
            return 1
        from .graph.csr import Graph
        fixed = _read_fixed(args.fixed_vertices, g.n)
        g = Graph(g.xadj, g.adjncy, g.adjwgt, g.vwgt, coords=g.coords,
                  validate=False,
                  vwgts=(g.vwgts if g.n_constraints > 1 else None),
                  fixed=fixed)
    instrumented = bool(args.trace or args.check_invariants
                        or _obs_outputs(args))
    if instrumented and args.tool != "kappa":
        print("error: --trace/--check-invariants/--trace-events/--metrics/"
              "--journal require --tool kappa", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    if args.tool == "kappa":
        res, _ = _instrumented_run(g, args, args.k)
    else:
        fn = {
            "metis_like": metis_like_partition,
            "parmetis_like": parmetis_like_partition,
            "scotch_like": scotch_like_partition,
        }[args.tool]
        # baselines share the kernel layer but take no KappaConfig, so
        # the backend override is applied process-wide for the call
        with use_backend(getattr(args, "kernel_backend", None) or "numpy"):
            res = fn(g, args.k, args.epsilon, args.seed)
    elapsed = time.perf_counter() - t0
    out = args.output or f"{args.graph}.part.{args.k}"
    write_partition(res.partition.part, out)
    print(f"graph: n={g.n} m={g.m}")
    print(f"tool: {args.tool}"
          + (f" ({args.preset})" if args.tool == "kappa" else ""))
    print(f"cut: {res.cut:g}")
    print(f"balance: {res.partition.balance:.4f} "
          f"(feasible at eps={args.epsilon:g}: "
          f"{res.partition.is_feasible(args.epsilon)})")
    mapping = getattr(res, "stats", {}).get("mapping_cost")
    if mapping is not None:
        print(f"mapping cost: {mapping:g}")
    print(f"time: {elapsed:.2f}s")
    if res.sim_time_s is not None:
        print(f"simulated parallel time: {res.sim_time_s * 1e3:.3f}ms")
    fault_stats = {
        name: value for name, value in getattr(res, "stats", {}).items()
        if name.startswith(("fault_", "checkpoint_", "recovery_"))
    }
    if fault_stats:
        print("resilience: " + " ".join(
            f"{name}={value:g}" for name, value in sorted(fault_stats.items())
        ))
    print(f"partition written to {out}")
    if args.tool == "kappa":
        return _report_instrumentation(res, args, g=g, k=args.k)
    return 0


def _cmd_demo(args) -> int:
    """No subcommand but observability flags given: trace a demo run on a
    generated graph (rgg n=2048, k=8, fast preset)."""
    from .generators import random_geometric_graph

    g = random_geometric_graph(2048, seed=0)
    args.preset = getattr(args, "preset", "fast")
    args.epsilon = getattr(args, "epsilon", 0.03)
    args.seed = getattr(args, "seed", 0)
    args.execution = getattr(args, "execution", "sequential")
    res, _ = _instrumented_run(g, args, k=8)
    print(f"demo: rgg n={g.n} m={g.m}, k=8, preset={args.preset}")
    print(f"cut: {res.cut:g}")
    print(f"balance: {res.partition.balance:.4f}")
    return _report_instrumentation(res, args, g=g, k=8)


def _cmd_dynamic(args) -> int:
    from .core import IncrementalSession, metrics as core_metrics
    from .core.partitioner import partition_graph
    from .graph import DynamicGraph, read_mutation_stream

    g = _read_graph(args.graph, args.format)
    try:
        batches = read_mutation_stream(args.mutations)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read mutation stream {args.mutations}: {exc}",
              file=sys.stderr)
        return 1
    overrides = {"epsilon": args.epsilon, "incremental": True}
    if args.drift_threshold is not None:
        overrides["drift_threshold"] = args.drift_threshold
    if args.band_width is not None:
        overrides["incremental_band_width"] = args.band_width
    cfg = preset(args.preset).derive(**overrides)

    dyn = DynamicGraph(g)
    t0 = time.perf_counter()
    session = IncrementalSession.start(g, args.k, config=cfg, seed=args.seed)
    print(f"graph: n={g.n} m={g.m}  k={args.k}  preset={args.preset}  "
          f"mode={args.mode}")
    print(f"initial: cut={session.reference_cut:g} "
          f"t={time.perf_counter() - t0:.2f}s")

    journal_path = getattr(args, "journal", None)
    part = session.part
    for i, batch in enumerate(batches):
        br = dyn.apply(batch)
        g2 = dyn.graph()
        t1 = time.perf_counter()
        if args.mode == "incremental":
            res = session.apply(g2, br.dirty_nodes)
            part = session.part
            line = (f"batch {i}: n={g2.n} cut={res.cut:g} "
                    f"migrated={res.migrated_nodes} "
                    f"band={res.dirty_band_nodes} "
                    f"t={time.perf_counter() - t1:.2f}s"
                    + (f" FALLBACK({res.fallback_reason})"
                       if res.used_fallback else ""))
            record = {"batch": i, "mode": "incremental", "n": g2.n,
                      "cut": res.cut, "migrated_nodes": res.migrated_nodes,
                      "migrated_weight": res.migrated_weight,
                      "band": res.dirty_band_nodes, "time_s": res.time_s,
                      "fallback": res.fallback_reason}
        else:
            full = partition_graph(g2, args.k, config=cfg,
                                   seed=args.seed + 1 + i)
            span = min(len(part), g2.n)
            migrated = int((full.partition.part[:span] != part[:span]).sum())
            part = full.partition.part
            line = (f"batch {i}: n={g2.n} cut={full.cut:g} "
                    f"migrated={migrated} t={time.perf_counter() - t1:.2f}s")
            record = {"batch": i, "mode": "scratch", "n": g2.n,
                      "cut": full.cut, "migrated_nodes": migrated,
                      "time_s": time.perf_counter() - t1}
        print(line)
        if journal_path:
            from .observability import append_journal

            try:
                append_journal(journal_path, record)
            except OSError as exc:
                print(f"error: cannot append journal to {journal_path}: "
                      f"{exc}", file=sys.stderr)
                return 1

    g_final = dyn.graph()
    bal = core_metrics.balance(g_final, part, args.k)
    print(f"final: n={g_final.n} "
          f"cut={core_metrics.cut_value(g_final, part):g} "
          f"balance={bal:.4f}")
    out = args.output or f"{args.graph}.part.{args.k}"
    write_partition(part, out)
    print(f"partition written to {out}")
    if getattr(args, "metrics", None):
        from .observability import prometheus_text

        try:
            with open(args.metrics, "w") as fh:
                fh.write(prometheus_text(session.registry.export()))
        except OSError as exc:
            print(f"error: cannot write metrics to {args.metrics}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"metrics written to {args.metrics} (Prometheus text format)")
    return 0


def _cmd_evaluate(args) -> int:
    g = _read_graph(args.graph, args.format)
    part = read_partition(args.partition)
    if len(part) != g.n:
        print(f"error: partition has {len(part)} entries, graph has {g.n} "
              f"nodes", file=sys.stderr)
        return 1
    k = args.k if args.k is not None else int(part.max()) + 1
    cut = metrics.cut_value(g, part)
    bal = metrics.balance(g, part, k)
    ok = metrics.is_balanced(g, part, k, args.epsilon)
    print(f"k: {k}")
    print(f"cut: {cut:g}")
    print(f"balance: {bal:.4f}")
    print(f"block weights: {metrics.block_weights(g, part, k).tolist()}")
    print(f"feasible at eps={args.epsilon:g}: {ok}")
    return 0


def _cmd_generate(args) -> int:
    from . import generators

    fn_name, defaults = GENERATORS[args.family]
    params = dict(defaults)
    for override in args.param:
        if "=" not in override:
            print(f"error: bad --param {override!r} (need NAME=VALUE)",
                  file=sys.stderr)
            return 1
        name, value = override.split("=", 1)
        if name not in params:
            print(f"error: unknown parameter {name!r} for {args.family} "
                  f"(known: {sorted(params)})", file=sys.stderr)
            return 1
        params[name] = type(defaults[name])(value)
    g = getattr(generators, fn_name)(**params)
    if args.format == "dimacs":
        write_dimacs(g, args.output)
    else:
        write_metis(g, args.output)
    print(f"generated {args.family} ({params}): n={g.n} m={g.m} -> "
          f"{args.output}")
    return 0


def _cmd_info(args) -> int:
    g = _read_graph(args.graph, args.format)
    deg = g.degrees()
    print(f"nodes: {g.n}")
    print(f"edges: {g.m}")
    print(f"total node weight: {g.total_node_weight():g}")
    print(f"total edge weight: {g.total_edge_weight():g}")
    if g.n:
        print(f"degree: min={int(deg.min())} avg={deg.mean():.2f} "
              f"max={int(deg.max())}")
    comp = g.connected_components()
    print(f"connected components: {int(comp.max()) + 1 if g.n else 0}")
    return 0


def _load_raw_trace(path: str):
    """Read a trace file without normalising it — the renderers and the
    analyzer detect absent sections on the raw document and degrade with
    a note instead of silently rendering empty tables."""
    import json as _json

    with open(path) as fh:
        doc = _json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("trace document must be a JSON object")
    return doc


def _cmd_report(args) -> int:
    from .observability import (
        TraceSchemaError,
        render_report,
    )

    fmt = args.report_format
    out = args.output
    if fmt is None:
        fmt = ("markdown" if out and out.endswith((".md", ".markdown"))
               else "html")
    if out is None:
        out = f"{args.trace}.report." + ("md" if fmt == "markdown" else "html")
    try:
        doc = _load_raw_trace(args.trace)
    except (OSError, ValueError, TraceSchemaError) as exc:
        print(f"error: cannot load trace {args.trace}: {exc}",
              file=sys.stderr)
        return 1
    try:
        with open(out, "w") as fh:
            fh.write(render_report(doc, fmt=fmt))
    except OSError as exc:
        print(f"error: cannot write report to {out}: {exc}", file=sys.stderr)
        return 1
    print(f"{fmt} report written to {out}")
    return 0


def _cmd_analyze(args) -> int:
    from .observability import (
        TraceSchemaError,
        analyze_trace,
        format_analysis,
    )

    try:
        doc = _load_raw_trace(args.trace)
        analysis = analyze_trace(doc, top_waits=args.top)
    except (OSError, ValueError, TraceSchemaError) as exc:
        print(f"error: cannot analyze trace {args.trace}: {exc}",
              file=sys.stderr)
        return 1
    if args.json:
        import json

        try:
            with open(args.json, "w") as fh:
                json.dump(analysis, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}",
                  file=sys.stderr)
            return 1
    print(format_analysis(analysis, max_path=args.max_path))
    if args.json:
        print(f"analysis JSON written to {args.json}")
    return 0


def _cmd_compare(args) -> int:
    from .observability import (
        CompareError,
        assert_provenance,
        compare_files,
        format_comparison,
    )

    try:
        if args.require_provenance in ("new", "both"):
            assert_provenance(args.new)
        if args.require_provenance == "both":
            assert_provenance(args.base)
        cmp = compare_files(args.base, args.new, threshold=args.threshold)
    except (OSError, ValueError) as exc:
        # CompareError is a ValueError; bad JSON raises ValueError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_comparison(cmp, base_path=args.base, new_path=args.new,
                            show_all=args.show_all))
    return 0 if cmp.ok else 1


def _cmd_list_engines() -> int:
    from .core.config import KappaConfig

    default = KappaConfig().engine
    print("registered engines:")
    for name in sorted(ENGINES):
        doc = (ENGINES[name].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        marker = " (default)" if name == default else ""
        print(f"  {name}{marker}: {summary}")
    return 0


def _cmd_list_kernel_backends() -> int:
    from .core.config import KappaConfig

    default = KappaConfig().kernel_backend
    print("registered kernel backends:")
    for name in KERNEL_BACKENDS:
        marker = " (default)" if name == default else ""
        print(f"  {name}{marker}")
    return 0


def _cmd_serve(args) -> int:
    from .service import create_server, run_server

    server = create_server(
        host=args.host, port=args.port,
        workers=args.workers, queue_limit=args.queue_limit,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        rate=args.rate, burst=args.burst,
        max_request_bytes=int(args.max_request_mb * 1024 * 1024),
        artifacts_dir=args.artifacts_dir,
    )
    print(f"repro service listening on {server.url} "
          f"(workers={args.workers}, queue_limit={args.queue_limit}, "
          f"cache={args.cache_mb:g}MiB"
          + (f", rate={args.rate:g}/s" if args.rate else "")
          + ")")
    print("endpoints: POST /v1/partition  POST /v1/sessions  "
          "PATCH /v1/sessions/<id>  GET /v1/jobs/<id>[/result]  "
          "GET /metrics  GET /healthz")
    return run_server(server, drain_timeout=args.drain_timeout)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "list_engines", False):
        return _cmd_list_engines()
    if getattr(args, "list_kernel_backends", False):
        return _cmd_list_kernel_backends()
    if args.command is None:
        if args.trace or args.check_invariants or _obs_outputs(args):
            return _cmd_demo(args)
        parser.error("a subcommand is required "
                     "(or pass --trace/--check-invariants for a demo run)")
    handler = {
        "partition": _cmd_partition,
        "dynamic": _cmd_dynamic,
        "evaluate": _cmd_evaluate,
        "generate": _cmd_generate,
        "info": _cmd_info,
        "report": _cmd_report,
        "analyze": _cmd_analyze,
        "compare": _cmd_compare,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
