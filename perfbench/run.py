"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload seq-road16k --seed 1 --seconds 20 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``seq-road16k`` — sequential library path, road16k, k=8;
* ``cluster-p2``  — SPMD path on the process engine, road16k, k=2;
* ``serve-mixed`` — ``repro serve`` under two closed-loop clients
  (misses, cache hits and incremental PATCHes).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures untraced and traced ops and reports the per-layer
metrics plus the tracing overhead.  Every op is checked; a failed check
makes the run exit 1.

Every time is in reference seconds: the wall time scaled by host-speed
probes (a fixed pure-Python loop) taken while the program is idle, just
before and after the timed work, to the speed of a host on which one
probe slice takes ``common.REF_PROBE_S``.  The benchmark's hosts are
shared and their speed drifts; the probes never run the program's code,
so a change to the program still moves its times in full.

The last line of standard output is the JSON result; the lines before it
list every metric with its unit, the run's provenance and host-speed
diagnostics.
The program is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("seq-road16k", "cluster-p2", "serve-mixed")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _stop_resource_tracker() -> None:
    """The process engine's shared memory starts multiprocessing's
    resource tracker process; stop it and wait for it, so that no
    process this run started outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


_MAIN_PID = os.getpid()


def _on_sigterm(signum, frame) -> None:
    """SIGTERM unwinds like Ctrl-C, so the service process is stopped and
    waited for on the way out.  The process engine's PEs are killed
    first: they are forked from this process, and a PE left running
    blocks on a pipe nobody reads while the unwinding waits for it.  A
    forked PE that receives SIGTERM itself dies at once."""
    if os.getpid() != _MAIN_PID:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    for child in multiprocessing.active_children():
        child.kill()
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({src / 'repro'} not "
              "found); run from the root of a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGTERM, _on_sigterm)
    import common

    calibration_start = common.calibrate()
    outcome = common.Outcome()
    trace = bool(args.trace)
    try:
        if args.workload == "serve-mixed":
            import serve

            serve.run(ROOT, args.seed, args.seconds, trace, outcome)
        else:
            import library

            library.run(args.workload, args.seed, args.seconds, trace,
                        outcome)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        _stop_resource_tracker()

    if trace:
        units = common.PER_LAYER
        # a layer the workload does not exercise reads 0
        values = {name: outcome.metrics.get(name, 0.0) for name in units}
    else:
        units = common.UNITS
        outcome.metrics["peak_rss_mb"] = common.peak_rss_mb()
        outcome.metrics["ok_rate"] = outcome.ok_rate
        values = {name: outcome.metrics[name] for name in common.END_TO_END}
    metrics = {name: {"value": float(value), "unit": units[name]}
               for name, value in values.items()}

    rows = [(name, m["value"], m["unit"], "") for name, m in metrics.items()]
    if not trace:
        rows.append(("op_p95_s", outcome.metrics["op_p95_s"], "s",
                     " (per-layer, not gated)"))
    for name, value, unit, note in rows:
        print(f"{args.workload:12s} {name:36s} {value:>16.6g} {unit}{note}")
    print("provenance " + json.dumps(common.provenance(str(ROOT))))
    print("diagnostics " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "calibration_start_s": calibration_start,
        "calibration_end_s": common.calibrate(),
        **outcome.diagnostics,
        "problems": outcome.problems[:20],
    }))
    correct = not outcome.problems
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
