"""Causal event DAG, critical path, and wall-time wait attribution.

The causal event log (trace schema ``repro.trace/3``, see
:mod:`repro.observability.recorder`) records one event per user-level
``send``/``recv``/collective with a PE-local program-order index ``i``
and a per-channel logical sequence id ``seq``.  This module turns that
log into answers for "why was this run slow":

* :func:`build_event_dag` — the cross-PE happens-before DAG:

  - *program* edges ``(pe, i) -> (pe, i+1)`` (PE-local order),
  - *message* edges from each ``send`` to the ``recv`` with the same
    ``(src, dst, tag, seq)`` key (FIFO channels guarantee the pairing),
  - *collective* edges under the rank-0 star model: for round ``r``,
    every non-zero rank's ``coll`` event's program predecessor feeds
    rank 0's ``coll`` event (the contribution) and rank 0's event feeds
    every other rank's event (the slot list) — so each PE's collective
    exit transitively happens-after all PEs' pre-collective work.

  The node set and edge set are pure functions of the SPMD program —
  identical across the sequential, sim and process engines —
  which the cross-engine equivalence suite asserts as a correctness
  check on the comm layer itself.

* :func:`critical_path` — the longest path through the DAG.  With
  ``weights="wall"`` nodes cost their measured wait and program edges
  cost the inter-event compute time (the human-facing view, engine-
  specific); with ``weights="logical"`` every node costs 1 and ties
  break on ``(pe, i)``, giving a deterministic path the equivalence
  suite can compare across engines.

* :func:`analyze_trace` — the ``repro.analysis/1`` document: per-PE
  compute / blocked-on-recv / collective-wait buckets (summing to the
  PE's wall time by construction), per-phase wait fractions, straggler
  and load-imbalance scores, top-N longest waits with the causing
  ``(src, phase)`` pair, and the critical path — JSON that
  ``repro compare`` can diff run over run.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from .trace_io import absent_sections, load_trace

__all__ = [
    "ANALYSIS_SCHEMA",
    "EventDag",
    "build_event_dag",
    "critical_path",
    "analyze_trace",
    "format_analysis",
]

ANALYSIS_SCHEMA = "repro.analysis/1"

#: node key: (pe, program-order index)
Key = Tuple[int, int]


class EventDag:
    """The happens-before DAG over causal events.

    ``nodes`` maps ``(pe, i)`` to the event record; ``preds``/``succs``
    hold ``(other_key, edge_kind)`` adjacency with *kind* one of
    ``"program"``, ``"message"``, ``"collective"``.  ``edges`` is the
    deterministic flat edge list the cross-engine suite compares.
    """

    __slots__ = ("nodes", "preds", "succs", "edges", "clocks", "notes")

    def __init__(self) -> None:
        self.nodes: Dict[Key, Dict[str, Any]] = {}
        self.preds: Dict[Key, List[Tuple[Key, str]]] = {}
        self.succs: Dict[Key, List[Tuple[Key, str]]] = {}
        self.edges: List[Tuple[Key, Key, str]] = []
        self.clocks: Dict[int, Tuple[float, float]] = {}
        self.notes: List[str] = []

    def _add_edge(self, src: Key, dst: Key, kind: str) -> None:
        self.edges.append((src, dst, kind))
        self.succs.setdefault(src, []).append((dst, kind))
        self.preds.setdefault(dst, []).append((src, kind))

    def edge_counts(self) -> Dict[str, int]:
        out = {"program": 0, "message": 0, "collective": 0}
        for _, _, kind in self.edges:
            out[kind] = out.get(kind, 0) + 1
        return out

    def topo_order(self) -> List[Key]:
        """Kahn order with a deterministic ready queue (sorted by key);
        on a cycle (malformed trace) the unreachable remainder is
        dropped and a note is recorded."""
        import heapq

        indeg = {key: len(self.preds.get(key, ())) for key in self.nodes}
        ready = [key for key, deg in indeg.items() if deg == 0]
        heapq.heapify(ready)
        order: List[Key] = []
        while ready:
            key = heapq.heappop(ready)
            order.append(key)
            for nxt, _ in self.succs.get(key, ()):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) != len(self.nodes):
            self.notes.append(
                f"event graph has a cycle: {len(self.nodes) - len(order)} "
                "events unreachable in topological order (dropped)"
            )
        return order


def _event_records(doc: Dict[str, Any]) -> Tuple[List[Dict[str, Any]],
                                                 List[Dict[str, Any]]]:
    ev = doc.get("events") or {}
    if isinstance(ev, dict):
        return list(ev.get("records") or []), list(ev.get("clocks") or [])
    # tolerate a bare list (hand-built fixtures)
    return list(ev), []


def build_event_dag(doc: Dict[str, Any]) -> EventDag:
    """Build the happens-before DAG from a (raw or normalised) ``/3``
    trace document's ``events`` section."""
    records, clocks = _event_records(doc)
    dag = EventDag()
    for rec in clocks:
        dag.clocks[int(rec["pe"])] = (float(rec.get("t0_s", 0.0)),
                                      float(rec.get("t1_s", 0.0)))
    per_pe: Dict[int, List[Dict[str, Any]]] = {}
    for rec in records:
        pe = int(rec.get("pe", 0))
        key = (pe, int(rec.get("i", len(per_pe.get(pe, ())))))
        dag.nodes[key] = rec
        per_pe.setdefault(pe, []).append(rec)

    # program edges: PE-local order
    for pe, recs in sorted(per_pe.items()):
        recs.sort(key=lambda r: int(r.get("i", 0)))
        for prev, cur in zip(recs, recs[1:]):
            dag._add_edge((pe, int(prev["i"])), (pe, int(cur["i"])),
                          "program")

    # message edges: send (src, dst, tag, seq) -> matching recv
    sends: Dict[Tuple[int, int, Any, int], Key] = {}
    for key in sorted(dag.nodes):
        rec = dag.nodes[key]
        if rec.get("type") == "send":
            sends[(int(rec["src"]), int(rec["dst"]), rec.get("tag"),
                   int(rec.get("seq", 0)))] = key
    unmatched = 0
    for key in sorted(dag.nodes):
        rec = dag.nodes[key]
        if rec.get("type") != "recv":
            continue
        skey = (int(rec["src"]), int(rec["dst"]), rec.get("tag"),
                int(rec.get("seq", 0)))
        send_key = sends.get(skey)
        if send_key is None:
            unmatched += 1
            continue
        dag._add_edge(send_key, key, "message")
    if unmatched:
        dag.notes.append(
            f"{unmatched} recv event(s) had no matching send "
            "(partial/stripped trace?) — message edges omitted for them"
        )

    # collective edges: rank-0 star per round
    rounds: Dict[int, List[Key]] = {}
    for key in sorted(dag.nodes):
        rec = dag.nodes[key]
        if rec.get("type") == "coll":
            rounds.setdefault(int(rec.get("round", 0)), []).append(key)
    for rnd, keys in sorted(rounds.items()):
        root = next((k for k in keys
                     if int(dag.nodes[k].get("rank", k[0])) == 0), None)
        if root is None:
            continue  # degenerate: no rank-0 record in this round
        for key in keys:
            if key == root:
                continue
            # contribution: the worker's pre-collective program point
            # feeds rank 0's collective exit
            pe, i = key
            if i > 0 and (pe, i - 1) in dag.nodes:
                dag._add_edge((pe, i - 1), root, "collective")
            # slot list: rank 0's collective exit feeds the worker's
            dag._add_edge(root, key, "collective")

    dag.edges.sort()
    return dag


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------

def _node_wait(rec: Dict[str, Any]) -> float:
    return float(rec.get("wait_s", 0.0) or 0.0)


def _event_t(rec: Dict[str, Any]) -> float:
    return float(rec.get("t_s", 0.0) or 0.0)


def critical_path(dag: EventDag, weights: str = "wall",
                  ) -> Tuple[List[Key], float]:
    """The critical path through ``dag``; returns ``(node keys, length)``.

    ``weights="wall"`` is the classic timed critical path: starting from
    the globally last event, backtrack through each node's *binding*
    predecessor (the latest-finishing causal dependency — waits that
    overlapped in real time are never double-counted), and the length is
    the wall span from run start to the last event — by construction at
    most the makespan.  ``weights="logical"`` is the longest chain by
    event count with ties broken on the smallest ``(pe, i)`` — a pure
    function of the DAG structure, fully deterministic across engines
    (wall clocks differ per engine, the chain does not).
    """
    if weights not in ("wall", "logical"):
        raise ValueError(f"unknown weights mode {weights!r}")
    order = dag.topo_order()
    if not order:
        return [], 0.0

    if weights == "logical":
        dist: Dict[Key, float] = {}
        back: Dict[Key, Optional[Key]] = {}
        for key in order:
            best = 0.0
            best_pred: Optional[Key] = None
            for pred, _ in sorted(dag.preds.get(key, ())):
                if pred not in dist:
                    continue
                if best_pred is None or dist[pred] > best:
                    best = dist[pred]
                    best_pred = pred
            dist[key] = best + 1.0
            back[key] = best_pred
        top = max(dist.values())
        end: Optional[Key] = min(k for k in order if dist[k] == top)
        path: List[Key] = []
        while end is not None:
            path.append(end)
            end = back[end]
        path.reverse()
        return path, top

    # wall mode: binding-predecessor backtracking by finish timestamp
    end = min((k for k in order),
              key=lambda k: (-_event_t(dag.nodes[k]), k))
    path = []
    cur: Optional[Key] = end
    seen = set()
    while cur is not None and cur not in seen:
        seen.add(cur)
        path.append(cur)
        preds = [p for p, _ in dag.preds.get(cur, ())]
        if not preds:
            break
        cur = min(preds, key=lambda p: (-_event_t(dag.nodes[p]), p))
    path.reverse()
    if dag.clocks:
        start = min(t0 for t0, _ in dag.clocks.values())
    else:
        first = dag.nodes[path[0]]
        start = _event_t(first) - _node_wait(first)
    return path, max(0.0, _event_t(dag.nodes[end]) - start)


# ---------------------------------------------------------------------------
# full analysis
# ---------------------------------------------------------------------------

def _per_pe_buckets(dag: EventDag) -> List[Dict[str, Any]]:
    pes = sorted(set(pe for pe, _ in dag.nodes) | set(dag.clocks))
    rows: List[Dict[str, Any]] = []
    for pe in pes:
        recv_wait = sum(_node_wait(r) for (p, _), r in dag.nodes.items()
                        if p == pe and r.get("type") == "recv")
        coll_wait = sum(_node_wait(r) for (p, _), r in dag.nodes.items()
                        if p == pe and r.get("type") == "coll")
        t0, t1 = dag.clocks.get(pe, (0.0, 0.0))
        wall = max(0.0, t1 - t0)
        compute = max(0.0, wall - recv_wait - coll_wait)
        rows.append({
            "pe": pe,
            "wall_s": wall,
            "compute_s": compute,
            "recv_wait_s": recv_wait,
            "coll_wait_s": coll_wait,
            "wait_fraction": ((recv_wait + coll_wait) / wall
                              if wall > 0 else 0.0),
        })
    return rows


def _per_phase_rows(dag: EventDag,
                    spans: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    span_wall: Dict[str, float] = {}
    for span in spans or ():
        name = span.get("name")
        if name is not None:
            span_wall[name] = span_wall.get(name, 0.0) + \
                float(span.get("dur_s", 0.0) or 0.0)
    agg: Dict[str, Dict[str, float]] = {}
    for rec in dag.nodes.values():
        phase = str(rec.get("phase", "run"))
        row = agg.setdefault(phase, {"recv_wait_s": 0.0, "coll_wait_s": 0.0,
                                     "messages": 0})
        if rec.get("type") == "recv":
            row["recv_wait_s"] += _node_wait(rec)
        elif rec.get("type") == "coll":
            row["coll_wait_s"] += _node_wait(rec)
        elif rec.get("type") == "send":
            row["messages"] += 1
    rows = []
    for phase in sorted(agg):
        row = agg[phase]
        wall = span_wall.get(phase)
        wait = row["recv_wait_s"] + row["coll_wait_s"]
        rows.append({
            "phase": phase,
            "wall_s": wall,
            "recv_wait_s": row["recv_wait_s"],
            "coll_wait_s": row["coll_wait_s"],
            "messages": int(row["messages"]),
            "wait_fraction": (wait / wall if wall else None),
        })
    return rows


def _top_waits(dag: EventDag, n: int) -> List[Dict[str, Any]]:
    sends: Dict[Tuple[int, int, Any, int], Dict[str, Any]] = {}
    for rec in dag.nodes.values():
        if rec.get("type") == "send":
            sends[(int(rec["src"]), int(rec["dst"]), rec.get("tag"),
                   int(rec.get("seq", 0)))] = rec
    waits = []
    for key in sorted(dag.nodes):
        rec = dag.nodes[key]
        if rec.get("type") == "recv":
            cause = sends.get((int(rec["src"]), int(rec["dst"]),
                               rec.get("tag"), int(rec.get("seq", 0))))
            waits.append({
                "pe": key[0], "i": key[1], "type": "recv",
                "wait_s": _node_wait(rec), "phase": rec.get("phase"),
                "tag": rec.get("tag"), "src": int(rec["src"]),
                "src_phase": cause.get("phase") if cause else None,
            })
        elif rec.get("type") == "coll":
            waits.append({
                "pe": key[0], "i": key[1], "type": "coll",
                "wait_s": _node_wait(rec), "phase": rec.get("phase"),
                "tag": "coll", "src": None,
                "src_phase": None, "round": rec.get("round"),
            })
    waits.sort(key=lambda w: (-w["wait_s"], w["pe"], w["i"]))
    return waits[:n]


def _fallback_per_pe(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-PE wait totals from the comm matrix when events are absent
    (waits are booked on the receiving PE, i.e. the ``dst`` column)."""
    waits: Dict[int, float] = {}
    for cell in doc.get("comm_matrix") or []:
        dst = int(cell.get("dst", 0))
        waits[dst] = waits.get(dst, 0.0) + float(cell.get("wait_s", 0.0))
    return [{"pe": pe, "wall_s": None, "compute_s": None,
             "recv_wait_s": None, "coll_wait_s": None,
             "wait_fraction": None, "wait_s": wait}
            for pe, wait in sorted(waits.items())]


def analyze_trace(doc: Dict[str, Any], top_waits: int = 10,
                  ) -> Dict[str, Any]:
    """Full bottleneck analysis of one trace document.

    Accepts a *raw* trace dict of any schema version; missing sections
    degrade to notes instead of errors (the analysis of a ``/1`` or
    stripped trace simply says which sections were absent).
    """
    absent = absent_sections(doc)
    notes = [f"section absent in trace: {name}" for name in absent]
    doc = load_trace(dict(doc))
    dag = build_event_dag(doc)
    meta = dict(doc.get("meta") or {})

    analysis: Dict[str, Any] = {
        "schema": ANALYSIS_SCHEMA,
        "meta": meta,
        "notes": notes,
    }
    if not dag.nodes:
        if "events" not in absent:
            notes.append("events section empty — run was not observed")
        notes.append("causal analysis unavailable without events")
        analysis.update({
            "pes": 0, "critical_path_s": None, "wall_s": None,
            "wait_fraction": None, "load_imbalance": None,
            "straggler": None, "per_pe": _fallback_per_pe(doc),
            "per_phase": [], "critical_path": [], "top_waits": [],
            "edges": {"program": 0, "message": 0, "collective": 0},
        })
        return analysis

    per_pe = _per_pe_buckets(dag)
    walls = [row["wall_s"] for row in per_pe]
    total_wall = sum(walls)
    total_wait = sum(row["recv_wait_s"] + row["coll_wait_s"]
                     for row in per_pe)
    mean_wall = total_wall / len(per_pe) if per_pe else 0.0
    straggler_row = max(per_pe, key=lambda r: (r["wall_s"], -r["pe"]))
    path, length = critical_path(dag, weights="wall")
    path_rows = []
    for key in path:
        rec = dag.nodes[key]
        path_rows.append({
            "pe": key[0], "i": key[1], "type": rec.get("type"),
            "phase": rec.get("phase"), "wait_s": _node_wait(rec),
            "tag": rec.get("tag", "coll"
                           if rec.get("type") == "coll" else None),
        })
    analysis.update({
        "pes": len(per_pe),
        "critical_path_s": float(length),
        "wall_s": float(max(walls) if walls else 0.0),
        "wait_fraction": (total_wait / total_wall
                          if total_wall > 0 else 0.0),
        "load_imbalance": (max(walls) / mean_wall
                           if mean_wall > 0 else 1.0),
        "straggler": {"pe": straggler_row["pe"],
                      "score": (straggler_row["wall_s"] / mean_wall
                                if mean_wall > 0 else 1.0)},
        "per_pe": per_pe,
        "per_phase": _per_phase_rows(dag, doc.get("spans")),
        "critical_path": path_rows,
        "top_waits": _top_waits(dag, top_waits),
        "edges": dag.edge_counts(),
    })
    notes.extend(dag.notes)
    return analysis


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_s(value: Any) -> str:
    if value is None:
        return "-"
    return f"{float(value):.4f}s"


def _fmt_frac(value: Any) -> str:
    if value is None:
        return "-"
    return f"{float(value):.1%}"


def format_analysis(analysis: Dict[str, Any], max_path: int = 20) -> str:
    """Human-readable rendering of a ``repro.analysis/1`` document."""
    lines: List[str] = []
    meta = analysis.get("meta") or {}
    head = " ".join(f"{k}={meta[k]}" for k in ("graph", "k", "engine",
                                               "seed") if meta.get(k))
    lines.append(f"analysis ({analysis.get('pes', 0)} PEs)"
                 + (f" [{head}]" if head else ""))
    for note in analysis.get("notes") or []:
        lines.append(f"  note: {note}")
    if analysis.get("critical_path_s") is None:
        if analysis.get("per_pe"):
            lines.append("  per-PE receive-wait (from comm matrix):")
            for row in analysis["per_pe"]:
                lines.append(f"    pe{row['pe']}: "
                             f"wait {_fmt_s(row.get('wait_s'))}")
        return "\n".join(lines)
    lines.append(
        f"  critical path: {_fmt_s(analysis['critical_path_s'])} over "
        f"{len(analysis.get('critical_path') or [])} events; "
        f"wall {_fmt_s(analysis['wall_s'])}, "
        f"wait fraction {_fmt_frac(analysis['wait_fraction'])}, "
        f"load imbalance {analysis['load_imbalance']:.3f}"
    )
    strag = analysis.get("straggler") or {}
    if strag:
        lines.append(f"  straggler: pe{strag.get('pe')} "
                     f"(x{strag.get('score', 1.0):.3f} of mean wall)")
    edges = analysis.get("edges") or {}
    lines.append(
        "  causal edges: "
        + ", ".join(f"{k}={edges.get(k, 0)}"
                    for k in ("program", "message", "collective"))
    )
    lines.append("  per-PE buckets (compute / recv-wait / coll-wait "
                 "= wall):")
    for row in analysis.get("per_pe") or []:
        lines.append(
            f"    pe{row['pe']}: {_fmt_s(row['compute_s'])} / "
            f"{_fmt_s(row['recv_wait_s'])} / {_fmt_s(row['coll_wait_s'])}"
            f" = {_fmt_s(row['wall_s'])} "
            f"(wait {_fmt_frac(row['wait_fraction'])})"
        )
    rows = analysis.get("per_phase") or []
    if rows:
        lines.append("  per-phase waits:")
        for row in rows:
            lines.append(
                f"    {row['phase']}: wall {_fmt_s(row.get('wall_s'))}, "
                f"recv-wait {_fmt_s(row['recv_wait_s'])}, "
                f"coll-wait {_fmt_s(row['coll_wait_s'])}, "
                f"msgs {row.get('messages', 0)} "
                f"(wait {_fmt_frac(row.get('wait_fraction'))})"
            )
    tops = analysis.get("top_waits") or []
    if tops:
        lines.append("  top waits (cause = src PE / src phase):")
        for w in tops:
            if w["type"] == "recv":
                cause = (f"pe{w['src']}"
                         + (f"/{w['src_phase']}" if w.get("src_phase")
                            else ""))
            else:
                cause = f"collective round {w.get('round')}"
            lines.append(
                f"    pe{w['pe']} {w['type']} tag={w.get('tag')} in "
                f"{w.get('phase')}: {_fmt_s(w['wait_s'])} <- {cause}"
            )
    path = analysis.get("critical_path") or []
    if path:
        shown = path if len(path) <= max_path else path[:max_path]
        lines.append(f"  critical path ({len(path)} events"
                     + ("" if shown is path
                        else f", first {max_path} shown") + "):")
        for row in shown:
            lines.append(
                f"    pe{row['pe']}#{row['i']} {row['type']} "
                f"[{row['phase']}] wait {_fmt_s(row['wait_s'])}"
            )
    return "\n".join(lines)
