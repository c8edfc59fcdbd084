"""Graph file I/O: METIS and DIMACS formats, plus partition vectors.

The METIS format is the lingua franca of the partitioning community (both
the Walshaw archive and the paper's tool chain use it), so round-tripping
through it is the interoperability story of this library.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import List, Optional, TextIO, Union

import numpy as np

from .csr import Graph
from .build import from_edge_list

__all__ = [
    "write_metis",
    "read_metis",
    "write_dimacs",
    "read_dimacs",
    "write_partition",
    "read_partition",
]

PathLike = Union[str, Path, TextIO]

#: most nodes a DIMACS header may claim beyond the two per edge line
#: that its edges can name (isolated nodes have no line of their own)
MAX_UNNAMED_NODES = 2**20


def _open(f: PathLike, mode: str):
    if hasattr(f, "read") or hasattr(f, "write"):
        return f, False
    return open(f, mode), True


def _count(text: str, no: int, what: str) -> int:
    """Parse a non-negative integer field of file line ``no``."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"line {no}: {what} {text!r} is not an integer") \
            from None
    if value < 0:
        raise ValueError(f"line {no}: negative {what} {value}")
    return value


def _weight(text: str, no: int, what: str) -> float:
    """Parse a finite weight field of file line ``no``."""
    try:
        w = float(text)
    except ValueError:
        raise ValueError(
            f"line {no}: {what} weight {text!r} is not a number") from None
    if not np.isfinite(w):
        raise ValueError(f"line {no}: non-finite {what} weight {text!r}")
    return w


def write_metis(g: Graph, f: PathLike) -> None:
    """Write in METIS .graph format.

    The weight-flag field is chosen minimally: ``11`` when both node and
    edge weights are non-trivial, ``1`` for edge weights only, ``10`` for
    node weights only, omitted when all weights are 1.  Integral weights
    are written as integers (METIS requires integer weights).
    """
    has_vw = not np.all(g.vwgt == 1.0)
    has_ew = not np.all(g.adjwgt == 1.0)
    handle, close = _open(f, "w")
    try:
        header = f"{g.n} {g.m}"
        if has_vw and has_ew:
            header += " 11"
        elif has_vw:
            header += " 10"
        elif has_ew:
            header += " 1"
        handle.write(header + "\n")

        def fmt(x: float) -> str:
            return str(int(x)) if float(x).is_integer() else repr(float(x))

        for v in range(g.n):
            parts: List[str] = []
            if has_vw:
                parts.append(fmt(g.vwgt[v]))
            nbrs = g.neighbors(v)
            wts = g.incident_weights(v)
            for u, w in zip(nbrs, wts):
                parts.append(str(int(u) + 1))  # METIS is 1-indexed
                if has_ew:
                    parts.append(fmt(w))
            handle.write(" ".join(parts) + "\n")
    finally:
        if close:
            handle.close()


def read_metis(f: PathLike) -> Graph:
    """Read a METIS .graph file (fmt codes 0/1/10/11, also written with
    three digits as 000/001/010/011).

    Every arc must name a neighbour in ``1..n`` and appear on both of
    its endpoints' lines with the same weight, and every weight must be
    finite; a file that breaks this raises a :class:`ValueError` naming
    the offending 1-based line of the file.
    """
    handle, close = _open(f, "r")
    try:
        # blank lines are meaningful after the header (isolated nodes), so
        # only comment lines are dropped; leading blanks before the header
        # are tolerated.  Each kept line carries its 1-based file line.
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(handle, 1)
                 if not ln.startswith("%")]
    finally:
        if close:
            handle.close()
    while lines and not lines[0][1].strip():
        lines.pop(0)
    stripped = 0
    while lines and not lines[-1][1].strip():
        lines.pop()
        stripped += 1
    if not lines:
        raise ValueError("empty METIS file")
    head_no, header = lines[0][0], lines[0][1].split()
    if not 2 <= len(header) <= 4:
        raise ValueError(
            f"line {head_no}: METIS header needs 'n m [fmt [ncon]]', got "
            f"{len(header)} field(s)")
    n = _count(header[0], head_no, "node count")
    m = _count(header[1], head_no, "edge count")
    # fmt is up to three binary flags, right-aligned: vertex sizes,
    # vertex weights, edge weights
    fmt = header[2] if len(header) > 2 else "0"
    if len(fmt) > 3 or set(fmt) - {"0", "1"} or fmt.zfill(3)[0] == "1":
        raise ValueError(
            f"line {head_no}: unsupported METIS fmt {fmt!r} (up to 3 "
            "binary digits; vertex sizes are not supported)")
    has_vw, has_ew = (flag == "1" for flag in fmt.zfill(3)[1:])
    ncon = (_count(header[3], head_no, "constraint count")
            if len(header) > 3 else 1)
    if ncon != 1:
        raise ValueError("multi-constraint METIS files are not supported")
    if len(lines) - 1 < n <= len(lines) + stripped:
        # trailing isolated nodes are trailing blank lines: pad back the
        # ones stripped above, plus one for a last line without a final
        # newline — never more, so a header alone allocates nothing
        last = lines[-1][0]
        lines += [(last + i, "") for i in range(1, n - len(lines) + 2)]
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} node lines, found {len(lines) - 1}")

    edges, weights = [], []
    # arcs v -> u with v < u still waiting for their reverse u -> v:
    # (v, u) -> [(weight, line), ...]
    pending: dict = {}
    vwgt = np.ones(n, dtype=np.float64)
    for v, (no, line) in enumerate(lines[1:]):
        tok = line.split()
        idx = 0
        if has_vw:
            if not tok:
                raise ValueError(f"line {no}: missing node weight")
            vwgt[v] = _weight(tok[0], no, "node")
            idx = 1
        while idx < len(tok):
            u = _count(tok[idx], no, "neighbour id") - 1
            idx += 1
            if not 0 <= u < n:
                raise ValueError(
                    f"line {no}: neighbour id {u + 1} outside 1..{n}")
            w = 1.0
            if has_ew:
                if idx == len(tok):
                    raise ValueError(
                        f"line {no}: neighbour {u + 1} has no edge weight")
                w = _weight(tok[idx], no, "edge")
                idx += 1
            if v < u:  # each undirected edge appears on both lines
                edges.append((v, u))
                weights.append(w)
                pending.setdefault((v, u), []).append((w, no))
            elif u < v:
                waiting = pending.get((u, v))
                if not waiting:
                    raise ValueError(
                        f"line {no}: arc {v + 1} -> {u + 1} has no reverse "
                        f"arc on the line of node {u + 1}")
                w_rev, _ = waiting.pop(0)
                if w_rev != w:
                    raise ValueError(
                        f"line {no}: arc {v + 1} -> {u + 1} has weight {w} "
                        f"but its reverse has weight {w_rev}")
    unmatched = [(no, v, u) for (v, u), waiting in pending.items()
                 for _, no in waiting]
    if unmatched:
        no, v, u = min(unmatched)
        raise ValueError(
            f"line {no}: arc {v + 1} -> {u + 1} has no reverse arc on the "
            f"line of node {u + 1}")
    g = from_edge_list(n, edges, weights, vwgt)
    if g.m != m:
        raise ValueError(f"header claims {m} edges, file has {g.m}")
    return g


def write_dimacs(g: Graph, f: PathLike, comment: str = "") -> None:
    """Write in (weighted) DIMACS edge format."""
    handle, close = _open(f, "w")
    try:
        if comment:
            for ln in comment.splitlines():
                handle.write(f"c {ln}\n")
        handle.write(f"p edge {g.n} {g.m}\n")
        for u, v, w in g.edges():
            handle.write(f"e {u + 1} {v + 1} {w:g}\n")
    finally:
        if close:
            handle.close()


def read_dimacs(f: PathLike) -> Graph:
    """Read a DIMACS edge-format file (``p edge n m`` header, then
    ``e u v [w]`` lines, 1-indexed).

    Every endpoint must lie in ``1..n`` and every weight must be finite,
    and the header may claim at most :data:`MAX_UNNAMED_NODES` nodes
    beyond two per edge line, so a header alone cannot allocate millions
    of nodes; a file that breaks this raises a :class:`ValueError`
    naming the offending 1-based line of the file.
    """
    handle, close = _open(f, "r")
    try:
        n = None
        edges, weights = [], []
        for no, line in enumerate(handle, 1):
            tok = line.split()
            if not tok or tok[0].startswith("c"):
                continue
            if tok[0] == "p":
                if len(tok) < 3:
                    raise ValueError(
                        f"line {no}: DIMACS header needs 'p edge n m'")
                n, head_no = _count(tok[2], no, "node count"), no
            elif tok[0] == "e":
                if len(tok) < 3:
                    raise ValueError(f"line {no}: edge line needs 'e u v [w]'")
                u = _count(tok[1], no, "endpoint") - 1
                v = _count(tok[2], no, "endpoint") - 1
                edges.append((u, v, no))
                weights.append(_weight(tok[3], no, "edge")
                               if len(tok) > 3 else 1.0)
    finally:
        if close:
            handle.close()
    if n is None:
        raise ValueError("missing 'p edge' header line")
    if n > 2 * len(edges) + MAX_UNNAMED_NODES:
        raise ValueError(
            f"line {head_no}: header claims {n} nodes but {len(edges)} edge "
            f"line(s) name at most {2 * len(edges)}")
    for u, v, no in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(
                f"line {no}: edge {u + 1} {v + 1} has an endpoint outside "
                f"1..{n}")
    return from_edge_list(n, [(u, v) for u, v, _ in edges], weights)


def write_partition(part: np.ndarray, f: PathLike) -> None:
    """Write a partition vector, one block id per line (METIS convention)."""
    handle, close = _open(f, "w")
    try:
        for b in np.asarray(part, dtype=np.int64):
            handle.write(f"{int(b)}\n")
    finally:
        if close:
            handle.close()


def read_partition(f: PathLike) -> np.ndarray:
    """Read a partition vector written by :func:`write_partition`."""
    handle, close = _open(f, "r")
    try:
        vals = [int(ln) for ln in handle if ln.strip()]
    finally:
        if close:
            handle.close()
    return np.asarray(vals, dtype=np.int64)
