"""Wire-format graph specifications.

A service request names its graph in one of three ways, all JSON:

* ``{"metis": "<METIS .graph text>"}`` — an inline upload (the METIS
  format is the library's lingua franca; ``read_metis`` accepts a
  file-like, so the text is parsed straight out of the request body);
* ``{"generator": {"family": "rgg", "params": {"n": 4096, "seed": 0}}}``
  — a named generator spec, resolved against the same table the
  ``repro generate`` CLI uses (generators are deterministic, so a spec
  is as cacheable as an upload);
* ``{"session": "<id>"}`` — the held graph of a live incremental
  session (PATCH workloads; resolved by the job layer, not here).

``resolve_graph`` returns the :class:`~repro.graph.csr.Graph` plus a
short human-readable description used in job listings.  It runs in the
HTTP handler thread, before admission control, so a generator spec is
checked against fixed size bounds before any generator runs: a tiny
body must not be able to ask for a huge graph.
"""

from __future__ import annotations

import io
from typing import Any, Dict, Tuple

from ..graph.csr import Graph
from ..graph.io import read_metis, write_metis

__all__ = ["GENERATORS", "MAX_NODES", "MAX_EDGES", "GraphSpecError",
           "resolve_graph", "graph_to_spec"]

#: family -> (generator function name in :mod:`repro.generators`, defaults);
#: shared with the ``repro generate`` CLI subcommand
GENERATORS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "rgg": ("random_geometric_graph", {"n": 4096, "seed": 0}),
    "delaunay": ("delaunay_graph", {"n": 4096, "seed": 0}),
    "grid": ("triangulated_grid", {"rows": 64, "cols": 64}),
    "grid3d": ("grid3d_graph", {"nx": 16, "ny": 16, "nz": 16}),
    "road": ("road_network", {"n": 4096, "n_cities": 12, "seed": 0}),
    "social": ("preferential_attachment", {"n": 4096, "m_per_node": 4, "seed": 0}),
    "rmat": ("rmat_graph", {"scale": 12, "edge_factor": 8, "seed": 0}),
}

#: largest nominal node and edge count a generator spec may ask for
MAX_NODES = 2**20
MAX_EDGES = 2**24

#: family -> its size parameters (every one must be >= 1)
_SIZE_PARAMS: Dict[str, Tuple[str, ...]] = {
    "rgg": ("n",),
    "delaunay": ("n",),
    "grid": ("rows", "cols"),
    "grid3d": ("nx", "ny", "nz"),
    "road": ("n", "n_cities"),
    "social": ("n", "m_per_node"),
    "rmat": ("scale", "edge_factor"),
}


class GraphSpecError(ValueError):
    """The request's graph spec is malformed (client error → 400)."""


def _nominal_size(family: str, p: Dict[str, int]) -> Tuple[int, int]:
    """The (nodes, edges) a generator spec asks for, computed from its
    parameters alone; families whose edge count follows from the node
    count report 0 edges."""
    if family == "grid":
        return p["rows"] * p["cols"], 0
    if family == "grid3d":
        return p["nx"] * p["ny"] * p["nz"], 0
    if family == "rmat":
        # capped so a huge scale is not materialised; it fails the bound
        n = 2 ** min(p["scale"], MAX_NODES.bit_length())
        return n, n * p["edge_factor"]
    if family == "social":
        return p["n"], p["n"] * p["m_per_node"]
    return p["n"], 0


def resolve_graph(spec: Any) -> Tuple[Graph, str]:
    """Resolve a JSON graph spec to ``(graph, description)``.

    Raises :class:`GraphSpecError` on malformed specs; METIS parse
    errors surface as the same type so the server can answer 400.
    """
    if not isinstance(spec, dict):
        raise GraphSpecError("graph spec must be a JSON object")
    kinds = {k for k in ("metis", "generator") if k in spec}
    if len(kinds) != 1:
        raise GraphSpecError(
            "graph spec needs exactly one of 'metis' or 'generator'")
    if "metis" in spec:
        text = spec["metis"]
        if not isinstance(text, str) or not text.strip():
            raise GraphSpecError("'metis' must be a non-empty string")
        try:
            g = read_metis(io.StringIO(text))
        except (ValueError, IndexError) as exc:
            raise GraphSpecError(f"bad METIS text: {exc}") from None
        return g, f"upload(n={g.n}, m={g.m})"
    gen = spec["generator"]
    if not isinstance(gen, dict) or "family" not in gen:
        raise GraphSpecError("'generator' must be an object with a 'family'")
    family = gen["family"]
    if not isinstance(family, str) or family not in GENERATORS:
        raise GraphSpecError(
            f"unknown generator family {family!r}; "
            f"known: {sorted(GENERATORS)}")
    fn_name, defaults = GENERATORS[family]
    params = dict(defaults)
    overrides = gen.get("params") or {}
    if not isinstance(overrides, dict):
        raise GraphSpecError("'generator.params' must be an object")
    for name, value in overrides.items():
        if name not in params:
            raise GraphSpecError(
                f"unknown parameter {name!r} for {family!r} "
                f"(known: {sorted(params)})")
        try:
            params[name] = type(defaults[name])(value)
        except (TypeError, ValueError, OverflowError):
            raise GraphSpecError(
                f"bad value {value!r} for parameter {name!r}") from None
    for name in _SIZE_PARAMS[family]:
        if params[name] < 1:
            raise GraphSpecError(
                f"parameter {name!r} must be >= 1, got {params[name]}")
    nodes, edges = _nominal_size(family, params)
    if nodes > MAX_NODES or edges > MAX_EDGES:
        raise GraphSpecError(
            f"{family!r} spec is too large: at most {MAX_NODES} nodes "
            f"and {MAX_EDGES} edges")
    from .. import generators

    try:
        g = getattr(generators, fn_name)(**params)
    except (TypeError, ValueError) as exc:
        raise GraphSpecError(
            f"cannot generate {family!r} graph: {exc}") from None
    pretty = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return g, f"{family}({pretty})"


def graph_to_spec(g: Graph) -> Dict[str, str]:
    """Serialize a graph as an inline-upload spec (client-side helper)."""
    buf = io.StringIO()
    write_metis(g, buf)
    return {"metis": buf.getvalue()}
