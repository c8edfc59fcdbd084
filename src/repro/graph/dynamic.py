"""Dynamic graphs: batched mutations over the static CSR substrate.

The paper's Section 8 outlook names repartitioning as the next
generalization of KaPPa; the adaptive-simulation workflow behind it
(KaHIP user guide, STGraph's GPMA update batches) is *mutate, then
repair*: the application accumulates a batch of topology/weight changes
between time steps, applies them transactionally, and hands the dirty
region to the repartitioner.

:class:`DynamicGraph` wraps the immutable :class:`~repro.graph.csr.Graph`
with exactly that contract:

* mutations arrive as a :class:`MutationBatch` (edge insert/delete,
  vertex add/remove, vertex/edge weight updates) and are applied
  *deterministically* in a fixed phase order;
* the CSR form is rebuilt **lazily** — :meth:`DynamicGraph.graph` builds
  (and caches) a fresh, validated :class:`Graph` only when someone asks
  for it, so a burst of batches pays one rebuild;
* every application reports its ``dirty_nodes`` — exactly the endpoints
  touched by the batch — which seed the incremental repartitioner's
  boundary band (:mod:`repro.core.incremental`);
* with ``record_inverse=True`` the application also returns the exact
  inverse batch: applying it restores the graph bit-identically (CSR
  arrays, weights, signature) — the property the differential test
  suite pins down.

Vertex removal drops the incident edges and *tombstones* the slot
(weight 0, no edges, inactive) so remaining node ids are stable; slots
removed from the tail — including vertices added and removed by the same
batch — are popped so an add/remove round-trip restores ``n`` exactly.

Mutation streams serialise to JSONL (one batch per line, see
:func:`write_mutation_stream`), the format the CLI's ``repro dynamic``
subcommand and the incremental benchmark consume.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .csr import Graph

__all__ = [
    "MutationError",
    "VertexAdd",
    "MutationBatch",
    "BatchResult",
    "DynamicGraph",
    "read_mutation_stream",
    "write_mutation_stream",
    "random_mutation_batch",
    "generate_mutation_stream",
]


class MutationError(ValueError):
    """A mutation violates the batch contract (missing edge, inactive
    vertex, duplicate insert, …).  Batches are strict by design: silent
    upserts would make inverses ambiguous and hide generator bugs."""


def _canon(u: int, v: int) -> Tuple[int, int]:
    u, v = int(u), int(v)
    if u == v:
        raise MutationError(f"self-loop ({u}, {v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


def _edge_weight(w: float) -> float:
    """An edge weight as stored: finite and positive (``w <= 0`` alone
    lets NaN through)."""
    w = float(w)
    if not (math.isfinite(w) and w > 0):
        raise MutationError(f"edge weight must be positive and finite, "
                            f"got {w}")
    return w


def _vertex_weight(w: float) -> float:
    """A vertex weight as stored: finite and non-negative."""
    w = float(w)
    if not (math.isfinite(w) and w >= 0):
        raise MutationError(f"vertex weight must be non-negative and "
                            f"finite, got {w}")
    return w


@dataclass(frozen=True)
class VertexAdd:
    """One vertex addition (or tombstone reactivation).

    ``vid=None`` appends a fresh vertex (id = current ``n``); an explicit
    ``vid`` must either equal the current ``n`` (append — the form
    inverse batches use so ids line up) or name an inactive tombstone to
    reactivate.
    """

    weight: float = 1.0
    vid: Optional[int] = None
    coords: Optional[Tuple[float, ...]] = None


@dataclass
class MutationBatch:
    """One transactional set of graph mutations.

    Applied in a fixed phase order (adds → edge inserts → edge deletes →
    edge re-weights → vertex re-weights → vertex removals), so a batch is
    a deterministic function of the graph it is applied to.
    """

    add_vertices: List[VertexAdd] = field(default_factory=list)
    insert_edges: List[Tuple[int, int, float]] = field(default_factory=list)
    delete_edges: List[Tuple[int, int]] = field(default_factory=list)
    edge_weights: List[Tuple[int, int, float]] = field(default_factory=list)
    vertex_weights: List[Tuple[int, float]] = field(default_factory=list)
    remove_vertices: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return (len(self.add_vertices) + len(self.insert_edges)
                + len(self.delete_edges) + len(self.edge_weights)
                + len(self.vertex_weights) + len(self.remove_vertices))

    def is_empty(self) -> bool:
        return len(self) == 0

    # -- JSON (one batch per JSONL line) --------------------------------
    def to_json(self) -> Dict:
        doc: Dict = {}
        if self.add_vertices:
            doc["add_vertices"] = [
                {"weight": float(a.weight),
                 **({"v": int(a.vid)} if a.vid is not None else {}),
                 **({"coords": [float(c) for c in a.coords]}
                    if a.coords is not None else {})}
                for a in self.add_vertices
            ]
        if self.insert_edges:
            doc["insert_edges"] = [[int(u), int(v), float(w)]
                                   for u, v, w in self.insert_edges]
        if self.delete_edges:
            doc["delete_edges"] = [[int(u), int(v)]
                                   for u, v in self.delete_edges]
        if self.edge_weights:
            doc["edge_weights"] = [[int(u), int(v), float(w)]
                                   for u, v, w in self.edge_weights]
        if self.vertex_weights:
            doc["vertex_weights"] = [[int(v), float(w)]
                                     for v, w in self.vertex_weights]
        if self.remove_vertices:
            doc["remove_vertices"] = [int(v) for v in self.remove_vertices]
        return doc

    @classmethod
    def from_json(cls, doc: Dict) -> "MutationBatch":
        known = {"add_vertices", "insert_edges", "delete_edges",
                 "edge_weights", "vertex_weights", "remove_vertices"}
        unknown = set(doc) - known
        if unknown:
            raise MutationError(f"unknown mutation op(s) {sorted(unknown)}; "
                                f"known: {sorted(known)}")
        return cls(
            add_vertices=[
                VertexAdd(weight=float(a.get("weight", 1.0)),
                          vid=(int(a["v"]) if "v" in a and a["v"] is not None
                               else None),
                          coords=(tuple(float(c) for c in a["coords"])
                                  if a.get("coords") is not None else None))
                for a in doc.get("add_vertices", [])
            ],
            insert_edges=[(int(u), int(v), float(w))
                          for u, v, w in doc.get("insert_edges", [])],
            delete_edges=[(int(u), int(v))
                          for u, v in doc.get("delete_edges", [])],
            edge_weights=[(int(u), int(v), float(w))
                          for u, v, w in doc.get("edge_weights", [])],
            vertex_weights=[(int(v), float(w))
                            for v, w in doc.get("vertex_weights", [])],
            remove_vertices=[int(v) for v in doc.get("remove_vertices", [])],
        )


@dataclass
class BatchResult:
    """Outcome of applying one batch."""

    dirty_nodes: np.ndarray          # endpoints touched, sorted unique
    inverse: Optional[MutationBatch]  # exact inverse (record_inverse=True)
    n_before: int
    n_after: int


class DynamicGraph:
    """A mutable graph with transactional batch updates and lazy CSR.

    The live state is a canonical edge dictionary plus per-vertex weight
    and activity arrays — the "dynamic" half of STGraph's dynamic+static
    split.  :meth:`graph` materialises the "static" half: a validated
    CSR :class:`Graph`, rebuilt only when mutations happened since the
    last build and cached until the next batch.
    """

    def __init__(self, base: Graph) -> None:
        self._edges: Dict[Tuple[int, int], float] = {
            (int(u), int(v)): float(w) for u, v, w in base.edges()
        }
        self._vwgt: List[float] = [float(w) for w in base.vwgt]
        # constraint extensions carried through every rebuild: extra
        # weight dimensions (mutations only touch dimension 0; added
        # vertices get 0 in the extras) and fixed-vertex targets (added
        # vertices are free; removing a vertex clears its pin)
        self._vwgts_extra: Optional[List[Tuple[float, ...]]] = (
            None if base.n_constraints == 1
            else [tuple(float(x) for x in row) for row in base.vwgts[:, 1:]]
        )
        self._fixed: Optional[List[int]] = (
            None if base.fixed is None else [int(x) for x in base.fixed]
        )
        self._active: List[bool] = [True] * base.n
        self._coords: Optional[List[Tuple[float, ...]]] = (
            None if base.coords is None
            else [tuple(float(c) for c in row) for row in base.coords]
        )
        self._csr: Optional[Graph] = base
        self._batches_applied = 0

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertex slots (including tombstones)."""
        return len(self._vwgt)

    @property
    def m(self) -> int:
        """Number of live undirected edges."""
        return len(self._edges)

    @property
    def n_active(self) -> int:
        return sum(self._active)

    @property
    def batches_applied(self) -> int:
        return self._batches_applied

    def is_active(self, v: int) -> bool:
        return 0 <= v < self.n and self._active[v]

    def has_edge(self, u: int, v: int) -> bool:
        return _canon(u, v) in self._edges

    # ------------------------------------------------------------------
    def _check_vertex(self, v: int, what: str) -> int:
        v = int(v)
        if not (0 <= v < self.n):
            raise MutationError(f"{what}: vertex {v} out of range "
                                f"(n={self.n})")
        if not self._active[v]:
            raise MutationError(f"{what}: vertex {v} is removed")
        return v

    def apply(self, batch: MutationBatch,
              record_inverse: bool = False) -> BatchResult:
        """Apply ``batch`` transactionally; returns the dirty-node set
        (and, on request, the exact inverse batch).

        Validation errors raise :class:`MutationError` *before* any state
        is touched for the offending op's phase — but earlier phases may
        already have applied, so callers treating batches as atomic
        should validate streams up front (the JSONL reader does).
        """
        n_before = self.n
        pre_edges = dict(self._edges) if record_inverse else None
        pre_vwgt = list(self._vwgt) if record_inverse else None
        pre_active = list(self._active) if record_inverse else None

        dirty: set = set()

        # phase 1: vertex additions / reactivations
        added_ids: List[int] = []
        for add in batch.add_vertices:
            weight = _vertex_weight(add.weight)
            if add.vid is None or add.vid == self.n:
                vid = self.n
                self._vwgt.append(weight)
                self._active.append(True)
                if self._vwgts_extra is not None:
                    dim = (len(self._vwgts_extra[0])
                           if self._vwgts_extra else 1)
                    self._vwgts_extra.append((0.0,) * dim)
                if self._fixed is not None:
                    self._fixed.append(-1)
                if self._coords is not None:
                    dim = len(self._coords[0]) if self._coords else 2
                    row = (tuple(add.coords) if add.coords is not None
                           else (0.0,) * dim)
                    if len(row) != dim:
                        raise MutationError(
                            f"coords for vertex {vid} have dimension "
                            f"{len(row)}, graph uses {dim}")
                    self._coords.append(row)
            else:
                vid = int(add.vid)
                if not (0 <= vid < self.n):
                    raise MutationError(f"add_vertex: id {vid} is neither a "
                                        f"tombstone nor the next id {self.n}")
                if self._active[vid]:
                    raise MutationError(f"add_vertex: vertex {vid} already "
                                        "exists")
                self._active[vid] = True
                self._vwgt[vid] = weight
                if self._coords is not None and add.coords is not None:
                    self._coords[vid] = tuple(add.coords)
            added_ids.append(vid)
            dirty.add(vid)

        # phase 2: edge insertions
        for u, v, w in batch.insert_edges:
            w = _edge_weight(w)
            key = _canon(u, v)
            self._check_vertex(key[0], "insert_edge")
            self._check_vertex(key[1], "insert_edge")
            if key in self._edges:
                raise MutationError(f"insert_edge: edge {key} already exists")
            self._edges[key] = w
            dirty.update(key)

        # phase 3: edge deletions
        for u, v in batch.delete_edges:
            key = _canon(u, v)
            if key not in self._edges:
                raise MutationError(f"delete_edge: no edge {key}")
            del self._edges[key]
            dirty.update(key)

        # phase 4: edge re-weights
        for u, v, w in batch.edge_weights:
            w = _edge_weight(w)
            key = _canon(u, v)
            if key not in self._edges:
                raise MutationError(f"edge_weight: no edge {key}")
            self._edges[key] = w
            dirty.update(key)

        # phase 5: vertex re-weights
        for v, w in batch.vertex_weights:
            w = _vertex_weight(w)
            v = self._check_vertex(v, "vertex_weight")
            self._vwgt[v] = w
            dirty.add(v)

        # phase 6: vertex removals (drop incident edges, tombstone)
        removed_ids: List[int] = []
        for v in batch.remove_vertices:
            v = self._check_vertex(v, "remove_vertex")
            incident = [key for key in self._edges if v in key]
            for key in incident:
                del self._edges[key]
                dirty.update(key)
            self._active[v] = False
            self._vwgt[v] = 0.0
            if self._vwgts_extra is not None:
                self._vwgts_extra[v] = (0.0,) * len(self._vwgts_extra[v])
            if self._fixed is not None:
                self._fixed[v] = -1
            removed_ids.append(v)
            dirty.add(v)

        # pop trailing slots this batch created or removed, so an
        # add/remove round-trip restores n exactly; pre-existing interior
        # tombstones are left alone (ids must stay stable)
        poppable = set(removed_ids) | set(added_ids)
        while (self.n and not self._active[-1]
               and (self.n - 1) in poppable):
            vid = self.n - 1
            self._vwgt.pop()
            self._active.pop()
            if self._coords is not None:
                self._coords.pop()
            if self._vwgts_extra is not None:
                self._vwgts_extra.pop()
            if self._fixed is not None:
                self._fixed.pop()
            dirty.discard(vid)
            poppable.discard(vid)

        self._csr = None  # rebuilt lazily on next .graph()
        self._batches_applied += 1
        dirty_arr = np.array(sorted(d for d in dirty if d < self.n),
                             dtype=np.int64)

        inverse = None
        if record_inverse:
            inverse = self._diff_inverse(pre_edges, pre_vwgt, pre_active,
                                         n_before)
        return BatchResult(dirty_nodes=dirty_arr, inverse=inverse,
                           n_before=n_before, n_after=self.n)

    # ------------------------------------------------------------------
    def _diff_inverse(self, pre_edges, pre_vwgt, pre_active,
                      n_before: int) -> MutationBatch:
        """The exact inverse batch, computed as a pre/post state diff —
        immune to intra-batch op composition (insert-then-remove etc.)."""
        inv = MutationBatch()
        n_after = self.n
        # vertices that existed before but are gone/inactive now
        for v in range(n_before):
            was = pre_active[v]
            now = v < n_after and self._active[v]
            if was and not now:
                inv.add_vertices.append(
                    VertexAdd(weight=pre_vwgt[v], vid=v))
            elif not was and now:
                inv.remove_vertices.append(v)
            elif was and now and pre_vwgt[v] != self._vwgt[v]:
                inv.vertex_weights.append((v, pre_vwgt[v]))
        # vertices appended by the batch (still present): remove them;
        # the trailing-pop rule then restores n_before exactly
        for v in range(n_before, n_after):
            if self._active[v]:
                inv.remove_vertices.append(v)
        # edge diff
        for key, w in pre_edges.items():
            now_w = self._edges.get(key)
            if now_w is None:
                inv.insert_edges.append((key[0], key[1], w))
            elif now_w != w:
                inv.edge_weights.append((key[0], key[1], w))
        for key, w in self._edges.items():
            if key not in pre_edges:
                inv.delete_edges.append((key[0], key[1]))
        # deterministic op order inside each phase
        inv.add_vertices.sort(key=lambda a: a.vid)
        inv.insert_edges.sort()
        inv.delete_edges.sort()
        inv.edge_weights.sort()
        inv.vertex_weights.sort()
        inv.remove_vertices.sort()
        return inv

    # ------------------------------------------------------------------
    def graph(self) -> Graph:
        """The current CSR snapshot (lazily rebuilt, cached until the
        next :meth:`apply`).  Tombstoned slots appear as isolated
        zero-weight vertices, so node ids in partitions stay aligned."""
        if self._csr is None:
            self._csr = self._build()
        return self._csr

    def _build(self) -> Graph:
        n = self.n
        if self._edges:
            keys = sorted(self._edges)
            u = np.array([k[0] for k in keys], dtype=np.int64)
            v = np.array([k[1] for k in keys], dtype=np.int64)
            w = np.array([self._edges[k] for k in keys], dtype=np.float64)
            src = np.concatenate([u, v])
            dst = np.concatenate([v, u])
            ww = np.concatenate([w, w])
            order = np.lexsort((dst, src))
            src, dst, ww = src[order], dst[order], ww[order]
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
            ww = np.empty(0, dtype=np.float64)
        xadj = np.zeros(n + 1, dtype=np.int64)
        np.add.at(xadj, src + 1, 1)
        np.cumsum(xadj, out=xadj)
        coords = (None if self._coords is None
                  else np.asarray(self._coords, dtype=np.float64).reshape(
                      n, -1))
        vwgt = np.asarray(self._vwgt, dtype=np.float64)
        vwgts = None
        if self._vwgts_extra is not None:
            vwgts = np.concatenate(
                [vwgt[:, None],
                 np.asarray(self._vwgts_extra,
                            dtype=np.float64).reshape(n, -1)],
                axis=1,
            )
        fixed = (None if self._fixed is None
                 else np.asarray(self._fixed, dtype=np.int64))
        return Graph(xadj, dst, ww, vwgt, coords=coords,
                     vwgts=vwgts, fixed=fixed)


# ----------------------------------------------------------------------
# JSONL mutation streams
# ----------------------------------------------------------------------
def write_mutation_stream(batches: Iterable[MutationBatch],
                          path: str) -> int:
    """Write batches as JSONL (one batch per line); returns the count."""
    count = 0
    with open(path, "w") as fh:
        for batch in batches:
            fh.write(json.dumps(batch.to_json(), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def read_mutation_stream(path: str) -> List[MutationBatch]:
    """Read a JSONL mutation stream; blank lines are skipped, malformed
    lines raise :class:`MutationError` naming the line number."""
    batches: List[MutationBatch] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MutationError(
                    f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(doc, dict):
                raise MutationError(
                    f"{path}:{lineno}: batch must be a JSON object")
            try:
                batches.append(MutationBatch.from_json(doc))
            except (MutationError, KeyError, TypeError, ValueError) as exc:
                raise MutationError(f"{path}:{lineno}: {exc}") from None
    return batches


# ----------------------------------------------------------------------
# seeded stream generators (tests, golden runs, benchmarks)
# ----------------------------------------------------------------------
def random_mutation_batch(
    dyn: DynamicGraph,
    rng: np.random.Generator,
    n_edge_ops: int = 8,
    n_vertex_ops: int = 2,
    n_weight_ops: int = 4,
    allow_structural: bool = True,
) -> MutationBatch:
    """A random batch valid against the current state of ``dyn``.

    Structural ops (vertex add/remove) are drawn only when
    ``allow_structural``; edge inserts prefer locality (endpoints within
    a few hops) so the stream mimics adaptive-mesh updates rather than a
    random rewiring.
    """
    batch = MutationBatch()
    active = [v for v in range(dyn.n) if dyn.is_active(v)]
    edges = sorted(dyn._edges)
    used_edges: set = set()
    touched: set = set()

    if allow_structural and active:
        for _ in range(int(rng.integers(0, n_vertex_ops + 1))):
            if rng.random() < 0.5:
                # add a vertex wired to 1-3 existing nodes
                anchors = rng.choice(len(active),
                                     size=min(len(active),
                                              int(rng.integers(1, 4))),
                                     replace=False)
                vid = dyn.n + len(batch.add_vertices)
                coords = None
                if dyn._coords is not None:
                    base = dyn._coords[active[int(anchors[0])]]
                    coords = tuple(
                        c + float(rng.normal(0, 0.01)) for c in base)
                batch.add_vertices.append(
                    VertexAdd(weight=float(rng.integers(1, 4)),
                              coords=coords))
                for a_pos in anchors:
                    anchor = active[int(a_pos)]
                    batch.insert_edges.append(
                        (vid, anchor, float(rng.integers(1, 5))))
                    touched.add(anchor)
            else:
                # remove a low-degree vertex (keeps the graph connected
                # enough for partitioning to stay interesting)
                v = int(active[int(rng.integers(0, len(active)))])
                if v in touched:
                    continue
                batch.remove_vertices.append(v)
                touched.add(v)

    removed = set(batch.remove_vertices)
    for _ in range(int(rng.integers(1, n_edge_ops + 1))):
        if edges and rng.random() < 0.4:
            key = edges[int(rng.integers(0, len(edges)))]
            if key in used_edges or removed & set(key):
                continue
            used_edges.add(key)
            batch.delete_edges.append(key)
        elif len(active) >= 2:
            i, j = rng.choice(len(active), size=2, replace=False)
            key = _canon(active[int(i)], active[int(j)])
            if (key in used_edges or dyn.has_edge(*key)
                    or removed & set(key)):
                continue
            used_edges.add(key)
            batch.insert_edges.append(
                (key[0], key[1], float(rng.integers(1, 5))))

    for _ in range(int(rng.integers(0, n_weight_ops + 1))):
        if edges and rng.random() < 0.5:
            key = edges[int(rng.integers(0, len(edges)))]
            if key in used_edges or removed & set(key):
                continue
            used_edges.add(key)
            batch.edge_weights.append(
                (key[0], key[1], float(rng.integers(1, 9))))
        elif active:
            v = int(active[int(rng.integers(0, len(active)))])
            if v in removed:
                continue
            batch.vertex_weights.append((v, float(rng.integers(1, 6))))

    return batch


def generate_mutation_stream(
    base: Graph,
    n_batches: int,
    seed: int = 0,
    **batch_kwargs,
) -> List[MutationBatch]:
    """A deterministic stream of ``n_batches`` batches, each valid
    against the graph state produced by its predecessors."""
    rng = np.random.default_rng(seed)
    dyn = DynamicGraph(base)
    stream: List[MutationBatch] = []
    for _ in range(n_batches):
        batch = random_mutation_batch(dyn, rng, **batch_kwargs)
        dyn.apply(batch)
        stream.append(batch)
    return stream
