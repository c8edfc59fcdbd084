"""Edge coloring of the quotient graph (paper Section 5.1).

Pairwise refinement needs to schedule local search on every edge of the
quotient graph Q such that the pairs active at any time form a matching.
The paper colors Q's edges with a *parallelised greedy edge coloring*:

    "Each PE has a set L of free colors […]. In each round of the
    algorithm, PEs throw a coin with sides active and passive.  An active
    PE u picks a random incident uncolored edge {u, v} and sends this edge
    together with its free-list to PE v.  These requests are rejected if
    they are sent to other active PEs.  Passive PEs v process requests
    ({u, v}, L′) by choosing the color c = min L ∩ L′ […] and sending c
    back to u.  […] this algorithm needs at most twice as many colors as
    an optimal edge coloring."

Both the distributed version (an SPMD kernel against the engine-agnostic
:class:`~repro.engine.base.Comm` protocol, runnable on any execution
engine) and a sequential reference implementation are provided; they
satisfy the same ≤ 2·Δ − 1 color bound.

Every PE of the KaPPa program holds the partition and hence Q, and the
kernel draws its coins from per-node streams, so the refinement driver
does not exchange the rounds: :func:`distributed_edge_coloring` replays
the kernel for all nodes on each PE and charges the rounds the exchange
would have taken to the sim engine's cost clock only.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.base import Comm, CommBase
from ..graph.csr import Graph
from .costmodel import payload_nbytes

__all__ = [
    "greedy_edge_coloring",
    "distributed_edge_coloring_spmd",
    "distributed_edge_coloring",
    "coloring_to_matchings",
    "verify_edge_coloring",
]

Edge = Tuple[int, int]


def _mex(used_a: set, used_b: set) -> int:
    """Smallest color not used at either endpoint ("min L ∩ L′" with
    implicit infinite palettes)."""
    c = 0
    while c in used_a or c in used_b:
        c += 1
    return c


def greedy_edge_coloring(g: Graph, seed: int = 0) -> Dict[Edge, int]:
    """Sequential greedy edge coloring (the algorithm the paper's
    distributed scheme parallelises).  Edges are scanned in random order;
    each gets the smallest color free at both endpoints.  Uses at most
    ``2·Δ − 1`` colors."""
    rng = np.random.default_rng(seed)
    us, vs, _ = g.edge_array()
    order = rng.permutation(len(us))
    used: List[set] = [set() for _ in range(g.n)]
    colors: Dict[Edge, int] = {}
    for i in order:
        u, v = int(us[i]), int(vs[i])
        c = _mex(used[u], used[v])
        colors[(u, v)] = c
        used[u].add(c)
        used[v].add(c)
    return colors


def distributed_edge_coloring_spmd(comm: Comm, q: Graph, seed: int = 0,
                                   max_rounds: int = 10_000) -> Dict[Edge, int]:
    """SPMD kernel: PE ``comm.rank`` plays quotient-graph nodes
    ``rank, rank + P, rank + 2P, …``.

    With ``comm.size == q.n`` each PE plays exactly one node (the paper's
    setting).  With fewer PEs than blocks (the k > P generalisation of
    Section 8) each PE multiplexes several quotient nodes; randomness is
    drawn from per-*node* streams, so the resulting coloring is identical
    for every PE count.  Every PE returns the coloring of its nodes'
    incident edges; the union over PEs is the full coloring.
    """
    if comm.size > max(q.n, 1):
        raise ValueError("more PEs than quotient-graph nodes")
    p = comm.size
    my_nodes = list(range(comm.rank, q.n, p))
    rngs = {u: np.random.default_rng((seed, u)) for u in my_nodes}
    incident = {
        u: [(min(u, int(v)), max(u, int(v))) for v in q.neighbors(u)]
        for u in my_nodes
    }
    colors: Dict[Edge, int] = {}
    used: Dict[int, set] = {u: set() for u in my_nodes}

    def owner(node: int) -> int:
        return node % p

    for _ in range(max_rounds):
        uncolored = {
            u: [e for e in incident[u] if e not in colors] for u in my_nodes
        }
        remaining = comm.allreduce(sum(len(v) for v in uncolored.values()))
        if remaining == 0:
            break
        active = {u: bool(rngs[u].random() < 0.5) for u in my_nodes}

        # -- each active node picks one random uncolored incident edge ---
        outgoing: List[List[tuple]] = [[] for _ in range(p)]
        targets: Dict[int, int] = {}
        for u in my_nodes:
            if active[u] and uncolored[u]:
                e = uncolored[u][int(rngs[u].integers(0, len(uncolored[u])))]
                v = e[0] if e[1] == u else e[1]
                targets[u] = v
                outgoing[owner(v)].append((u, v, e, sorted(used[u])))
        requests = comm.alltoall(outgoing)
        comm.compute(sum(len(v) for v in incident.values()))

        # -- passive nodes grant colors (requests by ascending requester,
        #    the same deterministic order as the one-node-per-PE kernel) --
        grants: List[List[tuple]] = [[] for _ in range(p)]
        all_requests = sorted(
            (req for lst in requests for req in lst), key=lambda r: r[0]
        )
        for u_req, v, e, their_used in all_requests:
            if active.get(v, True):
                continue  # requests to active nodes are rejected
            c = _mex(used[v], set(their_used))
            colors[e] = c
            used[v].add(c)
            grants[owner(u_req)].append((u_req, e, c))
        responses = comm.alltoall(grants)

        # -- active nodes record the granted colors -----------------------
        for lst in responses:
            for u_req, e, c in lst:
                colors[e] = c
                used[u_req].add(c)
    else:
        raise RuntimeError("edge coloring did not converge")
    return colors


class _ReplayComm(CommBase):
    """One-PE stand-in that plays every quotient node of the kernel and
    keeps what each alltoall carried — per round the requests, then the
    grants, each in the kernel's processing order."""

    rank = 0
    size = 1

    def __init__(self) -> None:
        super().__init__()
        self.sent: List[list] = []

    def _exchange(self, value: Any) -> List[Any]:
        return [value]

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        self.sent.append(objs[0])
        return list(objs)


def _modelled_rounds(sent: List[list], q: Graph, rank: int,
                     p: int) -> Iterator[Tuple[float, int, int]]:
    """``(work, nbytes, factor)`` of PE ``rank``'s collectives in the
    exchanged kernel on ``p`` PEs: per round the ``remaining`` allreduce,
    the request alltoall and, after the round's compute, the grant
    alltoall; then the final ``remaining`` allreduce.  Payloads are the
    kernel's own per-destination lists, regrouped by owner."""
    work = float(q.degrees()[rank::p].sum())
    for requests, grants in zip(sent[0::2], sent[1::2]):
        yield 0.0, payload_nbytes(0), 1
        out: List[list] = [[] for _ in range(p)]
        for req in requests:
            if req[0] % p == rank:
                out[req[1] % p].append(req)
        yield 0.0, max(payload_nbytes(o) for o in out), 2
        back: List[list] = [[] for _ in range(p)]
        for grant in grants:
            u_req, e, _ = grant
            v = e[0] if e[1] == u_req else e[1]
            if v % p == rank:
                back[u_req % p].append(grant)
        yield work, max(payload_nbytes(o) for o in back), 2
    yield 0.0, payload_nbytes(0), 1


def distributed_edge_coloring(q: Graph, seed: int = 0,
                              comm: Optional[Comm] = None) -> Dict[Edge, int]:
    """The full coloring of ``q``: the SPMD kernel replayed for every
    quotient node on a one-PE stand-in.

    Randomness comes from per-node streams, so this equals the union of
    the per-PE results of :func:`distributed_edge_coloring_spmd` for any
    PE count, and every PE of an SPMD program that holds ``q`` computes
    it alone, with no message.  Pass the caller's ``comm`` to charge the
    rounds the exchanged protocol would run to its cost clock
    (:meth:`~repro.engine.base.CommBase.model_collectives`; a no-op on
    engines without one)."""
    if q.n == 0:
        return {}
    stand_in = _ReplayComm()
    colors = distributed_edge_coloring_spmd(stand_in, q, seed)
    if comm is not None:
        comm.model_collectives(lambda: _modelled_rounds(
            stand_in.sent, q, comm.rank, comm.size))
    return colors


def coloring_to_matchings(colors: Dict[Edge, int]) -> List[List[Edge]]:
    """Group edges by color: "the edges with a particular color define a
    matching" (paper Section 2) — the schedule of pairwise refinement."""
    if not colors:
        return []
    n_colors = max(colors.values()) + 1
    out: List[List[Edge]] = [[] for _ in range(n_colors)]
    for e, c in colors.items():
        out[c].append(e)
    return [sorted(m) for m in out]


def verify_edge_coloring(g: Graph, colors: Dict[Edge, int]) -> None:
    """Check the coloring is proper, complete, and within the 2·Δ−1 bound."""
    us, vs, _ = g.edge_array()
    expected = {(int(u), int(v)) for u, v in zip(us, vs)}
    if set(colors) != expected:
        raise AssertionError("coloring does not cover exactly the edge set")
    per_node: List[set] = [set() for _ in range(g.n)]
    for (u, v), c in colors.items():
        if c in per_node[u] or c in per_node[v]:
            raise AssertionError(f"color {c} repeated at an endpoint of ({u}, {v})")
        per_node[u].add(c)
        per_node[v].add(c)
    if colors:
        max_deg = int(g.degrees().max())
        n_used = max(colors.values()) + 1
        if n_used > max(1, 2 * max_deg - 1):
            raise AssertionError(
                f"{n_used} colors exceeds the 2Δ−1 = {2 * max_deg - 1} bound"
            )
