"""Pair-scheduling strategies for pairwise refinement (paper Section 5.1).

"We have implemented two strategies.  One finds edges of Q not yet used
for local search in a randomized local way.  The other steps through the
colors of an edge coloring of the quotient graph Q. […] We only describe
the latter one here since it performs slightly better in our experiments."

This module provides both: the edge-coloring schedule (via
:mod:`repro.parallel.coloring`) and the randomized-local schedule — per
round, a random maximal matching of the not-yet-used quotient edges, so
every edge of Q is still used exactly once per global iteration but
without the global structure (or quality) of a proper coloring.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..engine.base import Comm
from ..graph.csr import Graph
from ..instrument.tracer import NULL_TRACER
from ..parallel.coloring import coloring_to_matchings, greedy_edge_coloring

__all__ = ["SCHEDULES", "schedule_rounds", "random_local_rounds",
           "coloring_rounds"]

Edge = Tuple[int, int]

SCHEDULES = ("edge_coloring", "random_local")


def coloring_rounds(q: Graph, seed: int = 0, coloring: str = "greedy",
                    comm: Optional[Comm] = None) -> List[List[Edge]]:
    """The default schedule: the color classes of an edge coloring.

    ``coloring="greedy"`` uses the fast sequential coloring;
    ``coloring="distributed"`` replays the distributed algorithm for
    every quotient node, charging its rounds to ``comm``'s cost clock
    when one is given (the same coloring on any PE count).
    """
    if coloring == "distributed":
        from ..parallel.coloring import distributed_edge_coloring

        return coloring_to_matchings(
            distributed_edge_coloring(q, seed=seed, comm=comm))
    if coloring != "greedy":
        raise ValueError(f"unknown coloring mode {coloring!r}")
    return coloring_to_matchings(greedy_edge_coloring(q, seed=seed))


def random_local_rounds(q: Graph, seed: int = 0) -> List[List[Edge]]:
    """The paper's first strategy: repeatedly draw a random maximal
    matching among the unused quotient edges until every edge is used.

    Each PE grabs a random free neighbour; without the coloring's global
    coordination the number of rounds is typically larger and the pairing
    pattern less balanced — which is why the paper prefers the coloring.
    """
    rng = np.random.default_rng(seed)
    us, vs, _ = q.edge_array()
    unused = list(zip(us.tolist(), vs.tolist()))
    rounds: List[List[Edge]] = []
    while unused:
        order = rng.permutation(len(unused))
        taken_blocks = set()
        this_round: List[Edge] = []
        rest: List[Edge] = []
        for idx in order:
            a, b = unused[idx]
            if a in taken_blocks or b in taken_blocks:
                rest.append((a, b))
            else:
                taken_blocks.update((a, b))
                this_round.append((a, b))
        rounds.append(sorted(this_round))
        unused = rest
    return rounds


def schedule_rounds(q: Graph, strategy: str, seed: int = 0,
                    coloring: str = "greedy", comm: Optional[Comm] = None,
                    tracer=NULL_TRACER) -> List[List[Edge]]:
    """Dispatch on the matching-selection strategy name.

    Both schedules are pure functions of ``(q, seed)``, so every PE of
    an SPMD program computes the same one alone; ``comm`` only reaches
    the distributed coloring's cost charge.  ``tracer`` accumulates the
    schedule shape (rounds and pairs per global iteration) for the
    pipeline trace.
    """
    if strategy == "edge_coloring":
        rounds = coloring_rounds(q, seed, coloring=coloring, comm=comm)
    elif strategy == "random_local":
        rounds = random_local_rounds(q, seed)
    else:
        raise ValueError(
            f"unknown matching selection {strategy!r}; choose from {SCHEDULES}"
        )
    tracer.count("schedule_rounds", len(rounds))
    tracer.count("schedule_pairs", sum(len(r) for r in rounds))
    return rounds
