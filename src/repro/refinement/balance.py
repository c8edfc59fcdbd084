"""Explicit rebalancing and the multi-constraint balance state.

FM with the MaxLoad exception normally maintains feasibility (the paper
stresses that "our approach of careful, pairwise refinement successfully
avoids" balance violations), but initial partitions of weighted coarse
graphs can start infeasible.  :func:`rebalance` restores the balance
constraint by draining overloaded blocks, preferring the boundary nodes
whose move costs the least cut.

:class:`BalanceState` generalises the bookkeeping to ``c`` balance
constraints per node (an ``(n, c)`` weight matrix on the graph, one
epsilon per dimension): a move is admissible only if *every* dimension
stays under its own ``L_max,d``.  For ``c = 1`` graphs the state
degenerates to the classic scalar constraint, bit-identical to the
pre-refactor behaviour.

Per-block ceilings are computed *exactly* (``fractions.Fraction``) when
a dimension's node weights are integral: the naive float formula
``(1 + eps) * total / k`` can round the quotient up for large integral
totals and silently admit a block one unit over the true ceiling.
Non-integral weights keep the float path with the usual ``1e-9``
tolerance (an exact ceiling does not exist for them anyway).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from ..graph.csr import Graph
from ..core import metrics
from ..instrument.tracer import NULL_TRACER

__all__ = ["BalanceState", "ensure_feasible", "exact_lmax", "is_feasible",
           "rebalance"]


def exact_lmax(total: float, wmax: float, k: int,
               epsilon: float) -> Union[Fraction, float]:
    """``L_max = (1 + eps) * total / k + wmax``, as an exact
    :class:`~fractions.Fraction` when ``total`` and ``wmax`` are
    integral (so comparisons against integral block weights can never be
    off by a rounding error), else as the usual float."""
    if float(total).is_integer() and float(wmax).is_integer():
        return ((1 + Fraction(float(epsilon))) * Fraction(int(total)) / k
                + int(wmax))
    return (1.0 + epsilon) * total / k + wmax


class BalanceState:
    """Per-dimension block weights and admission ceilings of a partition.

    Tracks the ``(k, c)`` block-weight matrix and one ``L_max,d`` per
    constraint dimension; :meth:`admits` answers whether moving a node
    into a block keeps every dimension feasible, and :meth:`move`
    updates the weights.  Ceilings use exact arithmetic on integral
    dimensions (see :func:`exact_lmax`).
    """

    __slots__ = ("k", "c", "eps", "block_w", "lmax", "_lmax_exact")

    def __init__(
        self,
        g: Graph,
        part: np.ndarray,
        k: int,
        epsilon: float = 0.03,
        epsilons: Optional[Sequence[float]] = None,
    ) -> None:
        part = np.asarray(part)
        self.k = int(k)
        self.c = g.n_constraints
        if epsilons is None:
            self.eps = np.full(self.c, float(epsilon))
        else:
            self.eps = np.asarray(epsilons, dtype=np.float64)
            if self.eps.shape != (self.c,):
                raise ValueError(
                    f"epsilons must give one value per constraint "
                    f"dimension: expected shape ({self.c},), got "
                    f"{self.eps.shape}"
                )
        self.block_w = np.zeros((self.k, self.c))
        if g.n:
            np.add.at(self.block_w, part, g.vwgts)
        totals = g.total_node_weights()
        maxima = g.max_node_weights()
        self._lmax_exact = [
            exact_lmax(totals[d], maxima[d], self.k, self.eps[d])
            for d in range(self.c)
        ]
        self.lmax = np.array([float(x) for x in self._lmax_exact])

    # ------------------------------------------------------------------
    def _fits(self, d: int, value: float) -> bool:
        limit = self._lmax_exact[d]
        if isinstance(limit, Fraction):
            if float(value).is_integer():
                return Fraction(int(value)) <= limit
        return value <= float(limit) + 1e-9

    def admits(self, block: int, v_weights: np.ndarray) -> bool:
        """True when adding ``v_weights`` (shape ``(c,)``) to ``block``
        keeps every constraint dimension under its ceiling."""
        w = np.atleast_1d(np.asarray(v_weights, dtype=np.float64))
        return all(
            self._fits(d, self.block_w[block, d] + w[d])
            for d in range(self.c)
        )

    def block_fits(self, block: int) -> bool:
        """True when ``block`` is currently within every ceiling."""
        return all(self._fits(d, self.block_w[block, d])
                   for d in range(self.c))

    def move(self, v_weights: np.ndarray, src: int, dst: int) -> None:
        w = np.atleast_1d(np.asarray(v_weights, dtype=np.float64))
        self.block_w[src] -= w
        self.block_w[dst] += w

    def overloaded(self) -> np.ndarray:
        """Block ids violating at least one dimension's ceiling."""
        return np.array([b for b in range(self.k)
                         if not self.block_fits(b)], dtype=np.int64)

    def is_feasible(self) -> bool:
        return len(self.overloaded()) == 0

    def load(self) -> np.ndarray:
        """Per-block load used for lightest/heaviest selection: the raw
        weight for ``c = 1`` (classic behaviour), the worst normalised
        dimension for ``c > 1``."""
        if self.c == 1:
            return self.block_w[:, 0].copy()
        safe = np.where(self.lmax > 0, self.lmax, 1.0)
        return (self.block_w / safe).max(axis=1)


def is_feasible(g: Graph, part: np.ndarray, k: int, epsilon: float,
                epsilons: Optional[Sequence[float]] = None) -> bool:
    """True when every block fits its ``L_max`` in every constraint
    dimension (``epsilons`` per dimension, default ``epsilon``)."""
    return metrics.is_balanced(g, part, k, epsilon) and (
        (g.n_constraints == 1 and epsilons is None)
        or BalanceState(g, part, k, epsilon=epsilon,
                        epsilons=epsilons).is_feasible())


def ensure_feasible(g: Graph, part: np.ndarray, k: int, epsilon: float,
                    seed: int, epsilons: Optional[Sequence[float]] = None,
                    tracer=NULL_TRACER) -> np.ndarray:
    """The pipelines' feasibility step: ``part`` unchanged when
    :func:`is_feasible`, else :func:`rebalance` with
    ``default_rng(seed)`` (counted as ``rebalance_invocations``)."""
    if is_feasible(g, part, k, epsilon, epsilons):
        return part
    tracer.count("rebalance_invocations")
    return rebalance(g, part, k, epsilon, rng=np.random.default_rng(seed),
                     epsilons=epsilons)


def rebalance(
    g: Graph,
    part: np.ndarray,
    k: int,
    epsilon: float = 0.03,
    rng: Optional[np.random.Generator] = None,
    max_moves: Optional[int] = None,
    epsilons: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Move nodes out of overloaded blocks until every block fits L_max
    in every constraint dimension.

    From each overloaded block, boundary nodes are moved (cheapest cut
    delta first) to the adjacent block with the most room; isolated
    overloads fall back to the globally lightest block.  Fixed vertices
    (``g.fixed``) are never moved.  Best effort: if constraints cannot
    be met (e.g. one node heavier than L_max) the closest achievable
    assignment is returned.
    """
    part = np.asarray(part, dtype=np.int64).copy()
    rng = np.random.default_rng(0) if rng is None else rng
    state = BalanceState(g, part, k, epsilon=epsilon, epsilons=epsilons)
    budget = max_moves if max_moves is not None else 4 * g.n
    fixed = g.fixed

    moves = 0
    while moves < budget:
        over = state.overloaded()
        if len(over) == 0:
            break
        load = state.load()
        src_block = int(over[np.argmax(load[over])])
        nodes = np.nonzero(part == src_block)[0]
        if fixed is not None:
            nodes = nodes[fixed[nodes] < 0]
        if len(nodes) <= 1:
            break
        # prefer nodes with the smallest (internal - external) cost:
        # visit by descending (external - internal, random tiebreak),
        # all costs from one pass over the block's arcs
        idx, counts = g.row_arcs(nodes)
        owner = np.repeat(np.arange(len(nodes)), counts)
        inside = part[g.adjncy[idx]] == src_block
        wts = g.adjwgt[idx]
        internal = np.bincount(owner[inside], weights=wts[inside],
                               minlength=len(nodes))
        external = np.bincount(owner[~inside], weights=wts[~inside],
                               minlength=len(nodes))
        tiebreak = rng.random(len(nodes))
        order = np.lexsort((tiebreak, external - internal))[::-1]
        moved_one = False
        for v in nodes[order].tolist():
            nbrs = g.neighbors(v)
            cand_blocks = np.unique(part[nbrs])
            cand_blocks = cand_blocks[cand_blocks != src_block]
            load = state.load()
            if len(cand_blocks) == 0:
                cand_blocks = np.array(
                    [int(np.argmin(load + np.where(
                        np.arange(k) == src_block, np.inf, 0.0)))]
                )
            target = int(cand_blocks[np.argmin(load[cand_blocks])])
            if not state.admits(target, g.vwgts[v]) and k > 1:
                lightest = int(np.argmin(
                    load + np.where(np.arange(k) == src_block, np.inf, 0.0)
                ))
                if load[lightest] < load[target]:
                    target = lightest
                if not state.admits(target, g.vwgts[v]):
                    continue
            state.move(g.vwgts[v], src_block, target)
            part[v] = target
            moves += 1
            moved_one = True
            if state.block_fits(src_block):
                break
        if not moved_one:
            break  # nothing movable: give up (best effort)
    return part
