"""Golden pins for :func:`repro.refinement.balance.rebalance`.

Rebalancing drains overloaded blocks in a fixed node order: cheapest
``external - internal`` cut cost first, random tiebreaks drawn from the
caller's generator.  The pins are the sha256 (first 16 hex digits, dtype
and shape included) of the returned partition on overloaded partitions
of delaunay512 and rgg512, with unit and with integral node/edge
weights, plus one multi-constraint case with per-dimension ``epsilons``
and one case with fixed vertices.  Any drift means the seeding order,
the RNG draw order or the target choice changed.

All weights here are integral, so every per-node cost is exact however
it is summed.  With fractional edge weights a node with 8 or more arcs
may see its cost differ in the last ulp between summation orders
(``np.bincount`` adds sequentially, ``ndarray.sum`` pairwise); that can
only reorder nodes whose costs tie, and such cases are not pinned.
"""

import hashlib

import numpy as np
import pytest

from repro.core import metrics
from repro.graph import Graph, from_edge_list
from repro.refinement.balance import BalanceState, rebalance


def digest(a) -> str:
    """sha256 over dtype, shape and the raw bytes of ``a``."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


K = 4


def _case(g: Graph, case: str):
    """(graph, overloaded partition, rebalance kwargs) for one case."""
    rng = np.random.default_rng(29)
    part = rng.integers(0, K, size=g.n)
    part[g.coords[:, 0] < 0.55] = 2   # block 2 far over its ceiling
    kw = {}
    if case in ("weighted", "multi", "fixed"):
        us, vs, _ = g.edge_array()
        ew = rng.integers(1, 6, size=len(us)).astype(np.float64)
        vw = rng.integers(1, 5, size=g.n).astype(np.float64)
        if case == "multi":
            vw = np.column_stack(
                [vw, rng.integers(1, 9, size=g.n).astype(np.float64)])
            kw["epsilons"] = [0.03, 0.2]
        fixed = None
        if case == "fixed":
            fixed = np.where(rng.random(g.n) < 0.2, part, -1)
        g = from_edge_list(g.n, zip(us.tolist(), vs.tolist()), ew, vw,
                           coords=g.coords, fixed=fixed)
    return g, part, kw


#: (graph, case) -> digest of rebalance(g, part, 4, 0.03, rng(31), ...)
REBALANCE_GOLDEN = {
    ("delaunay512", "plain"): "d535c3729a91b8e9",
    ("delaunay512", "weighted"): "d4bc70045be77d51",
    ("delaunay512", "multi"): "debf9492a97e00d6",
    ("delaunay512", "fixed"): "2108305bc9b980e5",
    ("rgg512", "plain"): "d55bda3963f799da",
    ("rgg512", "weighted"): "ba0dae72f40f7901",
    ("rgg512", "multi"): "cde29a4f82e8fb69",
    ("rgg512", "fixed"): "bc12742b4947f292",
}


@pytest.mark.parametrize("name,case", sorted(REBALANCE_GOLDEN))
def test_rebalance_pinned(request, name, case):
    g, part, kw = _case(request.getfixturevalue(name), case)
    assert not BalanceState(g, part, K, 0.03, **kw).is_feasible()
    out = rebalance(g, part, K, 0.03, rng=np.random.default_rng(31), **kw)
    assert digest(out) == REBALANCE_GOLDEN[(name, case)]
    # the pinned outputs are genuine repairs, not no-ops
    assert BalanceState(g, out, K, 0.03, **kw).is_feasible()
    assert metrics.cut_value(g, out) > 0
