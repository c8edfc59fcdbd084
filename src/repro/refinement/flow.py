"""Flow-based pair refinement (paper Section 8 future work).

"Other refinement algorithms, e.g., based on flows or diffusion could be
tried within our framework of pairwise refinement."  This is the scheme
the follow-on KaFFPa system made standard: within the boundary band of a
block pair, the *minimum s–t cut* between the fixed (halo) parts of the
two blocks is the best possible cut through the band — compute it with
max-flow and adopt it when it beats the current cut without breaking the
balance constraint.

Unlike FM this finds globally optimal cuts through the corridor, but it
has no native balance control: the pair search
(:func:`~repro.refinement.pairwise.refine_pair` with ``algorithm="flow"``
or ``"fm_flow"``) adopts the flow cut under the same lexicographic
(imbalance, cut) rule as the FM candidates (KaFFPa's adaptive-corridor
iterations are out of scope).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .band import Band
from .maxflow import FlowNetwork

__all__ = ["flow_cut_for_band"]

_INF = 1e18


def flow_cut_for_band(band: Band) -> Optional[Tuple[float, np.ndarray]]:
    """Minimum cut through a band separating the two fixed halo sides.

    Returns ``(cut_weight_within_band, new_side)`` for the band graph, or
    ``None`` when the flow problem is degenerate (a side has no fixed
    anchor nodes, or the band is empty).
    """
    bg = band.graph
    if bg.n == 0 or bg.m == 0:
        return None
    fixed0 = np.nonzero(~band.movable & (band.side == 0))[0]
    fixed1 = np.nonzero(~band.movable & (band.side == 1))[0]
    if len(fixed0) == 0 or len(fixed1) == 0:
        return None

    s, t = bg.n, bg.n + 1
    net = FlowNetwork(bg.n + 2)
    us, vs, ws = bg.edge_array()
    for u, v, w in zip(us, vs, ws):
        net.add_edge(int(u), int(v), float(w), float(w))
    for u in fixed0:
        net.add_edge(s, int(u), _INF)
    for u in fixed1:
        net.add_edge(int(u), t, _INF)
    value = net.max_flow(s, t)
    if value >= _INF:
        return None  # fixed sides are contracted together: no valid cut
    reachable = net.min_cut_side(s)[: bg.n]
    new_side = np.where(reachable, 0, 1).astype(np.int8)
    # only movable nodes may change side
    new_side[~band.movable] = band.side[~band.movable]
    return float(value), new_side

