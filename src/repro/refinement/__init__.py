"""Refinement phase: addressable PQ, gains, 2-way FM with queue-selection
strategies, boundary bands, pairwise refinement over quotient colorings,
greedy k-way refinement (baseline), and rebalancing."""

from .pq import AddressablePQ
from .gain import (
    gain_and_boundary,
    initial_gains,
    two_way_boundary,
    cut_between_sides,
)
from .fm import (FMLists, FMResult, FMSearch, fm_bipartition_refine,
                 QUEUE_STRATEGIES)
from .band import (Band, add_candidates, cut_candidates, extract_band,
                   extract_bands)
from .pairwise import PairResult, refine_pair, pairwise_refinement
from .kway_greedy import greedy_kway_refinement
from .balance import rebalance

__all__ = [
    "AddressablePQ",
    "gain_and_boundary",
    "initial_gains",
    "two_way_boundary",
    "cut_between_sides",
    "FMLists",
    "FMResult",
    "FMSearch",
    "fm_bipartition_refine",
    "QUEUE_STRATEGIES",
    "Band",
    "extract_band",
    "extract_bands",
    "cut_candidates",
    "add_candidates",
    "PairResult",
    "refine_pair",
    "pairwise_refinement",
    "greedy_kway_refinement",
    "rebalance",
]

from .scheduling import SCHEDULES, schedule_rounds, random_local_rounds, coloring_rounds

__all__ += ["SCHEDULES", "schedule_rounds", "random_local_rounds", "coloring_rounds"]

from .maxflow import FlowNetwork, max_flow_min_cut
from .flow import flow_cut_for_band

__all__ += ["FlowNetwork", "max_flow_min_cut", "flow_cut_for_band"]
