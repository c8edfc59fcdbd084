"""Golden pins for the refinement and matching hot loops.

FM local search, boundary-band extraction and GPA matching are the
inner loops of every partition, so their outputs are pinned bit-exactly:
the sha256 (first 16 hex digits) of each returned array, dtype and shape
included, plus the scalar FM statistics.  The pins are a pure function
of (graph, inputs, seed); any drift means the move order, the RNG draw
order, the band selection or the matching changed.  The constants were
recorded with the loops the list-native versions replaced (FM on
``AddressablePQ`` queues with numpy-scalar indexing, whole-graph band
extraction, numpy-state GPA).  Update them deliberately, never to make
a red test green.
"""

import hashlib

import numpy as np
import pytest

from repro.coarsening.matching.gpa import gpa_matching
from repro.coarsening.ratings import rate_edges
from repro.core import FAST, KappaPartitioner
from repro.core.incremental import IncrementalSession
from repro.core.partitioner import partition_graph
from repro.graph import DynamicGraph, Graph
from repro.graph.dynamic import generate_mutation_stream
from repro.refinement.band import extract_band
from repro.refinement.fm import QUEUE_STRATEGIES, fm_bipartition_refine


def digest(a) -> str:
    """sha256 over dtype, shape and the raw bytes of ``a``."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def _split(g: Graph) -> np.ndarray:
    """A noisy, slightly unbalanced geometric bisection: side 1 right of
    the 45% x quantile, then 8% of the nodes flipped at random — a long
    boundary with many equal-gain ties for FM to work through."""
    x = g.coords[:, 0]
    side = (x > np.quantile(x, 0.45)).astype(np.int8)
    flip = np.random.default_rng(17).random(g.n) < 0.08
    side[flip] ^= 1
    return side


def _fm_case(g: Graph, case: str):
    side = _split(g)
    total = float(g.vwgt.sum())
    lmax = 1.03 * total / 2.0
    kw = dict(lmax=lmax, alpha=0.2, rng=np.random.default_rng(7))
    aux_rng = np.random.default_rng(11)
    if case in QUEUE_STRATEGIES:
        kw["queue_selection"] = case
    elif case == "lmax_b":
        kw["lmax_b"] = 0.9 * lmax
    elif case == "mapping":
        kw["edge_scale"] = 2.0
        kw["gain_bias"] = aux_rng.normal(0.0, 1.5, size=g.n)
    elif case == "aux":
        aux = aux_rng.integers(1, 5, size=(g.n, 2)).astype(np.float64)
        kw["aux_weights"] = aux
        cap = 1.025 * aux.sum(axis=0) / 2.0
        kw["aux_lmax_a"] = cap
        kw["aux_lmax_b"] = cap
    elif case == "movable":
        kw["movable"] = aux_rng.random(g.n) < 0.7
    else:  # pragma: no cover - table typo
        raise KeyError(case)
    return fm_bipartition_refine(g, side, **kw)


#: (graph, case) -> (side digest, gain, moves_applied, moves_tried)
FM_GOLDEN = {
    ("delaunay512", "alternating"): ("b1515ffd19de3ac6", 148.0, 15, 15),
    ("delaunay512", "max_load"): ("b1c5f40f114240fd", 456.0, 65, 115),
    ("delaunay512", "top_gain"): ("ed3c960fa725724e", 268.0, 62, 112),
    ("delaunay512", "top_gain_max_load"): ("f76aef17a7fda8fd", 294.0, 66, 116),
    ("delaunay512", "lmax_b"): ("e509f62b25f9de0f", 174.0, 21, 21),
    ("delaunay512", "mapping"): ("04ff423b667bd04c", 579.2317787983552,
                                41, 91),
    ("delaunay512", "aux"): ("8e7394152bccfd98", 266.0, 35, 85),
    ("delaunay512", "movable"): ("f66b00487e573e58", 210.0, 31, 81),
    ("rgg512", "alternating"): ("15811aaca14a5bfe", 83.0, 15, 15),
    ("rgg512", "max_load"): ("a075a0cefc592bf4", 229.0, 60, 110),
    ("rgg512", "top_gain"): ("dbd1b0e681d03abb", 171.0, 47, 97),
    ("rgg512", "top_gain_max_load"): ("082e71419d5a0cc1", 173.0, 51, 101),
    ("rgg512", "lmax_b"): ("11729f410c83574f", 99.0, 21, 21),
    ("rgg512", "mapping"): ("da7fb197674ea4e7", 317.17098276785777, 42, 92),
    ("rgg512", "aux"): ("ea1f33d92e76634b", 151.0, 43, 93),
    ("rgg512", "movable"): ("4ac86e5b9b5a2353", 121.0, 38, 88),
}


@pytest.mark.parametrize("name,case", sorted(FM_GOLDEN))
def test_fm_pinned(request, name, case):
    res = _fm_case(request.getfixturevalue(name), case)
    assert (digest(res.side), res.gain, res.moves_applied,
            res.moves_tried) == FM_GOLDEN[(name, case)]


def _gpa(g: Graph, forbid: bool) -> np.ndarray:
    us, vs, _, scores = rate_edges(g, "expansion_star2")
    forbidden = (np.random.default_rng(3).random(g.n) < 0.1) if forbid \
        else None
    return gpa_matching(g, scores, us, vs, np.random.default_rng(5),
                        forbidden=forbidden)


GPA_GOLDEN = {
    ("delaunay512", False): "e2f01c2acd72a39d",
    ("delaunay512", True): "3f5bab3cdf9e997e",
    ("rgg512", False): "1f7a328649cdcbdf",
    ("rgg512", True): "ff16beb4c5d65995",
}


@pytest.mark.parametrize("name,forbid", sorted(GPA_GOLDEN))
def test_gpa_pinned(request, name, forbid):
    assert digest(_gpa(request.getfixturevalue(name), forbid)) == \
        GPA_GOLDEN[(name, forbid)]


def _band_digests(g: Graph, case: str):
    rng = np.random.default_rng(13)
    part = rng.integers(0, 4, size=g.n)
    part[g.coords[:, 0] < 0.5] = 1   # a large contiguous block 1
    within = None
    if case in ("within", "within_fixed"):
        within = g.coords[:, 1] < 0.6
    if case in ("fixed", "within_fixed"):
        fixed = np.where(rng.random(g.n) < 0.15, part, -1)
        g = Graph(g.xadj, g.adjncy, g.adjwgt, g.vwgt, coords=g.coords,
                  validate=False, fixed=fixed)
    band, pair_nodes = extract_band(g, part, 1, 2, 2, within=within)
    sub = band.graph
    return [digest(a) for a in (
        sub.xadj, sub.adjncy, sub.adjwgt, sub.vwgt, sub.fixed
        if sub.fixed is not None else np.zeros(0), band.smap.to_parent,
        band.smap.to_sub, band.side, band.movable, pair_nodes,
    )] + [band.n_boundary]


BAND_GOLDEN = {
    ("delaunay512", "plain"): [
        "f4631d31477bc5b8", "1e063bdf88a702ae", "9d268498cc75296d",
        "6a18d3b1f05423e6", "64578373a8a80ad1", "84f8e558d04a4f15",
        "e10bb12ccd0efcd0", "6b7a3627c8c44ea2", "416172da5a7ba44e",
        "4a01997ba775a3bf",
        128],
    ("delaunay512", "within"): [
        "e80a51b78cc4e987", "be51d824c4409d64", "695ee6d56858a4e8",
        "8ca827d93d22c9f6", "64578373a8a80ad1", "89763727a6629961",
        "63505a2c5c7d7c6d", "1325b02bfb6274a6", "337e661344f10fef",
        "4a01997ba775a3bf",
        76],
    ("delaunay512", "fixed"): [
        "f4631d31477bc5b8", "1e063bdf88a702ae", "9d268498cc75296d",
        "6a18d3b1f05423e6", "fc316c05d0705415", "84f8e558d04a4f15",
        "e10bb12ccd0efcd0", "6b7a3627c8c44ea2", "40eeb9ec6d72612c",
        "4a01997ba775a3bf",
        128],
    ("delaunay512", "within_fixed"): [
        "e80a51b78cc4e987", "be51d824c4409d64", "695ee6d56858a4e8",
        "8ca827d93d22c9f6", "13ab74eb9ea33100", "89763727a6629961",
        "63505a2c5c7d7c6d", "1325b02bfb6274a6", "8fbd0dadbea44119",
        "4a01997ba775a3bf",
        76],
    ("rgg512", "plain"): [
        "cab9f50e1ed31808", "6b07e8ada4dd4943", "f59812d6eaad55cb",
        "af24545b2922f5b3", "64578373a8a80ad1", "81832106ddeb49f9",
        "6cfc61ab026a55eb", "0b5658b19402f1db", "349746d56f60a838",
        "4a01997ba775a3bf",
        119],
    ("rgg512", "within"): [
        "708a115bad499dc5", "848783c0bacebd82", "effa7a12082db2de",
        "d56359ebc0b485de", "64578373a8a80ad1", "00aa5a79139166f1",
        "ebb4ad4928fb318e", "d1ec5fc8d0c97e8d", "0a7cf3fba7d56b07",
        "4a01997ba775a3bf",
        76],
    ("rgg512", "fixed"): [
        "cab9f50e1ed31808", "6b07e8ada4dd4943", "f59812d6eaad55cb",
        "af24545b2922f5b3", "30e3f3499533df8b", "81832106ddeb49f9",
        "6cfc61ab026a55eb", "0b5658b19402f1db", "a4286bdd7553d9cd",
        "4a01997ba775a3bf",
        119],
    ("rgg512", "within_fixed"): [
        "708a115bad499dc5", "848783c0bacebd82", "effa7a12082db2de",
        "d56359ebc0b485de", "783016456d7fd0d6", "00aa5a79139166f1",
        "ebb4ad4928fb318e", "d1ec5fc8d0c97e8d", "9bc1b20d844aa35c",
        "4a01997ba775a3bf",
        76],
}


@pytest.mark.parametrize("name,case", sorted(BAND_GOLDEN))
def test_band_pinned(request, name, case):
    assert _band_digests(request.getfixturevalue(name), case) == \
        BAND_GOLDEN[(name, case)]


def _partition_sequential(g: Graph) -> np.ndarray:
    return partition_graph(g, 8, config=FAST, seed=4).partition.part


def _partition_cluster_sim(g: Graph) -> np.ndarray:
    return KappaPartitioner(FAST).partition(
        g, 4, seed=4, execution="cluster", engine="sim").partition.part


def _incremental_patch(g: Graph) -> np.ndarray:
    session = IncrementalSession.start(
        g, 4, config=FAST.derive(incremental=True), seed=4)
    dyn = DynamicGraph(g)
    batch = generate_mutation_stream(g, 1, seed=9)[0]
    br = dyn.apply(batch)
    return session.apply(dyn.graph(), br.dirty_nodes).partition.part


PARTITION_RUNS = {
    "fast_k8_sequential": _partition_sequential,
    "fast_k4_cluster_sim": _partition_cluster_sim,
    "incremental_patch_k4": _incremental_patch,
}

PARTITION_GOLDEN = {
    ("delaunay512", "fast_k8_sequential"): "6dda4deb3c6bd460",
    ("delaunay512", "fast_k4_cluster_sim"): "736342796d229b27",
    ("delaunay512", "incremental_patch_k4"): "7c2582d7af95d7ad",
}


@pytest.mark.parametrize("name,run", sorted(PARTITION_GOLDEN))
def test_partition_pinned(request, name, run):
    part = PARTITION_RUNS[run](request.getfixturevalue(name))
    assert digest(part) == PARTITION_GOLDEN[(name, run)]
