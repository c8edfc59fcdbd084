"""Golden simulated makespans: the Figure 3 anchors, pinned bit-exactly.

The sim engine's clocks advance only by ``MachineModel`` charges on the
program's own sends, receives, collectives and ``compute()`` calls, so
they are a pure function of (graph, k, seed, config).  These constants
were recorded with the thread-based simulated cluster the engine used to
wrap; any drift means the cost model or the message/collective schedule
changed.  Update them deliberately, never to make a red test green.
"""

import pytest

from repro.core import MINIMAL, KappaPartitioner
from repro.core.spmd import kappa_spmd_program
from repro.engine import get_engine
from repro.generators import delaunay_graph, random_geometric_graph

SEED = 3

GRAPHS = {
    "rgg600": lambda: random_geometric_graph(600, seed=5),
    "delaunay600": lambda: delaunay_graph(600, seed=7),
}

#: (graph, k) -> (sim_time_s, per-PE clocks, cut)
GOLDEN = {
    ("rgg600", 2): (0.00045559038461538394,
                    [0.00045559038461538394] * 2, 5.0),
    ("rgg600", 4): (0.0010412242307692298,
                    [0.0010412242307692298] * 4, 33.0),
    ("delaunay600", 2): (0.00048279153846153805,
                         [0.00048279153846153805,
                          0.00048276923076923036], 92.0),
    ("delaunay600", 4): (0.0009370703846153832,
                         [0.0009370703846153832] * 4, 230.0),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in GRAPHS.items()}


@pytest.mark.parametrize("name,k", sorted(GOLDEN))
def test_sim_time_and_clocks_pinned(graphs, name, k):
    g = graphs[name]
    sim_time, clocks, cut = GOLDEN[(name, k)]
    res = KappaPartitioner(MINIMAL).partition(
        g, k, seed=SEED, execution="cluster", engine="sim")
    assert res.sim_time_s == sim_time
    assert res.stats["makespan_s"] == sim_time
    assert res.partition.cut == cut
    run = get_engine("sim", k).run(kappa_spmd_program, g, k, SEED, MINIMAL)
    assert run.clocks == clocks
    assert run.makespan == sim_time
