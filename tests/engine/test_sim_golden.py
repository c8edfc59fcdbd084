"""Golden simulated makespans: the Figure 3 anchors, pinned bit-exactly.

The sim engine's clocks advance only by ``MachineModel`` charges on the
program's own sends, receives, collectives and ``compute()`` calls, so
they are a pure function of (graph, k, seed, config).  ``GOLDEN``
includes the byte term (an array payload is charged its ``nbytes``);
``GOLDEN_BYTE_FREE`` prices bytes at zero, so it pins the collective and
message schedule and the compute charges alone.  Any drift means the
cost model, the payload sizes or the schedule changed.  Update them
deliberately, never to make a red test green.
"""

import pytest

from repro.core import MINIMAL, KappaPartitioner
from repro.core.spmd import kappa_spmd_program
from repro.engine import get_engine
from repro.generators import delaunay_graph, random_geometric_graph
from repro.parallel.costmodel import MachineModel

SEED = 3

GRAPHS = {
    "rgg600": lambda: random_geometric_graph(600, seed=5),
    "delaunay600": lambda: delaunay_graph(600, seed=7),
}

#: (graph, k) -> (sim_time_s, per-PE clocks, cut)
GOLDEN = {
    ("rgg600", 2): (0.0004696596153846147,
                    [0.0004696596153846147] * 2, 5.0),
    ("rgg600", 4): (0.0010753719230769223,
                    [0.0010753719230769223] * 4, 33.0),
    ("delaunay600", 2): (0.000494994615384615,
                         [0.000494994615384615,
                          0.0004949699999999996], 92.0),
    ("delaunay600", 4): (0.0009715457692307678,
                         [0.0009715457692307678] * 4, 230.0),
}

#: (graph, k) -> makespan with ``byte_time_s=0``: only latencies and
#: compute charges count, so these pin the collective/message schedule
#: and the compute calls independently of payload sizes (every PE's
#: clock equals the makespan on these rows)
GOLDEN_BYTE_FREE = {
    ("rgg600", 2): 0.00044867499999999875,
    ("rgg600", 4): 0.0010336749999999997,
    ("delaunay600", 2): 0.00043604999999999913,
    ("delaunay600", 4): 0.0008843749999999991,
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


@pytest.mark.parametrize("name,k", sorted(GOLDEN_BYTE_FREE))
def test_byte_free_schedule_pinned(graphs, name, k):
    makespan = GOLDEN_BYTE_FREE[(name, k)]
    engine = get_engine("sim", k, machine=MachineModel(byte_time_s=0.0))
    run = engine.run(kappa_spmd_program, graphs[name], k, SEED, MINIMAL)
    assert run.makespan == makespan
    assert run.clocks == [makespan] * k
