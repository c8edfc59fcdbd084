"""Protocol-count guard: the SPMD program exchanges only what a PE lacks.

Every PE holds the graph and the partition, so the coloring of the
quotient graph and the gap-matching rounds are computed locally on each
PE.  This test spies on every collective of a full KaPPa SPMD run and
fails if one is issued from inside the coloring or the gap phase, or if
the collective count per run creeps back towards the exchanged
protocol's (:data:`EXCHANGED_COLLECTIVES`, the counts of the same runs
when both were message rounds).  Likewise the partners of a refined
pair extract its band from their own copies, so refinement sends no
band (tags 100–199); only the FM results (tags 200+) travel.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.core import FAST
from repro.core.spmd import kappa_spmd_program
from repro.engine import get_engine
from repro.generators.suite import SMALL_SUITE

COLLECTIVES = ("barrier", "bcast", "gather", "allgather", "allreduce",
               "alltoall")

#: functions that must compute without communicating (the coloring
#: kernel runs, but on a one-PE stand-in, never on the PE's ``comm``)
REPLAYED = {"distributed_edge_coloring", "distributed_edge_coloring_spmd",
            "_gap_phase"}

#: collectives per run (all PEs) with coloring and gap rounds exchanged:
#: FAST, rgg11, seed 1, sequential engine
EXCHANGED_COLLECTIVES = {2: 428, 4: 1692}


def _caller_names():
    frame = sys._getframe(2)
    names = set()
    while frame is not None:
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    return names


def spied_program(comm, log, *args):
    """Run the KaPPa SPMD program logging, per collective, its op and
    whether a replayed phase is on the call stack."""
    for name in COLLECTIVES:
        def spy(*a, _op=name, _inner=getattr(comm, name), **kw):
            log[_op, bool(_caller_names() & REPLAYED)] += 1
            return _inner(*a, **kw)
        setattr(comm, name, spy)
    return kappa_spmd_program(comm, *args)


@pytest.fixture(scope="module")
def graph():
    return SMALL_SUITE["rgg11"].builder()


@pytest.mark.parametrize("k", sorted(EXCHANGED_COLLECTIVES))
def test_replayed_phases_issue_no_collective(graph, k):
    log = Counter()
    run = get_engine("sequential", k).run(
        spied_program, log, graph, k, 1, FAST)
    parts = [r[0] for r in run.results]
    assert all(np.array_equal(parts[0], p) for p in parts[1:])
    in_replay = {op: n for (op, replayed), n in log.items() if replayed}
    assert not in_replay, f"replayed phases communicate: {in_replay}"
    total = sum(log.values())
    assert 0 < total <= EXCHANGED_COLLECTIVES[k] / 5, (total, dict(log))


def tagged_program(comm, tags, *args):
    """Run the KaPPa SPMD program counting the tag of every send."""
    inner = comm.send

    def spy(obj, dest, tag=0):
        tags[tag] += 1
        return inner(obj, dest, tag)

    comm.send = spy
    return kappa_spmd_program(comm, *args)


@pytest.mark.parametrize("k", sorted(EXCHANGED_COLLECTIVES))
def test_refinement_sends_no_band(graph, k):
    tags = Counter()
    get_engine("sequential", k).run(tagged_program, tags, graph, k, 1, FAST)
    assert any(tag >= 200 for tag in tags), dict(tags)  # FM results
    assert not [tag for tag in tags if 100 <= tag < 200], dict(tags)
