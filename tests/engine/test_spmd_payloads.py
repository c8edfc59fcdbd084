"""Payload-shape guard: bulk ids cross PE boundaries as numpy arrays.

On the process engine every message goes through the wire codec, which
copies an array's buffer in one step but walks a Python container item
by item.  A per-node or per-edge id list sent as a list of tuples costs
tens of milliseconds per collective on a 16k-node graph, so this test
spies on every collective and point-to-point send of a full KaPPa SPMD
run and fails if any payload holds a Python ``list``/``tuple``/``set``
longer than :data:`MAX_CONTAINER_LEN` at any depth.
"""

import numpy as np
import pytest

from repro.core import FAST
from repro.core.spmd import kappa_spmd_program
from repro.engine import get_engine
from repro.generators.suite import SMALL_SUITE

#: longest Python container a payload may carry (per-PE or per-block
#: lists are fine; per-node or per-edge ones are not)
MAX_CONTAINER_LEN = 64

SPIED = ("send", "bcast", "gather", "allgather", "allreduce", "alltoall")


def largest_container(obj) -> int:
    """Length of the longest list/tuple/set/frozenset inside ``obj``."""
    if isinstance(obj, np.ndarray):
        return 0
    if isinstance(obj, dict):
        return max((largest_container(x)
                    for kv in obj.items() for x in kv), default=0)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return max([len(obj)] + [largest_container(x) for x in obj])
    return 0


def spied_program(comm, log, *args):
    """Run the KaPPa SPMD program with every send and collective of
    ``comm`` logging ``(op, largest container)`` into ``log``."""
    for name in SPIED:
        def spy(obj, *a, _op=name, _inner=getattr(comm, name), **kw):
            log.append((_op, largest_container(obj)))
            return _inner(obj, *a, **kw)
        setattr(comm, name, spy)
    return kappa_spmd_program(comm, *args)


@pytest.fixture(scope="module")
def graph():
    return SMALL_SUITE["rgg11"].builder()


def test_largest_container_sees_every_depth():
    assert largest_container([(1, 2)] * 3) == 3
    assert largest_container({"a": ({1, 2, 3, 4},)}) == 4
    assert largest_container((np.arange(1000), [np.arange(5)])) == 2


@pytest.mark.parametrize("k", [2, 4])
def test_bulk_ids_travel_as_arrays(graph, k):
    log = []
    run = get_engine("sequential", k).run(
        spied_program, log, graph, k, 1, FAST)
    parts = [r[0] for r in run.results]
    assert all(np.array_equal(parts[0], p) for p in parts[1:])
    # the coloring and gap rounds are replayed locally: no alltoall
    assert {op for op, _ in log} >= {"send", "allgather", "allreduce"}
    worst = max(log, key=lambda rec: rec[1])
    assert worst[1] <= MAX_CONTAINER_LEN, (
        f"a payload of {worst[0]} carries a Python container of "
        f"{worst[1]} items; send bulk ids as an int64 array")
