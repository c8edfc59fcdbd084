"""Seeded race/stress suite for the threads engine.

The threads engine runs one real OS thread per PE over shared CSR
views, so this is the engine where scheduling races would actually
show up.  The suite perturbs thread timing deterministically — injected
message faults (``delay``/``drop`` clauses) surface as seeded send-side
latency on this engine, a scheduling-jitter source that needs no
monkeypatching — and asserts the partition is bit-identical under every
jitter seed and that no run deadlocks within ``recv_timeout_s``.  The
work-stealing batch queue gets direct coverage too: correctness of
results under concurrent theft, submission-order preservation, and
error propagation.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import MINIMAL
from repro.core.spmd import kappa_spmd_program
from repro.engine import ThreadsEngine
from repro.generators import random_geometric_graph
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import ResiliencePolicy

K = 8
SEED = 9
#: generous for CI yet far below the suite timeout — a deadlock fails
#: the test instead of hanging it
RECV_TIMEOUT_S = 60.0


@pytest.fixture(scope="module")
def graph():
    return random_geometric_graph(300, seed=17)


@pytest.fixture(scope="module")
def reference(graph):
    """The jitter-free k=8 partition every stressed run must reproduce."""
    eng = ThreadsEngine(K, recv_timeout_s=RECV_TIMEOUT_S)
    res = eng.run(kappa_spmd_program, graph, K, SEED, MINIMAL)
    part, _depth, _coarsest_n = res.results[0]
    return part


def _jitter(fault_seed, spec="delay=1ms,drop=0.05"):
    """A policy whose message faults act as deterministic send latency."""
    return ResiliencePolicy(faults=FaultPlan.parse(spec),
                            fault_seed=fault_seed)


class TestSchedulingJitter:
    @pytest.mark.parametrize("fault_seed", [0, 1, 2, 3])
    def test_partition_invariant_under_jitter(self, graph, reference,
                                              fault_seed):
        """Randomised send-side sleeps reshuffle which thread runs when;
        the k=8 partition must not move by a single label."""
        eng = ThreadsEngine(K, recv_timeout_s=RECV_TIMEOUT_S,
                            resilience=_jitter(fault_seed))
        res = eng.run(kappa_spmd_program, graph, K, SEED, MINIMAL)
        for part, _depth, _coarsest_n in res.results:
            assert np.array_equal(part, reference)

    def test_heavy_jitter_completes_within_timeout(self, graph, reference):
        """A lossy, slow profile must still terminate (no deadlock) well
        inside ``recv_timeout_s`` and agree with the reference."""
        eng = ThreadsEngine(K, recv_timeout_s=RECV_TIMEOUT_S,
                            resilience=_jitter(7, "delay=2ms,drop=0.2"))
        t0 = time.monotonic()
        res = eng.run(kappa_spmd_program, graph, K, SEED, MINIMAL)
        assert time.monotonic() - t0 < RECV_TIMEOUT_S
        assert np.array_equal(res.results[0][0], reference)

    def test_repeated_runs_identical(self, graph, reference):
        """Same jitter seed twice ⇒ same injected schedule ⇒ and even
        with a fresh engine the partition stays put."""
        for _ in range(2):
            eng = ThreadsEngine(K, recv_timeout_s=RECV_TIMEOUT_S,
                                resilience=_jitter(5))
            res = eng.run(kappa_spmd_program, graph, K, SEED, MINIMAL)
            assert np.array_equal(res.results[0][0], reference)


# ----------------------------------------------------------------------
# work-stealing batch queue
# ----------------------------------------------------------------------
def _stealing_program(comm):
    """PE 0 posts a batch of sleeping tasks; every other PE parks in a
    collective and steals from it while waiting."""
    if comm.rank == 0:
        ident = threading.get_ident()
        def task(i):
            time.sleep(0.05)
            return (i * i, threading.get_ident() != ident)
        out = comm.map_batch([lambda i=i: task(i) for i in range(12)])
    else:
        out = None
    comm.barrier()
    return comm.allgather(out)[0]


def test_work_stealing_correct_and_actually_steals():
    p = 4
    eng = ThreadsEngine(p, recv_timeout_s=RECV_TIMEOUT_S)
    res = eng.run(_stealing_program)
    for r in res.results:
        assert [v for v, _stolen in r] == [i * i for i in range(12)]
    # the idle PEs parked in the barrier must have taken work: counters
    # and the executing-thread markers both say so
    stolen_flags = sum(1 for _v, stolen in res.results[0] if stolen)
    total_steals = sum(c.get("work_steals", 0) for c in res.counters)
    assert total_steals >= 1
    assert stolen_flags >= 1


def test_map_batch_preserves_submission_order():
    def program(comm):
        if comm.rank == 0:
            vals = comm.map_batch(
                [lambda i=i: (time.sleep(0.01 * (5 - i)), i)[1]
                 for i in range(5)])
        else:
            vals = None
        comm.barrier()
        return comm.allgather(vals)[0]

    eng = ThreadsEngine(3, recv_timeout_s=RECV_TIMEOUT_S)
    res = eng.run(program)
    assert res.results[0] == [0, 1, 2, 3, 4]


def test_map_batch_propagates_first_error_by_index():
    def boom(i):
        time.sleep(0.02)
        if i in (3, 7):
            raise ValueError(f"task {i} failed")
        return i

    def program(comm):
        if comm.rank == 0:
            try:
                comm.map_batch([lambda i=i: boom(i) for i in range(10)])
            except ValueError as exc:
                msg = str(exc)
            else:
                msg = "no error"
        else:
            msg = None
        comm.barrier()
        return comm.allgather(msg)[0]

    eng = ThreadsEngine(3, recv_timeout_s=RECV_TIMEOUT_S)
    res = eng.run(program)
    # lowest-index failure wins regardless of who executed what
    assert res.results[0] == "task 3 failed"


def test_slow_pe_result_is_not_dropped():
    """A PE that computes past ``10 * recv_timeout_s`` without talking is
    slow, not deadlocked: the engine must wait for it instead of
    returning ``None`` in its result slot."""
    def program(comm):
        if comm.rank == 1:
            time.sleep(1.5)
        return comm.rank

    res = ThreadsEngine(2, recv_timeout_s=0.1).run(program)
    assert res.results == [0, 1]
