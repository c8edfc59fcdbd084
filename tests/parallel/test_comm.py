"""Communicator tests.

Protocol cases (point to point, collectives, errors, determinism) run
the same SPMD program on every engine and require identical results;
the simulated-time cases run on the sim engine and read its cost clock
(``comm.clock.time``, ``EngineResult.clocks``/``makespan``).
"""

import numpy as np
import pytest

from repro.engine import ENGINES, get_engine
from repro.parallel import DeadlockError, MachineModel, payload_nbytes

ALL_ENGINES = sorted(ENGINES)


def run_all(p, prog, engines=ALL_ENGINES):
    """Run ``prog`` on ``p`` PEs under each engine; all must agree."""
    runs = {e: get_engine(e, p, recv_timeout_s=5.0).run(prog)
            for e in engines}
    reference = runs["sequential"].results
    for engine, res in runs.items():
        assert res.results == reference, engine
    return runs["sim"]


def raises_on_all(p, prog, exc, match=None):
    for engine in ALL_ENGINES:
        with pytest.raises(exc, match=match):
            get_engine(engine, p, recv_timeout_s=2.0).run(prog)


class TestPointToPoint:
    def test_send_recv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, dest=1)
                return None
            return comm.recv(source=0)

        res = run_all(2, prog)
        assert res.results[1] == {"x": 1}

    def test_fifo_per_channel(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(0) for _ in range(5)]

        res = run_all(2, prog)
        assert res.results[1] == [0, 1, 2, 3, 4]

    def test_tags_are_independent_channels(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            # receive in the opposite order of sending
            b = comm.recv(0, tag=2)
            a = comm.recv(0, tag=1)
            return (a, b)

        res = run_all(2, prog)
        assert res.results[1] == ("a", "b")

    def test_sendrecv_exchange(self):
        def prog(comm):
            peer = 1 - comm.rank
            return comm.sendrecv(comm.rank * 10, peer)

        res = run_all(2, prog)
        assert res.results == [10, 0]

    def test_recv_timeout_raises_deadlock(self):
        """A recv nobody answers: structural detection on the token
        engines, the receive deadline on process."""
        def prog(comm):
            if comm.rank == 0:
                comm.recv(1, timeout=0.2)

        raises_on_all(2, prog, DeadlockError)

    def test_bad_dest(self):
        def prog(comm):
            comm.send(1, dest=5)

        raises_on_all(2, prog, ValueError)

    def test_numpy_payload(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(10), 1)
                return None
            arr = comm.recv(0)
            return arr.dtype.str, arr.tolist()

        res = run_all(2, prog)
        assert res.results[1] == (np.arange(10).dtype.str, list(range(10)))


class TestCollectives:
    def test_allreduce_sum(self):
        res = run_all(4, lambda c: c.allreduce(c.rank + 1))
        assert res.results == [10, 10, 10, 10]

    def test_allreduce_custom_op(self):
        res = run_all(4, lambda c: c.allreduce(c.rank, op=max))
        assert res.results == [3, 3, 3, 3]

    def test_bcast(self):
        def prog(comm):
            return comm.bcast("root-data" if comm.rank == 2 else None, root=2)

        res = run_all(3, prog)
        assert res.results == ["root-data"] * 3

    def test_gather(self):
        def prog(comm):
            return comm.gather(comm.rank**2, root=0)

        res = run_all(3, prog)
        assert res.results[0] == [0, 1, 4]
        assert res.results[1] is None

    def test_allgather(self):
        res = run_all(3, lambda c: c.allgather(c.rank))
        assert res.results == [[0, 1, 2]] * 3

    def test_alltoall(self):
        def prog(comm):
            return comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])

        res = run_all(3, prog)
        assert res.results[1] == ["0->1", "1->1", "2->1"]

    def test_alltoall_wrong_length(self):
        def prog(comm):
            comm.alltoall([1])

        raises_on_all(2, prog, ValueError)

    def test_consecutive_collectives(self):
        def prog(comm):
            a = comm.allreduce(1)
            b = comm.allreduce(2)
            comm.barrier()
            return (a, b)

        res = run_all(4, prog)
        assert res.results == [(4, 8)] * 4

    def test_single_pe(self):
        res = run_all(1, lambda c: c.allreduce(5))
        assert res.results == [5]


class TestSimulatedTime:
    def test_compute_advances_clock(self):
        def prog(comm):
            comm.compute(1000)
            return comm.clock.time

        m = MachineModel(work_unit_s=1e-6)
        res = get_engine("sim", 1, machine=m).run(prog)
        assert np.isclose(res.results[0], 1e-3)
        assert np.isclose(res.makespan, 1e-3)
        assert res.clocks == res.results

    def test_message_time_includes_bytes(self):
        m = MachineModel(latency_s=1.0, byte_time_s=0.5)
        assert m.message_time(4) == 3.0

    def test_collective_log_rounds(self):
        m = MachineModel(latency_s=1.0, byte_time_s=0.0)
        assert m.collective_time(8, 0) == 3.0
        assert m.collective_time(1, 0) == 0.0

    def test_recv_waits_for_arrival(self):
        m = MachineModel(latency_s=1.0, byte_time_s=0.0, work_unit_s=1.0)

        def prog(comm):
            if comm.rank == 0:
                comm.compute(5)  # sender busy until t=5
                comm.send("x", 1)
                return comm.clock.time
            comm.recv(0)
            return comm.clock.time

        res = get_engine("sim", 2, machine=m).run(prog)
        assert res.results == [5.0, 6.0]  # 5 compute + 1 latency
        assert res.clocks == [5.0, 6.0]

    def test_makespan_is_max(self):
        def prog(comm):
            comm.compute(100 * (comm.rank + 1))
            return None

        m = MachineModel(work_unit_s=1.0)
        res = get_engine("sim", 3, machine=m).run(prog)
        assert res.clocks == [100.0, 200.0, 300.0]
        assert res.makespan == 300.0

    def test_barrier_syncs_clocks(self):
        m = MachineModel(latency_s=0.0, work_unit_s=1.0)

        def prog(comm):
            comm.compute(100 * (comm.rank + 1))
            comm.barrier()
            return comm.clock.time

        res = get_engine("sim", 2, machine=m).run(prog)
        assert np.allclose(res.results, [200.0, 200.0])

    def test_stats_counted(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100), 1)
                return None
            comm.recv(0)
            return None

        res = get_engine("sim", 2).run(prog)
        assert res.messages_sent == 1
        assert res.bytes_sent == 800


class TestErrors:
    def test_exception_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.barrier()

        raises_on_all(2, prog, RuntimeError, match="boom")

    def test_invalid_size(self):
        for engine in ALL_ENGINES:
            with pytest.raises(ValueError):
                get_engine(engine, 0)


class TestDeterminism:
    def test_derive_rng_per_rank(self):
        def prog(comm):
            return float(comm.derive_rng(42).random())

        res = run_all(4, prog)
        assert len(set(res.results)) == 4  # distinct streams per PE

    def test_repeated_runs_identical(self):
        def prog(comm):
            rng = comm.derive_rng(7)
            vals = comm.allgather(float(rng.random()))
            return tuple(vals)

        r1 = run_all(4, prog)
        r2 = run_all(4, prog)
        assert r1.results == r2.results


class TestPayloadBytes:
    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_scalar(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8

    def test_array(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_array_list(self):
        assert payload_nbytes([np.zeros(4), np.zeros(6)]) == 80

    def test_generic_object(self):
        assert payload_nbytes({"a": [1, 2, 3]}) > 0
