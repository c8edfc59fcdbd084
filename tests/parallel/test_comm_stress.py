"""Communication-pattern and clock-semantics stress tests.

Patterns run on every engine and must agree; clock semantics run on the
sim engine's cost clock."""

import pytest

from repro.engine import get_engine
from repro.parallel import MachineModel

from .test_comm import ALL_ENGINES, run_all


class TestCommunicationPatterns:
    def test_ring_exchange(self):
        """Each PE sends to its right neighbour, receives from its left."""
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(comm.rank, right)
            return comm.recv(left)

        res = run_all(6, prog)
        assert res.results == [5, 0, 1, 2, 3, 4]

    def test_butterfly_allreduce_by_hand(self):
        """A hand-written hypercube allreduce over point-to-point."""
        def prog(comm):
            val = comm.rank + 1
            dim = 0
            while (1 << dim) < comm.size:
                peer = comm.rank ^ (1 << dim)
                other = comm.sendrecv(val, peer, tag=dim)
                val += other
                dim += 1
            return val

        res = run_all(8, prog)
        assert res.results == [36] * 8

    def test_master_worker(self):
        def prog(comm):
            if comm.rank == 0:
                for w in range(1, comm.size):
                    comm.send(("work", w * 10), w)
                return sorted(comm.recv(w, tag=1) for w in range(1, comm.size))
            cmd, payload = comm.recv(0)
            comm.send(payload * 2, 0, tag=1)
            return None

        res = run_all(4, prog)
        assert res.results[0] == [20, 40, 60]

    def test_many_small_messages(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(200):
                    comm.send(i, 1)
                return None
            return sum(comm.recv(0) for _ in range(200))

        for engine in ALL_ENGINES:
            res = get_engine(engine, 2).run(prog)
            assert res.results[1] == sum(range(200))
            assert res.messages_sent == 200, engine

    def test_interleaved_tags_and_collectives(self):
        def prog(comm):
            peer = 1 - comm.rank
            comm.send(comm.rank, peer, tag=5)
            total = comm.allreduce(1)
            got = comm.recv(peer, tag=5)
            comm.barrier()
            return (total, got)

        res = run_all(2, prog)
        assert res.results == [(2, 1), (2, 0)]

    def test_sixteen_pes(self):
        # in-process engines only: sixteen forked workers buy no extra
        # protocol coverage over the 8-PE butterfly above
        res = run_all(16, lambda c: c.allreduce(c.rank),
                      engines=("sequential", "sim"))
        assert res.results[0] == sum(range(16))


class TestClockSemantics:
    def test_clock_monotone_through_mixed_ops(self):
        m = MachineModel(latency_s=1.0, byte_time_s=0.0, work_unit_s=1.0)

        def prog(comm):
            stamps = [comm.clock.time]
            comm.compute(10)
            stamps.append(comm.clock.time)
            comm.barrier()
            stamps.append(comm.clock.time)
            comm.allreduce(comm.rank)
            stamps.append(comm.clock.time)
            return stamps

        res = get_engine("sim", 4, machine=m).run(prog)
        for stamps in res.results:
            assert stamps == sorted(stamps)
        # 10 compute, then two 2-round collectives at 1 s per round
        assert res.clocks == [14.0] * 4

    def test_makespan_at_least_critical_path(self):
        m = MachineModel(latency_s=1.0, byte_time_s=0.0, work_unit_s=1.0)

        def prog(comm):
            # a chain 0 -> 1 -> 2 with 10 units of work at each hop
            if comm.rank > 0:
                comm.recv(comm.rank - 1)
            comm.compute(10)
            if comm.rank < comm.size - 1:
                comm.send("go", comm.rank + 1)

        res = get_engine("sim", 3, machine=m).run(prog)
        # critical path: 3 * 10 compute + 2 latencies
        assert res.makespan == pytest.approx(32.0)
        assert res.clocks == pytest.approx([10.0, 21.0, 32.0])

    def test_collective_cost_grows_with_p(self):
        def timed(p):
            return get_engine("sim", p).run(lambda c: c.barrier()).makespan

        assert timed(16) > timed(2)
