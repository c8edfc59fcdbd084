"""Engine-layer contract tests: every engine runs the same SPMD programs
to the same results, reports deadlocks with usable diagnostics, and
honours the configurable receive timeout."""

import numpy as np
import pytest

from repro.engine import (
    DEFAULT_RECV_TIMEOUT_S,
    RECV_TIMEOUT_ENV_VAR,
    Comm,
    DeadlockError,
    EngineFailure,
    ENGINES,
    get_engine,
    resolve_recv_timeout,
)

ALL_ENGINES = sorted(ENGINES)
#: short timeout so deliberately-deadlocking tests fail fast
FAST_TIMEOUT = 2.0


def collective_program(comm, base):
    rng = comm.derive_rng(42)
    x = int(rng.integers(0, 10_000))
    total = comm.allreduce(x)
    biggest = comm.allreduce(x, op=max)
    gathered = comm.gather((comm.rank, x), root=0)
    arrays = comm.allgather(np.full(comm.rank + 1, comm.rank))
    root_val = comm.bcast(x if comm.rank == 0 else None, root=0)
    comm.barrier()
    slices = comm.alltoall([(comm.rank, dst) for dst in range(comm.size)])
    return (total, biggest, gathered, [a.sum() for a in arrays],
            root_val, slices, base)


def ring_program(comm):
    """Point-to-point ring: each PE forwards a growing payload."""
    nxt = (comm.rank + 1) % comm.size
    prv = (comm.rank - 1) % comm.size
    comm.send({"from": comm.rank, "data": np.arange(comm.rank + 1)}, nxt,
              tag=5)
    msg = comm.recv(prv, tag=5)
    return msg["from"], int(msg["data"].sum())


def partner_program(comm):
    partner = comm.rank ^ 1
    if partner >= comm.size:
        return None
    return comm.sendrecv(np.full(2000, comm.rank), partner, tag=2).sum()


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_collectives(self, engine, p):
        res = get_engine(engine, p).run(collective_program, "tag")
        reference = get_engine("sequential", p).run(
            collective_program, "tag")
        assert res.results == reference.results

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_ring(self, engine):
        res = get_engine(engine, 4).run(ring_program)
        assert res.results == [(3, 6), (0, 0), (1, 1), (2, 3)]

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_sendrecv_pairs(self, engine):
        res = get_engine(engine, 4).run(partner_program)
        assert res.results == [2000, 0, 3 * 2000, 2 * 2000]

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_derive_rng_is_rank_keyed(self, engine):
        def program(comm):
            return int(comm.derive_rng(7).integers(0, 2**31))

        res = get_engine(engine, 3).run(program)
        assert len(set(res.results)) == 3  # distinct per-rank streams
        expected = [int(np.random.default_rng((7, r)).integers(0, 2**31))
                    for r in range(3)]
        assert res.results == expected


class TestEngineResult:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_phase_times_per_pe(self, engine):
        def program(comm):
            with comm.timed("work"):
                comm.compute(10.0)
            with comm.timed("talk"):
                comm.barrier()
            return comm.rank

        res = get_engine(engine, 3).run(program)
        # each PE's timers fold into one gauge per phase (max over PEs)
        gauges = res.metrics["gauges"]
        assert set(gauges) == {"phase_work_max_s", "phase_talk_max_s"}
        assert all(v >= 0.0 for v in gauges.values())

    def test_sim_reports_makespan(self):
        res = get_engine("sim", 4).run(lambda comm: comm.barrier())
        assert res.makespan is not None and res.makespan > 0

    def test_sequential_has_no_makespan(self):
        res = get_engine("sequential", 4).run(lambda comm: comm.barrier())
        assert res.makespan is None

    def test_process_reports_wall_clocks(self):
        res = get_engine("process", 2).run(lambda comm: comm.barrier())
        assert res.makespan is not None and res.makespan > 0
        assert len(res.clocks) == 2

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_message_accounting(self, engine):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100), 1, tag=1)
            elif comm.rank == 1:
                comm.recv(0, tag=1)

        res = get_engine(engine, 2).run(program)
        assert res.messages_sent >= 1
        assert res.bytes_sent > 0


class TestDeadlockDiagnostics:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_recv_never_sent(self, engine):
        def program(comm):
            if comm.rank == 0:
                comm.recv(1, tag=42)
            else:
                comm.barrier()

        eng = get_engine(engine, 2, recv_timeout_s=FAST_TIMEOUT)
        with pytest.raises(DeadlockError) as exc_info:
            eng.run(program)
        message = str(exc_info.value)
        assert "PE" in message  # names the stuck PE ...
        assert "recv" in message or "collective" in message  # ... and op
        assert f"engine={engine}" in message

    def test_sequential_detects_structurally(self):
        """The sequential engine needs no timeout: the moment no PE can
        run, it raises with every blocked PE's pending operation."""

        def program(comm):
            comm.recv((comm.rank + 1) % comm.size, tag=9)  # cyclic wait

        with pytest.raises(DeadlockError) as exc_info:
            get_engine("sequential", 3).run(program)
        message = str(exc_info.value)
        assert "tag=9" in message
        for rank in range(3):
            assert f"PE {rank}" in message

    def test_sequential_mismatched_collectives(self):
        def program(comm):
            if comm.rank == 0:
                comm.barrier()
            # rank 1 returns without the barrier

        with pytest.raises(DeadlockError):
            get_engine("sequential", 2).run(program)


class TestErrorPropagation:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_worker_exception_type_surfaces(self, engine):
        def program(comm):
            if comm.rank == 1:
                raise ValueError("boom on rank 1")
            comm.barrier()

        eng = get_engine(engine, 2, recv_timeout_s=FAST_TIMEOUT)
        # the original error must win over the peer's failed barrier
        with pytest.raises(ValueError, match="boom on rank 1"):
            eng.run(program)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_bad_destination(self, engine):
        def program(comm):
            comm.send(1, comm.size + 3)

        with pytest.raises(ValueError):
            get_engine(engine, 2, recv_timeout_s=FAST_TIMEOUT).run(program)

    def test_process_rejects_unserialisable_result(self):
        def program(comm):
            return lambda: 0

        from repro.engine.wire import WireError
        with pytest.raises(WireError):
            get_engine("process", 2,
                       recv_timeout_s=FAST_TIMEOUT).run(program)


class TestTimeoutConfiguration:
    def test_default(self):
        assert resolve_recv_timeout(None) == DEFAULT_RECV_TIMEOUT_S

    def test_env_wins_over_explicit(self, monkeypatch):
        """The env var is the operator's emergency override: it beats
        even an explicit ``Config.recv_timeout_s`` so CI/chaos harnesses
        can shrink the timeout for a whole run without editing configs."""
        monkeypatch.setenv(RECV_TIMEOUT_ENV_VAR, "5")
        assert resolve_recv_timeout(2.5) == 5.0

    def test_explicit_wins_without_env(self, monkeypatch):
        monkeypatch.delenv(RECV_TIMEOUT_ENV_VAR, raising=False)
        assert resolve_recv_timeout(2.5) == 2.5

    def test_env_overrides_config_recv_timeout(self, monkeypatch):
        from repro.core import FAST

        cfg = FAST.derive(recv_timeout_s=30.0)
        monkeypatch.setenv(RECV_TIMEOUT_ENV_VAR, "0.5")
        eng = get_engine("sim", 2, recv_timeout_s=cfg.recv_timeout_s)
        assert eng.recv_timeout_s == 0.5

    def test_timeout_error_names_pe_peer_and_tag(self):
        def program(comm):
            if comm.rank == 0:
                comm.recv(1, tag=77)
            else:
                comm.barrier()

        for engine in ("process", "sim"):
            with pytest.raises(DeadlockError) as exc_info:
                get_engine(engine, 2, recv_timeout_s=1.0).run(program)
            message = str(exc_info.value)
            assert "PE 0" in message       # who was waiting
            assert "1" in message          # on which peer
            assert "tag=77" in message     # for which tag

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(RECV_TIMEOUT_ENV_VAR, "0.75")
        assert resolve_recv_timeout(None) == 0.75
        eng = get_engine("sim", 2)
        assert eng.recv_timeout_s == 0.75

    def test_env_var_invalid(self, monkeypatch):
        monkeypatch.setenv(RECV_TIMEOUT_ENV_VAR, "soon")
        with pytest.raises(ValueError):
            resolve_recv_timeout(None)
        monkeypatch.setenv(RECV_TIMEOUT_ENV_VAR, "-1")
        with pytest.raises(ValueError):
            resolve_recv_timeout(None)

    def test_explicit_invalid(self):
        with pytest.raises(ValueError):
            resolve_recv_timeout(0.0)

    def test_timeout_bounds_the_hang(self, monkeypatch):
        import time

        def program(comm):
            if comm.rank == 0:
                comm.recv(1, tag=0)

        t0 = time.monotonic()
        with pytest.raises(DeadlockError):
            get_engine("sim", 2, recv_timeout_s=0.3).run(program)
        assert time.monotonic() - t0 < DEFAULT_RECV_TIMEOUT_S / 2

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_slow_pe_result_is_not_dropped(self, engine, monkeypatch):
        """A PE that computes past ``10 * recv_timeout_s`` without talking
        is slow, not deadlocked: the engine must wait for it instead of
        returning ``None`` in its result slot."""
        import time

        monkeypatch.delenv(RECV_TIMEOUT_ENV_VAR, raising=False)

        def program(comm):
            if comm.rank == 1:
                time.sleep(1.5)
            return comm.rank

        res = get_engine(engine, 2, recv_timeout_s=0.1).run(program)
        assert res.results == [0, 1]

    def test_config_field_flows_to_engine(self):
        from repro.core import FAST

        cfg = FAST.derive(recv_timeout_s=1.25)
        assert cfg.recv_timeout_s == 1.25
        with pytest.raises(ValueError):
            FAST.derive(recv_timeout_s=-2.0)
        with pytest.raises(ValueError):
            FAST.derive(engine="quantum")


class TestCommProtocol:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_communicators_satisfy_protocol(self, engine):
        seen = []

        def program(comm):
            seen.append(isinstance(comm, Comm))

        get_engine(engine, 1).run(program)
        # process engine communicators live in the workers; the check
        # itself ran there, and a protocol violation would have raised
        if engine != "process":
            assert seen == [True]

    def test_registry_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("quantum", 2)

    def test_threads_engine_is_gone(self):
        """The retired ``threads`` engine is an unknown name like any
        other: a clean ``ValueError`` that lists what is available."""
        from repro.core import KappaConfig

        assert set(ENGINES) == {"sequential", "sim", "process"}
        for make in (lambda: get_engine("threads", 2),
                     lambda: KappaConfig(engine="threads")):
            with pytest.raises(ValueError,
                               match="unknown engine 'threads'") as exc:
                make()
            for name in ENGINES:
                assert name in str(exc.value)

    def test_engine_needs_a_pe(self):
        with pytest.raises(ValueError):
            get_engine("sim", 0)


class TestSharedGraph:
    def test_roundtrip_without_processes(self):
        from repro.engine.shm import SharedGraph
        from repro.generators import random_geometric_graph

        g = random_geometric_graph(300, seed=2)
        sg = SharedGraph(g)
        try:
            h = sg.graph()
            assert h.n == g.n and h.m == g.m
            assert np.array_equal(h.xadj, g.xadj)
            assert np.array_equal(h.adjncy, g.adjncy)
            assert np.array_equal(h.adjwgt, g.adjwgt)
            assert np.array_equal(h.vwgt, g.vwgt)
            assert np.array_equal(h.coords, g.coords)
        finally:
            sg.cleanup()

    def test_graph_arg_shared_to_workers(self):
        from repro.generators import random_geometric_graph

        g = random_geometric_graph(200, seed=3)

        def program(comm, graph):
            return float(graph.adjwgt.sum()) + graph.n

        res = get_engine("process", 2).run(program, g)
        expected = float(g.adjwgt.sum()) + g.n
        assert res.results == [expected, expected]


class TestEngineFailure:
    def test_dead_worker_is_reported(self):
        def program(comm):
            if comm.rank == 1:
                import os

                os._exit(13)  # simulate a crash that skips reporting
            comm.barrier()

        with pytest.raises(EngineFailure, match="PE 1"):
            get_engine("process", 2, recv_timeout_s=FAST_TIMEOUT).run(program)
