"""End-to-end fault injection and recovery: the headline guarantee.

A PE crashed mid-pipeline and resumed from phase-boundary checkpoints
must produce a partition **bit-identical** to the fault-free run — both
via the supervised auto-restart path (one call, ``on_pe_failure=
"restart"``) and via the manual path (``fail`` → re-run against the same
checkpoint directory).  Injected faults only ever perturb *timing* and
*which phases are recomputed*, never payloads, so every completed chaos
run agrees with the golden partition to the last label.
"""

import time

import numpy as np
import pytest

from repro.core import MINIMAL
from repro.core.partitioner import KappaPartitioner, partition_graph
from repro.engine import DeadlockError, EngineFailure, get_engine
from repro.generators import delaunay_graph, random_geometric_graph
from repro.instrument import Tracer
from repro.core.reporting import format_trace_summary
from repro.resilience import InjectedCrash, ResiliencePolicy

GRAPHS = {
    "rgg": lambda: random_geometric_graph(300, seed=21),
    "delaunay": lambda: delaunay_graph(280, seed=22),
}
SEED = 5


@pytest.fixture(scope="module")
def goldens():
    """Fault-free sequential-engine partition per (family, k)."""
    out = {}
    for family, make in GRAPHS.items():
        g = make()
        for k in (2, 4):
            res = partition_graph(g, k, config=MINIMAL, seed=SEED,
                                  execution="cluster", engine="sequential")
            out[(family, k)] = (g, res.partition.part)
    return out


class TestCrashRecoveryBitIdentical:
    """The acceptance test: pe1 crashes during refinement on the process
    engine, the run recovers from checkpoints, and the result matches the
    fault-free golden bit for bit."""

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    def test_supervised_restart(self, goldens, tmp_path, family, k):
        g, golden = goldens[(family, k)]
        cfg = MINIMAL.derive(
            faults="pe1:crash@refine:level0",
            checkpoint_dir=str(tmp_path / "ckpts"),
            on_pe_failure="restart",
            max_restarts=2,
        )
        tracer = Tracer()
        res = KappaPartitioner(cfg).partition(
            g, k, seed=SEED, execution="cluster", engine="process",
            tracer=tracer)
        assert np.array_equal(res.partition.part, golden)
        assert res.partition.is_feasible()
        # the crash really happened and recovery really ran
        assert res.stats["fault_injected_crashes"] == 1.0
        assert res.stats["fault_pe_restarts"] >= 1.0
        assert res.stats["checkpoint_restores"] >= 1.0
        assert res.stats["recovery_time_s"] > 0.0
        # ... and is visible in the trace summary
        summary = format_trace_summary(res.trace)
        assert "resilience:" in summary
        assert "fault_injected_crashes" in summary
        assert "recovery_time_s" in summary

    @pytest.mark.parametrize("family,k", [("rgg", 2), ("delaunay", 4)])
    def test_manual_resume_after_fail(self, goldens, tmp_path, family, k):
        """Default failure mode: the crash surfaces as EngineFailure; a
        re-run (without faults) against the same checkpoint directory
        fast-forwards and still matches the golden."""
        g, golden = goldens[(family, k)]
        ckpts = str(tmp_path / "ckpts")
        chaos = MINIMAL.derive(faults="pe1:crash@refine:level0",
                               checkpoint_dir=ckpts)
        with pytest.raises(EngineFailure, match="PE 1"):
            partition_graph(g, k, config=chaos, seed=SEED,
                            execution="cluster", engine="process")
        resume = MINIMAL.derive(checkpoint_dir=ckpts)
        res = partition_graph(g, k, config=resume, seed=SEED,
                              execution="cluster", engine="process")
        assert np.array_equal(res.partition.part, golden)
        assert res.stats["checkpoint_restores"] >= 1.0

    def test_restored_final_reports_phase_gauges(self, tmp_path):
        """A re-run that restores the ``final`` checkpoint runs no phase,
        yet still reports every phase gauge (0.0), so readers of
        ``phase_*_max_s`` see the same keys on every cluster run."""
        g = random_geometric_graph(400, seed=1)
        cfg = MINIMAL.derive(checkpoint_dir=str(tmp_path / "ckpts"))
        first, again = (
            KappaPartitioner(cfg).partition(g, 4, seed=7,
                                            execution="cluster",
                                            engine="sequential")
            for _ in range(2))
        assert np.array_equal(first.partition.part, again.partition.part)
        assert again.stats["checkpoint_restores"] >= 1.0
        for phase in ("coarsening", "initial_partitioning", "refinement"):
            assert first.stats[f"phase_{phase}_max_s"] > 0.0
            assert again.stats[f"phase_{phase}_max_s"] == 0.0

    def test_crash_at_earlier_boundary(self, goldens, tmp_path):
        """Recovery is not special to refinement: a crash at the initial-
        partitioning boundary recovers the same way."""
        g, golden = goldens[("rgg", 4)]
        cfg = MINIMAL.derive(
            faults="pe1:crash@initial",
            checkpoint_dir=str(tmp_path / "ckpts"),
            on_pe_failure="restart",
        )
        res = partition_graph(g, 4, config=cfg, seed=SEED,
                              execution="cluster", engine="process")
        assert np.array_equal(res.partition.part, golden)


class TestMessageChaos:
    def test_drop_delay_dup_leave_result_bit_identical(self, goldens):
        """Message faults model an unreliable network under a reliable
        transport: pure timing perturbation.  The partition must not
        move, and the counters must prove the faults actually fired."""
        g, golden = goldens[("rgg", 2)]
        cfg = MINIMAL.derive(faults="drop=0.05,delay=200us,dup=0.05")
        res = partition_graph(g, 2, config=cfg, seed=SEED,
                              execution="cluster", engine="process")
        assert np.array_equal(res.partition.part, golden)
        assert res.stats["fault_messages_delayed"] > 0
        assert res.stats["fault_messages_dropped"] > 0
        assert res.stats["fault_messages_duplicated"] > 0


class TestDegradedRecovery:
    def test_degrade_sheds_dead_pe_and_matches_smaller_gang(self, tmp_path):
        """``on_pe_failure="degrade"``: the dead PE's blocks re-multiplex
        onto the survivors.  The degraded run is a fresh (p-1)-PE run, so
        it must agree bit-exactly with a fault-free (p-1)-PE run."""
        g = random_geometric_graph(260, seed=23)
        cfg = MINIMAL.derive(
            n_pes=3,
            faults="pe2:crash@initial",
            checkpoint_dir=str(tmp_path / "ckpts"),
            on_pe_failure="degrade",
        )
        res = partition_graph(g, 4, config=cfg, seed=SEED,
                              execution="cluster", engine="process")
        ref = partition_graph(g, 4, config=MINIMAL.derive(n_pes=2),
                              seed=SEED, execution="cluster",
                              engine="process")
        assert np.array_equal(res.partition.part, ref.partition.part)
        assert res.partition.is_feasible()
        assert res.stats["fault_pes_lost"] == 1.0
        assert res.stats["fault_degraded_pes"] == 2.0


class TestCrossEngineCheckpoints:
    def test_sequential_crash_resumes_on_process_engine(self, goldens,
                                                        tmp_path):
        """Checkpoints use the engine-portable wire codec and the config
        hash excludes the engine choice, so a run crashed on one engine
        resumes on another."""
        g, golden = goldens[("rgg", 4)]
        ckpts = str(tmp_path / "ckpts")
        chaos = MINIMAL.derive(faults="pe1:crash@refine:level0",
                               checkpoint_dir=ckpts)
        with pytest.raises(InjectedCrash):
            partition_graph(g, 4, config=chaos, seed=SEED,
                            execution="cluster", engine="sequential")
        resume = MINIMAL.derive(checkpoint_dir=ckpts)
        res = partition_graph(g, 4, config=resume, seed=SEED,
                              execution="cluster", engine="process")
        assert np.array_equal(res.partition.part, golden)
        assert res.stats["checkpoint_restores"] >= 1.0

    def test_checkpoint_only_run_restores_final(self, goldens, tmp_path):
        """A completed checkpointed run re-invoked with the same identity
        replays the stored final state instead of recomputing."""
        g, golden = goldens[("rgg", 2)]
        cfg = MINIMAL.derive(checkpoint_dir=str(tmp_path / "ckpts"))
        first = partition_graph(g, 2, config=cfg, seed=SEED,
                                execution="cluster", engine="sequential")
        assert first.stats["checkpoint_saves"] >= 1.0
        second = partition_graph(g, 2, config=cfg, seed=SEED,
                                 execution="cluster", engine="sequential")
        assert np.array_equal(second.partition.part, golden)
        assert second.stats["checkpoint_restores"] >= 1.0

    def test_mismatched_seed_refuses_resume(self, goldens, tmp_path):
        from repro.resilience import CheckpointMismatch

        g, _ = goldens[("rgg", 2)]
        cfg = MINIMAL.derive(checkpoint_dir=str(tmp_path / "ckpts"))
        partition_graph(g, 2, config=cfg, seed=SEED,
                        execution="cluster", engine="sequential")
        with pytest.raises(CheckpointMismatch, match="seed"):
            partition_graph(g, 2, config=cfg, seed=SEED + 1,
                            execution="cluster", engine="sequential")


class TestRecvRetries:
    def test_retry_ladder_rides_out_slow_peer(self):
        """recv_retries gives a slow (but alive) peer more rounds with a
        doubled timeout instead of declaring deadlock at first silence."""

        def late_sender(comm):
            if comm.rank == 0:
                return comm.recv(1, tag=3)
            time.sleep(1.0)
            comm.send("late", 0, tag=3)
            return "sent"

        policy = ResiliencePolicy(recv_retries=3)
        eng = get_engine("process", 2, recv_timeout_s=0.25,
                         resilience=policy)
        res = eng.run(late_sender)
        assert res.results[0] == "late"
        assert res.metrics["counters"].get("fault_recv_retries", 0) >= 1

    def test_without_retries_the_same_program_deadlocks(self):
        def late_sender(comm):
            if comm.rank == 0:
                return comm.recv(1, tag=3)
            time.sleep(1.0)
            comm.send("late", 0, tag=3)
            return "sent"

        with pytest.raises(DeadlockError, match="tag=3"):
            get_engine("process", 2, recv_timeout_s=0.25).run(late_sender)
