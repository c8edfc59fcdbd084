"""Fault-spec parsing and the deterministic message-fault injector."""

import pytest

from repro.observability import MetricsRegistry
from repro.resilience import (
    FaultClause,
    FaultPlan,
    FaultSpecError,
    MessageFaultInjector,
    parse_duration,
)


class TestParseDuration:
    @pytest.mark.parametrize("text,seconds", [
        ("5ms", 0.005),
        ("0.2s", 0.2),
        ("250us", 250e-6),
        ("1.5", 1.5),      # plain number = seconds
        (" 10ms ", 0.010),  # whitespace tolerated
    ])
    def test_values(self, text, seconds):
        assert parse_duration(text) == pytest.approx(seconds)

    @pytest.mark.parametrize("text", ["", "fast", "5m", "-1s", "ms"])
    def test_rejects_garbage(self, text):
        with pytest.raises(FaultSpecError):
            parse_duration(text)


class TestFaultPlanParse:
    def test_empty_specs_mean_no_faults(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse(" , ")

    def test_boundary_clause(self):
        plan = FaultPlan.parse("pe1:crash@refine:level2")
        assert plan.clauses == (
            FaultClause(kind="crash", rank=1, phase="refine:level2"),
        )

    def test_hang_clause_without_rank_applies_to_all(self):
        (clause,) = FaultPlan.parse("hang@initial").clauses
        assert clause.kind == "hang" and clause.rank is None
        assert clause.matches_rank(0) and clause.matches_rank(7)

    def test_message_clauses(self):
        plan = FaultPlan.parse("drop=0.01,delay=5ms,pe2:dup=0.5")
        kinds = {c.kind: c for c in plan.clauses}
        assert kinds["drop"].value == pytest.approx(0.01)
        assert kinds["delay"].value == pytest.approx(0.005)
        assert kinds["dup"].rank == 2
        assert plan.has_message_faults

    def test_boundary_only_plan_has_no_message_faults(self):
        assert not FaultPlan.parse("pe0:crash@final").has_message_faults

    @pytest.mark.parametrize("spec", [
        "explode@initial",          # unknown boundary kind
        "crash@",                   # missing phase
        "drop=maybe",               # not a probability
        "drop=1.5",                 # out of range
        "crash",                    # neither @phase nor =value
        "pe1:delay",                # ditto, with rank prefix
        "latency=5ms",              # unknown message kind
    ])
    def test_bad_clause_raises_with_offender_named(self, spec):
        with pytest.raises(FaultSpecError) as exc_info:
            FaultPlan.parse(spec)
        assert spec.split("@")[0].split("=")[0] in str(exc_info.value)

    def test_plan_is_picklable(self):
        import pickle

        plan = FaultPlan.parse("pe1:crash@initial,drop=0.1")
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestBoundaryFault:
    plan = FaultPlan.parse("pe1:crash@refine:level2,pe0:hang@final")

    def test_fires_for_matching_rank_and_phase(self):
        clause = self.plan.boundary_fault(1, "refine:level2", attempt=0)
        assert clause is not None and clause.kind == "crash"

    def test_silent_for_other_rank_or_phase(self):
        assert self.plan.boundary_fault(0, "refine:level2", 0) is None
        assert self.plan.boundary_fault(1, "refine:level1", 0) is None

    def test_one_shot_only_on_first_attempt(self):
        """A restarted gang must not re-crash, or recovery never ends."""
        assert self.plan.boundary_fault(1, "refine:level2", attempt=1) is None
        assert self.plan.boundary_fault(1, "refine:level2", attempt=2) is None


class TestMessageProfile:
    def test_scoped_to_rank(self):
        plan = FaultPlan.parse("pe2:drop=0.1")
        assert plan.message_profile(2) == (0.1, 0.0, 0.0)
        assert plan.message_profile(0) == (0.0, 0.0, 0.0)

    def test_probabilities_add_and_cap(self):
        plan = FaultPlan.parse("drop=0.8,pe1:drop=0.8,delay=2ms,delay=3ms")
        drop, delay, dup = plan.message_profile(1)
        assert drop == 1.0  # capped
        assert delay == pytest.approx(0.005)  # summed
        assert dup == 0.0


class TestMessageFaultInjector:
    def _make(self, spec, rank=0, seed=7, attempt=0, metrics=None):
        return MessageFaultInjector(
            FaultPlan.parse(spec), rank, seed, attempt,
            metrics if metrics is not None else MetricsRegistry(),
        )

    def test_inactive_without_message_faults(self):
        assert not self._make("pe0:crash@final").active

    def test_deterministic_per_seed_rank_attempt(self):
        # fresh injectors replay the identical decision stream ...
        inj1 = self._make("drop=0.5,dup=0.5")
        inj2 = self._make("drop=0.5,dup=0.5")
        seq1 = [inj1.plan_send() for _ in range(50)]
        seq2 = [inj2.plan_send() for _ in range(50)]
        assert seq1 == seq2
        # ... while a different attempt draws a different one
        inj3 = self._make("drop=0.5,dup=0.5", attempt=1)
        assert [inj3.plan_send() for _ in range(50)] != seq1

    def test_counters_and_outcomes(self):
        metrics = MetricsRegistry()
        inj = self._make("drop=1,dup=1,delay=1ms", metrics=metrics)
        sleep_s, copies = inj.plan_send()
        assert copies == 2  # dup fired (p=1)
        assert sleep_s == pytest.approx(0.001 + inj.rto_s)
        assert metrics.export()["counters"] == {
            "fault_messages_delayed": 1.0,
            "fault_messages_dropped": 1.0,
            "fault_messages_duplicated": 1.0,
        }

    def test_rto_floor(self):
        assert self._make("drop=1").rto_s == pytest.approx(0.02)
        assert self._make("drop=1,delay=50ms").rto_s == pytest.approx(0.1)
