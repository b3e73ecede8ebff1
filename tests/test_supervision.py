"""Unit tests for the supervision layer (repro.runtime.supervision).

The supervisor's contract: a supervised run is a **pure function** of
``(request, seed)`` — backoff delays come from a cryptographic hash, never
wall clock or a shared RNG — each ladder rung gets a bounded retry budget
before the ladder downgrades, and every recovery step is recorded as a
structured audit event.  An undisturbed run carries no trail at all.
"""

import time

import pytest

from repro.api import (RegistryError, RunRequest, build_executor, execute,
                       executor_registry)
from repro.api import executors
from repro.api.executors import SupervisedExecutor
from repro.core.engine import numpy_available
from repro.runtime.errors import (ConfigurationError, FabricError,
                                  SupervisionExhaustedError, WorkerDiedError)
from repro.runtime.supervision import (DEFAULT_LADDER, RetryPolicy,
                                       RungUnavailable, Supervisor,
                                       backoff_fraction, checkpoint_retry_event,
                                       completed_event, downgrade_event,
                                       pool_retry_record, retry_event,
                                       skip_event)
from tests.helpers import run_supervised
from tests.parity import assert_same_outcome


def small_request(**overrides):
    fields = dict(protocol="exponential", n=7, t=2, initial_value=1,
                  faulty=(1, 2), adversary="two-faced", seed=11)
    fields.update(overrides)
    return RunRequest(**fields)


def _hang_in_pool_worker(request):  # pragma: no cover - runs in the worker
    """A pool worker that never replies (killed at the rung's deadline)."""
    time.sleep(60.0)


class TestBackoff:
    def test_fraction_is_deterministic_and_bounded(self):
        for key in ("", "a", "42:3:batched"):
            for attempt in range(1, 5):
                value = backoff_fraction(key, attempt)
                assert value == backoff_fraction(key, attempt)
                assert 0.0 <= value < 1.0

    def test_fraction_varies_with_key_and_attempt(self):
        values = {backoff_fraction(key, attempt)
                  for key in ("a", "b") for attempt in (1, 2, 3)}
        assert len(values) == 6

    def test_delay_is_pure_and_grows_exponentially(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1,
                             backoff_factor=2.0, max_delay=100.0, jitter=0.0)
        assert policy.delay("k", 1) == pytest.approx(0.1)
        assert policy.delay("k", 2) == pytest.approx(0.2)
        assert policy.delay("k", 3) == pytest.approx(0.4)
        assert policy.delay("k", 3) == policy.delay("k", 3)

    def test_delay_caps_at_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, backoff_factor=10.0,
                             max_delay=2.0, jitter=0.0)
        assert policy.delay("k", 3) == pytest.approx(2.0)

    def test_jitter_stretches_at_most_the_jitter_fraction(self):
        policy = RetryPolicy(base_delay=1.0, backoff_factor=1.0, jitter=0.25)
        delay = policy.delay("k", 1)
        assert 1.0 <= delay <= 1.25

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one attempt"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="negative"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay("k", 0)


class TestEventVocabulary:
    def test_retry_event_shape(self):
        event = retry_event("pool", 1, WorkerDiedError("pipe gone"), 0.05)
        assert event == {"event": "retry", "stage": "pool", "attempt": 1,
                        "delay": 0.05, "error": "WorkerDiedError",
                        "detail": "pipe gone"}

    def test_downgrade_skip_completed(self):
        down = downgrade_event("pool", "serial", OSError("enospc"))
        assert (down["event"], down["from"], down["to"]) == (
            "downgrade", "pool", "serial")
        assert skip_event("batched", "no numpy") == {
            "event": "skip", "stage": "batched", "reason": "no numpy"}
        assert completed_event("pool", 2) == {
            "event": "completed", "stage": "pool", "attempt": 2}

    def test_pool_and_checkpoint_records_share_the_vocabulary(self):
        pool = pool_retry_record(2, OSError("x"), "serial")
        assert (pool["event"], pool["stage"], pool["fallback"]) == (
            "retry", "pool", "serial")
        ckpt = checkpoint_retry_event(1, OSError("x"), 0.01)
        assert (ckpt["event"], ckpt["stage"]) == ("retry", "checkpoint")

    def test_long_error_detail_is_truncated(self):
        event = retry_event("pool", 1, OSError("x" * 500), 0.0)
        assert len(event["detail"]) == 200


class TestSupervisor:
    def test_first_rung_success_has_empty_trail(self):
        result, trail = Supervisor([("only", lambda: 42)]).run()
        assert result == 42
        assert trail == []

    def test_retry_then_success_is_audited(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise WorkerDiedError("boom")
            return "ok"

        slept = []
        supervisor = Supervisor([("stage", flaky)],
                                retry=RetryPolicy(max_attempts=3,
                                                  base_delay=0.01),
                                key="k", sleep=slept.append)
        result, trail = supervisor.run()
        assert result == "ok"
        events = [e["event"] for e in trail]
        assert events == ["retry", "retry", "completed"]
        assert trail[-1]["attempt"] == 3
        # The sleeps are exactly the policy's deterministic delays.
        policy = RetryPolicy(max_attempts=3, base_delay=0.01)
        assert slept == [policy.delay("k:stage", 1), policy.delay("k:stage", 2)]

    def test_exhausted_rung_downgrades_to_the_next(self):
        def dead():
            raise WorkerDiedError("always")

        result, trail = Supervisor(
            [("pool", dead), ("serial", lambda: "fallback")],
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            sleep=lambda _: None).run()
        assert result == "fallback"
        events = [(e["event"], e.get("stage", e.get("from"))) for e in trail]
        assert events == [("retry", "pool"), ("downgrade", "pool"),
                          ("completed", "serial")]
        assert trail[1]["to"] == "serial"

    def test_unavailable_rung_is_skipped_without_retries(self):
        calls = []

        def unavailable():
            calls.append(1)
            raise RungUnavailable("not batched-eligible")

        result, trail = Supervisor(
            [("batched", unavailable), ("serial", lambda: "ok")],
            sleep=lambda _: None).run()
        assert result == "ok"
        assert len(calls) == 1  # skips never burn the retry budget
        # A skip alone is an environment property, not a recovery: the run
        # is undisturbed and reports no trail (numpy-less environments stay
        # metadata-free).
        assert trail == []

    def test_skips_are_preserved_when_a_recovery_also_happened(self):
        attempts = []

        def unavailable():
            raise RungUnavailable("no numpy")

        def flaky():
            attempts.append(1)
            if len(attempts) < 2:
                raise WorkerDiedError("boom")
            return "ok"

        result, trail = Supervisor(
            [("batched", unavailable), ("pool", flaky)],
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            sleep=lambda _: None).run()
        assert result == "ok"
        assert [e["event"] for e in trail] == ["skip", "retry", "completed"]
        assert trail[0] == {"event": "skip", "stage": "batched",
                            "reason": "no numpy"}

    def test_unrecoverable_error_propagates_immediately(self):
        def broken_config():
            raise ConfigurationError("bad request")

        with pytest.raises(ConfigurationError, match="bad request"):
            Supervisor([("a", broken_config), ("b", lambda: "never")],
                       sleep=lambda _: None).run()

    def test_every_rung_failing_raises_the_named_exhaustion_error(self):
        def dead():
            raise WorkerDiedError("gone")

        supervisor = Supervisor([("a", dead), ("b", dead)],
                                retry=RetryPolicy(max_attempts=1),
                                sleep=lambda _: None)
        with pytest.raises(SupervisionExhaustedError, match="every rung"):
            supervisor.run()
        try:
            supervisor.run()
        except SupervisionExhaustedError as exc:
            assert isinstance(exc, FabricError)
            assert isinstance(exc.__cause__, WorkerDiedError)

    def test_needs_at_least_one_rung(self):
        with pytest.raises(ValueError, match="at least one rung"):
            Supervisor([])

    def test_every_rung_unavailable_exhausts_without_hanging(self):
        """All-skip ladders terminate with the named error, never a hang."""
        calls = []

        def unavailable(stage):
            def thunk():
                calls.append(stage)
                raise RungUnavailable(f"{stage} does not apply")
            return thunk

        slept = []
        supervisor = Supervisor(
            [("batched", unavailable("batched")),
             ("pool", unavailable("pool"))],
            retry=RetryPolicy(max_attempts=3, base_delay=1.0),
            sleep=slept.append)
        with pytest.raises(SupervisionExhaustedError, match="every rung"):
            supervisor.run()
        # Each unavailable rung is probed exactly once: skips never burn
        # the retry budget, so nothing backed off and nothing slept.
        assert calls == ["batched", "pool"]
        assert slept == []

    def test_max_attempts_one_downgrades_after_a_single_failure(self):
        attempts = []

        def dead():
            attempts.append(1)
            raise WorkerDiedError("gone")

        slept = []
        result, trail = Supervisor(
            [("pool", dead), ("serial", lambda: "ok")],
            retry=RetryPolicy(max_attempts=1),
            sleep=slept.append).run()
        assert result == "ok"
        assert len(attempts) == 1
        assert slept == []  # one attempt per rung leaves no room to back off
        assert [e["event"] for e in trail] == ["downgrade", "completed"]

    def test_max_attempts_one_with_every_rung_dead_exhausts(self):
        def dead():
            raise WorkerDiedError("gone")

        supervisor = Supervisor([("pool", dead)],
                                retry=RetryPolicy(max_attempts=1),
                                sleep=lambda _: None)
        with pytest.raises(SupervisionExhaustedError):
            supervisor.run()

    def test_mixed_skip_and_failure_ladder_exhausts_with_both_audited(self):
        def unavailable():
            raise RungUnavailable("no numpy")

        def dead():
            raise WorkerDiedError("gone")

        supervisor = Supervisor([("batched", unavailable), ("pool", dead)],
                                retry=RetryPolicy(max_attempts=1),
                                sleep=lambda _: None)
        try:
            supervisor.run()
        except SupervisionExhaustedError as exc:
            assert "batched" in str(exc) and "pool" in str(exc)
        else:  # pragma: no cover - the raise is the point
            raise AssertionError("expected SupervisionExhaustedError")


class TestSupervisedExecutor:
    def test_registered_with_schema(self):
        entry = executor_registry()["supervised"]
        assert set(entry.schema) == {"ladder", "max_attempts", "base_delay",
                                     "backoff_factor", "deadline", "chaos"}

    def test_build_by_name_promotes_integral_floats(self):
        # JSON has one number type: deadline=5 (an int literal) must build.
        executor = build_executor("supervised", {"deadline": 5,
                                                 "max_attempts": 2})
        assert isinstance(executor, SupervisedExecutor)
        assert executor.deadline == 5.0
        assert executor.retry.max_attempts == 2

    def test_rejects_unknown_ladder_rungs(self):
        with pytest.raises(ConfigurationError, match="unknown ladder rung"):
            SupervisedExecutor(ladder=["batched", "sharded"])
        with pytest.raises(ConfigurationError, match="at least one rung"):
            SupervisedExecutor(ladder=[])

    def test_rejects_bad_deadline(self):
        with pytest.raises(ConfigurationError, match="positive seconds"):
            SupervisedExecutor(deadline=0.0)

    def test_empty_ladder_rejected_whatever_the_retry_budget(self):
        # max_attempts=1 must not sneak an empty ladder past validation:
        # the ladder check runs first and wins.
        with pytest.raises(ConfigurationError, match="at least one rung"):
            SupervisedExecutor(ladder=[], max_attempts=1)

    def test_deadline_zero_rejected_through_the_registry_too(self):
        with pytest.raises((RegistryError, ConfigurationError),
                           match="positive seconds"):
            build_executor("supervised", {"deadline": 0})

    def test_default_ladder(self):
        assert SupervisedExecutor().ladder == DEFAULT_LADDER
        assert DEFAULT_LADDER == ("batched", "pool", "serial")

    @staticmethod
    def _serial_floor(monkeypatch, request):
        """Run *request* on the serial floor; return its report and engines."""
        from repro.core.shifting import ShiftingEIGProcessor
        built = []
        real_init = ShiftingEIGProcessor.__init__

        def recording_init(processor, *args, **kwargs):
            real_init(processor, *args, **kwargs)
            built.append(processor.engine)

        monkeypatch.setattr(ShiftingEIGProcessor, "__init__", recording_init)
        with SupervisedExecutor(ladder=("serial",)) as runner:
            runner.submit(request)
            [(_, report)] = list(runner.iter_reports())
        return report, built

    def test_serial_floor_steps_a_batched_plan_on_fast(self, monkeypatch):
        """The floor runs unbatched and reports the engine that ran."""
        request = RunRequest(protocol="exponential", n=10, t=3,
                             initial_value=1, scenario="faulty-source-allies",
                             battery="worst-case")
        report, built = self._serial_floor(monkeypatch, request)
        assert report.engine_resolved == "fast"
        assert built and set(built) == {"fast"}
        assert_same_outcome(report, execute(request))

    @pytest.mark.parametrize("engine", [
        "reference",
        pytest.param("numpy", marks=pytest.mark.skipif(
            not numpy_available(), reason="numpy not installed"))])
    def test_serial_floor_runs_an_explicit_engine_as_asked(self, monkeypatch,
                                                           engine):
        request = RunRequest(protocol="exponential", n=10, t=3,
                             initial_value=1, scenario="faulty-source-allies",
                             battery="worst-case", engine=engine)
        report, built = self._serial_floor(monkeypatch, request)
        assert report.engine == report.engine_resolved == engine
        assert built and set(built) == {engine}
        assert_same_outcome(report, execute(request))

    def test_pool_only_ladder_matches_execute(self):
        request = small_request()
        supervised = run_supervised(request, ladder=["pool"], deadline=30.0)
        assert supervised.metadata == {}
        assert_same_outcome(supervised, execute(request))

    def test_pool_worker_past_its_deadline_downgrades_to_serial(
            self, monkeypatch):
        monkeypatch.setattr(executors, "_execute_for_pool",
                            _hang_in_pool_worker)
        request = small_request()
        started = time.monotonic()
        report = run_supervised(request, ladder=["pool", "serial"],
                                deadline=0.5, max_attempts=1)
        assert time.monotonic() - started < 30.0
        assert_same_outcome(report, execute(request))
        trail = report.metadata["resilience"]
        assert [(e["event"], e.get("stage", e.get("from"))) for e in trail] \
            == [("downgrade", "pool"), ("completed", "serial")]
        assert trail[0]["error"] == "WorkerTimeoutError"
        assert trail[0]["to"] == "serial"

    def test_outcome_dict_drops_only_execution_side_fields(self):
        report = execute(small_request())
        outcome = report.outcome_dict()
        full = report.to_dict()
        assert "engine" not in outcome
        assert "engine_resolved" not in outcome
        assert "metadata" not in outcome
        for key, value in outcome.items():
            assert full[key] == value
        assert set(full) - set(outcome) <= {"engine", "engine_resolved",
                                            "metadata"}
