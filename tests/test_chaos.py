"""Property tests for the infrastructure chaos harness (repro.runtime.chaos).

The central property: for every fault schedule the fabric is specified to
survive, the recovered run's report is **byte-identical** to an undisturbed
run (:func:`~tests.parity.assert_same_outcome` over
:meth:`RunReport.outcome_dict` — the serialized outcome minus the
execution-side engine/metadata fields) and the recovery is documented in
``metadata["resilience"]``.  Schedules the fabric is *not* specified to
survive raise named errors — never a hang.
"""

import json
import time

import pytest

from repro.api import (RunRequest, SweepSpec, execute, read_checkpoint,
                       run_sweep)
from repro.api import executors
from repro.api.executors import PoolExecutor
from repro.runtime.chaos import (ChaosController, ChaosPolicy, FaultInjection,
                                 build_chaos, chaos_scope, current_chaos)
from repro.runtime.errors import (CheckpointWriteError, ConfigurationError,
                                  SupervisionExhaustedError)
from tests.helpers import run_supervised
from tests.parity import assert_same_outcome

#: Generous wall-clock ceiling: a hang trips the assert, recovery never does.
_NO_HANG_SECONDS = 60.0

def small_request(**overrides):
    fields = dict(protocol="exponential", n=7, t=2, initial_value=1,
                  faulty=(1, 2), adversary="two-faced", seed=11)
    fields.update(overrides)
    return RunRequest(**fields)


# ---------------------------------------------------------------------------
# The data model: validation, serialization, controller semantics.
# ---------------------------------------------------------------------------

class TestFaultInjection:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos fault"):
            FaultInjection(kind="cosmic-ray")

    def test_times_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="at least once"):
            FaultInjection(kind="pool-worker-kill", times=0)

    def test_round_trip_is_minimal(self):
        fault = FaultInjection(kind="pool-worker-kill", index=2)
        assert fault.to_dict() == {"kind": "pool-worker-kill", "index": 2}
        assert FaultInjection.from_dict(fault.to_dict()) == fault

    @pytest.mark.parametrize("field", ["cpu", "shard", "round", "delay"])
    def test_unknown_field_rejected(self, field):
        with pytest.raises(ConfigurationError, match="unknown chaos fault"):
            FaultInjection.from_dict({"kind": "pool-worker-kill", field: 3})


class TestChaosPolicy:
    def test_policy_round_trips(self):
        policy = ChaosPolicy(name="torture", faults=(
            FaultInjection(kind="pool-worker-kill", index=1),
            FaultInjection(kind="checkpoint-write-fail", times=2)))
        data = policy.to_dict()
        assert data["kind"] == "repro-chaos-policy"
        assert ChaosPolicy.from_dict(data) == policy
        assert ChaosPolicy.from_dict(json.loads(json.dumps(data))) == policy

    def test_bare_fault_list_is_a_policy(self):
        policy = ChaosPolicy.from_dict([{"kind": "cache-write-fail",
                                         "index": 2}])
        assert policy.faults[0].kind == "cache-write-fail"

    def test_wrong_kind_and_version_refused(self):
        with pytest.raises(ConfigurationError, match="not a chaos policy"):
            ChaosPolicy.from_dict({"kind": "something-else"})
        with pytest.raises(ConfigurationError, match="version"):
            ChaosPolicy.from_dict({"kind": "repro-chaos-policy",
                                   "version": 99})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(
            {"faults": [{"kind": "pool-worker-kill", "index": 1}]}))
        policy = ChaosPolicy.from_json_file(str(path))
        assert policy.faults[0].index == 1
        with pytest.raises(ConfigurationError, match="cannot read"):
            ChaosPolicy.from_json_file(str(tmp_path / "missing.json"))


class TestController:
    def test_take_claims_matching_live_faults_once(self):
        controller = build_chaos([{"kind": "pool-worker-kill", "index": 1}])
        assert controller.take("pool-request", index=2) == []
        taken = controller.take("pool-request", index=1)
        assert [f.kind for f in taken] == ["pool-worker-kill"]
        # The budget is spent: a retry of the same request runs clean.
        assert controller.take("pool-request", index=1) == []
        assert controller.live_faults() == []
        assert controller.fired[0]["site"] == "pool-request"

    def test_none_coordinates_are_wildcards(self):
        controller = build_chaos([{"kind": "pool-worker-kill"}])
        assert controller.take("pool-request", index=7)

    def test_times_budget(self):
        controller = build_chaos([{"kind": "checkpoint-write-fail",
                                   "times": 2}])
        assert controller.take("checkpoint-write", index=0)
        assert controller.take("checkpoint-write", index=1)
        assert controller.take("checkpoint-write", index=2) == []

    def test_build_chaos_normalises(self):
        assert build_chaos(None) is None
        controller = build_chaos(ChaosPolicy())
        assert isinstance(controller, ChaosController)
        assert build_chaos(controller) is controller


class TestChaosScope:
    def test_scope_installs_and_restores(self):
        assert current_chaos() is None
        with chaos_scope([{"kind": "pool-worker-kill"}]) as controller:
            assert current_chaos() is controller
            with chaos_scope(None):
                # None leaves the ambient controller in force.
                assert current_chaos() is controller
        assert current_chaos() is None

    def test_nested_scope_shadows_and_restores(self):
        with chaos_scope([{"kind": "pool-worker-kill"}]) as outer:
            with chaos_scope([{"kind": "checkpoint-write-fail"}]) as inner:
                assert current_chaos() is inner
            assert current_chaos() is outer


# ---------------------------------------------------------------------------
# The survivability property: chaos in, byte-identical reports out.
# ---------------------------------------------------------------------------

class TestSurvivablePoolChaos:
    def test_pool_worker_kill_recovers_serially(self):
        requests = [small_request(seed=seed) for seed in range(3)]
        baselines = [execute(r) for r in requests]
        with chaos_scope([{"kind": "pool-worker-kill", "index": 1}]):
            with PoolExecutor(max_workers=2) as pool:
                for request in requests:
                    pool.submit(request)
                reports = dict(pool.iter_reports())
        assert sorted(reports) == [0, 1, 2]
        for index, baseline in enumerate(baselines):
            assert_same_outcome(reports[index], baseline, index)
        record = reports[1].metadata["resilience"][0]
        assert record["error"] == "BrokenProcessPool"
        assert record["fallback"] == "serial"

    def test_supervised_sweep_is_undisturbed_by_a_pool_worker_kill(self):
        # The supervised executor runs each request on its own ladder, never
        # through the sweep pool the fault targets: the sweep completes
        # exactly as an undisturbed one, with no recovery to document.
        requests = (small_request(), small_request(seed=12))
        undisturbed = run_sweep(SweepSpec(requests=requests,
                                          executor="serial"))
        reports = run_sweep(SweepSpec(requests=requests,
                                      executor="supervised"),
                            chaos=[{"kind": "pool-worker-kill", "index": 1}])
        assert len(reports) == 2
        for report, baseline in zip(reports, undisturbed):
            assert_same_outcome(report, baseline)
            assert "resilience" not in report.metadata


class TestSurvivableCheckpointChaos:
    def test_checkpoint_write_failure_retries_and_completes(self, tmp_path):
        spec = SweepSpec(requests=(small_request(), small_request(seed=12)),
                         executor="serial")
        undisturbed = run_sweep(spec)
        path = str(tmp_path / "sweep.jsonl")
        reports = run_sweep(spec, checkpoint=path,
                            chaos=[{"kind": "checkpoint-write-fail",
                                    "index": 0}])
        for report, baseline in zip(reports, undisturbed):
            assert_same_outcome(report, baseline)
        retried = reports[0].metadata["resilience"][0]
        assert retried["stage"] == "checkpoint"
        assert retried["error"] == "OSError"
        # The durable log replays the merged set, recovery record included.
        replayed = read_checkpoint(path, spec)
        assert len(replayed) == 2
        assert replayed[0].metadata["resilience"] == [retried]
        # No torn tail: every line of the log parses.
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle.read().splitlines():
                json.loads(line)

    def test_fsync_sweep_is_identical(self, tmp_path):
        spec = SweepSpec(requests=(small_request(),), executor="serial")
        plain = run_sweep(spec, checkpoint=str(tmp_path / "a.jsonl"))
        synced = run_sweep(spec, checkpoint=str(tmp_path / "b.jsonl"),
                           fsync=True)
        assert_same_outcome(synced[0], plain[0])


# ---------------------------------------------------------------------------
# Unsurvivable schedules: named errors within the deadline, never hangs.
# ---------------------------------------------------------------------------

class TestUnsurvivableChaos:
    def test_exhausting_every_rung_raises_the_named_error(self, monkeypatch):
        # A pool-only ladder whose worker dies like an OOM kill on every
        # attempt: the ladder runs out and says so, within the deadline.
        monkeypatch.setattr(executors, "_execute_for_pool",
                            executors._chaos_exit_worker)
        started = time.monotonic()
        with pytest.raises(SupervisionExhaustedError, match="every rung"):
            run_supervised(small_request(), ladder=["pool"], deadline=30.0,
                           max_attempts=2, base_delay=0.01)
        assert time.monotonic() - started < _NO_HANG_SECONDS

    def test_persistent_checkpoint_failure_raises_named_error(self, tmp_path):
        spec = SweepSpec(requests=(small_request(),), executor="serial")
        path = str(tmp_path / "sweep.jsonl")
        with pytest.raises(CheckpointWriteError, match="failed 3 times"):
            run_sweep(spec, checkpoint=path,
                      chaos=[{"kind": "checkpoint-write-fail", "times": 3}])


# ---------------------------------------------------------------------------
# Chaos at the CLI seam.
# ---------------------------------------------------------------------------

class TestChaosCli:
    def test_sweep_chaos_flag(self, tmp_path, capsys):
        from repro.cli import main
        requests_path = tmp_path / "requests.json"
        requests_path.write_text(json.dumps(
            [small_request(seed=seed).to_dict() for seed in (11, 12)]))
        chaos_path = tmp_path / "chaos.json"
        chaos_path.write_text(json.dumps(
            {"faults": [{"kind": "pool-worker-kill", "index": 1}]}))
        rc = main(["sweep", str(requests_path), "--executor", "pool",
                   "--max-workers", "2", "--chaos", str(chaos_path),
                   "--json"])
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)
        trail = reports[1]["metadata"]["resilience"]
        assert trail[0]["error"] == "BrokenProcessPool"

    def test_bad_chaos_file_is_a_clean_exit(self, tmp_path):
        from repro.cli import main
        requests_path = tmp_path / "requests.json"
        requests_path.write_text(json.dumps([small_request().to_dict()]))
        with pytest.raises(SystemExit, match="cannot read chaos policy"):
            main(["sweep", str(requests_path), "--chaos",
                  str(tmp_path / "missing.json")])
