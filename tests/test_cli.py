"""Tests for the command-line interface (run / sweep / experiments)."""

import json

import pytest

from repro.api import RunReport
from repro.cli import build_request, main
from repro.core import engine as engine_module
from tests.parity import assert_same_outcome


class TestBuildRequest:
    def test_known_protocols(self):
        assert build_request("exponential", 7, 2).protocol == "exponential"
        request = build_request("hybrid", 16, 5, b=3)
        assert request.protocol == "hybrid"
        assert request.protocol_params == {"b": 3}
        # parameter-less protocols do not receive the block parameter
        assert build_request("algorithm-c", 14, 2, b=3).protocol_params == {}

    def test_unknown_protocol_exits(self):
        with pytest.raises(SystemExit):
            build_request("raft", 7, 2)

    def test_faulty_set_from_flags(self):
        request = build_request("exponential", 7, 2, faults=2,
                                source_faulty=True)
        assert request.faulty == (0, 6)


class TestRunCommand:
    def test_successful_run_returns_zero(self, capsys):
        code = main(["run", "--protocol", "exponential", "--n", "7", "--t", "2",
                     "--adversary", "two-faced-source", "--source-faulty"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exponential" in out
        assert "decisions" in out

    def test_hybrid_run(self, capsys):
        code = main(["run", "--protocol", "hybrid", "--n", "10", "--t", "3",
                     "--b", "3", "--adversary", "stealth-path"])
        assert code == 0
        assert "hybrid(b=3)" in capsys.readouterr().out

    def test_faults_flag_limits_fault_count(self, capsys):
        code = main(["run", "--protocol", "exponential", "--n", "7", "--t", "2",
                     "--faults", "1", "--adversary", "silent"])
        assert code == 0

    def test_agreement_failure_sets_exit_code(self, capsys):
        # 3 > t faults with an equivocating source: agreement breaks.
        code = main(["run", "--protocol", "exponential", "--n", "7", "--t", "2",
                     "--faults", "3", "--source-faulty",
                     "--adversary", "equivocating-source-allies"])
        assert code == 1

    def test_json_output_round_trips(self, capsys):
        code = main(["run", "--protocol", "exponential", "--n", "7", "--t", "2",
                     "--adversary", "two-faced-source", "--source-faulty",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        report = RunReport.from_dict(payload)
        assert report.protocol == "exponential"
        assert report.agreement
        assert report.engine == "auto"
        assert report.to_dict() == payload

    def test_json_reports_engine_metadata(self, capsys):
        code = main(["run", "--protocol", "exponential", "--n", "7", "--t", "2",
                     "--adversary", "silent", "--engine", "fast", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "fast"
        assert payload["engine_resolved"] == "fast"


class TestEngineFlag:
    def test_run_accepts_every_available_engine(self, capsys):
        for name in engine_module.available_engines():
            code = main(["run", "--protocol", "exponential", "--n", "7",
                         "--t", "2", "--adversary", "two-faced-source",
                         "--source-faulty", "--engine", name])
            assert code == 0, name
            capsys.readouterr()

    def test_run_engine_auto_reports_resolution(self, capsys):
        code = main(["run", "--protocol", "exponential", "--n", "7", "--t", "2",
                     "--adversary", "silent", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected = ("batched" if engine_module.batched_available()
                    else "fast")
        assert payload["engine_resolved"] == expected

    @pytest.mark.skipif(not engine_module.batched_available(),
                        reason="numpy not installed")
    def test_run_batched_flag(self, capsys):
        code = main(["run", "--protocol", "exponential", "--n", "7",
                     "--t", "2", "--adversary", "two-faced-source",
                     "--source-faulty", "--engine", "batched", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "batched"
        assert payload["engine_resolved"] == "batched"

    @pytest.mark.skipif(not engine_module.batched_available(),
                        reason="numpy not installed")
    def test_run_batched_falls_back_for_unsupported_spec(self, capsys):
        with pytest.warns(RuntimeWarning, match="not supported"):
            code = main(["run", "--protocol", "phase-king", "--n", "9",
                         "--t", "2", "--adversary", "stealth-path",
                         "--engine", "batched"])
        assert code == 0
        assert "phase-king" in capsys.readouterr().out

    def test_run_rejects_unregistered_numpy_engine(self, monkeypatch, capsys):
        monkeypatch.setattr(engine_module, "numpy_available", lambda: False)
        with pytest.raises(SystemExit, match="requires numpy"):
            main(["run", "--protocol", "exponential", "--n", "7", "--t", "2",
                  "--engine", "numpy"])

    HYBRID_CELL = ["run", "--protocol", "hybrid", "--b", "3", "--n", "10",
                   "--t", "3", "--source-faulty",
                   "--adversary", "equivocating-source-allies", "--json"]

    def _hybrid_report(self, capsys, engine):
        assert main(self.HYBRID_CELL + ["--engine", engine]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["engine_resolved"] == engine
        for key in ("engine", "engine_resolved", "metadata"):
            report.pop(key, None)
        return report

    @pytest.mark.parametrize("engine", [
        "fast",
        pytest.param("numpy", marks=pytest.mark.skipif(
            not engine_module.numpy_available(), reason="numpy not installed")),
        pytest.param("batched", marks=pytest.mark.skipif(
            not engine_module.batched_available(),
            reason="numpy not installed"))])
    def test_hybrid_report_matches_reference(self, capsys, engine):
        # The hybrid builds its Algorithm C machine mid-run; --engine must
        # reach it through the run's config like every other machine.
        assert (self._hybrid_report(capsys, engine)
                == self._hybrid_report(capsys, "reference"))

    def test_engine_is_chosen_only_by_run_engine(self, capsys):
        # `run --engine` is the one engine flag: neither `run --batched`
        # nor `experiments --engine` parses.
        with pytest.raises(SystemExit):
            main(["run", "--batched"])
        with pytest.raises(SystemExit):
            main(["experiments", "--engine", "fast"])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSweepCommand:
    @pytest.fixture()
    def request_file(self, tmp_path):
        payload = {"requests": [
            {"protocol": "exponential", "n": 7, "t": 2, "initial_value": 1,
             "scenario": "faulty-source-allies", "battery": "worst-case"},
            {"protocol": "algorithm-c", "n": 14, "t": 2, "initial_value": 1,
             "faulty": [12, 13], "adversary": "stealth-path",
             "engine": "fast"},
        ]}
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_sweep_prints_summary_table(self, request_file, capsys):
        code = main(["sweep", request_file, "--executor", "serial"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep of 2 requests" in out
        assert "exponential" in out and "algorithm-c" in out

    def test_sweep_json_reports_round_trip(self, request_file, capsys):
        code = main(["sweep", request_file, "--executor", "serial", "--json"])
        assert code == 0
        reports = [RunReport.from_dict(item)
                   for item in json.loads(capsys.readouterr().out)]
        assert [r.protocol for r in reports] == ["exponential", "algorithm-c"]
        assert all(r.succeeded for r in reports)

    def test_sweep_parallel_matches_serial(self, request_file, capsys):
        code = main(["sweep", request_file, "--max-workers", "2", "--json"])
        assert code == 0
        parallel = capsys.readouterr().out
        code = main(["sweep", request_file, "--executor", "serial", "--json"])
        assert code == 0
        assert json.loads(parallel) == json.loads(capsys.readouterr().out)

    def test_sweep_rejects_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"protocol": "exponential", "n": 7,
                                     "t": 2, "bogus_field": 1}]))
        with pytest.raises(SystemExit, match="bogus_field"):
            main(["sweep", str(path)])

    def test_sweep_rejects_non_integer_faulty(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"protocol": "exponential", "n": 7,
                                     "t": 2, "faulty": ["x"]}]))
        with pytest.raises(SystemExit, match="invalid request"):
            main(["sweep", str(path)])

    def test_sweep_missing_file_exits(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["sweep", "/nonexistent/requests.json"])


class TestSweepExecutors:
    @pytest.fixture()
    def request_file(self, tmp_path):
        payload = {"requests": [
            {"protocol": "exponential", "n": 7, "t": 2, "initial_value": 1,
             "scenario": "faulty-source-allies", "battery": "worst-case"},
            {"protocol": "algorithm-a", "n": 10, "t": 3,
             "protocol_params": {"b": 3}, "initial_value": 1,
             "scenario": "silent", "battery": "standard"},
        ]}
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_sweep_reads_stdin(self, request_file, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(open(request_file).read()))
        code = main(["sweep", "-", "--executor", "serial"])
        assert code == 0
        assert "sweep of 2 requests" in capsys.readouterr().out

    def test_sweep_supervised_executor(self, request_file, capsys):
        code = main(["sweep", request_file, "--executor", "serial", "--json"])
        assert code == 0
        serial = [RunReport.from_dict(item)
                  for item in json.loads(capsys.readouterr().out)]
        code = main(["sweep", request_file, "--executor", "supervised",
                     "--deadline", "30", "--json"])
        assert code == 0
        reports = [RunReport.from_dict(item)
                   for item in json.loads(capsys.readouterr().out)]
        assert all(r.succeeded and not r.metadata for r in reports)
        assert len(reports) == len(serial)
        for report, expected in zip(reports, serial):
            assert_same_outcome(report, expected)

    def test_sweep_file_may_carry_a_sweep_spec(self, tmp_path, capsys):
        payload = {
            "requests": [
                {"protocol": "exponential", "n": 7, "t": 2,
                 "initial_value": 1, "scenario": "faulty-source-allies",
                 "battery": "worst-case"}],
            "executor": "serial",
            "seed_policy": "derive",
            "sweep_seed": 21,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(payload))
        code = main(["sweep", str(path), "--json"])
        assert code == 0
        from repro.api import derive_seed
        (report,) = [RunReport.from_dict(item)
                     for item in json.loads(capsys.readouterr().out)]
        assert report.seed == derive_seed(21, 0)

    def test_sweep_checkpoint_and_resume(self, request_file, tmp_path,
                                         capsys):
        checkpoint = str(tmp_path / "sweep.jsonl")
        code = main(["sweep", request_file, "--executor", "serial",
                     "--checkpoint", checkpoint, "--json"])
        assert code == 0
        first = json.loads(capsys.readouterr().out)
        lines = open(checkpoint).read().splitlines()
        assert len(lines) == 3  # header + 2 completions
        code = main(["sweep", request_file, "--executor", "serial",
                     "--checkpoint", checkpoint, "--resume", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == first
        # The resumed run appended nothing: everything was already logged.
        assert open(checkpoint).read().splitlines() == lines

    def test_resume_without_checkpoint_exits(self, request_file):
        with pytest.raises(SystemExit, match="--checkpoint"):
            main(["sweep", request_file, "--resume"])

    def test_existing_checkpoint_without_resume_exits(self, request_file,
                                                      tmp_path, capsys):
        checkpoint = str(tmp_path / "sweep.jsonl")
        assert main(["sweep", request_file, "--executor", "serial",
                     "--checkpoint", checkpoint]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="already exists"):
            main(["sweep", request_file, "--executor", "serial",
                  "--checkpoint", checkpoint])

    def test_mismatched_executor_parameter_flags_exit(self, request_file):
        with pytest.raises(SystemExit, match="--deadline applies"):
            main(["sweep", request_file, "--executor", "serial",
                  "--deadline", "5"])
        with pytest.raises(SystemExit, match="--max-workers applies"):
            main(["sweep", request_file, "--executor", "supervised",
                  "--max-workers", "4"])
        with pytest.raises(SystemExit, match="--max-workers applies"):
            main(["sweep", request_file, "--deadline", "5",
                  "--max-workers", "4"])

    def test_compact_without_checkpoint_exits(self, request_file):
        with pytest.raises(SystemExit, match="--checkpoint"):
            main(["sweep", request_file, "--compact"])

    def test_compact_rewrites_duplicates_and_torn_tail(self, request_file,
                                                       tmp_path, capsys):
        checkpoint = str(tmp_path / "sweep.jsonl")
        assert main(["sweep", request_file, "--executor", "serial",
                     "--checkpoint", checkpoint]) == 0
        capsys.readouterr()
        lines = open(checkpoint).read().splitlines()
        with open(checkpoint, "a") as handle:
            handle.write(lines[1] + "\n")           # a duplicate completion
            handle.write(lines[2][:len(lines[2]) // 2])  # a crash tail
        code = main(["sweep", request_file, "--checkpoint", checkpoint,
                     "--compact"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 duplicate(s) dropped" in out
        assert "torn tail repaired" in out
        # Compaction is idempotent and leaves a clean, resumable log.
        code = main(["sweep", request_file, "--checkpoint", checkpoint,
                     "--compact", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"completed": 2, "duplicates_dropped": 0,
                           "torn_tail_repaired": False}
        assert main(["sweep", request_file, "--executor", "serial",
                     "--checkpoint", checkpoint, "--resume"]) == 0

    def test_compact_executes_nothing(self, request_file, tmp_path, capsys):
        checkpoint = str(tmp_path / "sweep.jsonl")
        assert main(["sweep", request_file, "--executor", "serial",
                     "--checkpoint", checkpoint]) == 0
        capsys.readouterr()
        before = open(checkpoint).read()
        assert main(["sweep", request_file, "--checkpoint", checkpoint,
                     "--compact"]) == 0
        out = capsys.readouterr().out
        assert "sweep of" not in out  # no run happened, only the rewrite
        assert open(checkpoint).read() == before


class TestServeCommand:
    def test_serve_rejects_a_queue_without_slots(self):
        with pytest.raises(SystemExit, match="at least one slot"):
            main(["serve", "--max-queue", "0"])

    def test_serve_rejects_a_workerless_pool(self):
        with pytest.raises(SystemExit, match="at least one worker"):
            main(["serve", "--workers", "0"])

    def test_serve_rejects_a_missing_chaos_policy(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read chaos policy"):
            main(["serve", "--chaos", str(tmp_path / "absent.json")])


class TestValidateCommand:
    def test_validate_reports_resolution_without_executing(self, tmp_path,
                                                           capsys):
        payload = [
            {"protocol": "exponential", "n": 7, "t": 2, "initial_value": 1,
             "scenario": "faulty-source-allies", "battery": "worst-case"},
            {"protocol": "phase-king", "n": 9, "t": 2, "initial_value": 1,
             "faulty": [7, 8], "adversary": "stealth-path",
             "engine": "fast"},
        ]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(payload))
        code = main(["validate", str(path), "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in rows] == ["ok", "ok"]
        expected = ("batched" if engine_module.batched_available()
                    else "fast")
        assert rows[0]["resolved"] == expected
        assert rows[1]["resolved"] == "fast"
        assert "shardable" not in rows[1]

    def test_validate_all_registered_plans_ineligible_runs_on_fast(
            self, capsys, monkeypatch):
        # The CI lint job runs this cross-product; pinning the resolved
        # engine per row turns it into a planner-drift check.
        assert main(["validate", "--all-registered", "--json"]) == 0
        by_protocol = {}
        for row in json.loads(capsys.readouterr().out):
            eligible = row["batched"] == "eligible"
            assert row["resolved"] == ("batched" if eligible else "fast"), row
            by_protocol.setdefault(row["protocol"], set()).add(row["resolved"])
        for protocol in ("phase-king", "dolev-strong"):
            assert by_protocol[protocol] == {"fast"}, protocol
        if engine_module.batched_available():
            for protocol in ("exponential", "algorithm-c", "hybrid"):
                assert "batched" in by_protocol[protocol], protocol

    def test_validate_flags_invalid_requests(self, tmp_path, capsys):
        payload = [
            {"protocol": "exponential", "n": 7, "t": 2},
            {"protocol": "raft", "n": 7, "t": 2},
            {"protocol": "hybrid", "n": 10, "t": 3,
             "protocol_params": {"b": "three"}},
        ]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(payload))
        code = main(["validate", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "2 invalid" in out
        assert "unknown protocol 'raft'" in out
        assert "must be an integer" in out

    def test_validate_reads_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
            [{"protocol": "exponential", "n": 7, "t": 2}])))
        assert main(["validate", "-"]) == 0
        assert "0 invalid" in capsys.readouterr().out

    def test_validate_empty_file_exits(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(SystemExit, match="contains no requests"):
            main(["validate", str(path)])


class TestExperimentsCommand:
    def test_only_filter_limits_output(self, capsys):
        code = main(["experiments", "--scale", "small", "--only", "E8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "E8-dominance" in out
        assert "E1-theorem1-hybrid" not in out
