"""Tests for the pluggable execution layer and durable sweeps.

Covers the executor registry (names, parameter schemas), the
submit/iter_reports/close protocol of every backend, streaming via
``iter_execute``, ``SweepSpec`` serialization and the deterministic
``seed_policy="derive"`` derivation, and the JSONL checkpoint/resume cycle
— including a sweep killed mid-flight by a failing executor whose resumed
report set must equal an uninterrupted run's.
"""

import json
import os

import pytest

from repro.api import (DEFAULT_EXECUTOR, PoolExecutor, RunReport,
                       RunRequest, SerialExecutor, SupervisedExecutor,
                       SweepSpec, RegistryError, build_executor,
                       compact_checkpoint, derive_seed, execute,
                       executor_names, executor_registry, iter_execute,
                       iter_sweep, read_checkpoint, resolve_executor,
                       run_sweep, scan_checkpoint, sweep_digest)
from repro.runtime.errors import ConfigurationError
from tests.parity import assert_same_outcome


def small_requests(count=3, protocol="exponential", **overrides):
    fields = dict(protocol=protocol, n=7, t=2, initial_value=1,
                  scenario="faulty-source-allies", battery="worst-case")
    fields.update(overrides)
    return [RunRequest(**dict(fields, seed=index)) for index in range(count)]


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(executor_names()) == {"serial", "pool", "supervised"}
        assert DEFAULT_EXECUTOR in executor_names()

    def test_build_by_name(self):
        assert isinstance(build_executor("serial"), SerialExecutor)
        pool = build_executor("pool", {"max_workers": 2})
        assert isinstance(pool, PoolExecutor) and pool.max_workers == 2
        supervised = build_executor("supervised", {"max_attempts": 2})
        assert isinstance(supervised, SupervisedExecutor)

    def test_unknown_name(self):
        with pytest.raises(RegistryError, match="unknown executor"):
            build_executor("gpu")

    def test_unknown_parameter(self):
        with pytest.raises(RegistryError, match="unknown parameter"):
            build_executor("serial", {"max_workers": 2})

    def test_schemas_are_introspectable(self):
        assert "max_workers" in executor_registry()["pool"].schema
        assert "deadline" in executor_registry()["supervised"].schema

    def test_resolve_executor(self):
        instance = SerialExecutor()
        assert resolve_executor(instance) == (instance, False)
        built, owned = resolve_executor("serial")
        assert isinstance(built, SerialExecutor) and owned
        default, owned = resolve_executor(None)
        assert isinstance(default, PoolExecutor) and owned
        with pytest.raises(ConfigurationError, match="already-built"):
            resolve_executor(instance, {"max_workers": 2})


class TestExecutorProtocol:
    def test_submit_assigns_sequential_indexes(self):
        executor = SerialExecutor()
        requests = small_requests(3)
        assert [executor.submit(r) for r in requests] == [0, 1, 2]
        reports = dict(executor.iter_reports())
        assert sorted(reports) == [0, 1, 2]
        assert all(isinstance(r, RunReport) for r in reports.values())

    def test_serial_streams_in_submission_order(self):
        executor = SerialExecutor()
        for request in small_requests(3):
            executor.submit(request)
        assert [index for index, _ in executor.iter_reports()] == [0, 1, 2]

    def test_closed_executor_rejects_submissions(self):
        executor = SerialExecutor()
        executor.close()
        with pytest.raises(ConfigurationError, match="closed"):
            executor.submit(small_requests(1)[0])

    def test_context_manager_closes(self):
        with SerialExecutor() as executor:
            pass
        with pytest.raises(ConfigurationError, match="closed"):
            executor.submit(small_requests(1)[0])

    def test_iter_reports_drains_pending_once(self):
        executor = SerialExecutor()
        executor.submit(small_requests(1)[0])
        assert len(list(executor.iter_reports())) == 1
        assert list(executor.iter_reports()) == []

    def test_every_backend_matches_execute(self):
        requests = small_requests(3)
        expected = [execute(r) for r in requests]
        for backend in (SerialExecutor(), PoolExecutor(max_workers=2),
                        SupervisedExecutor()):
            with backend:
                for request in requests:
                    backend.submit(request)
                reports = dict(backend.iter_reports())
            for index, report in enumerate(expected):
                assert_same_outcome(reports[index], report, backend.name)

    def test_pool_completes_every_request(self):
        requests = small_requests(4)
        with PoolExecutor(max_workers=2) as pool:
            for request in requests:
                pool.submit(request)
            reports = dict(pool.iter_reports())
        assert sorted(reports) == [0, 1, 2, 3]


class TestIterExecute:
    def test_yields_every_index(self):
        requests = small_requests(3)
        pairs = dict(iter_execute(requests, executor="serial"))
        assert sorted(pairs) == [0, 1, 2]

    def test_streaming_is_lazy_for_serial(self):
        requests = small_requests(3)
        iterator = iter_execute(requests, executor="serial")
        index, report = next(iterator)
        assert index == 0 and report.agreement
        iterator.close()

    def test_accepts_instance_without_closing_it(self):
        executor = SerialExecutor()
        list(iter_execute(small_requests(1), executor=executor))
        executor.submit(small_requests(1)[0])  # still open

    def test_positions_restart_with_each_call_on_one_instance(self):
        # The executor numbers its tickets across calls; iter_execute must
        # still yield each request's position within its own call.
        requests = small_requests(3)
        with SerialExecutor() as executor:
            first = [position for position, _ in
                     iter_execute(requests, executor)]
            second = [position for position, _ in
                      iter_execute(requests, executor)]
        assert first == second == [0, 1, 2]

    def test_pool_and_serial_match_execute_position_by_position(self):
        requests = (small_requests(2)
                    + small_requests(1, protocol="algorithm-c", n=14))
        expected = [execute(request) for request in requests]
        with PoolExecutor(max_workers=2) as pool:
            for backend in ("serial", pool):
                reports = dict(iter_execute(requests, backend))
                assert sorted(reports) == [0, 1, 2]
                for position, report in reports.items():
                    wanted = expected[position]
                    assert_same_outcome(report, wanted, position)
                    assert (report.engine, report.engine_resolved,
                            report.metadata) == (wanted.engine,
                                                 wanted.engine_resolved,
                                                 wanted.metadata), position
        assert [report.protocol for report in expected] == [
            "exponential", "exponential", "algorithm-c"]

    def test_empty_input_yields_nothing(self):
        assert list(iter_execute([], "pool")) == []


class TestSeedDerivation:
    def test_deterministic_and_position_dependent(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0) != derive_seed(43, 0)
        assert all(0 <= derive_seed(s, i) < 2 ** 63
                   for s in (0, 1, 2 ** 40) for i in range(4))

    def test_derived_seeds_pairwise_distinct_in_campaign_window(self):
        # The Monte-Carlo acceptance window: 10^5 consecutive indices.  At
        # the old 31-bit truncation the birthday bound expected ~2.3
        # collisions here; at 63 bits the expectation is ~5e-10, so any
        # collision is a real derivation bug.
        window = 10 ** 5
        seeds = {derive_seed(0, index) for index in range(window)}
        assert len(seeds) == window

    def test_derivation_contract_pinned(self):
        # The exact positional contract (documented in API.md): SHA-256 of
        # "repro-sweep:{sweep_seed}:{index}", first 8 bytes big-endian,
        # masked to 63 bits.  Checkpoint resume depends on this never
        # changing, so pin a literal value.
        import hashlib
        digest = hashlib.sha256(b"repro-sweep:42:7").digest()
        expected = int.from_bytes(digest[:8], "big") & (2 ** 63 - 1)
        assert derive_seed(42, 7) == expected

    def test_derive_policy_rewrites_request_seeds(self):
        spec = SweepSpec(requests=small_requests(3), seed_policy="derive",
                         sweep_seed=42)
        resolved = spec.resolved_requests()
        assert [r.seed for r in resolved] == [derive_seed(42, i)
                                              for i in range(3)]

    def test_fixed_policy_keeps_request_seeds(self):
        requests = small_requests(3)
        spec = SweepSpec(requests=requests)
        assert spec.resolved_requests() == tuple(requests)

    def test_derived_sweeps_reproduce_exactly(self):
        spec = SweepSpec(requests=small_requests(3), executor="serial",
                         seed_policy="derive", sweep_seed=11)
        assert run_sweep(spec) == run_sweep(spec)


class TestSweepSpec:
    def test_round_trips_through_json(self):
        spec = SweepSpec(requests=small_requests(2), executor="pool",
                         executor_params={"max_workers": 2},
                         seed_policy="derive", sweep_seed=5)
        wire = json.dumps(spec.to_dict(), sort_keys=True)
        assert SweepSpec.from_dict(json.loads(wire)) == spec

    def test_rejects_unknown_seed_policy(self):
        with pytest.raises(ConfigurationError, match="seed policy"):
            SweepSpec(requests=small_requests(1), seed_policy="random")

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown SweepSpec"):
            SweepSpec.from_dict({"requests": [], "retries": 3})

    def test_rejects_non_request_payloads(self):
        with pytest.raises(ConfigurationError, match="RunRequest"):
            SweepSpec(requests=[object()])

    def test_digest_tracks_content(self):
        spec = SweepSpec(requests=small_requests(2))
        assert sweep_digest(spec) == sweep_digest(
            SweepSpec(requests=small_requests(2)))
        assert sweep_digest(spec) != sweep_digest(
            SweepSpec(requests=small_requests(2), sweep_seed=1))


#: Seed value marking the request whose worker should die (see below).
_CRASH_SEED = 2


def _dying_worker(request):
    """A pool worker that hard-exits on the marked request.

    ``os._exit`` bypasses every handler, exactly like an OOM kill or a
    segfault in an extension module — the crash mode that poisons a
    :class:`ProcessPoolExecutor` with ``BrokenProcessPool``.
    """
    if request.seed == _CRASH_SEED:
        os._exit(1)
    from repro.api.facade import execute
    return execute(request)


class DyingPool(PoolExecutor):
    _worker = staticmethod(_dying_worker)


class TestPoolBrokenWorker:
    def test_broken_pool_retries_undelivered_requests_serially(self):
        requests = small_requests(4)
        with DyingPool(max_workers=2) as pool:
            for request in requests:
                pool.submit(request)
            reports = dict(pool.iter_reports())
        # Every request still gets a report...
        assert sorted(reports) == [0, 1, 2, 3]
        expected = [execute(r) for r in requests]
        for index in range(4):
            assert_same_outcome(reports[index], expected[index], index)
        # ...and at least the crashed one carries a structured recovery
        # record.  (Which *other* requests were still in flight when the
        # pool broke is timing-dependent, so only the crashed index is
        # asserted.)
        record = reports[_CRASH_SEED].metadata["resilience"][0]
        assert record["event"] == "retry"
        assert record["stage"] == "pool"
        assert record["attempt"] == 2
        assert record["error"] == "BrokenProcessPool"
        assert record["fallback"] == "serial"

    def test_resilience_metadata_round_trips(self):
        report = execute(small_requests(1)[0])
        assert report.metadata == {}
        assert "metadata" not in report.to_dict()  # old fixtures stay valid
        record = {"event": "retry", "stage": "pool", "attempt": 2,
                  "error": "BrokenProcessPool", "detail": "",
                  "fallback": "serial"}
        report.metadata["resilience"] = [record]
        wire = report.to_dict()
        assert wire["metadata"] == {"resilience": [record]}
        assert RunReport.from_dict(wire) == report


class FailingExecutor(SerialExecutor):
    """Executes *fail_after* requests, then dies — a simulated crash."""

    def __init__(self, fail_after: int) -> None:
        super().__init__()
        self.fail_after = fail_after

    def iter_reports(self):
        for finished, pair in enumerate(super().iter_reports()):
            if finished >= self.fail_after:
                raise RuntimeError("simulated mid-sweep crash")
            yield pair


class TestCheckpointResume:
    @pytest.fixture()
    def spec(self):
        return SweepSpec(requests=small_requests(4), executor="serial",
                         seed_policy="derive", sweep_seed=13)

    def test_checkpoint_records_completions_as_they_finish(self, spec,
                                                           tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        reports = run_sweep(spec, checkpoint=path)
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8").read().splitlines()]
        assert lines[0]["kind"] == "repro-sweep-checkpoint"
        assert lines[0]["total"] == 4
        assert lines[0]["sweep_sha256"] == sweep_digest(spec)
        assert sorted(entry["index"] for entry in lines[1:]) == [0, 1, 2, 3]
        revived = {entry["index"]: RunReport.from_dict(entry["report"])
                   for entry in lines[1:]}
        assert [revived[i] for i in range(4)] == reports

    def test_crash_resume_skips_completed_and_merges_exactly(self, spec,
                                                             tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with pytest.raises(RuntimeError, match="simulated mid-sweep crash"):
            run_sweep(spec, checkpoint=path, executor=FailingExecutor(2))
        completed = read_checkpoint(path, spec)
        assert sorted(completed) == [0, 1]

        executed_on_resume = []

        class Recording(SerialExecutor):
            def submit(recording_self, request):
                executed_on_resume.append(request)
                return super().submit(request)

        merged = run_sweep(spec, checkpoint=path, resume=True,
                           executor=Recording())
        # Only the two unfinished requests were re-executed...
        assert len(executed_on_resume) == 2
        assert [r.seed for r in executed_on_resume] == [derive_seed(13, 2),
                                                        derive_seed(13, 3)]
        # ...and the merged report set equals an uninterrupted run's.
        assert merged == run_sweep(spec)
        # The log now covers the full sweep for any further resume.
        assert sorted(read_checkpoint(path, spec)) == [0, 1, 2, 3]

    def test_fully_checkpointed_resume_executes_nothing(self, spec,
                                                        tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        reports = run_sweep(spec, checkpoint=path)

        class Exploding(SerialExecutor):
            def iter_reports(self):
                raise AssertionError("nothing should execute")
                yield  # pragma: no cover

        assert run_sweep(spec, checkpoint=path, resume=True,
                         executor=Exploding()) == reports

    def test_resume_refuses_a_different_sweep(self, spec, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_sweep(spec, checkpoint=path)
        other = SweepSpec(requests=small_requests(4), executor="serial",
                          seed_policy="derive", sweep_seed=14)
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep(other, checkpoint=path, resume=True)

    def test_truncated_final_line_is_tolerated(self, spec, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with pytest.raises(RuntimeError):
            run_sweep(spec, checkpoint=path, executor=FailingExecutor(2))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 2, "report": {"proto')  # crash mid-write
        assert sorted(read_checkpoint(path, spec)) == [0, 1]
        assert run_sweep(spec, checkpoint=path, resume=True) == run_sweep(spec)

    def test_existing_checkpoint_is_never_clobbered(self, spec, tmp_path):
        """Forgetting --resume must not erase a crash log."""
        path = str(tmp_path / "sweep.jsonl")
        with pytest.raises(RuntimeError):
            run_sweep(spec, checkpoint=path, executor=FailingExecutor(2))
        before = open(path, encoding="utf-8").read()
        with pytest.raises(ConfigurationError, match="already exists"):
            run_sweep(spec, checkpoint=path)
        assert open(path, encoding="utf-8").read() == before
        # resume continues it, as the error message instructs.
        assert run_sweep(spec, checkpoint=path, resume=True) == run_sweep(spec)

    def test_malformed_completion_line_is_rejected_loudly(self, spec,
                                                          tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with pytest.raises(RuntimeError):
            run_sweep(spec, checkpoint=path, executor=FailingExecutor(2))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('42\n')  # valid JSON, not a completion entry
        with pytest.raises(ConfigurationError, match="malformed completion"):
            read_checkpoint(path, spec)
        path2 = str(tmp_path / "sweep2.jsonl")
        with pytest.raises(RuntimeError):
            run_sweep(spec, checkpoint=path2, executor=FailingExecutor(1))
        with open(path2, "a", encoding="utf-8") as handle:
            handle.write('{"index": 2}\n')  # report missing
        with pytest.raises(ConfigurationError, match="malformed completion"):
            read_checkpoint(path2, spec)

    def test_corrupted_header_hash_is_rejected(self, spec, tmp_path):
        """A flipped digest byte must read as "different sweep", not merge."""
        path = str(tmp_path / "sweep.jsonl")
        run_sweep(spec, checkpoint=path)
        lines = open(path, encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        digest = header["sweep_sha256"]
        header["sweep_sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        lines[0] = json.dumps(header, sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="different sweep"):
            read_checkpoint(path, spec)

    def test_interleaved_garbage_line_is_rejected(self, spec, tmp_path):
        """Unparseable bytes *before* the end are corruption, not a crash tail."""
        path = str(tmp_path / "sweep.jsonl")
        run_sweep(spec, checkpoint=path)
        lines = open(path, encoding="utf-8").read().splitlines()
        lines.insert(2, "\x00\x00 not json at all {{{")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            read_checkpoint(path, spec)

    def test_duplicate_index_resolves_last_write_wins(self, spec, tmp_path):
        """A re-checkpointed request (e.g. a retried cell) keeps its latest report."""
        path = str(tmp_path / "sweep.jsonl")
        reports = run_sweep(spec, checkpoint=path)
        doctored = RunReport.from_dict(reports[0].to_dict())
        doctored.metadata["retried"] = True
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"index": 0,
                                     "report": doctored.to_dict()},
                                    sort_keys=True) + "\n")
        completed = read_checkpoint(path, spec)
        assert sorted(completed) == [0, 1, 2, 3]
        assert completed[0].metadata == {"retried": True}
        assert completed[1] == reports[1]

    def test_duplicate_index_logs_a_structured_warning(self, spec, tmp_path,
                                                       caplog):
        """Last-write-wins must be loud: a warning plus a duplicates count."""
        path = str(tmp_path / "sweep.jsonl")
        reports = run_sweep(spec, checkpoint=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"index": 0,
                                     "report": reports[0].to_dict()},
                                    sort_keys=True) + "\n")
        with caplog.at_level("WARNING", logger="repro.sweep"):
            scan = scan_checkpoint(path, spec)
        assert scan.duplicates == 1
        assert [e for e in scan.events
                if e["event"] == "duplicate-completion"] == [
            {"event": "duplicate-completion", "index": 0, "line": 6,
             "path": path}]
        assert any("more than once" in record.message
                   for record in caplog.records)
        assert not scan.torn_tail
        # read_checkpoint is the same scan, reduced to the completions.
        assert read_checkpoint(path, spec) == scan.completed

    def test_compact_drops_duplicates_and_repairs_torn_tail(self, spec,
                                                            tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        reports = run_sweep(spec, checkpoint=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"index": 1,
                                     "report": reports[1].to_dict()},
                                    sort_keys=True) + "\n")
            handle.write('{"index": 2, "report": {"torn')  # crash mid-write
        summary = compact_checkpoint(path, spec)
        assert summary == {"completed": 4, "duplicates_dropped": 1,
                           "torn_tail_repaired": True}
        # The rewritten log is byte-identical in meaning to the clean one:
        # same header, one line per index, resumable.
        lines = open(path, encoding="utf-8").read().splitlines()
        assert json.loads(lines[0])["sweep_sha256"] == sweep_digest(spec)
        assert [json.loads(line)["index"] for line in lines[1:]] == [0, 1,
                                                                    2, 3]
        assert read_checkpoint(path, spec) == {
            index: reports[index] for index in range(4)}
        assert run_sweep(spec, checkpoint=path, resume=True) == reports

    def test_compact_is_a_no_op_on_a_clean_log(self, spec, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_sweep(spec, checkpoint=path)
        before = open(path, encoding="utf-8").read()
        stat_before = os.stat(path).st_mtime_ns
        summary = compact_checkpoint(path, spec)
        assert summary == {"completed": 4, "duplicates_dropped": 0,
                           "torn_tail_repaired": False}
        assert open(path, encoding="utf-8").read() == before
        assert os.stat(path).st_mtime_ns == stat_before  # not rewritten

    def test_compact_missing_file_reports_empty(self, spec, tmp_path):
        summary = compact_checkpoint(str(tmp_path / "absent.jsonl"), spec)
        assert summary == {"completed": 0, "duplicates_dropped": 0,
                           "torn_tail_repaired": False}

    def test_non_checkpoint_file_is_rejected(self, spec, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ConfigurationError, match="not a sweep checkpoint"):
            read_checkpoint(str(path), spec)

    def test_missing_checkpoint_reads_empty(self, spec, tmp_path):
        assert read_checkpoint(str(tmp_path / "absent.jsonl"), spec) == {}

    def test_iter_sweep_yields_completed_first_then_streams(self, spec,
                                                            tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with pytest.raises(RuntimeError):
            run_sweep(spec, checkpoint=path, executor=FailingExecutor(2))
        order = [index for index, _ in
                 iter_sweep(spec, checkpoint=path, resume=True)]
        assert order[:2] == [0, 1]
        assert sorted(order) == [0, 1, 2, 3]
