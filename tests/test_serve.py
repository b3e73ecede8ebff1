"""Tests for the serving layer (repro.serve): cache, journal, service, HTTP.

The contracts under test, from the inside out:

* the **cache key** is engine-independent — requests differing only in
  engine choice share one entry — and cache correctness is never load-
  bearing: torn entry files read as misses and are deleted;
* the **journal** is written ahead of execution and replays exactly:
  completed entries warm the cache, accepted-without-completion entries
  re-enqueue, torn tails are repaired by compaction, duplicate completions
  are counted loudly;
* the **crash-recovery property**: a chaos-disturbed serve session, killed
  at its fault point and restarted on the same journal and cache
  directory, serves ``outcome_dict()``s byte-identical to a session that
  was never disturbed — and completed requests come from the cache, not
  re-execution;
* the **HTTP frontend** speaks plain HTTP/1.1: admission failures are 400,
  overload is 429 with Retry-After, health endpoints flip under fault and
  drain, sweeps stream as NDJSON;
* its **framing** answers every request with exactly one response, never a
  500 or an empty reply (over-long lines, nested or undecodable JSON,
  signed or duplicated Content-Length are all 4xx), and each read phase
  has one deadline; ``/run`` admission runs on the event loop, so a cache
  hit never hops to a thread.
"""

import asyncio
import concurrent.futures
import http.client
import json
import os
import re
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RunRequest, execute
from repro.runtime.chaos import ChaosPolicy, FaultInjection, chaos_scope
from repro.runtime.errors import (CheckpointWriteError, ConfigurationError,
                                  SupervisionExhaustedError)
from repro.serve import (AdmissionError, AgreementService, HttpFrontend,
                         ResultCache, ServeJournal, ServeMetrics,
                         ServiceUnavailableError, request_digest)
from tests.parity import assert_same_outcome


def small_request(**overrides):
    fields = dict(protocol="exponential", n=7, t=2, initial_value=1,
                  faulty=(5, 6), adversary="two-faced", seed=5)
    fields.update(overrides)
    return RunRequest(**fields)


def chaos_policy(kind, **kwargs):
    return ChaosPolicy(faults=(FaultInjection(kind=kind, **kwargs),))


class TestRequestDigest:
    def test_engine_choice_does_not_fragment_the_cache(self):
        digests = {request_digest(small_request(engine=engine))
                   for engine in ("auto", "numpy", "fast", "batched")}
        assert len(digests) == 1

    def test_outcome_relevant_fields_do_change_the_key(self):
        base = request_digest(small_request())
        assert request_digest(small_request(seed=6)) != base
        assert request_digest(small_request(initial_value=0)) != base
        assert request_digest(small_request(adversary="benign")) != base

    def test_digest_is_stable_across_processes(self):
        # A content address must not depend on interpreter state.
        assert request_digest(small_request()) == request_digest(
            RunRequest.from_dict(small_request().to_dict()))


class TestResultCache:
    def test_memory_hit_and_miss_counters(self):
        cache = ResultCache()
        assert cache.get("a" * 64) is None
        cache.put("a" * 64, {"decisions": {"0": 1}})
        assert cache.get("a" * 64) == {"decisions": {"0": 1}}
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1,
                                 "write_failures": 0, "evictions": 0}

    def test_peek_does_not_touch_counters(self):
        cache = ResultCache()
        cache.put("a" * 64, {"decisions": {}})
        cache.peek("a" * 64)
        cache.peek("b" * 64)
        assert cache.hits == 0 and cache.misses == 0

    def test_disk_round_trip_survives_a_new_instance(self, tmp_path):
        first = ResultCache(str(tmp_path))
        first.put("a" * 64, {"decisions": {"0": 1}})
        second = ResultCache(str(tmp_path))
        assert second.get("a" * 64) == {"decisions": {"0": 1}}
        assert second.hits == 1

    def test_torn_disk_entry_reads_as_a_miss_and_is_deleted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = os.path.join(str(tmp_path), "f" * 64 + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"decisions": {"0"')  # a crash mid-store
        assert cache.get("f" * 64) is None
        assert not os.path.exists(path)

    def test_misshapen_disk_entry_is_not_an_answer(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = os.path.join(str(tmp_path), "e" * 64 + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"not": "an outcome"}, handle)
        assert cache.get("e" * 64) is None
        assert not os.path.exists(path)

    def test_chaos_store_failure_is_best_effort(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with chaos_scope(chaos_policy("cache-write-fail", times=1)):
            assert cache.put("a" * 64, {"decisions": {"0": 1}}) is False
        assert cache.write_failures == 1
        # The in-memory entry still serves this process...
        assert cache.get("a" * 64) == {"decisions": {"0": 1}}
        # ...and the torn file the chaos left reads as a miss elsewhere.
        assert ResultCache(str(tmp_path)).get("a" * 64) is None
        # The next store (budget spent) lands durably.
        assert cache.put("a" * 64, {"decisions": {"0": 1}}) is True
        assert ResultCache(str(tmp_path)).get("a" * 64) is not None


class TestCacheEviction:
    def test_cap_is_enforced_lru_first(self):
        cache = ResultCache(max_entries=2)
        cache.put("a" * 64, {"decisions": {"0": 1}})
        cache.put("b" * 64, {"decisions": {"0": 2}})
        # Touch "a" so "b" becomes the least recently used entry.
        assert cache.get("a" * 64) is not None
        cache.put("c" * 64, {"decisions": {"0": 3}})
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.peek("b" * 64) is None
        assert cache.peek("a" * 64) is not None
        assert cache.peek("c" * 64) is not None

    def test_eviction_unlinks_the_disk_entry(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=1)
        cache.put("a" * 64, {"decisions": {"0": 1}})
        a_path = os.path.join(str(tmp_path), "a" * 64 + ".json")
        assert os.path.exists(a_path)
        cache.put("b" * 64, {"decisions": {"0": 2}})
        # The evicted entry is gone from memory AND disk: a capped cache
        # must not resurrect past its cap on the next restart.
        assert not os.path.exists(a_path)
        restarted = ResultCache(str(tmp_path), max_entries=1)
        assert restarted.get("a" * 64) is None
        assert restarted.get("b" * 64) is not None

    def test_disk_fallthrough_also_respects_the_cap(self, tmp_path):
        writer = ResultCache(str(tmp_path))
        for letter in "abc":
            writer.put(letter * 64, {"decisions": {"0": 1}})
        capped = ResultCache(str(tmp_path), max_entries=1)
        for letter in "abc":
            assert capped.get(letter * 64) is not None
        assert len(capped) == 1
        assert capped.evictions == 2

    def test_evictions_surface_in_stats(self):
        cache = ResultCache(max_entries=1)
        cache.put("a" * 64, {"decisions": {}})
        cache.put("b" * 64, {"decisions": {}})
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["entries"] == 1

    def test_nonpositive_cap_is_refused(self):
        with pytest.raises(ConfigurationError):
            ResultCache(max_entries=0)

    def test_uncapped_cache_never_evicts(self):
        cache = ResultCache()
        for index in range(100):
            cache.put(f"{index:064d}", {"decisions": {}})
        assert len(cache) == 100 and cache.evictions == 0


class TestServeJournal:
    def test_accept_complete_replay_round_trip(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        journal = ServeJournal(path)
        journal.open()
        request = small_request()
        journal.accepted("d1", request)
        journal.accepted("d2", small_request(seed=6))
        journal.completed("d1", {"decisions": {"0": 1}})
        journal.close()
        replay = ServeJournal(path).replay()
        assert replay.completed == {"d1": {"decisions": {"0": 1}}}
        assert [(digest, req.seed) for digest, req in replay.pending] == [
            ("d2", 6)]
        assert replay.summary() == {"completed": 1, "pending": 1,
                                    "duplicates": 0, "torn_tail": False}

    def test_torn_tail_is_tolerated_and_compacted_away(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        journal = ServeJournal(path)
        journal.open()
        journal.accepted("d1", small_request())
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "completed", "id": "d1", "outc')
        replay = ServeJournal(path).replay()
        assert replay.torn_tail
        assert [d for d, _ in replay.pending] == ["d1"]
        fresh = ServeJournal(path)
        fresh.compact(replay)
        after = ServeJournal(path).replay()
        assert not after.torn_tail
        assert [d for d, _ in after.pending] == ["d1"]

    def test_duplicate_completions_are_counted_not_masked(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        journal = ServeJournal(path)
        journal.open()
        journal.accepted("d1", small_request())
        journal.completed("d1", {"decisions": {"0": 0}})
        journal.completed("d1", {"decisions": {"0": 1}})
        journal.close()
        replay = ServeJournal(path).replay()
        assert replay.duplicates == 1
        assert replay.completed["d1"] == {"decisions": {"0": 1}}  # last wins

    def test_garbage_before_the_end_is_corruption(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        journal = ServeJournal(path)
        journal.open()
        journal.accepted("d1", small_request())
        journal.close()
        content = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content.splitlines()[0] + "\n")
            handle.write("not json {{{\n")
            handle.write(content.splitlines()[1] + "\n")
        with pytest.raises(ConfigurationError, match="before the end"):
            ServeJournal(path).replay()

    def test_wrong_kind_header_is_rejected(self, tmp_path):
        path = str(tmp_path / "other.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"kind": "repro-sweep-checkpoint", "version": 1}\n')
        with pytest.raises(ConfigurationError, match="not a serve journal"):
            ServeJournal(path).replay()

    def test_chaos_torn_append_is_fail_stop(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        journal = ServeJournal(path)
        journal.open()
        journal.accepted("d1", small_request())
        with chaos_scope(chaos_policy("journal-torn-write", times=1)):
            with pytest.raises(CheckpointWriteError, match="append failed"):
                journal.completed("d1", {"decisions": {"0": 1}})
        journal.close()
        # The partial line is on disk — exactly a kill -9 mid-append — and
        # replay treats it as the crash tail: d1 is still pending.
        replay = ServeJournal(path).replay()
        assert replay.torn_tail
        assert [d for d, _ in replay.pending] == ["d1"]

    def test_compact_refuses_an_open_journal(self, tmp_path):
        journal = ServeJournal(str(tmp_path / "serve.jsonl"))
        journal.open()
        with pytest.raises(ConfigurationError, match="before opening"):
            journal.compact()


class TestAgreementService:
    def test_admission_rejects_before_any_queue_or_journal_state(self,
                                                                 tmp_path):
        journal = ServeJournal(str(tmp_path / "serve.jsonl"))
        service = AgreementService(journal=journal)
        service.start()
        with pytest.raises(AdmissionError, match="unknown protocol"):
            service.admit(small_request(protocol="quantum"))
        service.close()
        replay = ServeJournal(journal.path).replay()
        assert replay.summary()["pending"] == 0  # nothing was journaled
        assert service.metrics.snapshot()["admission_rejects_total"] == 1

    def test_handle_executes_then_serves_from_cache(self):
        service = AgreementService()
        first = service.handle(small_request())
        second = service.handle(small_request())
        assert not first.cached and second.cached
        assert second.outcome == first.outcome
        assert_same_outcome(first.outcome, execute(small_request()))
        snap = service.metrics.snapshot(cache_stats=service.cache.stats())
        assert snap["executions_total"] == 1
        assert snap["requests_total"] == 2
        assert snap["cache"]["hits"] == 1

    def test_engine_variants_share_one_cache_entry(self):
        service = AgreementService()
        first = service.handle(small_request(engine="fast"))
        second = service.handle(small_request(engine="reference"))
        assert second.cached
        assert second.outcome == first.outcome

    def test_worker_death_chaos_is_self_healed_by_retry(self):
        service = AgreementService()
        with chaos_scope(chaos_policy("serve-worker-death", times=1)):
            result = service.handle(small_request())
        assert not result.cached
        assert_same_outcome(result.outcome, execute(small_request()))
        events = [e["event"] for e in result.resilience]
        assert "retry" in events and "completed" in events
        snap = service.metrics.snapshot()
        assert snap["resilience_events"].get("retry:serve-worker") == 1

    def test_worker_death_beyond_the_budget_exhausts_loudly(self):
        service = AgreementService()
        with chaos_scope(chaos_policy("serve-worker-death", times=10)):
            with pytest.raises(SupervisionExhaustedError):
                service.handle(small_request())
        assert service.metrics.snapshot()["execution_failures_total"] == 1

    def test_journal_fault_stops_the_service(self, tmp_path):
        journal = ServeJournal(str(tmp_path / "serve.jsonl"))
        service = AgreementService(journal=journal)
        service.start()
        request = small_request()
        with chaos_scope(chaos_policy("journal-torn-write", times=1)):
            with pytest.raises(CheckpointWriteError):
                service.accept(service.admit(request), request)
        # Fail-stop: the faulted service refuses further admissions.
        with pytest.raises(ServiceUnavailableError, match="faulted"):
            service.admit(request)
        service.close()

    def test_run_pending_executes_recovered_work_in_order(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        journal = ServeJournal(path)
        journal.open()
        first, second = small_request(seed=1), small_request(seed=2)
        journal.accepted(request_digest(first), first)
        journal.accepted(request_digest(second), second)
        journal.close()
        service = AgreementService(journal=ServeJournal(path))
        recovery = service.start()
        assert recovery["pending"] == 2
        results = service.run_pending()
        assert [r.outcome for r in results] == [
            execute(first).outcome_dict(), execute(second).outcome_dict()]
        service.close()
        assert ServeJournal(path).replay().summary() == {
            "completed": 2, "pending": 0, "duplicates": 0,
            "torn_tail": False}


class TestCrashRecoveryProperty:
    """The headline property: chaos + restart == never disturbed."""

    REQUESTS = None  # built lazily; class-level to share across tests

    @classmethod
    def requests(cls):
        if cls.REQUESTS is None:
            cls.REQUESTS = [small_request(seed=seed) for seed in range(4)]
        return cls.REQUESTS

    def undisturbed_outcomes(self):
        return {request_digest(r): execute(r).outcome_dict()
                for r in self.requests()}

    def test_journal_crash_then_restart_serves_identical_outcomes(
            self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        cache_dir = str(tmp_path / "cache")
        service = AgreementService(cache=ResultCache(cache_dir),
                                   journal=ServeJournal(path))
        service.start()
        served = {}
        # The 5th journal append dies torn: two requests complete (2 writes
        # each: accepted + completed), the third is accepted and then the
        # process "dies" mid-completion-append.
        with chaos_scope(chaos_policy("journal-torn-write", times=1,
                                      index=5)):
            for request in self.requests():
                try:
                    result = service.handle(request)
                    served[result.digest] = result.outcome
                except CheckpointWriteError:
                    break  # the simulated kill -9 point
        assert service.fault is not None
        service.close()  # the OS closing fds of a dead process

        # Restart on the same journal and cache directory.
        revived = AgreementService(cache=ResultCache(cache_dir),
                                   journal=ServeJournal(path))
        recovery = revived.start()
        assert recovery["torn_tail"]
        # The interrupted request was journaled as accepted, so it is
        # pending; the two completed ones were warmed into the cache.
        assert recovery["completed"] == 2
        assert recovery["pending"] == 1
        revived.run_pending()
        # Every request — served pre-crash, recovered, or fresh — now
        # returns outcomes byte-identical to a never-disturbed session.
        expected = self.undisturbed_outcomes()
        for request in self.requests():
            result = revived.handle(request)
            digest = request_digest(request)
            assert json.dumps(result.outcome, sort_keys=True) == json.dumps(
                expected[digest], sort_keys=True)
        # And what was served before the crash matches too.
        for digest, outcome in served.items():
            assert outcome == expected[digest]
        revived.close()

    def test_completed_requests_recover_as_cache_hits_not_reexecution(
            self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        service = AgreementService(journal=ServeJournal(path))
        service.start()
        request = self.requests()[0]
        service.handle(request)
        service.close()

        revived = AgreementService(journal=ServeJournal(path))
        revived.start()
        result = revived.handle(request)
        assert result.cached
        assert revived.cache.hits == 1
        snap = revived.metrics.snapshot()
        assert snap["executions_total"] == 0  # no re-execution happened
        revived.close()

    def test_cache_write_chaos_never_corrupts_what_is_served(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        service = AgreementService(cache=ResultCache(cache_dir))
        with chaos_scope(chaos_policy("cache-write-fail", times=2)):
            outcomes = [service.handle(r).outcome for r in self.requests()]
        assert service.cache.write_failures == 2
        expected = self.undisturbed_outcomes()
        for request, outcome in zip(self.requests(), outcomes):
            assert outcome == expected[request_digest(request)]
        # A fresh cache over the same directory never sees torn entries as
        # answers: every surviving disk entry equals the true outcome.
        fresh = ResultCache(cache_dir)
        for request in self.requests():
            digest = request_digest(request)
            entry = fresh.peek(digest)
            assert entry is None or entry == expected[digest]


def _http(port, method, path, body=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request(method, path,
                 body=None if body is None else json.dumps(body))
    response = conn.getresponse()
    payload = response.read()
    headers = dict(response.getheaders())
    conn.close()
    return response.status, payload, headers


def _raw(port, raw, timeout=30):
    """Send *raw* bytes, half-close, and read the reply to EOF.

    The half-close means the server sees the end of the request at once,
    so no exchange waits out ``READ_TIMEOUT``.  A reset after the server
    answered early (unread request bytes left behind) ends the read.
    """
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # answered and closed before it read everything
        reply = b""
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass
    return reply


_STATUS_LINE = re.compile(rb"HTTP/1\.1 ([1-5]\d\d) [A-Za-z ]+")


def _one_response(reply):
    """The status of *reply*, asserting it is exactly one HTTP/1.1 response:
    one status line, and a body that ends where its framing says."""
    head, sep, rest = reply.partition(b"\r\n\r\n")
    assert sep, f"no complete response head: {reply[:120]!r}"
    status_line, *header_lines = head.split(b"\r\n")
    match = _STATUS_LINE.fullmatch(status_line)
    assert match, f"not an HTTP/1.1 status line: {status_line[:120]!r}"
    headers = dict(line.split(b": ", 1) for line in header_lines)
    if b"Content-Length" in headers:
        assert int(headers[b"Content-Length"]) == len(rest), reply[:200]
    else:
        assert headers[b"Transfer-Encoding"] == b"chunked"
        while True:
            size_line, _, rest = rest.partition(b"\r\n")
            size = int(size_line, 16)
            if size == 0:
                assert rest == b"\r\n", rest[:120]
                break
            assert rest[size:size + 2] == b"\r\n"
            rest = rest[size + 2:]
    return int(match.group(1))


def _post_raw(path, body, content_length=None):
    length = len(body) if content_length is None else content_length
    return (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {length}\r\n\r\n").encode("latin-1") + body


#: Past asyncio's 64 KiB StreamReader line limit.
LONG = 70_000
#: 100 000 opening brackets, then as many closing: past any recursion limit.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


@pytest.fixture()
def frontend(tmp_path):
    """A live server on an OS-assigned port, torn down after the test."""
    service = AgreementService(
        cache=ResultCache(str(tmp_path / "cache")),
        journal=ServeJournal(str(tmp_path / "serve.jsonl")))
    frontend = HttpFrontend(service, port=0, max_queue=8, workers=2,
                            drain_deadline=5.0)
    thread = threading.Thread(target=frontend.run, daemon=True)
    thread.start()
    assert frontend.ready.wait(15), frontend._run_error
    yield frontend
    frontend.stop()
    thread.join(20)


class TestHttpFrontend:
    def test_health_and_readiness(self, frontend):
        status, body, _ = _http(frontend.port, "GET", "/healthz")
        assert status == 200 and json.loads(body)["status"] == "ok"
        status, body, _ = _http(frontend.port, "GET", "/readyz")
        assert status == 200 and json.loads(body)["status"] == "ready"

    def test_run_cold_then_cached(self, frontend):
        payload = small_request().to_dict()
        status, body, _ = _http(frontend.port, "POST", "/run", payload)
        first = json.loads(body)
        assert status == 200 and not first["cached"]
        status, body, _ = _http(frontend.port, "POST", "/run", payload)
        second = json.loads(body)
        assert status == 200 and second["cached"]
        assert second["outcome"] == first["outcome"]
        assert second["id"] == first["id"] == request_digest(small_request())

    def test_admission_failure_is_400_with_the_planner_message(self,
                                                               frontend):
        bad = dict(small_request().to_dict(), protocol="quantum")
        status, body, _ = _http(frontend.port, "POST", "/run", bad)
        assert status == 400
        assert "unknown protocol" in json.loads(body)["error"]

    def test_non_integer_faulty_id_is_400(self, frontend):
        """A float processor id is refused, not truncated to processor 2."""
        bad = dict(small_request().to_dict(), faulty=[2.7])
        status, body, _ = _http(frontend.port, "POST", "/run", bad)
        assert status == 400
        assert "'faulty'" in json.loads(body)["error"]

    def test_non_json_body_is_400(self, frontend):
        conn = http.client.HTTPConnection("127.0.0.1", frontend.port,
                                          timeout=30)
        conn.request("POST", "/run", body=b"not json")
        response = conn.getresponse()
        assert response.status == 400
        conn.close()

    @pytest.mark.parametrize("length", ["-5", "+7", "0x10", "1e3", "\u00b2"])
    def test_malformed_content_length_is_400(self, frontend, length):
        """Content-Length is ``1*DIGIT``: a sign, a non-digit, or a non-ASCII
        digit is answered with a 400, never an empty reply."""
        reply = _raw(frontend.port, _post_raw("/run", b"{}", length))
        assert reply.startswith(b"HTTP/1.1 400 "), reply[:80]
        assert b"unreadable Content-Length" in reply

    def test_unknown_route_404_wrong_method_405(self, frontend):
        assert _http(frontend.port, "GET", "/nope")[0] == 404
        assert _http(frontend.port, "GET", "/run")[0] == 405

    def test_sweep_streams_ndjson_in_completion_order(self, frontend):
        requests = [small_request(seed=seed).to_dict() for seed in (7, 8)]
        status, body, headers = _http(frontend.port, "POST", "/sweep",
                                      {"requests": requests})
        assert status == 200
        assert headers["Content-Type"].startswith("application/x-ndjson")
        lines = [json.loads(line)
                 for line in body.decode("utf-8").strip().splitlines()]
        summary = lines[-1]
        assert summary == {"event": "done", "total": 2, "cached": 0,
                           "executed": 2}
        outcomes = {entry["index"]: entry["outcome"] for entry in lines[:-1]}
        assert_same_outcome(outcomes[0], execute(small_request(seed=7)))
        assert_same_outcome(outcomes[1], execute(small_request(seed=8)))

    def test_sweep_serves_known_entries_from_cache(self, frontend):
        request = small_request(seed=9).to_dict()
        _http(frontend.port, "POST", "/run", request)
        status, body, _ = _http(frontend.port, "POST", "/sweep", [request])
        lines = [json.loads(line)
                 for line in body.decode("utf-8").strip().splitlines()]
        assert lines[0]["cached"] is True
        assert lines[-1]["cached"] == 1 and lines[-1]["executed"] == 0

    def test_sweep_rejecting_one_bad_request_names_its_index(self, frontend):
        requests = [small_request().to_dict(),
                    dict(small_request().to_dict(), protocol="quantum")]
        status, body, _ = _http(frontend.port, "POST", "/sweep",
                                {"requests": requests})
        assert status == 400
        assert json.loads(body)["error"].startswith("request 1:")

    def test_oversized_sweep_is_429_with_retry_after(self, frontend):
        # 9 uncached requests against a queue bound of 8: refused up front,
        # before anything is journaled or enqueued.
        requests = [small_request(seed=100 + i).to_dict() for i in range(9)]
        status, body, headers = _http(frontend.port, "POST", "/sweep",
                                      {"requests": requests})
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "queue" in json.loads(body)["error"]
        snap_status, snap_body, _ = _http(frontend.port, "GET",
                                          "/metrics?format=json")
        assert json.loads(snap_body)["backpressure_rejects_total"] == 1

    def test_metrics_text_and_json_agree(self, frontend):
        _http(frontend.port, "POST", "/run", small_request().to_dict())
        status, body, _ = _http(frontend.port, "GET", "/metrics?format=json")
        snap = json.loads(body)
        assert snap["executions_total"] == 1
        assert snap["queue_capacity"] == 8
        assert "cache" in snap and "engine_latency" in snap
        status, text, headers = _http(frontend.port, "GET", "/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_serve_executions_total 1" in text.decode("utf-8")

    def test_shutdown_drains_and_flips_readyz(self, tmp_path):
        service = AgreementService(
            journal=ServeJournal(str(tmp_path / "serve.jsonl")))
        frontend = HttpFrontend(service, port=0, max_queue=4,
                                drain_deadline=5.0)
        thread = threading.Thread(target=frontend.run, daemon=True)
        thread.start()
        assert frontend.ready.wait(15)
        _http(frontend.port, "POST", "/run", small_request().to_dict())
        frontend.stop()
        thread.join(20)
        assert not thread.is_alive()
        # A clean shutdown compacted the journal: one completed line.
        replay = ServeJournal(str(tmp_path / "serve.jsonl")).replay()
        assert replay.summary() == {"completed": 1, "pending": 0,
                                    "duplicates": 0, "torn_tail": False}


class TestHttpFraming:
    """Malformed framing ends in one 4xx response, never an empty reply."""

    @pytest.mark.parametrize("raw, message", [
        (b"GET /" + b"a" * LONG + b" HTTP/1.1\r\n\r\n",
         b"request line too long"),
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * LONG + b"\r\n\r\n",
         b"header line too long"),
    ], ids=["request-line", "header-line"])
    def test_over_long_line_is_400_naming_the_line(self, frontend, raw,
                                                   message):
        reply = _raw(frontend.port, raw)
        assert _one_response(reply) == 400, reply[:120]
        assert message in reply

    @pytest.mark.parametrize("path", ["/run", "/sweep"])
    @pytest.mark.parametrize("body", [DEEP_JSON, b"\x80"],
                             ids=["nested", "undecodable"])
    def test_body_json_cannot_read_is_400(self, frontend, path, body):
        reply = _raw(frontend.port, _post_raw(path, body))
        assert _one_response(reply) == 400, reply[:120]
        assert b"request body is not JSON: " in reply
        assert _http(frontend.port, "GET", "/healthz")[0] == 200

    @pytest.mark.parametrize("count, status", [(100, 200), (101, 431)])
    def test_header_lines_are_bounded(self, frontend, count, status):
        """At most ``MAX_HEADERS`` (100) header lines, as http.client."""
        head = b"".join(b"X-Header-%d: 1\r\n" % index
                        for index in range(count))
        reply = _raw(frontend.port,
                     b"GET /healthz HTTP/1.1\r\n" + head + b"\r\n")
        assert _one_response(reply) == status, reply[:120]
        if status == 431:
            assert b"more than 100 header lines" in reply
        assert _http(frontend.port, "GET", "/readyz")[0] == 200

    def test_bare_lf_line_endings_are_accepted(self, frontend):
        reply = _raw(frontend.port, b"GET /healthz HTTP/1.1\nHost: x\n\n")
        assert _one_response(reply) == 200

    def test_trickled_headers_time_out_as_one_block(self, frontend,
                                                    monkeypatch):
        """Each header line arrives inside the deadline, the block does not:
        the deadline covers the whole header phase, not each read."""
        from repro.serve import http as serve_http
        monkeypatch.setattr(serve_http, "READ_TIMEOUT", 0.5)
        reply = b""
        with socket.create_connection(("127.0.0.1", frontend.port),
                                      timeout=0.2) as sock:
            sock.sendall(b"POST /run HTTP/1.1\r\n")
            started = time.monotonic()
            for index in range(25):  # at most 5 s of trickling
                try:
                    sock.sendall(f"X-Trickle-{index}: 1\r\n".encode())
                    reply = sock.recv(65536)
                    break
                except socket.timeout:
                    continue
                except (BrokenPipeError, ConnectionResetError):
                    break
            elapsed = time.monotonic() - started
            sock.settimeout(5)
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 408 "), reply[:80]
        assert b"timed out reading headers" in reply
        assert elapsed < 2 * 0.5, elapsed


class _CountingExecutor(concurrent.futures.ThreadPoolExecutor):
    """A default executor that records the name of every call submitted."""

    def __init__(self):
        super().__init__(max_workers=2)
        self.calls = []

    def submit(self, fn, /, *args, **kwargs):
        self.calls.append(getattr(fn, "__name__", repr(fn)))
        return super().submit(fn, *args, **kwargs)


class TestAdmissionOnTheLoop:
    """``/run`` admission runs on the event loop: a hit never hops."""

    def test_admit_runs_on_the_event_loop_thread(self, frontend):
        admit, seen = frontend.service.admit, []

        def recording_admit(request):
            try:
                seen.append(asyncio.get_running_loop())
            except RuntimeError:  # no loop running in this thread
                seen.append(threading.current_thread())
            return admit(request)

        frontend.service.admit = recording_admit
        payload = small_request(seed=41).to_dict()
        assert _http(frontend.port, "POST", "/run", payload)[0] == 200
        assert _http(frontend.port, "POST", "/run", payload)[0] == 200
        bad = dict(payload, protocol="quantum")
        assert _http(frontend.port, "POST", "/run", bad)[0] == 400
        assert seen == [frontend._loop] * 3

    def test_only_a_miss_submits_to_the_executor_and_only_run_job(
            self, frontend):
        executor = _CountingExecutor()
        installed = threading.Event()

        def install():
            frontend._loop.set_default_executor(executor)
            installed.set()

        frontend._loop.call_soon_threadsafe(install)
        assert installed.wait(5)
        payload = small_request(seed=42).to_dict()
        status, body, _ = _http(frontend.port, "POST", "/run", payload)
        assert status == 200 and not json.loads(body)["cached"]
        assert executor.calls == ["run_job"]
        status, body, _ = _http(frontend.port, "POST", "/run", payload)
        assert status == 200 and json.loads(body)["cached"]
        bad = dict(payload, protocol="quantum")
        assert _http(frontend.port, "POST", "/run", bad)[0] == 400
        assert executor.calls == ["run_job"]


def _cheap_request(seed):
    return RunRequest(protocol="exponential", n=4, t=1, initial_value=1,
                      faulty=(3,), adversary="two-faced", seed=seed)


def _nested(depth, inner=b"0"):
    return b"[" * depth + inner + b"]" * depth


#: Request bodies: JSON the endpoints accept or refuse, JSON that nests
#: past the decoder's recursion limit (whole or in one field), and bytes
#: that are not UTF-8 or not JSON at all.
_BODIES = [
    b"", b"null", b"{}", b"[]", b"0", b"not json", b"\x80\xff",
    b'{"protocol"',
    json.dumps(_cheap_request(1).to_dict()).encode(),
    json.dumps([_cheap_request(2).to_dict()]).encode(),
    json.dumps({"requests": [_cheap_request(1).to_dict()]}).encode(),
    json.dumps(dict(_cheap_request(1).to_dict(), n="four")).encode(),
    _nested(5), _nested(900), DEEP_JSON,
    json.dumps(dict(_cheap_request(1).to_dict(), faulty="@")).encode()
    .replace(b'"@"', _nested(950)),
    json.dumps([dict(_cheap_request(2).to_dict(), faulty="@")]).encode()
    .replace(b'"@"', _nested(950)),
]


@st.composite
def _raw_requests(draw):
    """Raw request bytes from a small HTTP/1.1 grammar; never empty."""
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    method = draw(st.sampled_from([b"GET", b"POST", b"PUT", b"post", b""]))
    target = draw(st.sampled_from([
        b"/", b"/healthz", b"/readyz", b"/metrics?format=json", b"/run",
        b"/sweep", b"/nope", b"/run?x=1&&y", b"*", b"/" + b"a" * LONG]))
    version = draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"FTP/1",
                                    b""]))
    words = [word for word in (method, target, version) if word]
    if draw(st.booleans()):
        words = words[:draw(st.integers(0, len(words)))]
    lines = [b" ".join(words)]
    body = draw(st.sampled_from(_BODIES))
    length = draw(st.sampled_from([
        None, b"exact", b"+5", b"-1", b"0x10", b"", b" 12 ",
        b"99999999999999999999", "\u00b2".encode(), "\u0663".encode()]))
    sent = body
    for _ in range(draw(st.integers(0, 3))):
        lines.append(draw(st.sampled_from([
            b"Host: 127.0.0.1", b"Content-Type: application/json",
            b"X-No-Colon", b": empty-name", b"X-Long: " + b"a" * LONG,
            b"Content-Length: 3"])))
    if length is not None:
        exact = str(len(body)).encode()
        lines.append(b"Content-Length: "
                     + (exact if length == b"exact" else length))
        if length == b"exact" and body and draw(st.booleans()):
            sent = body[:draw(st.integers(0, len(body) - 1))]  # truncated
    return eol.join(lines) + eol + eol + sent


class TestHttpFramingFuzz:
    def test_every_raw_request_gets_exactly_one_non_500_response(
            self, tmp_path):
        """Each example half-closes after sending, so nothing waits out
        ``READ_TIMEOUT``; a 10 s socket timeout bounds every exchange."""
        service = AgreementService(cache=ResultCache(str(tmp_path / "c")))
        frontend = HttpFrontend(service, port=0, max_queue=8, workers=2,
                                drain_deadline=5.0)
        thread = threading.Thread(target=frontend.run, daemon=True)
        thread.start()
        assert frontend.ready.wait(15), frontend._run_error

        @settings(max_examples=150, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.data_too_large])
        @given(raw=_raw_requests())
        def exchange(raw):
            reply = _raw(frontend.port, raw, timeout=10)
            status = _one_response(reply)
            assert 200 <= status < 500, reply[:200]

        try:
            exchange()
            assert _http(frontend.port, "GET", "/readyz")[0] == 200
        finally:
            frontend.stop()
            thread.join(20)


class TestHttpRecovery:
    def test_restart_on_the_same_journal_serves_cache_hits(self, tmp_path):
        journal_path = str(tmp_path / "serve.jsonl")
        cache_dir = str(tmp_path / "cache")
        payload = small_request().to_dict()

        def boot():
            service = AgreementService(cache=ResultCache(cache_dir),
                                       journal=ServeJournal(journal_path))
            frontend = HttpFrontend(service, port=0, max_queue=8,
                                    drain_deadline=5.0)
            thread = threading.Thread(target=frontend.run, daemon=True)
            thread.start()
            assert frontend.ready.wait(15), frontend._run_error
            return frontend, thread

        frontend, thread = boot()
        status, body, _ = _http(frontend.port, "POST", "/run", payload)
        first = json.loads(body)
        frontend.stop()
        thread.join(20)

        frontend, thread = boot()
        status, body, _ = _http(frontend.port, "POST", "/run", payload)
        second = json.loads(body)
        frontend.stop()
        thread.join(20)
        assert second["cached"] and second["outcome"] == first["outcome"]

    def test_pending_journal_work_executes_on_boot(self, tmp_path):
        journal_path = str(tmp_path / "serve.jsonl")
        request = small_request()
        journal = ServeJournal(journal_path)
        journal.open()
        journal.accepted(request_digest(request), request)
        journal.close()

        service = AgreementService(journal=ServeJournal(journal_path))
        frontend = HttpFrontend(service, port=0, max_queue=8,
                                drain_deadline=10.0)
        thread = threading.Thread(target=frontend.run, daemon=True)
        thread.start()
        assert frontend.ready.wait(15), frontend._run_error
        # The recovered job runs on the worker pool; once it completes, the
        # same request over HTTP is a pure cache hit.
        deadline = 30.0
        import time
        end = time.monotonic() + deadline
        result = None
        while time.monotonic() < end:
            status, body, _ = _http(frontend.port, "POST", "/run",
                                    request.to_dict())
            result = json.loads(body)
            if result.get("cached"):
                break
            time.sleep(0.1)
        frontend.stop()
        thread.join(20)
        assert result is not None
        assert_same_outcome(result["outcome"], execute(request))
        replay = ServeJournal(journal_path).replay()
        assert replay.summary()["pending"] == 0
