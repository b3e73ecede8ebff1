"""The serving core: admission, cache, journal, supervised execution.

:class:`AgreementService` is the HTTP-free heart of ``repro serve`` — the
piece property tests drive directly and the asyncio frontend
(:mod:`repro.serve.http`) wraps.  Its lifecycle makes the
self-stabilization contract concrete:

admission
    :meth:`admit` reuses ``repro validate``'s dry-run — registry resolution
    plus :func:`~repro.api.planner.plan_run` — so malformed or unsafe
    requests are rejected **before** they consume queue space or journal
    lines, with the planner's own error text.

content-addressed serving
    :meth:`lookup` keys the result cache by
    :func:`~repro.serve.cache.request_digest`; a hit returns the stored
    :meth:`~repro.api.request.RunReport.outcome_dict` with **no**
    execution.  Identical queries from a million users cost one simulation.

durable execution
    :meth:`accept` journals the request before it runs; :meth:`run_job`
    executes it under a :class:`~repro.runtime.supervision.Supervisor`
    (bounded seeded retries around worker death — the chaos
    ``serve-worker-death`` injection exercises this), stores the outcome,
    and journals the completion.  Journal failures are fail-stop: the
    service records its :attr:`fault` and refuses further work rather than
    accepting requests it cannot make durable.

recovery
    :meth:`start` replays the journal (completed → cache warm-start,
    accepted-without-completion → :attr:`pending` re-execution), compacts
    the log (torn crash tails repaired, duplicate completions dropped *and
    counted*), and reopens it for append.  Because every run is a pure
    function of ``(request, seed)``, a crashed-and-recovered service serves
    outcomes byte-identical to one that never crashed — the property the
    chaos suite pins.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..api.facade import execute
from ..api.planner import plan_run
from ..api.request import RunRequest
from ..runtime.chaos import current_chaos
from ..runtime.errors import (CheckpointWriteError, ConfigurationError,
                              ReproError, WorkerDiedError)
from ..runtime.supervision import RetryPolicy, Supervisor
from .cache import ResultCache, request_digest
from .journal import ServeJournal
from .metrics import ServeMetrics


class AdmissionError(ConfigurationError):
    """A request failed the pre-enqueue dry-run (HTTP 400, never enqueued)."""


class ServiceUnavailableError(ReproError):
    """The service is faulted or draining and cannot take the request (503)."""


@dataclass
class ServeResult:
    """One served request: its cache key, outcome, and how it was produced."""

    digest: str
    outcome: Dict[str, Any]
    cached: bool
    engine: str = ""
    seconds: float = 0.0
    resilience: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"id": self.digest, "cached": self.cached,
                                "outcome": self.outcome}
        if self.engine:
            data["engine"] = self.engine
        if self.resilience:
            data["resilience"] = list(self.resilience)
        return data


class AgreementService:
    """Admission, caching, journaling, and supervised execution — no HTTP."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 journal: Optional[ServeJournal] = None,
                 metrics: Optional[ServeMetrics] = None,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.cache = cache if cache is not None else ResultCache()
        self.journal = journal
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=3, base_delay=0.01)
        #: The first fatal fault (a journal append failure) — fail-stop.
        self.fault: Optional[BaseException] = None
        #: Accepted-but-unfinished jobs recovered by the last :meth:`start`.
        self.pending: List[Tuple[str, RunRequest]] = []
        #: The last recovery summary (journal replay accounting).
        self.last_recovery: Dict[str, Any] = {}
        self._jobs = 0
        self._jobs_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> Dict[str, Any]:
        """Recover from the journal (if any) and open it for append.

        Returns the recovery summary: completed entries warmed into the
        cache, pending requests re-queued on :attr:`pending`, duplicate
        completions and torn tails counted — never silently merged.
        """
        if self.journal is None:
            self.last_recovery = {}
            return {}
        replay = self.journal.replay()
        # Compaction keeps the journal from growing across restarts:
        # superseded acceptances, duplicate completions and any torn tail go.
        self.journal.compact(replay)
        self.journal.open()
        for digest, outcome in replay.completed.items():
            self.cache.warm(digest, outcome)
        self.pending = list(replay.pending)
        self.last_recovery = replay.summary()
        self.metrics.increment("journal_replays_total")
        if replay.duplicates:
            self.metrics.increment("journal_duplicate_completions_total",
                                   replay.duplicates)
        if replay.torn_tail:
            self.metrics.increment("journal_torn_tails_repaired_total")
        return self.last_recovery

    def close(self) -> None:
        """Close the journal; a clean shutdown compacts it afterwards."""
        if self.journal is not None:
            self.journal.close()

    def compact_journal(self) -> Dict[str, Any]:
        """Compact the (closed) journal — the clean-shutdown checkpoint."""
        if self.journal is None:
            return {}
        return self.journal.compact()

    # -- the serving path ----------------------------------------------------
    def admit(self, request: RunRequest) -> str:
        """Dry-run *request* through the registries and planner; return its key.

        Exactly what ``repro validate`` checks, run **before** anything is
        enqueued or journaled: unknown protocols/adversaries, bad
        parameters, and unsafe instance shapes are turned away at the door
        with the resolver's own message.
        """
        if self.fault is not None:
            raise ServiceUnavailableError(
                f"service is faulted ({type(self.fault).__name__}: "
                f"{self.fault}); restart to recover from the journal")
        try:
            spec, config, faulty, adversary = request.resolve_parts()
            plan_run(request, spec, config, faulty, adversary)
        except (ReproError, ValueError, TypeError) as exc:
            self.metrics.increment("admission_rejects_total")
            raise AdmissionError(str(exc)) from exc
        return request_digest(request)

    def lookup(self, request: RunRequest) -> Tuple[str, Optional[Dict[str,
                                                                      Any]]]:
        """The request's digest and its cached outcome, if one exists."""
        digest = request_digest(request)
        return digest, self.cache.get(digest)

    def accept(self, digest: str, request: RunRequest) -> None:
        """Journal the admitted request — durable intent, before execution."""
        self.metrics.increment("requests_total")
        if self.journal is None:
            return
        try:
            self.journal.accepted(digest, request)
        except CheckpointWriteError as exc:
            self.fault = exc
            raise

    def cached_result(self, digest: str) -> Optional[ServeResult]:
        """Serve *digest* from the cache, counting the request; ``None`` = miss."""
        started = time.perf_counter()
        entry = self.cache.get(digest)
        if entry is None:
            return None
        self.metrics.increment("requests_total")
        self.metrics.observe_latency("cache", time.perf_counter() - started)
        return ServeResult(digest=digest, outcome=entry, cached=True,
                           engine="cache",
                           seconds=time.perf_counter() - started)

    def run_job(self, digest: str, request: RunRequest) -> ServeResult:
        """Execute one accepted request under supervision and record it."""
        with self._jobs_lock:
            job_index = self._jobs
            self._jobs += 1
        started = time.perf_counter()

        def worker() -> Any:
            controller = current_chaos()
            if controller is not None and controller.take("serve-job",
                                                          index=job_index):
                raise WorkerDiedError(
                    f"chaos: serve worker died executing job {job_index}")
            return execute(request)

        supervisor = Supervisor([("serve-worker", worker)],
                                retry=self.retry, key=f"serve:{digest}")
        try:
            report, trail = supervisor.run()
        except Exception:
            self.metrics.increment("execution_failures_total")
            raise
        elapsed = time.perf_counter() - started
        outcome = report.outcome_dict()
        self.cache.put(digest, outcome)
        if self.journal is not None:
            try:
                self.journal.completed(digest, outcome)
            except CheckpointWriteError as exc:
                self.fault = exc
                raise
        self.metrics.increment("executions_total")
        self.metrics.observe_latency(report.engine_resolved, elapsed)
        resilience = list(report.metadata.get("resilience", ())) + trail
        self.metrics.observe_resilience(resilience)
        return ServeResult(digest=digest, outcome=outcome, cached=False,
                           engine=report.engine_resolved, seconds=elapsed,
                           resilience=resilience)

    def handle(self, request: RunRequest) -> ServeResult:
        """The whole synchronous path: admit → cache → journal → execute."""
        digest = self.admit(request)
        cached = self.cached_result(digest)
        if cached is not None:
            return cached
        self.accept(digest, request)
        return self.run_job(digest, request)

    def run_pending(self) -> List[ServeResult]:
        """Execute every journal-recovered pending job, in acceptance order.

        They were journaled as accepted before the crash, so they are *not*
        re-journaled — only executed and completed.
        """
        results = []
        pending, self.pending = self.pending, []
        for digest, request in pending:
            results.append(self.run_job(digest, request))
        return results
