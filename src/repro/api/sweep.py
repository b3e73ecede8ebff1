"""Durable sweeps: streaming execution with a checkpoint log.

A sweep of hundreds of agreement runs should survive a crash without
re-running what already finished.  :func:`iter_sweep` streams a
:class:`~repro.api.request.SweepSpec` through an executor and, when given a
checkpoint path, appends one completion per request **as it finishes**, so a
killed process loses at most the runs in flight.  ``resume=True`` replays
the log first: completed requests are yielded from the log and skipped by
the executor, and the merged report set equals an uninterrupted run —
exactly, when the sweep's seed policy is ``"derive"`` (per-request seeds
are positional, not stateful).

The checkpoint is a :class:`~repro.api.durable.DurableLog` — header, torn
tail, resume repair, compaction and named errors are described there —
whose header pins the sweep's canonical SHA-256 (:func:`sweep_digest`)::

    {"kind": "repro-sweep-checkpoint", "version": 1,
     "total": 12, "sweep_sha256": "..."}          # header line
    {"index": 0, "report": { ...RunReport... }}   # one line per completion,
    {"index": 3, "report": { ... }}               # in completion order

A request checkpointed twice (e.g. a retried cell) resolves last-write-wins
and is counted as a duplicate.  A failed append is retried a bounded number
of times, and the recovery recorded in the report's
``metadata["resilience"]``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..runtime.chaos import chaos_scope, current_chaos
from ..runtime.errors import CheckpointWriteError, ConfigurationError
from ..runtime.supervision import RetryPolicy, checkpoint_retry_event
from .durable import DurableLog, LogFormat
from .executors import ExecutorSpec, resolve_executor
from .request import RunReport, SweepSpec

CHECKPOINT_KIND = "repro-sweep-checkpoint"
CHECKPOINT_VERSION = 1
_FORMAT = LogFormat(CHECKPOINT_KIND, CHECKPOINT_VERSION,
                    name="a sweep checkpoint", entry="completion",
                    subject="sweep")

logger = logging.getLogger("repro.sweep")

#: Bounded retry for completion appends (transient ENOSPC / EIO survive).
_WRITE_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01)


def sweep_digest(spec: SweepSpec) -> str:
    """The canonical SHA-256 of a sweep (what a checkpoint header pins)."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _checkpoint(path: str, spec: SweepSpec, fsync: bool = False
                ) -> DurableLog:
    return DurableLog(path, _FORMAT,
                      {"sweep_sha256": sweep_digest(spec),
                       "total": len(spec.requests)}, fsync)


@dataclass
class CheckpointScan:
    """What a checkpoint log actually holds: completions plus its health.

    ``duplicates`` counts superseded completion lines — a request
    checkpointed more than once means it *executed* more than once (a
    retried cell, or two sweeps appending to one log), which last-write-wins
    used to mask silently.  ``torn_tail`` records a truncated final line
    (crash mid-write), repaired away by :func:`compact_checkpoint` or by the
    next resume.
    """

    completed: Dict[int, RunReport] = field(default_factory=dict)
    duplicates: int = 0
    torn_tail: bool = False
    #: Structured warning events, one per anomaly — the vocabulary serve's
    #: journal replay reports through its recovery summary and /metrics.
    events: List[Dict[str, Any]] = field(default_factory=list)


def scan_checkpoint(path: str, spec: SweepSpec) -> CheckpointScan:
    """Read a checkpoint log in full: completions, duplicates, torn tail.

    The header must pin *spec*.  An empty or missing file reads as no
    completions.  Every anomaly — a superseded duplicate completion, a torn
    tail — is logged as a structured warning and recorded on the returned
    :class:`CheckpointScan`, so replay paths (``--resume``, the serve
    journal) surface double execution instead of silently masking it.
    """
    total = len(spec.requests)

    def decode(entry):
        index = entry["index"]
        if not isinstance(index, int) or not 0 <= index < total:
            raise ValueError(f"request index {index!r} is outside this "
                             f"sweep's 0..{total - 1}")
        return index, RunReport.from_dict(entry["report"])

    body = _checkpoint(path, spec).scan(decode)
    scan = CheckpointScan(torn_tail=body.torn_tail)
    for line_number, (index, report) in body.entries:
        if index in scan.completed:
            scan.duplicates += 1
            event = {"event": "duplicate-completion", "index": index,
                     "line": line_number, "path": path}
            scan.events.append(event)
            logger.warning(
                "checkpoint %s: request %d checkpointed more than once "
                "(line %d supersedes an earlier completion) — the request "
                "was executed at least twice; last write wins: %s",
                path, index, line_number, event)
        scan.completed[index] = report
    if scan.torn_tail:
        event = {"event": "torn-tail", "path": path}
        scan.events.append(event)
        logger.warning(
            "checkpoint %s ends in a truncated line (crash mid-write); "
            "the torn tail was ignored: %s", path, event)
    return scan


def read_checkpoint(path: str, spec: SweepSpec) -> Dict[int, RunReport]:
    """The completed ``{index: report}`` entries of a checkpoint log.

    A thin wrapper over :func:`scan_checkpoint` keeping the historical
    mapping shape; use the scan directly to see duplicate and torn-tail
    diagnostics.
    """
    return scan_checkpoint(path, spec).completed


def compact_checkpoint(path: str, spec: SweepSpec) -> Dict[str, Any]:
    """Rewrite a checkpoint dropping superseded duplicates and any torn tail.

    The log keeps one line per completed request (the latest), ordered by
    index, under a fresh header.  Returns a summary:
    ``{"completed": n, "duplicates_dropped": n, "torn_tail_repaired": bool}``.
    A clean, missing or empty checkpoint is left as it is.
    """
    scan = scan_checkpoint(path, spec)
    if scan.duplicates or scan.torn_tail:
        _checkpoint(path, spec).compact(
            {"index": index, "report": scan.completed[index].to_dict()}
            for index in sorted(scan.completed))
    return {"completed": len(scan.completed),
            "duplicates_dropped": scan.duplicates,
            "torn_tail_repaired": scan.torn_tail}


def _append_completion(log: DurableLog, index: int, report: RunReport,
                       write_counter: int) -> None:
    """Append one completion line, retrying failed appends bounded times.

    A failed append leaves no partial line behind, and each retry records a
    :func:`checkpoint_retry_event` on the report's
    ``metadata["resilience"]`` — which the retried line carries, making the
    recovery itself durable.
    """
    controller = current_chaos()
    for attempt in range(1, _WRITE_RETRY.max_attempts + 1):
        try:
            if controller is not None and controller.take(
                    "checkpoint-write", index=write_counter):
                raise OSError("chaos: simulated checkpoint append failure")
            log.append({"index": index, "report": report.to_dict()})
            return
        except (OSError, CheckpointWriteError) as exc:
            error = exc.__cause__ or exc  # the I/O error under the failure
            if attempt >= _WRITE_RETRY.max_attempts:
                raise CheckpointWriteError(
                    f"checkpoint {log.path} append for request {index} "
                    f"failed {attempt} times; last error: {error}") from exc
            delay = _WRITE_RETRY.delay(f"checkpoint:{log.path}:{index}",
                                       attempt)
            report.metadata.setdefault("resilience", []).append(
                checkpoint_retry_event(attempt, error, delay))
            time.sleep(delay)


def iter_sweep(spec: SweepSpec, checkpoint: Optional[str] = None,
               resume: bool = False, executor: ExecutorSpec = None,
               fsync: bool = False, chaos: object = None
               ) -> Iterator[Tuple[int, RunReport]]:
    """Stream a sweep's ``(index, report)`` pairs, checkpointing as they finish.

    Already-completed requests (``resume=True`` with an existing checkpoint)
    are yielded first, straight from the log; the rest stream from the
    executor in completion order.  *executor* overrides the spec's backend
    choice (an :class:`~repro.api.executors.Executor` instance or registry
    name); ``None`` builds the spec's own ``executor``/``executor_params``.

    ``fsync=True`` additionally fsyncs the checkpoint after the header and
    every completion append — durability against power loss, at a per-line
    syscall cost (a written line already survives process death).
    *chaos* optionally activates a :class:`~repro.runtime.chaos.ChaosPolicy`
    (or controller, or plain policy data) for the sweep's duration.
    """
    requests = spec.resolved_requests()
    completed: Dict[int, RunReport] = {}
    if checkpoint and resume:
        completed = read_checkpoint(checkpoint, spec)
    for index in sorted(completed):
        yield index, completed[index]
    remaining = [(i, request) for i, request in enumerate(requests)
                 if i not in completed]
    if not remaining:
        return

    if executor is None and spec.executor:
        runner, owned = resolve_executor(spec.executor,
                                         dict(spec.executor_params))
    else:
        runner, owned = resolve_executor(executor)
    log = _checkpoint(checkpoint, spec, fsync) if checkpoint else None
    with chaos_scope(chaos):
        try:
            if log is not None:
                log.open(resume)
            submitted = {}
            for index, request in remaining:
                submitted[runner.submit(request)] = index
            write_counter = 0
            for ticket, report in runner.iter_reports():
                index = submitted[ticket]
                if log is not None:
                    _append_completion(log, index, report, write_counter)
                    write_counter += 1
                yield index, report
        finally:
            if log is not None:
                log.close()
            if owned:
                runner.close()


def run_sweep(spec: SweepSpec, checkpoint: Optional[str] = None,
              resume: bool = False, executor: ExecutorSpec = None,
              fsync: bool = False, chaos: object = None
              ) -> List[RunReport]:
    """Run a sweep to completion and return its reports in request order."""
    reports: Dict[int, RunReport] = {}
    for index, report in iter_sweep(spec, checkpoint=checkpoint,
                                    resume=resume, executor=executor,
                                    fsync=fsync, chaos=chaos):
        reports[index] = report
    missing = [i for i in range(len(spec.requests)) if i not in reports]
    if missing:  # pragma: no cover - executors yield every submission
        raise ConfigurationError(
            f"sweep finished without reports for request(s) {missing}")
    return [reports[i] for i in range(len(spec.requests))]
