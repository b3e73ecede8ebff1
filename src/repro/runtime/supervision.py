"""Supervision primitives: seeded backoff, audit trails, degradation ladders.

Self-stabilization practice says the substrate must recover from component
failure before anything durable can be layered above it.  This module is
that recovery machinery for the execution fabric: a
:class:`RetryPolicy` whose exponential backoff (including jitter) is a
**pure function** of a seed key and the attempt number — so a supervised
run is still a deterministic function of ``(request, seed)`` — and a
:class:`Supervisor` that walks a *degradation ladder* of execution rungs
(e.g. ``batched → pool → serial``), retrying each rung a bounded
number of times before downgrading to the next, and recording every retry,
downgrade, and skip as a structured audit trail.

The trail's records are plain JSON-ready dicts shared by everything that
reports resilience events — the supervised executor, the pool executor's
broken-pool recovery, and the sweep checkpoint writer — and end up in
``RunReport.metadata["resilience"]``:

``{"event": "retry", "stage": "pool", "attempt": 1,
   "error": "WorkerDiedError", "detail": "...", "delay": 0.05}``
    one failed attempt, retried on the same rung after ``delay`` seconds;
``{"event": "downgrade", "from": "pool", "to": "serial",
   "error": "WorkerTimeoutError", "detail": "..."}``
    a rung's retry budget is spent, the ladder steps down;
``{"event": "skip", "stage": "pool", "reason": "..."}``
    a rung does not apply to this run (e.g. no process pool here);
``{"event": "completed", "stage": "batched", "attempt": 1}``
    the rung that finally produced the report.

A trail is reported only when something actually *failed* (a retry or a
downgrade happened); rungs that merely did not apply — the pool rung on a
platform that cannot spawn processes, say — are an environment property, not a
recovery, so such runs are undisturbed and carry no metadata at all.

What counts as *recoverable* is deliberately narrow: fabric failures
(:class:`~repro.runtime.errors.FabricError`), simulation-substrate failures
(:class:`~repro.runtime.errors.SimulationError`), broken process pools, and
OS-level errors.  Configuration and registry errors propagate immediately —
retrying a malformed request would only mask the bug.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import FabricError, SimulationError, SupervisionExhaustedError

#: The default degradation ladder, most capable rung first.
DEFAULT_LADDER: Tuple[str, ...] = ("batched", "pool", "serial")

#: Exception types a supervisor retries / downgrades around.
RECOVERABLE: Tuple[type, ...] = (FabricError, SimulationError,
                                 BrokenProcessPool, OSError, EOFError)


class RungUnavailable(Exception):
    """Control flow: this rung does not apply to the run (not a failure)."""


def backoff_fraction(key: str, attempt: int) -> float:
    """A deterministic jitter fraction in ``[0, 1)`` for ``(key, attempt)``.

    A stable cryptographic hash, like
    :func:`repro.api.request.derive_seed`, so supervised executions are
    reproducible across processes and platforms.
    """
    digest = hashlib.sha256(
        f"repro-backoff:{key}:{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") / 2 ** 32


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``delay(key, attempt)`` is a pure function: the base delay grows by
    ``backoff_factor`` per attempt, is capped at ``max_delay``, and is
    stretched by a seeded jitter of up to ``jitter`` (a fraction) derived
    from ``key`` — never from wall clock or a shared RNG.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"a retry policy allows at least one attempt, "
                f"got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("retry delays and jitter cannot be negative")

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait after failed *attempt* (1-based) for *key*."""
        if attempt < 1:
            raise ValueError(f"attempts are 1-based, got {attempt}")
        raw = min(self.base_delay * self.backoff_factor ** (attempt - 1),
                  self.max_delay)
        return raw * (1.0 + self.jitter * backoff_fraction(key, attempt))


# ---------------------------------------------------------------------------
# Structured audit-trail records (the metadata["resilience"] vocabulary).
# ---------------------------------------------------------------------------

def _error_fields(error: BaseException) -> Dict[str, str]:
    return {"error": type(error).__name__, "detail": str(error)[:200]}


def retry_event(stage: str, attempt: int, error: BaseException,
                delay: float) -> Dict[str, Any]:
    return {"event": "retry", "stage": stage, "attempt": attempt,
            "delay": round(delay, 6), **_error_fields(error)}


def downgrade_event(from_stage: str, to_stage: Optional[str],
                    error: BaseException) -> Dict[str, Any]:
    return {"event": "downgrade", "from": from_stage, "to": to_stage,
            **_error_fields(error)}


def skip_event(stage: str, reason: str) -> Dict[str, Any]:
    return {"event": "skip", "stage": stage, "reason": reason}


def completed_event(stage: str, attempt: int) -> Dict[str, Any]:
    return {"event": "completed", "stage": stage, "attempt": attempt}


def pool_retry_record(attempt: int, error: BaseException,
                      fallback: str) -> Dict[str, Any]:
    """The structured successor of the pool executor's ``retried`` flag."""
    return {"event": "retry", "stage": "pool", "attempt": attempt,
            "fallback": fallback, **_error_fields(error)}


def checkpoint_retry_event(attempt: int, error: BaseException,
                           delay: float) -> Dict[str, Any]:
    return {"event": "retry", "stage": "checkpoint", "attempt": attempt,
            "delay": round(delay, 6), **_error_fields(error)}


class Supervisor:
    """Walk a degradation ladder of rungs with bounded, seeded retries.

    *rungs* is an ordered sequence of ``(stage_name, thunk)`` pairs.  Each
    thunk either returns the result, raises :class:`RungUnavailable` (the
    rung does not apply — recorded as a skip, no retries), raises a
    recoverable error (retried up to ``retry.max_attempts`` times with
    seeded backoff, then downgraded), or raises anything else (propagated
    immediately).  :meth:`run` returns ``(result, trail)`` where *trail* is
    the structured audit of everything that went wrong on the way — empty
    for an undisturbed first-rung success.
    """

    def __init__(self, rungs: Sequence[Tuple[str, Callable[[], Any]]],
                 retry: Optional[RetryPolicy] = None, key: str = "",
                 recoverable: Tuple[type, ...] = RECOVERABLE,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if not rungs:
            raise ValueError("a supervisor needs at least one rung")
        self.rungs = list(rungs)
        self.retry = retry or RetryPolicy()
        self.key = key
        self.recoverable = recoverable
        self._sleep = sleep

    def run(self) -> Tuple[Any, List[Dict[str, Any]]]:
        trail: List[Dict[str, Any]] = []
        last_error: Optional[BaseException] = None
        for position, (stage, thunk) in enumerate(self.rungs):
            for attempt in range(1, self.retry.max_attempts + 1):
                try:
                    result = thunk()
                except RungUnavailable as skip:
                    trail.append(skip_event(stage, str(skip)))
                    break
                except self.recoverable as exc:
                    last_error = exc
                    if attempt < self.retry.max_attempts:
                        delay = self.retry.delay(f"{self.key}:{stage}",
                                                 attempt)
                        trail.append(retry_event(stage, attempt, exc, delay))
                        if delay > 0:
                            self._sleep(delay)
                    else:
                        next_stage = (self.rungs[position + 1][0]
                                      if position + 1 < len(self.rungs)
                                      else None)
                        trail.append(downgrade_event(stage, next_stage, exc))
                        break
                else:
                    if any(event["event"] in ("retry", "downgrade")
                           for event in trail):
                        trail.append(completed_event(stage, attempt))
                        return result, trail
                    # Nothing actually *failed*: rungs that merely did not
                    # apply (e.g. pool without processes) are an environment
                    # property, not a recovery — the run is undisturbed and
                    # reports no trail at all.
                    return result, []
        summary = "; ".join(
            f"{event.get('stage', event.get('from'))}: "
            f"{event.get('error', event.get('reason', '?'))}"
            for event in trail) or "no rung applied"
        raise SupervisionExhaustedError(
            f"every rung of the ladder "
            f"{tuple(stage for stage, _ in self.rungs)} failed "
            f"({summary})") from last_error
