"""The pluggable execution layer: ``submit`` / ``iter_reports`` / ``close``.

Distributed-systems practice models the algorithm being simulated and the
substrate running it as separate concerns; this module is that separation
for :mod:`repro.api`.  An :class:`Executor` accepts serializable
:class:`~repro.api.request.RunRequest` values via :meth:`~Executor.submit`
and streams ``(index, report)`` pairs back through
:meth:`~Executor.iter_reports` **as runs finish** — which is what lets
sweeps checkpoint durably (:mod:`repro.api.sweep`) and callers act on early
results while later cells are still running.

Three built-in backends, addressable by name through
:func:`executor_registry` (the same :class:`~repro.api.registries.RegistryEntry`
machinery as the protocol/adversary registries):

``serial``
    In-process, one request at a time, reports streamed in submission order.
``pool``
    The process-pool executor: one worker per request slot (each request
    carries its own engine choice), completion-order streaming, and clean
    degradation to in-process runs for single requests / one-worker pools /
    platforms without process spawning.
``supervised``
    The resilient backend: every run is supervised
    (:mod:`repro.runtime.supervision`) with per-worker deadlines, bounded
    seeded retries, and a degradation ladder ``batched → pool → serial``;
    every recovery step is audited in
    ``RunReport.metadata["resilience"]``.

Requests are executed exactly as :func:`repro.api.facade.execute` would —
same planner, same reports — so swapping backends never changes results,
only where the work happens.  :func:`repro.api.facade.iter_execute` is the
one caller outside this module that submits to an executor and drains it.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures import wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Set,
                    Tuple, Union)

from ..core.engine import BATCHED, FAST
from ..runtime.chaos import build_chaos, chaos_scope, current_chaos
from ..runtime.errors import ConfigurationError, WorkerTimeoutError
from ..runtime.supervision import (DEFAULT_LADDER, RetryPolicy,
                                   RungUnavailable, Supervisor,
                                   pool_retry_record)
from .registries import ParamSpec, RegistryEntry, RegistryError
from .request import RunReport, RunRequest

#: What callers may pass wherever an executor is accepted: an instance, a
#: registered name, or ``None`` for the default (``"pool"``).
ExecutorSpec = Union["Executor", str, None]


class Executor:
    """The execution-substrate protocol: ``submit`` / ``iter_reports`` / ``close``.

    Subclasses implement :meth:`iter_reports`; everything else — submission
    bookkeeping, context management, close-state checks — is shared.
    ``iter_reports`` drains the requests submitted so far and yields
    ``(index, report)`` pairs as each run finishes (the order is
    backend-defined; indexes are assigned by :meth:`submit` in submission
    order and are stable across backends).
    """

    #: Registry name, overridden per backend (surfaced in errors and docs).
    name = "executor"

    def __init__(self) -> None:
        self._pending: List[Tuple[int, RunRequest]] = []
        self._submitted = 0
        self._closed = False

    def submit(self, request: RunRequest) -> int:
        """Queue *request* and return its sweep index."""
        if self._closed:
            raise ConfigurationError(
                f"cannot submit to a closed {self.name!r} executor")
        index = self._submitted
        self._submitted += 1
        self._pending.append((index, request))
        return index

    def iter_reports(self) -> Iterator[Tuple[int, RunReport]]:
        """Yield ``(index, report)`` for every pending request, as they finish."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; further submissions are rejected."""
        self._closed = True

    def _take_pending(self) -> List[Tuple[int, RunRequest]]:
        pending, self._pending = self._pending, []
        return pending

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _run_in_process(request: RunRequest) -> RunReport:
    """Run *request* in this process, exactly as the facade's ``execute`` does.

    The one in-process run behind every backend: the serial executor, each
    pool worker and the pool's in-process fallback, and the supervised
    ladder's ``batched`` rung.
    """
    from .facade import execute
    return execute(request)


#: What a pool worker runs: a module-level name, so tests can make pool
#: workers die or hang while the in-process paths stay intact.
_execute_for_pool = _run_in_process


class SerialExecutor(Executor):
    """In-process execution, streamed in submission order."""

    name = "serial"

    def iter_reports(self) -> Iterator[Tuple[int, RunReport]]:
        for index, request in self._take_pending():
            yield index, _run_in_process(request)


def _chaos_exit_worker(request: RunRequest) -> RunReport:  # pragma: no cover
    """The pool-worker-kill chaos payload: die like an OOM kill would."""
    os._exit(1)


class PoolExecutor(Executor):
    """Process-pool execution: one worker slot per request, completion order.

    Workers re-plan each request locally, so eligible EIG cells compound
    whole-run batched stepping with cross-cell process parallelism.  Runs
    in process instead for a single pending request, an effective worker
    count of one, or platforms that cannot spawn a process pool.

    A worker that *dies* mid-run (OOM kill, a segfault in an extension,
    ``os._exit``) poisons the whole :class:`ProcessPoolExecutor`: every
    unfinished future raises :class:`BrokenProcessPool`.  Requests are pure
    descriptions, so the executor retries every undelivered request
    in-process, once, and records the recovery on each resulting report as
    a structured ``metadata["resilience"]`` entry (attempt count, exception
    class, fallback executor — the same vocabulary the supervised executor
    writes) — a sweep survives a poisoned pool instead of losing all its
    in-flight cells.
    """

    name = "pool"

    #: The function each worker slot runs — a seam so tests can substitute a
    #: crashing worker without reaching into module internals.
    _worker = staticmethod(_execute_for_pool)

    def __init__(self, max_workers: Optional[int] = None) -> None:
        super().__init__()
        self.max_workers = max_workers

    def iter_reports(self) -> Iterator[Tuple[int, RunReport]]:
        pending = self._take_pending()
        workers = min(self.max_workers or os.cpu_count() or 1, len(pending))
        pool = None
        if workers > 1:
            try:
                pool = ProcessPoolExecutor(max_workers=workers)
            except (OSError, PermissionError):  # pragma: no cover - sandboxes
                pass
        delivered: Set[int] = set()
        broken_error: Optional[BaseException] = None
        if pool is not None:
            with pool:
                futures = self._submit(pool, pending)
                outstanding = set(futures)
                while outstanding and broken_error is None:
                    done, outstanding = wait(outstanding,
                                             return_when=FIRST_COMPLETED)
                    for future in done:
                        try:
                            report = future.result()
                        except BrokenProcessPool as exc:
                            broken_error = exc
                            continue
                        delivered.add(futures[future])
                        yield futures[future], report
        # What the pool did not deliver runs here: everything when one
        # worker suffices (a one-worker pool is serial execution plus fork
        # overhead) or no pool can start, and the requests a dead worker
        # stranded, retried once with the recovery on their reports.
        for index, request in pending:
            if index in delivered:
                continue
            report = _run_in_process(request)
            if broken_error is not None:
                report.metadata.setdefault("resilience", []).append(
                    pool_retry_record(attempt=2, error=broken_error,
                                      fallback="serial"))
            yield index, report

    def _submit(self, pool: ProcessPoolExecutor,
                pending: List[Tuple[int, RunRequest]]) -> Dict[Future, int]:
        """Hand every pending request to *pool*; ``{}`` if the platform refuses."""
        controller = current_chaos()
        futures = {}
        try:
            for index, request in pending:
                worker = self._worker
                if controller is not None and any(
                        fault.kind == "pool-worker-kill"
                        for fault in controller.take("pool-request",
                                                     index=index)):
                    worker = _chaos_exit_worker
                futures[pool.submit(worker, request)] = index
        except (OSError, PermissionError):  # pragma: no cover - sandboxes
            pool.shutdown(wait=False)
            return {}
        return futures


# ---------------------------------------------------------------------------
# The supervised executor: a degradation ladder over the other backends.
# ---------------------------------------------------------------------------

def _rung_pool(request: RunRequest,
               deadline: Optional[float]) -> RunReport:
    """One fresh single-slot pool worker, bounded by *deadline* seconds.

    A fresh pool per attempt keeps the rung hermetic: a worker poisoned by a
    previous attempt cannot leak into this one.
    """
    try:
        pool = ProcessPoolExecutor(max_workers=1)
    except (OSError, PermissionError) as exc:  # pragma: no cover - sandboxes
        raise RungUnavailable(f"cannot spawn a pool worker: {exc}") from exc
    try:
        future = pool.submit(_execute_for_pool, request)
        try:
            return future.result(timeout=deadline)
        except FuturesTimeout:
            for process in getattr(pool, "_processes", {}).values():
                process.kill()
            raise WorkerTimeoutError(
                f"pool worker missed its {deadline:g}s reply deadline "
                f"for seed {request.seed}") from None
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _rung_serial(request: RunRequest) -> RunReport:
    """The floor of the ladder: in-process, unbatched, no numpy required.

    A ``batched`` plan steps per processor on the ``fast`` engine here; an
    explicit per-processor engine runs as asked.  The report names the
    engine that ran.
    """
    from ..runtime.simulation import run_agreement
    from .planner import plan_run
    spec, config, faulty, adversary = request.resolve_parts()
    plan = plan_run(request, spec, config, faulty, adversary)
    engine = FAST if plan.engine == BATCHED else plan.engine
    result = run_agreement(spec, replace(config, engine=engine), faulty,
                           adversary, seed=request.seed)
    return RunReport.from_result(result, engine=request.engine,
                                 engine_resolved=engine,
                                 scenario=request.scenario, seed=request.seed)


class SupervisedExecutor(Executor):
    """Supervised execution: heartbeats, bounded retries, degradation ladder.

    Every submitted request is run under a
    :class:`~repro.runtime.supervision.Supervisor` walking *ladder* (default
    ``batched → pool → serial``): each rung gets ``max_attempts``
    tries with deterministic seeded backoff before the ladder steps down, and
    every retry, downgrade, and skip lands in the report's
    ``metadata["resilience"]`` audit trail.  An undisturbed run takes the
    first applicable rung on its first attempt and carries **no** metadata,
    so supervised reports are byte-identical (modulo the execution-side
    ``engine_resolved``/``metadata`` fields — see
    :meth:`~repro.api.request.RunReport.outcome_dict`) to unsupervised ones.

    *deadline* bounds each pool worker's reply so a hung worker surfaces as
    a named
    :class:`~repro.runtime.errors.WorkerTimeoutError` instead of a hang.
    *chaos* optionally installs a :class:`~repro.runtime.chaos.ChaosPolicy`
    (or plain policy data) for the duration of :meth:`iter_reports` — unless
    a chaos scope is already ambient, which takes precedence.
    """

    name = "supervised"

    def __init__(self, ladder: Optional[Iterable[str]] = None,
                 max_attempts: int = 3, base_delay: float = 0.05,
                 backoff_factor: float = 2.0, deadline: float = 30.0,
                 chaos: object = None) -> None:
        super().__init__()
        rungs = tuple(ladder) if ladder is not None else DEFAULT_LADDER
        unknown = [stage for stage in rungs if stage not in DEFAULT_LADDER]
        if unknown:
            raise ConfigurationError(
                f"unknown ladder rung(s) {unknown}; known rungs: "
                f"{list(DEFAULT_LADDER)}")
        if not rungs:
            raise ConfigurationError("a supervision ladder needs at least "
                                     "one rung")
        if not deadline > 0:
            raise ConfigurationError(
                f"a worker deadline must be positive seconds, got {deadline}")
        self.ladder = rungs
        self.retry = RetryPolicy(max_attempts=max_attempts,
                                 base_delay=base_delay,
                                 backoff_factor=backoff_factor)
        self.deadline = deadline
        self.chaos = chaos

    def _rungs(self, request: RunRequest):
        thunks = {
            "batched": lambda: _run_in_process(request),
            "pool": lambda: _rung_pool(request, self.deadline),
            "serial": lambda: _rung_serial(request),
        }
        return [(stage, thunks[stage]) for stage in self.ladder]

    def iter_reports(self) -> Iterator[Tuple[int, RunReport]]:
        # An ambient scope (e.g. a sweep-level --chaos policy) wins; the
        # constructor's policy only activates when nothing else is in force.
        scope = (nullcontext() if current_chaos() is not None
                 else chaos_scope(build_chaos(self.chaos)))
        with scope:
            for index, request in self._take_pending():
                supervisor = Supervisor(self._rungs(request),
                                        retry=self.retry,
                                        key=f"{request.seed}:{index}")
                report, trail = supervisor.run()
                if trail:
                    report.metadata.setdefault("resilience", []).extend(trail)
                yield index, report


# ---------------------------------------------------------------------------
# The executor registry — same machinery as the protocol/adversary registries.
# ---------------------------------------------------------------------------

def _executor_entries() -> Tuple[RegistryEntry, ...]:
    return (
        RegistryEntry(
            "serial", SerialExecutor,
            doc="in-process, one request at a time, submission order"),
        RegistryEntry(
            "pool", PoolExecutor,
            doc="process pool across requests, one worker per request slot",
            params=(ParamSpec(
                "max_workers", int,
                doc="worker processes (default: one per CPU, capped at the "
                    "request count)"),)),
        RegistryEntry(
            "supervised", SupervisedExecutor,
            doc="supervised ladder (batched→pool→serial) with "
                "heartbeats, seeded retry/backoff, and a resilience audit "
                "trail",
            params=(
                ParamSpec(
                    "ladder", list,
                    doc="ordered rung names to walk (default: batched, "
                        "pool, serial)"),
                ParamSpec(
                    "max_attempts", int,
                    doc="tries per rung before downgrading (default 3)"),
                ParamSpec(
                    "base_delay", float,
                    doc="first-retry backoff in seconds (default 0.05)"),
                ParamSpec(
                    "backoff_factor", float,
                    doc="exponential backoff multiplier (default 2.0)"),
                ParamSpec(
                    "deadline", float,
                    doc="seconds before a silent worker counts as hung "
                        "(default 30)"),
                ParamSpec(
                    "chaos", dict,
                    doc="chaos policy data to activate for the run "
                        "(testing aid)"),
            )),
    )


_EXECUTORS: Dict[str, RegistryEntry] = {e.name: e for e in _executor_entries()}

#: The backend used when callers pass ``executor=None``.
DEFAULT_EXECUTOR = "pool"


def executor_registry() -> Dict[str, RegistryEntry]:
    """Mapping of every registered executor name to its entry."""
    return dict(_EXECUTORS)


def executor_names() -> Tuple[str, ...]:
    return tuple(_EXECUTORS)


def build_executor(name: str,
                   params: Optional[Dict[str, object]] = None) -> Executor:
    """Instantiate the named executor with schema-validated *params*."""
    try:
        entry = _EXECUTORS[name]
    except KeyError:
        raise RegistryError(
            f"unknown executor {name!r}; registered: "
            f"{sorted(_EXECUTORS)}") from None
    return entry.build(params)


def resolve_executor(executor: ExecutorSpec,
                     params: Optional[Dict[str, object]] = None
                     ) -> Tuple[Executor, bool]:
    """Normalise an executor argument to ``(instance, caller_owns_it)``.

    Accepts an :class:`Executor` instance (returned as-is, not owned — the
    caller that built it closes it), a registered name, or ``None`` for
    :data:`DEFAULT_EXECUTOR`.  Name/None resolutions are built fresh and
    owned by the caller of this function, which should close them.
    """
    if isinstance(executor, Executor):
        if params:
            raise ConfigurationError(
                "executor parameters apply to names, not to an already-built "
                "executor instance")
        return executor, False
    return build_executor(executor or DEFAULT_EXECUTOR, params), True


@contextmanager
def open_executor(executor: ExecutorSpec, spec: Any = None
                  ) -> Iterator[Executor]:
    """Yield the executor to run on, closing it afterwards if built here.

    *executor* is resolved as :func:`resolve_executor` does, except that
    ``None`` defers to *spec* — a sweep or campaign carrying its own
    ``executor``/``executor_params`` — when one is given.
    """
    if executor is None and spec is not None and spec.executor:
        runner, owned = resolve_executor(spec.executor,
                                         dict(spec.executor_params))
    else:
        runner, owned = resolve_executor(executor)
    try:
        yield runner
    finally:
        if owned:
            runner.close()
