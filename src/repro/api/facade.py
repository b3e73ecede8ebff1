"""``execute`` / ``iter_execute`` / ``execute_many``: the shared entry points.

The CLI, the E1–E9 experiment harness, the examples, and the benchmarks all
describe work as :class:`~repro.api.request.RunRequest` values and hand them
here.  :func:`execute` resolves the request through the registries, asks the
planner for an engine, runs the agreement instance with that engine on its
config (``replace(config, engine=plan.engine)``, so concurrent runs never
share engine state), and returns a structured
:class:`~repro.api.request.RunReport`.

Sweeps run on the pluggable execution layer (:mod:`repro.api.executors`):
:func:`iter_execute` streams ``(index, report)`` pairs through any executor
backend **as runs finish** — the primitive durable checkpointed sweeps
(:mod:`repro.api.sweep`) are built on — while :func:`execute_many` and
:func:`execute_grouped` keep their historical list-shaped signatures as thin
wrappers over the ``"pool"`` backend (one process per request slot, workers
re-planning locally so eligible EIG cells compound whole-run **batched
stepping** with cross-cell process parallelism).
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..runtime.simulation import run_agreement
from .executors import ExecutorSpec, PoolExecutor, resolve_executor
from .planner import ExecutionPlan, plan_run
from .request import RunReport, RunRequest


def plan_request(request: RunRequest) -> ExecutionPlan:
    """Resolve *request* and return the planner's verdict without running it."""
    spec, config, faulty, adversary = request.resolve_parts()
    return plan_run(request, spec, config, faulty, adversary)


def execute(request: RunRequest) -> RunReport:
    """Run one request end to end and return its :class:`RunReport`."""
    spec, config, faulty, adversary = request.resolve_parts()
    plan = plan_run(request, spec, config, faulty, adversary)
    result = run_agreement(spec, replace(config, engine=plan.engine), faulty,
                           adversary, seed=request.seed)
    return RunReport.from_result(result, engine=request.engine,
                                 engine_resolved=plan.engine,
                                 scenario=request.scenario, seed=request.seed)


def execute_resilient(request: RunRequest, **options) -> RunReport:
    """Run one request under supervision: deadlines, retries, ladder.

    A one-shot convenience over the ``"supervised"`` executor backend —
    *options* are :class:`~repro.api.executors.SupervisedExecutor`
    constructor arguments (``ladder``, ``max_attempts``, ``deadline``,
    ``chaos``, …).  The report's ``metadata["resilience"]``
    documents every retry and downgrade that happened on the way; an
    undisturbed run carries none and is observationally identical to
    :func:`execute` (see
    :meth:`~repro.api.request.RunReport.outcome_dict`).
    """
    from .executors import SupervisedExecutor
    with SupervisedExecutor(**options) as runner:
        runner.submit(request)
        for _, report in runner.iter_reports():
            return report
    raise RuntimeError("supervised executor yielded no report")


def iter_execute(requests: Iterable[RunRequest],
                 executor: ExecutorSpec = None
                 ) -> Iterator[Tuple[int, RunReport]]:
    """Stream ``(index, report)`` pairs as the requests finish.

    *executor* selects the backend: an
    :class:`~repro.api.executors.Executor` instance (closed by its builder,
    not here), a registry name (``"serial"``, ``"pool"``, ``"supervised"``), or
    ``None`` for the default pool.  Indexes follow submission order; yield
    order is the backend's completion order, so a consumer can checkpoint or
    render results while later cells still run.
    """
    runner, owned = resolve_executor(executor)
    try:
        for request in requests:
            runner.submit(request)
        for index, report in runner.iter_reports():
            yield index, report
    finally:
        if owned:
            runner.close()


def execute_many(requests: Iterable[RunRequest], parallel: bool = True,
                 max_workers: Optional[int] = None) -> List[RunReport]:
    """Execute every request, preserving order; parallel over a process pool.

    Agreement instances are independent, so sweeps scale with the core count;
    requests whose plan resolves to the batched executor additionally step
    all their processors per round as single 2-D kernels *inside* their
    worker.  Falls back to in-process execution for a single request, for
    ``parallel=False``, or when the platform cannot spawn a pool.  (A thin
    wrapper over the ``"pool"`` executor backend — use :func:`iter_execute`
    for streaming or a different backend.)
    """
    requests = list(requests)
    if not requests:
        return []
    if not parallel or len(requests) == 1:
        return [execute(request) for request in requests]
    max_workers = max(1, min(max_workers or os.cpu_count() or 1,
                             len(requests)))
    if max_workers == 1:
        # A one-worker pool is serial execution plus fork overhead.
        return [execute(request) for request in requests]
    reports: Dict[int, RunReport] = {}
    with PoolExecutor(max_workers=max_workers) as runner:
        for request in requests:
            runner.submit(request)
        for index, report in runner.iter_reports():
            reports[index] = report
    return [reports[index] for index in range(len(requests))]


def execute_grouped(groups: Iterable[Iterable[RunRequest]],
                    parallel: bool = True,
                    max_workers: Optional[int] = None
                    ) -> List[List[RunReport]]:
    """Run several request groups through **one** :func:`execute_many` call.

    The groups are flattened into a single sweep (one pool for everything,
    maximum cell-level parallelism) and the reports are handed back
    re-grouped, aligned with the input.  This is how grid-shaped consumers
    (the experiment harness) avoid paying pool startup once per group.
    """
    groups = [list(group) for group in groups]
    flat = execute_many([request for group in groups for request in group],
                        parallel=parallel, max_workers=max_workers)
    regrouped: List[List[RunReport]] = []
    cursor = 0
    for group in groups:
        regrouped.append(flat[cursor:cursor + len(group)])
        cursor += len(group)
    return regrouped
