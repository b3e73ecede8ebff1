"""``execute`` / ``iter_execute``: the shared entry points.

The CLI, the E1–E9 experiment harness, the examples, and the benchmarks all
describe work as :class:`~repro.api.request.RunRequest` values and hand them
here.  :func:`execute` resolves the request through the registries, asks the
planner for an engine, runs the agreement instance with that engine on its
config (``replace(config, engine=plan.engine)``, so concurrent runs never
share engine state), and returns a structured
:class:`~repro.api.request.RunReport`.

Every batch of requests runs through :func:`iter_execute`, the one loop
that submits requests to an executor backend (:mod:`repro.api.executors`)
and drains it: it streams ``(position, report)`` pairs **as runs finish**.
Durable sweeps (:mod:`repro.api.sweep`), Monte-Carlo campaigns
(:mod:`repro.stats`), adversary searches (:mod:`repro.search`) and the
experiment harness are all built on it; on the ``"pool"`` backend, workers
re-plan locally, so eligible EIG cells compound whole-run **batched
stepping** with cross-cell process parallelism.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator, Tuple

from ..runtime.simulation import run_agreement
from .executors import ExecutorSpec, open_executor
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


def iter_execute(requests: Iterable[RunRequest],
                 executor: ExecutorSpec = None
                 ) -> Iterator[Tuple[int, RunReport]]:
    """Stream ``(position, report)`` pairs as the requests finish.

    *executor* selects the backend: an
    :class:`~repro.api.executors.Executor` instance (closed by its builder,
    not here), a registry name (``"serial"``, ``"pool"``, ``"supervised"``), or
    ``None`` for the default pool.  *position* is the request's place in
    *requests*, whatever the executor ran before, so one instance serves
    many calls; yield order is the backend's completion order, so a consumer
    can checkpoint or render results while later requests still run.
    """
    with open_executor(executor) as runner:
        positions = {runner.submit(request): position
                     for position, request in enumerate(requests)}
        for ticket, report in runner.iter_reports():
            yield positions[ticket], report
