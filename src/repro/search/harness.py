"""The search driver: spend the budget, keep score, stop on blood.

:func:`run_search` turns a :class:`~repro.search.space.SearchSpec` into
batches of seeded :class:`~repro.api.request.RunRequest` candidates, streams
them through :func:`repro.api.facade.iter_execute` (any executor backend —
candidates are independent, so a pool parallelizes a search for free), and
folds each finished report into a running best under the spec's objective.

Candidate *i* always executes with seed
:func:`derive_seed(sweep_seed, i) <repro.api.request.derive_seed>` — the
sweep machinery's positional rule — so a search is exactly reproducible from
``(spec, sweep_seed)`` and every reported hit replays outside the harness
with nothing but its request.

For violation objectives the harness stops at the first confirmed hit
(``stop_on_violation=False`` spends the whole budget and collects them all);
cost objectives always run to budget exhaustion and report the extremal
execution found.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional

from ..api.facade import iter_execute
from ..api.executors import ExecutorSpec
from ..api.request import RunReport, RunRequest, derive_seed
from .objectives import Objective, get_objective
from .space import SearchSpec, mutate_viable, sample_viable

#: Candidates evaluated per generation by the ``anneal`` strategy.
GENERATION_SIZE = 16


@dataclass(frozen=True)
class Evaluation:
    """One scored execution: the candidate, its report, and its score."""

    index: int
    request: RunRequest
    report: RunReport
    score: float


@dataclass
class SearchResult:
    """Everything a search learned."""

    spec: SearchSpec
    objective: Objective
    evaluated: int = 0
    #: The highest-scoring execution (ties: first found).
    best: Optional[Evaluation] = None
    #: Every violation hit (empty for cost objectives).
    violations: List[Evaluation] = field(default_factory=list)
    #: True when a violation objective stopped before exhausting the budget.
    stopped_early: bool = False

    @property
    def found(self) -> bool:
        return bool(self.violations)


def _seeded(candidates: List[RunRequest], start: int,
            sweep_seed: int) -> List[RunRequest]:
    return [replace(candidate, seed=derive_seed(sweep_seed, start + i))
            for i, candidate in enumerate(candidates)]


def _evaluate(candidates: List[RunRequest], start: int, result: SearchResult,
              executor: ExecutorSpec) -> Iterator[Evaluation]:
    """Run one batch, folding each report into *result* as it lands."""
    seeded = _seeded(candidates, start, result.spec.sweep_seed)
    for offset, report in iter_execute(seeded, executor=executor):
        evaluation = Evaluation(index=start + offset,
                                request=seeded[offset], report=report,
                                score=result.objective.score(report))
        result.evaluated += 1
        if result.best is None or evaluation.score > result.best.score:
            result.best = evaluation
        if result.objective.violated(report):
            result.violations.append(evaluation)
        yield evaluation


def run_search(spec: SearchSpec, executor: ExecutorSpec = "serial",
               stop_on_violation: bool = True) -> SearchResult:
    """Hunt the spec's grid and return what the budget uncovered.

    *executor* is any :mod:`repro.api.executors` backend; the default is
    serial — searches are usually bounded small, and serial keeps them
    single-process.  Determinism does not depend on the choice: candidate
    seeds are positional.
    """
    objective = get_objective(spec.objective)
    result = SearchResult(spec=spec, objective=objective)
    rng = random.Random(spec.sweep_seed)
    if spec.strategy == "random":
        _run_random(spec, result, rng, executor, stop_on_violation)
    else:
        _run_anneal(spec, result, rng, executor, stop_on_violation)
    return result


def _stop(result: SearchResult, stop_on_violation: bool) -> bool:
    if stop_on_violation and result.found:
        result.stopped_early = result.evaluated < result.spec.budget
        return True
    return False


def _draw(spec: SearchSpec, rng: random.Random,
          count: int) -> List[RunRequest]:
    batch: List[RunRequest] = []
    for _ in range(count):
        candidate = sample_viable(spec, rng)
        if candidate is None:
            break  # the grid has (almost) no viable cells; stop drawing
        batch.append(candidate)
    return batch


def _run_random(spec: SearchSpec, result: SearchResult, rng: random.Random,
                executor: ExecutorSpec, stop_on_violation: bool) -> None:
    spent = 0
    while spent < spec.budget:
        batch = _draw(spec, rng, min(GENERATION_SIZE, spec.budget - spent))
        if not batch:
            return
        for _ in _evaluate(batch, spent, result, executor):
            if _stop(result, stop_on_violation):
                return
        spent += len(batch)


def _run_anneal(spec: SearchSpec, result: SearchResult, rng: random.Random,
                executor: ExecutorSpec, stop_on_violation: bool) -> None:
    """Greedy mutation of the incumbent with a cooling acceptance rule."""
    incumbent: Optional[Evaluation] = None
    spent = 0
    while spent < spec.budget:
        room = min(GENERATION_SIZE, spec.budget - spent)
        batch: List[RunRequest] = []
        if incumbent is not None:
            # Three quarters neighbors of the incumbent, a quarter fresh
            # random candidates so the search never fixates on one basin.
            for _ in range(max(1, (room * 3) // 4)):
                neighbor = mutate_viable(spec, incumbent.request, rng)
                if neighbor is not None:
                    batch.append(neighbor)
        batch.extend(_draw(spec, rng, room - len(batch)))
        if not batch:
            return
        champion: Optional[Evaluation] = None
        for evaluation in _evaluate(batch, spent, result, executor):
            if champion is None or evaluation.score > champion.score:
                champion = evaluation
            if _stop(result, stop_on_violation):
                return
        spent += len(batch)
        if champion is None:
            return
        # Cooling acceptance: early on, a worse champion may still become
        # the incumbent (escape a plateau); late, only improvements move.
        temperature = max(0.0, 1.0 - spent / spec.budget)
        if (incumbent is None or champion.score >= incumbent.score
                or rng.random() < temperature * 0.5):
            incumbent = champion
