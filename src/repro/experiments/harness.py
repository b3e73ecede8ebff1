"""The experiment harness: regenerate every quantitative claim of the paper.

Each ``experiment_*`` function corresponds to one entry of the per-experiment
index in DESIGN.md (E1–E9) and returns plain row dictionaries — "paper bound
vs measured" — that the benchmarks print with
:func:`repro.analysis.reporting.format_table` and that EXPERIMENTS.md records.
The functions take explicit ``(n, t, b)`` ranges so benchmarks can run small
instances quickly while the examples run the larger sweeps.

All default sweeps are described as serializable
:class:`~repro.api.request.RunRequest` values and routed through the
executor-backed façade (:func:`~repro.api.facade.execute_many` /
:func:`~repro.api.facade.execute_grouped`, thin wrappers over the ``"pool"``
backend of :mod:`repro.api.executors`), so the (spec, scenario) cells run in
parallel over the process pool **and** the eligible EIG cells (Exponential,
Algorithms A and B) take the whole-run batched executor inside their workers
— the two speedups compound.  :func:`run_cells` additionally accepts an
explicit executor (e.g. ``"supervised"`` for a resilient grid).  Callers that
pass hand-built :class:`~repro.experiments.workloads.Scenario` objects
(whose adversary factories cannot be named in a request) keep the in-process
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from ..analysis.bounds import (algorithm_c_local_computation, exponential_bound,
                               theorem1_bound, theorem2_bound, theorem3_bound,
                               theorem4_bound)
from ..analysis.checkers import verify_report
from ..analysis.tradeoff import dominance_table, tradeoff_curve
from ..api import (RunReport, RunRequest, build_protocol, execute,
                   execute_grouped, execute_many, iter_execute,
                   request_fields_for_spec)
from ..baselines import DolevStrongSpec, PeaseShostakLamportSpec, PhaseKingSpec
from ..core.algorithm_a import AlgorithmASpec, algorithm_a_resilience
from ..core.algorithm_b import AlgorithmBSpec, algorithm_b_resilience
from ..core.algorithm_c import AlgorithmCSpec, algorithm_c_resilience
from ..core.exponential import ExponentialSpec
from ..core.hybrid import HybridSpec, hybrid_parameters
from ..core.protocol import ProtocolConfig, ProtocolSpec
from ..core.values import DEFAULT_VALUE, Value
from ..runtime.simulation import RunResult, run_agreement
from .workloads import SCENARIO_BATTERIES, Scenario


def measure(spec: ProtocolSpec, n: int, t: int, scenario: Scenario,
            initial_value=1, seed: int = 0) -> RunResult:
    """Run one (spec, scenario) pair and return its :class:`RunResult`."""
    config = ProtocolConfig(n=n, t=t, initial_value=initial_value)
    return run_agreement(spec, config, scenario.faulty, scenario.adversary(),
                         seed=seed)


def scenario_requests(protocol: str, params: Mapping[str, object],
                      n: int, t: int, battery: str,
                      names: Optional[Sequence[str]] = None,
                      initial_value: Value = 1, seed: int = 0,
                      engine: str = "auto") -> List[RunRequest]:
    """One :class:`RunRequest` per named scenario of *battery* at ``(n, t)``."""
    if names is None:
        names = [s.name for s in SCENARIO_BATTERIES[battery](n, t)]
    return [RunRequest(protocol=protocol, protocol_params=dict(params),
                       n=n, t=t, initial_value=initial_value,
                       scenario=name, battery=battery, seed=seed,
                       engine=engine)
            for name in names]


def _worst_of_reports(reports: Sequence[RunReport], round_bound: int,
                      message_bound: int) -> Dict[str, object]:
    """Aggregate the worst observations over one protocol's scenario reports."""
    max_entries = 0
    max_units = 0
    all_ok = True
    rounds = 0
    for report in reports:
        verdict = verify_report(report, round_bound=round_bound,
                                message_bound=message_bound)
        all_ok = all_ok and verdict.ok
        max_entries = max(max_entries, report.metrics["max_message_entries"])
        max_units = max(max_units, report.metrics["max_computation_units"])
        rounds = max(rounds, report.rounds)
    return {
        "measured_rounds": rounds,
        "measured_max_entries": max_entries,
        "measured_max_computation": max_units,
        "all_scenarios_agree": all_ok,
    }


#: One protocol's slot in a worst-case grid: ``(protocol, params, n, t,
#: round_bound, message_bound)``.
_WorstJob = Tuple[str, Mapping[str, object], int, int, int, int]


def _measure_worst_grid(jobs: Sequence[_WorstJob],
                        battery: str = "standard",
                        scenarios: Optional[Sequence[Scenario]] = None
                        ) -> List[Dict[str, object]]:
    """Aggregate worst-case observations for every job, one result per job.

    With ``scenarios=None`` (every default sweep) all jobs' scenario cells
    are flattened into a **single** :func:`~repro.api.facade.execute_many`
    call — one process pool for the whole grid, parallel across cells,
    batched inside eligible EIG cells.  Explicit *scenarios* objects (which
    may carry unregistered adversary factories) run in process through
    :func:`measure`.
    """
    if scenarios is None:
        per_job_reports = execute_grouped(
            scenario_requests(protocol, params, n, t, battery)
            for protocol, params, n, t, _, _ in jobs)
        return [_worst_of_reports(reports, round_bound, message_bound)
                for (_, _, _, _, round_bound, message_bound), reports
                in zip(jobs, per_job_reports)]

    results = []
    for protocol, params, n, t, round_bound, message_bound in jobs:
        reports = [_report_for_scenario(build_protocol(protocol, params),
                                        n, t, scenario)
                   for scenario in scenarios]
        results.append(_worst_of_reports(reports, round_bound, message_bound))
    return results


def _report_for_scenario(spec: ProtocolSpec, n: int, t: int,
                         scenario: Scenario) -> RunReport:
    """In-process run of one hand-built scenario, reported truthfully.

    Hand-built scenarios execute on their config's engine via
    :func:`measure`; the report's engine audit trail records that engine
    rather than pretending a planner ran.
    """
    result = measure(spec, n, t, scenario)
    engine = result.config.engine
    return RunReport.from_result(result, engine=engine,
                                 engine_resolved=engine,
                                 scenario=scenario.name)


def _measure_worst(protocol: str, params: Mapping[str, object], n: int, t: int,
                   round_bound: int, message_bound: int,
                   scenarios: Optional[Sequence[Scenario]] = None,
                   battery: str = "standard") -> Dict[str, object]:
    """Single-job form of :func:`_measure_worst_grid`."""
    return _measure_worst_grid(
        [(protocol, params, n, t, round_bound, message_bound)],
        battery=battery, scenarios=scenarios)[0]


# ---------------------------------------------------------------------------
# E1 — Theorem 1: the hybrid algorithm
# ---------------------------------------------------------------------------

def experiment_theorem1(n: int, t: Optional[int] = None,
                        b_values: Iterable[int] = (3, 4),
                        scenarios: Optional[Sequence[Scenario]] = None
                        ) -> List[Dict[str, object]]:
    """Hybrid rounds / message size / phase structure vs the Main Theorem."""
    t = t if t is not None else algorithm_a_resilience(n)
    admitted = [(b, theorem1_bound(n, t, b), hybrid_parameters(n, t, b))
                for b in b_values if 2 < b <= t]
    measured_list = _measure_worst_grid(
        [("hybrid", {"b": b}, n, t, bound.rounds, bound.max_message_entries)
         for b, bound, _ in admitted],
        battery="worst-case", scenarios=scenarios)
    rows: List[Dict[str, object]] = []
    for (b, bound, params), measured in zip(admitted, measured_list):
        row = bound.as_row()
        row.update(measured)
        row.update({
            "t_AB": params.t_ab,
            "t_AC": params.t_ac,
            "k_AB": params.k_ab,
            "k_BC": params.k_bc,
            "c_rounds": params.c_rounds,
        })
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E2 / E3 — Theorems 2 and 3: Algorithms A and B
# ---------------------------------------------------------------------------

def experiment_theorem2(n: int, t: Optional[int] = None,
                        b_values: Iterable[int] = (3, 4),
                        scenarios: Optional[Sequence[Scenario]] = None
                        ) -> List[Dict[str, object]]:
    """Algorithm A(b): measured costs against the Theorem 2 bounds."""
    t = t if t is not None else algorithm_a_resilience(n)
    admitted = [(b, theorem2_bound(n, t, b))
                for b in b_values if 2 < b <= t]
    measured_list = _measure_worst_grid(
        [("algorithm-a", {"b": b}, n, t, bound.rounds,
          bound.max_message_entries) for b, bound in admitted],
        scenarios=scenarios)
    rows = []
    for (_, bound), measured in zip(admitted, measured_list):
        row = bound.as_row()
        row.update(measured)
        rows.append(row)
    return rows


def experiment_theorem3(n: int, t: Optional[int] = None,
                        b_values: Iterable[int] = (2, 3),
                        scenarios: Optional[Sequence[Scenario]] = None
                        ) -> List[Dict[str, object]]:
    """Algorithm B(b): measured costs against the Theorem 3 bounds."""
    t = t if t is not None else algorithm_b_resilience(n)
    admitted = [(b, theorem3_bound(n, t, b))
                for b in b_values if 1 < b <= t]
    measured_list = _measure_worst_grid(
        [("algorithm-b", {"b": b}, n, t, bound.rounds,
          bound.max_message_entries) for b, bound in admitted],
        scenarios=scenarios)
    rows = []
    for (_, bound), measured in zip(admitted, measured_list):
        row = bound.as_row()
        row.update(measured)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E4 — Theorem 4: Algorithm C
# ---------------------------------------------------------------------------

def experiment_theorem4(n_values: Iterable[int],
                        scenarios_for: Optional[Callable[[int, int], Sequence[Scenario]]] = None
                        ) -> List[Dict[str, object]]:
    """Algorithm C: rounds ``t + 1``, messages ``O(n)``, computation ``O(n^2.5)``."""
    admitted = [(n, algorithm_c_resilience(n), theorem4_bound(
        n, algorithm_c_resilience(n))) for n in n_values
        if algorithm_c_resilience(n) >= 1]
    if scenarios_for is None:
        measured_list = _measure_worst_grid(
            [("algorithm-c", {}, n, t, bound.rounds,
              bound.max_message_entries) for n, t, bound in admitted])
    else:
        # Per-(n, t) scenario objects cannot share one grid call.
        measured_list = [
            _measure_worst("algorithm-c", {}, n, t, bound.rounds,
                           bound.max_message_entries,
                           scenarios=scenarios_for(n, t))
            for n, t, bound in admitted]
    rows = []
    for (n, t, bound), measured in zip(admitted, measured_list):
        row = bound.as_row()
        row.update(measured)
        row["computation_model_n^2.5"] = round(algorithm_c_local_computation(n), 1)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E5 — Figure 1 / Section 3: Exponential Algorithm growth
# ---------------------------------------------------------------------------

def experiment_exponential_growth(n_values: Iterable[int],
                                  t_of_n: Optional[Callable[[int], int]] = None
                                  ) -> List[Dict[str, object]]:
    """Exponential Algorithm: message and computation growth as n (and t) grow."""
    t_of_n = t_of_n if t_of_n is not None else algorithm_a_resilience
    admitted = [(n, max(1, t_of_n(n)), exponential_bound(n, max(1, t_of_n(n))))
                for n in n_values]
    measured_list = _measure_worst_grid(
        [("exponential", {}, n, t, bound.rounds, bound.max_message_entries)
         for n, t, bound in admitted],
        battery="worst-case")
    rows = []
    for (_, _, bound), measured in zip(admitted, measured_list):
        row = bound.as_row()
        row.update(measured)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E6 — the rounds vs message-length trade-off (Coan comparison)
# ---------------------------------------------------------------------------

def experiment_tradeoff(n: int, t: Optional[int] = None,
                        b_values: Iterable[int] = (2, 3, 4, 5, 6)
                        ) -> List[Dict[str, object]]:
    """The analytic trade-off curve: ours vs Coan vs the Exponential Algorithm."""
    t = t if t is not None else algorithm_a_resilience(n)
    return [point.as_row() for point in tradeoff_curve(n, t, b_values)]


# ---------------------------------------------------------------------------
# E7 — block progress: faults detected per block vs persistent values
# ---------------------------------------------------------------------------

def experiment_block_progress(n: int, t: int, b: int,
                              scenarios: Optional[Sequence[Scenario]] = None
                              ) -> List[Dict[str, object]]:
    """Per-scenario: how many faults each correct processor globally detected,
    round by round, while running Algorithm A(b) — the paper's progress
    dichotomy made visible."""
    if scenarios is None:
        reports = execute_many(scenario_requests("algorithm-a", {"b": b},
                                                 n, t, "worst-case"))
    else:
        reports = [_report_for_scenario(AlgorithmASpec(b), n, t, scenario)
                   for scenario in scenarios]
    rows = []
    for report in reports:
        detections_per_round: Dict[int, int] = {}
        for log in report.discovery_logs.values():
            for round_number, count in log.items():
                detections_per_round[round_number] = max(
                    detections_per_round.get(round_number, 0), count)
        rows.append({
            "scenario": report.scenario,
            "faults": report.faults,
            "agreement": report.agreement,
            "total_detected_max": max(
                (len(found) for found in report.discovered.values()), default=0),
            "detections_by_round": dict(sorted(detections_per_round.items())),
            "rounds": report.rounds,
        })
    return rows


# ---------------------------------------------------------------------------
# E8 — the dominance claim: hybrid vs its ingredients
# ---------------------------------------------------------------------------

def experiment_dominance(n: int, t: Optional[int] = None,
                         b_values: Iterable[int] = (3, 4, 5)
                         ) -> List[Dict[str, object]]:
    """Rounds of hybrid(b) vs Algorithm A(b) vs the Exponential Algorithm."""
    t = t if t is not None else algorithm_a_resilience(n)
    return dominance_table(n, t, b_values)


# ---------------------------------------------------------------------------
# E9 — baselines
# ---------------------------------------------------------------------------

def experiment_baselines(n: int, t: int,
                         scenarios: Optional[Sequence[Scenario]] = None
                         ) -> List[Dict[str, object]]:
    """Head-to-head costs of the paper's algorithms and the external baselines.

    Baselines with stricter resilience requirements are skipped when the
    requested ``(n, t)`` violates them (shown as missing rows, as in the paper
    where each algorithm is only defined up to its own resilience).
    """
    t_for = {
        "exponential": algorithm_a_resilience(n),
        "psl-om": algorithm_a_resilience(n),
        "phase-king": algorithm_b_resilience(n),
        "algorithm-c": algorithm_c_resilience(n),
    }
    candidates: List[ProtocolSpec] = [
        ExponentialSpec(),
        PeaseShostakLamportSpec(),
        PhaseKingSpec(),
        AlgorithmCSpec(),
        DolevStrongSpec(),
    ]
    if t >= 3:
        candidates.append(AlgorithmASpec(min(3, t)))
        candidates.append(HybridSpec(min(3, t)))
    if t >= 2 and t <= algorithm_b_resilience(n):
        candidates.append(AlgorithmBSpec(min(2, t)))
    admitted: List[Tuple[ProtocolSpec, int, List[RunRequest]]] = []
    for spec in candidates:
        effective_t = min(t, t_for.get(spec.name.split("(")[0], t))
        if effective_t < 1:
            continue
        config = ProtocolConfig(n=n, t=effective_t, initial_value=1)
        try:
            spec.validate(config)
        # repro-lint: waive[errors/broad-except] -- admission probe: any
        # validation failure just means this (n, t) is out of the
        # protocol's resilience envelope, so the spec is skipped
        except Exception:
            continue
        if scenarios is None:
            protocol, params = request_fields_for_spec(spec)
            requests = scenario_requests(protocol, params, n, effective_t,
                                         "worst-case")
        else:
            requests = []
        admitted.append((spec, effective_t, requests))

    # One flat execute_grouped over every admitted (spec, scenario) cell: the
    # pool parallelises across cells while eligible EIG cells batch inside.
    reports_by_spec: Dict[int, List[RunReport]] = {}
    if scenarios is None:
        grouped = execute_grouped(requests for _, _, requests in admitted)
        reports_by_spec = dict(enumerate(grouped))

    rows = []
    for index, (spec, effective_t, _) in enumerate(admitted):
        if scenarios is None:
            reports = reports_by_spec[index]
        else:
            protocol, params = request_fields_for_spec(spec)
            reports = [
                _report_for_scenario(build_protocol(protocol, params),
                                     n, effective_t, scenario)
                for scenario in scenarios]
        rows.append({
            "protocol": spec.name,
            "n": n,
            "t": effective_t,
            "rounds": max((r.rounds for r in reports), default=0),
            "max_message_entries": max(
                (r.metrics["max_message_entries"] for r in reports), default=0),
            "all_scenarios_agree": all(r.succeeded for r in reports),
        })
    return rows


# ---------------------------------------------------------------------------
# The parallel experiment runner: one worker per (spec, scenario) cell
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentCell:
    """One unit of parallel work: run *spec* at ``(n, t)`` under one scenario.

    Everything in a cell is picklable, so cells can be shipped to process-pool
    workers as-is.  ``battery``/``scenario`` name a scenario of one of the
    :data:`~repro.experiments.workloads.SCENARIO_BATTERIES`, which the worker
    regenerates locally.  A cell is the spec-object twin of a
    :class:`~repro.api.request.RunRequest`; :meth:`to_request` converts.
    """

    spec: ProtocolSpec
    n: int
    t: int
    battery: str = "standard"
    scenario: str = "fault-free"
    initial_value: Value = 1
    seed: int = 0

    def to_request(self, engine: str = "auto") -> RunRequest:
        """The serializable façade request equivalent to this cell."""
        protocol, params = request_fields_for_spec(self.spec)
        return RunRequest(protocol=protocol, protocol_params=params,
                          n=self.n, t=self.t,
                          initial_value=self.initial_value,
                          scenario=self.scenario, battery=self.battery,
                          seed=self.seed, engine=engine)


def grid_cells(specs: Sequence[ProtocolSpec],
               grid: Iterable[Tuple[int, int]],
               battery: str = "standard",
               scenario_names: Optional[Sequence[str]] = None,
               initial_value: Value = 1, seed: int = 0
               ) -> List[ExperimentCell]:
    """The cross product spec × (n, t) × scenario as a flat list of cells."""
    cells: List[ExperimentCell] = []
    battery_fn = SCENARIO_BATTERIES[battery]
    for n, t in grid:
        names = (list(scenario_names) if scenario_names is not None
                 else [s.name for s in battery_fn(n, t)])
        for spec in specs:
            for name in names:
                cells.append(ExperimentCell(spec=spec, n=n, t=t,
                                            battery=battery, scenario=name,
                                            initial_value=initial_value,
                                            seed=seed))
    return cells


def _cell_row(cell: ExperimentCell, report: RunReport) -> Dict[str, object]:
    """Flatten one cell's report into the harness's tabular row layout."""
    row: Dict[str, object] = {
        "protocol": report.protocol,
        "scenario": report.scenario,
        "battery": cell.battery,
        "faults": report.faults,
        "succeeded": report.succeeded,
        "discovery_sound": report.discovery_sound,
    }
    row.update(report.summary())
    return row


def run_cell(cell: ExperimentCell,
             engine: str = "auto") -> Dict[str, object]:
    """Execute one cell through the façade and return its summary row."""
    return _cell_row(cell, execute(cell.to_request(engine=engine)))


def run_cells(cells: Sequence[ExperimentCell], parallel: bool = True,
              max_workers: Optional[int] = None,
              engine: Optional[str] = None,
              executor: object = None) -> List[Dict[str, object]]:
    """Run every cell and return its summary rows, preserving cell order.

    Cells convert to façade requests and run on the pluggable execution
    layer (:mod:`repro.api.executors`): with the default ``executor=None``
    and ``parallel=True`` that is the ``"pool"`` backend — one process-pool
    task per ``(spec, scenario)`` cell, agreement instances being
    independent — and, because the default ``engine="auto"`` re-plans inside
    each worker, the eligible EIG cells additionally step all their
    processors per round as whole-run batched kernels.  Pass an explicit
    *executor* (an :class:`~repro.api.executors.Executor` instance or
    registry name such as ``"supervised"``) to place the whole grid on another
    backend, or an explicit *engine* name to pin every cell
    (``"fast"``/``"reference"`` for oracle sweeps).
    """
    cells = list(cells)
    if not cells:
        return []
    requests = [cell.to_request(engine=engine or "auto") for cell in cells]
    if executor is not None:
        by_index = dict(iter_execute(requests, executor=executor))
        reports = [by_index[i] for i in range(len(requests))]
    else:
        reports = execute_many(requests, parallel=parallel,
                               max_workers=max_workers)
    return [_cell_row(cell, report)
            for cell, report in zip(cells, reports)]


def run_grid_parallel(specs: Sequence[ProtocolSpec],
                      grid: Iterable[Tuple[int, int]],
                      battery: str = "standard",
                      scenario_names: Optional[Sequence[str]] = None,
                      max_workers: Optional[int] = None,
                      engine: Optional[str] = None,
                      executor: object = None) -> List[Dict[str, object]]:
    """Convenience wrapper: build the grid's cells and run them in parallel."""
    cells = grid_cells(specs, grid, battery=battery,
                       scenario_names=scenario_names)
    return run_cells(cells, parallel=True, max_workers=max_workers,
                     engine=engine, executor=executor)


# ---------------------------------------------------------------------------
# Convenience: run everything at laptop scale (used by examples and docs)
# ---------------------------------------------------------------------------

def run_all_experiments(scale: str = "small") -> Dict[str, List[Dict[str, object]]]:
    """Run E1–E9 at a chosen scale and return {experiment id: rows}.

    ``scale="small"`` keeps every instance under a second; ``scale="paper"``
    uses the larger sweeps quoted in EXPERIMENTS.md (minutes, still
    laptop-friendly).
    """
    if scale == "small":
        settings = {
            "e1": dict(n=13, t=4, b_values=(3, 4)),
            "e2": dict(n=10, t=3, b_values=(3,)),
            "e3": dict(n=13, t=3, b_values=(2, 3)),
            "e4_ns": (14, 20),
            "e5_ns": (4, 7),
            "e6": dict(n=31, t=10, b_values=(3, 4, 5, 6)),
            "e7": dict(n=10, t=3, b=3),
            "e8": dict(n=31, t=10, b_values=(3, 4, 5)),
            "e9": dict(n=13, t=3),
        }
    else:
        settings = {
            "e1": dict(n=16, t=5, b_values=(3, 4, 5)),
            "e2": dict(n=13, t=4, b_values=(3, 4)),
            "e3": dict(n=17, t=4, b_values=(2, 3, 4)),
            "e4_ns": (14, 20, 32, 50),
            "e5_ns": (4, 7, 10),
            "e6": dict(n=61, t=20, b_values=(3, 4, 5, 6, 8, 10)),
            "e7": dict(n=13, t=4, b=3),
            "e8": dict(n=61, t=20, b_values=(3, 4, 5, 6, 8)),
            "e9": dict(n=13, t=3),
        }
    return {
        "E1-theorem1-hybrid": experiment_theorem1(**settings["e1"]),
        "E2-theorem2-algorithm-a": experiment_theorem2(**settings["e2"]),
        "E3-theorem3-algorithm-b": experiment_theorem3(**settings["e3"]),
        "E4-theorem4-algorithm-c": experiment_theorem4(settings["e4_ns"]),
        "E5-exponential-growth": experiment_exponential_growth(settings["e5_ns"]),
        "E6-tradeoff": experiment_tradeoff(**settings["e6"]),
        "E7-block-progress": experiment_block_progress(**settings["e7"]),
        "E8-dominance": experiment_dominance(**settings["e8"]),
        "E9-baselines": experiment_baselines(**settings["e9"]),
    }
