"""The experiment harness: regenerate every quantitative claim of the paper.

Each ``experiment_*`` function corresponds to one entry of the per-experiment
index in DESIGN.md (E1–E9) and returns plain row dictionaries — "paper bound
vs measured" — that the benchmarks print with
:func:`repro.analysis.reporting.format_table` and that EXPERIMENTS.md records.
The functions take explicit ``(n, t, b)`` ranges so benchmarks can run small
instances quickly while the examples run the larger sweeps.

Every measured experiment describes its (spec, scenario) cells as
serializable :class:`~repro.api.request.RunRequest` values and runs the
whole grid as one :func:`~repro.api.sweep.run_sweep` on the default
``"pool"`` backend, so the cells run in parallel over one process pool
**and** the eligible EIG cells take the whole-run batched executor inside
their workers — the two speedups compound.
"""

from __future__ import annotations

from itertools import islice
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from ..analysis.bounds import (algorithm_c_local_computation, exponential_bound,
                               theorem1_bound, theorem2_bound, theorem3_bound,
                               theorem4_bound)
from ..analysis.checkers import verify_report
from ..analysis.tradeoff import dominance_table, tradeoff_curve
from ..api import (RunReport, RunRequest, SweepSpec,
                   request_fields_for_spec, run_sweep)
from ..baselines import DolevStrongSpec, PeaseShostakLamportSpec, PhaseKingSpec
from ..core.algorithm_a import AlgorithmASpec, algorithm_a_resilience
from ..core.algorithm_b import AlgorithmBSpec, algorithm_b_resilience
from ..core.algorithm_c import AlgorithmCSpec, algorithm_c_resilience
from ..core.exponential import ExponentialSpec
from ..core.hybrid import HybridSpec, hybrid_parameters
from ..core.protocol import ProtocolConfig, ProtocolSpec
from ..core.values import Value
from .workloads import SCENARIO_BATTERIES


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


def _run_grouped(groups: Sequence[Sequence[RunRequest]]
                 ) -> List[List[RunReport]]:
    """Run every group's requests as **one** sweep, reports regrouped.

    One sweep means one process pool for the whole grid, parallel across
    cells and batched inside eligible EIG cells; :func:`run_sweep` returns
    reports in request order, so each group is a slice.
    """
    reports = iter(run_sweep(SweepSpec(
        requests=[request for group in groups for request in group])))
    return [list(islice(reports, len(group))) for group in groups]


#: One protocol's slot in a worst-case grid: ``(protocol, params, n, t,
#: round_bound, message_bound)``.
_WorstJob = Tuple[str, Mapping[str, object], int, int, int, int]


def _measure_worst_grid(jobs: Sequence[_WorstJob],
                        battery: str = "standard"
                        ) -> List[Dict[str, object]]:
    """Aggregate worst-case observations for every job, one result per job."""
    per_job_reports = _run_grouped(
        [scenario_requests(protocol, params, n, t, battery)
         for protocol, params, n, t, _, _ in jobs])
    return [_worst_of_reports(reports, round_bound, message_bound)
            for (_, _, _, _, round_bound, message_bound), reports
            in zip(jobs, per_job_reports)]


# ---------------------------------------------------------------------------
# E1 — Theorem 1: the hybrid algorithm
# ---------------------------------------------------------------------------

def experiment_theorem1(n: int, t: Optional[int] = None,
                        b_values: Iterable[int] = (3, 4)
                        ) -> List[Dict[str, object]]:
    """Hybrid rounds / message size / phase structure vs the Main Theorem."""
    t = t if t is not None else algorithm_a_resilience(n)
    admitted = [(b, theorem1_bound(n, t, b), hybrid_parameters(n, t, b))
                for b in b_values if 2 < b <= t]
    measured_list = _measure_worst_grid(
        [("hybrid", {"b": b}, n, t, bound.rounds, bound.max_message_entries)
         for b, bound, _ in admitted],
        battery="worst-case")
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
                        b_values: Iterable[int] = (3, 4)
                        ) -> List[Dict[str, object]]:
    """Algorithm A(b): measured costs against the Theorem 2 bounds."""
    t = t if t is not None else algorithm_a_resilience(n)
    admitted = [(b, theorem2_bound(n, t, b))
                for b in b_values if 2 < b <= t]
    measured_list = _measure_worst_grid(
        [("algorithm-a", {"b": b}, n, t, bound.rounds,
          bound.max_message_entries) for b, bound in admitted])
    rows = []
    for (_, bound), measured in zip(admitted, measured_list):
        row = bound.as_row()
        row.update(measured)
        rows.append(row)
    return rows


def experiment_theorem3(n: int, t: Optional[int] = None,
                        b_values: Iterable[int] = (2, 3)
                        ) -> List[Dict[str, object]]:
    """Algorithm B(b): measured costs against the Theorem 3 bounds."""
    t = t if t is not None else algorithm_b_resilience(n)
    admitted = [(b, theorem3_bound(n, t, b))
                for b in b_values if 1 < b <= t]
    measured_list = _measure_worst_grid(
        [("algorithm-b", {"b": b}, n, t, bound.rounds,
          bound.max_message_entries) for b, bound in admitted])
    rows = []
    for (_, bound), measured in zip(admitted, measured_list):
        row = bound.as_row()
        row.update(measured)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E4 — Theorem 4: Algorithm C
# ---------------------------------------------------------------------------

def experiment_theorem4(n_values: Iterable[int]
                        ) -> List[Dict[str, object]]:
    """Algorithm C: rounds ``t + 1``, messages ``O(n)``, computation ``O(n^2.5)``."""
    admitted = [(n, algorithm_c_resilience(n), theorem4_bound(
        n, algorithm_c_resilience(n))) for n in n_values
        if algorithm_c_resilience(n) >= 1]
    measured_list = _measure_worst_grid(
        [("algorithm-c", {}, n, t, bound.rounds,
          bound.max_message_entries) for n, t, bound in admitted])
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

def experiment_block_progress(n: int, t: int, b: int
                              ) -> List[Dict[str, object]]:
    """Per-scenario: how many faults each correct processor globally detected,
    round by round, while running Algorithm A(b) — the paper's progress
    dichotomy made visible."""
    reports = run_sweep(SweepSpec(requests=scenario_requests(
        "algorithm-a", {"b": b}, n, t, "worst-case")))
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

def experiment_baselines(n: int, t: int) -> List[Dict[str, object]]:
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
    admitted: List[Tuple[ProtocolSpec, int]] = []
    groups: List[List[RunRequest]] = []
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
        protocol, params = request_fields_for_spec(spec)
        admitted.append((spec, effective_t))
        groups.append(scenario_requests(protocol, params, n, effective_t,
                                        "worst-case"))

    rows = []
    for (spec, effective_t), reports in zip(admitted, _run_grouped(groups)):
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
