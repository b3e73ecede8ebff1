#!/usr/bin/env python3
"""Trace the shifting machinery round by round.

Runs Algorithm A(3) and the hybrid on the same adversarial execution
(an equivocating source with colluding accomplices) and prints, per round,
which phase the hybrid is in, how many faults the best-informed correct
processor has globally detected so far, and the preferred value recorded at
each shift — making the paper's "persistent value or new detected faults"
dichotomy visible on a concrete run.

Run:  python examples/block_progress_trace.py
"""

from repro import HybridSpec, ProtocolConfig, run_agreement
from repro.adversary import EquivocatingSourceWithAlliesAdversary
from repro.analysis import format_table
from repro.core.hybrid import hybrid_parameters
from repro.experiments import experiment_block_progress
from repro.runtime import choose_faulty


def trace_hybrid(n: int = 13, t: int = 4, b: int = 3) -> None:
    config = ProtocolConfig(n=n, t=t, initial_value=1)
    faulty = choose_faulty(n, t, source_faulty=True)
    result = run_agreement(HybridSpec(b), config, faulty,
                           EquivocatingSourceWithAlliesAdversary())
    params = hybrid_parameters(n, t, b)
    detections_per_round = {}
    for log in result.discovery_logs.values():
        for round_number, count in log.items():
            detections_per_round[round_number] = max(
                detections_per_round.get(round_number, 0), count)
    rows = []
    for round_number in range(1, result.rounds + 1):
        if round_number <= params.k_ab:
            phase = "A (resolve', fault discovery during conversion)"
        elif round_number <= params.k_ab + params.k_bc:
            phase = "B (resolve)"
        else:
            phase = "C (3-level tree with repetitions)"
        rows.append({
            "round": round_number,
            "phase": phase,
            "new_detections": detections_per_round.get(round_number, 0),
        })
    print(format_table(rows, title=f"Hybrid(b={b}) trace, n={n}, t={t}, "
                                   f"faulty={sorted(faulty)}"))
    print(f"decision: {result.decision_value}  (agreement={result.agreement})")
    print()


def algorithm_a_progress(n: int = 13, t: int = 4, b: int = 3) -> None:
    rows = experiment_block_progress(n=n, t=t, b=b)
    print(format_table(
        rows,
        columns=["scenario", "faults", "rounds", "agreement",
                 "total_detected_max", "detections_by_round"],
        title=f"Algorithm A({b}) block progress across worst-case scenarios"))


if __name__ == "__main__":
    trace_hybrid()
    algorithm_a_progress()
