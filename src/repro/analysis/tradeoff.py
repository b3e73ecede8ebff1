"""Rounds-versus-message-length trade-off curves (experiment E6).

The introduction's quantitative story is a three-way comparison at a fixed
``(n, t)`` as the message budget ``O(n^b)`` varies with ``b``:

* the Exponential Algorithm sits at one extreme (optimal ``t + 1`` rounds,
  exponential messages);
* Algorithms A and B trace a curve of ``t + O(t/b)`` rounds with ``O(n^b)``
  messages and polynomial local computation;
* Coan's families trace the *same* rounds/message curve but with exponential
  local computation;
* the hybrid dominates A at every ``b`` (same resilience, same message
  budget, fewer rounds).

This module produces those curves as plain rows so benchmarks, examples and
the EXPERIMENTS.md tables can all print the same figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..core.algorithm_a import (algorithm_a_max_message_entries, algorithm_a_resilience,
                                algorithm_a_rounds)
from ..core.algorithm_b import algorithm_b_resilience, algorithm_b_rounds
from ..core.exponential import exponential_max_message_entries, exponential_rounds
from ..core.hybrid import hybrid_rounds
from .bounds import algorithm_a_local_computation
from .coan_model import coan_local_computation


@dataclass(frozen=True)
class TradeoffPoint:
    """One row of the trade-off figure: every algorithm's cost at one ``b``."""

    b: int
    message_entries: int
    rounds_exponential: int
    rounds_algorithm_a: Optional[int]
    rounds_algorithm_b: Optional[int]
    rounds_hybrid: Optional[int]
    rounds_coan: Optional[int]
    computation_algorithm_a: Optional[float]
    computation_coan: Optional[float]

    def as_row(self) -> Dict[str, object]:
        return {
            "b": self.b,
            "message_entries(O(n^b))": self.message_entries,
            "rounds_exponential": self.rounds_exponential,
            "rounds_A": self.rounds_algorithm_a,
            "rounds_B": self.rounds_algorithm_b,
            "rounds_hybrid": self.rounds_hybrid,
            "rounds_coan": self.rounds_coan,
            "local_comp_A": self.computation_algorithm_a,
            "local_comp_coan": self.computation_coan,
        }


def tradeoff_curve(n: int, t: int, b_values: Iterable[int]) -> List[TradeoffPoint]:
    """The full trade-off figure for fixed ``(n, t)`` over a range of ``b``.

    Entries that are undefined for a given ``b`` (e.g. Algorithm A needs
    ``b > 2``; Algorithm B needs ``t ≤ ⌊(n−1)/4⌋``) are ``None`` — exactly the
    blank cells of the figure.
    """
    points: List[TradeoffPoint] = []
    for b in b_values:
        rounds_a = comp_a = rounds_hy = rounds_coan_value = None
        rounds_b_value = None
        if 2 < b <= t and t <= algorithm_a_resilience(n):
            rounds_a = algorithm_a_rounds(t, b)
            comp_a = algorithm_a_local_computation(n, t, b)
            rounds_coan_value = rounds_a
            if t >= 3:
                rounds_hy = hybrid_rounds(n, t, b)
        if 1 < b <= t and t <= algorithm_b_resilience(n):
            rounds_b_value = algorithm_b_rounds(t, b)
        points.append(TradeoffPoint(
            b=b,
            message_entries=algorithm_a_max_message_entries(n, b),
            rounds_exponential=exponential_rounds(t),
            rounds_algorithm_a=rounds_a,
            rounds_algorithm_b=rounds_b_value,
            rounds_hybrid=rounds_hy,
            rounds_coan=rounds_coan_value,
            computation_algorithm_a=comp_a,
            computation_coan=(coan_local_computation(n, t, b)
                              if rounds_coan_value is not None else None)))
    return points


def dominance_table(n: int, t: int, b_values: Iterable[int]) -> List[Dict[str, object]]:
    """Rows checking the claim that the hybrid dominates Algorithm A.

    For every feasible ``b`` the row records both round counts and the saving;
    the benchmark asserts the saving is never negative and is strictly
    positive for at least one ``b``.
    """
    rows: List[Dict[str, object]] = []
    for b in b_values:
        if not (2 < b <= t and t >= 3 and t <= algorithm_a_resilience(n)):
            continue
        rounds_a = algorithm_a_rounds(t, b)
        rounds_h = hybrid_rounds(n, t, b)
        rows.append({
            "n": n,
            "t": t,
            "b": b,
            "rounds_A": rounds_a,
            "rounds_hybrid": rounds_h,
            "saving": rounds_a - rounds_h,
            "exponential_rounds": exponential_rounds(t),
        })
    return rows


def message_growth_curve(n_values: Iterable[int], t_of_n, b: int) -> List[Dict[str, object]]:
    """Largest-message growth versus ``n`` at a fixed block parameter.

    ``t_of_n`` maps each ``n`` to the resilience used (e.g.
    :func:`repro.core.algorithm_a.algorithm_a_resilience`).
    """
    rows = []
    for n in n_values:
        t = t_of_n(n)
        rows.append({
            "n": n,
            "t": t,
            "b": b,
            "max_message_entries": algorithm_a_max_message_entries(n, b),
            "exponential_entries": exponential_max_message_entries(n, t),
        })
    return rows
