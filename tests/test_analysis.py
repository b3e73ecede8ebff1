"""Tests for the analysis layer: bounds, Coan model, trade-off, checkers, reporting."""

from repro.analysis import (check_agreement, check_message_bound, check_round_bound,
                            check_validity, coan_curve, coan_local_computation,
                            coan_rounds, comparison_rows, dominance_table,
                            exponential_bound, format_markdown_table, format_table,
                            main_theorem_round_formula, message_growth_curve,
                            resilience_table, theorem1_bound, theorem2_bound,
                            theorem3_bound, theorem4_bound, tradeoff_curve,
                            verify_run)
from repro.analysis.bounds import (algorithm_a_local_computation,
                                   algorithm_b_local_computation,
                                   exponential_local_computation)
from repro.core.algorithm_a import algorithm_a_resilience, algorithm_a_rounds
from repro.core.exponential import ExponentialSpec
from repro.core.hybrid import hybrid_rounds
from repro.core.protocol import ProtocolConfig
from repro.runtime.simulation import choose_faulty, run_agreement
from repro.adversary import TwoFacedSourceAdversary


class TestBounds:
    def test_exponential_bound_row(self):
        bound = exponential_bound(7, 2)
        row = bound.as_row()
        assert row["rounds_bound"] == 3
        assert row["max_message_entries_bound"] == 6

    def test_theorem_bounds_reference_their_algorithms(self):
        assert "algorithm-a" in theorem2_bound(10, 3, 3).algorithm
        assert "algorithm-b" in theorem3_bound(13, 3, 2).algorithm
        assert theorem4_bound(20, 3).algorithm == "algorithm-c"
        assert "hybrid" in theorem1_bound(13, 4, 3).algorithm

    def test_local_computation_shapes(self):
        # Algorithm A at equal b costs more than B (the (b−2) vs (b−1) divisor).
        assert (algorithm_a_local_computation(13, 4, 3)
                > algorithm_b_local_computation(13, 4, 3))
        # Exponential local computation explodes with t.
        assert (exponential_local_computation(10, 3)
                < exponential_local_computation(13, 4))

    def test_main_theorem_formula_matches_constructive_count(self):
        assert main_theorem_round_formula(31, 10, 4) == hybrid_rounds(31, 10, 4)

    def test_resilience_table_ordering(self):
        table = resilience_table(61)
        assert table["algorithm-a"] >= table["algorithm-b"] >= table["algorithm-c"]
        assert table["hybrid"] == table["algorithm-a"]


class TestCoanModel:
    def test_rounds_match_algorithm_a(self):
        assert coan_rounds(10, 4) == algorithm_a_rounds(10, 4)

    def test_local_computation_is_exponential_in_t(self):
        small = coan_local_computation(31, 5, 4)
        large = coan_local_computation(31, 10, 4)
        assert large / small > 2 ** 4

    def test_curve_rows(self):
        curve = coan_curve(31, 10, (3, 4, 5))
        assert [point.b for point in curve] == [3, 4, 5]
        assert all("rounds" in point.as_row() for point in curve)


class TestTradeoff:
    def test_curve_has_blank_cells_outside_validity(self):
        points = tradeoff_curve(31, 10, (2, 3, 4))
        by_b = {point.b: point for point in points}
        assert by_b[2].rounds_algorithm_a is None
        assert by_b[3].rounds_algorithm_a is not None

    def test_rounds_fall_as_b_grows(self):
        points = tradeoff_curve(31, 10, (3, 4, 5, 6))
        rounds = [point.rounds_algorithm_a for point in points]
        assert rounds == sorted(rounds, reverse=True)

    def test_coan_rounds_equal_ours_on_the_curve(self):
        for point in tradeoff_curve(31, 10, (3, 4, 5)):
            assert point.rounds_coan == point.rounds_algorithm_a

    def test_dominance_table_savings(self):
        rows = dominance_table(31, 10, (3, 4, 5))
        assert all(row["saving"] >= 0 for row in rows)
        assert any(row["saving"] > 0 for row in rows)

    def test_message_growth_curve(self):
        rows = message_growth_curve((10, 13, 16), algorithm_a_resilience, b=3)
        entries = [row["max_message_entries"] for row in rows]
        assert entries == sorted(entries)


class TestCheckers:
    def run_one(self):
        config = ProtocolConfig(n=7, t=2, initial_value=1)
        return run_agreement(ExponentialSpec(), config,
                             choose_faulty(7, 2, source_faulty=True),
                             TwoFacedSourceAdversary())

    def test_individual_checks(self):
        result = self.run_one()
        assert check_agreement(result)
        assert check_validity(result) is None
        assert check_round_bound(result, 3)
        assert not check_round_bound(result, 2)
        assert check_message_bound(result, 6)

    def test_verify_run_collects_problems(self):
        result = self.run_one()
        verdict = verify_run(result, round_bound=3, message_bound=6)
        assert verdict.ok
        bad = verify_run(result, round_bound=1, message_bound=1)
        assert not bad.ok
        assert len(bad.problems) == 2


class TestReporting:
    def test_format_table_alignment_and_title(self):
        rows = [{"a": 1, "b": True}, {"a": 22, "b": None}]
        text = format_table(rows, title="demo")
        assert text.startswith("demo")
        assert "yes" in text and "-" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_markdown_table(self):
        rows = [{"a": 1.5, "b": "x"}]
        text = format_markdown_table(rows)
        assert text.splitlines()[0] == "| a | b |"
        assert "| 1.50 | x |" in text

    def test_comparison_rows_ratio(self):
        rows = comparison_rows([("rounds", 10, 5)])
        assert rows[0]["measured/bound"] == 0.5
