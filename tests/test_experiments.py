"""Smoke tests for the experiment harness (E1–E9 runners) and workloads."""

from repro.experiments import (adversarial_scenarios, experiment_baselines,
                               experiment_block_progress, experiment_dominance,
                               experiment_exponential_growth, experiment_theorem1,
                               experiment_theorem2, experiment_theorem3,
                               experiment_theorem4, experiment_tradeoff,
                               scenario_by_name, scenario_names, standard_scenarios,
                               worst_case_scenarios)
from repro.experiments.workloads import fault_count_sweep
from tests.parity import assert_same_outcome


class TestWorkloads:
    def test_standard_scenarios_cover_faulty_and_correct_source(self):
        scenarios = standard_scenarios(10, 3)
        assert any(0 in s.faulty for s in scenarios)
        assert any(s.faulty and 0 not in s.faulty for s in scenarios)
        assert any(not s.faulty for s in scenarios)

    def test_fault_counts_never_exceed_t(self):
        assert all(s.fault_count <= 3 for s in standard_scenarios(10, 3))

    def test_adversarial_subset_drops_benign(self):
        names = {s.name for s in adversarial_scenarios(10, 3)}
        assert "fault-free" not in names and "benign-faults" not in names

    def test_worst_case_scenarios_nonempty(self):
        assert len(worst_case_scenarios(10, 3)) >= 3

    def test_fault_count_sweep(self):
        sweep = list(fault_count_sweep(10, 3))
        assert [len(f) for f in sweep] == [0, 1, 2, 3]

    def test_scenario_lookup(self):
        assert scenario_by_name("silent", 10, 3).name == "silent"
        assert scenario_by_name("nonsense", 10, 3) is None
        assert "silent" in scenario_names()

    def test_adversary_factory_returns_fresh_instances(self):
        scenario = scenario_by_name("silent", 10, 3)
        assert scenario.adversary() is not scenario.adversary()


class TestHarness:
    def test_grouped_requests_run_as_one_sweep_and_regroup(self):
        from repro.api import RunRequest, execute
        from repro.experiments.harness import _run_grouped
        requests = [RunRequest(protocol="exponential", n=7, t=2,
                               initial_value=1, battery="worst-case",
                               scenario="faulty-source-allies", seed=seed)
                    for seed in range(3)]
        grouped = _run_grouped([requests[:2], [], requests[2:]])
        assert [len(group) for group in grouped] == [2, 0, 1]
        flat = [report for group in grouped for report in group]
        for request, report in zip(requests, flat):
            expected = execute(request)
            assert_same_outcome(report, expected)
            assert (report.engine_resolved, report.metadata) == (
                expected.engine_resolved, expected.metadata)

    def test_experiment_theorem2_rows(self):
        rows = experiment_theorem2(n=10, t=3, b_values=(3,))
        assert len(rows) == 1
        row = rows[0]
        assert row["measured_rounds"] <= row["rounds_bound"]
        assert row["measured_max_entries"] <= row["max_message_entries_bound"]
        assert row["all_scenarios_agree"]

    def test_experiment_theorem3_rows(self):
        rows = experiment_theorem3(n=13, t=3, b_values=(2,))
        assert rows and rows[0]["all_scenarios_agree"]

    def test_experiment_theorem4_rows(self):
        rows = experiment_theorem4((14,))
        assert rows and rows[0]["measured_rounds"] == rows[0]["rounds_bound"]

    def test_experiment_theorem1_rows(self):
        rows = experiment_theorem1(n=13, t=4, b_values=(3,))
        assert rows and rows[0]["all_scenarios_agree"]
        assert rows[0]["k_AB"] + rows[0]["k_BC"] + rows[0]["c_rounds"] == rows[0]["rounds_bound"]

    def test_experiment_exponential_growth_rows(self):
        rows = experiment_exponential_growth((4, 7))
        entries = [row["measured_max_entries"] for row in rows]
        assert entries == sorted(entries)

    def test_experiment_tradeoff_rows(self):
        rows = experiment_tradeoff(n=31, t=10, b_values=(3, 4))
        assert len(rows) == 2

    def test_experiment_block_progress_rows(self):
        rows = experiment_block_progress(n=10, t=3, b=3)
        assert all(row["agreement"] for row in rows)
        assert any(row["total_detected_max"] > 0 for row in rows)

    def test_experiment_dominance_rows(self):
        rows = experiment_dominance(n=31, t=10, b_values=(3, 4))
        assert all(row["saving"] >= 0 for row in rows)

    def test_experiment_baselines_rows(self):
        rows = experiment_baselines(n=13, t=3)
        names = {row["protocol"] for row in rows}
        assert "exponential" in names and "phase-king" in names
        assert all(row["all_scenarios_agree"] for row in rows)
