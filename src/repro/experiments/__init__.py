"""Experiment harness: workloads, sweeps, and per-table/figure runners."""

from __future__ import annotations

from .harness import (experiment_baselines, experiment_block_progress,
                      experiment_dominance, experiment_exponential_growth,
                      experiment_theorem1, experiment_theorem2,
                      experiment_theorem3, experiment_theorem4,
                      experiment_tradeoff, run_all_experiments,
                      scenario_requests)
from .workloads import (SCENARIO_BATTERIES, Scenario, adversarial_scenarios,
                        fault_count_sweep, scenario_by_name, scenario_names,
                        standard_scenarios, worst_case_scenarios)

__all__ = [
    "Scenario", "SCENARIO_BATTERIES", "standard_scenarios",
    "adversarial_scenarios", "worst_case_scenarios", "fault_count_sweep",
    "scenario_by_name", "scenario_names",
    "experiment_theorem1", "experiment_theorem2", "experiment_theorem3",
    "experiment_theorem4", "experiment_exponential_growth", "experiment_tradeoff",
    "experiment_block_progress", "experiment_dominance", "experiment_baselines",
    "run_all_experiments", "scenario_requests",
]
