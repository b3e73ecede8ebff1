"""Tests for the adversary-search harness (repro.search + the CLI verb).

The load-bearing claims: a search is a pure function of ``(spec,
sweep_seed)``; the under-resilient ``n = 3, t = 1`` cell yields an agreement
violation quickly; a resilient grid (with the beyond-model
transient-corruption family excluded) yields none; the minimizer only
shrinks while the violation persists; and a pinned fixture replays to the
exact pinned outcome.
"""

import json

import pytest

from repro import cli
from repro.api import RunRequest, execute
from repro.search import (OBJECTIVES, SearchSpec, get_objective, load_pinned,
                          minimize_counterexample, objective_names,
                          pin_scenario, pinned_paths, replay_pinned,
                          run_search)
from repro.search.pinning import scenario_name
from repro.search.space import (mutate_viable, sample_viable, viable)
from repro.runtime.errors import ConfigurationError
from tests.parity import assert_same_outcome

import random

UNSAFE = SearchSpec(cells=((3, 1),), allow_unsafe=True, budget=200,
                    sweep_seed=0)
SAFE_NO_CORRUPTION = SearchSpec(
    cells=((7, 2),), budget=64, sweep_seed=0,
    adversaries=tuple(n for n in SearchSpec().adversary_pool()
                      if n != "transient-corruption"))

#: The deterministic first hit of ``UNSAFE`` (pinned in
#: tests/pinned_scenarios/); changing the sampler, the seed rule, or the
#: engines shows up here first.
KNOWN_HIT_SEED = 2650671191879346030


class TestObjectives:
    def test_registry_names(self):
        assert list(objective_names()) == sorted(OBJECTIVES)
        assert "agreement_violation" in OBJECTIVES
        assert {"max_rounds", "max_messages", "max_units"} <= set(OBJECTIVES)

    def test_only_safety_objective_flags_violations(self):
        assert get_objective("agreement_violation").is_violation
        assert not get_objective("max_rounds").is_violation

    def test_unknown_objective_is_loud(self):
        with pytest.raises(ConfigurationError, match="objective"):
            get_objective("min_entropy")

    def test_agreement_objective_scores_a_real_violation(self):
        objective = get_objective("agreement_violation")
        report = execute(RunRequest(protocol="exponential", n=3, t=1,
                                    faulty=(2,), adversary="consistent-liar",
                                    initial_value=1, seed=KNOWN_HIT_SEED,
                                    allow_unsafe=True))
        assert objective.violated(report)
        assert objective.score(report) == 2.0  # disagreement outranks
        healthy = execute(RunRequest(protocol="exponential", n=4, t=1,
                                     faulty=(3,),
                                     adversary="consistent-liar",
                                     initial_value=1))
        assert not objective.violated(healthy)
        assert objective.score(healthy) == 0.0


class TestSearchSpec:
    def test_round_trips_through_json(self):
        spec = SearchSpec(objective="max_messages", protocols=("exponential",),
                          cells=((7, 2), (10, 3)), adversaries=("two-faced",),
                          strategy="anneal", budget=32, sweep_seed=9,
                          initial_values=(1,))
        assert SearchSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_rejects_unknown_names_and_empty_grids(self):
        with pytest.raises(ConfigurationError, match="strategy"):
            SearchSpec(strategy="tabu")
        with pytest.raises(ConfigurationError, match="protocol"):
            SearchSpec(protocols=("quantum",))
        with pytest.raises(ConfigurationError, match="adversar"):
            SearchSpec(adversaries=("trickster",))
        with pytest.raises(ConfigurationError, match="budget"):
            SearchSpec(budget=0)
        with pytest.raises(ConfigurationError, match="cell"):
            SearchSpec(cells=())
        with pytest.raises(ConfigurationError, match="SearchSpec field"):
            SearchSpec.from_dict({"budgets": 3})

    def test_empty_adversaries_means_the_whole_registry(self):
        from repro.api import adversary_names
        assert SearchSpec().adversary_pool() == \
            tuple(sorted(adversary_names()))
        assert SearchSpec(adversaries=("silent",)).adversary_pool() == \
            ("silent",)


class TestSampling:
    def test_sampled_candidates_are_viable_and_inside_the_grid(self):
        rng = random.Random(7)
        for _ in range(20):
            candidate = sample_viable(UNSAFE, rng)
            assert candidate is not None
            assert (candidate.n, candidate.t) == (3, 1)
            assert candidate.allow_unsafe
            assert viable(candidate)

    def test_mutation_changes_exactly_reachable_coordinates(self):
        rng = random.Random(3)
        base = sample_viable(SAFE_NO_CORRUPTION, rng)
        for _ in range(10):
            neighbor = mutate_viable(SAFE_NO_CORRUPTION, base, rng)
            assert neighbor is not None and neighbor != base
            assert viable(neighbor)


class TestRunSearch:
    def test_unsafe_cell_yields_a_violation_immediately(self):
        result = run_search(UNSAFE)
        assert result.found and result.stopped_early
        assert result.evaluated < UNSAFE.budget
        hit = result.violations[0]
        assert not hit.report.agreement or not hit.report.validity
        assert hit.request.seed == KNOWN_HIT_SEED
        assert hit.request.adversary == "consistent-liar"
        assert hit.request.initial_value == 1

    def test_search_is_a_pure_function_of_spec_and_seed(self):
        first = run_search(UNSAFE)
        second = run_search(UNSAFE)
        assert [e.request for e in first.violations] == \
            [e.request for e in second.violations]
        assert first.evaluated == second.evaluated
        assert first.best.request == second.best.request

    def test_resilient_grid_stays_clean(self):
        result = run_search(SAFE_NO_CORRUPTION)
        assert not result.found
        assert not result.stopped_early
        assert result.evaluated == SAFE_NO_CORRUPTION.budget

    def test_cost_objective_spends_the_whole_budget(self):
        spec = SearchSpec(objective="max_messages", cells=((7, 2),),
                          strategy="anneal", budget=24, sweep_seed=1,
                          adversaries=("two-faced", "consistent-liar",
                                       "silent"))
        result = run_search(spec)
        assert result.evaluated == spec.budget
        assert result.best is not None and result.best.score > 0
        assert not result.violations

    def test_stop_on_violation_false_collects_every_hit(self):
        spec = SearchSpec(cells=((3, 1),), allow_unsafe=True, budget=48,
                          sweep_seed=0,
                          adversaries=("consistent-liar", "two-faced"))
        greedy = run_search(spec, stop_on_violation=False)
        eager = run_search(spec)
        assert not greedy.stopped_early
        assert greedy.evaluated == spec.budget
        assert len(greedy.violations) >= len(eager.violations) >= 1
        assert greedy.violations[0].request == eager.violations[0].request


class TestMinimize:
    def test_healthy_request_is_rejected(self):
        healthy = RunRequest(protocol="exponential", n=7, t=2, faulty=(5, 6),
                             adversary="consistent-liar", initial_value=1)
        with pytest.raises(ValueError, match="does not violate"):
            minimize_counterexample(healthy)

    def test_minimized_request_still_violates_and_never_grows(self):
        raw = run_search(UNSAFE).violations[0].request
        small, report = minimize_counterexample(raw)
        assert not report.agreement or not report.validity
        assert set(small.faulty or ()) <= set(raw.faulty or ())
        assert set(small.adversary_params) <= set(raw.adversary_params)
        for name, value in small.adversary_params.items():
            assert value <= raw.adversary_params[name]
        assert len(small.domain) <= len(raw.domain)
        # A second pass finds nothing left to remove (fixpoint).
        again, _ = minimize_counterexample(small)
        assert again == small

    def test_shrinks_inflated_integer_params(self):
        # victims=3 breaks agreement at n=7, t=2; an inflated corruption
        # window shrinks back because the violation persists without it.
        inflated = RunRequest(
            protocol="exponential", n=7, t=2, faulty=(2,),
            adversary="transient-corruption",
            adversary_params={"corrupt_rounds": 1, "victims": 3, "flips": 1},
            initial_value=1, seed=364022971)
        small, report = minimize_counterexample(inflated)
        assert not report.agreement
        assert small.adversary_params["victims"] <= 3
        assert small.adversary_params["corrupt_rounds"] == 1
        assert small.adversary_params["flips"] == 1


class TestPinning:
    def _hit(self):
        small, report = minimize_counterexample(
            run_search(UNSAFE).violations[0].request)
        return small, report

    def test_pin_and_replay_round_trip(self, tmp_path):
        request, report = self._hit()
        path = pin_scenario(request, report, str(tmp_path))
        assert pinned_paths(str(tmp_path)) == [path]
        loaded, expect = load_pinned(path)
        assert loaded == request
        assert expect["agreement"] == report.agreement
        replayed, _, mismatches = replay_pinned(path)
        assert mismatches == []
        assert_same_outcome(replayed, report)

    def test_scenario_name_is_filesystem_safe_and_descriptive(self):
        request, _ = self._hit()
        name = scenario_name(request)
        assert name.startswith("exponential-n3t1-")
        assert f"seed{request.seed}" in name
        assert "/" not in name and " " not in name

    def test_replay_detects_drift(self, tmp_path):
        request, report = self._hit()
        path = pin_scenario(request, report, str(tmp_path))
        payload = json.loads(open(path).read())
        payload["expect"]["rounds"] = report.rounds + 5
        with open(path, "w") as handle:
            json.dump(payload, handle)
        _, _, mismatches = replay_pinned(path)
        assert mismatches and "rounds" in mismatches[0]

    def test_load_rejects_foreign_and_broken_files(self, tmp_path):
        bad = tmp_path / "nonsense.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_pinned(str(bad))
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"kind": "something-else"}')
        with pytest.raises(ConfigurationError, match="pinned scenario"):
            load_pinned(str(foreign))
        assert pinned_paths(str(tmp_path / "missing")) == []


class TestCli:
    def test_search_exit_code_signals_a_find(self, tmp_path, capsys):
        code = cli.main(["search", "--cell", "3,1", "--allow-unsafe",
                         "--budget", "200", "--sweep-seed", "0",
                         "--pin", str(tmp_path)])
        assert code == 3
        out = capsys.readouterr().out
        assert "violation" in out.lower()
        assert len(pinned_paths(str(tmp_path))) == 1

    def test_search_clean_grid_exits_zero(self, capsys):
        code = cli.main(["search", "--cell", "7,2", "--budget", "32",
                         "--exclude", "transient-corruption",
                         "--sweep-seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "searched 32 execution(s)" in out
        assert "minimized" not in out and "raw hit" not in out

    def test_search_json_output_is_parseable(self, capsys):
        code = cli.main(["search", "--cell", "3,1", "--allow-unsafe",
                         "--budget", "200", "--sweep-seed", "0", "--json",
                         "--no-minimize"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] is True
        assert payload["spec"]["cells"] == [[3, 1]]
        assert payload["violations"][0]["request"]["adversary"] == \
            "consistent-liar"

    def test_search_rejects_unknown_exclusions(self):
        with pytest.raises(SystemExit, match="unknown adversar"):
            cli.main(["search", "--exclude", "no-such-adversary"])

    def test_validate_reports_batched_eligibility(self, tmp_path, capsys):
        requests = [
            RunRequest(protocol="exponential", n=7, t=2, faulty=(5, 6),
                       adversary="crash-recovery",
                       initial_value=1).to_dict(),
            RunRequest(protocol="exponential", n=7, t=2, faulty=(5, 6),
                       adversary="transient-corruption",
                       initial_value=1).to_dict(),
        ]
        path = tmp_path / "requests.json"
        path.write_text(json.dumps(requests))
        code = cli.main(["validate", str(path), "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["batched"].startswith("fallback: ")
        assert "round" in rows[0]["batched"]  # the verbatim reason text
        from repro.core.engine import numpy_available
        if numpy_available():
            assert rows[1]["batched"] == "eligible"
        else:
            assert rows[1]["batched"] == "fallback: numpy is not importable"
