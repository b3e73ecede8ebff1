"""Tests for the statistical primitives of repro.stats.

The load-bearing contracts:

* **streaming ≡ batch, bit-identically** — every aggregator folds one value
  at a time, and folding a list in order IS the batch computation, so the
  streaming Monte-Carlo driver loses nothing against a hold-everything
  implementation;
* **exact serialization** — aggregator state round-trips through JSON with
  IEEE-754 exactness (shortest-repr floats), which is what makes
  checkpoint-resume bit-identical;
* **Wilson intervals** match published values and stay inside [0, 1];
* **cells and specs** are JSON-round-trippable, reject unknown fields, and
  derive trials deterministically (seeds positional, fault placements from
  a separate SHA-256 stream);
* **theorem confrontation** resolves the right bound per protocol and
  claims nothing for baselines, out-of-model adversaries, or unsafe cells.
"""

import json
import math
import random

import pytest

from repro.analysis import protocol_bound
from repro.api import derive_seed, execute
from repro.runtime.errors import ConfigurationError
from repro.stats import (COMPUTATION_SLACK, BoundedHistogram, CellAggregate,
                         Extrema, McCell, McSpec, Welford, mc_digest,
                         placement_seed, wilson_interval, z_score)


def json_round_trip(payload):
    return json.loads(json.dumps(payload))


class TestWelford:
    def test_matches_batch_mean_and_variance(self):
        rng = random.Random(7)
        values = [rng.uniform(-50, 50) for _ in range(500)]
        w = Welford()
        for value in values:
            w.update(value)
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert w.count == 500
        assert w.mean == pytest.approx(mean, rel=1e-12)
        assert w.variance() == pytest.approx(variance, rel=1e-9)
        assert w.std() == pytest.approx(math.sqrt(variance), rel=1e-9)

    def test_streaming_equals_batch_bit_identically(self):
        # The batch computation IS the same in-order fold, so equality is
        # exact, not approximate — the property checkpoint-resume rests on.
        rng = random.Random(11)
        values = [rng.uniform(0, 1e6) for _ in range(1000)]
        first, second = Welford(), Welford()
        for value in values:
            first.update(value)
        half = len(values) // 2
        for value in values[:half]:
            second.update(value)
        # Simulate a crash: serialize, reload, continue.
        resumed = Welford.from_dict(json_round_trip(second.to_dict()))
        for value in values[half:]:
            resumed.update(value)
        assert resumed == first
        assert resumed.mean == first.mean  # bitwise, not approx

    def test_degenerate_counts(self):
        w = Welford()
        assert w.variance() == 0.0 and w.mean == 0.0
        w.update(3.5)
        assert w.mean == 3.5 and w.variance() == 0.0

    def test_json_round_trip_is_exact(self):
        w = Welford()
        for value in (0.1, 0.2, 1 / 3, 1e300, -7):
            w.update(value)
        restored = Welford.from_dict(json_round_trip(w.to_dict()))
        assert restored == w and restored.m2 == w.m2


class TestExtrema:
    def test_tracks_min_and_max(self):
        e = Extrema()
        assert e.minimum is None and e.maximum is None
        for value in (3, -1, 7, 0):
            e.update(value)
        assert (e.minimum, e.maximum, e.count) == (-1, 7, 4)

    def test_round_trip(self):
        e = Extrema()
        e.update(2.5)
        assert Extrema.from_dict(json_round_trip(e.to_dict())) == e


class TestBoundedHistogram:
    def test_counts_and_overflow(self):
        h = BoundedHistogram(4)
        for value in (0, 1, 1, 3, 9, 100):
            h.update(value)
        assert h.counts == [1, 2, 0, 1]
        assert h.overflow == 2
        assert h.total() == 6
        assert h.nonzero() == {0: 1, 1: 2, 3: 1}

    def test_round_trip(self):
        h = BoundedHistogram(8)
        for value in (2, 2, 5, 40):
            h.update(value)
        assert BoundedHistogram.from_dict(json_round_trip(h.to_dict())) == h

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            BoundedHistogram(0)
        with pytest.raises(ConfigurationError):
            BoundedHistogram.from_dict({"bins": 4, "counts": [0, 0],
                                        "overflow": 0})


class TestWilson:
    def test_known_values(self):
        # 10 successes of 50 at 95%: the standard worked example.
        low, high = wilson_interval(10, 50)
        assert low == pytest.approx(0.1124, abs=5e-4)
        assert high == pytest.approx(0.3304, abs=5e-4)

    def test_zero_and_all_failures_stay_in_unit_interval(self):
        low, high = wilson_interval(0, 200)
        assert low == 0.0 and 0 < high < 0.02
        low, high = wilson_interval(200, 200)
        assert 0.98 < low < 1 and high == 1.0

    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_interval_narrows_with_trials(self):
        narrow = wilson_interval(10, 1000)
        wide = wilson_interval(1, 100)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_confidence_levels_nest(self):
        l90, h90 = wilson_interval(5, 100, confidence=0.90)
        l99, h99 = wilson_interval(5, 100, confidence=0.99)
        assert l99 < l90 and h90 < h99

    def test_unsupported_confidence_is_refused(self):
        with pytest.raises(ConfigurationError):
            z_score(0.80)
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 10, confidence=0.42)

    def test_rejects_impossible_counts(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(11, 10)
        with pytest.raises(ConfigurationError):
            wilson_interval(-1, 10)


class TestProtocolBound:
    def test_maps_every_paper_algorithm(self):
        assert protocol_bound("exponential", {}, 7, 2).rounds == 3
        assert protocol_bound("algorithm-a", {"b": 3}, 13, 3) is not None
        assert protocol_bound("algorithm-b", {"b": 3}, 13, 3) is not None
        assert protocol_bound("algorithm-c", {}, 9, 2) is not None
        assert protocol_bound("hybrid", {"b": 3}, 16, 5) is not None

    def test_baselines_have_no_bound(self):
        for baseline in ("psl", "phase-king", "dolev-strong"):
            assert protocol_bound(baseline, {}, 7, 2) is None

    def test_block_algorithms_need_b(self):
        with pytest.raises(ValueError):
            protocol_bound("algorithm-a", {}, 13, 3)


class TestMcCell:
    def test_round_trip(self):
        cell = McCell(protocol="algorithm-a", n=13, t=3,
                      adversary="consistent-liar",
                      protocol_params={"b": 3}, faults=2,
                      source_placement="never")
        assert McCell.from_dict(json_round_trip(cell.to_dict())) == cell

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ConfigurationError):
            McCell.from_dict({"protocol": "exponential", "n": 7, "t": 2,
                              "typo": True})

    def test_impossible_fault_counts_are_rejected(self):
        with pytest.raises(ConfigurationError):
            McCell(protocol="exponential", n=7, t=2, faults=8)
        with pytest.raises(ConfigurationError):
            McCell(protocol="exponential", n=7, t=2, faults=0,
                   source_placement="always")

    def test_unknown_placement_is_rejected(self):
        with pytest.raises(ConfigurationError):
            McCell(protocol="exponential", n=7, t=2,
                   source_placement="sometimes")


def small_spec(**overrides):
    fields = dict(
        cells=(McCell(protocol="exponential", n=7, t=2),
               McCell(protocol="algorithm-a", n=13, t=3,
                      protocol_params={"b": 3})),
        trials=10, sweep_seed=5, chunk_size=4)
    fields.update(overrides)
    return McSpec(**fields)


class TestMcSpec:
    def test_round_trip_and_digest_stability(self):
        spec = small_spec()
        restored = McSpec.from_dict(json_round_trip(spec.to_dict()))
        assert restored == spec
        assert mc_digest(restored) == mc_digest(spec)

    def test_digest_changes_with_content(self):
        assert mc_digest(small_spec()) != mc_digest(small_spec(trials=11))
        assert mc_digest(small_spec()) != mc_digest(small_spec(sweep_seed=6))

    def test_trial_addressing(self):
        spec = small_spec()  # 2 cells × 10 trials, chunks of 4
        assert spec.total_trials == 20
        assert spec.total_chunks == 5
        assert spec.cell_index(0) == 0 and spec.cell_index(9) == 0
        assert spec.cell_index(10) == 1 and spec.cell_index(19) == 1
        assert list(spec.chunk_indices(4)) == [16, 17, 18, 19]
        with pytest.raises(ConfigurationError):
            spec.cell_index(20)
        with pytest.raises(ConfigurationError):
            spec.chunk_indices(5)

    def test_trial_requests_are_deterministic_and_positional(self):
        spec = small_spec()
        first = spec.trial_request(3)
        again = McSpec.from_dict(json_round_trip(spec.to_dict()))
        assert again.trial_request(3) == first
        assert first.seed == derive_seed(5, 3)
        # Distinct trials draw distinct seeds and (typically) placements.
        assert first.seed != spec.trial_request(4).seed

    def test_fault_placement_varies_across_trials(self):
        spec = small_spec(trials=50)
        faulty_sets = {spec.trial_request(i).faulty for i in range(50)}
        assert len(faulty_sets) > 1  # a Monte-Carlo, not one repeated run
        assert all(len(f) == 2 for f in faulty_sets)

    def test_source_placement_rules(self):
        always = McSpec(cells=(McCell(protocol="exponential", n=7, t=2,
                                      source_placement="always"),),
                        trials=30, sweep_seed=1)
        assert all(0 in always.trial_request(i).faulty for i in range(30))
        never = McSpec(cells=(McCell(protocol="exponential", n=7, t=2,
                                     source_placement="never"),),
                       trials=30, sweep_seed=1)
        assert all(0 not in never.trial_request(i).faulty
                   for i in range(30))

    def test_placement_stream_is_separate_from_seed_stream(self):
        assert placement_seed(5, 3) != derive_seed(5, 3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            McSpec(cells=(), trials=10)
        with pytest.raises(ConfigurationError):
            small_spec(trials=0)
        with pytest.raises(ConfigurationError):
            small_spec(chunk_size=0)
        with pytest.raises(ConfigurationError):
            McSpec.from_dict({"cells": [], "trials": 1, "typo": 1})


def reports_for(cell, count, sweep_seed=0):
    spec = McSpec(cells=(cell,), trials=count, sweep_seed=sweep_seed)
    return [execute(spec.trial_request(i)) for i in range(count)]


class TestCellAggregate:
    def test_streaming_equals_batch_through_a_checkpoint(self):
        cell = McCell(protocol="exponential", n=7, t=2)
        reports = reports_for(cell, 12)
        batch = CellAggregate(cell)
        for report in reports:
            batch.update(report)
        streamed = CellAggregate(cell)
        for report in reports[:5]:
            streamed.update(report)
        resumed = CellAggregate.from_dict(
            json_round_trip(streamed.to_dict()))
        for report in reports[5:]:
            resumed.update(report)
        assert resumed == batch

    def test_counts_and_bound_rows_on_clean_runs(self):
        cell = McCell(protocol="exponential", n=7, t=2)
        aggregate = CellAggregate(cell)
        for report in reports_for(cell, 8):
            aggregate.update(report)
        assert aggregate.trials == 8
        assert aggregate.agreement_failures == 0
        assert aggregate.guarantees_apply()
        rows = {row["quantity"]: row for row in aggregate.bound_rows()}
        assert set(rows) == {"rounds", "max_message_entries",
                             "max_computation_units"}
        assert all(row["within"] for row in rows.values())
        assert rows["rounds"]["slack"] == 1.0
        assert rows["max_computation_units"]["slack"] == COMPUTATION_SLACK
        assert aggregate.problems() == ()

    def test_out_of_model_adversary_claims_nothing(self):
        cell = McCell(protocol="exponential", n=7, t=2,
                      adversary="transient-corruption")
        aggregate = CellAggregate(cell)
        assert not aggregate.guarantees_apply()
        # Even a fabricated failure is reported, never a hard problem.
        aggregate.trials = 5
        aggregate.agreement_failures = 5
        assert aggregate.problems() == ()

    def test_baseline_has_numbers_but_no_verdict(self):
        cell = McCell(protocol="psl", n=7, t=2)
        aggregate = CellAggregate(cell)
        for report in reports_for(cell, 4):
            aggregate.update(report)
        assert aggregate.bound_rows() == ()
        assert not aggregate.guarantees_apply()

    def test_agreement_failure_is_a_hard_problem_in_model(self):
        cell = McCell(protocol="exponential", n=7, t=2)
        aggregate = CellAggregate(cell)
        for report in reports_for(cell, 3):
            aggregate.update(report)
        aggregate.agreement_failures = 1
        problems = aggregate.problems()
        assert len(problems) == 1 and "agreement failed" in problems[0]

    def test_failure_rates_carry_wilson_cis(self):
        cell = McCell(protocol="exponential", n=7, t=2)
        aggregate = CellAggregate(cell)
        for report in reports_for(cell, 6):
            aggregate.update(report)
        rates = aggregate.failure_rates(0.95)
        assert rates["trials"] == 6
        assert rates["agreement_rate"] == 0.0
        low, high = rates["agreement_ci"]
        assert low == 0.0 and 0 < high < 1
