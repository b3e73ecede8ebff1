"""Tests for the execution driver and RunResult verdicts."""

import pytest

from repro.adversary import TwoFacedSourceAdversary
from repro.core.exponential import ExponentialSpec
from repro.core.protocol import ProtocolConfig
from repro.runtime.errors import ConfigurationError, SimulationError
from repro.runtime.simulation import RunResult, choose_faulty, run_agreement


class TestChooseFaulty:
    def test_size_and_source_inclusion(self):
        faulty = choose_faulty(7, 3, source_faulty=True)
        assert len(faulty) == 3 and 0 in faulty

    def test_source_excluded_by_default(self):
        faulty = choose_faulty(7, 3)
        assert 0 not in faulty

    def test_zero_faults(self):
        assert choose_faulty(7, 0) == frozenset()

    def test_too_many_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            choose_faulty(4, 5)


class TestRunAgreement:
    def test_default_adversary_is_benign(self):
        config = ProtocolConfig(n=7, t=2, initial_value=1)
        result = run_agreement(ExponentialSpec(), config, faulty=choose_faulty(7, 2))
        assert result.succeeded
        assert result.decision_value == 1

    def test_unknown_faulty_processor_rejected(self):
        config = ProtocolConfig(n=7, t=2)
        with pytest.raises(ConfigurationError):
            run_agreement(ExponentialSpec(), config, faulty={99})

    def test_result_contains_metrics_and_discoveries(self):
        config = ProtocolConfig(n=7, t=2, initial_value=1)
        result = run_agreement(ExponentialSpec(), config,
                               choose_faulty(7, 2, source_faulty=True),
                               TwoFacedSourceAdversary())
        assert result.rounds == 3
        assert result.metrics.total_messages() > 0
        assert set(result.decisions) == set(result.correct)
        assert all(isinstance(v, tuple) for v in result.discovered.values())

    def test_summary_row(self):
        config = ProtocolConfig(n=7, t=2, initial_value=1)
        result = run_agreement(ExponentialSpec(), config)
        row = result.summary()
        assert row["protocol"] == "exponential"
        assert row["agreement"] is True


class TestRunResultVerdicts:
    def make_result(self, decisions, faulty=frozenset()):
        config = ProtocolConfig(n=4, t=1, initial_value=1)
        from repro.runtime.metrics import RunMetrics
        return RunResult(protocol="x", adversary="y", config=config,
                         faulty=frozenset(faulty), decisions=decisions,
                         rounds=2, metrics=RunMetrics())

    def test_agreement_violation_detected(self):
        result = self.make_result({0: 1, 1: 1, 2: 0, 3: 1})
        assert not result.agreement
        with pytest.raises(SimulationError):
            _ = result.decision_value

    def test_validity_violation_detected(self):
        result = self.make_result({0: 1, 1: 0, 2: 0, 3: 0})
        assert result.validity is False

    def test_validity_vacuous_with_faulty_source(self):
        result = self.make_result({1: 0, 2: 0, 3: 0}, faulty={0})
        assert result.validity is None
        assert result.succeeded

    def test_soundness_of_discovery(self):
        result = self.make_result({1: 0, 2: 0, 3: 0}, faulty={0})
        result.discovered = {1: (0,), 2: (), 3: ()}
        assert result.soundness_of_discovery()
        result.discovered = {1: (2,)}
        assert not result.soundness_of_discovery()
