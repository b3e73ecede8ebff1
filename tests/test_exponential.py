"""Tests for the Exponential Algorithm (Section 3): agreement, validity,
round/message bounds, and the lemma-level properties its proof rests on."""

from tests.helpers import assert_battery_correct, run_battery

from repro.adversary import (BenignAdversary, EquivocatingSourceWithAlliesAdversary,
                             SilentAdversary, StealthPathAdversary,
                             TwoFacedSourceAdversary)
from repro.core.exponential import (ExponentialSpec, exponential_max_message_entries,
                                    exponential_resilience, exponential_rounds,
                                    exponential_schedule)
from repro.core.protocol import ProtocolConfig
from repro.core.shifting import ShiftingEIGProcessor
from repro.runtime.simulation import choose_faulty, run_agreement


class TestBounds:
    def test_resilience_formula(self):
        assert exponential_resilience(4) == 1
        assert exponential_resilience(7) == 2
        assert exponential_resilience(10) == 3

    def test_rounds_formula(self):
        assert exponential_rounds(1) == 2
        assert exponential_rounds(3) == 4

    def test_max_message_entries_growth(self):
        assert exponential_max_message_entries(7, 1) == 1
        assert exponential_max_message_entries(7, 2) == 6
        assert exponential_max_message_entries(7, 3) == 30

    def test_schedule_is_one_segment(self):
        schedule = exponential_schedule(3)
        assert schedule.total_rounds == 4
        assert len(schedule.segments) == 1


class TestAgreementBattery:
    def test_n7_t2_standard_battery(self):
        assert_battery_correct(ExponentialSpec, n=7, t=2) >= 10

    def test_n4_t1_standard_battery(self):
        assert_battery_correct(ExponentialSpec, n=4, t=1)

    def test_resolve_prime_variant_battery(self):
        assert_battery_correct(lambda: ExponentialSpec("resolve_prime"), n=7, t=2)

    def test_initial_value_zero(self):
        assert_battery_correct(ExponentialSpec, n=7, t=2, initial_value=0)

    def test_rounds_match_theorem(self):
        for scenario, result in run_battery(ExponentialSpec, n=7, t=2):
            assert result.rounds == exponential_rounds(2)

    def test_message_bound_matches_theorem(self):
        for scenario, result in run_battery(ExponentialSpec, n=7, t=2):
            assert (result.metrics.max_message_entries()
                    <= exponential_max_message_entries(7, 2))


class TestValidityFastPath:
    def test_correct_source_decides_in_round_one(self):
        config = ProtocolConfig(n=7, t=2, initial_value=1)
        result = run_agreement(ExponentialSpec(), config,
                               faulty=choose_faulty(7, 2),
                               adversary=StealthPathAdversary())
        assert result.decisions[0] == 1

    def test_silent_source_yields_default(self):
        config = ProtocolConfig(n=7, t=2, initial_value=1)
        result = run_agreement(ExponentialSpec(), config,
                               faulty=choose_faulty(7, 2, source_faulty=True),
                               adversary=SilentAdversary())
        assert result.agreement
        assert result.decision_value == 0


class TestLemmaProperties:
    """Executable versions of the Correctness, Persistence and Hidden Fault
    properties, checked on the trees produced by real executions."""

    def _final_processors(self, adversary, faulty, n=7, t=2, initial_value=1):
        """Run one execution and return the correct processors' protocol objects."""
        config = ProtocolConfig(n=n, t=t, initial_value=initial_value)
        spec = ExponentialSpec()
        spec.validate(config)
        correct = [p for p in config.processors if p not in faulty]
        processors = {pid: spec.build(pid, config) for pid in correct}
        from repro.adversary.base import AdversaryContext
        from repro.runtime.metrics import RunMetrics
        from repro.runtime.network import SynchronousNetwork
        adversary.bind(AdversaryContext(config=config, spec=ExponentialSpec(),
                                        faulty=frozenset(faulty), seed=0))
        network = SynchronousNetwork(config.processors, RunMetrics())
        total = exponential_rounds(t)
        for round_number in range(1, total + 1):
            outboxes = {pid: processors[pid].outgoing(round_number)
                        for pid in correct}
            outboxes.update(adversary.round_messages(round_number, outboxes))
            inboxes = network.deliver(round_number, outboxes, count_senders=correct)
            for pid in correct:
                processors[pid].incoming(round_number, inboxes.get(pid, {}))
            adversary.observe_delivery(
                round_number, {pid: inboxes.get(pid, {}) for pid in faulty})
        return config, processors

    def test_no_correct_processor_is_ever_suspected(self):
        faulty = frozenset({5, 6})
        _, processors = self._final_processors(
            EquivocatingSourceWithAlliesAdversary(), faulty)
        for pid, proc in processors.items():
            if pid == 0:
                continue
            assert set(proc.discovered_faults()) <= faulty

    def test_agreement_on_decisions(self):
        faulty = frozenset({0, 6})
        _, processors = self._final_processors(TwoFacedSourceAdversary(), faulty)
        decisions = {proc.decision() for pid, proc in processors.items()}
        assert len(decisions) == 1

    def test_benign_execution_discovers_nothing(self):
        faulty = frozenset({5, 6})
        _, processors = self._final_processors(BenignAdversary(), faulty)
        for pid, proc in processors.items():
            if pid == 0:
                continue
            assert proc.discovered_faults() == ()

    def test_preferred_value_equals_decision_after_last_round(self):
        faulty = frozenset({5, 6})
        _, processors = self._final_processors(TwoFacedSourceAdversary(), faulty)
        for pid, proc in processors.items():
            if pid == 0:
                continue
            assert proc.preferred_value() == proc.decision()


class TestSourceBehaviour:
    def test_source_sends_only_in_round_one(self):
        config = ProtocolConfig(n=7, t=2, initial_value=1)
        source = ShiftingEIGProcessor(0, config, exponential_schedule(2))
        assert len(source.outgoing(1)) == 6
        source.incoming(1, {})
        assert source.outgoing(2) == {}
        assert source.decision() == 1

    def test_non_source_sends_nothing_in_round_one(self):
        config = ProtocolConfig(n=7, t=2, initial_value=1)
        processor = ShiftingEIGProcessor(3, config, exponential_schedule(2))
        assert processor.outgoing(1) == {}

    def test_round_two_message_is_single_entry(self):
        config = ProtocolConfig(n=7, t=2, initial_value=1)
        from repro.runtime.messages import Message
        processor = ShiftingEIGProcessor(3, config, exponential_schedule(2))
        processor.outgoing(1)
        processor.incoming(1, {0: Message({(0,): 1}, 0, 1)})
        outbox = processor.outgoing(2)
        assert all(message.entry_count() == 1 for message in outbox.values())
