"""Tests for the expanded fault-model zoo and the corruption machinery.

Covers the new adversary families (transient corruption, send/receive
omission, crash-recovery, moving target): unit behaviour, registry schemas,
the ``reseed`` hook, seed determinism (including independence from the
global ``random`` module), the state-corruption views shared by the
per-processor and batched drivers, batched eligibility gating, and
end-to-end safety at resilient parameters.  Every zoo family runs on every
execution path in the parity matrix (:mod:`tests.parity`), which takes its
adversaries from the registry.
"""

import random
from dataclasses import replace

import pytest

from repro.adversary import (AdversaryContext, CrashRecoveryAdversary,
                             MovingTargetAdversary, RandomLiarAdversary,
                             ReceiveOmissionAdversary, SendOmissionAdversary,
                             TransientCorruptionAdversary, adversary_registry)
from repro.api import RunRequest, execute
from repro.api.registries import adversary_registry as api_adversary_registry
from repro.api.registries import build_adversary
from repro.core import engine as engine_module
from repro.core.exponential import ExponentialSpec
from repro.core.protocol import ProtocolConfig
from repro.runtime.corruption import corruption_enabled, tree_state_views
from repro.runtime.errors import SimulationError
from repro.runtime.simulation import run_agreement
from tests.parity import assert_same_outcome

ZOO = ("transient-corruption", "send-omission", "receive-omission",
       "crash-recovery", "moving-target")


def bind(adversary, n=7, t=2, faulty=(5, 6), seed=0):
    config = ProtocolConfig(n=n, t=t, initial_value=1)
    context = AdversaryContext(config=config, spec=ExponentialSpec(),
                               faulty=frozenset(faulty), seed=seed)
    adversary.bind(context)
    return adversary, config


class TestRegistry:
    def test_zoo_families_registered_in_both_registries(self):
        for name in ZOO:
            assert name in adversary_registry()
            assert name in api_adversary_registry()

    def test_api_registry_builds_with_schema_params(self):
        built = build_adversary("transient-corruption",
                                {"corrupt_rounds": 2, "victims": 2,
                                 "flips": 3})
        assert (built.corrupt_rounds, built.victims, built.flips) == (2, 2, 3)
        assert build_adversary("send-omission",
                               {"rate_percent": 75}).rate_percent == 75
        built = build_adversary("crash-recovery",
                                {"crash_round": 3, "silent_rounds": 4})
        assert (built.crash_round, built.silent_rounds) == (3, 4)
        built = build_adversary("moving-target",
                                {"active": 2, "rotate_every": 2})
        assert (built.active, built.rotate_every) == (2, 2)


class TestSendOmission:
    def test_drop_decisions_are_deterministic_and_order_independent(self):
        first, _ = bind(SendOmissionAdversary(rate_percent=50))
        second, _ = bind(SendOmissionAdversary(rate_percent=50))
        edges = [(r, s, d) for r in (1, 2, 3) for s in (5, 6)
                 for d in (0, 1, 2)]
        forward = [first.suppress(*edge) for edge in edges]
        backward = [second.suppress(*edge) for edge in reversed(edges)]
        assert forward == list(reversed(backward))
        assert any(forward) and not all(forward)  # a 50% rate drops *some*

    def test_rate_extremes(self):
        never, _ = bind(SendOmissionAdversary(rate_percent=0))
        always, _ = bind(SendOmissionAdversary(rate_percent=100))
        assert not never.suppress(1, 5, 0)
        assert always.suppress(1, 5, 0)

    def test_drops_depend_on_the_seed(self):
        a, _ = bind(SendOmissionAdversary(rate_percent=50), seed=0)
        b, _ = bind(SendOmissionAdversary(rate_percent=50), seed=99)
        edges = [(r, 5, d) for r in (1, 2, 3) for d in range(5)]
        assert [a.suppress(*e) for e in edges] != \
            [b.suppress(*e) for e in edges]


class TestCrashRecovery:
    def test_outage_window(self):
        adversary, _ = bind(CrashRecoveryAdversary(crash_round=2,
                                                   silent_rounds=2))
        assert not adversary.suppress(1, 5, 0)
        assert adversary.suppress(2, 5, 0)
        assert adversary.suppress(3, 5, 0)
        assert not adversary.suppress(4, 5, 0)  # rejoined, stale state

    def test_crash_round_clamped_to_two(self):
        # A processor that crashes before storing its root has no state to
        # rejoin with — that is SilentAdversary, not recovery.
        assert CrashRecoveryAdversary(crash_round=0).crash_round == 2
        assert CrashRecoveryAdversary(crash_round=1).crash_round == 2

    def test_declares_batched_fallback(self):
        assert CrashRecoveryAdversary.batched_fallback_reason is not None
        assert ReceiveOmissionAdversary.batched_fallback_reason is not None
        assert SendOmissionAdversary.batched_fallback_reason is None
        assert MovingTargetAdversary.batched_fallback_reason is None
        assert TransientCorruptionAdversary.batched_fallback_reason is None


class TestMovingTarget:
    def test_rotation_cycles_through_the_budget(self):
        adversary, _ = bind(MovingTargetAdversary(active=1, rotate_every=1),
                            faulty=(4, 5, 6), t=3, n=10)
        sets = [adversary.active_set(r) for r in (1, 2, 3, 4)]
        assert sets == [(4,), (5,), (6,), (4,)]

    def test_cumulative_set_stays_within_the_bound_faulty_set(self):
        adversary, _ = bind(MovingTargetAdversary(active=2, rotate_every=2),
                            faulty=(4, 5, 6), t=3, n=10)
        seen = set()
        for round_number in range(1, 9):
            active = adversary.active_set(round_number)
            assert len(active) == 2
            seen.update(active)
        assert seen <= {4, 5, 6}

    def test_active_width_capped_by_membership(self):
        adversary, _ = bind(MovingTargetAdversary(active=5), faulty=(5, 6))
        assert len(adversary.active_set(1)) == 2


class TestTransientCorruption:
    def _views(self, config, spec, rounds=1):
        """Real post-round-1 tree views from a tiny driven execution."""
        from repro.runtime.messages import Message
        processors = {pid: spec.build(pid, config)
                      for pid in config.processors[:5]}
        for pid, proc in processors.items():
            proc.outgoing(1)
        source_value = config.initial_value
        for pid, proc in processors.items():
            if pid != config.source:
                proc.incoming(1, {config.source:
                                  Message({(config.source,): source_value},
                                          config.source, 1)})
        return processors

    def test_flips_only_inside_the_window(self):
        adversary, config = bind(TransientCorruptionAdversary(
            corrupt_rounds=1, victims=2, flips=1), faulty=(5, 6))
        spec = ExponentialSpec()
        processors = self._views(config, spec)
        views = tree_state_views(processors, config)
        assert sorted(views) == [1, 2, 3, 4]  # correct non-source EIG procs
        before = {pid: view.values() for pid, view in views.items()}
        adversary.corrupt_state(1, views)
        after = {pid: view.values() for pid, view in views.items()}
        changed = [pid for pid in views if before[pid] != after[pid]]
        assert changed == [1, 2]  # the two lowest-numbered victims
        assert all(value in config.domain
                   for pid in views for value in after[pid])
        # Past the window the hook is a no-op.
        adversary.corrupt_state(2, views)
        assert {pid: view.values() for pid, view in views.items()} == after

    def test_corruption_enabled_only_for_overriders(self):
        assert corruption_enabled(TransientCorruptionAdversary())
        assert not corruption_enabled(SendOmissionAdversary())
        assert not corruption_enabled(MovingTargetAdversary())


class TestReseed:
    def test_reseed_before_bind_changes_the_stream(self):
        plain = RandomLiarAdversary()
        reseeded = RandomLiarAdversary()
        reseeded.reseed(1234)
        bind(plain, faulty=(0, 6), seed=0)
        bind(reseeded, faulty=(0, 6), seed=0)
        a = plain.round_messages(1, {})
        b = reseeded.round_messages(1, {})
        values_a = [a[0][d].value_for((0,)) for d in sorted(a[0])]
        values_b = [b[0][d].value_for((0,)) for d in sorted(b[0])]
        # Same context seed, different override: different noise.  (Equal
        # streams have probability 2^-6 per value; this pair differs.)
        assert values_a != values_b

    def test_reseed_after_bind_raises(self):
        adversary, _ = bind(RandomLiarAdversary())
        with pytest.raises(SimulationError, match="reseed"):
            adversary.reseed(7)

    def test_reseed_uniform_across_the_registry(self):
        for name, factory in adversary_registry().items():
            adversary = factory()
            adversary.reseed(42)  # every strategy accepts the hook pre-bind


class TestDeterminism:
    """Satellite: no adversary reads the global random module."""

    @pytest.mark.parametrize("adversary_name",
                             ["random-liar", "send-omission",
                              "transient-corruption", "staggered-crash"])
    def test_runs_are_seed_deterministic_and_global_rng_independent(
            self, adversary_name):
        request = RunRequest(protocol="exponential", n=7, t=2, faulty=(5, 6),
                             adversary=adversary_name, initial_value=1,
                             seed=3)
        random.seed(111)
        first = execute(request)
        random.seed(999)  # a different global stream must change nothing
        second = execute(request)
        assert_same_outcome(second, first)
        assert (second.engine, second.engine_resolved, second.metadata) \
            == (first.engine, first.engine_resolved, first.metadata)


class TestEndToEnd:
    @pytest.mark.parametrize("adversary_name", ZOO)
    def test_zoo_preserves_safety_at_resilient_parameters(self,
                                                          adversary_name):
        """Default-strength zoo faults stay absorbed when n >= 3t + 1."""
        for seed in (0, 1):
            report = execute(RunRequest(
                protocol="exponential", n=7, t=2, faulty=(5, 6),
                adversary=adversary_name, initial_value=1, seed=seed))
            assert report.agreement, (adversary_name, seed)
            assert report.validity, (adversary_name, seed)

    @pytest.mark.parametrize("scenario", ZOO)
    def test_fault_zoo_battery_is_addressable_by_name(self, scenario):
        report = execute(RunRequest(protocol="exponential", n=7, t=2,
                                    initial_value=1, scenario=scenario,
                                    battery="fault-zoo"))
        assert report.agreement

    def test_transient_corruption_beyond_the_model_can_break_agreement(self):
        """State flips on correct processors sit outside the Byzantine
        model: enough victims break agreement even at n >= 3t + 1.  This is
        the zoo's raison d'être, so the behaviour is pinned, not hidden."""
        report = execute(RunRequest(
            protocol="exponential", n=7, t=2, faulty=(2,),
            adversary="transient-corruption",
            adversary_params={"corrupt_rounds": 1, "victims": 3, "flips": 1},
            initial_value=1, seed=364022971))
        assert not report.agreement


@pytest.mark.skipif(not engine_module.batched_available(),
                    reason="numpy not installed")
def test_batched_gating():
    """Corruption-hook adversaries stay batched; fallback-reason ones
    decline the batched path entirely."""
    from repro.runtime.batched import run_batched_if_supported
    spec = ExponentialSpec()
    config = ProtocolConfig(n=9, t=2, initial_value=1, engine="batched")
    faulty = frozenset({7, 8})
    batched = run_batched_if_supported(
        spec, config, faulty,
        TransientCorruptionAdversary(corrupt_rounds=2, victims=2, flips=2), 5)
    reference = run_agreement(
        spec, replace(config, engine="reference"), faulty,
        TransientCorruptionAdversary(corrupt_rounds=2, victims=2, flips=2),
        seed=5)
    assert_same_outcome(batched, reference)
    assert run_batched_if_supported(
        spec, config, faulty, CrashRecoveryAdversary(), 5) is None
