"""Tests for the declarative run façade (repro.api).

Covers the registries (names, parameter schemas, error reporting), the
RunRequest/RunReport JSON round trips — the property test sweeps every
registered protocol × adversary pairing at small n — the engine planner's
``auto`` resolution and explicit choices, and runs that overlap on two
threads keeping their own engines.  That a revived request executed through
the façade gives the oracle's outcome is a column of the parity matrix
(:mod:`tests.parity`).
"""

import json
import threading

import pytest

from repro.api import (RunReport, RunRequest, RegistryError, adversary_names,
                       adversary_registry, build_adversary, build_protocol,
                       execute, plan_request, protocol_names,
                       protocol_registry, request_fields_for_spec)
from repro.api import planner as planner_module
from repro.core import engine as engine_module
from repro.core.hybrid import HybridSpec
from repro.runtime import batched as batched_module
from repro.runtime.errors import ConfigurationError
from repro.runtime.simulation import choose_faulty, run_agreement
from tests.parity import assert_same_outcome

#: One small-but-valid (n, t, params) instance per registered protocol.
SMALL_INSTANCES = {
    "exponential": (4, 1, {}),
    "algorithm-a": (10, 3, {"b": 3}),
    "algorithm-b": (9, 2, {"b": 2}),
    "algorithm-c": (14, 2, {}),
    "hybrid": (10, 3, {"b": 3}),
    "psl": (4, 1, {}),
    "phase-king": (9, 2, {}),
    "dolev-strong": (7, 2, {}),
}


def small_request(protocol: str, adversary: str = "benign",
                  engine: str = "auto", **overrides) -> RunRequest:
    n, t, params = SMALL_INSTANCES[protocol]
    fields = dict(protocol=protocol, protocol_params=params, n=n, t=t,
                  initial_value=1,
                  faulty=tuple(choose_faulty(n, t, source_faulty=True)),
                  adversary=adversary, engine=engine)
    fields.update(overrides)
    return RunRequest(**fields)


class TestRegistries:
    def test_every_protocol_builds(self):
        for name in protocol_names():
            _, _, params = SMALL_INSTANCES[name]
            spec = build_protocol(name, params)
            assert spec.name  # a human-readable display name exists

    def test_every_adversary_builds(self):
        for name in adversary_names():
            assert build_adversary(name) is not None

    def test_instances_cover_the_registry_exactly(self):
        assert set(SMALL_INSTANCES) == set(protocol_names())

    def test_api_adversaries_track_the_adversary_package_registry(self):
        # The API entries are derived from repro.adversary's registry; a
        # strategy added there must be addressable by name here.
        from repro.adversary import adversary_registry as package_registry
        assert set(adversary_names()) == set(package_registry())
        for name, factory in package_registry().items():
            assert adversary_registry()[name].factory is factory

    def test_unknown_protocol(self):
        with pytest.raises(RegistryError, match="unknown protocol 'raft'"):
            build_protocol("raft")

    def test_unknown_adversary(self):
        with pytest.raises(RegistryError, match="unknown adversary"):
            build_adversary("gremlin")

    def test_unknown_parameter(self):
        with pytest.raises(RegistryError, match="unknown parameter"):
            build_protocol("exponential", {"block": 3})

    def test_missing_required_parameter(self):
        with pytest.raises(RegistryError, match="missing required parameter 'b'"):
            build_protocol("algorithm-a")

    def test_wrong_parameter_type(self):
        with pytest.raises(RegistryError, match="must be an integer"):
            build_protocol("hybrid", {"b": "three"})
        with pytest.raises(RegistryError, match="must be an integer"):
            build_protocol("hybrid", {"b": True})

    def test_choice_parameter_validated(self):
        spec = build_protocol("exponential", {"conversion": "resolve_prime"})
        assert spec.name == "exponential-resolve-prime"
        with pytest.raises(RegistryError, match="must be one of"):
            build_protocol("exponential", {"conversion": "majority"})

    def test_adversary_parameters_flow_through(self):
        adversary = build_adversary("delayed-equivocation",
                                    {"honest_rounds": 4})
        assert adversary.honest_rounds == 4
        with pytest.raises(RegistryError, match="unknown parameter"):
            build_adversary("benign", {"honest_rounds": 4})

    def test_schemas_are_introspectable(self):
        assert "b" in protocol_registry()["hybrid"].schema
        assert "crash_round" in adversary_registry()["crash"].schema

    def test_request_fields_round_trip_through_specs(self):
        for name in protocol_names():
            _, _, params = SMALL_INSTANCES[name]
            spec = build_protocol(name, params)
            recovered_name, recovered_params = request_fields_for_spec(spec)
            assert recovered_name == name
            rebuilt = build_protocol(recovered_name, recovered_params)
            assert rebuilt.name == spec.name

    def test_request_fields_rejects_foreign_spec(self):
        class AlienSpec(HybridSpec):
            pass
        with pytest.raises(RegistryError, match="not in the registry"):
            request_fields_for_spec(AlienSpec(3))


class TestRunRequestValidation:
    def test_scenario_excludes_explicit_faulty(self):
        with pytest.raises(ConfigurationError, match="not both"):
            RunRequest(protocol="exponential", n=7, t=2,
                       scenario="silent", faulty=(0,))

    def test_scenario_excludes_explicit_adversary(self):
        with pytest.raises(ConfigurationError, match="adversary"):
            RunRequest(protocol="exponential", n=7, t=2,
                       scenario="silent", adversary="crash")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            RunRequest(protocol="exponential", n=7, t=2, engine="warp")

    def test_unknown_field_rejected_on_deserialization(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            RunRequest.from_dict({"protocol": "exponential", "n": 7, "t": 2,
                                  "bogus": 1})

    def test_unknown_battery_and_scenario_fail_at_execution(self):
        request = RunRequest(protocol="exponential", n=7, t=2,
                             scenario="silent", battery="imaginary")
        with pytest.raises(ConfigurationError, match="unknown scenario battery"):
            execute(request)
        request = RunRequest(protocol="exponential", n=7, t=2,
                             scenario="no-such-scenario")
        with pytest.raises(ConfigurationError, match="no[- ]*scenario|no\nscenario|has no"):
            execute(request)

    def test_faulty_set_is_normalised(self):
        request = RunRequest(protocol="exponential", n=7, t=2, faulty=[6, 0])
        assert request.faulty == (0, 6)

    @pytest.mark.parametrize("field, value", [
        ("faulty", [2.7]), ("faulty", ["3"]), ("faulty", [True]),
        ("faulty", 5), ("seed", "5"), ("seed", True), ("seed", 5.0),
        ("source", 1.0), ("source", True), ("n", 7.0), ("t", "2")])
    def test_malformed_integer_fields_are_named_errors(self, field, value):
        """No coercion: 2.7, "3" or True is not a processor id or a seed."""
        data = {"protocol": "exponential", "n": 7, "t": 2, field: value}
        with pytest.raises(ConfigurationError, match=f"'{field}'"):
            RunRequest.from_dict(data)

    def test_duplicate_faulty_ids_rejected(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            RunRequest(protocol="exponential", n=7, t=2, faulty=[1, 1])

    def test_index_integers_normalise_to_int(self):
        """Whatever operator.index accepts (bool aside) is a plain int, so
        the digest of a numpy-int request equals the plain request's."""
        np = pytest.importorskip("numpy")
        request = RunRequest(protocol="exponential", n=np.int64(7), t=2,
                             faulty=[np.int32(6), 0], seed=np.int64(5))
        plain = RunRequest(protocol="exponential", n=7, t=2, faulty=[0, 6],
                           seed=5)
        assert request == plain
        assert json.dumps(request.to_dict()) == json.dumps(plain.to_dict())


@pytest.mark.parametrize("protocol", sorted(SMALL_INSTANCES))
class TestRoundTripProperty:
    """`from_dict(to_dict(x))` is the identity, for requests and reports,
    across every registered protocol × adversary pairing at small n."""

    def test_request_and_report_round_trip(self, protocol):
        for adversary in adversary_names():
            request = small_request(protocol, adversary)
            wire = json.dumps(request.to_dict(), sort_keys=True)
            revived = RunRequest.from_dict(json.loads(wire))
            assert revived == request, adversary

            report = execute(revived)
            report_wire = json.dumps(report.to_dict(), sort_keys=True)
            assert RunReport.from_dict(json.loads(report_wire)) == report, adversary


class TestScenarioRequests:
    def test_named_scenario_resolves_faulty_and_adversary(self):
        request = RunRequest(protocol="exponential", n=7, t=2, initial_value=1,
                             scenario="faulty-source-allies",
                             battery="worst-case")
        report = execute(request)
        assert report.scenario == "faulty-source-allies"
        assert report.adversary == "equivocating-source-allies"
        assert 0 in report.faulty and report.faults == 2
        assert report.agreement


class TestPlanner:
    @pytest.mark.skipif(not engine_module.batched_available(),
                        reason="numpy not installed")
    def test_auto_resolves_to_batched_for_eligible_specs(self):
        # psl is OM(m) on the same shifting-EIG machine, so it batches too;
        # C and the hybrid step an Algorithm C phase as row stacks.
        for protocol in ("exponential", "algorithm-a", "algorithm-b", "psl",
                         "algorithm-c", "hybrid"):
            plan = plan_request(small_request(protocol))
            assert plan.engine == "batched", protocol
            report = execute(small_request(protocol))
            assert report.engine_resolved == "batched", protocol

    @pytest.mark.skipif(not engine_module.numpy_available(),
                        reason="numpy not installed")
    def test_auto_falls_back_to_fast_for_ineligible_specs(self):
        # Batched-ineligible runs plan onto fast even with numpy: most step
        # small per-processor state, where numpy's per-call overhead loses.
        for protocol in ("phase-king", "dolev-strong"):
            plan = plan_request(small_request(protocol))
            assert plan.engine == "fast", protocol
            report = execute(small_request(protocol))
            assert report.engine_resolved == "fast", protocol
        # An adversary that declines batching demotes an eligible spec too.
        for adversary in ("crash-recovery", "receive-omission"):
            request = small_request("exponential", adversary=adversary)
            plan = plan_request(request)
            assert plan.engine == "fast", adversary
            declined = adversary_registry()[adversary].factory
            assert declined.batched_fallback_reason in plan.reason, adversary
            assert execute(request).engine_resolved == "fast", adversary

    def test_auto_falls_back_to_fast_without_numpy(self, monkeypatch):
        monkeypatch.setattr(planner_module, "numpy_available", lambda: False)
        monkeypatch.setattr(batched_module, "numpy_available", lambda: False)
        for protocol in ("exponential", "hybrid"):
            plan = plan_request(small_request(protocol))
            assert plan.engine == "fast", protocol
        report = execute(small_request("exponential"))
        assert report.engine_resolved == "fast"
        assert report.agreement

    def test_explicit_engine_runs_as_requested(self):
        for engine in engine_module.available_engines():
            report = execute(small_request("exponential", engine=engine))
            assert report.engine == engine
            assert report.engine_resolved == engine

    @pytest.mark.skipif(not engine_module.batched_available(),
                        reason="numpy not installed")
    def test_explicit_batched_degrades_with_warning_when_unsupported(self):
        with pytest.warns(RuntimeWarning, match="not supported.*'fast'"):
            report = execute(small_request("dolev-strong", engine="batched"))
        assert report.engine_resolved == "fast"
        assert report.agreement


class TestOverlappingRuns:
    @pytest.mark.skipif(not engine_module.batched_available(),
                        reason="numpy not installed")
    def test_overlapping_runs_keep_their_own_engine(self, monkeypatch):
        """A ``reference`` run parked on another thread never steers ``auto``.

        ``repro serve`` runs ``execute()`` on two worker threads, so one
        request's engine must not leak into a request that overlaps it, nor
        outlive it.  The parked run waits on an event, so the overlap is
        deterministic.
        """
        from repro.api import facade
        real_run_agreement = facade.run_agreement
        parked, release = threading.Event(), threading.Event()

        def parking_run_agreement(*args, **kwargs):
            if threading.current_thread().name == "reference-run":
                parked.set()
                assert release.wait(timeout=60)
            return real_run_agreement(*args, **kwargs)

        monkeypatch.setattr(facade, "run_agreement", parking_run_agreement)
        auto = RunRequest(protocol="exponential", n=7, t=2, initial_value=1,
                          faulty=tuple(choose_faulty(7, 2)),
                          adversary="two-faced")
        reports = {}
        worker = threading.Thread(
            name="reference-run",
            target=lambda: reports.setdefault(
                "reference", execute(auto.with_engine("reference"))))
        worker.start()
        try:
            assert parked.wait(timeout=60)
            overlapping = execute(auto)
            assert overlapping.engine_resolved == "batched"
        finally:
            release.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        after = execute(auto)
        assert after.engine_resolved == "batched"
        assert reports["reference"].engine_resolved == "reference"
        assert_same_outcome(overlapping, reports["reference"])
        assert_same_outcome(after, reports["reference"])


class TestVerifyReport:
    def test_matches_verify_run(self):
        from repro.analysis.checkers import verify_report, verify_run
        request = small_request("exponential", "equivocating-source-allies")
        spec = build_protocol(request.protocol, request.protocol_params)
        result = run_agreement(spec, request.config(),
                               frozenset(request.faulty),
                               build_adversary(request.adversary))
        report = RunReport.from_result(result, engine="auto",
                                       engine_resolved="fast")
        assert (verify_report(report, round_bound=3, message_bound=10)
                == verify_run(result, round_bound=3, message_bound=10))


class TestSpecToRequest:
    def test_spec_converts_to_an_equivalent_request(self):
        spec = build_protocol("hybrid", {"b": 3})
        protocol, params = request_fields_for_spec(spec)
        assert (protocol, params) == ("hybrid", {"b": 3})
        report = execute(RunRequest(protocol=protocol, protocol_params=params,
                                    n=10, t=3, initial_value=1,
                                    battery="worst-case",
                                    scenario="faulty-source-allies"))
        assert report.protocol == "hybrid(b=3)"
        assert report.scenario == "faulty-source-allies"
        assert report.succeeded
