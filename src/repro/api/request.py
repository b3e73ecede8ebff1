"""Serializable run descriptions: :class:`RunRequest` and :class:`RunReport`.

A :class:`RunRequest` is a complete, plain-data description of one agreement
execution — protocol name and parameters, instance size, the faulty set (or a
named workload scenario), adversary name and parameters, seed, and the engine
choice — that survives ``json.dumps``/``json.loads`` exactly.  A
:class:`RunReport` is the structured outcome: decisions, the
agreement/validity verdicts, round and cost metrics, fault discoveries, and
the engine the planner actually used.  Both round-trip through
``to_dict``/``from_dict`` without loss, which is what lets runs cross process
boundaries (the parallel executor), the CLI's ``--json`` output, and any
future wire protocol.

The faulty set can be given two ways, mirroring how the harness works:

* ``faulty=(...)`` with an ``adversary`` name — explicit control;
* ``scenario="faulty-source-allies", battery="worst-case"`` — one of the
  named workload scenarios of :mod:`repro.experiments.workloads`; the
  scenario supplies both the faulty set and the adversary, so ``adversary``
  and ``faulty`` must be left at their defaults.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.protocol import ProtocolConfig
from ..core.values import DEFAULT_VALUE, Value, default_domain
from ..runtime.errors import (ConfigurationError, boolean_field,
                              decoded_fields, integer_field, list_field,
                              object_field)

#: Engine choices a request accepts: the planner sentinel ``"auto"``, the
#: batched whole-run executor, and the three per-processor engines.
ENGINE_CHOICES = ("auto", "batched", "numpy", "fast", "reference")

AUTO = "auto"

#: How a sweep assigns per-request seeds: keep each request's own seed, or
#: derive one deterministically from the sweep seed and the request index.
SEED_POLICIES = ("fixed", "derive")


def derive_seed(sweep_seed: int, index: int) -> int:
    """The deterministic seed of request *index* in a ``seed_policy="derive"`` sweep.

    A stable cryptographic hash (not Python's salted ``hash``) of the sweep
    seed and the request's position — SHA-256 of the domain-tagged string
    ``"repro-sweep:{sweep_seed}:{index}"``, first 8 bytes big-endian,
    truncated to a non-negative 63-bit value — so resumed, re-serialized,
    or cross-process sweeps reproduce the exact executions of the original
    run.  63 bits keeps derived seeds pairwise distinct in practice: the
    birthday bound expects a collision only past ~3×10⁹ indices, where the
    earlier 31-bit truncation already expected ~2 collisions within one
    10⁵-trial Monte-Carlo window.
    """
    digest = hashlib.sha256(
        f"repro-sweep:{sweep_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def _int_keyed(mapping: Mapping[Any, Any], convert) -> Dict[int, Any]:
    """Rebuild a JSON-stringified int-keyed mapping with *convert* on values."""
    return {int(key): convert(value) for key, value in mapping.items()}


@dataclass(frozen=True)
class RunRequest:
    """A JSON-round-trippable description of one agreement execution."""

    protocol: str
    n: int
    t: int
    protocol_params: Mapping[str, Any] = field(default_factory=dict)
    source: int = 0
    initial_value: Value = DEFAULT_VALUE
    domain: Tuple[Value, ...] = field(default_factory=default_domain)
    faulty: Optional[Tuple[int, ...]] = None
    scenario: Optional[str] = None
    battery: str = "standard"
    adversary: str = "benign"
    adversary_params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    engine: str = AUTO
    allow_unsafe: bool = False

    def __post_init__(self) -> None:
        owner = "RunRequest"
        for name in ("protocol_params", "adversary_params"):
            object.__setattr__(self, name,
                               object_field(owner, name, getattr(self, name)))
        object.__setattr__(self, "domain",
                           list_field(owner, "domain", self.domain))
        for name in ("n", "t", "source", "seed"):
            object.__setattr__(self, name, integer_field(
                owner, name, getattr(self, name)))
        boolean_field(owner, "allow_unsafe", self.allow_unsafe)
        if self.faulty is not None:
            faulty = [integer_field(owner, "faulty", pid)
                      for pid in list_field(owner, "faulty", self.faulty)]
            if len(set(faulty)) != len(faulty):
                raise ConfigurationError(
                    f"RunRequest field 'faulty' repeats a processor id: "
                    f"{sorted(faulty)}")
            object.__setattr__(self, "faulty", tuple(sorted(faulty)))
        if self.engine not in ENGINE_CHOICES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{ENGINE_CHOICES}")
        if self.scenario is not None:
            if self.faulty is not None:
                raise ConfigurationError(
                    "a request names either a scenario or an explicit faulty "
                    "set, not both")
            if self.adversary != "benign" or self.adversary_params:
                raise ConfigurationError(
                    "a scenario supplies its own adversary; leave the "
                    "request's adversary fields at their defaults")

    # -- construction helpers ------------------------------------------------
    def config(self) -> ProtocolConfig:
        return ProtocolConfig(n=self.n, t=self.t, source=self.source,
                              initial_value=self.initial_value,
                              domain=self.domain,
                              allow_unsafe=self.allow_unsafe)

    def resolve_parts(self):
        """Build the executable pieces: ``(spec, config, faulty, adversary)``.

        Registry and scenario lookups happen here (not in ``__post_init__``)
        so that requests deserialized from untrusted input fail with a precise
        :class:`~repro.api.registries.RegistryError` at execution time.
        """
        from .registries import build_adversary, build_protocol
        spec = build_protocol(self.protocol, self.protocol_params)
        config = self.config()
        if self.scenario is not None:
            scenario = self._resolve_scenario()
            return spec, config, scenario.faulty, scenario.adversary()
        return (spec, config, frozenset(self.faulty or ()),
                build_adversary(self.adversary, self.adversary_params))

    def _resolve_scenario(self):
        # Imported lazily: repro.experiments imports this module's consumers.
        from ..experiments.workloads import SCENARIO_BATTERIES
        try:
            battery = SCENARIO_BATTERIES[self.battery]
        except KeyError:
            raise ConfigurationError(
                f"unknown scenario battery {self.battery!r}; expected one of "
                f"{sorted(SCENARIO_BATTERIES)}") from None
        for scenario in battery(self.n, self.t, source=self.source):
            if scenario.name == self.scenario:
                return scenario
        raise ConfigurationError(
            f"battery {self.battery!r} at (n={self.n}, t={self.t}) has no "
            f"scenario named {self.scenario!r}")

    def with_engine(self, engine: str) -> "RunRequest":
        return replace(self, engine=engine)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "protocol": self.protocol,
            "protocol_params": dict(self.protocol_params),
            "n": self.n,
            "t": self.t,
            "source": self.source,
            "initial_value": self.initial_value,
            "domain": list(self.domain),
            "faulty": None if self.faulty is None else list(self.faulty),
            "scenario": self.scenario,
            "battery": self.battery,
            "adversary": self.adversary,
            "adversary_params": dict(self.adversary_params),
            "seed": self.seed,
            "engine": self.engine,
        }
        # Serialized only when set, so every pre-existing request fixture
        # (and its hash) is byte-identical.
        if self.allow_unsafe:
            data["allow_unsafe"] = True
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRequest":
        return cls(**decoded_fields(cls, data, "RunRequest"))


@dataclass(frozen=True)
class SweepSpec:
    """A serializable sweep: requests + executor choice + seed policy.

    The sweep twin of :class:`RunRequest`: everything needed to (re)run a
    whole sweep — the request list, the executor backend it should run on
    (a :func:`~repro.api.executors.executor_registry` name plus plain-data
    parameters), and how per-request seeds are assigned — survives
    ``json.dumps``/``json.loads`` exactly.  Checkpointed sweeps
    (:mod:`repro.api.sweep`) hash the canonical serialization, so a resume
    against a different sweep is refused instead of silently merged.

    ``seed_policy="fixed"`` runs every request with the seed it carries;
    ``"derive"`` replaces each seed with :func:`derive_seed(sweep_seed,
    index) <derive_seed>`, making resumed and re-executed sweeps reproduce
    the original executions exactly.
    """

    requests: Tuple[RunRequest, ...]
    executor: str = "pool"
    executor_params: Mapping[str, Any] = field(default_factory=dict)
    seed_policy: str = "fixed"
    sweep_seed: int = 0

    def __post_init__(self) -> None:
        owner = "SweepSpec"
        object.__setattr__(self, "requests",
                           list_field(owner, "requests", self.requests))
        object.__setattr__(self, "executor_params", object_field(
            owner, "executor_params", self.executor_params))
        object.__setattr__(self, "sweep_seed",
                           integer_field(owner, "sweep_seed", self.sweep_seed))
        for request in self.requests:
            if not isinstance(request, RunRequest):
                raise ConfigurationError(
                    f"a sweep holds RunRequest values, got {request!r}")
        if self.seed_policy not in SEED_POLICIES:
            raise ConfigurationError(
                f"unknown seed policy {self.seed_policy!r}; expected one of "
                f"{SEED_POLICIES}")

    def resolved_requests(self) -> Tuple[RunRequest, ...]:
        """The requests as they will execute, seed policy applied."""
        if self.seed_policy == "fixed":
            return self.requests
        return tuple(replace(request, seed=derive_seed(self.sweep_seed, i))
                     for i, request in enumerate(self.requests))

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": [request.to_dict() for request in self.requests],
            "executor": self.executor,
            "executor_params": dict(self.executor_params),
            "seed_policy": self.seed_policy,
            "sweep_seed": self.sweep_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        kwargs = decoded_fields(cls, data, "SweepSpec")
        kwargs["requests"] = tuple(
            request if isinstance(request, RunRequest)
            else RunRequest.from_dict(request)
            for request in list_field("SweepSpec", "requests",
                                      kwargs["requests"]))
        return cls(**kwargs)


@dataclass(frozen=True)
class RunReport:
    """The structured, serializable outcome of one executed request."""

    protocol: str
    adversary: str
    n: int
    t: int
    source: int
    initial_value: Value
    faulty: Tuple[int, ...]
    scenario: Optional[str]
    seed: int
    engine: str
    engine_resolved: str
    rounds: int
    decisions: Dict[int, Value]
    agreement: bool
    validity: Optional[bool]
    succeeded: bool
    decision_value: Optional[Value]
    discovered: Dict[int, Tuple[int, ...]]
    discovery_logs: Dict[int, Dict[int, int]]
    discovery_sound: bool
    metrics: Dict[str, int]
    #: Execution-side annotations.  The reserved key ``"resilience"`` holds
    #: the structured audit trail written by the supervision machinery
    #: (:mod:`repro.runtime.supervision`): a list of plain dicts, each with
    #: an ``"event"`` of ``"retry"`` / ``"downgrade"`` / ``"skip"`` /
    #: ``"completed"`` plus stage, attempt, error-class, and delay fields —
    #: one entry per recovery step the executor or checkpoint writer took.
    #: Not part of the outcome: two reports for the same execution compare
    #: equal only when their metadata also matches, so executors record
    #: nothing for an undisturbed run (and :meth:`outcome_dict` compares
    #: reports across execution paths).
    metadata: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_result(cls, result, *, engine: str, engine_resolved: str,
                    scenario: Optional[str] = None, seed: int = 0
                    ) -> "RunReport":
        """Distil a :class:`~repro.runtime.simulation.RunResult` into a report."""
        agreement = result.agreement
        return cls(
            protocol=result.protocol,
            adversary=result.adversary,
            n=result.config.n,
            t=result.config.t,
            source=result.config.source,
            initial_value=result.config.initial_value,
            faulty=tuple(sorted(result.faulty)),
            scenario=scenario,
            seed=seed,
            engine=engine,
            engine_resolved=engine_resolved,
            rounds=result.rounds,
            decisions=dict(result.decisions),
            agreement=agreement,
            validity=result.validity,
            succeeded=result.succeeded,
            decision_value=result.decision_value if agreement else None,
            discovered={pid: tuple(found)
                        for pid, found in result.discovered.items()},
            discovery_logs={pid: dict(log)
                            for pid, log in result.discovery_logs.items()},
            discovery_sound=result.soundness_of_discovery(),
            metrics=dict(result.metrics.summary()),
        )

    @property
    def faults(self) -> int:
        return len(self.faulty)

    def summary(self) -> Dict[str, Any]:
        """A flat row for tabular reporting (superset of the legacy layout)."""
        row: Dict[str, Any] = {
            "protocol": self.protocol,
            "adversary": self.adversary,
            "n": self.n,
            "t": self.t,
            "faults": self.faults,
            "rounds": self.rounds,
            "agreement": self.agreement,
            "validity": self.validity,
        }
        row.update(self.metrics)
        row["engine"] = self.engine_resolved
        return row

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "protocol": self.protocol,
            "adversary": self.adversary,
            "n": self.n,
            "t": self.t,
            "source": self.source,
            "initial_value": self.initial_value,
            "faulty": list(self.faulty),
            "scenario": self.scenario,
            "seed": self.seed,
            "engine": self.engine,
            "engine_resolved": self.engine_resolved,
            "rounds": self.rounds,
            "decisions": {str(pid): value
                          for pid, value in self.decisions.items()},
            "agreement": self.agreement,
            "validity": self.validity,
            "succeeded": self.succeeded,
            "decision_value": self.decision_value,
            "discovered": {str(pid): list(found)
                           for pid, found in self.discovered.items()},
            "discovery_logs": {
                str(pid): {str(r): count for r, count in log.items()}
                for pid, log in self.discovery_logs.items()},
            "discovery_sound": self.discovery_sound,
            "metrics": dict(self.metrics),
        }
        if self.metadata:  # omitted when empty: keeps old fixtures valid
            data["metadata"] = dict(self.metadata)
        return data

    def outcome_dict(self) -> Dict[str, Any]:
        """The serialized *outcome* alone: :meth:`to_dict` minus how it ran.

        Drops ``engine``, ``engine_resolved``, and ``metadata`` — the
        execution-side fields that legitimately differ when the same request
        runs on different substrates (a supervised run that downgraded from
        ``pool`` to ``serial``, a pool run that retried).  Two executions
        of the same request are observationally identical iff their
        ``outcome_dict`` values are equal — the property the chaos suite
        asserts byte-for-byte.
        """
        data = self.to_dict()
        for execution_side in ("engine", "engine_resolved", "metadata"):
            data.pop(execution_side, None)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        return cls(
            protocol=data["protocol"],
            adversary=data["adversary"],
            n=data["n"],
            t=data["t"],
            source=data["source"],
            initial_value=data["initial_value"],
            faulty=tuple(data["faulty"]),
            scenario=data.get("scenario"),
            seed=data.get("seed", 0),
            engine=data["engine"],
            engine_resolved=data["engine_resolved"],
            rounds=data["rounds"],
            decisions=_int_keyed(data["decisions"], lambda v: v),
            agreement=data["agreement"],
            validity=data["validity"],
            succeeded=data["succeeded"],
            decision_value=data.get("decision_value"),
            discovered=_int_keyed(data["discovered"], tuple),
            discovery_logs=_int_keyed(
                data["discovery_logs"],
                lambda log: _int_keyed(log, lambda c: c)),
            discovery_sound=data["discovery_sound"],
            metrics=dict(data["metrics"]),
            metadata=dict(data.get("metadata", {})),
        )
