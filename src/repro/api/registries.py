"""Name→factory registries for protocol specs and adversaries.

Every consumer of the package (CLI, experiment harness, examples, and any
future service endpoint) must be able to address an algorithm or an adversary
*by name with plain-data parameters*, because names and JSON scalars are what
cross process and wire boundaries.  The registries here are the single
authority for that naming:

* :func:`protocol_registry` — the paper's algorithms (Exponential, the A and
  B families, Algorithm C, the hybrid) plus the external baselines
  (Pease–Shostak–Lamport OM(m), phase king, authenticated Dolev–Strong);
* :func:`adversary_registry` — every Byzantine strategy of
  :mod:`repro.adversary`, from benign through the source-equivocation and
  stealth attacks.

Each entry declares its **parameter schema** (:class:`ParamSpec`): the
parameter names, types, defaults, and allowed choices an entry accepts.
:func:`build_protocol` / :func:`build_adversary` validate a plain-data
parameter mapping against the schema before instantiating, so a malformed
:class:`~repro.api.request.RunRequest` fails with a precise
:class:`RegistryError` instead of a ``TypeError`` deep inside a constructor.

The reverse direction, :func:`request_fields_for_spec`, recovers the
``(name, params)`` description of a live :class:`ProtocolSpec` instance —
this is how the experiment harness turns the spec objects of its baseline
comparison (E9) into serializable requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..adversary import Adversary
from ..adversary import adversary_registry as _adversary_factories
from ..baselines import (DolevStrongSpec, PeaseShostakLamportSpec,
                         PhaseKingSpec)
from ..core.algorithm_a import AlgorithmASpec
from ..core.algorithm_b import AlgorithmBSpec
from ..core.algorithm_c import AlgorithmCSpec
from ..core.exponential import ExponentialSpec
from ..core.hybrid import HybridSpec
from ..core.protocol import ProtocolSpec
from ..runtime.errors import ConfigurationError


class RegistryError(ConfigurationError):
    """Unknown registry name, unknown parameter, or invalid parameter value."""


@dataclass(frozen=True)
class ParamSpec:
    """Schema for one constructor parameter of a registry entry."""

    name: str
    kind: type
    default: object = None
    required: bool = False
    doc: str = ""
    choices: Optional[Tuple[object, ...]] = None

    def coerce(self, value: object, owner: str) -> object:
        """Validate *value* against this schema and return the typed value."""
        if self.kind is int:
            # bool is an int subclass; reject it so `true` is not a count.
            if isinstance(value, bool) or not isinstance(value, int):
                raise RegistryError(
                    f"{owner}: parameter {self.name!r} must be an integer, "
                    f"got {value!r}")
        elif self.kind is float and isinstance(value, int) \
                and not isinstance(value, bool):
            # JSON has one number type; an integral literal is a valid float.
            value = float(value)
        elif not isinstance(value, self.kind):
            raise RegistryError(
                f"{owner}: parameter {self.name!r} must be "
                f"{self.kind.__name__}, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise RegistryError(
                f"{owner}: parameter {self.name!r} must be one of "
                f"{self.choices}, got {value!r}")
        return value


@dataclass(frozen=True)
class RegistryEntry:
    """One named factory plus its declared parameter schema."""

    name: str
    factory: Callable[..., object]
    doc: str = ""
    params: Tuple[ParamSpec, ...] = ()

    @property
    def schema(self) -> Dict[str, ParamSpec]:
        return {p.name: p for p in self.params}

    def build(self, params: Optional[Mapping[str, object]] = None) -> object:
        """Instantiate the entry after validating *params* against the schema."""
        schema = self.schema
        supplied = dict(params or {})
        unknown = set(supplied) - set(schema)
        if unknown:
            raise RegistryError(
                f"{self.name}: unknown parameter(s) {sorted(unknown)}; "
                f"accepted: {sorted(schema) or '(none)'}")
        kwargs: Dict[str, object] = {}
        for spec in self.params:
            if spec.name in supplied:
                kwargs[spec.name] = spec.coerce(supplied[spec.name], self.name)
            elif spec.required:
                raise RegistryError(
                    f"{self.name}: missing required parameter {spec.name!r}")
        return self.factory(**kwargs)


_BLOCK_PARAM = ParamSpec(
    "b", int, required=True,
    doc="block parameter (rounds per gear-shifting block)")


def _protocol_entries() -> Tuple[RegistryEntry, ...]:
    return (
        RegistryEntry(
            "exponential", ExponentialSpec,
            doc="the (modified) Exponential Algorithm, t+1 rounds, O(n^t) bits",
            params=(ParamSpec("conversion", str, default="resolve",
                              choices=("resolve", "resolve_prime"),
                              doc="tree conversion: recursive majority or "
                                  "the threshold resolve'"),)),
        RegistryEntry(
            "algorithm-a", AlgorithmASpec,
            doc="Algorithm A(b): t + t/b + O(1) rounds, O(n^b) bits",
            params=(_BLOCK_PARAM,)),
        RegistryEntry(
            "algorithm-b", AlgorithmBSpec,
            doc="Algorithm B(b): repetition trees, t + 2t/b + O(1) rounds",
            params=(_BLOCK_PARAM,)),
        RegistryEntry(
            "algorithm-c", AlgorithmCSpec,
            doc="Algorithm C (Dolev–Reischuk–Strong adaptation): t+1 rounds, "
                "O(n) max message"),
        RegistryEntry(
            "hybrid", HybridSpec,
            doc="the Main Theorem's A→B→C hybrid",
            params=(_BLOCK_PARAM,)),
        RegistryEntry(
            "psl", PeaseShostakLamportSpec,
            doc="Pease–Shostak–Lamport OM(m) baseline"),
        RegistryEntry(
            "phase-king", PhaseKingSpec,
            doc="Berman–Garay–Perry phase-king baseline"),
        RegistryEntry(
            "dolev-strong", DolevStrongSpec,
            doc="authenticated Dolev–Strong baseline"),
    )


#: Parameter schemas and one-line docs for the adversaries that accept
#: constructor parameters / deserve a blurb.  The entry *list* itself is
#: derived from :func:`repro.adversary.adversary_registry` — the single
#: authority on which strategies exist — so a strategy added there becomes
#: addressable here automatically (with an empty schema until one is
#: declared).
_ADVERSARY_SCHEMAS: Dict[str, Tuple[ParamSpec, ...]] = {
    "crash": (ParamSpec("crash_round", int, default=2,
                        doc="round at which the faulty processors stop"),
              ParamSpec("partial_deliveries", int, default=0,
                        doc="destinations still reached mid-crash")),
    "staggered-crash": (ParamSpec("partial_deliveries", int, default=1),
                        ParamSpec("first_round", int, default=1)),
    "delayed-equivocation": (ParamSpec(
        "honest_rounds", int, default=2,
        doc="rounds of honest behaviour before lying"),),
    "minimal-exposure": (ParamSpec(
        "rounds_per_liar", int, default=2,
        doc="rounds each liar stays active"),),
    "transient-corruption": (
        ParamSpec("corrupt_rounds", int, default=1,
                  doc="length of the corruption prefix (rounds 1..k)"),
        ParamSpec("victims", int, default=1,
                  doc="correct processors corrupted per round"),
        ParamSpec("flips", int, default=1,
                  doc="stored values flipped per victim per round")),
    "send-omission": (ParamSpec(
        "rate_percent", int, default=50,
        doc="percent of (round, sender, dest) deliveries dropped"),),
    "receive-omission": (ParamSpec(
        "rate_percent", int, default=50,
        doc="percent of deliveries the faulty processors fail to receive"),),
    "crash-recovery": (
        ParamSpec("crash_round", int, default=2,
                  doc="first round of the outage (min 2)"),
        ParamSpec("silent_rounds", int, default=2,
                  doc="rounds of silence before rejoining with stale state")),
    "moving-target": (
        ParamSpec("active", int, default=1,
                  doc="how many of the faulty budget lie per round"),
        ParamSpec("rotate_every", int, default=1,
                  doc="rounds between rotations of the active window")),
}

_ADVERSARY_DOCS: Dict[str, str] = {
    "benign": "faulty processors follow the protocol to the letter",
    "crash": "every faulty processor stops at a fixed round",
    "staggered-crash": "one crash per round (the round-bound worst case)",
    "silent": "faulty processors are mute from round 1",
    "consistent-liar": "flips every relayed value, identically for all",
    "random-liar": "seeded random lies per destination",
    "two-faced": "partitions the correct processors and tells each side a "
                 "different story",
    "echo-suppressor": "withholds echoes about chosen processors",
    "two-faced-source": "the source equivocates, allies relay honestly",
    "equivocating-source-allies": "equivocating source with colluding relays",
    "delayed-equivocation": "behaves for a while, then splits the world",
    "stealth-path": "lies only where the discovery thresholds cannot fire",
    "minimal-exposure": "sacrifices one liar per block (worst-case round "
                        "counts)",
    "transient-corruption": "flips stored state of correct processors for a "
                            "bounded prefix of rounds",
    "send-omission": "faulty senders whose messages are dropped per "
                     "destination at a seeded rate",
    "receive-omission": "faulty processors fail to receive, then honestly "
                        "relay the gapped view",
    "crash-recovery": "silent for k rounds, then rejoins with stale state",
    "moving-target": "the actively-lying subset migrates within the t "
                     "budget per round",
}


def _adversary_entries() -> Tuple[RegistryEntry, ...]:
    return tuple(
        RegistryEntry(name, factory, doc=_ADVERSARY_DOCS.get(name, ""),
                      params=_ADVERSARY_SCHEMAS.get(name, ()))
        for name, factory in _adversary_factories().items())


_PROTOCOLS: Dict[str, RegistryEntry] = {e.name: e for e in _protocol_entries()}
_ADVERSARIES: Dict[str, RegistryEntry] = {e.name: e for e in _adversary_entries()}


def protocol_registry() -> Dict[str, RegistryEntry]:
    """Mapping of every registered protocol name to its entry."""
    return dict(_PROTOCOLS)


def adversary_registry() -> Dict[str, RegistryEntry]:
    """Mapping of every registered adversary name to its entry."""
    return dict(_ADVERSARIES)


def protocol_names() -> Tuple[str, ...]:
    return tuple(_PROTOCOLS)


def adversary_names() -> Tuple[str, ...]:
    return tuple(_ADVERSARIES)


def _lookup(table: Dict[str, RegistryEntry], kind: str, name: str) -> RegistryEntry:
    try:
        return table[name]
    except KeyError:
        raise RegistryError(
            f"unknown {kind} {name!r}; registered: {sorted(table)}") from None


def build_protocol(name: str,
                   params: Optional[Mapping[str, object]] = None) -> ProtocolSpec:
    """Instantiate the named protocol spec with schema-validated *params*."""
    return _lookup(_PROTOCOLS, "protocol", name).build(params)


def build_adversary(name: str,
                    params: Optional[Mapping[str, object]] = None) -> Adversary:
    """Instantiate the named adversary with schema-validated *params*."""
    return _lookup(_ADVERSARIES, "adversary", name).build(params)


#: ProtocolSpec type → (registry name, params extractor).  The extractor
#: returns only the parameters that differ from the schema defaults, so the
#: recovered request is minimal and round-trips through the registry.
_SPEC_FIELDS: Dict[type, Tuple[str, Callable[[ProtocolSpec], Dict[str, object]]]] = {
    ExponentialSpec: ("exponential",
                      lambda s: ({} if s.conversion == "resolve"
                                 else {"conversion": s.conversion})),
    AlgorithmASpec: ("algorithm-a", lambda s: {"b": s.b}),
    AlgorithmBSpec: ("algorithm-b", lambda s: {"b": s.b}),
    AlgorithmCSpec: ("algorithm-c", lambda s: {}),
    HybridSpec: ("hybrid", lambda s: {"b": s.b}),
    PeaseShostakLamportSpec: ("psl", lambda s: {}),
    PhaseKingSpec: ("phase-king", lambda s: {}),
    DolevStrongSpec: ("dolev-strong", lambda s: {}),
}


def request_fields_for_spec(spec: ProtocolSpec) -> Tuple[str, Dict[str, object]]:
    """The ``(registry name, params)`` that rebuild an equivalent of *spec*."""
    try:
        name, extract = _SPEC_FIELDS[type(spec)]
    except KeyError:
        raise RegistryError(
            f"protocol spec {type(spec).__name__} is not in the registry; "
            f"registered: {sorted(_PROTOCOLS)}") from None
    return name, extract(spec)
