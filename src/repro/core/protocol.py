"""Protocol interfaces shared by every agreement algorithm in the package.

The synchronous model of the paper is captured by a narrow, round-driven
interface: in every round each processor first produces its outgoing messages
(:meth:`AgreementProtocol.outgoing`), the network delivers them, and then each
processor consumes its inbox (:meth:`AgreementProtocol.incoming`).  After the
protocol's last round every correct processor must hold an irreversible
decision (:meth:`AgreementProtocol.decision`).

A :class:`ProtocolSpec` is the stateless description of an algorithm (its name,
parameter validation, round count, and processor factory); the simulation
driver instantiates one :class:`AgreementProtocol` per correct processor from
a spec.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from .engine import FAST, validate_engine
from .sequences import ProcessorId
from .values import DEFAULT_VALUE, Value, default_domain
from ..runtime.errors import ConfigurationError, ProtocolViolationError
from ..runtime.messages import Inbox, Outbox


@dataclass(frozen=True)
class ProtocolConfig:
    """Static parameters of one agreement instance.

    Attributes
    ----------
    n:
        Total number of processors.
    t:
        Resilience target: the maximum number of faulty processors the
        execution must tolerate.
    source:
        Identifier of the distinguished source (the broadcaster).
    initial_value:
        The source's input value ``v``.
    domain:
        The finite value set ``V`` (must contain 0, the default value).
    allow_unsafe:
        Permit instances below the protocols' resilience requirements
        (``n < 3t + 1``, down to ``n = 3``).  The theorems' guarantees do
        not apply there — that is the point: the adversary-search harness
        hunts such cells for concrete agreement violations.
    engine:
        How the run executes (:mod:`repro.core.engine`): ``"fast"`` (the
        default), ``"numpy"`` or ``"reference"`` per-processor trees, or
        ``"batched"`` — the whole-run executor, whose machines store numpy
        levels.  Every processor the run builds reads it from here.  An
        unknown name, or a numpy-backed one without numpy, raises
        :class:`ConfigurationError`.  Outcomes never depend on it.
    """

    n: int
    t: int
    source: ProcessorId = 0
    initial_value: Value = DEFAULT_VALUE
    domain: Tuple[Value, ...] = field(default_factory=default_domain)
    allow_unsafe: bool = False
    engine: str = FAST

    def __post_init__(self) -> None:
        if self.engine != FAST:
            validate_engine(self.engine)
        floor = 3 if self.allow_unsafe else 4
        if self.n < floor:
            raise ConfigurationError(
                "the Byzantine agreement problem requires n ≥ 4"
                if not self.allow_unsafe
                else "even unsafe instances need n ≥ 3 (a source and two "
                     "deciders)")
        if self.t < 1:
            raise ConfigurationError("resilience t must be at least 1")
        if not 0 <= self.source < self.n:
            raise ConfigurationError(
                f"source {self.source} is not a processor id in [0, {self.n})")
        if DEFAULT_VALUE not in self.domain:
            raise ConfigurationError("the value domain must contain the default value 0")
        if len(set(self.domain)) < 2:
            raise ConfigurationError(
                "the value domain needs at least two distinct elements "
                "(agreement over a singleton domain is vacuous)")
        if self.initial_value not in self.domain:
            raise ConfigurationError(
                f"initial value {self.initial_value!r} is not in the domain")

    @property
    def processors(self) -> Tuple[ProcessorId, ...]:
        return tuple(range(self.n))

    def others(self, pid: ProcessorId) -> Tuple[ProcessorId, ...]:
        return tuple(p for p in self.processors if p != pid)


class AgreementProtocol(abc.ABC):
    """One processor's state machine for a synchronous agreement protocol."""

    def __init__(self, pid: ProcessorId, config: ProtocolConfig) -> None:
        self.pid = pid
        self.config = config
        self._decided = False
        self._decision: Optional[Value] = None
        self._last_round_seen = 0

    # -- round API ---------------------------------------------------------
    @property
    @abc.abstractmethod
    def total_rounds(self) -> int:
        """Number of communication rounds this protocol uses."""

    @abc.abstractmethod
    def outgoing(self, round_number: int) -> Outbox:
        """Messages this processor sends at the start of *round_number*."""

    @abc.abstractmethod
    def incoming(self, round_number: int, inbox: Inbox) -> None:
        """Consume the messages delivered in *round_number*."""

    # -- decisions ----------------------------------------------------------
    @property
    def decided(self) -> bool:
        return self._decided

    def decision(self) -> Value:
        """The irreversible decision value (raises if not yet decided)."""
        if not self._decided:
            raise ProtocolViolationError(
                f"processor {self.pid} has not decided yet")
        return self._decision

    def _decide(self, value: Value) -> None:
        """Record an irreversible decision (subsequent calls must agree)."""
        if self._decided and self._decision != value:
            raise ProtocolViolationError(
                f"processor {self.pid} attempted to change its decision "
                f"from {self._decision!r} to {value!r}")
        self._decided = True
        self._decision = value

    # -- round bookkeeping ----------------------------------------------------
    def _check_round(self, round_number: int) -> None:
        """Enforce that rounds are visited in increasing order from 1."""
        if round_number < 1 or round_number > self.total_rounds:
            raise ProtocolViolationError(
                f"round {round_number} outside 1..{self.total_rounds}")
        if round_number < self._last_round_seen:
            raise ProtocolViolationError(
                f"round {round_number} visited after round {self._last_round_seen}")
        self._last_round_seen = round_number

    # -- introspection hooks (optional overrides) -------------------------------
    def computation_units(self) -> int:
        """Local computation units consumed so far (0 when not tracked)."""
        return 0

    def discovered_faults(self) -> Sequence[ProcessorId]:
        """Processors this processor has discovered to be faulty (``L_p``)."""
        return ()

    def preferred_value(self) -> Value:
        """The current preferred value (root of the tree), if meaningful."""
        return self._decision if self._decided else DEFAULT_VALUE


class ProtocolSpec(abc.ABC):
    """Stateless description of an agreement algorithm."""

    #: Human-readable name used in reports and benchmark tables.
    name: str = "protocol"

    @abc.abstractmethod
    def validate(self, config: ProtocolConfig) -> None:
        """Raise :class:`ConfigurationError` if *config* violates the
        algorithm's requirements (resilience bound, parameter range)."""

    @abc.abstractmethod
    def total_rounds(self, config: ProtocolConfig) -> int:
        """Worst-case number of communication rounds for *config*."""

    @abc.abstractmethod
    def build(self, pid: ProcessorId, config: ProtocolConfig) -> AgreementProtocol:
        """Instantiate the processor *pid*'s protocol object."""

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ProtocolSpec {self.describe()}>"
