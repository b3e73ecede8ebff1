"""The execution driver: run one agreement instance under an adversary.

This is the top of the substrate stack.  Given a protocol spec, a
configuration, a faulty set, and an adversary, :func:`run_agreement` builds
one protocol instance per correct processor, drives the synchronous rounds,
lets the (rushing, full-information) adversary pick the faulty processors'
messages after seeing the correct ones, and returns a :class:`RunResult`
containing the decisions, the agreement/validity verdicts, and the cost
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..adversary.base import Adversary, AdversaryContext, BenignAdversary
from ..core.engine import BATCHED
from ..core.sequences import ProcessorId
from ..core.values import Value

if TYPE_CHECKING:  # imported only for annotations, to avoid an import cycle
    from ..core.protocol import AgreementProtocol, ProtocolConfig, ProtocolSpec
from .errors import ConfigurationError, SimulationError
from .messages import Outbox
from .metrics import RunMetrics
from .network import SynchronousNetwork


@dataclass
class RunResult:
    """Everything observable about one completed execution."""

    protocol: str
    adversary: str
    config: ProtocolConfig
    faulty: FrozenSet[ProcessorId]
    decisions: Dict[ProcessorId, Value]
    rounds: int
    metrics: RunMetrics
    discovered: Dict[ProcessorId, Tuple[ProcessorId, ...]] = field(default_factory=dict)
    discovery_logs: Dict[ProcessorId, Dict[int, int]] = field(default_factory=dict)

    # -- verdicts -----------------------------------------------------------
    @property
    def correct(self) -> Tuple[ProcessorId, ...]:
        return tuple(p for p in self.config.processors if p not in self.faulty)

    @property
    def agreement(self) -> bool:
        """No two correct processors decide differently."""
        values = {self.decisions[p] for p in self.correct}
        return len(values) <= 1

    @property
    def validity(self) -> Optional[bool]:
        """If the source is correct, every correct processor decides its value.

        ``None`` when the source is faulty (the condition is vacuous).
        """
        if self.config.source in self.faulty:
            return None
        expected = self.config.initial_value
        return all(self.decisions[p] == expected for p in self.correct)

    @property
    def succeeded(self) -> bool:
        """Agreement holds and validity holds whenever it applies."""
        validity = self.validity
        return self.agreement and (validity is None or validity)

    @property
    def decision_value(self) -> Value:
        """The common decision of the correct processors (requires agreement)."""
        if not self.agreement:
            raise SimulationError("no common decision: agreement was violated")
        return self.decisions[self.correct[0]]

    def soundness_of_discovery(self) -> bool:
        """Every processor a correct processor lists as faulty is faulty."""
        faulty = set(self.faulty)
        return all(set(listed) <= faulty for listed in self.discovered.values())

    def summary(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "protocol": self.protocol,
            "adversary": self.adversary,
            "n": self.config.n,
            "t": self.config.t,
            "faults": len(self.faulty),
            "rounds": self.rounds,
            "agreement": self.agreement,
            "validity": self.validity,
        }
        row.update(self.metrics.summary())
        return row


def choose_faulty(n: int, count: int, source_faulty: bool = False,
                  source: ProcessorId = 0) -> FrozenSet[ProcessorId]:
    """A deterministic faulty set of the requested size.

    The source is included exactly when *source_faulty* is set; the remaining
    faulty processors are the highest-numbered ones, which keeps small test
    configurations readable.
    """
    if count < 0 or count > n:
        raise ConfigurationError(f"cannot make {count} of {n} processors faulty")
    chosen = set()
    if source_faulty and count > 0:
        chosen.add(source)
    candidate = n - 1
    while len(chosen) < count:
        if candidate != source:
            chosen.add(candidate)
        candidate -= 1
        if candidate < 0:
            raise ConfigurationError("ran out of processors to mark faulty")
    return frozenset(chosen)


def run_agreement(spec: ProtocolSpec, config: ProtocolConfig,
                  faulty: Iterable[ProcessorId] = (),
                  adversary: Optional[Adversary] = None,
                  seed: int = 0) -> RunResult:
    """Execute one agreement instance and return its :class:`RunResult`.

    Parameters
    ----------
    spec:
        The algorithm to run (e.g. :class:`repro.core.hybrid.HybridSpec`).
    config:
        The instance parameters (``n``, ``t``, source, initial value, domain)
        and the engine every processor of the run is built with.  With
        ``config.engine == "batched"`` all correct processors' rounds run as
        whole-run 2-D numpy kernels (:mod:`repro.runtime.batched`) instead
        of ``n − t`` per-processor state machines.  Observationally
        identical to the per-processor engines; covers the EIG specs,
        Algorithm C, and the hybrid, and falls back to per-processor numpy
        machines for the baselines and batched-declining adversaries.
    faulty:
        The set of Byzantine processors (at most ``t`` for the guarantees of
        the theorems to apply; larger sets are allowed for stress testing).
    adversary:
        Strategy controlling the faulty processors; defaults to
        :class:`~repro.adversary.base.BenignAdversary`.
    seed:
        Seed forwarded to the adversary for reproducible randomised behaviour.
    """
    spec.validate(config)
    faulty_set = frozenset(faulty)
    unknown = faulty_set - set(config.processors)
    if unknown:
        raise ConfigurationError(f"faulty set mentions unknown processors {sorted(unknown)}")

    adversary = adversary if adversary is not None else BenignAdversary()
    if config.engine == BATCHED:
        from .batched import run_batched_if_supported
        result = run_batched_if_supported(spec, config, faulty_set, adversary,
                                          seed)
        if result is not None:
            return result
    adversary.bind(AdversaryContext(config=config, spec=spec,
                                    faulty=faulty_set, seed=seed))

    correct = [p for p in config.processors if p not in faulty_set]
    processors: Dict[ProcessorId, AgreementProtocol] = {
        pid: spec.build(pid, config) for pid in correct
    }

    total_rounds = max((proc.total_rounds for proc in processors.values()),
                       default=spec.total_rounds(config))
    metrics = RunMetrics()
    network = SynchronousNetwork(config.processors, metrics,
                                 value_domain_size=len(config.domain))

    from .corruption import corruption_enabled, tree_state_views
    corrupting = corruption_enabled(adversary)

    for round_number in range(1, total_rounds + 1):
        correct_outboxes: Dict[ProcessorId, Outbox] = {
            pid: processors[pid].outgoing(round_number) for pid in correct
        }
        faulty_outboxes = adversary.round_messages(round_number, correct_outboxes)
        illegal = set(faulty_outboxes) - faulty_set
        if illegal:
            raise SimulationError(
                f"adversary produced messages for non-faulty processors {sorted(illegal)}")
        outboxes: Dict[ProcessorId, Outbox] = dict(correct_outboxes)
        outboxes.update(faulty_outboxes)
        inboxes = network.deliver(round_number, outboxes, count_senders=correct)
        # Each pid's inbox is the per-dest dict deliver() built for it (or a
        # fresh empty one); correct and faulty pids are disjoint, so no two
        # consumers here ever receive the same dict object.
        for pid in correct:
            processors[pid].incoming(round_number, inboxes.get(pid) or {})
        adversary.observe_delivery(
            round_number, {pid: inboxes.get(pid) or {} for pid in faulty_set})
        if corrupting:
            # After every delivery and conversion of the round, before the
            # next round's broadcasts wrap the level buffers — the same point
            # the batched driver invokes the hook.
            adversary.corrupt_state(round_number,
                                    tree_state_views(processors, config))

    decisions = {pid: processors[pid].decision() for pid in correct}
    discovered = {pid: tuple(processors[pid].discovered_faults()) for pid in correct}
    discovery_logs = {
        pid: dict(getattr(processors[pid], "discovery_log", {})) for pid in correct
    }
    for pid in correct:
        metrics.record_computation(pid, processors[pid].computation_units())
        metrics.record_discoveries(pid, len(discovered[pid]))

    return RunResult(
        protocol=spec.name,
        adversary=adversary.name,
        config=config,
        faulty=faulty_set,
        decisions=decisions,
        rounds=total_rounds,
        metrics=metrics,
        discovered=discovered,
        discovery_logs=discovery_logs,
    )


def run_many(spec: ProtocolSpec, config: ProtocolConfig,
             scenarios: Sequence[Tuple[Iterable[ProcessorId], Adversary]],
             seed: int = 0) -> Tuple[RunResult, ...]:
    """Run the same protocol/config under several (faulty set, adversary) pairs."""
    return tuple(run_agreement(spec, config, faulty, adversary,
                               seed=seed + index)
                 for index, (faulty, adversary) in enumerate(scenarios))
