"""Adversary interfaces and the shadow-processor machinery.

The paper's fault model places no restriction on faulty behaviour: the
adversary is a single coordinating entity that controls every faulty
processor, sees the complete state of the system (a *full-information*
adversary), and in each round may choose the faulty processors' messages
*after* seeing what the correct processors send (a *rushing* adversary).
The only power it lacks is forging sender identities — the network stamps
those.

Concrete strategies usually want to deviate *from what a correct processor
would have sent*, so :class:`ShadowAdversary` maintains a correct protocol
instance ("shadow") for every faulty processor, feeds it the messages the
faulty processor actually receives, and lets subclasses tamper with the
shadows' outgoing messages per destination.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Optional

from ..core.sequences import ProcessorId
from ..runtime.errors import AdversaryError, SimulationError
from ..runtime.messages import Inbox, Message, Outbox

if TYPE_CHECKING:  # imported only for annotations, to avoid an import cycle
    from ..core.protocol import AgreementProtocol, ProtocolConfig, ProtocolSpec
    from ..runtime.corruption import StateView


@dataclass(frozen=True)
class AdversaryContext:
    """Everything an adversary is allowed to know before the execution starts."""

    config: ProtocolConfig
    spec: ProtocolSpec
    faulty: FrozenSet[ProcessorId]
    seed: int = 0

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    @property
    def correct(self) -> FrozenSet[ProcessorId]:
        return frozenset(set(self.config.processors) - self.faulty)

    @property
    def source_is_faulty(self) -> bool:
        return self.config.source in self.faulty


class Adversary(abc.ABC):
    """Coordinated Byzantine behaviour for the whole faulty set."""

    name = "adversary"

    #: ``None`` when the strategy is expressible under the batched whole-run
    #: executor (a claims-matrix edit); otherwise a one-line reason string.
    #: The batched driver falls back to the per-processor path
    #: when set, and the planner/``repro validate`` surface the reason.
    batched_fallback_reason: Optional[str] = None

    def __init__(self) -> None:
        self.context: Optional[AdversaryContext] = None
        self._seed_override: Optional[int] = None

    def bind(self, context: AdversaryContext) -> None:
        """Attach the adversary to one execution.  Called once by the driver.

        Rebinding an already-bound adversary raises: strategy state built for
        the previous execution (shadow protocol machines, rng position,
        cached node-id tables) would silently leak into the new one.  Use a
        fresh adversary instance per run — the workload scenarios hand out
        factories for exactly this reason.
        """
        if self.context is not None:
            raise SimulationError(
                f"adversary {self.describe()!r} is already bound to an "
                f"execution context; create a fresh adversary instance per "
                f"run (stale shadow/rng state must not leak across "
                f"executions)")
        self.context = context

    def reseed(self, seed: int) -> None:
        """Override the rng seed the next :meth:`bind` will use.

        Every randomised strategy draws from one :class:`random.Random`
        seeded at bind time; the search mutator perturbs that stream through
        this single hook instead of knowing each subclass's rng fields.
        Reseeding after bind raises — the rng position already belongs to an
        execution.
        """
        if self.context is not None:
            raise SimulationError(
                f"adversary {self.describe()!r} is already bound; reseed() "
                f"must be called before bind()")
        self._seed_override = seed

    def _effective_seed(self, context: AdversaryContext) -> int:
        return self._seed_override if self._seed_override is not None else context.seed

    def _require_context(self) -> AdversaryContext:
        if self.context is None:
            raise AdversaryError("adversary used before bind()")
        return self.context

    @abc.abstractmethod
    def round_messages(self, round_number: int,
                       correct_outboxes: Mapping[ProcessorId, Outbox]
                       ) -> Dict[ProcessorId, Outbox]:
        """The faulty processors' messages for *round_number*.

        The adversary is rushing: ``correct_outboxes`` contains what every
        correct processor is sending this round.  The return value maps each
        faulty sender to its outbox; omitted senders send nothing.
        """

    def observe_delivery(self, round_number: int,
                         faulty_inboxes: Mapping[ProcessorId, Inbox]) -> None:
        """Hook invoked after delivery with the messages the faulty processors
        received.  Default: ignore."""

    def corrupt_state(self, round_number: int,
                      state_views: Mapping[ProcessorId, "StateView"]) -> None:
        """Flip stored state of *correct* processors after a round's delivery.

        ``state_views`` maps every correct non-source participant to a
        read/write view of its current top tree level (node-id order); see
        :mod:`repro.runtime.corruption`.  Both the per-processor and the
        batched driver invoke this at the same point — after every delivery
        and conversion of the round, before the next round's broadcasts are
        built — so in-place edits are observationally identical across
        engines.  Written values must stay inside ``config.domain`` (the
        batched state never stores a missing sentinel).  Default: no state
        corruption; drivers skip the hook entirely when it is not overridden.
        """

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Adversary {self.describe()}>"


class ShadowAdversary(Adversary):
    """Base class that runs a correct "shadow" protocol per faulty processor.

    Subclasses override :meth:`tamper` (per-destination message rewriting)
    and/or :meth:`suppress` (dropping messages entirely).  By default the
    shadows' messages are forwarded untouched, i.e. the faulty processors
    behave correctly.
    """

    name = "shadow"

    def __init__(self) -> None:
        super().__init__()
        self._shadows: Dict[ProcessorId, AgreementProtocol] = {}
        self._rng: Optional[random.Random] = None
        self._rewrite_cache: tuple = (None, {})

    def bind(self, context: AdversaryContext) -> None:
        super().bind(context)
        self._rng = random.Random(self._effective_seed(context))
        self._rewrite_cache = (None, {})
        self._shadows = {
            pid: context.spec.build(pid, context.config)
            for pid in sorted(context.faulty)
        }

    # -- knobs for subclasses ------------------------------------------------
    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            raise AdversaryError("adversary used before bind()")
        return self._rng

    def shadow(self, pid: ProcessorId) -> AgreementProtocol:
        return self._shadows[pid]

    def cached_rewrite(self, message: Message, key, build) -> Message:
        """Memoise a deterministic per-destination rewrite of one broadcast.

        Most tampering strategies send each destination one of a *few*
        deterministic rewrites of the shadow's broadcast (e.g. the honest
        buffer or the flipped buffer) — rebuilding the rewritten message per
        destination costs ``n − 1`` buffer fills where two suffice.  The
        cache is keyed by the identity of the *current* broadcast message
        (tamper calls for one round's broadcast arrive consecutively, and the
        cache holds a strong reference, so the identity cannot be recycled)
        plus a caller-chosen *key* naming the rewrite.  Messages are
        immutable, so sharing one rewritten object across destinations is
        indistinguishable from rebuilding it — except to the wall clock, and
        to the batched executor, which dedupes claim rows per object.

        Never use this for non-deterministic rewrites (per-destination
        randomness must stay one draw per destination).
        """
        cached_message, by_key = self._rewrite_cache
        if cached_message is not message:
            by_key = {}
            self._rewrite_cache = (message, by_key)
        rewritten = by_key.get(key)
        if rewritten is None:
            rewritten = by_key[key] = build()
        return rewritten

    def suppress(self, round_number: int, sender: ProcessorId,
                 dest: ProcessorId) -> bool:
        """Return True to drop the message from *sender* to *dest* entirely."""
        return False

    def tamper(self, round_number: int, sender: ProcessorId, dest: ProcessorId,
               message: Message,
               correct_outboxes: Mapping[ProcessorId, Outbox]) -> Message:
        """Rewrite the shadow's message for one destination (default: no-op).

        Implementations must return a *new* message (messages are immutable)
        and should rewrite through the message's slot-wise helpers —
        :meth:`~repro.runtime.messages.Message.map_values`,
        :meth:`~repro.runtime.messages.Message.replace_values`,
        :meth:`~repro.runtime.messages.LevelMessage.map_values_at`,
        :meth:`~repro.runtime.messages.LevelMessage.with_level_values` — so
        that a lie about an array-backed level broadcast flips the value
        buffer directly instead of materialising a per-destination
        ``{sequence: value}`` dictionary.
        """
        return message

    # -- Adversary API ----------------------------------------------------------
    def round_messages(self, round_number: int,
                       correct_outboxes: Mapping[ProcessorId, Outbox]
                       ) -> Dict[ProcessorId, Outbox]:
        context = self._require_context()
        result: Dict[ProcessorId, Outbox] = {}
        for pid in sorted(context.faulty):
            shadow_outbox = self._shadows[pid].outgoing(round_number)
            outbox: Outbox = {}
            for dest, message in shadow_outbox.items():
                if dest in context.faulty:
                    # Faulty-to-faulty traffic is internal to the adversary;
                    # keep it so shadows stay consistent, but it is free.
                    outbox[dest] = message
                    continue
                if self.suppress(round_number, pid, dest):
                    continue
                outbox[dest] = self.tamper(round_number, pid, dest, message,
                                           correct_outboxes)
            result[pid] = outbox
        return result

    def observe_delivery(self, round_number: int,
                         faulty_inboxes: Mapping[ProcessorId, Inbox]) -> None:
        for pid, inbox in faulty_inboxes.items():
            if pid in self._shadows:
                self._shadows[pid].incoming(round_number, dict(inbox))


class BenignAdversary(ShadowAdversary):
    """Faulty processors that follow the protocol to the letter.

    Useful as a baseline: with a benign adversary every execution must decide
    on the source's value, and fault discovery should never trigger.
    """

    name = "benign"
