"""Algorithm C (Theorem 4) — the Dolev–Reischuk–Strong adaptation.

Algorithm C trades resilience for efficiency: it tolerates only
``t_C ≈ √(n/2)`` faults but runs in ``t + 1`` rounds with ``O(n)``-bit
messages and ``O(n^2.5)`` local computation.  Its Information Gathering Tree
is built *with repetitions* (every internal node has exactly ``n`` children,
one per processor name) and is never more than three levels deep:

* the first round stores the source's value at the root,
* the second round stores every processor's claimed root value at the
  intermediate vertices ``sq``,
* from the third round on, each round (i) stores at ``sqr`` the value ``r``
  claims for ``sq``, applying the Fault Discovery and Fault Masking Rules,
  (ii) *reorders* the leaves by swapping ``tree(spq)`` and ``tree(sqp)`` so
  that the subtree under ``sq`` holds exactly the values received from ``q``
  this round, and (iii) applies ``shift_{3→2}``: ``tree(sq) := resolve(sq)``.

After round ``t + 1`` a final ``shift_{2→1}`` (``tree(s) := resolve(s)``)
yields the decision.  Correctness hinges on a per-round dichotomy: in every
round after the second, either a new fault is globally detected or a
"persistent" value (Lemma 6) is obtained, and once all faults are detected the
leaves are common.

Silent-source substitution
--------------------------
The source decides in round 1 and never sends again, yet the repetition tree
gives every internal node a child labelled ``s``.  Storing the default value
there would let ``t`` faulty processors plus the silent source exceed the
``t − |L_p|`` deviation budget of the Fault Discovery Rule and incriminate a
*correct* processor.  We therefore fill the ``s``-labelled child of a node
``α`` with the processor's *own* stored value for ``α`` — exactly how the
processor fills the child labelled with its own name.  This never introduces
a value that differs from the processor's own view, so it cannot cause
spurious discoveries, and it contributes at most one extra (self-consistent)
vote to the majorities used in Lemma 6, whose counting has strictly more
slack than one vote under the ``t ≤ t_C`` conditions.  The choice is recorded
in DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .engine import FAST, NUMPY, tree_engine
from .fault_discovery import FaultTracker, window_majority
from .fault_masking import (discover_and_mask, gather_level_flat,
                            gather_level_numpy, mask_inbox)
from .protocol import AgreementProtocol, ProtocolConfig, ProtocolSpec
from .resolve import flat_resolve_levels, numpy_resolve_root, resolve
from .sequences import LabelSequence, ProcessorId
from .tree import make_tree
from .values import DEFAULT_VALUE, Value, coerce_value, is_bottom
from ..runtime.errors import ConfigurationError
from ..runtime.messages import (Inbox, Message, Outbox, broadcast,
                                broadcast_message)


def algorithm_c_resilience(n: int) -> int:
    """Maximum resilience of Algorithm C for *n* processors.

    The paper states ``t_C ≈ √(n/2)``; we use the exact conditions from the
    proof of Proposition 4: the largest ``t`` with ``n − t − (t − 1)² > n/2``
    and ``n − 2t > n/2`` (both strict).  Returns 0 when no ``t ≥ 1`` works.
    """
    best = 0
    t = 1
    while True:
        if (n - t - (t - 1) ** 2) * 2 > n and (n - 2 * t) * 2 > n:
            best = t
            t += 1
        else:
            return best


def algorithm_c_rounds(t: int) -> int:
    """Rounds of communication used by Algorithm C: ``t + 1``."""
    return t + 1


def algorithm_c_max_message_entries(n: int) -> int:
    """Entries of the largest message: the ``n`` intermediate values, ``O(n)``."""
    return n


def shift_intermediate_codes(leaves, n: int):
    """``shift_{3→2}`` over reordered level-3 codes: the new level-2 codes.

    *leaves* holds one or more trees' level 3 (``n · n`` codes per tree,
    any leading shape); window ``i`` of each tree is the ``n`` children of
    ``(s, i)``.  One ``bincount`` majority vote covers every window of every
    tree; a window without a strict majority converts to the default.  Shared
    by the per-processor numpy engine and the batched executor, whose row
    stacks pass through whole.
    """
    from .npsupport import (DEFAULT_CODE, VALUE_CODEC, require_numpy,
                            strict_majority, vote_windows, window_tallies)
    np = require_numpy()
    windows = vote_windows(leaves, leaves.size // n, n)
    best, has_majority = strict_majority(
        window_tallies(windows, len(VALUE_CODEC)), n)
    converted = np.where(has_majority, best, DEFAULT_CODE)
    return converted.astype(leaves.dtype).reshape(leaves.shape[:-1] + (-1,))


class AlgorithmCProcessor(AgreementProtocol):
    """One processor's execution of Algorithm C.

    The processor can be run standalone (local rounds ``1 .. t + 1``) or
    embedded in the hybrid algorithm, in which case it starts "at the end of
    round 1" with a supplied preferred value and an existing fault list and
    runs local rounds ``2 .. last_round``.
    """

    def __init__(self, pid: ProcessorId, config: ProtocolConfig,
                 first_round: int = 1, last_round: Optional[int] = None,
                 initial_root: Optional[Value] = None,
                 tracker: Optional[FaultTracker] = None) -> None:
        super().__init__(pid, config)
        if first_round not in (1, 2):
            raise ConfigurationError("Algorithm C can only start at round 1 or 2")
        self.first_round = first_round
        self.last_round = last_round if last_round is not None else config.t + 1
        if self.last_round < max(2, first_round):
            raise ConfigurationError(
                f"Algorithm C needs at least two rounds (got last_round={self.last_round})")
        self.engine = tree_engine(config.engine)
        self._fast = self.engine == FAST
        self._numpy = self.engine == NUMPY
        self._array_backed = self._fast or self._numpy
        self.tree = make_tree(config.source, config.processors, self.engine,
                              repetitions=True)
        self._domain_set = frozenset(v for v in config.domain
                                     if not is_bottom(v))
        self.tracker = tracker if tracker is not None else FaultTracker(pid, config.t)
        self.discovery_log: Dict[int, int] = {}
        self.preferred_log: Dict[int, Value] = {}
        if first_round == 2:
            if initial_root is None:
                raise ConfigurationError(
                    "starting Algorithm C at round 2 requires an initial preferred value")
            self.tree.set_root(initial_root)

    # -- AgreementProtocol API --------------------------------------------------
    @property
    def total_rounds(self) -> int:
        return self.last_round

    def outgoing(self, round_number: int) -> Outbox:
        self._check_round(round_number)
        if self.pid == self.config.source:
            if round_number == 1:
                entries = {self.tree.root: self.config.initial_value}
                return broadcast(entries, self.pid, round_number,
                                 self.config.processors)
            return {}
        if round_number == 1:
            return {}
        if round_number == 2:
            entries = {self.tree.root: self.tree.root_value()}
        elif self._array_backed and self.tree.num_levels >= 2:
            message = self.tree.level_message(2, self.pid, round_number)
            return broadcast_message(message, self.config.processors)
        else:
            # A tree without level 2 (a recovering processor's stale shadow)
            # degrades to an empty broadcast, exactly like the reference path.
            entries = self.tree.level(2)
        return broadcast(entries, self.pid, round_number, self.config.processors)

    def incoming(self, round_number: int, inbox: Inbox) -> None:
        if self.pid == self.config.source:
            if round_number == 1:
                self._decide(self.config.initial_value)
            return
        if round_number == 1:
            self._store_root(inbox.get(self.config.source))
        elif self.tree.num_levels == 1:
            # The tree's depth, not the round, picks the step: a shadow that
            # slept through the intermediate round gathers it when it wakes.
            self._gather_intermediate(round_number, inbox)
        else:
            self._gather_leaves(round_number, inbox)
        if round_number == self.last_round:
            self._finish()

    # -- round bodies ----------------------------------------------------------------
    def _store_root(self, source_message: Optional[Message]) -> None:
        claimed = None
        if source_message is not None:
            claimed = source_message.value_for(self.tree.root)
        self.tree.set_root(coerce_value(claimed, self.config.domain))

    def _claim(self, masked_inbox: Inbox, parent: LabelSequence,
               child: ProcessorId) -> Value:
        """The value stored at ``parent + (child,)`` for this round's level.

        The processor's own child and the silent source's child echo the
        processor's stored value for *parent*; every other child comes from
        the (masked) inbox with the default-value substitution for missing or
        malformed entries.

        The substitution stands in for the source's (never sent) message, so
        the Fault Masking Rule applies to it exactly as to a real message:
        once the source is in ``L_p`` its substituted values are the default.
        Without this, each side of a round-1 equivocation keeps re-injecting
        its own world view through the source-labelled children after the
        source has been discovered, and the sides never reconverge.
        """
        if child == self.pid:
            return self.tree.value(parent)
        if child == self.config.source:
            if self.config.source in self.tracker:
                return DEFAULT_VALUE
            return self.tree.value(parent)
        message = masked_inbox.get(child)
        if message is None:
            return DEFAULT_VALUE
        return coerce_value(message.value_for(parent), self.config.domain)

    def _grow_level(self, level: int, inbox: Inbox) -> None:
        """Populate *level* from the round's inbox (engine-dispatched)."""
        if self._array_backed:
            self._gather_level_array(level, inbox)
        else:
            masked = mask_inbox(inbox, self.tracker.suspects)
            self.tree.grow_level(
                level, lambda parent, child: self._claim(masked, parent, child))

    def _gather_level_array(self, level: int, inbox: Inbox) -> None:
        """Array-buffer gathering via
        :func:`~repro.core.fault_masking.gather_level_flat` or its ndarray
        twin :func:`~repro.core.fault_masking.gather_level_numpy`.  The
        special labels mirror :meth:`_claim`: the processor's own children and
        the silent source's children echo its own stored values, and once the
        source is in ``L_p`` its substitution is masked to the default."""
        source = self.config.source
        if source in self.tracker:
            echo_labels, masked_labels = (self.pid,), (source,)
        else:
            echo_labels, masked_labels = (self.pid, source), ()
        gather = gather_level_numpy if self._numpy else gather_level_flat
        gather(self.tree, level, inbox, self.tracker,
               self._domain_set, echo_labels=echo_labels,
               masked_labels=masked_labels)

    def _gather_intermediate(self, round_number: int, inbox: Inbox) -> None:
        """Round 2: populate the intermediate vertices ``sq`` and discover faults."""
        self._grow_level(2, inbox)
        newly = discover_and_mask(self.tree, 2, self.tracker, round_number)
        if newly:
            self.discovery_log[round_number] = len(newly)

    def _gather_leaves(self, round_number: int, inbox: Inbox) -> None:
        """Rounds ≥ 3: populate the leaves, discover, mask, reorder, convert."""
        self._grow_level(3, inbox)
        newly = discover_and_mask(self.tree, 3, self.tracker, round_number)
        if newly:
            self.discovery_log[round_number] = len(newly)
        self.tree.reorder_leaves()
        if self._numpy:
            self._convert_intermediate_numpy()
        elif self._fast:
            self._convert_intermediate_fast()
        else:
            self.tree.convert_intermediate(lambda seq: resolve(self.tree, seq))
        self.preferred_log[round_number] = self._current_preference()

    def _convert_intermediate_fast(self) -> None:
        """``shift_{3→2}`` over the flat buffers: the level-3 slice of each
        intermediate vertex is a contiguous window, so the conversion is one
        majority pass with no per-node resolver call."""
        tree = self.tree
        n = self.config.n
        leaves = tree.raw_level(3)
        new_level2: List[Value] = [DEFAULT_VALUE] * n
        for i in range(n):
            majority = window_majority(leaves[i * n:(i + 1) * n], n)
            if majority is not None:
                new_level2[i] = majority
        # Visit parity with the per-vertex reference resolver: two units per
        # leaf plus one per child of each intermediate vertex.
        tree.meter.charge(3 * n * n)
        tree.replace_level(2, new_level2)
        tree.truncate_to_level(2)

    def _convert_intermediate_numpy(self) -> None:
        """``shift_{3→2}`` over the code ndarrays: one ``bincount`` majority
        vote over the ``n × n`` leaf matrix replaces the per-vertex windows
        (identical semantics and meter parity with the flat fast path)."""
        tree = self.tree
        n = self.config.n
        tree.meter.charge(3 * n * n)
        tree.replace_level(2, shift_intermediate_codes(tree.raw_level(3), n))
        tree.truncate_to_level(2)

    def _finish(self) -> None:
        """``shift_{2→1}``: the decision is ``resolve(s)`` over the 2-level tree."""
        decision = self._current_preference()
        self.tree.reset_to_root(decision)
        self._decide(decision)

    def _current_preference(self) -> Value:
        """The value ``resolve(s)`` *would* return now (the paper's "preferred
        value at the end of round k"); the algorithm does not act on it except
        at the very end, but experiments track it to observe persistence."""
        if self._numpy:
            return numpy_resolve_root(self.tree, "resolve", self.config.t)
        if self._fast:
            return flat_resolve_levels(self.tree, "resolve",
                                       self.config.t)[0][0]
        return resolve(self.tree, self.tree.root)

    # -- introspection -------------------------------------------------------------------
    def preferred_value(self) -> Value:
        if self.pid == self.config.source:
            return self.config.initial_value
        if self.tree.num_levels >= 2:
            return self._current_preference()
        return self.tree.root_value()

    def discovered_faults(self):
        return tuple(sorted(self.tracker.suspects))

    def computation_units(self) -> int:
        return self.tree.meter.units


class AlgorithmCSpec(ProtocolSpec):
    """Protocol spec for standalone Algorithm C."""

    name = "algorithm-c"

    def validate(self, config: ProtocolConfig) -> None:
        limit = algorithm_c_resilience(config.n)
        if config.t > limit:
            raise ConfigurationError(
                f"Algorithm C tolerates at most t={limit} faults for n={config.n} "
                f"(requested t={config.t})")

    def total_rounds(self, config: ProtocolConfig) -> int:
        return algorithm_c_rounds(config.t)

    def build(self, pid: ProcessorId, config: ProtocolConfig) -> AgreementProtocol:
        self.validate(config)
        return AlgorithmCProcessor(pid, config)

    def describe(self) -> str:
        return "algorithm-c: t+1 rounds, O(n) bits, resilience ≈ √(n/2)"
