"""Batched whole-run stepping: one 2-D kernel per round for all processors.

The per-processor driver in :mod:`.simulation` interprets ``n − t`` identical
protocol state machines in lock step.  The synchronous-round model makes that
uniformity exploitable: every correct processor of an EIG execution holds a
tree of the *same shape*, gathers from the *same* broadcasts, and converts at
the *same* rounds — so the whole run can be stepped as a single
``(rows, nodes)`` ndarray per level (a
:class:`~repro.core.npsupport.BatchedEIGState`), with one fancy-indexed
gather, one ``bincount`` discovery kernel, and one ``bincount`` conversion
kernel per round and row block for the *entire* run.  This amortises the
numpy call overhead that makes the per-processor ``"numpy"`` engine lose to
the pure-python ``"fast"`` engine on small levels.

The stacked state covers more than the correct processors: the faulty
processors' *shadows* (the correct machines a
:class:`~repro.adversary.base.ShadowAdversary` runs to know what a correct
processor would have sent) obey the same uniform round structure, so they are
extra rows of the same stack.  The adversary receives its shadows through a
spec proxy (:class:`_ShadowSpecProxy`): ``outgoing`` wraps the shadow's
current leaf row by reference, while the state stepping happens inside the
round kernels.

Observational identity is preserved exactly — decisions, discovered faults,
discovery logs, message metrics, and per-processor
:class:`~repro.runtime.metrics.ComputationMeter` units all match the three
per-processor engines:

* the adversary runs **unchanged**: it receives the documented
  ``correct_outboxes`` mapping (materialised lazily from a run-level
  broadcast table, so no per-destination dict is built unless the adversary
  actually indexes it), produces ordinary message dicts, observes the faulty
  processors' inboxes after every round, and its shadows' outboxes are
  byte-identical to per-processor shadows' — so tampering decisions and rng
  draw order cannot drift;
* gathering reads each correct sender's claims straight out of the previous
  level stack (a broadcast *is* the sender's level buffer); faulty messages
  become extra claim rows (deduplicated per message object, zero-copy for
  aligned :class:`~repro.runtime.messages.NumpyLevelMessage` broadcasts);
* discovery, masking, and conversion reuse the per-processor numpy kernels'
  shared internals row by row (see :mod:`repro.core.fault_discovery` and
  :mod:`repro.core.resolve`), including the reference meter accounting
  (shadow rows charge throwaway meters — nothing ever reads a shadow's
  units).

Eligibility: :func:`batched_supported` accepts the specs whose processors
are plain :class:`~repro.core.shifting.ShiftingEIGProcessor` machines (the
Exponential Algorithm, Algorithms A and B), standalone Algorithm C, and the
hybrid, when numpy is importable.  A run steps as a plan of phases
(:class:`_ProbeFacts`): the shift-schedule EIG phase — the whole run, or the
hybrid's A→B prefix — then, for C and the hybrid, an Algorithm C phase on the
repetition index (see :meth:`_BatchedRun._c_round`).  ``run_agreement``
takes this path when the run's ``config.engine`` is ``"batched"``, and falls
back to per-processor numpy machines for everything else (the baselines and
batched-declining adversaries).  The same config reaches every machine the
run builds, so any machine the adversary builds outside the shadow rows
stores numpy levels and broadcasts a
:class:`~repro.runtime.messages.NumpyLevelMessage`, which the claim-row
builder takes zero-copy.

The gather, trigger, and conversion kernels step each level stack in
contiguous, cache-sized row blocks
(:func:`~repro.core.npsupport.row_blocks`), so a large-``n`` run never
builds a temporary over its whole stack.  The level a conversion consumes is
never gathered at all: the round that ends an EIG segment counts each
parent's child values straight from the claims
(:class:`~repro.core.fault_masking.ChildCounts`), and the discovery fixpoint,
the bottom conversion vote, and the conversion-discovery triggers read the
counts.  Every discovery pass reduces its triggers to each sender label's
first fired parent before the label scan.  Levels of more than
:data:`~repro.core.npsupport.LARGE_LEVEL_ELEMENTS` codes take the
large-level forms: the claims matrix and every level-sized temporary of the
count, trigger and vote kernels live in per-thread
:func:`~repro.core.npsupport.scratch` buffers reused from run to run, and
only the level stacks themselves are allocated fresh.
"""

from __future__ import annotations

import weakref
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Mapping,
                    Optional, Set, Tuple)

from ..adversary.base import Adversary, AdversaryContext, ShadowAdversary
from ..core.algorithm_c import AlgorithmCProcessor, shift_intermediate_codes
from ..core.engine import numpy_available
from ..core.fault_discovery import (FaultTracker,
                                    discover_during_conversion_batched)
from ..core.fault_masking import (ChildCounts, discover_and_mask_batched,
                                  gather_level_batched)
from ..core.hybrid import HybridProcessor, hybrid_schedule
from ..core.resolve import batched_resolve_levels
from ..core.sequences import ProcessorId, sequence_index
from ..core.shifting import ShiftingEIGProcessor
from ..core.values import coerce_value, is_bottom
from .errors import SimulationError
from .messages import (Inbox, Message, NumpyLevelMessage, Outbox, broadcast,
                       broadcast_message, stamp_sender)
from .metrics import ComputationMeter, RunMetrics, entry_bits

if TYPE_CHECKING:  # imported only for annotations, to avoid an import cycle
    from ..core.protocol import ProtocolConfig, ProtocolSpec
    from .simulation import RunResult


def batched_supported(spec: "ProtocolSpec", config: "ProtocolConfig") -> bool:
    """Whether a ``"batched"`` run of *spec* would take the batched path.

    True exactly when numpy is importable and *spec* builds plain
    :class:`ShiftingEIGProcessor` machines that decide at the end of their
    schedule (the Exponential Algorithm, Algorithms A and B), standalone
    :class:`AlgorithmCProcessor` machines, or :class:`HybridProcessor`
    machines.  Probing builds one processor, which is cheap (no rounds are
    run).
    """
    if not numpy_available():
        return False
    try:
        return _ProbeFacts(spec.build(config.source, config)).supported
    # repro-lint: waive[errors/broad-except] -- eligibility probe: a
    # protocol whose construction fails is simply not batchable, and the
    # serial path will surface the real error with full context
    except Exception:
        return False


class _ProbeFacts:
    """The phase plan the batched runner reads off one probe-built processor.

    Every supported run opens with the shift-schedule EIG phase (round 1
    stores the roots; *segment_ends* maps each conversion round to its
    segment).  Algorithm C and the hybrid then switch to an Algorithm C
    phase from round *c_first_round* on:

    * a decide-at-end :class:`ShiftingEIGProcessor` — EIG only;
    * a :class:`HybridProcessor` — its A→B schedule (run with
      ``decide_at_end=False``), then C from the round after the last B
      conversion, whose roots become the C trees' roots;
    * a standalone :class:`AlgorithmCProcessor` — round 1 only, then C.

    Built fresh per run — caching on the spec object would serve a stale
    schedule if a caller mutated the spec between runs, and building one
    processor costs microseconds (no rounds are run).
    """

    __slots__ = ("supported", "total_rounds", "segment_ends",
                 "enable_fault_discovery", "c_first_round", "c_round_offset",
                 "handoff_units", "source_units")

    def __init__(self, probe) -> None:
        kind = type(probe)
        self.supported = True
        self.enable_fault_discovery = True
        #: None: no Algorithm C phase.  Otherwise its first (global) round
        #: and the global − local round offset its messages are stamped with.
        self.c_first_round: Optional[int] = None
        self.c_round_offset = 0
        #: Meter units each participant pays when its C machine starts, and
        #: the units a correct source ends the run with.
        self.handoff_units = 0
        self.source_units = 0
        if kind is ShiftingEIGProcessor and probe.decide_at_end:
            self.total_rounds = probe.total_rounds
            self.segment_ends = probe.schedule.segment_end_rounds()
            self.enable_fault_discovery = probe.enable_fault_discovery
        elif kind is HybridProcessor:
            schedule = hybrid_schedule(probe.params)
            self.total_rounds = probe.total_rounds
            self.segment_ends = schedule.segment_end_rounds()
            self.c_first_round = schedule.total_rounds + 1
            # The first C-phase round is Algorithm C's local round 2.
            self.c_round_offset = schedule.total_rounds - 1
            # The hand-off reads the A→B preferred value and stores it as the
            # C root; the source's C machine stores its root too.
            self.handoff_units = 2
            self.source_units = 1
        elif kind is AlgorithmCProcessor and probe.first_round == 1:
            self.total_rounds = probe.total_rounds
            self.segment_ends = {}
            self.c_first_round = 2
        else:
            self.supported = False


def run_batched_if_supported(spec: "ProtocolSpec", config: "ProtocolConfig",
                             faulty_set: FrozenSet[ProcessorId],
                             adversary: Adversary,
                             seed: int) -> Optional["RunResult"]:
    """Run batched when the spec qualifies; ``None`` means "use the fallback".

    The support check happens *before* the adversary is bound, so a fallback
    leaves the adversary untouched for the per-processor driver.
    """
    if not numpy_available():
        return None
    if getattr(adversary, "batched_fallback_reason", None) is not None:
        # The strategy is not expressible as a claims-matrix edit (e.g. it
        # withholds deliveries from its own shadows, which are row-backed
        # here); the per-processor driver runs it with full shadow machines.
        return None
    probe = _ProbeFacts(spec.build(config.source, config))
    if not probe.supported:
        return None
    correct = [p for p in config.processors if p not in faulty_set]
    participants = [p for p in correct if p != config.source]
    if not participants:
        return None
    return _BatchedRun(spec, config, faulty_set, adversary, seed, probe,
                       correct, participants).run()


class _BroadcastTable(Mapping):
    """Lazy run-level broadcast table standing in for per-sender outboxes.

    Maps every correct pid to the outbox dict the per-processor driver would
    have built.  The built-in (shadow-based) adversaries never index it, so
    no per-destination dict is materialised; a custom adversary that does
    sees exactly the documented ``{dest: message}`` shape, built on demand
    and cached.
    """

    __slots__ = ("_messages", "_destinations", "_built")

    def __init__(self, messages: Dict[ProcessorId, Optional[Message]],
                 destinations: Tuple[ProcessorId, ...]) -> None:
        self._messages = messages
        self._destinations = destinations
        self._built: Dict[ProcessorId, Outbox] = {}

    def __getitem__(self, pid: ProcessorId) -> Outbox:
        message = self._messages[pid]
        outbox = self._built.get(pid)
        if outbox is None:
            if message is None:
                outbox = {}
            else:
                outbox = {dest: message for dest in self._destinations
                          if dest != pid}
            self._built[pid] = outbox
        return outbox

    def __iter__(self) -> Iterator[ProcessorId]:
        return iter(self._messages)

    def __len__(self) -> int:
        return len(self._messages)


class _ShadowSpecProxy:
    """The spec the adversary sees: builds row-backed shadow processors.

    Delegates everything to the real spec but intercepts ``build`` — once per
    faulty pid — to hand out :class:`_ShadowProcessor` views of the run's
    shadow rows.  Builds for non-faulty pids (or repeated builds) fall
    through to the real spec.  The proxy and the shadows hold the runner
    through a weak proxy: the runner holds the adversary, so strong
    references back would make every run a reference cycle, and its level
    stacks (which the adversary's messages view) would outlive the run
    until a full garbage collection.
    """

    __slots__ = ("_spec", "_runner")

    def __init__(self, spec, runner: "_BatchedRun") -> None:
        self._spec = spec
        self._runner = runner

    def build(self, pid: ProcessorId, config):
        shadow = self._runner.claim_shadow(pid, config)
        if shadow is not None:
            return shadow
        return self._spec.build(pid, config)

    def __getattr__(self, name):
        return getattr(self._spec, name)


class _ShadowProcessor:
    """One faulty processor's correct "shadow", backed by a stack row.

    Implements exactly the protocol surface
    :class:`~repro.adversary.base.ShadowAdversary` uses.  ``outgoing`` wraps
    the shadow's current row by reference (:meth:`_BatchedRun.relay_message`,
    byte-identical to what a per-processor shadow would broadcast);
    ``incoming`` is a no-op because the batched runner already steps the
    shadow rows — it *built* the faulty inboxes the adversary observes.
    """

    __slots__ = ("runner", "pid", "config", "row")

    def __init__(self, runner: "_BatchedRun", pid: ProcessorId, config,
                 row: Optional[int]) -> None:
        self.runner = runner
        self.pid = pid
        self.config = config
        self.row = row  # None for the source (it never relays tree levels)

    @property
    def total_rounds(self) -> int:
        return self.runner.total_rounds

    def outgoing(self, round_number: int) -> Outbox:
        config = self.config
        if round_number == 1:
            if self.pid != config.source:
                return {}
            # The source's round-1 broadcast, exactly as
            # ShiftingEIGProcessor builds it.
            return broadcast({(config.source,): config.initial_value},
                             self.pid, round_number, config.processors)
        if self.pid == config.source:
            return {}
        return broadcast_message(
            self.runner.relay_message(self.row, self.pid, round_number),
            config.processors)

    def incoming(self, round_number: int, inbox: Inbox) -> None:
        pass  # the batched runner steps the shadow rows itself

    def __getattr__(self, name):
        # Only reached for attributes outside the slots/protocol surface.
        raise AttributeError(
            f"row-backed shadow processor has no attribute {name!r}: in a "
            f"'batched' run shadows expose only the outgoing/incoming "
            f"protocol surface. An adversary that introspects deeper shadow "
            f"state should run on a per-processor engine (which builds full "
            f"protocol machines)")


class _BatchedRun:
    """One batched execution (see the module docstring)."""

    def __init__(self, spec, config, faulty_set, adversary, seed, probe,
                 correct, participants) -> None:
        from ..core.npsupport import (BatchedEIGState, CODE_DTYPE_NAME,
                                      VALUE_CODEC, require_numpy)
        self.np = require_numpy()
        self.spec = spec
        self.config = config
        self.faulty = faulty_set
        self.adversary = adversary
        self.seed = seed
        self.correct = correct
        #: correct processors holding trees (everyone but the source)
        self.participants = participants
        self.main_count = len(participants)
        #: faulty processors' shadow rows (the source's shadow is stateless)
        self.shadow_pids = [pid for pid in sorted(faulty_set)
                            if pid != config.source]
        self.row_pids = participants + self.shadow_pids
        self.count = len(self.row_pids)
        self.codec = VALUE_CODEC
        self.code_dtype = CODE_DTYPE_NAME
        self.index = sequence_index(config.source, config.processors, False)
        self.state = BatchedEIGState(self.index, self.count)
        self.trackers = [FaultTracker(pid, config.t) for pid in self.row_pids]
        shadow_meter = ComputationMeter()  # shared sink, never read
        self.meters = ([ComputationMeter() for _ in participants]
                       + [shadow_meter] * len(self.shadow_pids))
        self.discovery_logs: List[Dict[int, int]] = [{} for _ in participants]
        self.decisions: Dict[ProcessorId, object] = {}
        self.metrics = RunMetrics()
        self.total_rounds = probe.total_rounds
        self.segment_ends = probe.segment_ends
        self.enable_fault_discovery = probe.enable_fault_discovery
        self.c_first_round = probe.c_first_round
        self.c_round_offset = probe.c_round_offset
        self.handoff_units = probe.handoff_units
        self.source_units = probe.source_units
        self.source_correct = config.source not in faulty_set
        self.processor_set = set(config.processors)
        self.n = config.n
        self.domain_size = len(config.domain)
        self.domain_set = frozenset(v for v in config.domain
                                    if not is_bottom(v))
        self._domain_mask = None
        self._domain_mask_codes = -1
        self._claimed_shadows: Set[ProcessorId] = set()
        from .corruption import corruption_enabled
        self._corrupting = corruption_enabled(adversary)
        # claims-row template: column c → stack row of sender c's broadcast
        # (faulty/source/suspect columns are overridden per round); the
        # diagonal own-pid entries double as the echo rows.
        parts = self.np.asarray(participants, dtype=self.np.int64)
        self._row_indices = self.np.arange(self.count, dtype=self.np.int64)
        self._row_pids_arr = self.np.asarray(self.row_pids,
                                             dtype=self.np.int64)
        self._row_of_base = self.np.full((self.count, self.n), self.count,
                                         dtype=self.np.int64)
        if self.main_count:
            self._row_of_base[:, parts] = self._row_indices[:self.main_count]
        # For small runs the per-round row_of is assembled in plain python
        # (a handful of ndarray writes per row costs more than the whole
        # nested-list build).
        from ..core.npsupport import SMALL_KERNEL_ELEMENTS
        self._small_row_of = self.count * self.n <= SMALL_KERNEL_ELEMENTS
        self._row_of_base_py = self._row_of_base.tolist()
        #: Faulty senders whose messages rows read after round 1: no tree
        #: level below the root has an s-labelled child, except Algorithm
        #: C's, which echoes or masks it and never reads the source.
        self._relays = [pid for pid in sorted(faulty_set)
                        if pid != config.source]

    def domain_mask(self):
        """The code-level domain mask, rebuilt only when the codec grew."""
        if len(self.codec) != self._domain_mask_codes:
            self._domain_mask_codes = len(self.codec)
            self._domain_mask = self.codec.domain_mask(self.domain_set)
        return self._domain_mask

    def stack_codes(self, bottom: bool = False) -> List[int]:
        """The non-default codes the run's level stacks can hold, with
        ``⊥``'s if *bottom* (:func:`~repro.core.npsupport.stack_codes`)."""
        from ..core.npsupport import stack_codes
        return stack_codes(self.domain_mask(), bottom)

    def claim_shadow(self, pid: ProcessorId,
                     config) -> Optional[_ShadowProcessor]:
        """The row-backed shadow for *pid*, once; ``None`` → use the real spec."""
        if (pid not in self.faulty or pid in self._claimed_shadows
                or config is not self.config):
            return None
        self._claimed_shadows.add(pid)
        runner = weakref.proxy(self)
        if pid == config.source:
            return _ShadowProcessor(runner, pid, config, None)
        return _ShadowProcessor(
            runner, pid, config,
            self.main_count + self.shadow_pids.index(pid))

    # -- driver ----------------------------------------------------------------
    def run(self) -> "RunResult":
        self.adversary.bind(AdversaryContext(
            config=self.config,
            spec=_ShadowSpecProxy(self.spec, weakref.proxy(self)),
            faulty=self.faulty, seed=self.seed))
        c_first_round = self.c_first_round or self.total_rounds + 1
        for round_number in range(1, self.total_rounds + 1):
            self.metrics.record_round(round_number)
            if round_number == 1:
                self._round_one()
            elif round_number < c_first_round:
                self._round(round_number)
            else:
                self._c_round(round_number)
        return self._build_result()

    def _build_result(self) -> "RunResult":
        """Collect the per-participant observations into a :class:`RunResult`."""
        from .simulation import RunResult
        discovered: Dict[ProcessorId, Tuple[ProcessorId, ...]] = {}
        discovery_logs: Dict[ProcessorId, Dict[int, int]] = {}
        if self.source_correct:
            source = self.config.source
            discovered[source] = ()
            discovery_logs[source] = {}
            self.metrics.record_computation(source, self.source_units)
            self.metrics.record_discoveries(source, 0)
        for i, pid in enumerate(self.participants):
            discovered[pid] = tuple(sorted(self.trackers[i].suspects))
            discovery_logs[pid] = dict(self.discovery_logs[i])
            self.metrics.record_computation(pid, self.meters[i].units)
            self.metrics.record_discoveries(pid, len(discovered[pid]))
        return RunResult(
            protocol=self.spec.name,
            adversary=self.adversary.name,
            config=self.config,
            faulty=self.faulty,
            decisions=dict(self.decisions),
            rounds=self.total_rounds,
            metrics=self.metrics,
            discovered=discovered,
            discovery_logs=discovery_logs,
        )

    # -- rounds ----------------------------------------------------------------
    def _round_one(self) -> None:
        config = self.config
        source = config.source
        messages: Dict[ProcessorId, Optional[Message]] = {
            pid: None for pid in self.correct}
        if self.source_correct:
            messages[source] = Message.single(
                (source,), config.initial_value, source, 1)
        table = _BroadcastTable(messages, config.processors)
        faulty_outboxes = self._faulty_outboxes(1, table)
        roots = self._initial_roots(faulty_outboxes)
        if self.source_correct:
            self._charge_sender(1, source, entry_count=1, level=1)
            # The source decides in round 1 and halts (it never sends again).
            self.decisions[source] = config.initial_value
        self._install_roots(roots)
        self._observe_delivery(1, messages, faulty_outboxes)
        self._corrupt(1)

    def _initial_roots(self, faulty_outboxes: Dict[ProcessorId, Outbox]):
        """Every row's root code: the source's (claimed) value, coerced."""
        np = self.np
        config = self.config
        if self.source_correct:
            return np.full(self.count,
                           self.codec.code(config.initial_value),
                           dtype=self.code_dtype)
        roots = np.empty(self.count, dtype=self.code_dtype)
        source_outbox = faulty_outboxes.get(config.source, {})
        root_seq = (config.source,)
        for i, pid in enumerate(self.row_pids):
            message = source_outbox.get(pid)
            claimed = None if message is None else message.value_for(root_seq)
            roots[i] = self.codec.code(coerce_value(claimed, config.domain))
        return roots

    def _install_roots(self, roots) -> None:
        self.state.set_roots(roots)
        for i in range(self.main_count):
            self.meters[i].charge()  # set_root stores one node

    def _round_broadcasts(self, round_number: int, prev_level: int
                          ) -> Dict[ProcessorId, Optional[Message]]:
        """Every correct participant's whole-round broadcast, by row reference."""
        messages: Dict[ProcessorId, Optional[Message]] = {
            pid: None for pid in self.correct}
        for i, pid in enumerate(self.participants):
            messages[pid] = NumpyLevelMessage(
                self.index, prev_level, self.state.row_view(prev_level, i),
                pid, round_number)
        return messages

    def _record_round_messages(self, round_number: int, prev_level: int,
                               prev_size: int) -> None:
        deliveries = self.n - 1
        round_entries = deliveries * prev_size
        round_bits = round_entries * entry_bits(prev_level, self.domain_size,
                                                self.n)
        for pid in self.participants:
            self.metrics.record_messages(round_number, pid, deliveries,
                                         round_entries, round_bits)

    def relay_message(self, row: int, pid: ProcessorId,
                      round_number: int) -> Message:
        """Row *row*'s whole-round broadcast, by row reference.

        Exactly what the row's per-processor numpy machine sends: its top
        level, except that the C phase opens with the root as a one-entry
        message and then relays level 2.  C-phase messages carry Algorithm
        C's local round number, as a hybrid's embedded C machine stamps them.
        """
        state = self.state
        if not self.index.allow_repetitions:
            level = state.num_levels
            return NumpyLevelMessage(self.index, level,
                                     state.row_view(level, row), pid,
                                     round_number)
        local_round = round_number - self.c_round_offset
        if state.num_levels == 1:
            root = self.codec.value(int(state.raw_stack(1)[row, 0]))
            return Message.single((self.config.source,), root, pid,
                                  local_round)
        return NumpyLevelMessage(self.index, 2, state.row_view(2, row), pid,
                                 local_round)

    def _round(self, round_number: int) -> None:
        from ..core import npsupport
        prev_level = self.state.num_levels
        messages = self._round_broadcasts(round_number, prev_level)
        segment = self.segment_ends.get(round_number)
        # The level a conversion consumes is counted, not gathered — unless
        # its stack is small: below 16× the scalar crossover the count
        # kernel's extra ndarray calls cost more than the gather and the
        # stack votes they replace.
        leaves = (self.count * self.index.level_size(prev_level)
                  * self.index.branch(prev_level))
        faulty_outboxes, counts = self._gather_round(
            round_number, messages, counted=segment is not None
            and leaves > 16 * npsupport.SMALL_KERNEL_ELEMENTS)
        if segment is not None:
            self._convert(round_number, segment, counts)
        self._observe_delivery(round_number, messages, faulty_outboxes)
        self._corrupt(round_number)

    def _c_round(self, round_number: int) -> None:
        """One Algorithm C round over every row.

        The first C round hands each row's root to a repetition-index state
        and gathers the intermediate level ``(s, q)`` from root broadcasts.
        Every later round gathers the ``n · n`` leaves from the level-2
        broadcasts, runs the Fault Discovery/Masking fixpoint, and applies
        ``shift_{3→2}``; the last round decides ``resolve(s)``.
        """
        if round_number == self.c_first_round:
            self._enter_c_phase()
        messages: Dict[ProcessorId, Optional[Message]] = {
            pid: None for pid in self.correct}
        for i, pid in enumerate(self.participants):
            messages[pid] = self.relay_message(i, pid, round_number)
        faulty_outboxes, _ = self._gather_round(round_number, messages)
        if self.state.num_levels == 3:
            self._shift_intermediate()
        if round_number == self.total_rounds:
            self._decide_c()
        self._observe_delivery(round_number, messages, faulty_outboxes)
        self._corrupt(round_number)

    def _enter_c_phase(self) -> None:
        """Hand every row's root to an Algorithm C tree (repetition index)."""
        from ..core.npsupport import BatchedEIGState
        roots = self.state.raw_stack(1)[:, 0]
        config = self.config
        self.index = sequence_index(config.source, config.processors, True)
        self.state = BatchedEIGState(self.index, self.count)
        self.state.set_roots(roots)
        # Silent-source substitution: every s-labelled child reads the row's
        # own stored value, like its own label, until s ∈ L_p sends it to the
        # default row.
        self._row_of_base[:, config.source] = self._row_indices
        self._row_of_base_py = self._row_of_base.tolist()
        for i in range(self.main_count):
            # The hand-off, plus the root read of the first C broadcast.
            self.meters[i].charge(self.handoff_units + 1)

    def _shift_intermediate(self) -> None:
        """Reorder every row's leaves and apply ``shift_{3→2}``.

        After ``tree(spq) ↔ tree(sqp)`` — a per-row ``n × n`` transpose — the
        window under ``(s, q)`` holds ``q``'s reports, and the shared vote
        kernel converts every window of every row at once.  Each row is
        charged what its per-processor machine pays: ``n²`` for the reorder,
        ``3n²`` plus ``n`` stores for the shift, and the ``resolve(s)`` of
        its preferred-value log.
        """
        n = self.n
        leaves = self.state.raw_stack(3)
        reordered = leaves.reshape(self.count, n, n).transpose(0, 2, 1)
        level2 = shift_intermediate_codes(
            reordered.reshape(self.count, n * n), n)
        self.state.truncate_to_level(1)
        self.state.append_level(level2)
        # resolve(s) over the two-level tree: two units per leaf, one per
        # child of the root.
        preference = 3 * n
        charge = 4 * n * n + n + preference
        for i in range(self.main_count):
            self.meters[i].charge(charge)

    def _decide_c(self) -> None:
        """``shift_{2→1}``: every row decides ``resolve(s)``."""
        levels, charge = batched_resolve_levels(self.state, "resolve",
                                                self.config.t,
                                                self.stack_codes())
        roots = levels[0][:, 0]
        for i in range(self.main_count):
            self.meters[i].charge(charge + 1)  # + reset_to_root's store
            self.decisions[self.participants[i]] = self.codec.value(
                int(roots[i]))

    def _gather_round(self, round_number: int,
                      messages: Dict[ProcessorId, Optional[Message]],
                      counted: bool = False
                      ) -> Tuple[Dict[ProcessorId, Outbox],
                                 Optional[ChildCounts]]:
        """Deliver one round into every row.

        Collects the adversary's messages against the correct *messages*,
        records the round's message metrics, gathers the new level, and runs
        the Fault Discovery/Masking fixpoint over it.  A *counted* level —
        the one a conversion consumes — is counted instead of gathered.
        Returns the faulty outboxes and the level's counts (``None`` when it
        was gathered).
        """
        np = self.np
        prev_level = self.state.num_levels
        prev_size = self.index.level_size(prev_level)
        table = _BroadcastTable(messages, self.config.processors)
        faulty_outboxes = self._faulty_outboxes(round_number, table)
        self._record_round_messages(round_number, prev_level, prev_size)

        # One claims row per distinct claim vector of the round: the previous
        # level stack itself (serving echoes and every correct broadcast),
        # an all-default row (missing or masked senders), and one row per
        # distinct faulty message.
        level = prev_level + 1
        default_idx = self.count
        # row_of rows support both layouts: nested python lists (small runs)
        # and ndarray row views — the faulty-message loop writes through
        # ``rows[i][sender]`` either way.
        if self._small_row_of:
            row_of_rows = [row[:] for row in self._row_of_base_py]
            for i, tracker in enumerate(self.trackers):
                suspects = tracker.suspects
                if suspects:
                    row = row_of_rows[i]
                    for pid in suspects:
                        row[pid] = default_idx
            for i in range(self.count):
                # A processor's own child slots echo its own stored values
                # even under (theoretical) self-suspicion — echo precedes the
                # masking check in the per-processor gather.
                row_of_rows[i][self.row_pids[i]] = i
        else:
            row_of_rows = self._row_of_base.copy()
            for i, tracker in enumerate(self.trackers):
                suspects = tracker.suspects
                if suspects:
                    row_of_rows[i, list(suspects)] = default_idx
            row_of_rows[self._row_indices, self._row_pids_arr] = (
                self._row_indices)
        extra_rows: List[object] = []
        row_cache: Dict[int, int] = {}
        for sender in self._relays:
            outbox = faulty_outboxes.get(sender)
            if not outbox:
                continue
            for i, pid in enumerate(self.row_pids):
                if pid == sender or sender in self.trackers[i]:
                    continue  # masked sender: every claim becomes the default
                message = outbox.get(pid)
                if message is None:
                    continue
                row_idx = row_cache.get(id(message))
                if row_idx is None:
                    row_idx = default_idx + 1 + len(extra_rows)
                    extra_rows.append(
                        self._claim_row(message, prev_level, prev_size))
                    row_cache[id(message)] = row_idx
                row_of_rows[i][sender] = row_idx
        row_of = (np.asarray(row_of_rows, dtype=np.int64)
                  if self._small_row_of else row_of_rows)
        from ..core.npsupport import (DEFAULT_CODE, LARGE_LEVEL_ELEMENTS,
                                      fresh, scratch)
        # The claims matrix lives until the round's conversion at most, so
        # a large level's is a reused per-thread buffer.
        child_codes = self.count * (prev_size * self.index.branch(prev_level)
                                    if counted else
                                    self.index.level_size(level))
        buffer = scratch if child_codes > LARGE_LEVEL_ELEMENTS else fresh
        claims = buffer("round.claims",
                        (default_idx + 1 + len(extra_rows), prev_size),
                        self.code_dtype)
        claims[:default_idx] = self.state.raw_stack(prev_level)
        claims[default_idx] = DEFAULT_CODE
        for k, row in enumerate(extra_rows, start=default_idx + 1):
            claims[k] = row

        # Each participant pays what gather_level_numpy charges: one unit per
        # stored node plus the echo pass over its own label's slots.
        counts = None
        if counted:
            counts = ChildCounts(self.index, prev_level, claims, row_of,
                                 default_idx, self.domain_mask())
            level_size = counts.parents_size * counts.branch
            own_slots = [counts.slot_counts[pid] for pid in self.participants]
        else:
            gather_level_batched(self.state, level, claims, row_of,
                                 self.domain_mask())
            level_size = self.index.level_size(level)
            slots_table = self.index.slots_np(level)
            own_slots = [len(slots_table[pid][0]) for pid in self.participants]
        for i in range(self.main_count):
            self.meters[i].charge(level_size + own_slots[i])
        if self.index.allow_repetitions:
            # Algorithm C's silent-source substitution echoes too.
            source = self.config.source
            echoed = len(slots_table[source][0])
            for i in range(self.main_count):
                if source not in self.trackers[i]:
                    self.meters[i].charge(echoed)

        if self.enable_fault_discovery:
            newly = discover_and_mask_batched(self.state, level,
                                              self.trackers, round_number,
                                              self.meters, self.stack_codes(),
                                              counts=counts)
            for i in range(self.main_count):
                if newly[i]:
                    log = self.discovery_logs[i]
                    log[round_number] = (log.get(round_number, 0)
                                        + len(newly[i]))
        return faulty_outboxes, counts

    def _corrupt(self, round_number: int) -> None:
        """Run the adversary's state-corruption hook over the main rows.

        Invoked at the same point of the round as the per-processor driver —
        after every delivery and conversion, before the next round's
        broadcasts wrap the row views — over the same population (correct
        non-source participants; shadow rows are the adversary's own and are
        not exposed).
        """
        if not self._corrupting:
            return
        if self.c_first_round is not None:
            # C and hybrid machines expose no corruption surface
            # (tree_state_views), so the hook sees no views.
            self.adversary.corrupt_state(round_number, {})
            return
        from .corruption import BatchedRowStateView
        level = self.state.num_levels
        stack = self.state.raw_stack(level)
        views = {pid: BatchedRowStateView(pid, level, stack[i])
                 for i, pid in enumerate(self.participants)}
        self.adversary.corrupt_state(round_number, views)

    def _convert(self, round_number: int, segment,
                 counts: Optional[ChildCounts]) -> None:
        """``shift_{k→1}`` for every row, from the leaf *counts* if counted.

        The resolve votes, the Fault Discovery Rule During Conversion, the
        reset to fresh roots, the final-round decisions, and the exact
        per-processor meter charges.  Shadow rows ride along, charging the
        shared sink.
        """
        from ..core.npsupport import BOTTOM_CODE, DEFAULT_CODE
        t = self.config.t
        levels, charge = batched_resolve_levels(self.state, segment.conversion,
                                                t, self.stack_codes(),
                                                bottom=counts)
        for i in range(self.main_count):
            self.meters[i].charge(charge)
        if segment.conversion_discovery and self.enable_fault_discovery:
            fresh_sets = discover_during_conversion_batched(
                self.index, levels, len(levels),
                [tracker.suspects for tracker in self.trackers], t,
                self.meters,
                self.stack_codes(segment.conversion == "resolve_prime"),
                bottom=counts)
            for i, fresh in enumerate(fresh_sets):
                added = self.trackers[i].add_all(fresh, round_number)
                if added and i < self.main_count:
                    log = self.discovery_logs[i]
                    log[round_number] = log.get(round_number, 0) + len(added)
        roots = levels[0][:, 0]
        roots = self.np.where(roots == BOTTOM_CODE, DEFAULT_CODE, roots)
        self.state.reset_to_roots(roots)
        for i in range(self.main_count):
            self.meters[i].charge()  # reset_to_root stores one node
        if round_number == self.total_rounds:
            for i, pid in enumerate(self.participants):
                self.decisions[pid] = self.codec.value(int(roots[i]))

    # -- adversary plumbing -----------------------------------------------------
    def _faulty_outboxes(self, round_number: int,
                         table: _BroadcastTable) -> Dict[ProcessorId, Outbox]:
        """Collect, validate, and stamp the adversary's round messages.

        Performs the same checks — and raises the same
        :class:`SimulationError`\\ s — as the per-processor driver plus the
        synchronous network: no messages from non-faulty senders, no unknown
        destinations, no non-message payloads, no double delivery.
        """
        produced = self.adversary.round_messages(round_number, table)
        illegal = set(produced) - self.faulty
        if illegal:
            raise SimulationError(
                f"adversary produced messages for non-faulty processors "
                f"{sorted(illegal)}")
        normalized: Dict[ProcessorId, Outbox] = {}
        for sender, outbox in produced.items():
            clean: Outbox = {}
            for dest, message in outbox.items():
                if dest not in self.processor_set:
                    raise SimulationError(
                        f"message from {sender} addressed to unknown "
                        f"processor {dest}")
                if dest == sender:
                    continue
                if not isinstance(message, Message):
                    raise SimulationError(
                        f"sender {sender} produced a non-message payload "
                        f"for {dest}")
                if dest in clean:
                    raise SimulationError(
                        f"sender {sender} delivered twice to {dest} "
                        f"in round {round_number}")
                clean[dest] = stamp_sender(message, sender)
            normalized[sender] = clean
        return normalized

    def _claim_row(self, message: Message, prev_level: int, prev_size: int):
        """Encode one faulty message as a claims row (codes, index order).

        Aligned :class:`NumpyLevelMessage` broadcasts are taken by reference;
        anything else (round-1-style or adversary-built dict messages,
        cross-engine layouts) is decoded entry by entry — entries that name
        no node of the previous level are dropped and missing slots stay
        ``MISSING_CODE``, so the domain mask reproduces the per-processor
        foreign-layout fallback exactly.
        """
        if isinstance(message, NumpyLevelMessage) and message.matches(
                self.index, prev_level):
            return message.level_codes()
        from ..core.npsupport import MISSING_CODE
        row = self.np.full(prev_size, MISSING_CODE, dtype=self.code_dtype)
        id_map = self.index.id_map(prev_level)
        code_of = self.codec.code
        for seq, value in message.items():
            node_id = id_map.get(seq)
            if node_id is not None:
                row[node_id] = code_of(value)
        return row

    def _observe_delivery(self, round_number: int,
                          correct_messages: Dict[ProcessorId,
                                                 Optional[Message]],
                          faulty_outboxes: Dict[ProcessorId, Outbox]) -> None:
        """Hand the faulty processors' inboxes to the adversary.

        Builds the same per-faulty-pid ``{sender: message}`` dicts the
        network would have delivered (correct broadcasts first, then faulty
        senders in production order).  Row-backed shadows ignore them — the
        runner already stepped the shadow rows from the same messages — but
        a custom adversary's ``observe_delivery`` sees the full picture.
        """
        adversary = self.adversary
        observe = type(adversary).observe_delivery
        if observe is Adversary.observe_delivery or (
                observe is ShadowAdversary.observe_delivery
                and self._claimed_shadows >= self.faulty):
            # Provably a no-op: the base hook ignores its argument, and the
            # shadow hook only feeds shadows — all of which are row-backed
            # (their incoming() does nothing).  Skip building the inboxes.
            return
        if not self.faulty:
            adversary.observe_delivery(round_number, {})
            return
        inboxes: Dict[ProcessorId, Dict[ProcessorId, Message]] = {}
        for faulty_pid in self.faulty:
            inbox: Dict[ProcessorId, Message] = {}
            for pid in self.correct:
                message = correct_messages.get(pid)
                if message is not None:
                    inbox[pid] = message
            for sender, outbox in faulty_outboxes.items():
                message = outbox.get(faulty_pid)
                if message is not None:
                    inbox[sender] = message
            inboxes[faulty_pid] = inbox
        self.adversary.observe_delivery(round_number, inboxes)

    # -- metrics ----------------------------------------------------------------
    def _charge_sender(self, round_number: int, pid: ProcessorId,
                       entry_count: int, level: int) -> None:
        """Charge one correct sender's whole-round broadcast to the metrics.

        A broadcast reaches the ``n − 1`` other processors with *entry_count*
        entries of path length *level* each — the exact per-delivery totals
        the network records for a shared :class:`LevelMessage`.
        """
        deliveries = self.n - 1
        bits = entry_count * entry_bits(level, self.domain_size, self.n)
        self.metrics.record_messages(round_number, pid, deliveries,
                                     deliveries * entry_count,
                                     deliveries * bits)
