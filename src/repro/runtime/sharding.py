"""Sharded whole-run stepping: one batched run split across worker processes.

The batched executor (:mod:`.batched`) already steps every correct processor
— and every adversary shadow — of a run as one ``(rows, nodes)`` ndarray per
level, in cache-sized row blocks — but one process is the ceiling on how
much silicon a single run can use.  This module splits the row stack
itself: a **coordinator** keeps the run's control plane — the adversary, the
shadows' outgoing broadcasts, message metrics, and a mirror of the full
:class:`~repro.core.npsupport.BatchedEIGState` — while ``k`` **worker
processes** each own a contiguous block of rows and run the round kernels
(gather, the Fault Discovery/Masking fixpoint, conversion) over their block
only.

Per round the coordinator and the shards exchange exactly two payloads of
serialized code ndarrays:

* coordinator → every shard: the round's **claims matrix** (the previous
  level stack — a correct broadcast *is* the sender's row — plus the
  all-default row and one row per distinct faulty message), the per-row
  faulty-claim routing, and any values newly interned in the process-wide
  value codec (workers replay them with
  :meth:`~repro.core.npsupport.ValueCodec.adopt`, so codes decode
  identically on both sides);
* every shard → coordinator: its block of the new leaf level, post-masking
  (or the fresh roots after a conversion round) — one gather per shard per
  round, which the coordinator concatenates back into the mirror stack that
  feeds the next round's broadcasts and claims.

Observational identity to the single-process batched engine is exact, by
construction: the adversary runs **unchanged in the coordinator** (same
broadcast table, same row-backed shadows over the mirror stack, same rng
draw order — seeded liars reproduce byte-identically), and every kernel the
workers run is row-independent (each row's gather routing, discovery
fixpoint, meter charges, and conversion votes read only that row plus the
shared claims), so partitioning the rows cannot change any row's outcome.
The property tests in ``tests/test_sharding.py`` pin decisions, discoveries,
discovery logs, per-round message stats, computation units, and seeded-liar
reproducibility against the batched engine at small ``n``.

Eligibility is the batched executor's (numpy importable; plain
:class:`~repro.core.shifting.ShiftingEIGProcessor` specs, Algorithm C, and
the hybrid); :func:`run_sharded_if_supported` answers ``None`` for
everything else.  Only the EIG-only runs are split: Algorithm C and hybrid
runs, corruption-hook adversaries, and degenerate splits (one shard, fewer
rows than shards, platforms that cannot spawn processes) take the
single-process batched run.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import Dict, List, Optional, Tuple

from ..core.engine import NUMPY, numpy_available, use_engine
from ..core.fault_discovery import FaultTracker
from ..core.fault_masking import (discover_and_mask_batched,
                                  gather_level_batched)
from ..core.sequences import ProcessorId, sequence_index
from ..core.values import is_bottom
from .batched import (_BatchedRun, _BroadcastTable, _ProbeFacts,
                      convert_stacked_rows)
from .chaos import current_chaos
from .errors import (SimulationError, WorkerDiedError, WorkerShutdownError,
                     WorkerTimeoutError)
from .metrics import ComputationMeter

#: Payload tags of the coordinator → worker protocol.
_ROUND_ONE, _ROUND, _FINISH, _STOP = "round1", "round", "finish", "stop"
#: Heartbeat: the coordinator pings, a live worker answers ``("ok", "pong")``.
_PING = "ping"

#: Per-stage grace (seconds) of the shutdown escalation: a worker that has
#: not exited *join* seconds after STOP is terminated; one that survives
#: SIGTERM another *term* seconds is killed; surviving SIGKILL for *kill*
#: seconds more raises :class:`WorkerShutdownError` instead of hanging.
_SHUTDOWN_GRACE = (1.0, 1.0, 2.0)


def shard_supported(spec, config) -> bool:
    """Whether a run of *spec* could take the sharded path (batched eligibility)."""
    from .batched import batched_supported
    return batched_supported(spec, config)


def run_sharded_if_supported(spec, config, faulty_set, adversary, seed: int,
                             shards: Optional[int] = None,
                             deadline: Optional[float] = None):
    """Run one agreement instance row-sharded; ``None`` means "use a fallback".

    Mirrors :func:`repro.runtime.batched.run_batched_if_supported`: support
    is checked *before* the adversary is bound, so a ``None`` return leaves
    the adversary untouched for whichever driver the caller falls back to.
    Degenerate splits (``shards <= 1`` after clamping to the row count) run
    the single-process batched executor instead — same observations, no
    worker processes.

    *deadline* (seconds, per worker reply) arms the supervision guards: a
    heartbeat handshake after spawn, and a bounded wait on every round
    reply — a worker that hangs past it raises a named
    :class:`~repro.runtime.errors.WorkerTimeoutError` instead of stalling
    the coordinator forever.  ``None`` (the default) keeps the historical
    blocking behaviour.
    """
    if not numpy_available():
        return None
    if getattr(adversary, "batched_fallback_reason", None) is not None:
        return None  # not expressible batched at all — per-processor fallback
    probe = _ProbeFacts(spec.build(config.source, config))
    if not probe.supported:
        return None
    correct = [p for p in config.processors if p not in faulty_set]
    participants = [p for p in correct if p != config.source]
    if not participants:
        return None
    from .corruption import corruption_enabled
    if corruption_enabled(adversary) or probe.c_first_round is not None:
        # State corruption edits rows in place; the sharded workers own their
        # row blocks while the coordinator keeps a mirror stack, so in-place
        # edits would desync them.  An Algorithm C phase (C, the hybrid)
        # steps kernels the shard protocol does not ship, over stacks of at
        # most n·n codes a row.  The single-process batched run is
        # observationally identical.
        with use_engine(NUMPY):
            return _BatchedRun(spec, config, faulty_set, adversary, seed,
                               probe, correct, participants).run()
    rows = len(participants) + sum(1 for p in faulty_set
                                   if p != config.source)
    if shards is None:
        shards = multiprocessing.cpu_count()
    shards = max(1, min(int(shards), rows))
    with use_engine(NUMPY):
        if shards <= 1:
            return _BatchedRun(spec, config, faulty_set, adversary, seed,
                               probe, correct, participants).run()
        runner = _ShardedRun(spec, config, faulty_set, adversary, seed,
                             probe, correct, participants, shards,
                             deadline=deadline)
        try:
            runner.start_workers()
        except (OSError, PermissionError):  # pragma: no cover - sandboxes
            runner.shutdown()
            return _BatchedRun(spec, config, faulty_set, adversary, seed,
                               probe, correct, participants).run()
        try:
            return runner.run()
        finally:
            runner.shutdown()


class _ShardedRun(_BatchedRun):
    """The coordinator: the batched run with its row stepping delegated.

    Inherits every piece of the batched run's control plane unchanged — the
    adversary plumbing (:meth:`_faulty_outboxes`, the lazy broadcast table,
    :meth:`_observe_delivery`), the row-backed shadow processors (they wrap
    rows of the coordinator's *mirror* stack), metrics accounting, and the
    result assembly — and overrides only where stepping happens:
    :meth:`_install_roots` and :meth:`_round` ship payloads to the shard
    workers instead of running the kernels, and :meth:`_build_result`
    collects each worker's trackers/logs/meters/decisions.
    """

    def __init__(self, spec, config, faulty_set, adversary, seed, probe,
                 correct, participants, shards: int,
                 deadline: Optional[float] = None) -> None:
        super().__init__(spec, config, faulty_set, adversary, seed, probe,
                         correct, participants)
        from ..core.npsupport import shard_bounds
        self.bounds = shard_bounds(self.count, shards)
        self.shards = len(self.bounds)
        self.deadline = deadline
        #: Shard 0 runs in-process (the coordinator already holds the full
        #: mirror, so stepping its own block costs no claims shipment —
        #: halving IPC for the common two-shard split); shards 1.. are
        #: worker processes.
        self._local_shard: Optional[_ShardWorker] = None
        self._conns: List[object] = []
        self._procs: List[object] = []
        self._codec_sent = 1

    # -- worker lifecycle ---------------------------------------------------
    def _shard_init(self, start: int, stop: int,
                    shard_index: int) -> Dict[str, object]:
        config = self.config
        controller = current_chaos()
        return {
            "source": config.source,
            "processors": tuple(config.processors),
            "n": self.n,
            "t": config.t,
            "domain": tuple(config.domain),
            "participants": list(self.participants),
            "row_pids": self.row_pids[start:stop],
            "row_start": start,
            "main_count": self.main_count,
            "count": self.count,
            "total_rounds": self.total_rounds,
            "segment_ends": self.segment_ends,
            "enable_fault_discovery": self.enable_fault_discovery,
            "chaos": (controller.take_for_shard(shard_index)
                      if controller is not None else []),
        }

    def start_workers(self) -> None:
        context = multiprocessing.get_context()
        for shard_index, (start, stop) in enumerate(self.bounds[1:], 1):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(child_conn, self._shard_init(start, stop, shard_index)),
                daemon=True)
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)
        # Built after the spawns so fork-started workers do not inherit it.
        self._local_shard = _ShardWorker(self._shard_init(*self.bounds[0], 0))
        if self.deadline is not None:
            self.heartbeat()

    def heartbeat(self) -> None:
        """Ping every worker and await its reply within the deadline.

        The supervision handshake: catches workers that died on spawn (bad
        import, immediate OOM kill) before the first round ships, and gives
        tests a liveness probe.  Raises the same named errors as a round
        reply would.
        """
        self._send_all([(_PING,)] * len(self._conns))
        self._recv_all()

    def shutdown(self) -> None:
        """Escalating teardown: STOP → join → terminate → kill → named error.

        Never hangs: each stage waits a bounded grace
        (:data:`_SHUTDOWN_GRACE`), exited workers are reaped, and a worker
        that somehow survives SIGKILL surfaces as a
        :class:`WorkerShutdownError` instead of a stuck coordinator.
        """
        join_grace, term_grace, kill_grace = _SHUTDOWN_GRACE
        for conn in self._conns:
            try:
                conn.send((_STOP,))
            except (OSError, BrokenPipeError):
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        stragglers = []
        for process in self._procs:
            process.join(timeout=join_grace)
            if process.is_alive():
                process.terminate()
                process.join(timeout=term_grace)
            if process.is_alive():  # pragma: no cover - needs SIGTERM immunity
                process.kill()
                process.join(timeout=kill_grace)
            if process.is_alive():  # pragma: no cover - unkillable worker
                stragglers.append(process.pid)
            else:
                try:
                    process.close()  # reap: releases the zombie entry
                except ValueError:  # pragma: no cover - raced an exit
                    pass
        self._conns = []
        self._procs = []
        if stragglers:  # pragma: no cover - unkillable worker
            raise WorkerShutdownError(
                f"shard worker process(es) {stragglers} survived "
                f"terminate and kill; abandoning them un-reaped")

    # -- shard messaging ----------------------------------------------------
    def _codec_update(self) -> Tuple[int, list]:
        """The codec slice interned since the last shipment."""
        start = self._codec_sent
        values = self.codec.snapshot(start)
        self._codec_sent = start + len(values)
        return start, values

    def _send_all(self, payloads, round_number: Optional[int] = None) -> None:
        controller = current_chaos()
        for offset, (conn, payload) in enumerate(zip(self._conns, payloads)):
            shard = offset + 1
            if controller is not None and round_number is not None:
                for fault in controller.take("shard-send", shard=shard,
                                             round=round_number):
                    if fault.kind == "pipe-close":
                        try:
                            conn.close()
                        except OSError:
                            pass
                    elif fault.kind == "pipe-corrupt":
                        payload = ("chaos-corrupted-payload",)
            try:
                conn.send(payload)
            except (OSError, BrokenPipeError, ValueError) as exc:
                raise WorkerDiedError(
                    f"pipe to shard worker {shard} is closed: {exc}"
                ) from exc

    def _recv_all(self) -> List[object]:
        replies = []
        for offset, conn in enumerate(self._conns):
            shard = offset + 1
            if self.deadline is not None:
                try:
                    ready = conn.poll(self.deadline)
                except (OSError, EOFError) as exc:
                    raise WorkerDiedError(
                        f"shard worker {shard} died mid-round: {exc}"
                    ) from exc
                if not ready:
                    raise WorkerTimeoutError(
                        f"shard worker {shard} missed its "
                        f"{self.deadline:g}s reply deadline")
            try:
                status, payload = conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerDiedError(
                    f"shard worker {shard} died mid-round: {exc}") from exc
            if status != "ok":
                raise SimulationError(
                    f"sharded run worker failed:\n{payload}")
            replies.append(payload)
        return replies

    # -- overridden stepping -------------------------------------------------
    def _install_roots(self, roots) -> None:
        # Mirror first (shadow broadcasts wrap mirror rows), then the shards.
        self.state.set_roots(roots)
        start, values = self._codec_update()
        self._send_all([(_ROUND_ONE, roots[lo:hi], start, values)
                        for lo, hi in self.bounds[1:]], round_number=1)
        self._local_shard.round_one(roots[self.bounds[0][0]:
                                          self.bounds[0][1]])
        self._recv_all()

    def _round(self, round_number: int) -> None:
        np = self.np
        prev_level = self.state.num_levels
        prev_size = self.index.level_size(prev_level)
        messages = self._round_broadcasts(round_number, prev_level)
        table = _BroadcastTable(messages, self.config.processors)
        faulty_outboxes = self._faulty_outboxes(round_number, table)
        self._record_round_messages(round_number, prev_level, prev_size)

        # The claims matrix: previous level stack + the all-default row +
        # one row per distinct faulty message.  Unlike the single-process
        # round, rows are deduplicated per message object *without* the
        # receiver-side masking check (the coordinator holds no trackers);
        # workers drop routings whose sender their row already masks, so a
        # claims row every receiver masks simply goes unread.
        default_idx = self.count
        extra_rows: List[object] = []
        row_cache: Dict[int, int] = {}
        routing: List[Dict[ProcessorId, int]] = [{} for _ in
                                                 range(self.count)]
        for sender in sorted(self.faulty):
            outbox = faulty_outboxes.get(sender)
            if not outbox:
                continue
            for i, pid in enumerate(self.row_pids):
                if pid == sender:
                    continue  # own child slots echo the shadow's stored values
                message = outbox.get(pid)
                if message is None:
                    continue
                row_idx = row_cache.get(id(message))
                if row_idx is None:
                    row_idx = default_idx + 1 + len(extra_rows)
                    extra_rows.append(
                        self._claim_row(message, prev_level, prev_size))
                    row_cache[id(message)] = row_idx
                routing[i][sender] = row_idx
        from ..core.npsupport import DEFAULT_CODE
        prev_stack = self.state.raw_stack(prev_level)
        default_row = np.full((1, prev_size), DEFAULT_CODE,
                              dtype=prev_stack.dtype)
        stacks = [prev_stack, default_row]
        if extra_rows:
            stacks.append(np.stack(extra_rows))
        claims = np.ascontiguousarray(np.concatenate(stacks))

        start, values = self._codec_update()
        self._send_all([(_ROUND, round_number, claims, routing[lo:hi],
                         start, values) for lo, hi in self.bounds[1:]],
                       round_number=round_number)
        # Step the coordinator's own block while the workers chew theirs.
        local_block = self._local_shard.round(
            round_number, claims, routing[self.bounds[0][0]:
                                          self.bounds[0][1]])
        blocks = [local_block] + self._recv_all()
        assembled = np.concatenate(blocks)
        if round_number in self.segment_ends:
            self.state.reset_to_roots(assembled)
        else:
            self.state.append_level(assembled)
        self._observe_delivery(round_number, messages, faulty_outboxes)

    def _build_result(self):
        self._send_all([(_FINISH,)] * (self.shards - 1))
        per_participant = [None] * self.main_count
        finals = [self._local_shard.finish()] + self._recv_all()
        for final in finals:
            for global_row, suspects, log, units in final["mains"]:
                per_participant[global_row] = (suspects, log, units)
            self.decisions.update(final["decisions"])
        return self._assemble_result(per_participant)


# ---------------------------------------------------------------------------
# The worker side: pure kernel execution over one contiguous row block.
# ---------------------------------------------------------------------------

def _shard_worker_main(conn, init) -> None:  # pragma: no cover - subprocess
    """Worker process entry point: serve round payloads until stopped."""
    try:
        shard = _ShardWorker(init, in_subprocess=True)
        while True:
            try:
                payload = conn.recv()
            except EOFError:
                return
            kind = payload[0] if isinstance(payload, tuple) and payload \
                else payload
            if kind == _ROUND_ONE:
                _, roots, start, values = payload
                shard.adopt_codec(start, values)
                shard.round_one(roots)
                conn.send(("ok", None))
            elif kind == _ROUND:
                _, round_number, claims, routing, start, values = payload
                shard.adopt_codec(start, values)
                conn.send(("ok", shard.round(round_number, claims, routing)))
            elif kind == _FINISH:
                conn.send(("ok", shard.finish()))
            elif kind == _PING:
                conn.send(("ok", "pong"))
            elif kind == _STOP:
                return
            else:
                # An unrecognised payload (e.g. a corrupted pipe) is an
                # error the coordinator must see, never a silent exit that
                # would leave it waiting on a vanished worker.
                raise SimulationError(
                    f"shard worker received an unintelligible payload: "
                    f"{kind!r}")
    # repro-lint: waive[errors/broad-except] -- worker-process top level:
    # the traceback is shipped over the pipe as an ("error", ...) payload
    # so the coordinator fail-stops with the real cause
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, BrokenPipeError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _ShardWorker:
    """One worker's state: a row block stepped with the batched kernels.

    Holds the local :class:`BatchedEIGState` (``local_count`` rows), the
    local trackers/meters/logs, and the gather routing table.  Claims-row
    indices stay **global** (the claims matrix always ships whole), so the
    routing base maps sender pid → the sender's global row, ``count`` is the
    all-default row, and faulty routings arrive pre-assigned from the
    coordinator.
    """

    def __init__(self, init, in_subprocess: bool = False) -> None:
        from ..core.npsupport import (BatchedEIGState, CODE_DTYPE_NAME,
                                      VALUE_CODEC, require_numpy)
        #: Chaos faults claimed for this shard at spawn time, each a plain
        #: dict firing once at its matching round (see repro.runtime.chaos).
        self.chaos = [dict(fault) for fault in init.get("chaos") or []]
        self._in_subprocess = in_subprocess
        np = self.np = require_numpy()
        self.index = sequence_index(init["source"], init["processors"], False)
        self.n = init["n"]
        self.t = init["t"]
        self.codec = VALUE_CODEC
        self.code_dtype = CODE_DTYPE_NAME
        self.domain = tuple(init["domain"])
        self.domain_set = frozenset(v for v in self.domain
                                    if not is_bottom(v))
        self.row_pids = list(init["row_pids"])
        self.row_start = init["row_start"]
        self.local_count = len(self.row_pids)
        self.main_count = init["main_count"]
        self.count = init["count"]
        self.total_rounds = init["total_rounds"]
        self.segment_ends = init["segment_ends"]
        self.enable_fault_discovery = init["enable_fault_discovery"]
        self.state = BatchedEIGState(self.index, self.local_count)
        self.trackers = [FaultTracker(pid, self.t) for pid in self.row_pids]
        shadow_meter = ComputationMeter()  # shared sink, never read
        self.meters = [ComputationMeter()
                       if self.row_start + i < self.main_count
                       else shadow_meter
                       for i in range(self.local_count)]
        #: local indices of the rows that belong to correct participants
        self.local_mains = [i for i in range(self.local_count)
                            if self.row_start + i < self.main_count]
        self.discovery_logs: List[Dict[int, int]] = [
            {} for _ in range(self.local_count)]
        self.decisions: Dict[ProcessorId, object] = {}
        self._domain_mask = None
        self._domain_mask_codes = -1
        # Routing base (global claims indices): sender pid → its global row,
        # everything else → the all-default row.
        participants = list(init["participants"])
        self._row_of_base = np.full((self.local_count, self.n), self.count,
                                    dtype=np.int64)
        if participants:
            parts = np.asarray(participants, dtype=np.int64)
            self._row_of_base[:, parts] = np.arange(len(participants),
                                                    dtype=np.int64)
        self._local_indices = np.arange(self.local_count, dtype=np.int64)
        self._global_rows = self._local_indices + self.row_start
        self._row_pids_arr = np.asarray(self.row_pids, dtype=np.int64)

    def adopt_codec(self, start: int, values) -> None:
        self.codec.adopt(values, start)

    def domain_mask(self):
        if len(self.codec) != self._domain_mask_codes:
            self._domain_mask_codes = len(self.codec)
            self._domain_mask = self.codec.domain_mask(self.domain_set)
        return self._domain_mask

    def _chaos_round(self, round_number: int) -> None:
        """Fire any claimed chaos fault scheduled for this round."""
        for fault in self.chaos:
            if fault.get("_spent") or fault.get("round") not in (None,
                                                                 round_number):
                continue
            fault["_spent"] = True
            kind = fault["kind"]
            if kind in ("worker-hang", "slow-shard"):
                time.sleep(float(fault.get("delay", 0.0)))
            elif kind == "worker-kill":
                if self._in_subprocess:
                    os._exit(1)
                # Shard 0 shares the coordinator's process: simulate the
                # death as the named error the coordinator would observe.
                raise WorkerDiedError(
                    "chaos: simulated death of the coordinator-local shard")

    # -- rounds --------------------------------------------------------------
    def round_one(self, roots) -> None:
        self._chaos_round(1)
        self.state.set_roots(self.np.asarray(roots, dtype=self.code_dtype))
        for i in self.local_mains:
            self.meters[i].charge()  # set_root stores one node

    def round(self, round_number: int, claims, routing):
        """Run one round's kernels over the local rows; return the leaf block."""
        self._chaos_round(round_number)
        np = self.np
        prev_level = self.state.num_levels
        level = prev_level + 1
        # Same construction order as the single-process round: suspects
        # collapse to the default row, then the own-pid echo (which wins even
        # under theoretical self-suspicion), then the faulty-claim routing
        # minus the senders this row already masks.
        row_of = self._row_of_base.copy()
        for i, tracker in enumerate(self.trackers):
            suspects = tracker.suspects
            if suspects:
                row_of[i, list(suspects)] = self.count
        row_of[self._local_indices, self._row_pids_arr] = self._global_rows
        for i, assigned in enumerate(routing):
            if not assigned:
                continue
            tracker = self.trackers[i]
            for sender, row_idx in assigned.items():
                if sender in tracker:
                    continue  # masked sender: every claim becomes the default
                row_of[i, sender] = row_idx

        gather_level_batched(self.state, level, claims, row_of,
                             self.domain_mask())
        level_size = self.index.level_size(level)
        slots_table = self.index.slots_np(level)
        for i in self.local_mains:
            # append (one unit per node) + the echo pass over the own-label
            # slots — the exact gather_level_numpy charges.
            self.meters[i].charge(level_size
                                  + len(slots_table[self.row_pids[i]][0]))

        if self.enable_fault_discovery:
            newly = discover_and_mask_batched(self.state, level,
                                              self.trackers, round_number,
                                              self.meters)
            for i in self.local_mains:
                if newly[i]:
                    log = self.discovery_logs[i]
                    log[round_number] = (log.get(round_number, 0)
                                         + len(newly[i]))

        segment = self.segment_ends.get(round_number)
        if segment is not None:
            self._convert(round_number, segment)
        return self.state.raw_stack(self.state.num_levels)

    def _convert(self, round_number: int, segment) -> None:
        convert_stacked_rows(
            self.state, segment, self.t, self.trackers, self.meters,
            self.discovery_logs, self.local_mains, self.row_pids,
            self.decisions, round_number, self.total_rounds,
            self.enable_fault_discovery)

    def finish(self) -> Dict[str, object]:
        return {
            "mains": [(self.row_start + i,
                       tuple(sorted(self.trackers[i].suspects)),
                       dict(self.discovery_logs[i]),
                       self.meters[i].units)
                      for i in self.local_mains],
            "decisions": dict(self.decisions),
        }
