"""The streaming Monte-Carlo driver: chunked execution, durable state.

:func:`run_mc` streams a campaign through an executor **without ever holding
a report list**: trials are derived on demand from the spec
(:meth:`~.spec.McSpec.trial_request`), executed in chunks, and folded into
per-cell :class:`~.cells.CellAggregate` state in deterministic global-index
order.  The only per-run buffer is the current chunk's completion map
(bounded by ``chunk_size``), so memory is flat from 10³ to 10⁷ trials.

Determinism is what makes crash recovery exact.  Executor backends complete
out of order, but each chunk is aggregated *after* it drains, sorted by
global trial index — so the fold order is a pure function of the spec, and
the cumulative state after chunk *c* is too.  The checkpoint exploits that:
it is a :class:`~repro.api.durable.DurableLog` (header, torn tail, resume
repair and named errors are described there) whose header pins
:func:`~.spec.mc_digest`, with one line per completed chunk carrying the
**entire cumulative state** (a few KB — aggregates are constant-space)::

    {"kind": "repro-mc-checkpoint", "version": 1,
     "total_trials": 1000000, "mc_sha256": "..."}   # header
    {"chunk": 0, "trials_done": 256, "state": {...}}  # cumulative snapshots
    {"chunk": 1, "trials_done": 512, "state": {...}}
    ...

The latest snapshot wins: resume continues from the chunk after it.
Because per-trial seeds are positional
(:func:`~repro.api.request.derive_seed`) and aggregator serialization is
IEEE-754-exact, a killed-and-resumed campaign finishes **bit-identical** to
an uninterrupted one — the property ``tests/test_mc.py`` pins with a real
``SIGKILL``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..api.durable import DurableLog, LogFormat
from ..api.executors import ExecutorSpec, resolve_executor
from ..api.request import RunReport
from ..runtime.errors import ConfigurationError
from .cells import CellAggregate
from .spec import McSpec, mc_digest

MC_CHECKPOINT_KIND = "repro-mc-checkpoint"
MC_CHECKPOINT_VERSION = 1
_FORMAT = LogFormat(MC_CHECKPOINT_KIND, MC_CHECKPOINT_VERSION,
                    name="an MC checkpoint", entry="snapshot",
                    subject="campaign")

logger = logging.getLogger("repro.stats")

#: Optional per-chunk progress hook: ``(chunk, trials_done, total_trials)``.
ProgressHook = Callable[[int, int, int], None]


@dataclass
class McState:
    """The cumulative campaign state: one aggregate per cell, a frontier."""

    aggregates: List[CellAggregate]
    trials_done: int = 0

    @classmethod
    def fresh(cls, spec: McSpec) -> "McState":
        return cls(aggregates=[CellAggregate(cell) for cell in spec.cells])

    def fold(self, spec: McSpec, completions: Mapping[int, RunReport]
             ) -> None:
        """Aggregate one drained chunk, in global-index order, and advance.

        Sorting here is what makes the fold order — and therefore the
        cumulative floating-point state — a pure function of the spec,
        regardless of the executor's completion order.
        """
        for global_index in sorted(completions):
            cell_index = spec.cell_index(global_index)
            self.aggregates[cell_index].update(completions[global_index])
        self.trials_done += len(completions)

    def problems(self) -> Tuple[str, ...]:
        found: List[str] = []
        for aggregate in self.aggregates:
            found.extend(aggregate.problems())
        return tuple(found)

    def to_dict(self) -> Dict[str, Any]:
        return {"trials_done": self.trials_done,
                "aggregates": [a.to_dict() for a in self.aggregates]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "McState":
        return cls(aggregates=[CellAggregate.from_dict(entry)
                               for entry in data["aggregates"]],
                   trials_done=int(data["trials_done"]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, McState):
            return NotImplemented
        return self.to_dict() == other.to_dict()


@dataclass
class McResult:
    """What a campaign (or a deliberately bounded slice of one) produced."""

    spec: McSpec
    state: McState
    #: Whether every trial of the spec has been aggregated.
    complete: bool
    #: Trials executed by *this* invocation (resumed trials excluded).
    executed: int
    elapsed_seconds: float
    resumed_trials: int = 0

    @property
    def runs_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.executed / self.elapsed_seconds

    @property
    def problems(self) -> Tuple[str, ...]:
        return self.state.problems()

    @property
    def ok(self) -> bool:
        """True iff the campaign completed and contradicted no theorem."""
        return self.complete and not self.problems


def _checkpoint(path: str, spec: McSpec) -> DurableLog:
    return DurableLog(path, _FORMAT, {"mc_sha256": mc_digest(spec),
                                      "total_trials": spec.total_trials})


def read_mc_checkpoint(path: str, spec: McSpec
                       ) -> Tuple[Optional[McState], int]:
    """The latest cumulative state of a checkpoint, plus the next chunk.

    Returns ``(state, next_chunk)`` — ``(None, 0)`` for a missing or empty
    file.  The header must pin this exact campaign (:func:`~.spec.mc_digest`),
    and every snapshot must hold the trials its chunk ends at.
    """
    def decode(entry):
        chunk = entry["chunk"]
        if not isinstance(chunk, int) or not 0 <= chunk < spec.total_chunks:
            raise ValueError(f"chunk {chunk!r} is outside this campaign's "
                             f"0..{spec.total_chunks - 1}")
        state = McState.from_dict(entry["state"])
        expected = spec.chunk_indices(chunk).stop
        if state.trials_done != expected:
            raise ValueError(
                f"the snapshot for chunk {chunk} records "
                f"{state.trials_done} trials, expected {expected}; the "
                f"checkpoint is corrupt")
        return chunk, state

    body = _checkpoint(path, spec).scan(decode)
    if body.torn_tail:
        logger.warning("MC checkpoint %s ends in a truncated line (crash "
                       "mid-append); resuming from the previous snapshot",
                       path)
    # Snapshots are cumulative: the latest supersedes every earlier one.
    last_chunk, latest = -1, None
    for _, (chunk, state) in body.entries:
        if chunk >= last_chunk:
            last_chunk, latest = chunk, state
    return latest, last_chunk + 1


def run_mc(spec: McSpec, checkpoint: Optional[str] = None,
           resume: bool = False, executor: ExecutorSpec = None,
           max_chunks: Optional[int] = None,
           progress: Optional[ProgressHook] = None) -> McResult:
    """Stream a campaign to completion (or a bounded number of chunks).

    *executor* overrides the spec's backend choice (an
    :class:`~repro.api.executors.Executor` instance or registry name);
    ``None`` builds the spec's own ``executor``/``executor_params``.  One
    executor instance is built for the whole campaign and reused across
    chunks, so pool workers spawn once, not once per chunk.

    *max_chunks* bounds how many chunks this invocation executes — an
    operational aid for slicing very long campaigns across sessions (the
    checkpoint makes the slices add up exactly); the result reports
    ``complete=False`` until the last chunk has been aggregated.
    """
    state: Optional[McState] = None
    start_chunk = 0
    resumed_trials = 0
    log = None
    if checkpoint:
        log = _checkpoint(checkpoint, spec)
        if resume:
            state, start_chunk = read_mc_checkpoint(checkpoint, spec)
            resumed_trials = state.trials_done if state else 0
    elif resume:
        raise ConfigurationError(
            "resume needs a checkpoint path to resume from")
    if state is None:
        state = McState.fresh(spec)

    total = spec.total_trials
    executed = 0
    # repro-lint: waive[determinism/wall-clock] -- feeds elapsed_seconds
    # only, which is diagnostic: aggregates and checkpoints never read it
    started = time.perf_counter()
    if start_chunk >= spec.total_chunks:
        return McResult(spec=spec, state=state, complete=True, executed=0,
                        elapsed_seconds=0.0, resumed_trials=resumed_trials)

    if executor is None and spec.executor:
        runner, owned = resolve_executor(spec.executor,
                                         dict(spec.executor_params))
    else:
        runner, owned = resolve_executor(executor)
    end_chunk = spec.total_chunks
    if max_chunks is not None:
        end_chunk = min(end_chunk, start_chunk + max(0, max_chunks))
    try:
        if log is not None:
            log.open(resume)
        for chunk in range(start_chunk, end_chunk):
            indices = spec.chunk_indices(chunk)
            tickets: Dict[int, int] = {}
            for global_index in indices:
                tickets[runner.submit(spec.trial_request(global_index))] = \
                    global_index
            completions: Dict[int, RunReport] = {}
            for ticket, report in runner.iter_reports():
                completions[tickets[ticket]] = report
            if len(completions) != len(indices):  # pragma: no cover
                raise ConfigurationError(
                    f"chunk {chunk} drained {len(completions)} of "
                    f"{len(indices)} trials")
            state.fold(spec, completions)
            executed += len(indices)
            if log is not None:
                log.append({"chunk": chunk, "trials_done": state.trials_done,
                            "state": state.to_dict()})
            if progress is not None:
                progress(chunk, state.trials_done, total)
    finally:
        if log is not None:
            log.close()
        if owned:
            runner.close()
    # repro-lint: waive[determinism/wall-clock] -- feeds elapsed_seconds
    # only, which is diagnostic: aggregates and checkpoints never read it
    elapsed = time.perf_counter() - started
    return McResult(spec=spec, state=state,
                    complete=state.trials_done >= total,
                    executed=executed, elapsed_seconds=elapsed,
                    resumed_trials=resumed_trials)
