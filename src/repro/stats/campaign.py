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
one JSONL line per completed chunk carrying the **entire cumulative state**
(a few KB — aggregates are constant-space), under a header that pins
:func:`~.spec.mc_digest`.  Resume reads the last intact state line and
continues from the next chunk; because per-trial seeds are positional
(:func:`~repro.api.request.derive_seed`) and aggregator serialization is
IEEE-754-exact, a killed-and-resumed campaign finishes **bit-identical** to
an uninterrupted one — the property ``tests/test_mc.py`` pins with a real
``SIGKILL``.

Checkpoint format (one JSON object per line)::

    {"kind": "repro-mc-checkpoint", "version": 1,
     "total_trials": 1000000, "mc_sha256": "..."}   # header (atomic create)
    {"chunk": 0, "trials_done": 256, "state": {...}}  # cumulative snapshots
    {"chunk": 1, "trials_done": 512, "state": {...}}
    ...

The reading discipline is the shared one of :mod:`repro.api.jsonl`: a torn
final line is a crash artifact and is ignored; earlier corruption is
refused; a header for a *different* campaign is refused.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..api.executors import ExecutorSpec, resolve_executor
from ..api.jsonl import scan_jsonl
from ..api.request import RunReport
from ..runtime.errors import ConfigurationError
from .cells import CellAggregate
from .spec import McSpec, mc_digest

MC_CHECKPOINT_KIND = "repro-mc-checkpoint"
MC_CHECKPOINT_VERSION = 1

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


def _create_mc_checkpoint(path: str, spec: McSpec) -> None:
    """Atomic header creation: temp file + rename, like sweep checkpoints."""
    header = json.dumps({
        "kind": MC_CHECKPOINT_KIND,
        "version": MC_CHECKPOINT_VERSION,
        "total_trials": spec.total_trials,
        "mc_sha256": mc_digest(spec),
    }, sort_keys=True) + "\n"
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(header)
            handle.flush()
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_mc_checkpoint(path: str, spec: McSpec
                       ) -> Tuple[Optional[McState], int]:
    """The latest intact cumulative state of a checkpoint, plus next chunk.

    Returns ``(state, next_chunk)`` — ``(None, 0)`` for a missing or empty
    file.  The header must name this exact campaign
    (:func:`~.spec.mc_digest`); a torn final line is tolerated (the crash
    happened mid-append, the previous snapshot stands); corruption earlier
    in the file is refused loudly.
    """
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return None, 0
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        raise ConfigurationError(
            f"{path} is not an MC checkpoint (unreadable header line); "
            f"delete the file to start the campaign fresh") from None
    if not isinstance(header, dict) \
            or header.get("kind") != MC_CHECKPOINT_KIND:
        raise ConfigurationError(
            f"{path} is not an MC checkpoint (expected a "
            f"{MC_CHECKPOINT_KIND!r} header)")
    if header.get("version") != MC_CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"{path} is a version {header.get('version')} MC checkpoint; "
            f"this build reads version {MC_CHECKPOINT_VERSION}")
    digest = mc_digest(spec)
    if header.get("mc_sha256") != digest:
        raise ConfigurationError(
            f"{path} was recorded for a different campaign "
            f"(checkpoint {str(header.get('mc_sha256'))[:12]}…, this "
            f"campaign {digest[:12]}…); refusing to merge unrelated "
            f"statistics")
    body = scan_jsonl(path, lines[1:], first_line=2,
                      description="MC checkpoint")
    if body.torn_tail:
        logger.warning("MC checkpoint %s ends in a truncated line (crash "
                       "mid-append); resuming from the previous snapshot",
                       path)
    latest: Optional[Mapping[str, Any]] = None
    last_chunk = -1
    for line_number, entry in body.entries:
        if (not isinstance(entry, dict) or "chunk" not in entry
                or not isinstance(entry.get("state"), dict)):
            raise ConfigurationError(
                f"{path} has a malformed snapshot line (expected an object "
                f"with \"chunk\" and \"state\"): line {line_number}")
        chunk = entry["chunk"]
        if not isinstance(chunk, int) or not 0 <= chunk < spec.total_chunks:
            raise ConfigurationError(
                f"{path} names chunk {chunk!r}, outside this campaign's "
                f"0..{spec.total_chunks - 1}")
        # Snapshots are cumulative, so the latest line supersedes all
        # earlier ones — the same last-write-wins rule as sweep logs.
        if chunk >= last_chunk:
            last_chunk, latest = chunk, entry
    if latest is None:
        return None, 0
    state = McState.from_dict(latest["state"])
    expected = spec.chunk_indices(last_chunk).stop
    if state.trials_done != expected:
        raise ConfigurationError(
            f"{path} snapshot for chunk {last_chunk} records "
            f"{state.trials_done} trials, expected {expected}; the "
            f"checkpoint is corrupt")
    return state, last_chunk + 1


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
    if checkpoint:
        exists = (os.path.exists(checkpoint)
                  and os.path.getsize(checkpoint) > 0)
        if resume:
            state, start_chunk = read_mc_checkpoint(checkpoint, spec)
            resumed_trials = state.trials_done if state else 0
        elif exists:
            raise ConfigurationError(
                f"checkpoint {checkpoint} already exists; pass resume=True "
                f"(repro mc --resume) to continue it, or delete the file "
                f"to start the campaign fresh")
        if state is None:
            _create_mc_checkpoint(checkpoint, spec)
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
    log = open(checkpoint, "a", encoding="utf-8") if checkpoint else None
    end_chunk = spec.total_chunks
    if max_chunks is not None:
        end_chunk = min(end_chunk, start_chunk + max(0, max_chunks))
    try:
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
                log.write(json.dumps(
                    {"chunk": chunk, "trials_done": state.trials_done,
                     "state": state.to_dict()}, sort_keys=True) + "\n")
                log.flush()
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
