"""The serve journal: accepted-before-execution, replayed on restart.

Self-stabilization (Dolev; Dijkstra's stabilizing token rings in
unsupportive environments) sets the design bar for the serving layer: the
service must *converge back* to a correct state from any crash point, not
merely avoid crashing.  The mechanism is write-ahead journaling on a
:class:`~repro.api.durable.DurableLog` — header, torn tail, resume repair,
compaction and named errors are described there.  Every admitted request is
appended as an ``accepted`` entry **before** it executes, and every finished
run as a ``completed`` entry::

    {"kind": "repro-serve-journal", "version": 1}        # atomic header
    {"event": "accepted", "id": "<digest>", "request": { ...RunRequest... }}
    {"event": "completed", "id": "<digest>", "outcome": { ...outcome_dict... }}

After a ``kill -9``, :meth:`ServeJournal.replay` reconstructs exactly where
the service was: ``completed`` entries warm-start the result cache
(identical queries become cache hits, no re-execution), ``accepted``
entries with no completion re-enqueue (runs are deterministic in
``(request, seed)``, so re-execution serves byte-identical outcomes), and
duplicate completions are surfaced as a ``duplicates`` count (the same
double-execution accounting as :func:`repro.api.sweep.scan_checkpoint`)
instead of being silently merged.

Journal appends are deliberately **fail-stop**: a failed append raises
:class:`~repro.runtime.errors.CheckpointWriteError` so the service degrades
loudly rather than accepting work it cannot make durable.  The chaos kind
``journal-torn-write`` exercises the worst case — a partial line hits the
disk and the writer dies mid-append.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..api.durable import DurableLog, LogFormat
from ..api.request import RunRequest
from ..runtime.chaos import current_chaos

JOURNAL_KIND = "repro-serve-journal"
JOURNAL_VERSION = 1
_FORMAT = LogFormat(JOURNAL_KIND, JOURNAL_VERSION, name="a serve journal",
                    entry="journal")


@dataclass
class JournalReplay:
    """Everything a restarted service recovers from its journal.

    ``completed`` maps request digests to their cached outcome dicts;
    ``pending`` holds the accepted-but-never-completed requests, in
    acceptance order, to re-enqueue.  ``duplicates`` counts superseded
    completion lines (double execution, reported — never masked) and
    ``torn_tail`` whether the crash interrupted an append mid-line.
    """

    completed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    pending: List[Tuple[str, RunRequest]] = field(default_factory=list)
    duplicates: int = 0
    torn_tail: bool = False
    events: List[Dict[str, Any]] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        return {"completed": len(self.completed),
                "pending": len(self.pending),
                "duplicates": self.duplicates,
                "torn_tail": self.torn_tail}


def _decode(entry) -> Tuple[str, str, Any]:
    """One journal line as ``(event, id, request or outcome)``."""
    event, digest = entry["event"], entry["id"]
    if not isinstance(digest, str):
        raise TypeError(f"journal id {digest!r} is not a string")
    if event == "accepted":
        return event, digest, RunRequest.from_dict(entry["request"])
    if event == "completed":
        if not isinstance(entry["outcome"], dict):
            raise TypeError("a completed entry needs an \"outcome\" object")
        return event, digest, entry["outcome"]
    raise ValueError(f"unknown journal event {event!r} (expected "
                     f"\"accepted\" or \"completed\")")


class ServeJournal:
    """Append-only durable intent log for the agreement service.

    Thread-safe: admission appends from the event loop while workers append
    completions, so every write holds one lock.  :meth:`open` continues an
    existing journal (its torn tail cut away) or creates a fresh one.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._log = DurableLog(path, _FORMAT, fsync=fsync)
        self._writes = 0

    # -- recovery ------------------------------------------------------------
    def replay(self) -> JournalReplay:
        """Read the journal back (a missing file replays as empty)."""
        body = self._log.scan(_decode)
        replay = JournalReplay(torn_tail=body.torn_tail)
        # Acceptance order, latest request per id.
        accepted: Dict[str, RunRequest] = {}
        for line_number, (event, digest, payload) in body.entries:
            if event == "accepted":
                accepted[digest] = payload
                continue
            if digest in replay.completed:
                replay.duplicates += 1
                replay.events.append(
                    {"event": "duplicate-completion", "id": digest,
                     "line": line_number, "path": self.path})
            replay.completed[digest] = payload
        if replay.torn_tail:
            replay.events.append({"event": "torn-tail", "path": self.path})
        replay.pending = [(digest, request)
                          for digest, request in accepted.items()
                          if digest not in replay.completed]
        return replay

    def compact(self, replay: Optional[JournalReplay] = None
                ) -> Dict[str, Any]:
        """Rewrite the journal minimal and clean: torn tail and duplicates gone.

        Keeps one ``accepted`` line per still-pending request and one
        ``completed`` line per finished one (acceptance entries for
        completed requests are superseded by their completion and dropped).
        A missing journal stays missing.  Returns the replay summary.
        """
        with self._lock:
            state = replay if replay is not None else self.replay()
            if os.path.exists(self.path):
                self._log.compact(
                    [{"event": "accepted", "id": digest,
                      "request": request.to_dict()}
                     for digest, request in state.pending]
                    + [{"event": "completed", "id": digest,
                        "outcome": state.completed[digest]}
                       for digest in sorted(state.completed)])
            return state.summary()

    # -- appending -----------------------------------------------------------
    def open(self) -> None:
        with self._lock:
            self._log.open(resume=True)

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def _append(self, entry: Dict[str, Any]) -> None:
        # Fail-stop by design: a failed append raises, and the service must
        # not keep accepting work it cannot make durable.  Recovery is the
        # replay.
        with self._lock:
            write_index = self._writes
            self._writes += 1
            controller = current_chaos()
            if controller is not None and controller.take(
                    "journal-write", index=write_index):
                self._log.tear(entry)
            self._log.append(entry)

    def accepted(self, digest: str, request: RunRequest) -> None:
        """Journal an admitted request — called **before** it executes."""
        self._append({"event": "accepted", "id": digest,
                      "request": request.to_dict()})

    def completed(self, digest: str, outcome: Dict[str, Any]) -> None:
        """Journal a finished run's outcome (the cache warm-start record)."""
        self._append({"event": "completed", "id": digest,
                      "outcome": outcome})
