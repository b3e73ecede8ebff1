"""One durable JSONL log: the crash discipline every write-ahead log shares.

The sweep checkpoint (:mod:`repro.api.sweep`), the serve journal
(:mod:`repro.serve.journal`) and the Monte-Carlo checkpoint
(:mod:`repro.stats.campaign`) are the same kind of file: a header line, then
one JSON object per line, appended as work finishes.  :class:`DurableLog`
owns that file; each caller keeps only the schema of its entries and what it
does when an append fails.

* **Header.**  ``{"kind", "version", **pinned}``: the log's kind and format
  version plus the caller's pinned fields (a sweep's or a campaign's digest),
  so a log is never continued against different work.  A fresh log is
  created atomically — a temp file renamed into place — so a crash leaves no
  file or a whole header, never a torn one.
* **Lines.**  ``json.dumps(entry, sort_keys=True) + "\\n"``, each one
  ``write`` (plus ``fsync`` when asked).  A line counts once its newline is
  on disk.  A failed append cuts the file back to where the line began and
  raises :class:`~repro.runtime.errors.CheckpointWriteError`.
* **Torn tail.**  An unterminated final line is what a ``kill -9``
  mid-``write`` leaves: a scan skips it and reports ``torn_tail``.  An
  unparseable *complete* line is corruption and is refused — skipping it
  would silently drop a record in the middle of the log.
* **Resume repairs before it appends.**  Opening an existing log with
  ``resume=True`` cuts a torn tail back to the last newline, so the next
  line never lands on torn bytes.  Opening one without ``resume`` is
  refused: it may be the only record of a crashed run.
* **Named errors.**  A header of another kind, version or pinned field, an
  unparseable line, or a well-formed line of the wrong shape (the caller's
  decoder raising ``KeyError``, ``TypeError``, ``ValueError`` and the like)
  raises :class:`~repro.runtime.errors.ConfigurationError` naming the file
  and the line.
* **Compaction** atomically rewrites the log, synced, as its header plus the
  entries the caller keeps.

:func:`replace_file`, the atomic write under creation and compaction, is
also how the serve cache stores an entry.  ``repro lint`` keeps
``os.replace``, ``os.rename`` and ``os.fsync`` inside this module.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Mapping, Optional, Tuple

from ..runtime.errors import CheckpointWriteError, ConfigurationError

#: What an entry decoder raises on a well-formed line of the wrong shape.
DECODE_ERRORS = (ArithmeticError, AttributeError, LookupError, TypeError,
                 ValueError, ConfigurationError)


@dataclass(frozen=True)
class LogFormat:
    """What tells one kind of durable log from another."""

    kind: str
    version: int
    #: How messages name the file, article included ("a sweep checkpoint").
    name: str
    #: How messages name one of its lines ("completion").
    entry: str
    #: What a pinned-field mismatch says differs ("sweep").
    subject: str = "log"


@dataclass
class LogScan:
    """The decoded complete lines of a log, in file order.

    ``entries`` holds ``(line_number, decoded)`` pairs, numbered from 1 over
    the whole file (the header is line 1); ``torn_tail`` records whether an
    unterminated final line was skipped.
    """

    entries: List[Tuple[int, Any]] = field(default_factory=list)
    torn_tail: bool = False


def _line(entry: Any) -> bytes:
    return (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")


def replace_file(path: str, chunks: Iterable[bytes],
                 fsync: bool = False) -> None:
    """Make *path* hold *chunks*, atomically: a temp file renamed into place.

    A crash before the rename leaves *path* as it was.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _complete_size(handle) -> int:
    """The length of *handle*'s file up to and including its last newline."""
    end = handle.seek(0, os.SEEK_END)
    while end:
        start = max(0, end - 65536)
        handle.seek(start)
        newline = handle.read(end - start).rfind(b"\n")
        if newline >= 0:
            return start + newline + 1
        end = start
    return 0


class DurableLog:
    """One JSONL log file under the discipline described above.

    *pinned* fields join the header and must match on every read; *fsync*
    syncs the created header and every append.  Not thread-safe: a log
    shared between threads is guarded by its owner (the serve journal's
    lock).
    """

    def __init__(self, path: str, fmt: LogFormat,
                 pinned: Optional[Mapping[str, Any]] = None,
                 fsync: bool = False) -> None:
        self.path = path
        self.fmt = fmt
        self.fsync = fsync
        self.header = {"kind": fmt.kind, "version": fmt.version,
                       **(pinned or {})}
        self._handle = None
        #: The file's length up to its last complete line, kept in memory so
        #: an append needs no ``tell()``, ``stat()`` or re-read.
        self._size = 0

    # -- reading -----------------------------------------------------------
    def _torn_header(self) -> ConfigurationError:
        return ConfigurationError(
            f"{self.path} has a torn header line and no entries — likely a "
            f"crash while it was being created; delete the file to start "
            f"fresh")

    def _check_header(self, line: bytes) -> None:
        fmt = self.fmt
        try:
            header = json.loads(line)
        except ValueError:
            raise ConfigurationError(
                f"{self.path} is not {fmt.name} (unreadable header "
                f"line)") from None
        if not isinstance(header, dict) or header.get("kind") != fmt.kind:
            raise ConfigurationError(
                f"{self.path} is not {fmt.name} (expected a {fmt.kind!r} "
                f"header)")
        if header.get("version") != fmt.version:
            raise ConfigurationError(
                f"{self.path} is a version {header.get('version')} log; "
                f"this build reads version {fmt.version}")
        for key, value in self.header.items():
            if header.get(key) != value:
                raise ConfigurationError(
                    f"{self.path} was recorded for a different "
                    f"{fmt.subject} ({key} {str(header.get(key))[:12]}…, "
                    f"this {fmt.subject} {str(value)[:12]}…); refusing to "
                    f"merge unrelated results")

    def scan(self, decode: Callable[[Any], Any]) -> LogScan:
        """Read every complete line through *decode*, header checked.

        A missing or empty file is an empty log.  *decode* turns one parsed
        line into what the caller keeps; the errors in
        :data:`DECODE_ERRORS` it raises become a named error for that line.
        """
        scan = LogScan()
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return scan
        *lines, tail = data.split(b"\n")
        if not lines:
            if tail:
                raise self._torn_header()
            return scan
        self._check_header(lines[0])
        for number, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                raise ConfigurationError(
                    f"{self.path} has an unparseable line before the end of "
                    f"the log (line {number}): {line[:80]!r}; the log is "
                    f"corrupt — repair or delete it") from None
            try:
                scan.entries.append((number, decode(entry)))
            except DECODE_ERRORS as exc:
                raise ConfigurationError(
                    f"{self.path} has a malformed {self.fmt.entry} line "
                    f"(line {number}): {type(exc).__name__}: "
                    f"{exc}") from exc
        scan.torn_tail = bool(tail)
        return scan

    # -- writing -----------------------------------------------------------
    def open(self, resume: bool = False) -> None:
        """Open the log for appends, creating it when missing or empty.

        An existing log is continued only with *resume*, and only after its
        torn tail, if any, is cut back to the last newline.
        """
        if self._handle is not None:
            return
        fresh = (not os.path.exists(self.path)
                 or os.path.getsize(self.path) == 0)
        if not fresh and not resume:
            raise ConfigurationError(
                f"{self.path} already exists; pass resume=True (--resume) "
                f"to continue it, or delete the file to start fresh")
        if fresh:
            header = _line(self.header)
            replace_file(self.path, [header], self.fsync)
        handle = open(self.path, "a+b", buffering=0)
        try:
            if fresh:
                self._size = len(header)
            else:
                self._size = _complete_size(handle)
                if not self._size:
                    raise self._torn_header()
                handle.truncate(self._size)
        except BaseException:
            handle.close()
            raise
        self._handle = handle

    def append(self, entry: Mapping[str, Any]) -> None:
        """Append *entry* as one line.

        On an I/O error the file is cut back to where the line began and
        :class:`~repro.runtime.errors.CheckpointWriteError` is raised; if
        even that cut fails, the log closes rather than append after the
        torn bytes.
        """
        if self._handle is None:
            raise ConfigurationError(f"{self.path} is not open for append")
        data = _line(entry)
        try:
            if self._handle.write(data) != len(data):
                raise OSError(f"short write of a {len(data)}-byte line")
            if self.fsync:
                os.fsync(self._handle.fileno())
        except OSError as exc:
            try:
                self._handle.truncate(self._size)
            except OSError:
                self.close()
            raise CheckpointWriteError(
                f"{self.path} append failed: {exc}") from exc
        self._size += len(data)

    def tear(self, entry: Mapping[str, Any]) -> None:
        """Write the first half of *entry*'s line, close, and raise.

        The torn tail a ``kill -9`` mid-``write`` leaves, for the
        ``journal-torn-write`` chaos kind.
        """
        if self._handle is None:
            raise ConfigurationError(f"{self.path} is not open for append")
        data = _line(entry)
        self._handle.write(data[:len(data) // 2])
        self.close()
        raise CheckpointWriteError(
            f"{self.path} append failed: chaos: simulated torn append")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def compact(self, entries: Iterable[Mapping[str, Any]]) -> None:
        """Atomically rewrite the log as its header plus *entries*, synced."""
        if self._handle is not None:
            raise ConfigurationError(
                f"compact {self.path} before opening it for append")
        replace_file(self.path,
                     [_line(self.header), *map(_line, entries)], fsync=True)
