"""The content-addressed result cache: one simulation per distinct query.

Every agreement run is a pure function of ``(request, seed)`` and requests
round-trip through canonical JSON, so a million identical user queries need
exactly one execution.  The cache key is :func:`request_digest` — the
SHA-256 of the request's canonical JSON **minus its engine field**: the
engine is execution-side (the planner may resolve the same request to
``batched`` here and ``fast`` there) and
:meth:`~repro.api.request.RunReport.outcome_dict` is engine-independent, so
two requests that differ only in engine choice share one entry.  What the
cache stores *is* the ``outcome_dict`` — the serialized outcome alone,
byte-stable across substrates.

The cache is **best-effort by design**: a failed store (disk full, a chaos
``cache-write-fail`` injection) must never fail the request it was caching —
the result is still returned, the failure is counted, and any torn entry
file left behind is detected on read (entries are parsed and shape-checked;
garbage reads as a miss and is deleted).  Correctness never depends on the
cache; only latency does.

Disk layout: one ``<digest>.json`` per entry under ``cache_dir``, written
atomically (:func:`~repro.api.durable.replace_file`) on the happy path, so
a ``kill -9`` mid-store leaves either the old state or the new — except
under chaos, which deliberately leaves the torn file a real crash could.

The footprint is boundable: ``max_entries`` caps the cache at N entries
with least-recently-used eviction (``get``/``peek``/``put`` all refresh
recency).  Eviction is total — the in-memory entry goes **and** its disk
file is unlinked — so a capped cache never resurrects evicted results on
restart, and the disk directory's size tracks the cap instead of growing
without bound.  Evictions are counted in :meth:`ResultCache.stats` and
surface on the service's ``/metrics`` endpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from typing import Any, Dict, Optional

from ..api.durable import replace_file
from ..api.request import RunRequest
from ..runtime.chaos import current_chaos
from ..runtime.errors import ConfigurationError

#: Request fields that describe *how* a run executes, not *what* it computes.
#: Excluded from the cache key so engine choice never fragments the cache.
EXECUTION_SIDE_FIELDS = ("engine",)


def request_digest(request: RunRequest) -> str:
    """The cache key of *request*: SHA-256 of its canonical outcome-relevant JSON.

    Covers everything that determines the outcome — protocol and parameters,
    instance shape, faulty set or scenario, adversary, domain, **seed** —
    and drops the engine field, which only selects the substrate.
    """
    data = request.to_dict()
    for name in EXECUTION_SIDE_FIELDS:
        data.pop(name, None)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """An in-memory outcome cache with optional durable disk backing.

    ``get`` / ``put`` address entries by :func:`request_digest` values.
    With a ``cache_dir``, every store also lands as ``<digest>.json`` and
    misses fall through to disk — so a restarted service warm-starts from
    whatever previous sessions (or a journal replay) persisted.  With a
    ``max_entries`` cap, the least-recently-used entry (memory *and* disk
    file) is evicted whenever an insert would exceed it.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError(
                f"cache max_entries must be positive (or None for "
                f"unbounded), got {max_entries}")
        self.cache_dir = cache_dir
        self.max_entries = max_entries
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.write_failures = 0
        self.evictions = 0
        self._stores = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _path(self, digest: str) -> str:
        return os.path.join(self.cache_dir, f"{digest}.json")

    def _load_from_disk(self, digest: str) -> Optional[Dict[str, Any]]:
        if not self.cache_dir:
            return None
        path = self._path(digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # A torn entry (crash or chaos mid-store) is not a cache state:
            # drop it and treat the lookup as a miss — the run re-executes
            # and the store is retried with a fresh result.
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None
        if not isinstance(entry, dict) or "decisions" not in entry:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None
        return entry

    def _insert(self, digest: str, entry: Dict[str, Any]) -> None:
        """Land *entry* as most-recent and enforce the ``max_entries`` cap.

        Every in-memory insert — a ``put``, or a disk fall-through in
        ``get``/``peek`` — goes through here, so the cap holds no matter
        which path populated the entry.  Eviction removes the LRU entry's
        disk file too: a capped cache must not regrow past its cap from
        disk on the next restart.
        """
        self._entries[digest] = entry
        self._entries.move_to_end(digest)
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            victim, _ = self._entries.popitem(last=False)
            self.evictions += 1
            if self.cache_dir:
                try:
                    os.unlink(self._path(victim))
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    def _lookup(self, digest: str) -> Optional[Dict[str, Any]]:
        entry = self._entries.get(digest)
        if entry is not None:
            self._entries.move_to_end(digest)
            return entry
        entry = self._load_from_disk(digest)
        if entry is not None:
            self._insert(digest, entry)
        return entry

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The cached outcome for *digest*, counting the hit or miss."""
        entry = self._lookup(digest)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def peek(self, digest: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get` but without touching the hit/miss counters."""
        return self._lookup(digest)

    def put(self, digest: str, outcome: Dict[str, Any]) -> bool:
        """Store *outcome* under *digest*; ``False`` when the disk write failed.

        The in-memory entry always lands (this process keeps serving the
        result either way); only durability is best-effort.  A failed store
        increments :attr:`write_failures` and leaves the service running —
        the chaos ``cache-write-fail`` injection exercises exactly this
        path, torn entry file included.
        """
        self._insert(digest, outcome)
        if not self.cache_dir:
            return True
        store_index = self._stores
        self._stores += 1
        path = self._path(digest)
        controller = current_chaos()
        try:
            if controller is not None and controller.take(
                    "cache-write", index=store_index):
                # Leave the torn artifact a real mid-write crash would:
                # readers must treat it as a miss, not an answer.
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(json.dumps(outcome)[:20])
                raise OSError("chaos: simulated cache store failure")
            replace_file(path, [json.dumps(outcome, sort_keys=True)
                                .encode("utf-8")])
            return True
        except OSError:
            self.write_failures += 1
            return False

    def warm(self, digest: str, outcome: Dict[str, Any]) -> None:
        """Seed an entry during recovery without counting hits or misses."""
        if self.peek(digest) is None:
            self.put(digest, outcome)

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses,
                "write_failures": self.write_failures,
                "evictions": self.evictions}
