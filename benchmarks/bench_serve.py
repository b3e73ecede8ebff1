"""Serve — cache-hit vs cold-run latency of the agreement service.

The result cache's value proposition is a number: how much faster is the
*second* identical query?  This benchmark measures both sides on the
headline cell (Exponential at ``n=13, t=4``, the ``bench_perf`` acceptance
cell), through the full service path — admission dry-run, digest, cache
lookup, journal append, supervised execution:

* **cold run** — an empty cache: admission + journaling + one supervised
  execution (best of ``COLD_REPS``, cache cleared between repetitions);
* **cache hit** — the same request again: admission + digest + lookup,
  no execution at all (best of ``HIT_REPS``);
* **HTTP cache hit** — the hit sent from this process to a ``repro
  serve`` subprocess (best of ``HTTP_REPS``): loopback TCP, HTTP parsing
  and the frontend's event loop included, with no client thread sharing
  the server's interpreter lock.

Running ``python benchmarks/bench_serve.py`` merges a ``"serve"`` section
into ``BENCH_perf.json`` (the rest of the recording — the engine table —
is left untouched), so the serving-layer trajectory stays attributable
alongside the engine trajectory.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.api import RunRequest
from repro.serve import (AgreementService, ResultCache, ServeJournal,
                         request_digest)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_perf.json"

sys.path.insert(0, str(REPO_ROOT / "scripts"))
from serve_smoke import free_port, start_server  # noqa: E402

#: The acceptance-criterion cell, matching bench_perf's headline.
HEADLINE = ("exponential", 13, 4)

COLD_REPS = 3
HIT_REPS = 50
HTTP_REPS = 20


def headline_request() -> RunRequest:
    protocol, n, t = HEADLINE
    return RunRequest(protocol=protocol, n=n, t=t, initial_value=1,
                      scenario="faulty-source-allies", battery="worst-case",
                      seed=0)


def bench_service(tmp: str) -> dict:
    request = headline_request()
    journal = ServeJournal(str(Path(tmp) / "serve.jsonl"))
    service = AgreementService(cache=ResultCache(str(Path(tmp) / "cache")),
                               journal=journal)
    service.start()

    cold = []
    digest = request_digest(request)
    for _ in range(COLD_REPS):
        service.cache._entries.pop(digest, None)  # force re-execution
        cache_file = Path(tmp) / "cache" / f"{digest}.json"
        if cache_file.exists():
            cache_file.unlink()
        start = time.perf_counter()
        result = service.handle(request)
        cold.append(time.perf_counter() - start)
        assert not result.cached

    hits = []
    for _ in range(HIT_REPS):
        start = time.perf_counter()
        result = service.handle(request)
        hits.append(time.perf_counter() - start)
        assert result.cached
    service.close()
    return {"cold_run_seconds": round(min(cold), 6),
            "cache_hit_seconds": round(min(hits), 6)}


def bench_http(tmp: str) -> dict:
    port = free_port()
    workdir = Path(tmp) / "http"
    workdir.mkdir()
    server = start_server(port, workdir)
    body = json.dumps(headline_request().to_dict())
    try:
        timings = []
        for rep in range(HTTP_REPS + 1):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            start = time.perf_counter()
            conn.request("POST", "/run", body=body)
            payload = json.loads(conn.getresponse().read())
            elapsed = time.perf_counter() - start
            conn.close()
            if rep > 0:  # rep 0 is the cold populate, not a hit
                assert payload["cached"]
                timings.append(elapsed)
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    return {"http_cache_hit_seconds": round(min(timings), 6)}


def main() -> None:
    protocol, n, t = HEADLINE
    with tempfile.TemporaryDirectory() as tmp:
        section = {"protocol": protocol, "n": n, "t": t,
                   "scenario": "faulty-source-allies",
                   "cold_reps": COLD_REPS, "hit_reps": HIT_REPS,
                   "http_reps": HTTP_REPS,
                   **bench_service(tmp), **bench_http(tmp)}
    section["hit_speedup"] = round(
        section["cold_run_seconds"] / section["cache_hit_seconds"], 2)
    recording = {}
    if BENCH_PATH.exists():
        recording = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    recording["serve"] = section
    BENCH_PATH.write_text(json.dumps(recording, indent=2) + "\n",
                          encoding="utf-8")
    print(json.dumps(section, indent=2))
    print(f"wrote the serve section of {BENCH_PATH}")


if __name__ == "__main__":
    main()
