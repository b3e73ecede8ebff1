"""Crash-recovery smoke for ``repro serve`` — the CI incarnation.

The scenario the service exists to survive, end to end and out of
process:

1. compute the ground truth for a small sweep in-process (pure
   ``execute``, no service);
2. start ``repro serve`` as a subprocess, stream the sweep at it, and
   ``SIGKILL`` the server while completions are still landing in the
   journal — an unflushable, uncatchable crash;
3. restart the server on the **same** journal and cache directory:
   completed work must replay into the cache, interrupted work must
   re-execute at boot;
4. re-submit the sweep until the backlog drains, then assert that every
   outcome is byte-identical to the ground truth **and** that every
   repeat is a cache hit (``executed == 0`` in the stream's summary);
5. probe the HTTP framing of the recovered server: an over-long header
   line, an over-long request line and a deeply nested JSON body must
   each get a 4xx, and ``/healthz`` must still answer 200 afterwards.

Exit status 0 means the property held; any assertion failure or timeout
is a non-zero exit for CI.  Run locally with::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import RunRequest, execute  # noqa: E402
from repro.serve import request_digest  # noqa: E402

SWEEP_SIZE = 24
READY_DEADLINE = 30.0
DRAIN_DEADLINE = 120.0


def sweep_requests() -> list:
    return [RunRequest(protocol="exponential", n=11, t=3, initial_value=1,
                       scenario="faulty-source-allies", battery="worst-case",
                       seed=seed)
            for seed in range(SWEEP_SIZE)]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(port: int, workdir: Path) -> subprocess.Popen:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--workers", "1", "--cache-dir", str(workdir / "cache"),
         "--journal", str(workdir / "journal.jsonl")],
        env={**os.environ,
             "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})
    deadline = time.monotonic() + READY_DEADLINE
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(f"server exited early with {process.returncode}")
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
            conn.request("GET", "/readyz")
            ready = conn.getresponse().status == 200
            conn.close()
            if ready:
                return process
        except OSError:
            pass
        time.sleep(0.1)
    process.kill()
    raise SystemExit("server never became ready")


def post_sweep(port: int, body: str, timeout: float = 300.0) -> list:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request("POST", "/sweep", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    lines = [json.loads(line) for line in response.read().splitlines() if line]
    conn.close()
    return lines


#: Past asyncio's 64 KiB line limit, and past any JSON recursion limit.
LONG_LINE = 70_000
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
FRAMING_PROBES = {
    "over-long header line": (b"GET /healthz HTTP/1.1\r\nX-Long: "
                              + b"a" * LONG_LINE + b"\r\n\r\n"),
    "over-long request line": (b"GET /" + b"a" * LONG_LINE
                               + b" HTTP/1.1\r\n\r\n"),
    "deeply nested JSON": (b"POST /run HTTP/1.1\r\nContent-Length: "
                           + str(len(DEEP_JSON)).encode() + b"\r\n\r\n"
                           + DEEP_JSON),
}


def raw_status(port: int, raw: bytes, timeout: float = 30.0) -> int:
    """Send raw request bytes, half-close, and parse the reply's status."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server may answer and close before reading it all
        reply = b""
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass
    parts = reply.split(b" ", 2)
    if len(parts) < 2 or parts[0] != b"HTTP/1.1" or not parts[1].isdigit():
        raise SystemExit(f"no HTTP/1.1 status line in {reply[:80]!r}")
    return int(parts[1])


def probe_framing(port: int) -> None:
    for name, raw in FRAMING_PROBES.items():
        status = raw_status(port, raw)
        assert 400 <= status < 500, f"{name}: expected a 4xx, got {status}"
        print(f"[smoke] {name}: {status}", flush=True)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request("GET", "/healthz")
    status = conn.getresponse().status
    conn.close()
    assert status == 200, f"/healthz answered {status} after the probes"


def journal_completions(journal: Path) -> int:
    if not journal.exists():
        return 0
    count = 0
    for line in journal.read_text(encoding="utf-8").splitlines():
        if '"completed"' in line:
            count += 1
    return count


def main() -> None:
    requests = sweep_requests()
    body = json.dumps([request.to_dict() for request in requests])
    print(f"[smoke] ground truth: executing {len(requests)} requests "
          "in-process", flush=True)
    truth = {request_digest(request): execute(request).outcome_dict()
             for request in requests}

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        journal = workdir / "journal.jsonl"
        port = free_port()

        # -- phase 1: stream the sweep, kill -9 mid-flight ------------------
        server = start_server(port, workdir)

        def stream_and_die() -> None:
            try:
                post_sweep(port, body)
            except (OSError, http.client.HTTPException):
                pass  # the kill severs this connection mid-stream, by design

        streamer = threading.Thread(target=stream_and_die, daemon=True)
        streamer.start()
        killed_after = None
        deadline = time.monotonic() + DRAIN_DEADLINE
        while time.monotonic() < deadline:
            done = journal_completions(journal)
            if 1 <= done < len(requests):
                killed_after = done
                break
            if done >= len(requests):
                break
            time.sleep(0.002)
        server.send_signal(signal.SIGKILL)
        server.wait(10)
        streamer.join(10)
        if killed_after is None:
            print("[smoke] warning: every request completed before the kill "
                  "landed; recovery still covers the full journal",
                  flush=True)
        else:
            print(f"[smoke] SIGKILL after {killed_after}/{len(requests)} "
                  "completions", flush=True)

        # -- phase 2: restart on the same journal + cache -------------------
        server = start_server(port, workdir)
        try:
            lines = []
            deadline = time.monotonic() + DRAIN_DEADLINE
            while time.monotonic() < deadline:
                lines = post_sweep(port, body)
                summary = lines[-1]
                if summary.get("event") == "done" and summary["executed"] == 0:
                    break
                time.sleep(1.0)
            else:
                raise SystemExit(
                    "pending backlog never drained to all-cache-hits")

            results = [line for line in lines if "index" in line]
            assert len(results) == len(requests), (
                f"expected {len(requests)} results, got {len(results)}")
            mismatches = []
            for line in results:
                assert line["cached"], f"request {line['index']} not cached"
                expected = truth[line["id"]]
                if json.dumps(line["outcome"], sort_keys=True) != \
                        json.dumps(expected, sort_keys=True):
                    mismatches.append(line["index"])
            assert not mismatches, (
                f"outcomes diverged from ground truth at {mismatches}")
            print(f"[smoke] all {len(results)} recovered outcomes are "
                  "byte-identical cache hits", flush=True)
            probe_framing(port)
        finally:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(30)
            except subprocess.TimeoutExpired:
                server.kill()
    print("[smoke] PASS", flush=True)


if __name__ == "__main__":
    main()
