"""The four benchmark workloads, run one per process.

``run.py`` starts this file as a child process per workload (and per set-up
sample), so interned index tables, the value codec, and peak RSS never leak
from one workload into the next::

    python3 bench/workloads.py --workload eig-n13 --seed 1 --seconds 25 \\
        [--mode run|setup|pin] [--trace] [--expected FILE]

The child prints ``READY`` once set-up (import plus untimed warm-up) is done,
then ``RESULT <json>`` when the timed phase and the correctness checks are
over.  ``--mode setup`` stops after ``READY``; ``--mode pin`` prints the
outcome digests of every input a run at ``--seed`` can send, instead of
timing anything.  ``--trace`` installs the span wrappers of ``tracing.py``
(for serve-mixed, in the server) and adds the per-layer metrics.

The workload seed selects everything random: request lists, fault
placements, request seeds, and serve arrivals.  The program under test only
ever sees the generated :class:`~repro.api.request.RunRequest` values.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from tracing import ROOT as ROOT_SPAN

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("eig-n13", "eig-n16", "mc-mixed", "serve-mixed")
DEFAULT_SEED = 1

#: eig-n13: (protocol, params, n, t), each with 8 faulty-source-allies runs
#: and 56 two-faced runs on seeded faulty sets.  192 requests sample enough
#: placements that the medians barely depend on the workload seed.
EIG_N13 = (("exponential", {}, 13, 4), ("algorithm-a", {"b": 3}, 13, 4),
           ("algorithm-b", {"b": 2}, 13, 3))
EIG_N13_ALLIES = 8
EIG_N13_TWO_FACED = 56
EIG_N16_REQUESTS = 8
#: mc-mixed: (protocol, params, n, t, adversary) per campaign cell.  A run
#: cycles through MC_CAMPAIGNS small campaigns with distinct sweep seeds, so
#: it sees many placements and about a hundred campaign latencies.
MC_CELLS = (("algorithm-c", {}, 14, 2, "two-faced"),
            ("algorithm-c", {}, 20, 3, "random-liar"),
            ("hybrid", {"b": 3}, 10, 3, "random-liar"),
            ("hybrid", {"b": 3}, 13, 4, "two-faced"),
            ("exponential", {}, 10, 3, "crash-recovery"),
            ("algorithm-b", {"b": 2}, 9, 2, "send-omission"))
MC_TRIALS = 4
MC_CAMPAIGNS = 128
#: serve-mixed: the hot set (cache hits) and the fresh mix (misses).  The
#: fresh shapes cost within a factor of two of each other (batched and
#: per-processor engines alike), so the miss-dominated p90 sits inside one
#: broad mode instead of between modes that the seed would shift.
SERVE_HOT = (("exponential", {}, 13, 4, None),
             ("algorithm-a", {"b": 3}, 13, 4, "two-faced"),
             ("hybrid", {"b": 3}, 13, 4, "two-faced"),
             ("algorithm-c", {}, 20, 3, "random-liar"))
SERVE_FRESH = (("exponential", {}, 13, 4, "two-faced"),
               ("algorithm-a", {"b": 3}, 13, 4, "two-faced"),
               ("hybrid", {"b": 3}, 10, 3, "two-faced"),
               ("algorithm-c", {}, 14, 2, "two-faced"))
SERVE_RATE = 40.0
SERVE_MISS_SHARE = 0.25
SERVE_CONNECTIONS = 2
#: Fresh serve requests pinned for the default seed (enough for 60 s).
SERVE_PINNED_FRESH = 800
#: A serve run whose generator p99 lateness exceeds this is invalid.
SERVE_LATENESS_LIMIT_MS = 20.0


def _rng(*parts: object) -> random.Random:
    # A str seed is hashed with SHA-512: stable across runs and platforms.
    return random.Random(":".join(["repro-bench", *map(str, parts)]))


def _request(protocol: str, params: dict, n: int, t: int,
             adversary: Optional[str], rng: random.Random):
    from repro.api import RunRequest
    if adversary is None:
        return RunRequest(protocol=protocol, protocol_params=params, n=n, t=t,
                          scenario="faulty-source-allies",
                          battery="worst-case", seed=rng.getrandbits(31))
    return RunRequest(protocol=protocol, protocol_params=params, n=n, t=t,
                      faulty=tuple(sorted(rng.sample(range(n), t))),
                      adversary=adversary, seed=rng.getrandbits(31))


def eig_requests(workload: str, seed: int) -> list:
    rng = _rng(workload, seed)
    if workload == "eig-n16":
        return [_request("exponential", {}, 16, 5, None, rng)
                for _ in range(EIG_N16_REQUESTS)]
    requests = []
    for protocol, params, n, t in EIG_N13:
        for adversary, count in ((None, EIG_N13_ALLIES),
                                 ("two-faced", EIG_N13_TWO_FACED)):
            requests.extend(_request(protocol, params, n, t, adversary, rng)
                            for _ in range(count))
    rng.shuffle(requests)
    return requests


def mc_specs(seed: int) -> list:
    """The campaigns a mc-mixed run cycles through, on the serial executor."""
    from repro.stats import McCell, McSpec
    cells = tuple(McCell(protocol=protocol, protocol_params=params, n=n, t=t,
                         adversary=adversary)
                  for protocol, params, n, t, adversary in MC_CELLS)
    rng = _rng("mc-mixed", seed)
    return [McSpec(cells=cells, trials=MC_TRIALS,
                   sweep_seed=rng.getrandbits(63), executor="serial")
            for _ in range(MC_CAMPAIGNS)]


def operations(workload: str, seed: int) -> list:
    """``(key, payload)`` of every operation an in-process run cycles through."""
    if workload == "mc-mixed":
        return [(f"campaign:{k}", spec)
                for k, spec in enumerate(mc_specs(seed))]
    return [(str(i), request)
            for i, request in enumerate(eig_requests(workload, seed))]


def serve_hot(seed: int) -> list:
    rng = _rng("serve-mixed", seed, "hot")
    return [_request(*entry, rng) for entry in SERVE_HOT]


def serve_fresh(seed: int, index: int):
    rng = _rng("serve-mixed", seed, "fresh", index)
    return _request(*rng.choice(SERVE_FRESH), rng)


def serve_schedule(seed: int, seconds: float) -> List[Tuple[float, str]]:
    """Poisson arrivals: ``(offset_s, key)`` with key ``hot:i`` or ``fresh:i``."""
    rng = _rng("serve-mixed", seed, "arrivals")
    schedule, offset, fresh = [], 0.0, 0
    while True:
        offset += rng.expovariate(SERVE_RATE)
        if offset >= seconds:
            return schedule
        if rng.random() < SERVE_MISS_SHARE:
            schedule.append((offset, f"fresh:{fresh}"))
            fresh += 1
        else:
            schedule.append((offset, f"hot:{rng.randrange(len(SERVE_HOT))}"))


# -- outcome checks --------------------------------------------------------------

def canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(data: Any) -> str:
    return hashlib.sha256(canonical(data).encode("utf-8")).hexdigest()


class Checker:
    """Counts wrong outputs: every key must map to one outcome digest.

    The first digest seen for a key is what later ones must repeat; with
    pinned digests (the default seed) it must also equal the pin.
    """

    def __init__(self, pinned: Optional[Dict[str, str]]) -> None:
        self.pinned = pinned
        self.seen: Dict[str, str] = {}
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, key: Optional[str], outcome_digest: str,
              ok: bool) -> None:
        """Record one output; a ``None`` key (warm-up) checks *ok* only."""
        expected = (outcome_digest if key is None
                    else self.seen.setdefault(key, outcome_digest))
        if self.pinned is not None and key in self.pinned:
            expected = self.pinned[key]
        if not ok:
            self.fail(f"{key}: agreement, validity or a bound was violated")
        elif outcome_digest != expected:
            self.fail(f"{key}: outcome digest {outcome_digest[:12]} != "
                      f"expected {expected[:12]}")


def perform(workload: str, payload, checkpoint: Optional[str] = None):
    """One operation: a ``run_mc`` campaign for mc-mixed, else ``execute()``."""
    if workload == "mc-mixed":
        from repro.stats import run_mc
        return run_mc(payload, checkpoint=checkpoint)
    from repro.api import execute
    return execute(payload)


def judge(workload: str, output) -> Tuple[str, bool]:
    """An operation's outcome digest, and whether the theorems held.

    Every benchmark input sits inside its protocol's resilience envelope,
    so agreement and validity must hold for each run; a campaign must
    complete with no verdict failure (``result.ok``).
    """
    if workload == "mc-mixed":
        return digest(output.state.to_dict()), output.ok
    return digest(output.outcome_dict()), output.succeeded


def _quantiles(values: List[float]) -> Dict[str, float]:
    cuts = (statistics.quantiles(values, n=100, method="inclusive")
            if len(values) > 1 else values * 99)
    return {f"p{q}": cuts[q - 1] for q in (10, 25, 50, 75, 90, 99)}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- in-process workloads ---------------------------------------------------------

class InProcess:
    """eig-n13, eig-n16 and mc-mixed: a closed loop with one caller.

    Warm-up runs one operation of every distinct shape (an eig request per
    protocol and size; a one-trial-per-cell campaign), which fills the
    interned index tables and the value codec before anything is timed.
    """

    def __init__(self, workload: str, seed: int, checker: Checker,
                 tracer=None) -> None:
        self.workload = workload
        self.checker = checker
        self.tracer = tracer
        self.checkpoint = OUT / f"mc-{os.getpid()}.jsonl"
        self.checkpoint_lines: List[int] = []
        self.ops = operations(workload, seed)
        if workload == "mc-mixed":
            self.warm = [replace(self.ops[0][1], trials=1)]
        else:
            shapes = {(r.protocol, r.n, r.t): r for _, r in self.ops}
            self.warm = list(shapes.values())

    def close(self) -> None:
        self.checkpoint.unlink(missing_ok=True)

    def _op(self, key: Optional[str], payload, op_id: Optional[int]
            ) -> float:
        """Run one operation (timed), then check its output (untimed)."""
        checkpoint = None
        if self.workload == "mc-mixed":
            self.checkpoint.unlink(missing_ok=True)  # each campaign is fresh
            checkpoint = str(self.checkpoint)
        frame = (self.tracer.enter(ROOT_SPAN, op=op_id, root=True)
                 if self.tracer else None)
        started = time.perf_counter()
        output = perform(self.workload, payload, checkpoint)
        elapsed = time.perf_counter() - started
        if frame is not None:
            self.tracer.exit(frame)
        if checkpoint is not None:
            with open(checkpoint, encoding="utf-8") as handle:
                self.checkpoint_lines.append(sum(1 for _ in handle))
        self.checker.check(key, *judge(self.workload, output))
        return elapsed

    def warm_up(self) -> None:
        for payload in self.warm:
            self._op(None, payload, None)

    def run(self, seconds: float) -> Dict[str, Any]:
        latencies: List[float] = []
        deadline = time.perf_counter() + seconds
        while not latencies or time.perf_counter() < deadline:
            key, payload = self.ops[len(latencies) % len(self.ops)]
            latencies.append(self._op(key, payload, len(latencies)))
        ops = len(latencies)
        timed = sum(latencies)
        per_op = (len(self.ops[0][1].cells) * MC_TRIALS
                  if self.workload == "mc-mixed" else 1)
        cuts = _quantiles([x * 1000.0 for x in latencies])
        result = {
            "attempted": ops,
            "e2e": {"p50_ms": cuts["p50"],
                    "ops_per_s": ops * per_op / timed,
                    "peak_rss_mb": _peak_rss_mb()},
            "extra": {"ops": ops, "runs_per_op": per_op, "p90_ms": cuts["p90"],
                      "mean_ms": 1000.0 * timed / ops,
                      "latency_quantiles_ms": cuts},
        }
        if self.tracer is not None:
            from tracing import layer_metrics
            timed_ops = set(range(ops))
            layers = layer_metrics(self.tracer, ops,
                                   lambda op, start: op in timed_ops,
                                   e2e_s=timed)
            if self.workload == "mc-mixed":
                layers["stats.checkpoint_lines"] = statistics.mean(
                    self.checkpoint_lines[-ops:])
            result["layers"] = layers
        return result


# -- serve-mixed -------------------------------------------------------------------

def spans_file(workload: str) -> Path:
    """Where a traced run leaves its spans (overwritten by the next one)."""
    return OUT / f"spans-{workload}.jsonl"


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _http(port: int, method: str, path: str, body: bytes = b"",
          timeout: float = 30.0) -> Tuple[int, bytes]:
    """One blocking HTTP/1.1 exchange (the server closes every connection)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(_head(method, path, len(body)) + body)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return _parse(b"".join(chunks))


def _head(method: str, path: str, length: int) -> bytes:
    return (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {length}\r\n"
            f"Connection: close\r\n\r\n").encode("ascii")


def _parse(raw: bytes) -> Tuple[int, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    parts = head.split(b" ", 2)
    return (int(parts[1]) if len(parts) > 1 else 0), body


class Server:
    """One ``repro serve`` subprocess with its own journal and cache dir."""

    def __init__(self, traced_spans: Optional[Path]) -> None:
        self.dir = OUT / f"serve-{os.getpid()}-{time.monotonic_ns()}"
        self.dir.mkdir(parents=True)
        self.journal = self.dir / "journal.jsonl"
        self.port = _free_port()
        serve_args = ["serve", "--port", str(self.port),
                      "--journal", str(self.journal),
                      "--cache-dir", str(self.dir / "cache")]
        if traced_spans is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(BENCH / "serve_launcher.py"),
                       "--spans-out", str(traced_spans), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}")
            try:
                if _http(self.port, "GET", "/readyz", timeout=5.0)[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve did not become ready")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def journal_lines(self) -> int:
        with open(self.journal, encoding="utf-8") as handle:
            return sum(1 for _ in handle)

    def stop(self) -> None:
        """Graceful SIGTERM drain (the traced launcher writes spans then)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        shutil.rmtree(self.dir, ignore_errors=True)


async def _post(port: int, body: bytes) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(_head("POST", "/run", len(body)) + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    return _parse(raw)


async def _open_loop(port: int, schedule: List[Tuple[float, bytes]]):
    """Send on schedule; at most :data:`SERVE_CONNECTIONS` in flight.

    Returns per request ``(due, send, done, status, body)`` and the
    generator's lateness (wake-up time minus due time) per request.
    """
    slots = asyncio.Semaphore(SERVE_CONNECTIONS)
    results: List[Any] = [None] * len(schedule)
    lateness: List[float] = []

    async def one(index: int, due: float, body: bytes) -> None:
        async with slots:
            send = time.perf_counter()
            try:
                status, payload = await _post(port, body)
            except OSError as exc:
                status, payload = 0, str(exc).encode()
            results[index] = (due, send, time.perf_counter(), status, payload)

    start = time.perf_counter() + 0.05
    tasks = []
    for index, (offset, body) in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(time.perf_counter() - due)
        tasks.append(asyncio.ensure_future(one(index, due, body)))
    await asyncio.gather(*tasks)
    return results, lateness


class Serve:
    """serve-mixed: an open loop against a ``repro serve`` subprocess."""

    def __init__(self, seed: int, checker: Checker, traced: bool,
                 setup_samples: int) -> None:
        self.seed = seed
        self.checker = checker
        self.spans_path = spans_file("serve-mixed") if traced else None
        self.hot = serve_hot(seed)
        self.setup_samples: List[float] = []
        self.server: Optional[Server] = None
        # Set-up is spawn to /readyz 200; earlier samples are stopped again.
        for sample in range(max(1, setup_samples)):
            last = sample == max(1, setup_samples) - 1
            server = Server(self.spans_path if last else None)
            self.setup_samples.append(server.setup_s)
            if last:
                self.server = server
            else:
                server.stop()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def warm_up(self) -> None:
        """Put the hot set in the cache (each one a miss, once)."""
        for request in self.hot:
            status, _ = _http(self.server.port, "POST", "/run",
                              json.dumps(request.to_dict()).encode())
            if status != 200:
                self.checker.fail(f"warm-up request answered {status}")

    def _request(self, key: str):
        kind, _, index = key.partition(":")
        if kind == "hot":
            return self.hot[int(index)]
        return serve_fresh(self.seed, int(index))

    def run(self, seconds: float) -> Dict[str, Any]:
        from repro.api import execute
        plan = serve_schedule(self.seed, seconds)
        keys = [key for _, key in plan]
        bodies = {key: json.dumps(self._request(key).to_dict()).encode()
                  for key in set(keys)}
        lines_before = self.server.journal_lines()
        window_start = time.perf_counter()
        results, lateness = asyncio.run(_open_loop(
            self.server.port, [(offset, bodies[key]) for offset, key in plan]))
        window_end = time.perf_counter()
        appends = self.server.journal_lines() - lines_before
        peak_rss = self.server.peak_rss_mb()
        self.close()  # the traced launcher writes its spans on this drain

        # Untimed: every distinct served outcome must equal an in-process
        # execute() byte for byte, and every response must be a 200.
        latencies, hits, misses = [], [], []
        served: Dict[str, set] = {}
        for key, (due, send, done, status, body) in zip(keys, results):
            latencies.append(done - due)
            if status != 200:
                self.checker.fail(f"{key}: HTTP {status} {body[:120]!r}")
                continue
            payload = json.loads(body)
            (hits if payload.get("cached") else misses).append(done - due)
            served.setdefault(key, set()).add(canonical(payload["outcome"]))
        for key, outcomes in sorted(served.items()):
            report = execute(self._request(key))
            local = canonical(report.outcome_dict())
            if outcomes != {local}:
                self.checker.fail(f"{key}: served outcome differs from an "
                                  f"in-process execute()")
            else:
                self.checker.check(key, digest(report.outcome_dict()),
                                   report.succeeded)
        count = len(results)
        ms = [x * 1000.0 for x in latencies]
        cuts = _quantiles(ms)
        late_ms = sorted(x * 1000.0 for x in lateness)
        late_p99 = statistics.quantiles(late_ms, n=100,
                                        method="inclusive")[98]
        span = max(r[2] for r in results) - min(r[0] for r in results)
        result = {
            "attempted": count,
            "e2e": {"p50_ms": cuts["p50"], "ops_per_s": count / span,
                    "peak_rss_mb": peak_rss},
            "extra": {
                "ops": count, "hits": len(hits), "misses": len(misses),
                "p90_ms": cuts["p90"],
                "serve_hit_p50_ms": (1000.0 * statistics.median(hits)
                                     if hits else None),
                "serve_miss_p50_ms": (1000.0 * statistics.median(misses)
                                      if misses else None),
                "mean_ms": statistics.mean(ms),
                "latency_quantiles_ms": cuts,
                "lateness_p50_ms": statistics.median(late_ms),
                "lateness_p99_ms": late_p99,
                "lateness_max_ms": late_ms[-1],
                "valid": late_p99 <= SERVE_LATENESS_LIMIT_MS,
                "journal_appends": appends,
            },
        }
        if self.spans_path is not None:
            from tracing import layer_metrics, read_spans
            tracer = read_spans(str(self.spans_path))
            layers = layer_metrics(
                tracer, count,
                lambda op, start: window_start <= start <= window_end,
                e2e_s=sum(latencies), root=None,
                client=[(r[0], r[1], r[2]) for r in results])
            layers["serve.cache.hit_ratio"] = len(hits) / count
            layers["serve.journal.appends"] = appends / count
            layers["stats.checkpoint_lines"] = 0.0
            result["layers"] = layers
        return result


# -- entry point ------------------------------------------------------------------

def pin(seed: int) -> Dict[str, Any]:
    """Outcome digests of every input a run at *seed* can send."""
    pinned: Dict[str, Dict[str, str]] = {}
    serve = [(f"hot:{i}", r) for i, r in enumerate(serve_hot(seed))]
    serve += [(f"fresh:{i}", serve_fresh(seed, i))
              for i in range(SERVE_PINNED_FRESH)]
    for workload in WORKLOADS:
        ops = (serve if workload == "serve-mixed"
               else operations(workload, seed))
        pinned[workload] = {}
        for key, payload in ops:
            outcome, ok = judge(workload, perform(workload, payload))
            if not ok:
                raise SystemExit(f"{workload} {key}: a theorem failed")
            pinned[workload][key] = outcome
    return {"seed": seed, "digest": "sha256 of canonical outcome JSON",
            "workloads": pinned}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--mode", choices=("run", "setup", "pin"),
                        default="run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--expected", default=str(BENCH
                                                  / "expected_outcomes.json"))
    parser.add_argument("--setup-samples", type=int, default=1,
                        help="serve-mixed: servers started to time set-up")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.mode == "pin":
        print(json.dumps(pin(args.seed), indent=1, sort_keys=True))
        return 0

    tracer = None
    if args.trace and args.workload != "serve-mixed":
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    pinned = None
    if args.seed == DEFAULT_SEED:
        with open(args.expected, encoding="utf-8") as handle:
            pinned = json.load(handle)["workloads"][args.workload]
    checker = Checker(pinned)
    if args.workload == "serve-mixed":
        runner: Any = Serve(args.seed, checker, args.trace,
                            args.setup_samples)
    else:
        runner = InProcess(args.workload, args.seed, checker, tracer)
    try:
        runner.warm_up()
        print("READY", flush=True)
        if args.mode == "setup":
            return 1 if checker.failed else 0
        result = runner.run(args.seconds)
    finally:
        runner.close()
    if tracer is not None:
        tracer.write(str(spans_file(args.workload)))
    result.update(failed=checker.failed, errors=checker.errors,
                  setup_samples_s=getattr(runner, "setup_samples", None))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
