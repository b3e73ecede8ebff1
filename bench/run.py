"""The benchmark command: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py                       # all four workloads, untraced
    python3 bench/run.py --workload eig-n13 --seed 7 --seconds 25
    python3 bench/run.py --trace 1             # per-layer metrics instead
    python3 bench/run.py --out runs.jsonl      # also append the full record
    python3 bench/run.py --pin                 # re-write expected_outcomes.json

Each workload runs in its own child process (``bench/workloads.py``).  The
command prints every metric by name with its unit, then, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  It exits
non-zero when any output is wrong, and with 2 when there is no ``src/repro``
to measure.

``setup_s`` is the median of several set-ups: for the in-process workloads,
child start to ``READY`` (import plus untimed warm-up), once per extra
set-up-only child and once for the measured child; for serve-mixed, server
spawn to the first ``/readyz`` 200, once per server started.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in CONFIG["workloads"])
E2E = {m["name"]: m for m in CONFIG["end_to_end"]}
LAYERS = {m["name"]: m for m in CONFIG["per_layer"]}
DEFAULT_SEED = 1
#: A child that runs longer than its timed phase plus this is killed.
CHILD_GRACE_S = 120.0


def _child(args: List[str], budget_s: float
           ) -> Tuple[Optional[float], Optional[Dict[str, Any]], int]:
    """Run one ``workloads.py`` child: ``(ready_s, result, returncode)``."""
    command = [sys.executable, str(BENCH / "workloads.py"), *args]
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(budget_s, proc.kill)
    watchdog.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return ready, result, proc.returncode


def _measure(workload: str, seed: int, seconds: float, trace: bool,
             setup_samples: int, expected: str) -> Dict[str, Any]:
    """One workload, untraced or traced; raises RuntimeError on a crash."""
    base = ["--workload", workload, "--seed", str(seed),
            "--expected", expected]
    budget = seconds + CHILD_GRACE_S
    samples: List[float] = []
    if workload != "serve-mixed":
        for _ in range(setup_samples - 1):
            ready, _, code = _child(base + ["--mode", "setup"], budget)
            if code != 0 or ready is None:
                raise RuntimeError(f"{workload}: set-up child exited {code}")
            samples.append(ready)
    child_args = base + ["--seconds", str(seconds),
                         "--setup-samples", str(setup_samples)]
    ready, result, code = _child(child_args, budget)
    if code != 0 or result is None:
        raise RuntimeError(f"{workload}: child exited {code} without a result")
    samples.extend(result.pop("setup_samples_s", None) or [ready])
    result["e2e"]["setup_s"] = statistics.median(samples)
    result["extra"]["setup_samples_s"] = samples
    if trace:
        _, traced, code = _child(child_args + ["--trace"], budget)
        if code != 0 or traced is None:
            raise RuntimeError(f"{workload}: traced child exited {code}")
        layers = traced["layers"]
        layers["trace.overhead"] = (traced["extra"]["mean_ms"]
                                    / result["extra"]["mean_ms"])
        result["layers"] = layers
        result["traced_extra"] = traced["extra"]
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["errors"] += traced["errors"]
    return result


def _metadata(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    try:
        from importlib.metadata import PackageNotFoundError, version
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform(),
            "cpus": len(os.sched_getaffinity(0)), "commit": commit,
            "seed": seed, "seconds": seconds, "trace": trace,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def _declared(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    if trace:
        return {name: {"value": result["layers"][name], "unit": m["unit"]}
                for name, m in LAYERS.items()}
    return {name: {"value": result["e2e"][name], "unit": m["unit"]}
            for name, m in E2E.items()}


def _print_workload(workload: str, result: Dict[str, Any],
                    trace: bool) -> None:
    extra = result["extra"]
    print(f"== {workload}: {result['attempted']} operations, "
          f"{result['failed']} failed ==")
    for name, metric in _declared(result, trace).items():
        print(f"  {name:48s} {metric['value']:14.4f} {metric['unit']}")
    reported = [("p90_ms", "ms")]
    if workload == "serve-mixed":
        reported += [("serve_hit_p50_ms", "ms"), ("serve_miss_p50_ms", "ms"),
                     ("lateness_p99_ms", "ms")]
    for key, unit in reported:
        print(f"  {key:48s} {extra[key]:14.4f} {unit} (reported, no bound)")
    if extra.get("valid") is False:
        print("  INVALID: serve generator p99 lateness over 20 ms")
    if trace:
        print(f"  {'trace.reconcile':48s} "
              f"{result['layers']['trace.reconcile']:14.4f} ratio")
    for error in result["errors"]:
        print(f"  WRONG OUTPUT: {error}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Byzantine-agreement benchmark (see bench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(CONFIG["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--out", help="append the full run record (JSONL)")
    parser.add_argument("--expected", default=str(BENCH
                                                  / "expected_outcomes.json"),
                        help="pinned outcome digests for the default seed")
    parser.add_argument("--setup-samples", type=int, default=5)
    parser.add_argument("--pin", action="store_true",
                        help="write --expected from the default-seed inputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    if args.pin:
        probe = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), "--mode", "pin",
             "--seed", str(DEFAULT_SEED)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if probe.returncode != 0:
            print(probe.stderr, file=sys.stderr)
            return 1
        Path(args.expected).write_text(probe.stdout, encoding="utf-8")
        print(f"pinned default-seed outcomes into {args.expected}")
        return 0

    # A traced run splits its time between an untraced and a traced pass
    # (their ratio is trace.overhead); its set-up time is not reported.
    trace = bool(args.trace)
    seconds = args.seconds / 2 if trace else args.seconds
    setup_samples = 1 if trace else max(1, args.setup_samples)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    record = {"meta": _metadata(args.seed, args.seconds, trace),
              "workloads": {}}
    for workload in workloads:
        try:
            result = _measure(workload, args.seed, seconds, trace,
                              setup_samples, args.expected)
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        result["correct"] = result["failed"] == 0
        result["metrics"] = _declared(result, trace)
        record["workloads"][workload] = result
        _print_workload(workload, result, trace)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    results = record["workloads"].values()
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results)}
    if args.workload:
        summary["metrics"] = record["workloads"][args.workload]["metrics"]
    else:
        summary["metrics"] = {f"{w}.{name}": metric
                              for w, r in record["workloads"].items()
                              for name, metric in r["metrics"].items()}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
