"""Perf — end-to-end wall-clock of the EIG engines vs the seed engine.

Unlike the table benchmarks (which count abstract units), this benchmark
measures *interpreter* time: one full ``run_agreement`` per cell, under the
worst-case equivocating-source adversary, once per engine:

* ``"reference"`` — the seed's dict-of-tuples implementation, kept verbatim
  as the executable specification (the before/after baseline);
* ``"fast"`` — interned sequences, flat level-major buffers, batched resolve,
  by-reference level messages;
* ``"numpy"`` — the flat layout on small-int code ndarrays with vectorized
  gathering, per-level ``bincount`` conversions and slot-wise adversary
  rewrites.  Timed only when numpy is importable (the engine is optional).

A fourth timeable mode is ``"batched"`` — not a per-processor engine but the
whole-run executor (a run whose ``ProtocolConfig.engine`` is ``"batched"``):
every correct processor (and every adversary shadow) steps as one 2-D numpy
kernel per round.  It is timed only on the cells whose spec it actually
accelerates (``repro.runtime.batched.batched_supported`` — the EIG specs,
Algorithm C and the hybrid; the baselines fall back to the per-processor
driver).

Running ``python benchmarks/bench_perf.py`` writes ``BENCH_perf.json`` at the
repository root with per-cell timings and speedups, run metadata
(python/numpy versions, platform, CPU count, engine list) so the perf
trajectory across PRs stays attributable, and the headline cell (Exponential
at ``n=13, t=4``), which carries the acceptance gates: the fast engine must
be ≥ 5× the reference end-to-end, the numpy engine ≥ 2× the fast engine, and
the batched executor ≥ 1.5× the per-processor numpy engine — while at the
small ``n=7, t=2`` Exponential cell batched must not lose to the fast engine
(the small-level crossover).  The perf smoke test
(``benchmarks/test_perf_smoke.py``) re-checks a small grid against this
recording.  Use ``--engine`` (repeatable) to time a subset of engines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.algorithm_a import AlgorithmASpec
from repro.core.algorithm_b import AlgorithmBSpec
from repro.core.algorithm_c import AlgorithmCSpec
from repro.core.engine import (BATCHED, CONFIG_ENGINES, numpy_available,
                               validate_engine)
from repro.core.exponential import ExponentialSpec
from repro.core.hybrid import HybridSpec
from repro.core.protocol import ProtocolConfig, ProtocolSpec
from repro.experiments.workloads import worst_case_scenarios
from repro.runtime.batched import batched_supported
from repro.runtime.errors import ConfigurationError
from repro.runtime.simulation import run_agreement

#: The small-``n`` cell on which batched must not lose to the fast engine.
CROSSOVER = ("exponential", 7, 2)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: The acceptance-criterion cell: Exponential Information Gathering at the
#: largest (n, t) the seed engine handles in around a second.
HEADLINE = ("exponential", 13, 4)

#: (label, spec factory, [(n, t), ...]) — every algorithm family of the paper.
CELLS: List[Tuple[str, type, tuple, List[Tuple[int, int]]]] = [
    ("exponential", ExponentialSpec, (), [(7, 2), (10, 3), (13, 4)]),
    ("algorithm-a(b=3)", AlgorithmASpec, (3,), [(10, 3), (13, 4)]),
    ("algorithm-b(b=2)", AlgorithmBSpec, (2,), [(9, 2), (13, 3)]),
    ("algorithm-c", AlgorithmCSpec, (), [(14, 2), (20, 3)]),
    ("hybrid(b=3)", HybridSpec, (3,), [(10, 3), (13, 4), (16, 5)]),
]

#: The large-``n`` grid past the classic recording (reference is skipped
#: there — the seed engine needs minutes per run at these sizes).  Their
#: level stacks span more than one row block.
LARGE_CELLS: List[Tuple[str, type, tuple, List[Tuple[int, int]]]] = [
    ("exponential", ExponentialSpec, (), [(15, 4), (16, 5)]),
]

#: Engines timed on the large cells (everything but the seed engine).
LARGE_ENGINES = ["fast", "numpy", BATCHED]

#: Per-cell wall-clock budget the recording asserts for the large cells:
#: every mode timed there must finish one run inside this many seconds —
#: the same budget every classic cell trivially meets.
LARGE_CELL_BUDGET_SECONDS = 60.0


def default_engines() -> List[str]:
    """Every mode timeable in this process (numpy and batched need numpy)."""
    if numpy_available():
        return ["reference", "fast", "numpy", BATCHED]
    return ["reference", "fast"]


def time_run(spec: ProtocolSpec, n: int, t: int, engine: str,
             repetitions: int = 5) -> Tuple[float, object]:
    """Best-of-*repetitions* wall-clock of one run under *engine*.

    One untimed warm-up run precedes the timed repetitions so every engine
    is measured with its lazily built tables (interned sequence indexes,
    ndarray twins, codec, ufunc dispatch) in place — otherwise whichever
    cell happens to run first in the process pays those one-time costs in
    its recording.

    Returns ``(seconds, decision_value)`` so callers can cross-check that
    every engine decided identically.
    """
    scenario = worst_case_scenarios(n, t)[0]
    config = ProtocolConfig(n=n, t=t, initial_value=1, engine=engine)

    def one_run():
        return run_agreement(spec, config, scenario.faulty,
                             scenario.adversary())

    best = float("inf")
    decision = None
    one_run()  # untimed warm-up
    for _ in range(repetitions):
        start = time.perf_counter()
        result = one_run()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        if not result.agreement:
            raise AssertionError(
                f"{spec.name} at (n={n}, t={t}) violated agreement under "
                f"{scenario.name} with engine {engine!r}")
        decision = result.decision_value
    return best, decision


def _speedup(baseline: Optional[float], candidate: Optional[float]):
    if baseline is None or candidate is None or candidate <= 0:
        return None
    return round(baseline / candidate, 2)


def _time_cell(label: str, spec_cls, args, n: int, t: int,
               cell_engines: Sequence[str],
               repetitions: int) -> Dict[str, object]:
    """Time one (label, n, t) cell under every engine and build its row."""
    seconds: Dict[str, float] = {}
    decisions: Dict[str, object] = {}
    for engine in cell_engines:
        seconds[engine], decisions[engine] = time_run(
            spec_cls(*args), n, t, engine, repetitions)
    if len(set(decisions.values())) > 1:
        raise AssertionError(
            f"{label} at (n={n}, t={t}): engines decided differently "
            f"({decisions!r})")
    reference_s = seconds.get("reference")
    fast_s = seconds.get("fast")
    numpy_s = seconds.get("numpy")
    batched_s = seconds.get(BATCHED)
    row: Dict[str, object] = {
        "protocol": label,
        "n": n,
        "t": t,
        "scenario": worst_case_scenarios(n, t)[0].name,
    }
    for engine in cell_engines:
        row[f"{engine}_seconds"] = round(seconds[engine], 6)
    row.update({
        # "speedup" stays fast-vs-reference: it is the recorded gate
        # the perf smoke test asserts on.
        "speedup": _speedup(reference_s, fast_s),
        "numpy_speedup": _speedup(reference_s, numpy_s),
        "numpy_vs_fast": _speedup(fast_s, numpy_s),
    })
    if batched_s is not None:
        row.update({
            "batched_speedup": _speedup(reference_s, batched_s),
            "batched_vs_fast": _speedup(fast_s, batched_s),
            "batched_vs_numpy": _speedup(numpy_s, batched_s),
        })
    timings = "   ".join(f"{engine} {seconds[engine]:8.3f}s"
                         for engine in cell_engines)
    print(f"{label:18s} n={n:3d} t={t}  {timings}")
    return row


def run_benchmark(repetitions: int = 5, cells=CELLS,
                  engines: Optional[Sequence[str]] = None,
                  include_large: bool = True) -> Dict[str, object]:
    """Measure every cell under every requested engine and return the report.

    With the default engine list, the large-``n`` grid (:data:`LARGE_CELLS`)
    is timed too, under every non-reference mode; the recording asserts
    each of those cells completes within :data:`LARGE_CELL_BUDGET_SECONDS`.
    An explicit ``--engine`` subset skips the large grid unless ``batched``
    is among the requested modes.
    """
    requested = list(engines) if engines is not None else None
    engines = requested if requested is not None else default_engines()
    rows: List[Dict[str, object]] = []
    headline: Optional[Dict[str, object]] = None
    for label, spec_cls, args, grid in cells:
        for n, t in grid:
            cell_engines = list(engines)
            if BATCHED in cell_engines and not batched_supported(
                    spec_cls(*args), ProtocolConfig(n=n, t=t,
                                                    initial_value=1)):
                # Batched falls back to the per-processor driver here;
                # recording its time would just duplicate the numpy column.
                cell_engines.remove(BATCHED)
            if not cell_engines:
                # e.g. --engine batched alone on a baseline cell: a
                # timing-free row would corrupt the record.
                continue
            row = _time_cell(label, spec_cls, args, n, t, cell_engines,
                             repetitions)
            rows.append(row)
            if (label, n, t) == HEADLINE:
                headline = row

    large_budget = None
    run_large = (include_large and numpy_available()
                 and (requested is None or BATCHED in requested))
    if run_large:
        large_budget = LARGE_CELL_BUDGET_SECONDS
        large_engines = (LARGE_ENGINES if requested is None
                         else [e for e in requested if e in LARGE_ENGINES])
        for label, spec_cls, args, grid in LARGE_CELLS:
            for n, t in grid:
                row = _time_cell(label, spec_cls, args, n, t, large_engines,
                                 repetitions)
                over = {engine: row[f"{engine}_seconds"]
                        for engine in large_engines
                        if row[f"{engine}_seconds"] > large_budget}
                if over:
                    raise AssertionError(
                        f"{label} at (n={n}, t={t}) blew the "
                        f"{large_budget:.0f}s large-cell budget: {over}")
                rows.append(row)

    report = {
        "benchmark": "bench_perf",
        "description": ("End-to-end run_agreement wall-clock, worst-case "
                        "equivocating-source scenario, best of "
                        f"{repetitions} repetitions per engine."),
        "python": sys.version.split()[0],
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "engines": engines,
        "large_cell_budget_seconds": large_budget,
        "headline": headline,
        "rows": rows,
    }
    return report


def _numpy_version() -> Optional[str]:
    """The numpy version string, or ``None`` on a bare image."""
    if not numpy_available():
        return None
    from repro.core.npsupport import get_numpy
    return get_numpy().__version__


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", action="append",
                        choices=CONFIG_ENGINES,
                        default=None, dest="engines",
                        help="engine/mode to time (repeatable; default: "
                             "every mode available in this process; "
                             "'batched' is the whole-run executor)")
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--skip-large", action="store_true",
                        help="skip the large-n grid (cells beyond the "
                             "classic recording)")
    parser.add_argument("--no-write", action="store_true",
                        help="print timings without rewriting BENCH_perf.json")
    args = parser.parse_args(argv)
    if args.engines:
        try:
            for engine in args.engines:
                validate_engine(engine)
        except ConfigurationError as exc:
            parser.error(str(exc))
    report = run_benchmark(repetitions=args.repetitions, engines=args.engines,
                           include_large=not args.skip_large)
    if not args.no_write:
        if report["headline"] is None:
            # The perf smoke gate reads the headline cell out of the
            # recording; an engine subset that never times it must not
            # replace BENCH_perf.json with a gate-breaking partial record.
            parser.error(
                "this engine subset records no headline cell; include a "
                "classic engine (reference/fast/numpy/batched) or pass "
                "--no-write")
        if BENCH_PATH.exists():
            # Other recorders (bench_serve.py's "serve" section) merge into
            # the same file; carry their sections across the rewrite.
            previous = json.loads(BENCH_PATH.read_text())
            for key, value in previous.items():
                report.setdefault(key, value)
        BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {BENCH_PATH}")
    headline = report["headline"]
    if headline is not None:
        fast = headline.get("speedup")
        vs_fast = headline.get("numpy_vs_fast")
        vs_numpy = headline.get("batched_vs_numpy")
        if fast is not None:
            print(f"headline: Exponential n={headline['n']} t={headline['t']} "
                  f"fast speedup {fast}x "
                  f"({'PASS' if fast >= 5 else 'FAIL'} vs the 5x gate)")
        if vs_fast is not None:
            print(f"headline: numpy vs fast {vs_fast}x "
                  f"({'PASS' if vs_fast >= 2 else 'FAIL'} vs the 2x gate)")
        if vs_numpy is not None:
            print(f"headline: batched vs numpy {vs_numpy}x "
                  f"({'PASS' if vs_numpy >= 1.5 else 'FAIL'} vs the 1.5x "
                  f"gate)")
    for row in report["rows"]:
        if (row["protocol"], row["n"], row["t"]) == CROSSOVER:
            crossover = row.get("batched_vs_fast")
            if crossover is not None:
                print(f"crossover: Exponential n={row['n']} t={row['t']} "
                      f"batched vs fast {crossover}x "
                      f"({'PASS' if crossover >= 1 else 'FAIL'} vs the "
                      f"no-crossover gate)")
    budget = report.get("large_cell_budget_seconds")
    if budget is not None:
        for row in report["rows"]:
            if "batched_seconds" in row and "reference_seconds" not in row:
                ratio = row.get("batched_vs_numpy")
                versus = (f", {ratio}x vs numpy" if ratio is not None
                          else "")
                print(f"large cell: {row['protocol']} n={row['n']} "
                      f"t={row['t']} batched {row['batched_seconds']:.3f}s "
                      f"(within the {budget:.0f}s budget{versus})")


if __name__ == "__main__":
    main()
