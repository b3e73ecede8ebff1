"""Perf smoke: the array engines must stay fast.

Collected by the tier-1 pytest run (unlike the ``bench_*`` table benchmarks,
which only run under pytest-benchmark), so every change to an engine is
gated on the points below.  That every engine matches the reference oracle
is the parity matrix's claim (:mod:`tests.parity`).

1. **Relative speed** — the fast engine is not slower than 1.5× the
   reference engine on the same grid, and the numpy engine is not slower
   than 1.2× the fast engine on the headline-sized Exponential cell
   (``n=13, t=4``).  The numpy gate runs at that size on purpose: ndarray
   creation overhead makes numpy *slower* on tiny levels (tens of nodes) —
   its reason to exist is the large-``(n, t)`` regime, where it is several
   times faster, so that is where the regression gate sits.  The batched
   whole-run executor, whose reason to exist is erasing exactly that
   per-call overhead, must be ≥ 1.5× the per-processor numpy engine at the
   headline cell in the recording — live, batched must not be slower than
   1.1× numpy there.
   The façade must reach the right executor: ``engine="auto"`` resolves to
   batched at the headline cell and on every recorded Algorithm C and
   hybrid cell (their Algorithm C phase steps as row stacks too).
2. **Recorded baseline** — when ``BENCH_perf.json`` exists, the recording
   itself must show the acceptance-gate speedups (≥ 5× fast-vs-reference on
   the Exponential headline cell, ≥ 2× numpy-vs-fast, and — when the
   recording includes the batched executor — ≥ 1.5× batched-vs-numpy at the
   headline plus no small-level crossover: batched not slower than fast at
   the Exponential ``n=7, t=2`` cell, and batched not slower than fast on
   any recorded Algorithm C or hybrid cell), and with
   ``REPRO_PERF_STRICT=1`` a fresh measurement of the smoke grid must come
   in under 1.5× its recorded fast-engine baseline (opt-in because absolute
   times are machine-dependent).  On the recorded large cells (Exponential
   ``n=15`` and ``n=16``) the row-blocked batched executor must not be
   slower than per-processor numpy, and the batched grid must extend at
   least two processors past the largest Exponential cell the reference
   engine is timed on, inside the recorded per-cell budget.

Every numpy assertion auto-skips when numpy is unavailable, so tier-1 stays
green on bare environments.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import load_recorded_perf, recorded_perf_row

from repro.api import RunRequest, execute, request_fields_for_spec
from repro.core.algorithm_b import AlgorithmBSpec
from repro.core.algorithm_c import AlgorithmCSpec
from repro.core.engine import numpy_available
from repro.core.exponential import ExponentialSpec
from repro.core.hybrid import HybridSpec
from repro.core.protocol import ProtocolConfig
from repro.experiments.workloads import worst_case_scenarios
from repro.runtime.simulation import run_agreement

#: The small grid: one representative of each tree flavour / conversion.
SMOKE_CELLS = [
    ("exponential", ExponentialSpec, (), 10, 3),
    ("algorithm-b(b=2)", AlgorithmBSpec, (2,), 9, 2),
    ("algorithm-c", AlgorithmCSpec, (), 14, 2),
]

#: Where the numpy-vs-fast speed gate runs (small levels favour fast).
NUMPY_GATE_CELL = ("exponential", ExponentialSpec, (), 13, 4)

def _run(spec_cls, args, n, t, engine, scenario):
    config = ProtocolConfig(n=n, t=t, initial_value=1, engine=engine)
    start = time.perf_counter()
    result = run_agreement(spec_cls(*args), config, scenario.faulty,
                           scenario.adversary())
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.mark.parametrize("label, spec_cls, args, n, t", SMOKE_CELLS)
def test_fast_engine_not_slower_than_reference(label, spec_cls, args, n, t):
    scenario = worst_case_scenarios(n, t)[0]
    fast_s = min(_run(spec_cls, args, n, t, "fast", scenario)[1]
                 for _ in range(3))
    reference_s = min(_run(spec_cls, args, n, t, "reference", scenario)[1]
                      for _ in range(3))
    assert fast_s <= 1.5 * reference_s, (
        f"{label}: fast engine took {fast_s:.4f}s vs reference "
        f"{reference_s:.4f}s (> 1.5x)")


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_batched_beats_numpy_at_scale():
    """The live 1.1× bound under the recorded 1.5× batched gate."""
    label, spec_cls, args, n, t = NUMPY_GATE_CELL
    scenario = worst_case_scenarios(n, t)[0]
    batched_s = min(_run(spec_cls, args, n, t, "batched", scenario)[1]
                    for _ in range(3))
    numpy_s = min(_run(spec_cls, args, n, t, "numpy", scenario)[1]
                  for _ in range(3))
    # Tolerance-style live bound (like the numpy-vs-fast gate below); the
    # strict >= 1.5x acceptance ratio is enforced deterministically against
    # the recorded BENCH_perf.json, where machine load cannot flake it.
    assert batched_s <= 1.1 * numpy_s, (
        f"{label} (n={n}, t={t}): batched executor took {batched_s:.4f}s vs "
        f"per-processor numpy {numpy_s:.4f}s (> 1.1x); whole-run batching "
        f"regressed at the headline cell")


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_facade_auto_resolves_to_batched_at_headline():
    """The façade path must reach the batched executor, not just run.

    ``engine="auto"`` on the headline Exponential cell has to resolve to the
    whole-run batched executor (this is what makes the harness's
    ``execute_many`` sweeps compound batching with pool parallelism), and the
    report's run metadata is the proof.
    """
    label, _, _, n, t = NUMPY_GATE_CELL
    report = execute(RunRequest(protocol=label, n=n, t=t, initial_value=1,
                                scenario="faulty-source-allies",
                                battery="worst-case", engine="auto"))
    assert report.engine == "auto"
    assert report.engine_resolved == "batched", (
        f"auto resolved to {report.engine_resolved!r} on the eligible "
        f"headline cell; the planner lost the batched path")
    assert report.agreement


def _recorded_c_and_hybrid_cells():
    """The recorded Algorithm C and hybrid cells: ``(label, spec, n, t)``."""
    from bench_perf import CELLS
    return [(label, spec_cls(*args), n, t)
            for label, spec_cls, args, grid in CELLS
            if spec_cls in (AlgorithmCSpec, HybridSpec) for n, t in grid]


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_facade_auto_resolves_to_batched_on_recorded_c_and_hybrid_cells():
    """``auto`` must plan C and the hybrid onto the batched executor.

    Their Algorithm C phase steps as row stacks, so every recorded C and
    hybrid cell — including the hybrid at ``(16, 5)``, where per-processor
    numpy used to beat fast — resolves to batched, proved per cell by the
    report's run metadata.
    """
    cells = _recorded_c_and_hybrid_cells()
    assert len(cells) == 5
    for _, spec, n, t in cells:
        protocol, params = request_fields_for_spec(spec)
        report = execute(RunRequest(protocol=protocol, protocol_params=params,
                                    n=n, t=t, initial_value=1,
                                    scenario="faulty-source-allies",
                                    battery="worst-case", engine="auto"))
        assert report.engine_resolved == "batched", (
            f"auto resolved {spec.name} (n={n}, t={t}) to "
            f"{report.engine_resolved!r}; C and hybrid runs step as "
            f"batched row stacks")
        assert report.agreement


def test_recorded_batched_not_slower_than_fast_on_c_and_hybrid_cells():
    """Recorded batched must not lose to fast on any C or hybrid cell.

    ``fast`` is what ``auto`` ran these cells on before they batched, so
    the batched column has to match or beat it cell by cell.
    """
    report = load_recorded_perf()
    if report is None:
        pytest.skip("BENCH_perf.json not recorded yet (run benchmarks/bench_perf.py)")
    engines = report.get("engines", [])
    if "batched" not in engines or "fast" not in engines:
        pytest.skip("recorded BENCH_perf.json does not time both batched and "
                    "fast (partial --engine recording or no numpy)")
    for label, _, n, t in _recorded_c_and_hybrid_cells():
        row = recorded_perf_row(report, label, n, t)
        assert row is not None, f"recording lacks the {label} n={n} cell"
        ratio = row.get("batched_vs_fast")
        assert ratio is not None and ratio >= 1, (
            f"recorded batched executor is {ratio}x the fast engine at "
            f"{label} n={n}, t={t}; batched C/hybrid lost to fast")


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_numpy_engine_not_slower_than_fast_at_scale():
    label, spec_cls, args, n, t = NUMPY_GATE_CELL
    scenario = worst_case_scenarios(n, t)[0]
    numpy_s = min(_run(spec_cls, args, n, t, "numpy", scenario)[1]
                  for _ in range(3))
    fast_s = min(_run(spec_cls, args, n, t, "fast", scenario)[1]
                 for _ in range(3))
    assert numpy_s <= 1.2 * fast_s, (
        f"{label} (n={n}, t={t}): numpy engine took {numpy_s:.4f}s vs fast "
        f"{fast_s:.4f}s (> 1.2x); the vectorized backend regressed at scale")


def test_recorded_baseline_shows_acceptance_speedup():
    report = load_recorded_perf()
    if report is None:
        pytest.skip("BENCH_perf.json not recorded yet (run benchmarks/bench_perf.py)")
    headline = report.get("headline")
    assert headline is not None, "recorded report lacks the headline cell"
    if headline.get("speedup") is None:
        # A partial recording (bench_perf.py --engine subset) carries no
        # fast-vs-reference ratio to gate on.
        pytest.skip("recorded BENCH_perf.json lacks the fast-vs-reference "
                    "headline (partial --engine recording)")
    assert headline["speedup"] >= 5, (
        f"recorded Exponential n={headline['n']} t={headline['t']} speedup "
        f"{headline['speedup']}x is below the 5x acceptance gate")
    if "numpy" in report.get("engines", []) and headline.get(
            "numpy_vs_fast") is not None:
        assert headline["numpy_vs_fast"] >= 2, (
            f"recorded numpy-vs-fast headline speedup "
            f"{headline['numpy_vs_fast']}x is below the 2x acceptance gate")
    if "batched" in report.get("engines", []) and headline.get(
            "batched_vs_numpy") is not None:
        # A partial --engine recording may time batched without numpy and
        # carries no ratio to gate on, like the numpy branch above.
        assert headline["batched_vs_numpy"] >= 1.5, (
            f"recorded batched-vs-numpy headline speedup "
            f"{headline['batched_vs_numpy']}x is below the 1.5x acceptance "
            f"gate")


def test_recorded_baseline_shows_no_small_level_crossover():
    """Recorded batched time must not lose to fast at Exponential n=7,t=2."""
    report = load_recorded_perf()
    if report is None:
        pytest.skip("BENCH_perf.json not recorded yet (run benchmarks/bench_perf.py)")
    if "batched" not in report.get("engines", []):
        pytest.skip("recorded BENCH_perf.json does not time the batched "
                    "executor (partial --engine recording or no numpy)")
    row = recorded_perf_row(report, "exponential", 7, 2)
    assert row is not None, "recording lacks the Exponential n=7,t=2 cell"
    ratio = row.get("batched_vs_fast")
    if ratio is None:
        # A partial --engine recording may time batched without fast and
        # carries no ratio to gate on.
        pytest.skip("recorded Exponential n=7,t=2 cell lacks the "
                    "batched-vs-fast ratio (partial --engine recording)")
    assert ratio >= 1, (
        f"recorded batched executor is {ratio}x the fast engine at "
        f"Exponential n=7,t=2 — the small-level crossover is back")


def test_recorded_batched_grid_extends_past_the_classic_grid():
    """The batched recording must reach past the reference engine's grid.

    The large-``n`` acceptance claim: the batched executor completes an
    Exponential cell at an ``n`` at least 2 larger than the largest cell
    the reference engine is timed on, inside the recording's per-cell
    wall-clock budget.
    """
    report = load_recorded_perf()
    if report is None:
        pytest.skip("BENCH_perf.json not recorded yet (run benchmarks/bench_perf.py)")
    if "batched" not in report.get("engines", []):
        pytest.skip("recorded BENCH_perf.json does not time the batched "
                    "executor (partial --engine recording or no numpy)")
    budget = report.get("large_cell_budget_seconds")
    assert budget, "recording lacks its large-cell wall-clock budget"
    batched_rows = [row for row in report.get("rows", [])
                    if row.get("protocol") == "exponential"
                    and "batched_seconds" in row]
    classic = max(row["n"] for row in report["rows"]
                  if row.get("protocol") == "exponential"
                  and "reference_seconds" in row)
    frontier = max(row["n"] for row in batched_rows)
    assert frontier >= classic + 2, (
        f"batched grid stops at n={frontier}; the reference grid already "
        f"reaches n={classic}")
    for row in batched_rows:
        if "reference_seconds" in row:
            continue
        assert row["batched_seconds"] <= budget, (
            f"recorded batched Exponential n={row['n']} t={row['t']} took "
            f"{row['batched_seconds']}s, over the {budget}s budget")


def test_recorded_batched_not_slower_than_numpy_at_large_n():
    """Recorded batched must match per-processor numpy on the large cells.

    At Exponential ``n=15`` and ``n=16`` the leaf stacks span more than one
    row block; the row-blocked batched kernels must be at least as fast there
    as the per-processor numpy engine — the condition for retiring that
    engine tier.
    """
    from bench_perf import LARGE_CELLS
    report = load_recorded_perf()
    if report is None:
        pytest.skip("BENCH_perf.json not recorded yet (run benchmarks/bench_perf.py)")
    engines = report.get("engines", [])
    if "batched" not in engines or "numpy" not in engines:
        pytest.skip("recorded BENCH_perf.json does not time both batched and "
                    "numpy (partial --engine recording or no numpy)")
    cells = [(label, n, t) for label, _, _, grid in LARGE_CELLS
             for n, t in grid]
    assert {n for _, n, _ in cells} >= {15, 16}
    for label, n, t in cells:
        row = recorded_perf_row(report, label, n, t)
        assert row is not None, f"recording lacks the {label} n={n} cell"
        ratio = row.get("batched_vs_numpy")
        assert ratio is not None and ratio >= 1, (
            f"recorded batched executor is {ratio}x per-processor numpy at "
            f"{label} n={n}, t={t}; row-blocked batched lost the large-n "
            f"cells")


def test_fresh_measurement_within_recorded_baseline():
    if os.environ.get("REPRO_PERF_STRICT") != "1":
        pytest.skip("strict wall-clock comparison is opt-in (REPRO_PERF_STRICT=1)")
    report = load_recorded_perf()
    if report is None:
        pytest.skip("BENCH_perf.json not recorded yet")
    for label, spec_cls, args, n, t in SMOKE_CELLS:
        recorded = recorded_perf_row(report, label, n, t)
        if recorded is None or "fast_seconds" not in recorded:
            continue
        scenario = worst_case_scenarios(n, t)[0]
        fresh = min(_run(spec_cls, args, n, t, "fast", scenario)[1]
                    for _ in range(3))
        assert fresh <= 1.5 * recorded["fast_seconds"], (
            f"{label} at (n={n}, t={t}): fresh fast-engine time {fresh:.4f}s "
            f"exceeds 1.5x the recorded baseline {recorded['fast_seconds']}s")
