"""Compare sets of benchmark runs against the bounds in ``BENCHMARK.json``.

Usage::

    python3 bench/compare.py BASE.jsonl [CHANGE.jsonl ...] [--layers]

Each file holds the run records ``bench/run.py --out FILE`` appends, one per
line.  For every workload and end-to-end metric this prints each side's
median and quartiles (Q1-Q3), its spread (Q3 - Q1 as a share of the median),
and, for every side after the first, the change of its median against the
first side's in the metric's "worse" direction next to the metric's bound,
with a verdict:

``within-bound``  the median is worse by no more than the bound;
``regressed``     the median is worse by more than the bound;
``unresolved``    a side's spread is wider than the bound, so neither can be
                  told apart, unless every run of the change reads better
                  (``within-bound``) or worse (``regressed``) than every run
                  of the base.

Runs are paired by position when both sides have as many runs: run *i* of
the change against run *i* of the base, as alternating parent/change runs
produce them.  The ``pairs won`` column counts the pairs the change wins
(ties count for neither).  A gain is claimed (``gain``) only when the change
wins at least nine tenths of the pairs and the medians differ by more than
the base's own quartile distance.

With a single file it prints the spreads alone, which is how to check that
the benchmark is steady enough for its bounds.  ``--layers`` adds the
per-layer medians of traced runs (no bounds, no verdicts).  Serve runs
marked invalid (generator p99 lateness over 20 ms) are left out and counted.
Exits 1 when any pairing regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

CONFIG = json.loads((Path(__file__).resolve().parent.parent
                     / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_runs(path: str) -> List[dict]:
    """Every run record in *path* (one JSON object per line)."""
    text = Path(path).read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def series(runs: List[dict], workload: str, key: str, name: str
           ) -> Tuple[List[Optional[float]], int]:
    """Per-run values (``None`` where absent) and the count of invalid runs."""
    values: List[Optional[float]] = []
    invalid = 0
    for run in runs:
        result = run["workloads"].get(workload)
        if result is None or key not in result:
            values.append(None)
        elif result.get("extra", {}).get("valid") is False:
            invalid += 1
            values.append(None)
        else:
            values.append(result[key].get(name))
    return values, invalid


def verdict(base: List[float], change: List[float], bound: float,
            lower_is_better: bool) -> Tuple[float, str]:
    """``(worse_share, verdict)`` of *change* against *base*."""
    sign = 1.0 if lower_is_better else -1.0
    base_median = statistics.median(base)
    worse = sign * (statistics.median(change) - base_median) / base_median
    if sign * max(change) < sign * min(base):
        return worse, "within-bound"  # every change run reads better
    if sign * min(change) > sign * max(base) and worse > bound:
        return worse, "regressed"  # every change run reads worse
    if max(spread(base), spread(change)) > bound:
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "within-bound"


def pairs_won(base: List[Optional[float]], change: List[Optional[float]],
              lower_is_better: bool) -> Optional[Tuple[int, int]]:
    if len(base) != len(change):
        return None
    pairs = [(b, c) for b, c in zip(base, change)
             if b is not None and c is not None]
    wins = sum(1 for b, c in pairs
               if (c < b if lower_is_better else c > b))
    return wins, len(pairs)


def gain(base: List[float], change: List[float],
         won: Optional[Tuple[int, int]]) -> bool:
    if won is None or not won[1] or won[0] < 0.9 * won[1]:
        return False
    q1, median, q3 = quartiles(base)
    return abs(statistics.median(change) - median) > q3 - q1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare bench/run.py --out files")
    parser.add_argument("files", nargs="+",
                        help="base first, then the sides to compare with it")
    parser.add_argument("--layers", action="store_true",
                        help="also print per-layer medians of traced runs")
    args = parser.parse_args(argv)
    sides = [load_runs(path) for path in args.files]
    names = [Path(path).name for path in args.files]
    regressed = False
    for workload in (w["name"] for w in CONFIG["workloads"]):
        if not any(workload in run["workloads"]
                   for runs in sides for run in runs):
            continue
        print(f"== {workload} ==")
        for metric in CONFIG["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            columns = [series(runs, workload, "metrics", name)
                       for runs in sides]
            raw = [[v["value"] if isinstance(v, dict) else v for v in vals]
                   for vals, _ in columns]
            kept = [[v for v in vals if v is not None] for vals in raw]
            if not kept[0]:
                continue
            print(f"  {name} ({metric['unit']}, {metric['better']} is "
                  f"better, bound {bound:.0%})")
            for index, (label, values) in enumerate(zip(names, kept)):
                if not values:
                    print(f"    {label}: no valid runs")
                    continue
                q1, median, q3 = quartiles(values)
                line = (f"    {label}: median {median:.4f}  Q1-Q3 "
                        f"{q1:.4f}-{q3:.4f}  spread {spread(values):.1%}  "
                        f"runs {len(values)}")
                invalid = columns[index][1]
                if invalid:
                    line += f" ({invalid} invalid left out)"
                if index == 0:
                    steady = "steady" if spread(values) <= bound else \
                        "spread wider than bound"
                    print(f"{line}  [{steady}]")
                    continue
                worse, outcome = verdict(kept[0], values, bound, lower)
                won = pairs_won(raw[0], raw[index], lower)
                regressed |= outcome == "regressed"
                line += (f"  worse by {worse:+.1%} (bound {bound:.0%})  "
                         f"{outcome}")
                if won is not None:
                    line += f"  pairs won {won[0]}/{won[1]}"
                if gain(kept[0], values, won):
                    line += "  gain"
                print(line)
        if args.layers:
            _print_layers(sides, names, workload)
    return 1 if regressed else 0


def _print_layers(sides: List[List[dict]], names: List[str],
                  workload: str) -> None:
    print("  per-layer medians (traced runs):")
    for metric in CONFIG["per_layer"]:
        cells = []
        for runs in sides:
            values, _ = series(runs, workload, "layers", metric["name"])
            values = [v for v in values if v is not None]
            cells.append(f"{statistics.median(values):12.4f}"
                         if values else f"{'-':>12s}")
        print(f"    {metric['name']:48s} {' '.join(cells)} {metric['unit']}")
    print(f"    {'':48s} {' '.join(f'{n[:12]:>12s}' for n in names)}")


if __name__ == "__main__":
    sys.exit(main())
