"""MC — Monte-Carlo campaign throughput per executor backend.

The acceptance claim of ``repro mc`` is scale: a 10⁵–10⁶-trial campaign in
flat memory.  The number that decides how long that takes is **runs per
second**, so this benchmark streams the same seeded campaign — the
headline cell, Exponential at ``n=13, t=4`` under the two-faced adversary
with randomized fault placement — through the serial and pool executors
and records each backend's throughput.

Running ``python benchmarks/bench_mc.py`` merges an ``"mc"`` section into
``BENCH_perf.json`` (every other section — the engine table, the serve
latencies — is left untouched), so the campaign-throughput trajectory
stays attributable alongside the rest of the recording.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.stats import McCell, McSpec, run_mc

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: The acceptance-criterion cell, matching bench_perf's headline.
HEADLINE = ("exponential", 13, 4)

#: Trials per backend: enough to amortize pool worker spawn, small
#: enough that the whole benchmark stays under a couple of minutes.
TRIALS = 2000
CHUNK_SIZE = 250

BACKENDS = (
    ("serial", {}),
    ("pool", {}),
)


def campaign(executor: str, executor_params: dict) -> McSpec:
    protocol, n, t = HEADLINE
    return McSpec(
        cells=(McCell(protocol=protocol, n=n, t=t, adversary="two-faced"),),
        trials=TRIALS, sweep_seed=0, executor=executor,
        executor_params=executor_params, chunk_size=CHUNK_SIZE)


def main() -> None:
    protocol, n, t = HEADLINE
    section = {"protocol": protocol, "n": n, "t": t,
               "adversary": "two-faced", "trials": TRIALS,
               "chunk_size": CHUNK_SIZE, "backends": {}}
    reference_state = None
    for name, params in BACKENDS:
        result = run_mc(campaign(name, params))
        assert result.ok, f"{name}: {result.problems}"
        if reference_state is None:
            reference_state = result.state
        else:
            # Throughput must not buy a different answer: every backend
            # aggregates to bit-identical state.
            assert result.state == reference_state, (
                f"{name} state diverged from serial")
        section["backends"][name] = {
            "runs_per_second": round(result.runs_per_second, 1),
            "elapsed_seconds": round(result.elapsed_seconds, 3),
        }
        print(f"{name:>8}: {result.runs_per_second:8.1f} runs/s "
              f"({result.elapsed_seconds:.2f}s)")
    recording = {}
    if BENCH_PATH.exists():
        recording = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    recording["mc"] = section
    BENCH_PATH.write_text(json.dumps(recording, indent=2) + "\n",
                          encoding="utf-8")
    print(f"wrote the mc section of {BENCH_PATH}")


if __name__ == "__main__":
    main()
