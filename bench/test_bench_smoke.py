"""Smoke test of the benchmark command (about 25 s).

Runs every workload for 2 s untraced, once more with ``--trace 1``, and
eig-n13 once against a tampered pin file.  It guards the benchmark's
contract rather than any speed:

* every metric ``BENCHMARK.json`` declares is emitted, with its unit;
* every layer span is entered on the workload listed as exercising it, so a
  call-site refactor cannot silently zero a layer;
* self times plus ``bench.unattributed`` reconcile to the traced end-to-end
  time within 5%;
* a wrong pinned digest makes the command fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # the batched layers only exist with numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
E2E_UNITS = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}

#: The workload whose traced pass must enter each layer span.
EXERCISED_BY = {
    "core.fault_masking.gather": "eig-n16",
    "core.fault_masking.discover_mask": "eig-n16",
    "core.resolve.resolve": "eig-n16",
    "core.fault_discovery.conversion_discovery": "eig-n13",
    "runtime.batched.driver": "eig-n16",
    "core.processor.step": "mc-mixed",
    "runtime.simulation.driver": "mc-mixed",
    "runtime.network.deliver": "mc-mixed",
    "adversary.tamper": "mc-mixed",
    "api.request.resolve_parts": "eig-n13",
    "api.planner.plan_run": "eig-n13",
    "api.request.report_build": "eig-n13",
    "api.executors.serial": "mc-mixed",
    "stats.trial_request": "mc-mixed",
    "stats.fold": "mc-mixed",
    "stats.snapshot": "mc-mixed",
    "stats.run_mc": "mc-mixed",
    "serve.admit": "serve-mixed",
    "serve.digest": "serve-mixed",
    "serve.cache.get": "serve-mixed",
    "serve.cache.put": "serve-mixed",
    "serve.journal.append": "serve-mixed",
    "serve.run_job": "serve-mixed",
}


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "plain.jsonl"
    proc = _bench("--seconds", "2", "--setup-samples", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "traced.jsonl"
    proc = _bench("--seconds", "2", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, json.loads(out.read_text(encoding="utf-8"))


def test_every_declared_metric_is_emitted_with_its_unit(plain):
    proc, record = plain
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= len(WORKLOADS)
    for workload in WORKLOADS:
        result = record["workloads"][workload]
        metrics = result["metrics"]
        assert set(metrics) == set(E2E_UNITS), workload
        for name, metric in metrics.items():
            assert metric["unit"] == E2E_UNITS[name]
            assert metric["value"] > 0, (workload, name)
        assert record["meta"]["cpus"] >= 1
    assert record["workloads"]["serve-mixed"]["extra"]["hits"] > 0


def test_traced_pass_emits_every_layer_metric(traced):
    proc, record = traced
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary["metrics"]) == {f"{w}.{name}" for w in WORKLOADS
                                       for name in LAYER_UNITS}
    for key, metric in summary["metrics"].items():
        assert metric["unit"] == LAYER_UNITS[key.split(".", 1)[1]]


@pytest.mark.parametrize("span", sorted(EXERCISED_BY))
def test_every_span_is_entered_where_it_is_exercised(traced, span):
    layers = traced[1]["workloads"][EXERCISED_BY[span]]["layers"]
    assert layers[f"{span}.calls"] > 0
    assert layers[f"{span}.self_ms"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_reconcile_to_traced_end_to_end(traced, workload):
    layers = traced[1]["workloads"][workload]["layers"]
    assert abs(layers["trace.reconcile"] - 1.0) <= 0.05


def test_tampered_pin_fails_the_command(tmp_path):
    pinned = json.loads((BENCH / "expected_outcomes.json").read_text(
        encoding="utf-8"))
    pinned["workloads"]["eig-n13"]["0"] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(pinned), encoding="utf-8")
    proc = _bench("--workload", "eig-n13", "--seconds", "1",
                  "--setup-samples", "1", "--expected", str(tampered))
    assert proc.returncode != 0
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] > 0
