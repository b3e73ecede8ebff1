"""Tests for the streaming Monte-Carlo campaign driver and its CLI verb.

The acceptance property of the subsystem, pinned here end to end: a
campaign killed mid-flight — deterministically via ``max_chunks``, and for
real via ``SIGKILL`` on a ``repro mc`` subprocess — and resumed from its
checkpoint finishes with state **bit-identical** (``to_dict()`` equality,
floats included) to an uninterrupted run.  Around it, the checkpoint
discipline shared with sweeps: atomic header creation, digest pinning
(resuming an edited campaign is refused), torn-tail tolerance, and loud
refusal of corruption.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.runtime.errors import ConfigurationError
from repro.stats import (McCell, McSpec, McState, bound_rows, cell_rows,
                         mc_digest, read_mc_checkpoint, render_markdown,
                         render_text, run_mc, to_json, verdict)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_spec(**overrides):
    fields = dict(
        cells=(McCell(protocol="exponential", n=7, t=2),
               McCell(protocol="algorithm-a", n=13, t=3,
                      protocol_params={"b": 3})),
        trials=12, sweep_seed=9, chunk_size=5)
    fields.update(overrides)
    return McSpec(**fields)


class TestRunMc:
    def test_complete_campaign_counts_and_verdict(self):
        result = run_mc(small_spec())
        assert result.complete and result.ok
        assert result.executed == 24
        assert result.state.trials_done == 24
        assert [a.trials for a in result.state.aggregates] == [12, 12]
        assert result.problems == ()
        ok, problems = verdict(result)
        assert ok and problems == ()

    def test_streaming_state_is_chunk_order_independent_of_executor(self):
        # The same spec through serial and pool backends must aggregate to
        # identical state: folding is sorted by global index per chunk.
        serial = run_mc(small_spec(executor="serial"))
        pooled = run_mc(small_spec(executor="pool",
                                   executor_params={"max_workers": 2}))
        assert serial.state == pooled.state

    def test_max_chunks_bounds_the_invocation(self, tmp_path):
        ck = str(tmp_path / "mc.jsonl")
        partial = run_mc(small_spec(), checkpoint=ck, max_chunks=2)
        assert not partial.complete and not partial.ok
        assert partial.state.trials_done == 10
        ok, problems = verdict(partial)
        assert not ok and "incomplete" in problems[0]

    def test_interrupt_and_resume_is_bit_identical(self, tmp_path):
        spec = small_spec()
        uninterrupted = run_mc(spec)
        ck = str(tmp_path / "mc.jsonl")
        run_mc(spec, checkpoint=ck, max_chunks=2)
        resumed = run_mc(spec, checkpoint=ck, resume=True)
        assert resumed.complete
        assert resumed.resumed_trials == 10
        assert resumed.executed == spec.total_trials - 10
        assert resumed.state == uninterrupted.state
        assert resumed.state.to_dict() == uninterrupted.state.to_dict()

    def test_resume_of_a_complete_checkpoint_is_a_no_op(self, tmp_path):
        spec = small_spec()
        ck = str(tmp_path / "mc.jsonl")
        first = run_mc(spec, checkpoint=ck)
        again = run_mc(spec, checkpoint=ck, resume=True)
        assert again.complete and again.executed == 0
        assert again.state == first.state

    def test_existing_checkpoint_without_resume_is_refused(self, tmp_path):
        ck = str(tmp_path / "mc.jsonl")
        run_mc(small_spec(), checkpoint=ck, max_chunks=1)
        with pytest.raises(ConfigurationError, match="already exists"):
            run_mc(small_spec(), checkpoint=ck)

    def test_resume_without_checkpoint_is_refused(self):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            run_mc(small_spec(), resume=True)

    def test_edited_campaign_digest_mismatch_is_refused(self, tmp_path):
        ck = str(tmp_path / "mc.jsonl")
        run_mc(small_spec(), checkpoint=ck, max_chunks=1)
        edited = small_spec(trials=13)
        assert mc_digest(edited) != mc_digest(small_spec())
        with pytest.raises(ConfigurationError, match="different campaign"):
            run_mc(edited, checkpoint=ck, resume=True)

    def test_torn_tail_is_tolerated_on_resume(self, tmp_path):
        spec = small_spec()
        ck = str(tmp_path / "mc.jsonl")
        run_mc(spec, checkpoint=ck, max_chunks=2)
        with open(ck, "a", encoding="utf-8") as handle:
            handle.write('{"chunk": 2, "trials_done": 15, "sta')
        state, next_chunk = read_mc_checkpoint(ck, spec)
        assert next_chunk == 2 and state.trials_done == 10
        resumed = run_mc(spec, checkpoint=ck, resume=True)
        assert resumed.state == run_mc(spec).state

    def test_foreign_and_corrupt_checkpoints_are_refused(self, tmp_path):
        spec = small_spec()
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ConfigurationError, match="not an MC"):
            read_mc_checkpoint(str(foreign), spec)
        garbled = tmp_path / "garbled.jsonl"
        garbled.write_text("not json at all\n")
        with pytest.raises(ConfigurationError, match="unreadable header"):
            read_mc_checkpoint(str(garbled), spec)
        ck = str(tmp_path / "mc.jsonl")
        run_mc(spec, checkpoint=ck, max_chunks=1)
        with open(ck, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"chunk": 1, "trials_done": 7,
                 "state": McState.fresh(spec).to_dict()}) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            read_mc_checkpoint(ck, spec)

    def test_missing_checkpoint_with_resume_starts_fresh(self, tmp_path):
        ck = str(tmp_path / "mc.jsonl")
        result = run_mc(small_spec(), checkpoint=ck, resume=True)
        assert result.complete and result.resumed_trials == 0

    def test_progress_hook_sees_every_chunk(self):
        seen = []
        spec = small_spec()
        run_mc(spec, progress=lambda c, done, total: seen.append(
            (c, done, total)))
        assert len(seen) == spec.total_chunks
        assert seen[-1] == (spec.total_chunks - 1, 24, 24)


class TestKillSurvival:
    def test_sigkill_mid_campaign_then_resume_matches_uninterrupted(
            self, tmp_path):
        # The acceptance scenario, with a real kill -9: a repro mc
        # subprocess is killed mid-campaign, then the same checkpoint is
        # resumed and must finish bit-identical to an uninterrupted run.
        spec = McSpec(cells=(McCell(protocol="exponential", n=7, t=2),),
                      trials=600, sweep_seed=3, chunk_size=20)
        ck = str(tmp_path / "mc.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "mc",
             "--protocol", "exponential", "--cell", "7,2",
             "--trials", "600", "--sweep-seed", "3", "--chunk-size", "20",
             "--checkpoint", ck],
            cwd=REPO_ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break
                try:
                    with open(ck, "r", encoding="utf-8") as handle:
                        if sum(1 for _ in handle) >= 3:  # header + 2 chunks
                            break
                except FileNotFoundError:
                    pass
                time.sleep(0.01)
            else:  # pragma: no cover - diagnostics on a wedged subprocess
                pytest.fail("subprocess made no checkpoint progress in 60s")
            if process.poll() is None:
                process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait()
        state, next_chunk = read_mc_checkpoint(ck, spec)
        resumed = run_mc(spec, checkpoint=ck, resume=True)
        assert resumed.complete
        uninterrupted = run_mc(spec)
        assert resumed.state.to_dict() == uninterrupted.state.to_dict()
        # The resumed invocation really continued, it did not start over
        # (unless the subprocess happened to finish before the kill).
        if next_chunk < spec.total_chunks:
            assert resumed.executed == spec.total_trials - (state.trials_done
                                                            if state else 0)


class TestReporting:
    def test_text_and_markdown_render(self):
        result = run_mc(small_spec())
        text = render_text(result)
        assert "VERDICT: ok" in text and "Wilson" in text
        markdown = render_markdown(result)
        assert markdown.startswith("# Monte-Carlo verification report")
        assert "| cell |" in markdown

    def test_rows_cover_cells_and_bounded_quantities(self):
        result = run_mc(small_spec())
        cells = cell_rows(result)
        assert [row["cell"] for row in cells] == [
            "exponential/two-faced n=7 t=2",
            "algorithm-a/two-faced n=13 t=3"]
        assert all(row["guarantees"] for row in cells)
        bounds = bound_rows(result)
        assert len(bounds) == 6  # 2 cells x 3 bounded quantities
        assert all(row["within"] for row in bounds)

    def test_json_report_round_trips_and_carries_verdict(self):
        result = run_mc(small_spec())
        payload = json.loads(json.dumps(to_json(result)))
        assert payload["ok"] is True
        assert payload["complete"] is True
        assert payload["trials_done"] == 24
        assert len(payload["cells"]) == 2
        assert McSpec.from_dict(payload["spec"]) == small_spec()

    def test_incomplete_campaign_reports_fail(self, tmp_path):
        partial = run_mc(small_spec(),
                         checkpoint=str(tmp_path / "mc.jsonl"),
                         max_chunks=1)
        assert "VERDICT: FAIL" in render_text(partial)
        assert to_json(partial)["ok"] is False


class TestMcCli:
    def test_basic_campaign_exits_zero(self, capsys):
        code = main(["mc", "--protocol", "exponential", "--cell", "7,2",
                     "--trials", "20", "--chunk-size", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "VERDICT: ok" in out

    def test_json_output(self, capsys):
        code = main(["mc", "--protocol", "exponential", "algorithm-a",
                     "--cell", "13,3", "--adversary", "two-faced",
                     "--trials", "5", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["cells"]) == 2

    def test_max_chunks_slice_exits_two(self, tmp_path, capsys):
        ck = str(tmp_path / "mc.jsonl")
        code = main(["mc", "--protocol", "exponential", "--cell", "7,2",
                     "--trials", "20", "--chunk-size", "5",
                     "--checkpoint", ck, "--max-chunks", "1"])
        assert code == 2
        assert "incomplete" in capsys.readouterr().out

    def test_checkpoint_resume_completes(self, tmp_path, capsys):
        ck = str(tmp_path / "mc.jsonl")
        main(["mc", "--protocol", "exponential", "--cell", "7,2",
              "--trials", "20", "--chunk-size", "5",
              "--checkpoint", ck, "--max-chunks", "2"])
        code = main(["mc", "--protocol", "exponential", "--cell", "7,2",
                     "--trials", "20", "--chunk-size", "5",
                     "--checkpoint", ck, "--resume"])
        assert code == 0
        assert "resumed past 10" in capsys.readouterr().out

    def test_spec_file_round_trip(self, tmp_path, capsys):
        spec = McSpec(cells=(McCell(protocol="exponential", n=7, t=2),),
                      trials=8, sweep_seed=2, chunk_size=4)
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec.to_dict()))
        code = main(["mc", "--spec", str(path), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert McSpec.from_dict(payload["spec"]) == spec

    def test_unknown_protocol_and_adversary_are_refused(self):
        with pytest.raises(SystemExit, match="unknown protocol"):
            main(["mc", "--protocol", "nonesuch", "--trials", "1"])
        with pytest.raises(SystemExit, match="unknown adversary"):
            main(["mc", "--adversary", "nonesuch", "--trials", "1"])

    def test_mismatched_executor_params_are_refused(self):
        with pytest.raises(SystemExit, match="--max-workers"):
            main(["mc", "--trials", "1", "--max-workers", "2"])

    def test_verdict_failure_exits_one(self, monkeypatch, capsys):
        # A genuine theorem contradiction should not exist; fabricate one
        # at the aggregate level to pin the exit-code mapping.
        import repro.stats as stats

        real_run_mc = stats.run_mc

        def sabotaged(spec, **kwargs):
            result = real_run_mc(spec, **kwargs)
            result.state.aggregates[0].agreement_failures = 1
            return result

        monkeypatch.setattr(stats, "run_mc", sabotaged)
        code = main(["mc", "--protocol", "exponential", "--cell", "7,2",
                     "--trials", "4", "--chunk-size", "4"])
        assert code == 1
        assert "VERDICT: FAIL" in capsys.readouterr().out
