"""The durable log under the sweep checkpoint, serve journal and mc checkpoint.

All three logs share one crash discipline (:mod:`repro.api.durable`), so
every property here runs once per log kind on the same small fixtures: a
3-request sweep at (4,1), a 3-chunk campaign at (4,1) with ``chunk_size=2``,
and a journal of 2 ``accepted`` entries and 1 ``completed``.  The files in
``tests/pinned_logs/`` are those fixtures as written by the commit before the
durable log existed (the builders below, run there); the change must write
them byte for byte and resume them.

* **Cut at every byte offset**: reading recovers exactly the entries whose
  lines are complete.
* **Resume after a cut** at every line boundary and inside every line ends
  equal to the uninterrupted run, and the log reads clean.
* **Crash at every write boundary**: the module's writes, flushes, fsyncs
  and renames die at the k-th call (after writing a prefix of their bytes,
  as a ``kill -9`` mid-``write`` would), for every k of one run; the resume
  again ends equal to the uninterrupted run.
* **Wrong shapes**: a well-formed line of the wrong shape is a named error
  naming the file and the line — never a ``KeyError`` or ``TypeError``.
"""

import functools
import json
import os
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RunRequest, SweepSpec, execute, run_sweep
from repro.api import durable
from repro.api.sweep import read_checkpoint, scan_checkpoint
from repro.runtime.errors import CheckpointWriteError, ConfigurationError
from repro.serve.cache import request_digest
from repro.serve.journal import ServeJournal
from repro.stats import McCell, McSpec, McState, read_mc_checkpoint, run_mc

PINNED = Path(__file__).resolve().parent / "pinned_logs"
KINDS = ["sweep", "mc", "journal"]

SWEEP = SweepSpec(
    requests=tuple(RunRequest(protocol="exponential", n=4, t=1,
                              initial_value=1, faulty=(3,),
                              adversary="two-faced", engine="fast", seed=seed)
                   for seed in range(3)),
    executor="serial", seed_policy="derive", sweep_seed=5)
CAMPAIGN = McSpec(cells=(McCell("exponential", 4, 1, engine="fast"),),
                  trials=6, sweep_seed=3, chunk_size=2)


@functools.lru_cache(maxsize=None)
def journal_script():
    """The journal fixture's appends: ``(event, id, request or outcome)``."""
    r0, r1 = SWEEP.requests[:2]
    d0, d1 = request_digest(r0), request_digest(r1)
    return [("accepted", d0, r0), ("accepted", d1, r1),
            ("completed", d0, execute(r0).outcome_dict())]


def journal_append(journal, event, digest, payload):
    getattr(journal, event)(digest, payload)


# -- per-kind drivers ---------------------------------------------------------

def write_log(kind, path, resume=False, fsync=False):
    """Run the fixture's work into *path*; with *resume*, continue the log.

    Returns what the run ends with: the sweep's reports, the campaign's
    final state, or the journal's replay summary and contents.
    """
    if kind == "sweep":
        return run_sweep(SWEEP, checkpoint=path, resume=resume, fsync=fsync)
    if kind == "mc":
        return run_mc(CAMPAIGN, checkpoint=path, resume=resume).state
    journal = ServeJournal(path, fsync=fsync)
    replay = journal.replay() if resume else None
    journal.open()
    for event, digest, payload in journal_script():
        # A resumed journal appends only what its replay lacks.
        done = replay is not None and (
            digest in replay.completed if event == "completed"
            else digest in replay.completed
            or digest in dict(replay.pending))
        if not done:
            journal_append(journal, event, digest, payload)
    journal.close()
    return read_journal(path)


def read_journal(path):
    replay = ServeJournal(path).replay()
    return (replay.summary(), replay.completed,
            [(digest, request.to_dict())
             for digest, request in replay.pending])


def read_log(kind, path):
    """What the log holds: ``(entries recovered, torn_tail)``."""
    if kind == "sweep":
        scan = scan_checkpoint(path, SWEEP)
        return scan.completed, scan.torn_tail
    if kind == "mc":
        state, next_chunk = read_mc_checkpoint(path, CAMPAIGN)
        return (state, next_chunk), None
    summary, completed, pending = read_journal(path)
    return (completed, pending), summary["torn_tail"]


def expected_after(kind, complete_entries):
    """What reading a log of its first *complete_entries* entries gives."""
    if kind == "sweep":
        return {index: report for index, report
                in enumerate(uninterrupted("sweep"))
                if index < complete_entries}
    if kind == "mc":
        if not complete_entries:
            return None, 0
        return SNAPSHOTS[complete_entries - 1], complete_entries
    completed, pending = {}, {}
    for event, digest, payload in journal_script()[:complete_entries]:
        if event == "accepted":
            pending[digest] = payload.to_dict()
        else:
            completed[digest] = payload
    return completed, [(d, r) for d, r in pending.items()
                       if d not in completed]


@functools.lru_cache(maxsize=None)
def uninterrupted(kind):
    """The sweep's reports or the campaign's state, run without a log."""
    return run_sweep(SWEEP) if kind == "sweep" else run_mc(CAMPAIGN).state


SNAPSHOTS = [McState.from_dict(json.loads(line)["state"])
             for line in (PINNED / "mc.jsonl").read_bytes().splitlines()[1:]]


def pinned(kind):
    return (PINNED / f"{kind}.jsonl").read_bytes()


def line_ends(data):
    """Offsets just past each newline of *data*."""
    return [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]


def assert_resumed(kind, path, result):
    """The resume ended like the uninterrupted run and left a clean log."""
    if kind == "journal":
        assert result == read_journal(str(PINNED / "journal.jsonl"))
    else:
        assert result == uninterrupted(kind)
    # Serial runs append in a fixed order, so a clean log is the pinned one.
    assert Path(path).read_bytes() == pinned(kind)


# -- pinned logs --------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_writes_the_pinned_bytes(kind, tmp_path):
    path = str(tmp_path / "log.jsonl")
    write_log(kind, path)
    assert Path(path).read_bytes() == pinned(kind)


# -- cut at every byte offset -------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_every_byte_cut_recovers_the_complete_lines(kind, tmp_path):
    data = pinned(kind)
    path = tmp_path / "log.jsonl"
    path.write_bytes(data)
    ends = line_ends(data)
    for offset in range(len(data), -1, -1):
        os.truncate(path, offset)
        complete = sum(1 for end in ends if end <= offset)
        if offset and not complete:
            with pytest.raises(ConfigurationError, match="torn header"):
                read_log(kind, str(path))
            continue
        entries, torn = read_log(kind, str(path))
        assert entries == expected_after(kind, max(0, complete - 1)), offset
        if torn is not None:
            assert torn == (offset not in ends and offset > 0), offset


# -- resume after a cut -------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_resume_from_every_boundary_and_inside_every_line(kind, tmp_path):
    data = pinned(kind)
    ends = line_ends(data)
    cuts = [0] + ends + [(start + end) // 2
                         for start, end in zip(ends, ends[1:])]
    for cut in cuts:
        path = str(tmp_path / f"cut-{cut}.jsonl")
        with open(path, "wb") as handle:
            handle.write(data[:cut])
        assert_resumed(kind, path, write_log(kind, path, resume=True))


# -- crash at every write boundary --------------------------------------------

class Crash(BaseException):
    """The simulated ``kill -9``: nothing catches it, no cleanup cuts it."""


@contextmanager
def crash_at(k):
    """Die at the *k*-th write, flush, fsync or ``os.replace`` of the module.

    A dying ``write`` first writes the first half of its bytes.  Yields the
    call counter, so a run with ``k=0`` counts the boundaries it crosses.
    """
    calls = [0]
    real_open = open

    def dies():
        calls[0] += 1
        return calls[0] == k

    class Handle:
        def __init__(self, raw):
            self._raw = raw

        def __getattr__(self, name):
            return getattr(self._raw, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self._raw.close()

        def write(self, data):
            if dies():
                self._raw.write(data[:len(data) // 2])
                raise Crash
            return self._raw.write(data)

        def flush(self):
            if dies():
                raise Crash
            return self._raw.flush()

    class Os:
        def __getattr__(self, name):
            return getattr(os, name)

        def fsync(self, fd):
            if dies():
                raise Crash
            os.fsync(fd)

        def replace(self, src, dst):
            if dies():
                raise Crash
            os.replace(src, dst)

    def patched_open(file, mode="r", *args, **kwargs):
        raw = real_open(file, mode, *args, **kwargs)
        return raw if mode == "rb" else Handle(raw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(durable, "open", patched_open, raising=False)
        patch.setattr(durable, "os", Os())
        yield calls


@pytest.mark.parametrize("kind", KINDS)
def test_crash_at_every_write_boundary_then_resume(kind, tmp_path):
    fsync = kind != "mc"  # mc checkpoints are never synced
    with crash_at(0) as calls:
        write_log(kind, str(tmp_path / "count.jsonl"), fsync=fsync)
    boundaries = calls[0]
    assert boundaries >= 5
    for k in range(1, boundaries + 1):
        path = str(tmp_path / f"crash-{k}.jsonl")
        with pytest.raises(Crash), crash_at(k):
            write_log(kind, path, fsync=fsync)
        assert_resumed(kind, path, write_log(kind, path, resume=True))


# -- resume regressions -------------------------------------------------------

def test_sweep_resume_cuts_the_torn_tail_before_appending(tmp_path):
    spec = SweepSpec(requests=tuple(
        RunRequest(protocol="exponential", n=4, t=1, initial_value=1,
                   seed=seed) for seed in range(4)), executor="serial")
    path = tmp_path / "sweep.jsonl"
    reports = run_sweep(spec, checkpoint=str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:3]) + b'{"index": 2, "rep')
    assert run_sweep(spec, checkpoint=str(path), resume=True) == reports
    assert read_checkpoint(str(path), spec) == dict(enumerate(reports))
    assert not scan_checkpoint(str(path), spec).torn_tail


def test_mc_resume_chunk_by_chunk_after_a_torn_snapshot(tmp_path):
    spec = McSpec(cells=(McCell("exponential", 4, 1),), trials=8,
                  chunk_size=2)
    path = str(tmp_path / "mc.jsonl")
    run_mc(spec, checkpoint=path, max_chunks=2)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"chunk": 2, "sta')
    done = [4]
    while done[-1] < spec.total_trials:
        result = run_mc(spec, checkpoint=path, resume=True, max_chunks=1)
        done.append(result.state.trials_done)
    assert done == [4, 6, 8]
    assert result.state == run_mc(spec).state
    state, next_chunk = read_mc_checkpoint(path, spec)
    assert (state, next_chunk) == (result.state, spec.total_chunks)


def test_journal_open_cuts_the_torn_tail_before_appending(tmp_path):
    path = str(tmp_path / "serve.jsonl")
    (d0, r0), (d1, r1) = [(step[1], step[2]) for step in journal_script()[:2]]
    journal = ServeJournal(path)
    journal.open()
    journal.accepted(d0, r0)
    journal.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "completed", "id": "d0", "outc')
    reopened = ServeJournal(path)
    reopened.open()  # no replay, no compaction
    reopened.accepted(d1, r1)
    reopened.completed(d0, {"decisions": {"0": 1}})
    reopened.close()
    replay = ServeJournal(path).replay()
    assert replay.completed == {d0: {"decisions": {"0": 1}}}
    assert [(digest, request) for digest, request in replay.pending] == [
        (d1, r1)]
    assert not replay.torn_tail


# -- failed appends -----------------------------------------------------------

class FailingHandle:
    """An append handle whose writes land *partial* bytes, then fail or
    return short."""

    def __init__(self, raw, partial, error):
        self.raw, self.partial, self.error = raw, partial, error

    def __getattr__(self, name):
        return getattr(self.raw, name)

    def write(self, data):
        self.raw.write(data[:self.partial])
        if self.error:
            raise OSError(28, "No space left on device")
        return self.partial


@pytest.mark.parametrize("error", [True, False], ids=["enospc", "short"])
def test_a_failed_append_leaves_no_partial_line(tmp_path, error):
    path = str(tmp_path / "log.jsonl")
    fmt = durable.LogFormat("test-log", 1, name="a test log", entry="test")
    log = durable.DurableLog(path, fmt)
    log.open()
    log.append({"n": 1})
    log._handle = FailingHandle(log._handle, 5, error)
    with pytest.raises(CheckpointWriteError, match="append failed"):
        log.append({"n": 2})
    log._handle = log._handle.raw
    log.append({"n": 3})
    log.close()
    body = durable.DurableLog(path, fmt).scan(lambda entry: entry["n"])
    assert [n for _, n in body.entries] == [1, 3]
    assert not body.torn_tail


# -- wrong shapes -------------------------------------------------------------

def pinned_entries(kind):
    return [json.loads(line) for line in pinned(kind).splitlines()[1:]]


def with_line(kind, tmp_path, entry):
    """The pinned log's header and first entry, then *entry* as line 3."""
    path = tmp_path / f"{kind}-shaped.jsonl"
    lines = pinned(kind).splitlines(keepends=True)[:2]
    path.write_bytes(b"".join(lines) + json.dumps(entry).encode() + b"\n")
    return str(path)


@pytest.mark.parametrize("kind, entry", [
    ("mc", {"chunk": 1, "trials_done": 4, "state": {}}),
    ("sweep", {"index": 1, "report": {"x": 1}}),
    ("journal", {"event": "accepted", "id": "d", "request": {"protocol": 5}}),
], ids=KINDS)
def test_a_wrong_shape_is_a_named_error(kind, entry, tmp_path):
    path = with_line(kind, tmp_path, entry)
    with pytest.raises(ConfigurationError, match="malformed") as info:
        read_log(kind, path)
    assert path in str(info.value) and "line 3" in str(info.value)


JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6)


@st.composite
def reshaped(draw, value, depth=0):
    """*value* with keys dropped, junk values and junk keys, to depth 3."""
    if depth > 3 or not isinstance(value, dict) \
            or draw(st.integers(0, 9)) == 0:
        return draw(JUNK) if draw(st.booleans()) else value
    out = {}
    for key, item in value.items():
        action = draw(st.sampled_from(["keep", "drop", "junk", "deeper"]))
        if action == "keep":
            out[key] = item
        elif action == "junk":
            out[key] = draw(JUNK)
        elif action == "deeper":
            out[key] = draw(reshaped(item, depth + 1))
    if draw(st.booleans()):
        out[draw(st.text(max_size=5))] = draw(JUNK)
    return out


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_only_named_errors_escape_a_reshaped_line(kind, data, tmp_path):
    base = data.draw(st.sampled_from(pinned_entries(kind)))
    path = with_line(kind, tmp_path, data.draw(reshaped(base)))
    try:
        read_log(kind, path)
    except ConfigurationError as exc:
        assert path in str(exc) and "line 3" in str(exc)
