"""One parity matrix: every execution path gives the reference outcome.

Every algorithm runs on several execution paths — the per-processor
reference, fast and numpy engines, the batched whole-run executor in its
kernel forms, and the supervised executor — and their agreement with the
reference engine (the oracle: dict-of-tuples trees and the recursive
conversion functions) is the correctness argument for all of them.  This
module generates that argument from the registries instead of listing it
by hand:

* **Rows** are ``protocol_registry() × adversary_registry()``, at each
  protocol's smallest resilient cell and one mid-sized cell (one cell where
  the smallest is mid-sized), found by probing ``spec.validate``
  (:func:`protocol_cells`).  Faulty sets are enumerated at ``n ≤``
  :data:`ENUMERATED_N`; above that they are the two full-budget sets, with
  a faulty and with a correct source.  Initial values and seeds are drawn
  from a generator seeded by the row's name (:meth:`Row.examples`).
* **Columns** are the execution paths of :data:`COLUMNS`, the oracle first.
  A column is an engine name, or ``"batched"`` under one of the kernel
  forms of :data:`FORCED`, or ``"supervised"``: the façade's ``auto`` plan
  run through a supervised sweep under :data:`SURVIVABLE_CHAOS`.
* :func:`assert_same_outcome` is the one comparison: decisions,
  discoveries, discovery logs, ``metrics.summary()``, per-processor
  computation units, per-round ``sent`` and rounds between two runs, the
  serialized outcome between two reports.

Whether a run declines batching comes from
:func:`~repro.api.planner.batched_ineligibility`; a forced column's
evidence (it stepped uneven row blocks, counted every conversion level,
took scratch buffers) is required exactly where the run is eligible.
A column whose engine this process cannot run (numpy missing) is skipped.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.api import (RunReport, RunRequest, SweepSpec, adversary_registry,
                       protocol_registry, run_sweep)
from repro.api.planner import batched_ineligibility
from repro.api.registries import RegistryEntry
from repro.core.engine import BATCHED, validate_engine
from repro.core.protocol import ProtocolConfig
from repro.runtime.errors import ConfigurationError
from repro.runtime.simulation import RunResult, choose_faulty, run_agreement
from tests.helpers import large_level_forms

#: The execution paths, the oracle first.  Removing an engine removes its
#: name here and nothing else.
COLUMNS = ("reference", "fast", "numpy", "batched", "uneven-blocks",
           "counted", "large-forms", "supervised")

#: Faulty sets are enumerated up to this ``n``; above it a row runs the
#: two full-budget sets.
ENUMERATED_N = 5

#: A chaos schedule the supervised sweep must survive: its first checkpoint
#: append fails once and is retried.
SURVIVABLE_CHAOS = ({"kind": "checkpoint-write-fail", "index": 0},)

#: The paper's algorithms, whose smallest cells carry the crash-recovery
#: outage family (:func:`outage_rows`).
PAPER_PROTOCOLS = ("exponential", "algorithm-a", "algorithm-b",
                   "algorithm-c", "hybrid")


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------

def _resilient(entry: RegistryEntry, params, n: int, t: int) -> bool:
    try:
        entry.build(params).validate(ProtocolConfig(n=n, t=t))
    except (ConfigurationError, ValueError):
        return False
    return True


def _resilient_cells(entry: RegistryEntry) -> Iterator[Tuple[dict, int, int]]:
    """Every resilient ``(params, n, t)`` of *entry*, smallest ``n`` first.

    Required parameters (the block size ``b``) are probed from 1 upward,
    after ``t``; optional ones keep their defaults.
    """
    required = [param.name for param in entry.params if param.required]
    for n in range(2, 65):
        for t in range(1, n):
            for value in (range(1, n) if required else (None,)):
                params = {name: value for name in required}
                if _resilient(entry, params, n, t):
                    yield params, n, t


def _mid_sized(cell: Tuple[dict, int, int]) -> bool:
    """More processors than :data:`ENUMERATED_N` (so the cell runs the
    full-budget faulty sets) and at least two faults (so its trees are
    deeper than two levels)."""
    _, n, t = cell
    return n > ENUMERATED_N and t >= 2


def protocol_cells(entry: RegistryEntry) -> Tuple[Tuple[dict, int, int], ...]:
    """The smallest resilient cell and one mid-sized cell of *entry*.

    Where the smallest cell is itself mid-sized (Algorithms A and B and
    the hybrid), it is the only cell; otherwise the mid-sized cell is the
    next resilient one with the same parameters.
    """
    cells = _resilient_cells(entry)
    smallest = next(cells)
    if _mid_sized(smallest):
        return (smallest,)
    mid = next(cell for cell in cells
               if cell[0] == smallest[0] and _mid_sized(cell))
    return smallest, mid


@dataclass(frozen=True)
class Example:
    """One run of a row."""

    faulty: frozenset
    value: int
    seed: int


@dataclass(frozen=True)
class Row:
    """One protocol cell under one adversary."""

    protocol: RegistryEntry
    params: Mapping[str, object]
    n: int
    t: int
    adversary: RegistryEntry
    adversary_params: Mapping[str, object] = field(default_factory=dict)
    #: Whether the supervised column runs on this row (see :func:`rows`).
    supervised: bool = True

    @property
    def cell(self) -> str:
        params = "".join(f",{k}={v}" for k, v in self.params.items())
        return f"{self.protocol.name}({self.n},{self.t}{params})"

    def __str__(self) -> str:
        outage = "".join(f",{k}={v}"
                         for k, v in self.adversary_params.items())
        return f"{self.cell}-{self.adversary.name}{outage}"

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(column for column in COLUMNS
                     if self.supervised or column != "supervised")

    def examples(self) -> Iterator[Example]:
        """Every faulty set at small ``n``; above it, the whole budget
        faulty with the source faulty, then with it correct.

        Initial values and seeds come from a generator seeded by the row's
        name, so every row runs its own fixed examples, the same on every
        run.
        """
        rng = random.Random(str(self))
        if self.n <= ENUMERATED_N:
            sets = [frozenset(chosen) for size in range(self.t + 1)
                    for chosen in itertools.combinations(range(self.n), size)]
        else:
            sets = [choose_faulty(self.n, self.t, source_faulty=True),
                    choose_faulty(self.n, self.t)]
        for faulty in sets:
            yield Example(faulty, rng.randint(0, 1), rng.getrandbits(32))

    def request(self, example: Example) -> RunRequest:
        return RunRequest(protocol=self.protocol.name,
                          protocol_params=dict(self.params), n=self.n,
                          t=self.t, initial_value=example.value,
                          faulty=tuple(sorted(example.faulty)),
                          adversary=self.adversary.name,
                          adversary_params=dict(self.adversary_params),
                          seed=example.seed)


def _diagonal(rows_count: int, columns_count: int) -> set:
    """The wrapped diagonal of a grid: every row and column at least once."""
    return {(k % rows_count, k % columns_count)
            for k in range(max(rows_count, columns_count))}


def rows(protocols: Optional[Mapping[str, RegistryEntry]] = None,
         adversaries: Optional[Mapping[str, RegistryEntry]] = None
         ) -> List[Row]:
    """The matrix rows: every registered protocol cell × every adversary.

    The supervised column, whose survivable chaos costs a backoff sleep per
    run, runs on the wrapped diagonal of the (protocol cell × adversary)
    grid: every protocol cell and every adversary at least once, on the
    row's first example.
    """
    protocols = protocol_registry() if protocols is None else protocols
    adversaries = adversary_registry() if adversaries is None else adversaries
    cells = [(entry, cell) for _, entry in sorted(protocols.items())
             for cell in protocol_cells(entry)]
    strategies = [entry for _, entry in sorted(adversaries.items())]
    supervised = _diagonal(len(cells), len(strategies))
    return [Row(entry, params, n, t, strategy,
                supervised=(i, j) in supervised)
            for i, (entry, (params, n, t)) in enumerate(cells)
            for j, strategy in enumerate(strategies)]


def outage_rows() -> List[Row]:
    """Every ``(crash_round, silent_rounds)`` crash-recovery outage over the
    run's length, at the smallest cell of each of the paper's algorithms
    whose run has three rounds or more, so that a shadow can wake before
    the last round (Exponential and Algorithm C at ``t = 1`` run two).

    The supervised column runs on each cell's first outage, ``(2, 1)``.
    """
    family = []
    recovery = adversary_registry()["crash-recovery"]
    for name in PAPER_PROTOCOLS:
        entry = protocol_registry()[name]
        for params, n, t in protocol_cells(entry):
            last = entry.build(params).total_rounds(ProtocolConfig(n=n, t=t))
            if last >= 3:
                break
        for crash_round in range(2, last + 1):
            for silent_rounds in range(1, last - crash_round + 2):
                family.append(Row(
                    entry, params, n, t, recovery,
                    {"crash_round": crash_round,
                     "silent_rounds": silent_rounds},
                    supervised=(crash_round, silent_rounds) == (2, 1)))
    return family


def outage_example(row: Row) -> Example:
    """The outage family's run: the whole budget faulty, source correct."""
    return Example(choose_faulty(row.n, row.t), 1, 0)


# ---------------------------------------------------------------------------
# Columns
# ---------------------------------------------------------------------------

@contextmanager
def uneven_row_blocks():
    """Step every row-blocked kernel in one row, then pairs of rows.

    Any stack of three rows or more then splits into uneven blocks, the
    first a single row.  The scalar tiny-level paths are off and the
    large-level forms on, so the vectorized, blocked kernels — counted
    conversion levels and reused scratch buffers included — run at these
    small sizes.  Yields the block sizes of every kernel call.
    """
    import pytest

    from repro.core import npsupport
    seen = []

    def split(count, row_elements):
        blocks = [(0, 1)] + [(start, min(start + 2, count))
                             for start in range(1, count, 2)] if count else []
        seen.append([stop - start for start, stop in blocks])
        return blocks

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npsupport, "SMALL_KERNEL_ELEMENTS", 0)
        patch.setattr(npsupport, "LARGE_LEVEL_ELEMENTS", 0)
        patch.setattr(npsupport, "row_blocks", split)
        yield seen


def stepped_uneven_blocks(seen) -> bool:
    """Whether some kernel call stepped blocks of unequal size."""
    return any(len(set(sizes)) > 1 for sizes in seen)


@contextmanager
def counted_conversions():
    """Count every conversion level, however small.

    Below ``16 × SMALL_KERNEL_ELEMENTS`` leaf elements the batched executor
    gathers the level a conversion consumes instead of counting it; with
    the scalar tiny-level paths off, every one is counted.  Yields, per
    conversion, whether it was handed the counts.
    """
    import pytest

    from repro.core import npsupport
    from repro.runtime import batched
    counted = []
    convert = batched._BatchedRun._convert

    def recording_convert(run, round_number, segment, counts):
        counted.append(counts is not None)
        return convert(run, round_number, segment, counts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npsupport, "SMALL_KERNEL_ELEMENTS", 0)
        patch.setattr(batched._BatchedRun, "_convert", recording_convert)
        yield counted


#: The batched kernel forms a column forces: its context, and the evidence
#: an eligible run must leave in what the context yields.
FORCED = {
    "uneven-blocks": (uneven_row_blocks, stepped_uneven_blocks),
    "counted": (counted_conversions, all),
    "large-forms": (large_level_forms,
                    lambda requested: "round.claims" in requested),
}


def column_available(column: str) -> bool:
    """Whether this process can run *column* (numpy-backed ones need numpy)."""
    if column == "supervised":
        return True
    try:
        validate_engine(BATCHED if column in FORCED else column)
    except ConfigurationError:
        return False
    return True


def _supervised(row: Row, example: Example) -> RunReport:
    """The JSON round trip of the row's request, run by a supervised sweep
    under :data:`SURVIVABLE_CHAOS`: the retry must show in its trail."""
    request = RunRequest.from_dict(json.loads(json.dumps(
        row.request(example).to_dict())))
    with tempfile.TemporaryDirectory() as directory:
        [report] = run_sweep(
            SweepSpec(requests=(request,), executor="supervised"),
            checkpoint=os.path.join(directory, "sweep.jsonl"),
            chaos=list(SURVIVABLE_CHAOS))
    trail = report.metadata.get("resilience", [])
    assert [(e["event"], e["stage"]) for e in trail] == [
        ("retry", "checkpoint")], trail
    return report


def batched_eligible(row: Row, example: Example) -> bool:
    """Whether the batched executor takes *example*'s run, asked as the
    planner asks it."""
    return batched_ineligibility(
        *row.request(example).resolve_parts()) is None


def run_column(column: str, row: Row, example: Example):
    """One run of *example* on *column*: a RunResult, or the supervised
    column's RunReport.  A forced column must run a batched-eligible run,
    and the run must leave the form's evidence."""
    if column == "supervised":
        return _supervised(row, example)
    spec, config, faulty, adversary = row.request(example).resolve_parts()
    config = replace(config, engine=BATCHED if column in FORCED else column)
    if column not in FORCED:
        return run_agreement(spec, config, faulty, adversary,
                             seed=example.seed)
    forced, evidence = FORCED[column]
    with forced() as record:
        result = run_agreement(spec, config, faulty, adversary,
                               seed=example.seed)
    assert evidence(record), (column, str(row), example, record)
    return result


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------

def _observed(run, like) -> Dict[str, object]:
    """What *run* shows of its outcome, in the form *like* can show too."""
    if isinstance(run, RunReport):
        return run.outcome_dict()
    if isinstance(run, Mapping):
        return dict(run)
    assert isinstance(run, RunResult), type(run)
    if isinstance(like, RunReport):
        return RunReport.from_result(
            run, engine=like.engine, engine_resolved=like.engine_resolved,
            scenario=like.scenario, seed=like.seed).outcome_dict()
    return {"decisions": run.decisions, "discovered": run.discovered,
            "discovery_logs": run.discovery_logs,
            "metrics": run.metrics.summary(),
            "computation_units": run.metrics.computation_units,
            "sent": run.metrics.sent, "rounds": run.rounds}


def assert_same_outcome(candidate, expected, context=None) -> None:
    """Assert two executions of one run are observationally identical.

    Between two :class:`~repro.runtime.simulation.RunResult` objects:
    decisions, discoveries, discovery logs, ``metrics.summary()``,
    per-processor computation units, per-round ``sent`` and rounds.
    Where either side is a :class:`~repro.api.request.RunReport` or a
    served outcome mapping, the serialized outcome
    (:meth:`~repro.api.request.RunReport.outcome_dict`), byte for byte.
    """
    assert candidate is not None, context
    observed = _observed(candidate, expected)
    oracle = _observed(expected, candidate)
    assert observed.keys() == oracle.keys(), context
    for key in oracle:
        assert observed[key] == oracle[key], (key, context)
    if not isinstance(candidate, RunResult) or \
            not isinstance(expected, RunResult):
        assert (json.dumps(observed, sort_keys=True)
                == json.dumps(oracle, sort_keys=True)), context


def assert_row_agrees(row: Row, example: Example,
                      columns: Optional[Tuple[str, ...]] = None) -> List[str]:
    """Run *example* on the oracle and on every column of *row* this
    process can run; returns the columns that ran.

    A forced column reaches only runs the batched executor takes: on a run
    it declines, the forced form has nothing to act on and the column would
    repeat the ``"batched"`` column's per-processor fallback.
    """
    oracle, *rest = columns or row.columns
    expected = run_column(oracle, row, example)
    eligible = batched_eligible(row, example)
    ran = [oracle]
    for column in rest:
        if not column_available(column) or (column in FORCED
                                            and not eligible):
            continue
        assert_same_outcome(run_column(column, row, example), expected,
                            (column, str(row), example))
        ran.append(column)
    return ran
