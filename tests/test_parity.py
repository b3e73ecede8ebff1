"""The parity matrix (:mod:`tests.parity`): every execution path of every
registered protocol under every registered adversary gives the reference
engine's outcome."""

from dataclasses import replace
from functools import partial

import pytest

from repro.adversary.crash import CrashAdversary
from repro.api import registries
from repro.api.registries import RegistryEntry
from repro.core.exponential import ExponentialSpec
from repro.runtime.simulation import choose_faulty
from tests.parity import (COLUMNS, FORCED, Example, assert_row_agrees,
                          batched_eligible, column_available, outage_example,
                          outage_rows, rows)


@pytest.mark.parametrize("row", rows(), ids=str)
def test_every_column_matches_the_oracle(row):
    """Every example of the row (see :meth:`tests.parity.Row.examples`);
    the supervised column runs on the first."""
    first, *rest = row.examples()
    assert_row_agrees(row, first)
    for example in rest:
        assert_row_agrees(replace(row, supervised=False), example)


@pytest.mark.parametrize("row", outage_rows(), ids=str)
def test_crash_recovery_outages_match_the_oracle(row):
    """A shadow that sleeps through Algorithm C's intermediate round and
    wakes before the run ends gathers from the depth of its own tree."""
    assert_row_agrees(row, outage_example(row))


#: Registry entries no registry holds: a protocol and an adversary that
#: must join every column of the matrix with no test edit.
EXTRA_PROTOCOL = RegistryEntry(
    "exponential-prime", partial(ExponentialSpec, conversion="resolve_prime"))
EXTRA_ADVERSARY = RegistryEntry(
    "late-crash", partial(CrashAdversary, crash_round=3))


@pytest.mark.parametrize("column", COLUMNS[1:])
def test_new_registry_entries_join_every_column(column, monkeypatch):
    if not column_available(column):
        pytest.skip(f"this process cannot run the {column!r} column")
    monkeypatch.setitem(registries._PROTOCOLS, EXTRA_PROTOCOL.name,
                        EXTRA_PROTOCOL)
    monkeypatch.setitem(registries._ADVERSARIES, EXTRA_ADVERSARY.name,
                        EXTRA_ADVERSARY)
    matrix = rows()
    for extra in (EXTRA_PROTOCOL, EXTRA_ADVERSARY):
        joined = [(row, Example(choose_faulty(row.n, row.t), 1, 0))
                  for row in matrix
                  if extra in (row.protocol, row.adversary)
                  and column in row.columns]
        # A forced column reaches the rows the batched executor takes.
        row, example = min(
            ((row, example) for row, example in joined
             if column not in FORCED or batched_eligible(row, example)),
            key=lambda pair: (pair[0].n, str(pair[0])))
        assert assert_row_agrees(row, example, ("reference", column)) == [
            "reference", column], str(row)
