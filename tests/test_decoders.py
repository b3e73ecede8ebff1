"""The boundary decoders: a wrong-typed field is a named error, never a guess.

Every serialized description a user can hand the package — a request, a
sweep, a Monte-Carlo campaign, a search, a chaos policy — decodes through a
``from_dict`` whose fields are checked where the class checks them.  A JSON
boolean field takes only ``true``/``false`` (``"no"`` is not false), an
integer field takes only what :func:`operator.index` accepts bar ``bool``,
and a malformed object, list or item raises a
:class:`~repro.runtime.errors.ConfigurationError` naming the field instead
of a bare ``TypeError``.  The properties replace one field of a valid
description (or of its first nested item) with junk and require either a
named error or a value whose ``to_dict()`` decodes back to itself.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RegistryError, RunRequest, SweepSpec
from repro.runtime.chaos import ChaosPolicy, FaultInjection
from repro.runtime.errors import ConfigurationError
from repro.search import SearchSpec
from repro.stats import McCell, McSpec

REQUEST = dict(RunRequest(protocol="exponential", n=7, t=2, initial_value=1,
                          faulty=(1, 2), adversary="two-faced",
                          seed=11).to_dict(), allow_unsafe=False)
SWEEP = dict(SweepSpec(requests=(), executor="serial").to_dict(),
             requests=[REQUEST])
CELL = McCell(protocol="exponential", n=7, t=2).to_dict()
CAMPAIGN = dict(McSpec(cells=(McCell(protocol="exponential", n=7, t=2),),
                       trials=2).to_dict(), cells=[CELL])
SEARCH = SearchSpec(cells=((7, 2),), budget=4).to_dict()
POLICY = ChaosPolicy(faults=(FaultInjection(kind="pool-worker-kill", index=1,
                                            times=2),), name="p").to_dict()

#: Wrong scalars, strings that read as booleans or numbers, and nesting.
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.sampled_from(["no", "false", "true", "0", "1", "2.5", ""]))
JUNK = st.recursive(
    _SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _paths(data):
    """Every top-level field, and every field of a nested first item."""
    for key, value in data.items():
        yield (key,)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            yield from ((key, 0, inner) for inner in value[0])


def _with(data, path, junk):
    data = copy.deepcopy(data)
    target = data
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = junk
    return data


DECODERS = [
    (RunRequest, REQUEST), (SweepSpec, SWEEP), (McSpec, CAMPAIGN),
    (SearchSpec, SEARCH), (ChaosPolicy, POLICY),
]


@pytest.mark.parametrize("cls, valid", DECODERS,
                         ids=[cls.__name__ for cls, _ in DECODERS])
def test_valid_descriptions_round_trip(cls, valid):
    value = cls.from_dict(valid)
    assert cls.from_dict(value.to_dict()) == value


@pytest.mark.parametrize("cls, valid", DECODERS,
                         ids=[cls.__name__ for cls, _ in DECODERS])
def test_one_junk_field_is_named_or_round_trips(cls, valid):
    paths = sorted(_paths(valid), key=str)

    @settings(max_examples=150, deadline=None, database=None)
    @given(path=st.sampled_from(paths), junk=JUNK)
    def decode(path, junk):
        try:
            value = cls.from_dict(_with(valid, path, junk))
        except (ConfigurationError, RegistryError):
            return
        assert cls.from_dict(value.to_dict()) == value

    decode()


@pytest.mark.parametrize("cls, data, field", [
    (RunRequest, dict(REQUEST, n=3, t=1, faulty=[2], allow_unsafe="no"),
     "'allow_unsafe'"),
    (RunRequest, dict(REQUEST, n=3, t=1, faulty=[2], allow_unsafe="false"),
     "'allow_unsafe'"),
    (McCell, dict(CELL, allow_unsafe="no"), "'allow_unsafe'"),
    (SearchSpec, dict(SEARCH, allow_unsafe="no"), "'allow_unsafe'"),
    (SweepSpec, dict(SWEEP, sweep_seed=1.5), "'sweep_seed'"),
    (SweepSpec, dict(SWEEP, sweep_seed="x"), "'sweep_seed'"),
    (SweepSpec, dict(SWEEP, sweep_seed=True), "'sweep_seed'"),
    (McSpec, dict(CAMPAIGN, sweep_seed=1.5), "'sweep_seed'"),
    (McSpec, dict(CAMPAIGN, trials=2.5), "'trials'"),
    (McSpec, dict(CAMPAIGN, trials=True), "'trials'"),
    (SearchSpec, dict(SEARCH, budget=2.5), "'budget'"),
    (SweepSpec, dict(SWEEP, executor_params=5), "'executor_params'"),
    (SweepSpec, dict(SWEEP, requests=[5]), "RunRequest is an object"),
    (SweepSpec, dict(SWEEP, requests=[dict(REQUEST, protocol_params=5)]),
     "'protocol_params'"),
    (SweepSpec, dict(SWEEP, requests=[dict(REQUEST, domain=5)]),
     "'domain'"),
])
def test_wrong_typed_field_is_a_named_error(cls, data, field):
    with pytest.raises(ConfigurationError, match=field):
        cls.from_dict(data)
