"""Shared helpers for protocol-level tests (importable as ``tests.helpers``)."""

from __future__ import annotations

from contextlib import contextmanager

from repro.api import SupervisedExecutor, iter_execute
from repro.core.protocol import ProtocolConfig
from repro.experiments.workloads import standard_scenarios
from repro.runtime.simulation import run_agreement


def run_battery(spec_factory, n: int, t: int, initial_value=1, scenarios=None):
    """Run a protocol under the standard scenario battery and yield results.

    ``spec_factory`` is called once per scenario so protocols with per-run
    state on the spec (e.g. Dolev–Strong's signature ledger) stay isolated.
    """
    config = ProtocolConfig(n=n, t=t, initial_value=initial_value)
    scenario_list = scenarios if scenarios is not None else standard_scenarios(n, t)
    for scenario in scenario_list:
        result = run_agreement(spec_factory(), config, scenario.faulty,
                               scenario.adversary())
        yield scenario, result


def assert_battery_correct(spec_factory, n: int, t: int, initial_value=1,
                           scenarios=None) -> int:
    """Assert agreement + validity + discovery soundness for every scenario.

    Returns the number of scenarios exercised so callers can sanity-check the
    battery was not empty.
    """
    count = 0
    for scenario, result in run_battery(spec_factory, n, t, initial_value,
                                        scenarios):
        assert result.agreement, (
            f"agreement violated under {scenario.name}: {result.decisions}")
        if result.validity is not None:
            assert result.validity, (
                f"validity violated under {scenario.name}: {result.decisions}")
        assert result.soundness_of_discovery(), (
            f"a correct processor was incriminated under {scenario.name}")
        count += 1
    assert count > 0
    return count


def run_supervised(request, **options):
    """Run one request on a ``SupervisedExecutor`` through ``iter_execute``.

    *options* are the executor's constructor arguments (``ladder``,
    ``max_attempts``, ``deadline``, ``chaos``, ...).
    """
    with SupervisedExecutor(**options) as runner:
        [(_, report)] = iter_execute([request], runner)
    return report


@contextmanager
def large_level_forms():
    """Run the batched kernels' large-level forms at every level size.

    With ``LARGE_LEVEL_ELEMENTS`` at 0 the gather reads claims label by
    label, and the count, trigger, vote and claims kernels take their
    temporaries from the per-thread ``scratch`` buffers, however small the
    level.  Yields the name of every scratch buffer requested, so a caller
    can assert that the reuse paths really ran.
    """
    import pytest

    from repro.core import npsupport
    requested = []
    reused = npsupport.scratch

    def recording_scratch(name, shape, dtype):
        requested.append(name)
        return reused(name, shape, dtype)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npsupport, "LARGE_LEVEL_ELEMENTS", 0)
        patch.setattr(npsupport, "scratch", recording_scratch)
        yield requested
