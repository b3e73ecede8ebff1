"""Engine registry behaviour: names, gating, and the run's config field.

The numpy engine must stay strictly optional: it is registered only when
numpy is importable, and selecting it (or the numpy-backed batched executor)
without numpy raises a named :class:`ConfigurationError`.  A run's engine is
a field of its :class:`ProtocolConfig`; an unknown name is rejected there
rather than silently replaced, and every machine the run builds — correct
processors, the adversary's shadows, the hybrid's Algorithm C machine —
stores its trees on that engine.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.adversary import adversary_registry
from repro.core import engine as engine_module
from repro.core.algorithm_c import AlgorithmCProcessor
from repro.core.engine import (CONFIG_ENGINES, ENGINES, available_engines,
                               numpy_available, tree_engine, validate_engine)
from repro.core.exponential import ExponentialSpec
from repro.core.hybrid import HybridSpec
from repro.core.protocol import ProtocolConfig
from repro.core.shifting import ShiftingEIGProcessor
from repro.runtime.errors import ConfigurationError
from repro.runtime.simulation import choose_faulty, run_agreement

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="numpy not installed")

PER_PROCESSOR_ENGINES = ["fast", "reference",
                         pytest.param("numpy", marks=needs_numpy)]


class TestValidateEngine:
    def test_known_engines_accepted(self):
        assert validate_engine("fast") == "fast"
        assert validate_engine("reference") == "reference"

    def test_unknown_engine_raises_with_candidates(self):
        with pytest.raises(ConfigurationError, match="unknown EIG engine"):
            validate_engine("cython")

    def test_numpy_engine_validates_when_available(self):
        if not numpy_available():
            pytest.skip("numpy not installed")
        assert validate_engine("numpy") == "numpy"
        assert validate_engine("batched") == "batched"

    def test_numpy_engine_raises_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(engine_module, "numpy_available", lambda: False)
        for engine in ("numpy", "batched"):
            with pytest.raises(ConfigurationError, match="requires numpy"):
                validate_engine(engine)

    def test_available_engines_reflects_gating(self, monkeypatch):
        assert set(available_engines()) <= set(ENGINES)
        monkeypatch.setattr(engine_module, "numpy_available", lambda: False)
        assert engine_module.available_engines() == ("fast", "reference")


class TestConfigEngine:
    def test_fast_is_the_default(self):
        assert ProtocolConfig(n=4, t=1).engine == "fast"

    def test_every_available_engine_is_accepted(self):
        for engine in available_engines():
            assert ProtocolConfig(n=4, t=1, engine=engine).engine == engine

    def test_unknown_engine_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown EIG engine"):
            ProtocolConfig(n=4, t=1, engine="cython")

    def test_numpy_backed_engines_need_numpy(self, monkeypatch):
        monkeypatch.setattr(engine_module, "numpy_available", lambda: False)
        for engine in ("numpy", "batched"):
            with pytest.raises(ConfigurationError, match="requires numpy"):
                ProtocolConfig(n=4, t=1, engine=engine)

    def test_batched_runs_build_numpy_trees(self):
        assert [tree_engine(engine) for engine in CONFIG_ENGINES] == [
            "fast", "numpy", "reference", "numpy"]

    def test_none_is_not_an_engine(self):
        # There is no process default for ``None`` to stand for.
        with pytest.raises(ConfigurationError, match="unknown EIG engine"):
            ProtocolConfig(n=4, t=1, engine=None)


@pytest.fixture
def built(monkeypatch):
    """Record ``(machine class, pid, engine)`` for every EIG and C machine."""
    records = []
    for cls in (ShiftingEIGProcessor, AlgorithmCProcessor):
        def recording_init(processor, pid, *args, _cls=cls, _init=cls.__init__,
                           **kwargs):
            _init(processor, pid, *args, **kwargs)
            records.append((_cls, pid, processor.engine))
        monkeypatch.setattr(cls, "__init__", recording_init)
    return records


def _run_hybrid(engine):
    """The hybrid at (10,3) against a faulty source and its allies."""
    faulty = choose_faulty(10, 3, source_faulty=True)
    config = ProtocolConfig(n=10, t=3, initial_value=1, engine=engine)
    result = run_agreement(HybridSpec(3), config, faulty,
                           adversary_registry()["equivocating-source-allies"](),
                           seed=0)
    assert result.agreement
    return faulty


class TestEveryBuildSiteReadsTheConfig:
    """Every machine a run builds stores its trees on ``config.engine``.

    Outcomes never depend on the engine, so the equivalence suites cannot
    see a build site that ignores the config; these record the machines.
    """

    @pytest.mark.parametrize("engine", PER_PROCESSOR_ENGINES)
    def test_correct_processors(self, built, engine):
        faulty = _run_hybrid(engine)
        correct = {pid: machine_engine for cls, pid, machine_engine in built
                   if cls is ShiftingEIGProcessor and pid not in faulty}
        assert sorted(correct) == [pid for pid in range(10)
                                   if pid not in faulty]
        assert set(correct.values()) == {engine}

    @pytest.mark.parametrize("engine", PER_PROCESSOR_ENGINES)
    def test_adversary_shadows(self, built, engine):
        faulty = _run_hybrid(engine)
        shadows = {pid: machine_engine for cls, pid, machine_engine in built
                   if cls is ShiftingEIGProcessor and pid in faulty}
        assert sorted(shadows) == sorted(faulty)
        assert set(shadows.values()) == {engine}

    @pytest.mark.parametrize("engine", PER_PROCESSOR_ENGINES)
    def test_hybrid_phase_c_built_at_the_shift(self, built, engine):
        _run_hybrid(engine)
        classes = [cls for cls, _, _ in built]
        first_c = classes.index(AlgorithmCProcessor)
        # Built mid-run: after every A/B machine, one per processor.
        assert set(classes[:first_c]) == {ShiftingEIGProcessor}
        phase_c = {pid: machine_engine
                   for cls, pid, machine_engine in built[first_c:]}
        assert set(classes[first_c:]) == {AlgorithmCProcessor}
        assert sorted(phase_c) == list(range(10))
        assert set(phase_c.values()) == {engine}

    @needs_numpy
    def test_batched_run_builds_numpy_machines(self, built):
        _run_hybrid("batched")
        assert built and {machine_engine for _, _, machine_engine in built} == {
            "numpy"}

    @needs_numpy
    def test_declined_batched_run_falls_back_to_numpy_machines(self, built):
        adversary = adversary_registry()["crash-recovery"]()
        assert adversary.batched_fallback_reason is not None
        faulty = choose_faulty(7, 2)
        config = ProtocolConfig(n=7, t=2, initial_value=1, engine="batched")
        result = run_agreement(ExponentialSpec(), config, faulty, adversary)
        assert result.agreement
        assert sorted(pid for _, pid, _ in built) == list(range(7))
        assert {machine_engine for _, _, machine_engine in built} == {"numpy"}


class TestWithoutNumpyInstalled:
    """Simulate a bare image: importing repro and running the fast engine
    must work with numpy entirely unimportable."""

    def test_import_and_run_without_numpy(self):
        script = """
import sys

class _BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked for this test")
        return None

sys.meta_path.insert(0, _BlockNumpy())

from repro.core.engine import available_engines, validate_engine
from repro.runtime.errors import ConfigurationError
assert available_engines() == ("fast", "reference"), available_engines()
try:
    validate_engine("numpy")
except ConfigurationError as exc:
    assert "requires numpy" in str(exc)
else:
    raise AssertionError("validate_engine('numpy') should have raised")

from repro.core.exponential import ExponentialSpec
from repro.core.protocol import ProtocolConfig
from repro.runtime.simulation import run_agreement
result = run_agreement(ExponentialSpec(), ProtocolConfig(n=4, t=1),
                       frozenset([1]), None)
assert result.agreement
print("OK")
"""
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True,
            env={"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"})
        assert completed.returncode == 0, completed.stderr
        assert "OK" in completed.stdout
