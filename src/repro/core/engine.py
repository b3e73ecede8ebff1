"""EIG engine selection: flat-array fast, vectorized numpy, and dict reference.

The package ships three interchangeable implementations of the Exponential
Information Gathering substrate:

* ``"fast"`` — interned label sequences (dense integer node-ids), flat
  level-major value buffers, a single bottom-up conversion pass with inlined
  majority counting, and by-reference level-slice messages.  This is the
  default engine; it has no dependencies and exists purely for speed.
* ``"numpy"`` — the same flat layout with the level buffers stored as
  small-integer ndarrays: gathering is fancy-indexed assignment over the
  interned ``(slots, parents)`` tables, and ``resolve`` / ``resolve'`` / the
  Fault Discovery Rule are one vectorized ``bincount`` majority vote per level
  over a ``(parents, branch)`` reshape.  **Optional**: it registers only when
  numpy is importable (:func:`numpy_available`); selecting it without numpy
  raises, and an environment request for it degrades to ``"fast"`` with a
  warning.
* ``"reference"`` — the original ``Dict[LabelSequence, Value]`` trees with the
  recursive-specification conversion functions.  It is kept verbatim as the
  executable specification: property tests assert that all engines produce
  identical decisions, discoveries and conversions, and the perf benchmarks
  use it as the before/after baseline.

The engine is chosen per processor at construction time.  The default can be
set process-wide (:func:`set_default_engine`), temporarily
(:func:`use_engine`), or via the ``REPRO_EIG_ENGINE`` environment variable —
the latter is how the parallel experiment runner propagates the choice to its
worker processes.  An invalid environment value is **not** silently accepted:
it falls back to ``"fast"`` and emits a :class:`RuntimeWarning` naming both
the bad value and the fallback.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

FAST = "fast"
NUMPY = "numpy"
REFERENCE = "reference"

ENGINES = (FAST, NUMPY, REFERENCE)

#: The batched whole-run executor (``run_agreement(..., batched=True)``,
#: ``repro run --batched``).  Not a per-processor engine — it replaces the
#: per-processor stepping loop itself with 2-D kernels over all correct
#: processors — but benchmarks and the CLI select it alongside the engines,
#: so it is named here.  It runs on the ``"numpy"`` storage layer and is
#: available exactly when that engine is (see :func:`batched_available`);
#: per-run eligibility (the EIG specs, Algorithm C, and the hybrid) is
#: decided by :func:`repro.runtime.batched.batched_supported`.
BATCHED = "batched"

_ENV_VAR = "REPRO_EIG_ENGINE"


def numpy_available() -> bool:
    """Whether the ``"numpy"`` engine is registered (numpy importable)."""
    from .npsupport import have_numpy
    return have_numpy()


def batched_available() -> bool:
    """Whether the batched whole-run executor can run (numpy importable)."""
    return numpy_available()


def available_engines() -> Tuple[str, ...]:
    """The engines that can actually be selected in this process."""
    if numpy_available():
        return ENGINES
    return (FAST, REFERENCE)


def _engine_from_environment() -> str:
    """Resolve the process default from ``REPRO_EIG_ENGINE`` (warn, never raise)."""
    requested = os.environ.get(_ENV_VAR)
    if requested is None or requested == FAST:
        return FAST
    if requested not in ENGINES:
        warnings.warn(
            f"ignoring invalid {_ENV_VAR}={requested!r} (expected one of "
            f"{ENGINES}); falling back to the {FAST!r} engine",
            RuntimeWarning, stacklevel=3)
        return FAST
    if requested == NUMPY and not numpy_available():
        warnings.warn(
            f"{_ENV_VAR}={NUMPY!r} requested but numpy is not installed; "
            f"falling back to the {FAST!r} engine",
            RuntimeWarning, stacklevel=3)
        return FAST
    return requested


_default_engine = _engine_from_environment()


def get_default_engine() -> str:
    """The engine used by processors that do not request one explicitly."""
    return _default_engine


def ambient_engine() -> Optional[str]:
    """The engine the *environment* asked for, or ``None`` when unconstrained.

    "Ambient" means a choice made outside the individual run request: the
    ``REPRO_EIG_ENGINE`` environment variable, or a process-wide
    :func:`set_default_engine` call that moved the default off ``"fast"``.
    The execution planner (:mod:`repro.api.planner`) lets its ``"auto"``
    resolution defer to an ambient choice, while an **explicit** engine on a
    request overrides it with a warning — the request is the more specific
    instruction.

    A ``set_default_engine("fast")`` call is indistinguishable from the
    built-in default and therefore reads as unconstrained; select ``"fast"``
    per request (or via the environment variable) when it must win.
    """
    requested = os.environ.get(_ENV_VAR)
    if requested in ENGINES and not (requested == NUMPY
                                     and not numpy_available()):
        return requested
    # An invalid or unusable environment request falls through to the
    # process default, which may itself carry an explicit pin.
    if _default_engine != FAST:
        return _default_engine
    return None


def set_default_engine(engine: str) -> None:
    """Set the process-wide default engine (one of :data:`ENGINES`)."""
    global _default_engine
    _default_engine = validate_engine(engine)


def validate_engine(engine: Optional[str]) -> str:
    """Normalise an engine name, substituting the default for ``None``.

    Raises :class:`ValueError` for unknown names and for ``"numpy"`` when
    numpy is not installed (the engine stays strictly optional).
    """
    if engine is None:
        return _default_engine
    if engine not in ENGINES:
        raise ValueError(f"unknown EIG engine {engine!r}; expected one of {ENGINES}")
    if engine == NUMPY and not numpy_available():
        raise ValueError(
            f"EIG engine {NUMPY!r} requires numpy, which is not installed; "
            f"available engines: {available_engines()}")
    return engine


@contextmanager
def use_engine(engine: str) -> Iterator[str]:
    """Temporarily switch the default engine (used by benchmarks and tests)."""
    global _default_engine
    previous = _default_engine
    _default_engine = validate_engine(engine)
    try:
        yield _default_engine
    finally:
        _default_engine = previous
