"""EIG engine names: flat-array fast, vectorized numpy, and dict reference.

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
  raises.
* ``"reference"`` — the original ``Dict[LabelSequence, Value]`` trees with the
  recursive-specification conversion functions.  It is kept verbatim as the
  executable specification: property tests assert that all engines produce
  identical decisions, discoveries and conversions, and the perf benchmarks
  use it as the before/after baseline.

The engine is a field of the run: :attr:`ProtocolConfig.engine
<repro.core.protocol.ProtocolConfig.engine>`.  Every processor a run builds
receives that config — the correct processors, the adversary's shadows, and
the hybrid's Algorithm C machine built at the shift — so all of them store
their trees the same way.  There is no process-wide default to set; a
request's ``engine`` reaches the config through the planner
(:mod:`repro.api.planner`).
"""

from __future__ import annotations

from typing import Tuple

FAST = "fast"
NUMPY = "numpy"
REFERENCE = "reference"

ENGINES = (FAST, NUMPY, REFERENCE)

#: The batched whole-run executor.  Not a per-processor engine — it replaces
#: the per-processor stepping loop itself with 2-D kernels over all correct
#: processors — but a run's config names it like one: ``run_agreement``
#: takes the batched path exactly when ``config.engine`` is ``"batched"``,
#: and every machine such a run builds stores numpy levels
#: (:func:`tree_engine`).  Available exactly when numpy is importable;
#: per-run eligibility (the EIG specs, Algorithm C, and the hybrid) is
#: decided by :func:`repro.runtime.batched.batched_supported`.
BATCHED = "batched"

#: Every value :attr:`ProtocolConfig.engine` accepts.
CONFIG_ENGINES = ENGINES + (BATCHED,)


def numpy_available() -> bool:
    """Whether the ``"numpy"`` engine is registered (numpy importable)."""
    from .npsupport import have_numpy
    return have_numpy()


def batched_available() -> bool:
    """Whether the batched whole-run executor can run (numpy importable)."""
    return numpy_available()


def available_engines() -> Tuple[str, ...]:
    """The per-processor engines that can actually be selected in this process."""
    if numpy_available():
        return ENGINES
    return (FAST, REFERENCE)


def validate_engine(engine: str) -> str:
    """Return *engine* when this process can run it.

    Raises :class:`~repro.runtime.errors.ConfigurationError` for names outside
    :data:`CONFIG_ENGINES`, and for ``"numpy"`` or ``"batched"`` when numpy
    is not installed (both stay strictly optional).
    """
    # Imported here: repro.runtime imports this module while it initialises.
    from ..runtime.errors import ConfigurationError
    if engine not in CONFIG_ENGINES:
        raise ConfigurationError(
            f"unknown EIG engine {engine!r}; expected one of {CONFIG_ENGINES}")
    if engine in (NUMPY, BATCHED) and not numpy_available():
        raise ConfigurationError(
            f"EIG engine {engine!r} requires numpy, which is not installed; "
            f"available engines: {available_engines()}")
    return engine


def tree_engine(engine: str) -> str:
    """The per-processor storage a run on *engine* builds its trees with.

    A batched run stores numpy levels in every machine it builds, so any
    machine an adversary builds outside the batched runner's shadow rows
    still broadcasts level messages the runner ingests zero-copy.
    """
    return NUMPY if engine == BATCHED else engine
