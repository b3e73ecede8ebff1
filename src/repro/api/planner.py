"""The execution planner: resolve a request's ``engine`` to a concrete executor.

Before this module existed, engine choice was scattered plumbing: callers
threaded ``batched=`` flags into :func:`repro.runtime.simulation.run_agreement`
and exported ``REPRO_EIG_ENGINE`` for the process pool by hand.  The planner
centralises the decision.  Given a :class:`~repro.api.request.RunRequest` and
the spec/config it resolves to, :func:`plan_run` returns an
:class:`ExecutionPlan` saying which per-processor engine to install and
whether to take the batched whole-run path.

Resolution rules
----------------
``engine="auto"`` (the default) picks the fastest executor the run is
eligible for::

    batched  — numpy importable, the spec steps plain EIG machines
               (Exponential, Algorithms A and B, PSL), Algorithm C, or the
               hybrid, and the adversary does not decline the batched path
    fast     — every other run (phase-king, dolev-strong,
               batched-declining adversaries, no numpy)
    numpy    — never chosen automatically without an ambient pin
    reference— never chosen automatically; it exists to be asked for

unless the *environment* constrains the choice: ``REPRO_EIG_ENGINE`` or a
:func:`~repro.core.engine.set_default_engine` call pins auto's
per-processor engine to the named one.  An ambient ``"fast"`` or
``"reference"`` also rules out batching (an oracle or no-vectorization run
stays one); an ambient ``"numpy"`` still upgrades to batched where
eligible, because batched *is* the numpy layer.

An **explicit** engine on the request always wins over the ambient settings —
with a :class:`RuntimeWarning` naming both sides when they conflict, never
silently.  An explicit ``"batched"`` on an ineligible run degrades to the
``"fast"`` engine, also with a warning.

The planner decides the *engine*; the *executor backend* a run is placed on
(:mod:`repro.api.executors` — serial, pool, or the sharded large-``n``
backend) is orthogonal and chosen by the caller.  :func:`plan_shardable`
answers the one question that couples them: whether a run's plan would let
the sharded backend split its row stack (exactly the batched-eligible runs).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Optional

from ..core.engine import (BATCHED, FAST, NUMPY, REFERENCE, ambient_engine,
                           numpy_available, validate_engine)
from .request import AUTO, RunRequest

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.protocol import ProtocolConfig, ProtocolSpec


@dataclass(frozen=True)
class ExecutionPlan:
    """The planner's verdict for one run."""

    #: The per-processor engine to install for the run's duration.
    engine: str
    #: Whether to take the batched whole-run executor.
    batched: bool
    #: What the request asked for (``"auto"`` included).
    requested: str
    #: The ambient constraint the planner saw, if any.
    ambient: Optional[str]
    #: One line of human-readable justification (surfaces in ``--json`` docs).
    reason: str

    @property
    def resolved(self) -> str:
        """The executor name recorded in run metadata."""
        return BATCHED if self.batched else self.engine


def batched_ineligibility(spec: "ProtocolSpec", config: "ProtocolConfig",
                          faulty: FrozenSet[int] = frozenset(),
                          adversary=None) -> Optional[str]:
    """Why this run cannot take the batched path — ``None`` means eligible.

    The single authority the planner, the sharded executor, and ``repro
    validate`` consult.  The checks mirror
    :func:`~repro.runtime.batched.run_batched_if_supported` in order: an
    adversary that declares a
    :attr:`~repro.adversary.base.Adversary.batched_fallback_reason` declines
    first (its string is returned verbatim), then numpy availability, then
    the spec probe, then the degenerate no-participant case.
    """
    reason = getattr(adversary, "batched_fallback_reason", None)
    if reason is not None:
        return str(reason)
    if not numpy_available():
        return "numpy is not importable"
    from ..runtime.batched import batched_supported
    if not batched_supported(spec, config):
        return (f"{spec.name} builds neither shifting-EIG, Algorithm C, "
                f"nor hybrid machines (only those step as one row stack)")
    # The batched runner also declines degenerate runs where no correct
    # non-source processor participates; plan the fallback it would take so
    # the report's engine metadata matches what actually executed.
    if not any(p not in faulty and p != config.source
               for p in config.processors):
        return "no correct non-source processor participates"
    return None


def plan_shardable(spec: "ProtocolSpec", config: "ProtocolConfig",
                   faulty: FrozenSet[int] = frozenset(),
                   adversary=None) -> bool:
    """Whether the sharded run executor could row-split this run.

    True exactly when the run is batched-eligible — the sharded backend is
    the batched engine with its row stack partitioned across processes, so
    the two share one eligibility rule.  Ineligible runs placed on a
    ``"sharded"`` executor fall back to the ordinary planner path.  (An
    adversary with a corruption hook still plans as shardable: the sharded
    executor runs it single-process batched, preserving observational
    identity.)
    """
    return batched_ineligibility(spec, config, faulty, adversary) is None


def plan_run(request: RunRequest, spec: "ProtocolSpec",
             config: "ProtocolConfig",
             faulty: FrozenSet[int] = frozenset(),
             adversary=None) -> ExecutionPlan:
    """Resolve *request*'s engine choice against eligibility and environment."""
    requested = request.engine
    ambient = ambient_engine()

    if requested == AUTO:
        if ambient in (FAST, REFERENCE):
            return ExecutionPlan(
                engine=ambient, batched=False, requested=requested,
                ambient=ambient,
                reason=f"auto deferred to the ambient {ambient!r} engine "
                       f"(REPRO_EIG_ENGINE / set_default_engine)")
        ineligible = batched_ineligibility(spec, config, faulty, adversary)
        if ineligible is None:
            return ExecutionPlan(
                engine=NUMPY, batched=True, requested=requested,
                ambient=ambient,
                reason="auto: spec eligible for whole-run batched "
                       "stepping")
        # Ineligible runs are the tree-less baselines and batched-declining
        # adversaries; at the benchmarked sizes the latter step small trees,
        # where ndarray overhead makes per-processor numpy lose to fast.
        # Only an ambient pin picks numpy here.
        engine = ambient or FAST
        return ExecutionPlan(
            engine=engine, batched=False, requested=requested,
            ambient=ambient,
            reason=f"auto: batched declined ({ineligible}); per-processor "
                   f"{engine!r} engine")

    if requested == BATCHED:
        if ambient not in (None, NUMPY):
            warnings.warn(
                f"explicit engine='batched' overrides the ambient "
                f"{ambient!r} engine (REPRO_EIG_ENGINE / set_default_engine)",
                RuntimeWarning, stacklevel=3)
        ineligible = batched_ineligibility(spec, config, faulty, adversary)
        if ineligible is None:
            return ExecutionPlan(
                engine=NUMPY, batched=True, requested=requested,
                ambient=ambient, reason="explicit batched request")
        warnings.warn(
            f"engine='batched' is not supported for this run "
            f"({ineligible}); using the per-processor {FAST!r} engine "
            f"instead",
            RuntimeWarning, stacklevel=3)
        return ExecutionPlan(
            engine=FAST, batched=False, requested=requested, ambient=ambient,
            reason=f"batched unsupported here; per-processor {FAST!r} "
                   f"fallback")

    # An explicit per-processor engine: it wins over the ambient settings,
    # loudly when they disagree.
    engine = validate_engine(requested)
    if ambient is not None and ambient != engine:
        warnings.warn(
            f"explicit engine={engine!r} overrides the ambient {ambient!r} "
            f"engine (REPRO_EIG_ENGINE / set_default_engine)",
            RuntimeWarning, stacklevel=3)
    return ExecutionPlan(engine=engine, batched=False, requested=requested,
                         ambient=ambient,
                         reason=f"explicit {engine!r} request")
