"""The execution planner: resolve a request's ``engine`` to the engine a run uses.

A run's engine is a field of its :class:`~repro.core.protocol.ProtocolConfig`,
and a request's ``engine`` reaches that field only through this module.
Given a :class:`~repro.api.request.RunRequest` and the spec/config it
resolves to, :func:`plan_run` returns an :class:`ExecutionPlan` naming the
engine the run executes on; the façade runs
``run_agreement(spec, replace(config, engine=plan.engine), …)``.

Resolution rules
----------------
``engine="auto"`` (the default) picks the fastest executor the run is
eligible for::

    batched  — numpy importable, the spec steps plain EIG machines
               (Exponential, Algorithms A and B, PSL), Algorithm C, or the
               hybrid, and the adversary does not decline the batched path
    fast     — every other run (phase-king, dolev-strong,
               batched-declining adversaries, no numpy)
    numpy    — never chosen automatically
    reference— never chosen automatically; it exists to be asked for

An explicit per-processor engine runs as asked.  An explicit ``"batched"``
on an ineligible run degrades to the ``"fast"`` engine with a
:class:`RuntimeWarning`, never silently.

The planner decides the *engine*; the *executor backend* a run is placed on
(:mod:`repro.api.executors` — serial, pool, or supervised) is orthogonal and
chosen by the caller.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Optional

from ..core.engine import BATCHED, FAST, numpy_available, validate_engine
from .request import AUTO, RunRequest

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.protocol import ProtocolConfig, ProtocolSpec


@dataclass(frozen=True)
class ExecutionPlan:
    """The planner's verdict for one run."""

    #: The engine the run executes on (``"batched"`` or a per-processor
    #: engine); recorded as the report's ``engine_resolved``.
    engine: str
    #: What the request asked for (``"auto"`` included).
    requested: str
    #: One line of human-readable justification (surfaces in ``--json`` docs).
    reason: str


def batched_ineligibility(spec: "ProtocolSpec", config: "ProtocolConfig",
                          faulty: FrozenSet[int] = frozenset(),
                          adversary=None) -> Optional[str]:
    """Why this run cannot take the batched path — ``None`` means eligible.

    The single authority the planner and ``repro validate`` consult.  The checks mirror
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


def plan_run(request: RunRequest, spec: "ProtocolSpec",
             config: "ProtocolConfig",
             faulty: FrozenSet[int] = frozenset(),
             adversary=None) -> ExecutionPlan:
    """Resolve *request*'s engine choice against the run's eligibility."""
    requested = request.engine

    if requested == AUTO:
        ineligible = batched_ineligibility(spec, config, faulty, adversary)
        if ineligible is None:
            return ExecutionPlan(
                engine=BATCHED, requested=requested,
                reason="auto: spec eligible for whole-run batched "
                       "stepping")
        # Ineligible runs are the tree-less baselines and batched-declining
        # adversaries; at the benchmarked sizes the latter step small trees,
        # where ndarray overhead makes per-processor numpy lose to fast.
        return ExecutionPlan(
            engine=FAST, requested=requested,
            reason=f"auto: batched declined ({ineligible}); per-processor "
                   f"{FAST!r} engine")

    if requested == BATCHED:
        ineligible = batched_ineligibility(spec, config, faulty, adversary)
        if ineligible is None:
            return ExecutionPlan(engine=BATCHED, requested=requested,
                                 reason="explicit batched request")
        warnings.warn(
            f"engine='batched' is not supported for this run "
            f"({ineligible}); using the per-processor {FAST!r} engine "
            f"instead",
            RuntimeWarning, stacklevel=3)
        return ExecutionPlan(
            engine=FAST, requested=requested,
            reason=f"batched unsupported here; per-processor {FAST!r} "
                   f"fallback")

    engine = validate_engine(requested)
    return ExecutionPlan(engine=engine, requested=requested,
                         reason=f"explicit {engine!r} request")
