"""Exception hierarchy for the simulation runtime and protocol layer."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ReproError):
    """A protocol or simulation was configured with inconsistent parameters.

    Typical causes: resilience exceeded (``n < 3t + 1`` for Algorithm A), an
    out-of-range block parameter ``b``, a faulty-set larger than ``t``, or an
    unknown processor identifier.
    """


class ProtocolViolationError(ReproError):
    """A protocol object was driven outside its legal round sequence.

    The synchronous scheduler calls ``send``/``receive`` with strictly
    increasing round numbers from 1 to ``total_rounds``; any other usage is a
    programming error in the harness and raises this exception rather than
    silently corrupting the run.
    """


class SimulationError(ReproError):
    """The synchronous network simulator reached an inconsistent state."""


class AdversaryError(ReproError):
    """An adversary produced output outside its power (e.g. forged a sender)."""


class FabricError(ReproError):
    """The execution fabric (workers, pipes, checkpoints) failed, not the run.

    Every infrastructure failure the supervision layer knows how to retry or
    degrade around derives from this class, so callers can distinguish "the
    substrate broke" from "the simulation is inconsistent" with one
    ``except`` clause.
    """


class WorkerDiedError(FabricError, SimulationError):
    """A worker process died mid-run.

    Also a :class:`SimulationError` for compatibility: callers that catch
    worker death as a plain simulation failure still do the right thing.
    """


class WorkerTimeoutError(FabricError):
    """A worker missed its reply deadline (hung, or pathologically slow)."""


class CheckpointWriteError(FabricError):
    """A sweep checkpoint append kept failing past its bounded retry budget."""


class SupervisionExhaustedError(FabricError):
    """Every rung of the degradation ladder failed for one request."""
