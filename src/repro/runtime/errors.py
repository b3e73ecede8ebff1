"""Exception hierarchy for the simulation runtime and protocol layer.

The field checks at the end turn a malformed field of a serialized
description (a request, sweep, campaign, search or chaos policy) into a
:class:`ConfigurationError` that names the field.
"""

from __future__ import annotations

import operator
from dataclasses import MISSING, fields
from typing import Any, Dict, Mapping, Tuple


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


# ---------------------------------------------------------------------------
# Field checks for the boundary decoders.
# ---------------------------------------------------------------------------

def _malformed(owner: str, name: str, expected: str,
               value: Any) -> ConfigurationError:
    return ConfigurationError(
        f"{owner} field {name!r} must be {expected}, got {value!r}")


def integer_field(owner: str, name: str, value: Any) -> int:
    """*value* as a plain ``int``, or a :class:`ConfigurationError`.

    Accepts exactly what :func:`operator.index` accepts except ``bool``: a
    float, a numeric string, or ``True`` is a malformed field, not a number
    to coerce.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise _malformed(owner, name, "an integer", value)


def boolean_field(owner: str, name: str, value: Any) -> bool:
    """*value* if it is ``True`` or ``False``: ``"no"`` is not false."""
    if isinstance(value, bool):
        return value
    raise _malformed(owner, name, "true or false", value)


def object_field(owner: str, name: str, value: Any) -> Dict[Any, Any]:
    """A copy of *value* if it is a mapping (a JSON object)."""
    if isinstance(value, Mapping):
        return dict(value)
    raise _malformed(owner, name, "an object", value)


def list_field(owner: str, name: str, value: Any) -> Tuple[Any, ...]:
    """*value* as a tuple if it is a list-like collection, not a string."""
    if isinstance(value, (str, bytes, Mapping)):
        raise _malformed(owner, name, "a list", value)
    try:
        return tuple(value)
    except TypeError:
        raise _malformed(owner, name, "a list", value) from None


def decoded_fields(cls: type, data: Any, owner: str) -> Dict[str, Any]:
    """The keyword arguments a serialized dataclass *cls* decodes from.

    *data* must be an object holding every required field of *cls* and no
    field *cls* lacks; anything else is a :class:`ConfigurationError`
    naming *owner*.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"a serialized {owner} is an object, got {data!r}")
    declared = fields(cls)
    known = {f.name for f in declared}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"unknown {owner} field(s) {sorted(map(str, unknown))}; "
            f"accepted: {sorted(known)}")
    missing = [f.name for f in declared
               if f.default is MISSING and f.default_factory is MISSING
               and f.name not in data]
    if missing:
        raise ConfigurationError(f"a serialized {owner} needs the "
                                 f"field(s) {missing}")
    return dict(data)
