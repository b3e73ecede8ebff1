"""Infrastructure chaos: injectable faults for the execution fabric.

The fault-model zoo (:mod:`repro.adversary`) attacks the *protocol*; this
module attacks the *substrate* the protocol runs on.  A
:class:`ChaosPolicy` is a JSON-round-trippable schedule of infrastructure
faults — pool worker kills, checkpoint, cache and journal write failures,
serve worker deaths — that the executor layer injects at well-defined
points, so the supervision machinery
(:mod:`repro.runtime.supervision`) can be exercised deterministically:
property tests assert that every schedule the fabric is specified to
survive yields reports byte-identical to an undisturbed run.

Fault kinds and where they fire
-------------------------------

=====================  ==================  =====================================
kind                   site                effect
=====================  ==================  =====================================
``checkpoint-write-fail``  ``checkpoint-write``  the Nth checkpoint append
                                           raises :class:`OSError`
``pool-worker-kill``   ``pool-request``    the pool worker executing the
                                           targeted request index hard-exits
                                           (poisoning the pool)
``cache-write-fail``   ``cache-write``     the Nth serve-cache store raises
                                           :class:`OSError` after leaving a
                                           torn entry file behind (the cache
                                           is best-effort: the service keeps
                                           serving and counts the failure)
``journal-torn-write`` ``journal-write``   the Nth serve-journal append writes
                                           only a prefix of its line and then
                                           raises — the on-disk torn tail is
                                           exactly what a ``kill -9``
                                           mid-``write`` leaves
``serve-worker-death`` ``serve-job``       the serve worker executing the
                                           targeted job index dies
                                           (:class:`~repro.runtime.errors.WorkerDiedError`);
                                           the service's supervision retries
                                           the journaled job
=====================  ==================  =====================================

Activation is ambient: :func:`chaos_scope` installs a
:class:`ChaosController` for the dynamic extent of a sweep or executor, and
the injection points (:mod:`repro.api.sweep`, :mod:`repro.api.executors`,
and the serving layer :mod:`repro.serve`) consult :func:`current_chaos`.
Each injection fires a bounded number of ``times`` (default once) and every
firing is recorded on the controller, so a schedule is a *deterministic*
function of the execution it perturbs — no randomness, no wall-clock
coupling.  A pool worker kill is claimed in the parent when the request is
submitted, which is what makes "fire once, then the retry runs clean" hold
across process boundaries.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from .errors import ConfigurationError, decoded_fields, integer_field

#: Every injectable fault kind, mapped to the site where it fires.
KIND_SITES: Dict[str, str] = {
    "checkpoint-write-fail": "checkpoint-write",
    "pool-worker-kill": "pool-request",
    "cache-write-fail": "cache-write",
    "journal-torn-write": "journal-write",
    "serve-worker-death": "serve-job",
}


@dataclass(frozen=True)
class FaultInjection:
    """One scheduled infrastructure fault.

    ``index`` narrows where the fault fires (``None`` is a wildcard), and
    ``times`` caps how often the injection fires before it is spent.
    """

    kind: str
    index: Optional[int] = None
    times: int = 1

    def __post_init__(self) -> None:
        # Against the name tuple: an unhashable kind is unknown, not a
        # TypeError from the dict lookup.
        if self.kind not in tuple(KIND_SITES):
            raise ConfigurationError(
                f"unknown chaos fault kind {self.kind!r}; known: "
                f"{sorted(KIND_SITES)}")
        if self.index is not None:
            object.__setattr__(self, "index", integer_field(
                "chaos fault", "index", self.index))
        object.__setattr__(self, "times",
                           integer_field("chaos fault", "times", self.times))
        if self.times < 1:
            raise ConfigurationError(
                f"a chaos fault fires at least once, got times={self.times}")

    @property
    def site(self) -> str:
        return KIND_SITES[self.kind]

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind}
        if self.index is not None:
            data["index"] = self.index
        if self.times != 1:
            data["times"] = self.times
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultInjection":
        return cls(**decoded_fields(cls, data, "chaos fault"))


POLICY_KIND = "repro-chaos-policy"
POLICY_VERSION = 1


@dataclass(frozen=True)
class ChaosPolicy:
    """A named, serializable schedule of infrastructure faults."""

    faults: Tuple[FaultInjection, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FaultInjection):
                raise ConfigurationError(
                    f"a chaos policy holds FaultInjection values, "
                    f"got {fault!r}")

    def controller(self) -> "ChaosController":
        return ChaosController(self)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "kind": POLICY_KIND,
            "version": POLICY_VERSION,
            "faults": [fault.to_dict() for fault in self.faults],
        }
        if self.name:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: Union[Mapping[str, Any], List[Any]]
                  ) -> "ChaosPolicy":
        if isinstance(data, list):  # a bare fault list is a policy too
            return cls(faults=tuple(FaultInjection.from_dict(f)
                                    for f in data))
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a chaos policy deserializes from an object or a fault "
                f"list, got {type(data).__name__}")
        if data.get("kind", POLICY_KIND) != POLICY_KIND:
            raise ConfigurationError(
                f"not a chaos policy (kind={data.get('kind')!r}; expected "
                f"{POLICY_KIND!r})")
        if data.get("version", POLICY_VERSION) != POLICY_VERSION:
            raise ConfigurationError(
                f"chaos policy version {data.get('version')!r} is not "
                f"readable by this build (version {POLICY_VERSION})")
        faults = data.get("faults", [])
        if not isinstance(faults, list):
            raise ConfigurationError(
                "a chaos policy's \"faults\" must be a list")
        return cls(faults=tuple(FaultInjection.from_dict(f) for f in faults),
                   name=str(data.get("name", "")))

    @classmethod
    def from_json_file(cls, path: str) -> "ChaosPolicy":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read chaos policy {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"chaos policy {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


def build_chaos(value: Union["ChaosPolicy", "ChaosController", Mapping,
                             List, None]) -> Optional["ChaosController"]:
    """Normalise a chaos argument (policy, controller, plain data, ``None``)."""
    if value is None:
        return None
    if isinstance(value, ChaosController):
        return value
    if isinstance(value, ChaosPolicy):
        return value.controller()
    return ChaosPolicy.from_dict(value).controller()


class ChaosController:
    """The live state of one policy: which injections have fired where.

    A controller is consumed by at most one execution context at a time;
    ``take`` methods decrement each matching injection's remaining budget
    and append an audit record to :attr:`fired`, so retried attempts see the
    already-spent injections as inert and run clean.
    """

    def __init__(self, policy: ChaosPolicy) -> None:
        self.policy = policy
        self._remaining: List[int] = [fault.times for fault in policy.faults]
        #: Audit log of every firing: ``(site, coords, fault dict)``.
        self.fired: List[Dict[str, Any]] = []

    def _matches(self, fault: FaultInjection, site: str,
                 coords: Dict[str, Optional[int]]) -> bool:
        if fault.site != site:
            return False
        for name, value in coords.items():
            wanted = getattr(fault, name)
            if wanted is not None and wanted != value:
                return False
        return True

    def _claim(self, position: int, site: str,
               coords: Dict[str, Optional[int]]) -> FaultInjection:
        self._remaining[position] -= 1
        fault = self.policy.faults[position]
        self.fired.append({"site": site, **{k: v for k, v in coords.items()
                                            if v is not None},
                           "fault": fault.to_dict()})
        return fault

    def take(self, site: str, **coords: Optional[int]
             ) -> List[FaultInjection]:
        """Claim every live injection matching *site* and *coords*."""
        taken = []
        for position, fault in enumerate(self.policy.faults):
            if self._remaining[position] > 0 and self._matches(fault, site,
                                                               coords):
                taken.append(self._claim(position, site, coords))
        return taken

    def live_faults(self) -> List[FaultInjection]:
        """The injections that still have firings left."""
        return [fault for position, fault in enumerate(self.policy.faults)
                if self._remaining[position] > 0]


#: The ambient controller injection points consult; ``None`` means no chaos.
_ACTIVE: Optional[ChaosController] = None


def current_chaos() -> Optional[ChaosController]:
    """The controller active in this process, if any."""
    return _ACTIVE


@contextmanager
def chaos_scope(chaos: Union[ChaosPolicy, ChaosController, Mapping, List,
                             None]) -> Iterator[Optional[ChaosController]]:
    """Activate *chaos* (policy, controller, plain data) for a dynamic extent.

    ``None`` leaves whatever is already active untouched, so nested scopes
    compose: a sweep-level policy stays in force through an executor that
    was built without one.
    """
    global _ACTIVE
    controller = build_chaos(chaos)
    if controller is None:
        yield _ACTIVE
        return
    previous = _ACTIVE
    _ACTIVE = controller
    try:
        yield controller
    finally:
        _ACTIVE = previous
