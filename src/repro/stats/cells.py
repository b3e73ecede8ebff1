"""Grid cells and their streaming aggregates: one state per (protocol,
adversary, n, t) point of a Monte-Carlo campaign.

An :class:`McCell` names one point of the verification grid — protocol and
parameters, instance size, adversary, and how each trial's faulty set and
initial value are drawn.  A :class:`CellAggregate` is that cell's entire
statistical state: correctness counters (agreement/validity/discovery
failures), constant-space moments and extrema of the measured quantities
the theorems bound (rounds, largest message, local computation), and a
bounded round-count histogram.  Nothing here ever stores a report.

The aggregate also knows how to confront itself with the paper:
:meth:`CellAggregate.bound` resolves the theorem row via
:func:`repro.analysis.bounds.protocol_bound`, and
:meth:`CellAggregate.guarantees_apply` says whether the theorems *claim*
anything for this cell — the adversary must be inside the Byzantine model
(transient corruption of *correct* processors is not), the cell must be
resilient (``t`` within the algorithm's threshold, faults within ``t``),
and ``allow_unsafe`` must be off.  Where guarantees apply, any observed
agreement/validity failure or bound excess is a hard verdict failure;
elsewhere the same numbers are reported without a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..analysis.bounds import TheoremBound, protocol_bound
from ..api.request import RunReport
from ..core.values import Value, default_domain
from ..runtime.errors import (ConfigurationError, boolean_field,
                              decoded_fields, integer_field, object_field)
from .aggregators import BoundedHistogram, Extrema, Welford
from .intervals import wilson_interval

#: Adversaries whose faults sit outside the Byzantine model the theorems
#: cover: transient corruption flips state on *correct* processors, so it
#: can legitimately break agreement even at ``n ≥ 3t + 1`` (the adversary
#: search CI job excludes it for the same reason).
OUT_OF_MODEL_ADVERSARIES = frozenset({"transient-corruption"})

#: Hard-verdict slack on the local-computation bound.  The theorems state
#: ``O(·)`` growth shapes; the simulator's accounting charges several units
#: per tree node (stores + resolve visits + discovery scans), so measured
#: units exceed the shape by a bounded constant — ratios between 0.05 and
#: 7.4 across the protocol zoo at the cells the suite exercises.  16 pins
#: that constant with ~2× headroom while still failing loudly on any
#: complexity-class regression.  Rounds and message entries are exact
#: counts and get slack 1.
COMPUTATION_SLACK = 16.0

#: How many round-count buckets a cell histogram carries; protocol rounds
#: are ≤ t + O(√t) + O(b), far below this for every cell the grid admits.
ROUND_BINS = 64

#: How a cell places the source relative to each trial's faulty set:
#: sampled uniformly with everything else, always faulty, or never faulty.
SOURCE_PLACEMENTS = ("vary", "always", "never")


@dataclass(frozen=True)
class McCell:
    """One point of the Monte-Carlo grid, JSON-round-trippable."""

    protocol: str
    n: int
    t: int
    adversary: str = "two-faced"
    protocol_params: Mapping[str, Any] = field(default_factory=dict)
    adversary_params: Mapping[str, Any] = field(default_factory=dict)
    #: Faulty processors per trial (default: the full budget ``t``).
    faults: Optional[int] = None
    #: Source placement per trial: ``"vary"`` samples the source like any
    #: other processor, ``"always"``/``"never"`` pin it in/out.
    source_placement: str = "vary"
    #: Fixed initial value, or ``None`` to sample uniformly from the domain.
    initial_value: Optional[Value] = None
    allow_unsafe: bool = False
    engine: str = "auto"

    def __post_init__(self) -> None:
        owner = "McCell"
        for name in ("protocol_params", "adversary_params"):
            object.__setattr__(self, name,
                               object_field(owner, name, getattr(self, name)))
        for name in ("n", "t"):
            object.__setattr__(self, name, integer_field(
                owner, name, getattr(self, name)))
        if self.faults is not None:
            object.__setattr__(self, "faults",
                               integer_field(owner, "faults", self.faults))
        boolean_field(owner, "allow_unsafe", self.allow_unsafe)
        if self.source_placement not in SOURCE_PLACEMENTS:
            raise ConfigurationError(
                f"unknown source placement {self.source_placement!r}; "
                f"expected one of {SOURCE_PLACEMENTS}")
        count = self.fault_count()
        if not 0 <= count <= self.n:
            raise ConfigurationError(
                f"cell {self.label()} cannot make {count} of {self.n} "
                f"processors faulty")
        if self.source_placement == "always" and count == 0:
            raise ConfigurationError(
                f"cell {self.label()} pins the source faulty but has a "
                f"zero fault budget")

    def fault_count(self) -> int:
        return self.faults if self.faults is not None else self.t

    def label(self) -> str:
        return f"{self.protocol}/{self.adversary} n={self.n} t={self.t}"

    def key(self) -> Tuple[str, str, int, int]:
        return (self.protocol, self.adversary, self.n, self.t)

    def domain(self) -> Tuple[Value, ...]:
        return default_domain()

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "t": self.t,
            "adversary": self.adversary,
            "protocol_params": dict(self.protocol_params),
            "adversary_params": dict(self.adversary_params),
            "faults": self.faults,
            "source_placement": self.source_placement,
            "initial_value": self.initial_value,
            "allow_unsafe": self.allow_unsafe,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "McCell":
        return cls(**decoded_fields(cls, data, "McCell"))


class CellAggregate:
    """The entire statistical state of one cell — constant space, exact
    serialization, streaming-equals-batch by construction."""

    __slots__ = ("cell", "trials", "agreement_failures", "validity_checked",
                 "validity_failures", "discovery_unsound", "succeeded",
                 "rounds", "rounds_hist", "rounds_extrema", "entries",
                 "entries_extrema", "units", "units_extrema", "messages")

    def __init__(self, cell: McCell) -> None:
        self.cell = cell
        self.trials = 0
        self.agreement_failures = 0
        self.validity_checked = 0
        self.validity_failures = 0
        self.discovery_unsound = 0
        self.succeeded = 0
        self.rounds = Welford()
        self.rounds_hist = BoundedHistogram(ROUND_BINS)
        self.rounds_extrema = Extrema()
        self.entries = Welford()
        self.entries_extrema = Extrema()
        self.units = Welford()
        self.units_extrema = Extrema()
        self.messages = Welford()

    # -- streaming -----------------------------------------------------------
    def update(self, report: RunReport) -> None:
        """Fold one report into the cell state (the report is not kept)."""
        self.trials += 1
        if not report.agreement:
            self.agreement_failures += 1
        if report.validity is not None:
            self.validity_checked += 1
            if not report.validity:
                self.validity_failures += 1
        if not report.discovery_sound:
            self.discovery_unsound += 1
        if report.succeeded:
            self.succeeded += 1
        self.rounds.update(report.rounds)
        self.rounds_hist.update(report.rounds)
        self.rounds_extrema.update(report.rounds)
        entries = report.metrics["max_message_entries"]
        self.entries.update(entries)
        self.entries_extrema.update(entries)
        units = report.metrics["max_computation_units"]
        self.units.update(units)
        self.units_extrema.update(units)
        self.messages.update(report.metrics["total_messages"])

    # -- theorem confrontation ----------------------------------------------
    def bound(self) -> Optional[TheoremBound]:
        """The theorem row this cell is measured against (baselines: None)."""
        return protocol_bound(self.cell.protocol,
                              dict(self.cell.protocol_params),
                              self.cell.n, self.cell.t)

    def guarantees_apply(self) -> bool:
        """Whether the paper claims anything for this cell's executions."""
        if self.cell.allow_unsafe:
            return False
        if self.cell.adversary in OUT_OF_MODEL_ADVERSARIES:
            return False
        bound = self.bound()
        if bound is None:
            return False
        return (self.cell.t <= bound.resilience_limit
                and self.cell.fault_count() <= self.cell.t)

    def failure_rates(self, confidence: float = 0.95) -> Dict[str, Any]:
        """Point rates plus Wilson bounds for the correctness conditions."""
        agree_low, agree_high = wilson_interval(
            self.agreement_failures, self.trials, confidence)
        valid_low, valid_high = wilson_interval(
            self.validity_failures, self.validity_checked, confidence)
        return {
            "trials": self.trials,
            "agreement_failures": self.agreement_failures,
            "agreement_rate": (self.agreement_failures / self.trials
                               if self.trials else 0.0),
            "agreement_ci": (agree_low, agree_high),
            "validity_checked": self.validity_checked,
            "validity_failures": self.validity_failures,
            "validity_rate": (self.validity_failures / self.validity_checked
                              if self.validity_checked else 0.0),
            "validity_ci": (valid_low, valid_high),
            "confidence": confidence,
        }

    def bound_rows(self) -> Tuple[Dict[str, Any], ...]:
        """Observed-vs-theorem rows for every quantity the paper bounds.

        One row per quantity: the bound, the observed maximum, their ratio,
        the slack the verdict grants, and whether the observation stayed
        within ``bound × slack``.  A cell with no theorem (a baseline)
        yields no rows.
        """
        bound = self.bound()
        if bound is None:
            return ()
        quantities = (
            ("rounds", bound.rounds, self.rounds_extrema.maximum, 1.0),
            ("max_message_entries", bound.max_message_entries,
             self.entries_extrema.maximum, 1.0),
            ("max_computation_units", bound.local_computation,
             self.units_extrema.maximum, COMPUTATION_SLACK),
        )
        rows = []
        for quantity, promised, observed, slack in quantities:
            observed = 0 if observed is None else observed
            rows.append({
                "cell": self.cell.label(),
                "quantity": quantity,
                "bound": promised,
                "observed_max": observed,
                "ratio": observed / promised if promised else None,
                "slack": slack,
                "within": observed <= promised * slack,
            })
        return tuple(rows)

    def problems(self) -> Tuple[str, ...]:
        """Hard verdict failures — empty unless a theorem was contradicted."""
        if not self.guarantees_apply():
            return ()
        found = []
        label = self.cell.label()
        if self.agreement_failures:
            found.append(f"{label}: agreement failed in "
                         f"{self.agreement_failures}/{self.trials} trials")
        if self.validity_failures:
            found.append(f"{label}: validity failed in "
                         f"{self.validity_failures}/{self.validity_checked} "
                         f"source-correct trials")
        if self.discovery_unsound:
            found.append(f"{label}: fault discovery unsound in "
                         f"{self.discovery_unsound}/{self.trials} trials")
        for row in self.bound_rows():
            if not row["within"]:
                found.append(
                    f"{label}: observed {row['quantity']} "
                    f"{row['observed_max']} exceeds bound {row['bound']}"
                    + (f" × slack {row['slack']}" if row["slack"] != 1.0
                       else ""))
        return tuple(found)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.cell.to_dict(),
            "trials": self.trials,
            "agreement_failures": self.agreement_failures,
            "validity_checked": self.validity_checked,
            "validity_failures": self.validity_failures,
            "discovery_unsound": self.discovery_unsound,
            "succeeded": self.succeeded,
            "rounds": self.rounds.to_dict(),
            "rounds_hist": self.rounds_hist.to_dict(),
            "rounds_extrema": self.rounds_extrema.to_dict(),
            "entries": self.entries.to_dict(),
            "entries_extrema": self.entries_extrema.to_dict(),
            "units": self.units.to_dict(),
            "units_extrema": self.units_extrema.to_dict(),
            "messages": self.messages.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellAggregate":
        aggregate = cls(McCell.from_dict(data["cell"]))
        aggregate.trials = int(data["trials"])
        aggregate.agreement_failures = int(data["agreement_failures"])
        aggregate.validity_checked = int(data["validity_checked"])
        aggregate.validity_failures = int(data["validity_failures"])
        aggregate.discovery_unsound = int(data["discovery_unsound"])
        aggregate.succeeded = int(data["succeeded"])
        aggregate.rounds = Welford.from_dict(data["rounds"])
        aggregate.rounds_hist = BoundedHistogram.from_dict(data["rounds_hist"])
        aggregate.rounds_extrema = Extrema.from_dict(data["rounds_extrema"])
        aggregate.entries = Welford.from_dict(data["entries"])
        aggregate.entries_extrema = Extrema.from_dict(data["entries_extrema"])
        aggregate.units = Welford.from_dict(data["units"])
        aggregate.units_extrema = Extrema.from_dict(data["units_extrema"])
        aggregate.messages = Welford.from_dict(data["messages"])
        return aggregate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellAggregate):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CellAggregate({self.cell.label()}, trials={self.trials}, "
                f"agreement_failures={self.agreement_failures})")
