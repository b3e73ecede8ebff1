"""The search space: a serializable grid plus candidate sampling and mutation.

A :class:`SearchSpec` declares *where* to hunt — protocols, ``(n, t)``
cells, adversaries, value domain, budget — and the two strategies turn it
into concrete :class:`~repro.api.request.RunRequest` candidates:

``random``
    A seeded random sweep: every candidate is drawn independently from the
    grid by one :class:`random.Random` stream.
``anneal``
    Greedy mutation with an annealing escape hatch: each generation mutates
    the best candidate so far (one coordinate at a time — faulty set,
    adversary, a parameter, the initial value) and mixes in fresh random
    candidates; a worse generation champion still replaces the incumbent
    with a probability that cools as the budget drains, so the search can
    leave a local plateau early and settles late.

Per-candidate seeds are never sampled: candidate *i* of a search always
runs with :func:`~repro.api.request.derive_seed(sweep_seed, i)
<repro.api.request.derive_seed>`, the same positional rule as a
``seed_policy="derive"`` sweep, so re-running a spec reproduces every
execution bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..api.registries import adversary_registry, protocol_registry
from ..api.request import RunRequest
from ..core.values import Value, default_domain
from ..runtime.errors import (ConfigurationError, boolean_field,
                              decoded_fields, integer_field, list_field)

STRATEGIES = ("random", "anneal")

#: Sampling ladder for percentage-shaped adversary parameters.
_PERCENT_CHOICES = (10, 25, 50, 75, 90, 100)


@dataclass(frozen=True)
class SearchSpec:
    """A serializable description of one adversary search."""

    objective: str = "agreement_violation"
    protocols: Tuple[str, ...] = ("exponential",)
    #: The ``(n, t)`` instance sizes to hunt over.
    cells: Tuple[Tuple[int, int], ...] = ((7, 2),)
    #: Adversary names to draw from; empty means every registered adversary.
    adversaries: Tuple[str, ...] = ()
    strategy: str = "random"
    #: Total number of executions the search may spend.
    budget: int = 200
    sweep_seed: int = 0
    #: Permit under-resilient cells (``n < 3t + 1``) — the interesting ones.
    allow_unsafe: bool = False
    domain: Tuple[Value, ...] = field(default_factory=default_domain)
    #: Source inputs to try; empty means every value of the domain.
    initial_values: Tuple[Value, ...] = ()

    def __post_init__(self) -> None:
        owner = "SearchSpec"
        for name in ("protocols", "adversaries", "domain", "initial_values"):
            object.__setattr__(self, name,
                               list_field(owner, name, getattr(self, name)))
        cells = []
        for cell in list_field(owner, "cells", self.cells):
            pair = list_field(owner, "cells", cell)
            if len(pair) != 2:
                raise ConfigurationError(
                    f"SearchSpec field 'cells' holds (n, t) pairs, got "
                    f"{cell!r}")
            cells.append(tuple(integer_field(owner, "cells", v)
                               for v in pair))
        object.__setattr__(self, "cells", tuple(cells))
        for name in ("budget", "sweep_seed"):
            object.__setattr__(self, name, integer_field(
                owner, name, getattr(self, name)))
        boolean_field(owner, "allow_unsafe", self.allow_unsafe)
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown search strategy {self.strategy!r}; expected one "
                f"of {STRATEGIES}")
        if self.budget < 1:
            raise ConfigurationError("a search needs a budget of at least 1")
        if not self.protocols or not self.cells:
            raise ConfigurationError(
                "a search needs at least one protocol and one (n, t) cell")
        # Compared against the name tuples, not looked up: a malformed entry
        # (a list, an object) is an unknown name, not an unhashable key.
        unknown = [name for name in self.protocols
                   if name not in tuple(protocol_registry())]
        if unknown:
            raise ConfigurationError(
                f"unknown protocol(s) {unknown} in search spec")
        unknown = [name for name in self.adversaries
                   if name not in tuple(adversary_registry())]
        if unknown:
            raise ConfigurationError(
                f"unknown adversar(ies) {unknown} in search spec")

    def adversary_pool(self) -> Tuple[str, ...]:
        if self.adversaries:
            return self.adversaries
        return tuple(sorted(adversary_registry()))

    def value_pool(self) -> Tuple[Value, ...]:
        return self.initial_values or self.domain

    # -- serialization (provenance in pinned fixtures and --json output) ----
    def to_dict(self) -> Dict[str, Any]:
        return {
            "objective": self.objective,
            "protocols": list(self.protocols),
            "cells": [list(cell) for cell in self.cells],
            "adversaries": list(self.adversaries),
            "strategy": self.strategy,
            "budget": self.budget,
            "sweep_seed": self.sweep_seed,
            "allow_unsafe": self.allow_unsafe,
            "domain": list(self.domain),
            "initial_values": list(self.initial_values),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchSpec":
        return cls(**decoded_fields(cls, data, "SearchSpec"))


# ---------------------------------------------------------------------------
# Candidate sampling
# ---------------------------------------------------------------------------

def _sample_params(rng: random.Random, entry, t: int) -> Dict[str, Any]:
    """Draw plausible values for an adversary's declared int parameters."""
    params: Dict[str, Any] = {}
    for param in entry.params:
        if param.kind is not int:
            continue  # only int knobs exist today; leave others at default
        if param.choices is not None:
            params[param.name] = rng.choice(tuple(param.choices))
            continue
        if param.name.endswith("_percent"):
            params[param.name] = rng.choice(_PERCENT_CHOICES)
        else:
            # Rounds, victim counts, window widths: small values relative
            # to the instance (every protocol here runs O(t) rounds).
            params[param.name] = rng.randint(1, max(2, t + 1))
    return params


def _sample_faulty(rng: random.Random, n: int, t: int) -> Tuple[int, ...]:
    size = rng.randint(1, max(1, t))
    return tuple(sorted(rng.sample(range(n), size)))


def sample_candidate(spec: SearchSpec, rng: random.Random) -> RunRequest:
    """Draw one random candidate from the spec's grid (seed left at 0)."""
    protocol = rng.choice(spec.protocols)
    n, t = rng.choice(spec.cells)
    adversary = rng.choice(spec.adversary_pool())
    entry = adversary_registry()[adversary]
    return RunRequest(
        protocol=protocol, n=n, t=t,
        faulty=_sample_faulty(rng, n, t),
        adversary=adversary,
        adversary_params=_sample_params(rng, entry, t),
        initial_value=rng.choice(spec.value_pool()),
        domain=spec.domain,
        allow_unsafe=spec.allow_unsafe,
    )


def viable(request: RunRequest) -> bool:
    """Whether the candidate builds and validates (cheap, runs no rounds)."""
    try:
        spec_obj, config, _, _ = request.resolve_parts()
        spec_obj.validate(config)
    # repro-lint: waive[errors/broad-except] -- viability probe over
    # randomly sampled candidates: any resolve/validate failure means
    # "not viable", and sample_viable bounds the retry budget
    except Exception:
        return False
    return True


def sample_viable(spec: SearchSpec, rng: random.Random,
                  attempts: int = 64) -> Optional[RunRequest]:
    """A random candidate that passes validation; ``None`` if the grid is dry."""
    for _ in range(attempts):
        candidate = sample_candidate(spec, rng)
        if viable(candidate):
            return candidate
    return None


# ---------------------------------------------------------------------------
# Mutation (the anneal strategy's neighborhood)
# ---------------------------------------------------------------------------

def mutate_candidate(spec: SearchSpec, base: RunRequest,
                     rng: random.Random) -> RunRequest:
    """One neighbor of *base*: a single coordinate changed."""
    moves: List[str] = ["faulty", "value"]
    if len(spec.adversary_pool()) > 1:
        moves.append("adversary")
    if base.adversary_params:
        moves.append("param")
    if len(spec.cells) > 1:
        moves.append("cell")
    move = rng.choice(moves)
    if move == "faulty":
        return replace(base, faulty=_sample_faulty(rng, base.n, base.t))
    if move == "value":
        return replace(base, initial_value=rng.choice(spec.value_pool()))
    if move == "adversary":
        adversary = rng.choice(spec.adversary_pool())
        entry = adversary_registry()[adversary]
        return replace(base, adversary=adversary,
                       adversary_params=_sample_params(rng, entry, base.t))
    if move == "param":
        params = dict(base.adversary_params)
        name = rng.choice(sorted(params))
        if name.endswith("_percent"):
            params[name] = rng.choice(_PERCENT_CHOICES)
        else:
            params[name] = max(1, int(params[name]) + rng.choice((-1, 1)))
        return replace(base, adversary_params=params)
    # move == "cell": re-sample the faulty set too — the old one may not fit.
    n, t = rng.choice(spec.cells)
    return replace(base, n=n, t=t, faulty=_sample_faulty(rng, n, t))


def mutate_viable(spec: SearchSpec, base: RunRequest, rng: random.Random,
                  attempts: int = 16) -> Optional[RunRequest]:
    """A viable neighbor of *base*, or ``None`` after bounded attempts."""
    for _ in range(attempts):
        candidate = mutate_candidate(spec, base, rng)
        if candidate != base and viable(candidate):
            return candidate
    return None
