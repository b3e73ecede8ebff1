"""``McSpec``: a serializable Monte-Carlo campaign description.

The campaign twin of :class:`~repro.api.request.SweepSpec` — everything
needed to (re)run a whole verification campaign survives
``json.dumps``/``json.loads`` exactly: the grid of :class:`~.cells.McCell`
points, the per-cell trial count, the master sweep seed, the executor
backend, and the chunk size the streaming driver aggregates in.  Unlike a
``SweepSpec``, an ``McSpec`` never materialises its requests — a 10⁶-trial
campaign is described by a few hundred bytes, and
:meth:`McSpec.trial_request` derives request *i* on demand:

* the **seed** is :func:`~repro.api.request.derive_seed(sweep_seed, i)
  <repro.api.request.derive_seed>` — the same positional contract sweeps
  and the search harness use, so resumed and re-executed campaigns
  reproduce the exact executions of the original;
* the **faulty set** and (when the cell doesn't pin one) the **initial
  value** are drawn from a dedicated SHA-256-derived placement stream, so
  the Monte-Carlo actually explores fault placements rather than re-running
  one configuration a million times.

Checkpoints (:mod:`repro.stats.campaign`) pin :func:`mc_digest` — the
canonical SHA-256 of the serialized spec — so resuming against an edited
campaign fails loudly instead of merging unrelated statistics.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from ..api.request import RunRequest, derive_seed
from ..runtime.errors import (ConfigurationError, decoded_fields,
                              integer_field, list_field, object_field)
from .cells import McCell


def placement_seed(sweep_seed: int, index: int) -> int:
    """The fault-placement stream seed of trial *index*.

    A distinct SHA-256 domain from :func:`~repro.api.request.derive_seed`
    (``repro-mc-placement:`` vs ``repro-sweep:``), so the faulty-set draw
    and the adversary's run RNG never share a stream.
    """
    digest = hashlib.sha256(
        f"repro-mc-placement:{sweep_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class McSpec:
    """A serializable Monte-Carlo campaign: grid × trials × seed × executor."""

    cells: Tuple[McCell, ...]
    trials: int
    sweep_seed: int = 0
    executor: str = "serial"
    executor_params: Mapping[str, Any] = field(default_factory=dict)
    #: Trials aggregated (and checkpointed) per chunk: the only buffer the
    #: streaming driver keeps, so memory is O(chunk_size), never O(trials).
    chunk_size: int = 256

    def __post_init__(self) -> None:
        owner = "McSpec"
        object.__setattr__(self, "cells",
                           list_field(owner, "cells", self.cells))
        object.__setattr__(self, "executor_params", object_field(
            owner, "executor_params", self.executor_params))
        for name in ("trials", "sweep_seed", "chunk_size"):
            object.__setattr__(self, name, integer_field(
                owner, name, getattr(self, name)))
        if not self.cells:
            raise ConfigurationError("a campaign needs at least one cell")
        for cell in self.cells:
            if not isinstance(cell, McCell):
                raise ConfigurationError(
                    f"a campaign holds McCell values, got {cell!r}")
        if self.trials < 1:
            raise ConfigurationError(
                f"a campaign needs at least one trial per cell, "
                f"got {self.trials}")
        if self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be positive, got {self.chunk_size}")

    # -- trial addressing ----------------------------------------------------
    @property
    def total_trials(self) -> int:
        return len(self.cells) * self.trials

    @property
    def total_chunks(self) -> int:
        return -(-self.total_trials // self.chunk_size)

    def cell_index(self, global_index: int) -> int:
        """Which cell trial *global_index* belongs to (cell-major order)."""
        if not 0 <= global_index < self.total_trials:
            raise ConfigurationError(
                f"trial index {global_index} outside this campaign's "
                f"0..{self.total_trials - 1}")
        return global_index // self.trials

    def chunk_indices(self, chunk: int) -> range:
        """The global trial indices of checkpoint chunk *chunk*."""
        if not 0 <= chunk < self.total_chunks:
            raise ConfigurationError(
                f"chunk {chunk} outside this campaign's "
                f"0..{self.total_chunks - 1}")
        low = chunk * self.chunk_size
        return range(low, min(low + self.chunk_size, self.total_trials))

    def trial_request(self, global_index: int) -> RunRequest:
        """Derive the concrete :class:`RunRequest` of one trial, on demand."""
        cell = self.cells[self.cell_index(global_index)]
        seed = derive_seed(self.sweep_seed, global_index)
        rng = random.Random(placement_seed(self.sweep_seed, global_index))
        count = cell.fault_count()
        source = 0
        if cell.source_placement == "always":
            others = [p for p in range(cell.n) if p != source]
            faulty = {source, *rng.sample(others, count - 1)}
        elif cell.source_placement == "never":
            others = [p for p in range(cell.n) if p != source]
            faulty = set(rng.sample(others, count))
        else:
            faulty = set(rng.sample(range(cell.n), count))
        value = cell.initial_value
        if value is None:
            value = rng.choice(cell.domain())
        return RunRequest(
            protocol=cell.protocol,
            protocol_params=dict(cell.protocol_params),
            n=cell.n, t=cell.t, initial_value=value,
            faulty=tuple(sorted(faulty)),
            adversary=cell.adversary,
            adversary_params=dict(cell.adversary_params),
            seed=seed, engine=cell.engine,
            allow_unsafe=cell.allow_unsafe)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "cells": [cell.to_dict() for cell in self.cells],
            "trials": self.trials,
            "sweep_seed": self.sweep_seed,
            "executor": self.executor,
            "executor_params": dict(self.executor_params),
            "chunk_size": self.chunk_size,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "McSpec":
        kwargs = decoded_fields(cls, data, "McSpec")
        kwargs["cells"] = tuple(
            cell if isinstance(cell, McCell) else McCell.from_dict(cell)
            for cell in list_field("McSpec", "cells", kwargs["cells"]))
        return cls(**kwargs)


def mc_digest(spec: McSpec) -> str:
    """The canonical SHA-256 of a campaign (what a checkpoint header pins)."""
    canonical = json.dumps(spec.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
