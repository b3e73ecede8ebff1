"""repro.api — the declarative run façade.

One import gives every consumer the same vocabulary for describing and
executing agreement runs:

* **registries** (:mod:`.registries`) — protocols and adversaries addressed
  by name with schema-validated plain-data parameters;
* **requests/reports** (:mod:`.request`) — :class:`RunRequest`,
  :class:`RunReport`, and :class:`SweepSpec`, JSON-round-trippable
  descriptions of runs, their outcomes, and whole sweeps;
* **planner** (:mod:`.planner`) — the only way a request's ``engine``
  reaches a run: ``"auto"`` resolves to batched where the run is eligible
  and the fast engine otherwise, and an explicit choice runs as asked;
* **executors** (:mod:`.executors`) — the pluggable execution layer
  (``submit``/``iter_reports``/``close``) with a name→factory registry:
  ``"serial"``, ``"pool"``, and the ``"supervised"`` resilient backend (worker
  deadlines, seeded retry/backoff, degradation ladder, audit trail);
* **façade** (:mod:`.facade`) — :func:`execute` for one request,
  :func:`execute_resilient` for one supervised request,
  :func:`iter_execute` for streaming sweeps over any executor,
  :func:`execute_many` for the classic list-shaped pool sweep;
* **sweeps** (:mod:`.sweep`) — :func:`run_sweep`/:func:`iter_sweep` with a
  JSONL checkpoint log (atomic header creation, bounded append retry,
  opt-in fsync) and crash-safe resume, plus chaos-policy injection for
  resilience testing.

>>> from repro.api import RunRequest, execute
>>> report = execute(RunRequest(protocol="hybrid", protocol_params={"b": 3},
...                             n=16, t=5, initial_value=1,
...                             scenario="faulty-source-allies",
...                             battery="worst-case"))
>>> report.agreement
True
"""

from __future__ import annotations

from .executors import (DEFAULT_EXECUTOR, Executor, PoolExecutor,
                        SerialExecutor, SupervisedExecutor, build_executor,
                        executor_names, executor_registry, resolve_executor)
# Imported after .executors: repro.core must initialize before repro.runtime
# (runtime.messages reaches back into core.sequences).
from ..runtime.chaos import ChaosPolicy, FaultInjection, chaos_scope
from .facade import (execute, execute_grouped, execute_many,
                     execute_resilient, iter_execute, plan_request)
from .planner import ExecutionPlan, batched_ineligibility, plan_run
from .registries import (ParamSpec, RegistryEntry, RegistryError,
                         adversary_names, adversary_registry, build_adversary,
                         build_protocol, protocol_names, protocol_registry,
                         request_fields_for_spec)
from .request import (AUTO, ENGINE_CHOICES, SEED_POLICIES, RunReport,
                      RunRequest, SweepSpec, derive_seed)
from .sweep import (CheckpointScan, compact_checkpoint, iter_sweep,
                    read_checkpoint, run_sweep, scan_checkpoint,
                    sweep_digest)

__all__ = [
    "RunRequest", "RunReport", "SweepSpec", "AUTO", "ENGINE_CHOICES",
    "SEED_POLICIES", "derive_seed",
    "execute", "execute_many", "execute_grouped", "execute_resilient",
    "iter_execute", "plan_request",
    "ExecutionPlan", "plan_run", "batched_ineligibility",
    "Executor", "SerialExecutor", "PoolExecutor", "SupervisedExecutor",
    "executor_registry", "executor_names", "build_executor",
    "resolve_executor", "DEFAULT_EXECUTOR",
    "ChaosPolicy", "FaultInjection", "chaos_scope",
    "iter_sweep", "run_sweep", "read_checkpoint", "scan_checkpoint",
    "compact_checkpoint", "CheckpointScan", "sweep_digest",
    "ParamSpec", "RegistryEntry", "RegistryError",
    "protocol_registry", "adversary_registry",
    "protocol_names", "adversary_names",
    "build_protocol", "build_adversary", "request_fields_for_spec",
]
