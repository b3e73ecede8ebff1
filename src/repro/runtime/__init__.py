"""The synchronous-system substrate: messages, network, metrics, and the driver."""

from __future__ import annotations

from .chaos import (ChaosController, ChaosPolicy, FaultInjection, build_chaos,
                    chaos_scope, current_chaos)
from .errors import (AdversaryError, CheckpointWriteError, ConfigurationError,
                     FabricError, ProtocolViolationError, ReproError,
                     SimulationError, SupervisionExhaustedError,
                     WorkerDiedError, WorkerTimeoutError)
from .messages import Inbox, Message, Outbox, broadcast
from .metrics import ComputationMeter, CostModelPoint, RunMetrics, entry_bits
from .network import SynchronousNetwork
from .simulation import RunResult, choose_faulty, run_agreement, run_many
from .supervision import (DEFAULT_LADDER, RetryPolicy, Supervisor,
                          backoff_fraction)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ProtocolViolationError",
    "SimulationError",
    "AdversaryError",
    "FabricError",
    "WorkerDiedError",
    "WorkerTimeoutError",
    "CheckpointWriteError",
    "SupervisionExhaustedError",
    "RetryPolicy",
    "Supervisor",
    "DEFAULT_LADDER",
    "backoff_fraction",
    "ChaosPolicy",
    "ChaosController",
    "FaultInjection",
    "build_chaos",
    "chaos_scope",
    "current_chaos",
    "Message",
    "Inbox",
    "Outbox",
    "broadcast",
    "RunMetrics",
    "ComputationMeter",
    "CostModelPoint",
    "entry_bits",
    "SynchronousNetwork",
    "RunResult",
    "run_agreement",
    "run_many",
    "choose_faulty",
]
