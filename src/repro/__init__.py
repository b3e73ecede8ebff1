"""repro — a reproduction of Bar-Noy, Dolev, Dwork & Strong,
"Shifting Gears: Changing Algorithms on the Fly to Expedite Byzantine
Agreement" (PODC 1987 / Information and Computation 1992).

The package provides:

* the paper's algorithms — the Exponential Algorithm, the Algorithm A and B
  families, Algorithm C (the Dolev–Reischuk–Strong adaptation), and the
  hybrid A→B→C algorithm of the Main Theorem — all built on one shifting EIG
  machine (`repro.core`);
* a synchronous, full-information-adversary simulation substrate
  (`repro.runtime`, `repro.adversary`);
* baselines (Pease–Shostak–Lamport OM(m), phase king, authenticated
  Dolev–Strong) in `repro.baselines`;
* the analytic bounds, trade-off curves and experiment harness that
  regenerate every quantitative claim of the paper (`repro.analysis`,
  `repro.experiments`).

Quickstart
----------
>>> from repro import RunRequest, execute
>>> report = execute(RunRequest(
...     protocol="hybrid", protocol_params={"b": 3}, n=16, t=5,
...     initial_value=1, scenario="faulty-source-allies",
...     battery="worst-case"))
>>> report.agreement
True

The substrate stays importable for hand-assembled runs:

>>> from repro import ProtocolConfig, HybridSpec, run_agreement, choose_faulty
>>> from repro.adversary import TwoFacedSourceAdversary
>>> config = ProtocolConfig(n=16, t=5, initial_value=1)
>>> result = run_agreement(HybridSpec(b=3), config,
...                        faulty=choose_faulty(16, 5, source_faulty=True),
...                        adversary=TwoFacedSourceAdversary())
>>> result.agreement
True
"""

from __future__ import annotations

from .api import (RunReport, RunRequest, SweepSpec, adversary_names,
                  adversary_registry, build_adversary, build_protocol,
                  execute, executor_names, executor_registry,
                  iter_execute, protocol_names, protocol_registry, run_sweep)
from .core import (AlgorithmASpec, AlgorithmBSpec, AlgorithmCSpec,
                   AgreementProtocol, BOTTOM, DEFAULT_VALUE, ExponentialSpec,
                   HybridParameters, HybridSpec, InfoGatheringTree,
                   ProtocolConfig, ProtocolSpec, RepetitionTree, Value,
                   algorithm_a_resilience, algorithm_a_rounds,
                   algorithm_b_resilience, algorithm_b_rounds,
                   algorithm_c_resilience, algorithm_c_rounds,
                   exponential_resilience, exponential_rounds,
                   hybrid_parameters, hybrid_rounds, resolve, resolve_prime)
from .runtime import (Message, RunMetrics, RunResult, SynchronousNetwork,
                      choose_faulty, run_agreement)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # the declarative façade
    "RunRequest", "RunReport", "SweepSpec",
    "execute", "iter_execute", "run_sweep",
    "protocol_registry", "adversary_registry",
    "executor_registry", "executor_names",
    "protocol_names", "adversary_names",
    "build_protocol", "build_adversary",
    # configuration & execution
    "ProtocolConfig", "ProtocolSpec", "AgreementProtocol",
    "run_agreement", "choose_faulty",
    "RunResult", "RunMetrics", "Message", "SynchronousNetwork",
    # values & trees
    "Value", "DEFAULT_VALUE", "BOTTOM", "InfoGatheringTree", "RepetitionTree",
    "resolve", "resolve_prime",
    # the algorithms
    "ExponentialSpec", "AlgorithmASpec", "AlgorithmBSpec", "AlgorithmCSpec",
    "HybridSpec", "HybridParameters",
    # bounds
    "exponential_resilience", "exponential_rounds",
    "algorithm_a_resilience", "algorithm_a_rounds",
    "algorithm_b_resilience", "algorithm_b_rounds",
    "algorithm_c_resilience", "algorithm_c_rounds",
    "hybrid_parameters", "hybrid_rounds",
]
