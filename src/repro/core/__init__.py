"""The paper's algorithms and their shared data structures."""

from __future__ import annotations

from .algorithm_a import (AlgorithmASpec, algorithm_a_blocks,
                          algorithm_a_max_message_entries, algorithm_a_resilience,
                          algorithm_a_rounds, algorithm_a_schedule)
from .algorithm_b import (AlgorithmBSpec, algorithm_b_blocks,
                          algorithm_b_max_message_entries, algorithm_b_resilience,
                          algorithm_b_rounds, algorithm_b_schedule)
from .algorithm_c import (AlgorithmCProcessor, AlgorithmCSpec,
                          algorithm_c_max_message_entries, algorithm_c_resilience,
                          algorithm_c_rounds)
from .engine import available_engines, numpy_available, validate_engine
from .exponential import (ExponentialSpec, exponential_max_message_entries,
                          exponential_resilience, exponential_rounds,
                          exponential_schedule)
from .fault_discovery import FaultTracker, discover_at_level, discover_during_conversion
from .fault_masking import discover_and_mask, mask_inbox, mask_level_entries
from .hybrid import (HybridParameters, HybridProcessor, HybridSpec,
                     hybrid_parameters, hybrid_rounds, hybrid_rounds_asymptotic,
                     hybrid_rounds_closed_form, hybrid_schedule)
from .protocol import AgreementProtocol, ProtocolConfig, ProtocolSpec
from .resolve import make_resolve_prime, resolve, resolve_all, resolve_prime
from .sequences import (LabelSequence, ProcessorId, SequenceIndex,
                        child_labels, corresponding_processor,
                        count_sequences_of_length, sequence_index,
                        sequences_of_length)
from .shifting import Segment, ShiftSchedule, ShiftingEIGProcessor
from .tree import (FlatEIGTree, FlatRepetitionTree, InfoGatheringTree,
                   NumpyEIGTree, NumpyRepetitionTree, RepetitionTree,
                   make_tree)
from .values import BOTTOM, DEFAULT_VALUE, Value, coerce_value, default_domain, is_bottom

__all__ = [
    # values & sequences
    "Value", "DEFAULT_VALUE", "BOTTOM", "is_bottom", "coerce_value", "default_domain",
    "ProcessorId", "LabelSequence", "child_labels", "corresponding_processor",
    "sequences_of_length", "count_sequences_of_length",
    # engines
    "validate_engine", "available_engines", "numpy_available",
    "SequenceIndex", "sequence_index",
    # trees & conversions
    "InfoGatheringTree", "RepetitionTree", "FlatEIGTree", "FlatRepetitionTree",
    "NumpyEIGTree", "NumpyRepetitionTree", "make_tree",
    "resolve", "resolve_prime", "make_resolve_prime", "resolve_all",
    # discovery & masking
    "FaultTracker", "discover_at_level", "discover_during_conversion",
    "discover_and_mask", "mask_inbox", "mask_level_entries",
    # protocol machinery
    "AgreementProtocol", "ProtocolConfig", "ProtocolSpec",
    "Segment", "ShiftSchedule", "ShiftingEIGProcessor",
    # algorithms
    "ExponentialSpec", "exponential_resilience", "exponential_rounds",
    "exponential_schedule", "exponential_max_message_entries",
    "AlgorithmASpec", "algorithm_a_resilience", "algorithm_a_rounds",
    "algorithm_a_blocks", "algorithm_a_schedule", "algorithm_a_max_message_entries",
    "AlgorithmBSpec", "algorithm_b_resilience", "algorithm_b_rounds",
    "algorithm_b_blocks", "algorithm_b_schedule", "algorithm_b_max_message_entries",
    "AlgorithmCSpec", "AlgorithmCProcessor", "algorithm_c_resilience",
    "algorithm_c_rounds", "algorithm_c_max_message_entries",
    "HybridSpec", "HybridProcessor", "HybridParameters", "hybrid_parameters",
    "hybrid_rounds", "hybrid_rounds_closed_form", "hybrid_rounds_asymptotic",
    "hybrid_schedule",
]
