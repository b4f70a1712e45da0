"""Noise-based logic on a single random telegraph wave.

One seeded wave plus forward time shifts yields arbitrarily many
mutually orthogonal reference noises; products of references carry
classical bit strings, superpositions of products carry whole sets of
them on one wire, and correlators read them back.
"""

from .apps import (
    ShiftAssignment,
    holographic_demo,
    holographic_map,
    noncommute_demo,
    random_shift_demo,
)
from .expr import (
    CONST_ONE,
    MAX_OFFSET,
    ZERO,
    Product,
    StreamExpr,
    Superposition,
    canonical_str,
    multiply,
    sample,
    shift,
    superpose,
)
from .hyperspace import (
    DEFAULT_MAX_N,
    DEFAULT_THRESHOLD,
    BitString,
    Correlations,
    DetectionResult,
    bits_to_int,
    correlation_sweep,
    decode_report,
    decode_superposition,
    default_window_len,
    detect_string,
    encode_integer,
    encode_set,
    encode_string,
    format_bits,
    int_to_bits,
    parse_bits,
    round_trip_run,
)
from .reference import (
    CapacityReport,
    ReferenceSystem,
    build_reference_system,
    capacity,
    orthogonality_matrix,
)
from .source import DEFAULT_SEED, MAX_INDEX, NoiseSource, mix64, sample_block, source_sample
from .window import (
    Window,
    correlate,
    materialize,
    negate,
)

__version__ = "0.1.0"
