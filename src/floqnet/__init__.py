"""Distributed Floquet-code quantum memory simulator.

Builds trivalent 3-face-colourable lattices (toric honeycombs and
{8,3}-family closed hyperbolic tilings), fine-grains them into
semi-hyperbolic codes, partitions them over fixed-size processors,
compiles noisy pair-measurement memory circuits, and samples and decodes
them.
"""

from floqnet.lattice import (
    Lattice,
    RotationSystem,
    generate_honeycomb_torus,
    load_lattice,
    save_lattice,
    derive_faces,
    color_faces,
    fine_grain,
)
from floqnet.partition import (
    Partition,
    partition_code,
    partition_stats,
)
from floqnet.circuit import (
    NoiseParams,
    CircuitProgram,
    LogicalOperatorSet,
    find_logical_observables,
    build_memory_circuit,
    validate_determinism,
)
from floqnet.sim import ShotBatch, DecodingGraph, sample_shots, extract_decoding_graph
from floqnet.decode import (
    MatchingResult,
    decode_syndrome,
    decode_batch,
    shortest_graphlike_error,
)

__all__ = [
    "Lattice",
    "RotationSystem",
    "generate_honeycomb_torus",
    "load_lattice",
    "save_lattice",
    "derive_faces",
    "color_faces",
    "fine_grain",
    "Partition",
    "partition_code",
    "partition_stats",
    "NoiseParams",
    "CircuitProgram",
    "LogicalOperatorSet",
    "find_logical_observables",
    "build_memory_circuit",
    "validate_determinism",
    "ShotBatch",
    "DecodingGraph",
    "sample_shots",
    "extract_decoding_graph",
    "MatchingResult",
    "decode_syndrome",
    "decode_batch",
    "shortest_graphlike_error",
]

__version__ = "0.1.0"
