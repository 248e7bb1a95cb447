"""Desk-scale simulator and verification suite for postselected
linear-optical quantum gates built from beamsplitters, ancilla photons
and number-resolved detection."""

from .elements import (
    Beamsplitter,
    Circuit,
    beamsplitter_matrix,
    compose_transfer_matrix,
)
from .evolve import AmplitudeQuery, apply_element, evolve, oracle_amplitude, permanent
from .fock import (
    FockStateVector,
    basis_state,
    enumerate_basis,
    inner_product,
    make_state,
)
from .gates import (
    BiasedNsParameters,
    LogicalQubitPair,
    NsParameters,
    biased_ns_amplitudes,
    build_biased_ns_circuit,
    build_cnot_circuit,
    build_ns_circuit,
    build_simplified_cnot,
    decode_logical,
    encode_logical,
    gate_by_name,
    logical_pair,
    ns_conditional_map,
    solve_biased_ns,
    solve_optimal_ns,
)
from .postselect import (
    ConditionalOutcome,
    DetectionPattern,
    coincidence_probability,
    condition,
)

__version__ = "0.1.0"
