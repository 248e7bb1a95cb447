"""Gate parameter closed forms, solvers, builders, and encodings."""

import math

import numpy as np
import pytest

from loqc.elements import compose_transfer_matrix
from loqc.fock import basis_state
from loqc.gates import (
    BASIS_INPUTS,
    CNOT_IMAGE,
    ETA2_BIASED,
    ETA2_NS,
    ETA7_BIASED,
    ETA13_NS,
    GATE_NAMES,
    BiasedNsParameters,
    LogicalQubitPair,
    NsParameters,
    balanced_biased_parameters,
    biased_ns_amplitudes,
    build_biased_ns_circuit,
    build_cnot_circuit,
    build_ns_circuit,
    build_simplified_cnot,
    conditional_map_by_evolution,
    decode_logical,
    dual_rail_ket,
    encode_logical,
    gate_by_name,
    logical_pair,
    ns_conditional_map,
    solve_biased_ns,
    solve_optimal_ns,
)

RNG = np.random.default_rng(61803)

SQRT2 = math.sqrt(2.0)


def test_parameter_containers_validate_range():
    with pytest.raises(ValueError):
        NsParameters(1.2, 0.2, 0.8)
    with pytest.raises(ValueError):
        BiasedNsParameters(-0.1, 0.5)
    # a bool is not read as reflectivity 1, nor a string compared with 0.0
    with pytest.raises(ValueError, match="eta1 must be a real number, got True"):
        NsParameters(True, 0.5, 0.5)
    with pytest.raises(ValueError, match="eta2 must be a real number, got '0.5'"):
        BiasedNsParameters("0.5", 0.5)


def test_ns_closed_form_matches_evolution_at_random_parameters():
    for _ in range(10):
        p = NsParameters(*(float(x) for x in RNG.uniform(size=3)))
        closed = ns_conditional_map(p)
        evolved = conditional_map_by_evolution(build_ns_circuit(p))
        for c, e in zip(closed, evolved):
            assert abs(c - e) < 1e-12


def test_biased_closed_form_matches_evolution_at_random_parameters():
    for _ in range(10):
        p = BiasedNsParameters(*(float(x) for x in RNG.uniform(size=2)))
        closed = biased_ns_amplitudes(p)
        evolved = conditional_map_by_evolution(build_biased_ns_circuit(p))
        for c, e in zip(closed, evolved):
            assert abs(c - e) < 1e-12


def test_balanced_biased_point_satisfies_exact_algebra():
    p = balanced_biased_parameters()
    assert p.eta7 * (2.0 - 3.0 * p.eta2) == pytest.approx(1.0, abs=1e-14)
    assert p.eta7 * (1.0 - 2.0 * p.eta2) ** 2 == pytest.approx(p.eta2, abs=1e-14)
    lams = biased_ns_amplitudes(p)
    assert lams[0] == pytest.approx(math.sqrt(p.eta2), abs=1e-14)
    assert lams[0] - lams[1] == pytest.approx(0.0, abs=1e-14)
    assert lams[0] + lams[2] == pytest.approx(0.0, abs=1e-14)


def test_solvers_recover_closed_forms():
    p, amplitude = solve_optimal_ns()
    assert p.eta2 == pytest.approx(ETA2_NS, abs=1e-12)
    assert p.eta1 == pytest.approx(ETA13_NS, abs=1e-12)
    assert p.eta3 == pytest.approx(ETA13_NS, abs=1e-12)
    assert amplitude == pytest.approx(0.5, abs=1e-12)
    b = solve_biased_ns()
    assert b.eta2 == pytest.approx(ETA2_BIASED, abs=1e-12)
    assert b.eta7 == pytest.approx(ETA7_BIASED, abs=1e-12)


def test_gate_builders_produce_valid_circuits():
    for name in GATE_NAMES:
        circuit = gate_by_name(name)
        u = compose_transfer_matrix(circuit)
        assert np.allclose(u @ u.conj().T, np.eye(circuit.n_modes), atol=1e-12)
    with pytest.raises(ValueError):
        gate_by_name("swap")


def test_cnot_circuit_layout():
    c = build_cnot_circuit()
    assert [el.label for el in c.elements] == [
        "B4",
        "B3",
        "NS1.eta1",
        "NS1.eta2",
        "NS1.eta3",
        "NS2.eta1",
        "NS2.eta2",
        "NS2.eta3",
        "B2",
        "B1",
    ]
    assert c.cuts["x"] == 2
    assert c.cuts["y"] == 8
    assert c.labels[:4] == ("c_H", "c_V", "t_H", "t_V")
    assert set(c.ancilla_prep.values()) == {0, 1}


def test_simplified_cnot_layout():
    c = build_simplified_cnot()
    labels = [el.label for el in c.elements]
    assert labels == ["B4", "B7", "B8", "B3", "B5", "B6", "B2", "B1"]
    assert c.cuts["z"] == 6 and c.cuts["y"] == 6
    etas = {el.label: el.reflectivity for el in c.elements}
    assert etas["B5"] == pytest.approx(ETA2_BIASED)
    assert etas["B7"] == pytest.approx(ETA7_BIASED)


def test_logical_pair_labels_and_validation():
    p = logical_pair("+V")
    assert p.control[0] == pytest.approx(1 / SQRT2)
    assert p.control[1] == pytest.approx(1 / SQRT2)
    assert p.target == (0.0, 1.0)
    with pytest.raises(ValueError):
        logical_pair("XX")
    with pytest.raises(ValueError):
        LogicalQubitPair((1.0, 1.0), (1.0, 0.0))


def test_encode_decode_roundtrip():
    circuit = build_cnot_circuit()
    for label in BASIS_INPUTS + ("+H", "-V"):
        state = encode_logical(logical_pair(label), circuit)
        assert state.n_modes == 8
        assert state.total_photons == 4
    state4 = basis_state(4, dual_rail_ket("VH"))
    amps, leakage = decode_logical(state4)
    assert amps[BASIS_INPUTS.index("VH")] == pytest.approx(1.0)
    assert leakage == pytest.approx(0.0)
    with pytest.raises(ValueError):
        dual_rail_ket("QQ")


def test_decode_rejects_a_state_that_is_not_four_modes():
    with pytest.raises(ValueError) as err:
        decode_logical(basis_state(3, (1, 0, 0)))
    assert str(err.value) == "decode expects a 4-mode state, got 3"


def test_cnot_image_is_an_involution():
    for label in BASIS_INPUTS:
        assert CNOT_IMAGE[CNOT_IMAGE[label]] == label


def test_conditional_map_requires_detection():
    bare = build_ns_circuit()
    undetected = type(bare)(
        n_modes=bare.n_modes,
        labels=bare.labels,
        elements=bare.elements,
        ancilla_prep=bare.ancilla_prep,
        detection=None,
    )
    with pytest.raises(ValueError):
        conditional_map_by_evolution(undetected)
