"""Beamsplitter elements, circuit containers, and transfer matrices."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_circuit
from loqc.elements import (
    Beamsplitter,
    Circuit,
    beamsplitter_matrix,
    compose_transfer_matrix,
    transfer_matrices,
)
from loqc.postselect import DetectionPattern

RNG = np.random.default_rng(4031)


def test_beamsplitter_matrix_structure():
    for eta in (0.0, 0.17, 0.5, 1.0):
        for grey in (0, 1):
            m = beamsplitter_matrix(eta, grey)
            assert np.allclose(m @ m.T, np.eye(2), atol=1e-15)
            assert np.allclose(m, m.T, atol=1e-15)
            assert np.allclose(m @ m, np.eye(2), atol=1e-15)
            assert abs(np.linalg.det(m) + 1.0) < 1e-15
    m = beamsplitter_matrix(0.36, 1)
    assert m[0, 0] == pytest.approx(0.6)
    assert m[1, 1] == pytest.approx(-0.6)
    assert m[0, 1] == pytest.approx(0.8)
    m = beamsplitter_matrix(0.36, 0)
    assert m[0, 0] == pytest.approx(-0.6)
    assert m[1, 1] == pytest.approx(0.6)


def test_beamsplitter_matrix_rejects_bad_arguments():
    with pytest.raises(ValueError):
        beamsplitter_matrix(-0.1, 0)
    with pytest.raises(ValueError):
        beamsplitter_matrix(1.1, 1)
    with pytest.raises(ValueError):
        beamsplitter_matrix(0.5, 2)


def test_element_grey_port_and_matrix():
    el = Beamsplitter(2, 5, 0.3, grey=5, label="x")
    assert el.grey_port() == 1
    assert np.allclose(
        beamsplitter_matrix(el.reflectivity, el.grey_port()), beamsplitter_matrix(0.3, 1)
    )
    el = Beamsplitter(2, 5, 0.3, grey=2)
    assert el.grey_port() == 0
    with pytest.raises(ValueError):
        Beamsplitter(2, 5, 0.3, grey=4)
    with pytest.raises(ValueError):
        Beamsplitter(2, 2, 0.3, grey=2)


def test_circuit_mode_lookup():
    c = Circuit(2, ("in", "out"), (Beamsplitter(0, 1, 0.5, grey=1),))
    assert c.mode_index("out") == 1
    with pytest.raises(KeyError):
        c.mode_index("nope")


def test_construction_reports_every_issue():
    # an element's own rules fail when it is built, before any circuit
    with pytest.raises(ValueError, match="reflectivity 1.7"):
        Beamsplitter(0, 3, 1.7, grey=3, label="bad")
    with pytest.raises(ValueError, match="grey mode 2"):
        Beamsplitter(0, 3, 0.5, grey=2, label="bad")
    with pytest.raises(ValueError, match="modes coincide"):
        Beamsplitter(1, 1, 0.5, grey=1)
    with pytest.raises(ValueError) as err:
        Circuit(
            n_modes=2,
            labels=("a", "a"),
            elements=(Beamsplitter(0, 3, 0.5, grey=3, label="bad"),),
            ancilla_prep={5: -1},
            detection=DetectionPattern(exact={9: 1}),
            cuts={"q": 7},
        )
    text = str(err.value)
    assert "labels are not unique" in text
    assert "mode 3 outside" in text
    assert "ancilla prep mode 5" in text
    assert "outside 0..1" in text
    assert "cut 'q'" in text
    with pytest.raises(ValueError) as err:
        Circuit(0, ("a",), ())
    assert str(err.value) == "n_modes must be >= 1, got 0; 1 labels for 0 modes"


_SPLITTER = (Beamsplitter(0, 1, 0.5, grey=1),)


@pytest.mark.parametrize(
    "n_modes, labels, extra, message",
    [
        pytest.param(
            2, ("s", "a"), {"ancilla_prep": {1: 1.5}},
            "ancilla prep count on mode 1 must be a non-negative integer, got 1.5",
            id="float-ancilla-count",
        ),
        pytest.param(
            2, ("s", "a"), {"ancilla_prep": {True: 1}},
            "ancilla prep mode must be a non-negative integer, got True",
            id="bool-ancilla-mode",
        ),
        pytest.param(
            2, ("s", "a"), {"cuts": {"m": 1.0}},
            "cut 'm' must be a non-negative integer, got 1.0",
            id="float-cut",
        ),
        pytest.param(
            True, ("s",), {},
            "n_modes must be a non-negative integer, got True",
            id="bool-n-modes",
        ),
    ],
)
def test_construction_refuses_booleans_and_floats(n_modes, labels, extra, message):
    # none is coerced: a float cut would otherwise fail only inside evolve
    elements = _SPLITTER if n_modes == 2 else ()
    with pytest.raises(ValueError) as err:
        Circuit(n_modes, labels, elements, **extra)
    assert str(err.value) == message


def test_compose_transfer_matrix_is_unitary():
    for _ in range(10):
        c = random_circuit(RNG)
        u = compose_transfer_matrix(c)
        assert np.allclose(u @ u.conj().T, np.eye(c.n_modes), atol=1e-12)


def test_compose_transfer_matrix_order_and_prefix():
    e1 = Beamsplitter(0, 1, 0.3, grey=1)
    e2 = Beamsplitter(1, 2, 0.8, grey=1)
    c = Circuit(3, ("a", "b", "c"), (e1, e2))
    u1 = np.eye(3, dtype=complex)
    u1[:2, :2] = beamsplitter_matrix(e1.reflectivity, e1.grey_port())
    u2 = np.eye(3, dtype=complex)
    u2[1:, 1:] = beamsplitter_matrix(e2.reflectivity, e2.grey_port())
    assert np.allclose(compose_transfer_matrix(c), u2 @ u1, atol=1e-15)
    assert np.allclose(compose_transfer_matrix(c, upto=1), u1, atol=1e-15)
    assert np.allclose(compose_transfer_matrix(c, upto=0), np.eye(3), atol=1e-15)
    assert np.allclose(compose_transfer_matrix(c, upto=2), u2 @ u1, atol=1e-15)


@pytest.mark.parametrize("upto", [-1, -2, 3, 99])
def test_compose_transfer_matrix_rejects_upto_outside_the_circuit(upto):
    # a slice would read -1 as "all but the last" and 99 as "all"
    elements = (Beamsplitter(0, 1, 0.3, grey=1), Beamsplitter(1, 2, 0.8, grey=1))
    c = Circuit(3, ("a", "b", "c"), elements)
    with pytest.raises(ValueError, match="upto"):
        compose_transfer_matrix(c, upto)


def test_transfer_matrix_embeds_element_on_its_modes():
    el = Beamsplitter(1, 3, 0.42, grey=3)
    c = Circuit(4, ("a", "b", "c", "d"), (el,))
    u = compose_transfer_matrix(c)
    block = beamsplitter_matrix(el.reflectivity, el.grey_port())
    assert u[1, 1] == pytest.approx(block[0, 0])
    assert u[1, 3] == pytest.approx(block[0, 1])
    assert u[3, 1] == pytest.approx(block[1, 0])
    assert u[3, 3] == pytest.approx(block[1, 1])
    assert u[0, 0] == 1.0 and u[2, 2] == 1.0
    assert u[0, 2] == 0.0


def test_beamsplitter_matrix_on_an_array_stacks_the_scalar_calls():
    etas = np.concatenate([[0.0, 1.0, 0.5], RNG.uniform(size=21)])
    for grey in (0, 1):
        stacked = np.array([beamsplitter_matrix(float(e), grey) for e in etas])
        assert np.array_equal(beamsplitter_matrix(etas, grey), stacked)
        square = beamsplitter_matrix(etas.reshape(4, 6), grey)
        assert np.array_equal(square, stacked.reshape(4, 6, 2, 2))
    for bad in (1.0 + 1e-12, -1e-300, np.nan):
        one_off = etas.copy()
        one_off[7] = bad
        with pytest.raises(ValueError, match="outside"):
            beamsplitter_matrix(one_off, 0)


def test_compose_transfer_matrix_rejects_malformed_elements():
    # the element or its circuit refuses to be built, so a mode of -1 can
    # no longer reach the transfer matrix and mix in its last row
    good = Beamsplitter(0, 2, 0.3, grey=2)
    for bad, message in (
        ((1, 1, 0.5, 1), "coincide"),
        ((0, 1, 0.5, 2), "grey mode 2"),
        ((0, 1, 1.5, 1), "reflectivity 1.5"),
        ((0, -1, 0.3, -1), "mode must be a non-negative integer, got -1"),
        ((0, 3, 0.3, 3), "element 1: mode 3 outside 0..2"),
    ):
        with pytest.raises(ValueError, match=message):
            c = Circuit(3, ("a", "b", "c"), (good, Beamsplitter(*bad)))
            compose_transfer_matrix(c)


def test_transfer_matrices_reject_a_reflectivity_array_of_the_wrong_shape():
    c = Circuit(2, ("a", "b"), (Beamsplitter(0, 1, 0.5, grey=1),))
    for etas in ([0.5], [[0.5, 0.5]], np.zeros((2, 1, 1))):
        with pytest.raises(ValueError, match="reflectivity array"):
            transfer_matrices(c, etas)


def _with_reflectivities(circuit: Circuit, etas) -> Circuit:
    return dataclasses.replace(
        circuit,
        elements=tuple(
            dataclasses.replace(el, reflectivity=float(eta))
            for el, eta in zip(circuit.elements, etas, strict=True)
        ),
    )


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_transfer_matrices_rows_match_the_composer_and_the_block_product(seed, batch):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng)
    n = circuit.n_modes
    etas = rng.uniform(size=(batch, len(circuit.elements)))
    # some rows on the edges of [0, 1]
    etas[rng.uniform(size=etas.shape) < 0.2] = 0.0
    etas[rng.uniform(size=etas.shape) < 0.2] = 1.0
    u = transfer_matrices(circuit, etas)
    assert u.shape == (batch, n, n) and u.dtype == np.float64
    for row, matrix in zip(etas, u):
        perturbed = _with_reflectivities(circuit, row)
        assert np.array_equal(compose_transfer_matrix(perturbed), matrix)
        assert np.max(np.abs(matrix @ matrix.T - np.eye(n))) < 1e-12
        product = np.eye(n)
        for el in perturbed.elements:
            embedded = np.eye(n)
            modes = [el.mode_a, el.mode_b]
            embedded[np.ix_(modes, modes)] = beamsplitter_matrix(
                el.reflectivity, el.grey_port()
            )
            product = embedded @ product
        assert np.max(np.abs(product - matrix)) <= 1e-15


def test_prepared_occupation_adds_the_ancilla_preparation():
    c = Circuit(3, ("s", "a", "v"), (), ancilla_prep={1: 1, 2: 0})
    assert c.prepared_occupation({0: 2}) == (2, 1, 0)
    assert c.prepared_occupation({}) == (0, 1, 0)
    assert c.prepared_occupation({1: 1}) == (0, 2, 0)
