"""Sparse Fock-sector state container."""

import itertools
import json
import math

import numpy as np
import pytest

from conftest import random_state
from loqc.circuit_io import circuit_from_dict, circuit_to_dict
from loqc.elements import Beamsplitter, Circuit, beamsplitter_matrix
from loqc.evolve import AmplitudeQuery, oracle_amplitude
from loqc.fock import (
    FockStateVector,
    basis_state,
    enumerate_basis,
    inner_product,
    make_state,
)
from loqc.postselect import DetectionPattern, coincidence_probability
from loqc.verify import sensitivity_sweep

RNG = np.random.default_rng(20260815)


def test_enumerate_basis_counts():
    assert len(enumerate_basis(4, 2)) == 10
    assert len(enumerate_basis(8, 2)) == 36
    assert enumerate_basis(3, 0) == [(0, 0, 0)]
    assert enumerate_basis(1, 3) == [(3,)]
    assert enumerate_basis(2, 1) == [(1, 0), (0, 1)]


def test_enumerate_basis_descending_unique_and_complete():
    basis = enumerate_basis(5, 3)
    assert len(set(basis)) == len(basis)
    assert basis == sorted(basis, reverse=True)
    assert all(len(occ) == 5 and sum(occ) == 3 for occ in basis)
    assert len(basis) == math.comb(3 + 5 - 1, 5 - 1)


def test_enumerate_basis_matches_a_brute_force_reference():
    for n in range(1, 7):
        for k in range(5):
            reference = sorted(
                {occ for occ in itertools.product(range(k + 1), repeat=n) if sum(occ) == k},
                reverse=True,
            )
            assert enumerate_basis(n, k) == reference


def test_enumerate_basis_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_basis(0, 2)
    with pytest.raises(ValueError):
        enumerate_basis(3, -1)
    # a bool is not a mode count nor a photon total, a float is not truncated
    for args, name in (((True, 1), "n_modes"), ((2, True), "total_photons"),
                       ((2.0, 1), "n_modes"), ((2, 1.0), "total_photons")):
        with pytest.raises(ValueError, match=f"{name} must be a non-negative integer"):
            enumerate_basis(*args)


def test_basis_state_and_amplitude_lookup():
    s = basis_state(3, (1, 0, 1))
    assert s.n_modes == 3
    assert s.total_photons == 2
    assert s.amplitude((1, 0, 1)) == 1.0
    assert s.amplitude((0, 1, 1)) == 0j
    assert abs(s.norm_sq - 1.0) < 1e-15


def test_make_state_rejects_sector_and_duplicate_violations():
    with pytest.raises(ValueError, match="has 2 photons, expected 1"):
        make_state(3, [((1, 0, 0), 1.0), ((1, 1, 0), 1.0)])
    with pytest.raises(ValueError, match="has 3 modes, expected 2"):
        make_state(2, [((1, 0, 0), 1.0)])
    with pytest.raises(ValueError):
        make_state(2, [((1, 0), 0.5), ((1, 0), 0.5)])
    with pytest.raises(ValueError):
        make_state(2, [])
    with pytest.raises(ValueError):
        basis_state(2, (1, -1))
    with pytest.raises(ValueError, match="must hold non-negative integers"):
        basis_state(2, (True, 0))
    for sector, name in (((True, 1), "n_modes"), ((1, True), "total_photons"),
                         ((1.0, 1), "n_modes"), ((1, -1), "total_photons")):
        with pytest.raises(ValueError, match=f"{name} must be a non-negative integer"):
            FockStateVector(*sector, {(1,): 1})


def test_numpy_integers_pass_every_count_rule_and_are_stored_as_ints():
    one, two = np.int64(1), np.uint8(2)
    assert enumerate_basis(two, one) == enumerate_basis(2, 1)
    for state in (
        basis_state(two, (one, np.int32(0))),
        make_state(two, [((one, 0), 0.6), ((np.int8(0), one), 0.8)]),
        FockStateVector(two, one, {(one, np.int16(0)): 1.0}),
    ):
        assert type(state.n_modes) is int and type(state.total_photons) is int
        assert all(type(k) is int for occ in state.amplitudes for k in occ)
    query = AmplitudeQuery(np.eye(2), (one, one), (np.int64(1), np.int8(1)))
    assert oracle_amplitude(query) == oracle_amplitude(AmplitudeQuery(np.eye(2), (1, 1), (1, 1)))
    s = basis_state(4, (1, 1, 1, 1))
    assert coincidence_probability(s, tuple(np.arange(4))) == 1.0
    assert beamsplitter_matrix(0.3, one).tolist() == beamsplitter_matrix(0.3, 1).tolist()
    splitter = Beamsplitter(np.int64(0), one, np.float32(0.25), grey=one)
    assert splitter.grey_port() == 1
    modes = (splitter.mode_a, splitter.mode_b, splitter.grey)
    assert [type(m) for m in modes] == [int, int, int]
    assert type(splitter.reflectivity) is float and splitter.reflectivity == 0.25
    circuit = Circuit(
        two,
        ("a", "b"),
        (splitter,),
        ancilla_prep={one: np.uint8(0)},
        detection=DetectionPattern({one: np.int8(0)}),
        cuts={"all": np.int16(1)},
    )
    assert type(circuit.n_modes) is int and type(circuit.cuts["all"]) is int
    assert all(type(k) is int for item in circuit.ancilla_prep.items() for k in item)
    assert circuit_from_dict(json.loads(json.dumps(circuit_to_dict(circuit)))) == circuit
    numpy_sweep = sensitivity_sweep("cnot", mode="random", samples=np.int64(2), seed=np.uint8(3))
    plain_sweep = sensitivity_sweep("cnot", mode="random", samples=2, seed=3)
    assert numpy_sweep["worst_assignment"] == plain_sweep["worst_assignment"]


def test_constructor_prunes_dust_amplitudes():
    s = FockStateVector(2, 1, {(1, 0): 1.0, (0, 1): 1e-17})
    assert (0, 1) not in s.amplitudes
    assert s.amplitude((0, 1)) == 0j


@pytest.mark.parametrize(
    "amp",
    [math.nan, math.inf, complex(0.0, -math.inf), "1", True, np.bool_(True), None],
    ids=["nan", "inf", "imaginary-inf", "string", "bool", "numpy-bool", "none"],
)
def test_public_construction_refuses_an_amplitude_it_would_coerce(amp):
    # a NaN was pruned away, an infinity kept, and "1" and True became 1+0j
    message = f"amplitude of ket (1, 0) must be a finite complex number, got {amp!r}"
    for build in (
        lambda: FockStateVector(2, 1, {(1, 0): amp}),
        lambda: make_state(2, [((1, 0), amp)]),
    ):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message
    # the same rule refuses it as a scalar factor, on either side and on an
    # empty state too, before any product could turn True into 1+0j (numpy's
    # bool hands the state a Python bool when it is on the left)
    for product in (
        lambda: amp * basis_state(2, (1, 0)),
        lambda: basis_state(2, (1, 0)) * amp,
        lambda: amp * FockStateVector(2, 1, {}),
    ):
        with pytest.raises(ValueError, match="^scalar must be a finite complex number"):
            product()


def test_scalar_multiplication_takes_any_finite_number():
    state = basis_state(2, (1, 0))
    for scalar in (2, 0.5j, np.float64(2)):
        for product in (scalar * state, state * scalar):
            assert type(product) is FockStateVector
            assert product.amplitudes == {(1, 0): complex(scalar)}
            assert type(product.amplitude((1, 0))) is complex
    # False is refused, not taken for the zero it would multiply out to
    with pytest.raises(ValueError, match="got False"):
        False * state


def test_public_construction_takes_any_finite_number_as_a_complex():
    for amp in (1, 0.5, np.int64(2), np.float32(0.5), np.complex128(0.5j), 1 + 2j):
        state = make_state(2, [((1, 0), amp)])
        assert type(state.amplitude((1, 0))) is complex
        assert state.amplitude((1, 0)) == complex(amp)


def test_trusted_construction_prunes_and_keeps_order_like_the_constructor():
    amps = {(0, 2): 0.5j, (2, 0): 1e-15 + 0j, (1, 1): -0.5 + 0j}
    trusted = FockStateVector._trusted(2, 2, amps)
    assert trusted == FockStateVector(2, 2, amps)
    assert list(trusted.amplitudes) == [(0, 2), (1, 1)]


def test_normalized_and_zero_state():
    s = make_state(2, [((1, 0), 3.0), ((0, 1), 4.0)])
    n = s.normalized()
    assert abs(n.norm_sq - 1.0) < 1e-14
    assert abs(n.amplitude((1, 0)) - 0.6) < 1e-14
    zero = FockStateVector(2, 1, {})
    with pytest.raises(ValueError):
        zero.normalized()


def test_vector_arithmetic():
    a = basis_state(2, (1, 0))
    b = basis_state(2, (0, 1))
    s = a + 2.0 * b
    assert s.amplitude((1, 0)) == 1.0
    assert s.amplitude((0, 1)) == 2.0
    d = s - a
    assert d.amplitude((1, 0)) == 0j
    assert (0.5j * a).amplitude((1, 0)) == 0.5j
    with pytest.raises(ValueError, match="sectors differ"):
        a + basis_state(2, (1, 1))
    with pytest.raises(ValueError, match="sectors differ"):
        a + basis_state(3, (1, 0, 0))


def test_inner_product_orthonormal_kets():
    ten = basis_state(2, (1, 0))
    one = basis_state(2, (0, 1))
    assert inner_product(ten, one) == 0j
    assert inner_product(ten, ten) == 1.0 + 0j


def test_empty_sums_are_complex_and_float_zeros():
    disjoint = inner_product(basis_state(2, (1, 0)), basis_state(2, (0, 1)))
    assert disjoint == 0j and type(disjoint) is complex
    empty = FockStateVector(2, 1, {}).norm_sq
    assert empty == 0.0 and type(empty) is float


def test_inner_product_conjugate_linear_in_first_argument():
    a = random_state(RNG, 3, 2)
    b = random_state(RNG, 3, 2)
    z = 0.3 - 0.7j
    lhs = inner_product(z * a, b)
    rhs = z.conjugate() * inner_product(a, b)
    assert abs(lhs - rhs) < 1e-14
    assert abs(inner_product(a, b) - inner_product(b, a).conjugate()) < 1e-14


def test_inner_product_matches_dense_computation():
    basis = enumerate_basis(4, 2)
    a = random_state(RNG, 4, 2)
    b = random_state(RNG, 4, 2)
    va = np.array([a.amplitude(occ) for occ in basis])
    vb = np.array([b.amplitude(occ) for occ in basis])
    assert abs(inner_product(a, b) - np.vdot(va, vb)) < 1e-14


def test_sorted_items_is_descending():
    s = random_state(RNG, 3, 2)
    occs = [occ for occ, _ in s.sorted_items()]
    assert occs == sorted(occs, reverse=True)
