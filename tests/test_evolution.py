"""Multiphoton state evolution and the permanent-based amplitude oracle."""

import math

import numpy as np
import pytest

from conftest import random_circuit, random_occupation, random_state
from loqc.elements import Beamsplitter, Circuit, compose_transfer_matrix
from loqc.evolve import (
    MAX_PHOTONS,
    AmplitudeQuery,
    _pair_transition,
    apply_element,
    evolve,
    oracle_amplitude,
    permanent,
)
from loqc.fock import basis_state, enumerate_basis, make_state

RNG = np.random.default_rng(90125)

HALF = Beamsplitter(0, 1, 0.5, grey=1)
PAIR = Circuit(2, ("a", "b"), (HALF,))


def test_two_photon_interference_cancels_coincidence():
    out = evolve(basis_state(2, (1, 1)), PAIR)
    r = 1.0 / math.sqrt(2.0)
    assert abs(out.amplitude((2, 0)) - r) < 1e-14
    assert abs(out.amplitude((0, 2)) + r) < 1e-14
    assert out.amplitude((1, 1)) == 0j


def test_two_photons_in_one_port_split_with_bosonic_weights():
    out = evolve(basis_state(2, (2, 0)), PAIR)
    assert abs(out.amplitude((2, 0)) - 0.5) < 1e-14
    assert abs(out.amplitude((1, 1)) - 1.0 / math.sqrt(2.0)) < 1e-14
    assert abs(out.amplitude((0, 2)) - 0.5) < 1e-14


def test_single_photon_follows_transfer_matrix():
    for _ in range(5):
        c = random_circuit(RNG)
        u = compose_transfer_matrix(c)
        j = int(RNG.integers(c.n_modes))
        occ = tuple(1 if m == j else 0 for m in range(c.n_modes))
        out = evolve(basis_state(c.n_modes, occ), c)
        for k in range(c.n_modes):
            occ_k = tuple(1 if m == k else 0 for m in range(c.n_modes))
            assert abs(out.amplitude(occ_k) - u[k, j]) < 1e-12


def test_evolution_preserves_norm_and_photon_number():
    for _ in range(10):
        c = random_circuit(RNG)
        total = int(RNG.integers(1, 4))
        state = random_state(RNG, c.n_modes, total)
        out = evolve(state, c)
        assert out.total_photons == total
        assert abs(out.norm_sq - 1.0) < 1e-12


def test_evolution_is_linear():
    c = random_circuit(RNG)
    a = random_state(RNG, c.n_modes, 2)
    b = random_state(RNG, c.n_modes, 2)
    z = 0.8 - 0.6j
    lhs = evolve(a + z * b, c)
    rhs = evolve(a, c) + z * evolve(b, c)
    diff = lhs - rhs
    assert diff.norm_sq < 1e-24


def test_grey_side_beamsplitter_is_involutory_on_states():
    state = random_state(RNG, 2, 3)
    roundtrip = evolve(evolve(state, PAIR), PAIR)
    assert (roundtrip - state).norm_sq < 1e-24


def test_upto_prefix_matches_stepwise_application():
    c = random_circuit(RNG)
    state = random_state(RNG, c.n_modes, 2)
    partial = evolve(state, c, upto=1)
    manual = apply_element(state, c.elements[0])
    assert (partial - manual).norm_sq < 1e-24


def test_pair_transition_cache_stays_bounded():
    limit = _pair_transition.cache_info().maxsize
    assert limit is not None
    state = basis_state(2, (1, 1))
    for eta in np.linspace(0.01, 0.99, limit + 100):
        apply_element(state, Beamsplitter(0, 1, float(eta), grey=1))
    info = _pair_transition.cache_info()
    assert info.currsize <= info.maxsize


def test_evolve_guards_sector_and_photon_cap():
    with pytest.raises(ValueError):
        evolve(basis_state(3, (1, 0, 0)), PAIR)
    too_many = basis_state(2, (MAX_PHOTONS + 1, 0))
    with pytest.raises(ValueError):
        evolve(too_many, PAIR)


def test_permanent_known_values():
    assert permanent(np.zeros((0, 0))) == 1.0 + 0j
    assert permanent(np.array([[7.0]])) == 7.0 + 0j
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert permanent(m) == pytest.approx(1 * 4 + 2 * 3)
    assert permanent(np.eye(4)) == pytest.approx(1.0)
    assert permanent(np.ones((3, 3))) == pytest.approx(math.factorial(3))
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))
    with pytest.raises(ValueError):
        permanent(np.ones((7, 7)))


def test_oracle_matches_evolution_on_random_circuits():
    for _ in range(25):
        c = random_circuit(RNG)
        total = int(RNG.integers(1, 3))
        occ_in = random_occupation(RNG, c.n_modes, total)
        out = evolve(basis_state(c.n_modes, occ_in), c)
        u = compose_transfer_matrix(c)
        for occ_out in enumerate_basis(c.n_modes, total):
            direct = out.amplitude(occ_out)
            via_permanent = oracle_amplitude(AmplitudeQuery(u, occ_in, occ_out))
            assert abs(direct - via_permanent) < 1e-10


def test_oracle_matches_evolution_with_multiply_occupied_modes():
    c = Circuit(
        3,
        ("a", "b", "c"),
        (
            Beamsplitter(0, 1, 0.3, grey=0),
            Beamsplitter(1, 2, 0.6, grey=2),
            Beamsplitter(0, 2, 0.52, grey=2),
        ),
    )
    u = compose_transfer_matrix(c)
    for occ_in in [(2, 0, 0), (2, 1, 0), (0, 3, 0), (2, 2, 0)]:
        out = evolve(basis_state(3, occ_in), c)
        for occ_out in enumerate_basis(3, sum(occ_in)):
            q = AmplitudeQuery(u, occ_in, occ_out)
            assert abs(out.amplitude(occ_out) - oracle_amplitude(q)) < 1e-10


def test_oracle_normalization_on_bunched_output():
    # u = identity: amplitude is 1 on the diagonal regardless of bunching
    u = np.eye(2, dtype=complex)
    q = AmplitudeQuery(u, (2, 0), (2, 0))
    assert oracle_amplitude(q) == pytest.approx(1.0)
    q = AmplitudeQuery(u, (2, 0), (1, 1))
    assert oracle_amplitude(q) == pytest.approx(0.0)
