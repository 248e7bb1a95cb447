"""Sparse Fock-sector state container."""

import itertools
import math

import numpy as np
import pytest

from conftest import random_state
from loqc.fock import (
    FockStateVector,
    basis_state,
    enumerate_basis,
    inner_product,
    make_state,
)

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


def test_constructor_prunes_dust_amplitudes():
    s = FockStateVector(2, 1, {(1, 0): 1.0, (0, 1): 1e-17})
    assert (0, 1) not in s.amplitudes
    assert s.amplitude((0, 1)) == 0j


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
