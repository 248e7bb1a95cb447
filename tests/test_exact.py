"""Exact proofs, in sympy, of the two operating points and their floats,
and the criterion-8 worst corners recomputed at 50 digits in mpmath.

Over the whole cube [0, 1]**3, a balanced NS map (l0 = l1 = -l2) has
l0 <= 1/2 and only the closed form reaches 1/2; the biased balance equations
have one non-zero root in [0, 1]**2. Two expressions are equal when ``radsimp`` and ``expand``, or
else ``simplify``, reduce their difference to 0; never by structural
equality of radicals or by root order, which differ between sympy versions.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from conftest import WORST_ERROR_ABS_CORNERS_002, WORST_ERROR_REL_CORNERS_002
from loqc import gates

SQRT2 = sp.sqrt(2)
EXACT = dict(ETA2_NS=(SQRT2 - 1) ** 2, ETA13_NS=1 / (4 - 2 * SQRT2),
             ETA2_BIASED=(3 - SQRT2) / 7, ETA7_BIASED=5 - 3 * SQRT2)

# the NS map, with x = sqrt(eta1*eta3), y = sqrt((1 - eta1)*(1 - eta3)), r = sqrt(eta2)
X, Y, R = sp.symbols("x y r", nonnegative=True)
L0 = X * R + Y
L1 = X * (1 - R**2) - L0 * R
L2 = R**2 * L0 - 2 * X * R * (1 - R**2)

E1, E2, E3, E7 = sp.symbols("eta1 eta2 eta3 eta7", nonnegative=True)
BIASED = (sp.sqrt(E2), sp.sqrt(E7) * (1 - 2 * E2), -E7 * sp.sqrt(E2) * (2 - 3 * E2))


def _equal(a, b) -> bool:
    # either reduction reaching 0 proves a = b; simplify is the slow fallback
    return sp.expand(sp.radsimp(a - b)) == 0 or sp.simplify(a - b) == 0


def _error(value: float, exact) -> float:
    """|value - exact| at 40 digits; sp.Float of a float is its exact value."""
    return float(abs(sp.Float(value, 40) - sp.N(exact, 40)))


def test_symbolic_maps_are_the_programs_maps():
    ns = sp.lambdify((X, Y, R), (L0, L1, L2), modules="math")
    biased = sp.lambdify((E2, E7), BIASED, modules="math")
    for e1, e2, e3, e7 in np.random.default_rng(14142).uniform(size=(20, 4)).tolist():
        x, y = math.sqrt(e1 * e3), math.sqrt((1 - e1) * (1 - e3))
        program = gates.ns_conditional_map(gates.NsParameters(e1, e2, e3))
        assert np.abs(np.subtract(ns(x, y, math.sqrt(e2)), program)).max() < 1e-14
        program = gates.biased_ns_amplitudes(gates.BiasedNsParameters(e2, e7))
        assert np.abs(np.subtract(biased(e2, e7), program)).max() < 1e-14


def test_balance_conditions_fix_y_then_r():
    # 1 + r > 0, so l1 = l0 exactly when l0 = x*(1 - r), that is y = x*(1 - 2*r)
    y = X * (1 - 2 * R)
    assert _equal(L0 - L1, (1 + R) * (L0 - X * (1 - R)))
    assert _equal(L0 - X * (1 - R), Y - y)
    # then l0 = -l2 leaves x = 0 or r = 1, where l0 = x*(1 - r) = 0, or the
    # one root r = sqrt(2) - 1 of 1 - 2*r - r**2 in [0, 1]
    on_first = {Y: y}
    assert _equal(L0.subs(on_first), X * (1 - R))
    assert _equal((L0 + L2).subs(on_first), X * (1 - R) * (1 - 2 * R - R**2))
    (r,) = [x for x in sp.Poly(1 - 2 * R - R**2, R).real_roots() if 0 <= x <= 1]
    assert _equal(r, SQRT2 - 1) and _equal(r**2, EXACT["ETA2_NS"])


def test_balanced_ns_amplitude_is_at_most_one_half():
    # Lagrange, with (p, q, u, v) = sqrt(eta1, 1 - eta1, eta3, 1 - eta3):
    # (x + y)**2 = 1 - (p*v - q*u)**2 <= 1, with equality only at eta1 = eta3
    p, q, u, v = sp.symbols("p q u v", nonnegative=True)
    lagrange = (p**2 + q**2) * (u**2 + v**2) - (p * u + q * v) ** 2
    assert _equal(lagrange, (p * v - q * u) ** 2)
    assert _equal(E1 * (1 - E3) - (1 - E1) * E3, E1 - E3)
    # balanced and non-zero: r = sqrt(2) - 1 and y = x*(1 - 2*r), so x <= ETA13_NS
    # and l0 = x*(1 - r) <= 1/2, with equality only at eta1 = eta3 = ETA13_NS
    r, eta13 = SQRT2 - 1, EXACT["ETA13_NS"]
    assert _equal(1 / (2 - 2 * r), eta13) and 0 <= eta13 <= 1
    assert _equal(eta13 * (1 - r), sp.Rational(1, 2))
    at_optimum = {X: eta13, Y: 1 - eta13, R: r}
    for lam, exact in zip((L0, L1, L2), (1, 1, -1)):
        assert _equal(lam.subs(at_optimum), sp.Rational(exact, 2))


def test_biased_balance_has_one_nonzero_root():
    l0, l1, l2 = BIASED
    # eta2 = 0 gives (0, sqrt(eta7), 0), balanced only as the zero map
    assert [lam.subs(E2, 0) for lam in BIASED] == [0, sp.sqrt(E7), 0]
    # with eta2 > 0, l0 = -l2 fixes eta7 = 1/(2 - 3*eta2), which is negative
    # for eta2 > 2/3; below that, 1 - eta7 >= 0 needs eta2 <= 1/3
    assert _equal(l0 + l2, sp.sqrt(E2) * (1 - E7 * (2 - 3 * E2)))
    eta7 = 1 / (2 - 3 * E2)
    assert _equal(1 - eta7, (1 - 3 * E2) / (2 - 3 * E2))
    # l1**2 = l0**2 then leaves 7*eta2**2 - 6*eta2 + 1 = 0, with one root <= 1/3
    quadratic = 7 * E2**2 - 6 * E2 + 1
    assert _equal((l1**2 - l0**2).subs(E7, eta7), quadratic / (2 - 3 * E2))
    (eta2,) = [e for e in sp.Poly(quadratic, E2).real_roots() if e <= sp.Rational(1, 3)]
    assert _equal(eta2, EXACT["ETA2_BIASED"])
    assert _equal(eta7.subs(E2, eta2), EXACT["ETA7_BIASED"])
    # l1 = sqrt(eta7)*(1 - 2*eta2) > 0 there, so l1 = +l0, and l0 > 0
    assert 1 - 2 * eta2 > 0 and eta2 > 0


def test_floats_are_their_exact_values_to_1e_15():
    for name, exact in EXACT.items():
        assert _error(getattr(gates, name), exact) <= 1e-15 * float(exact), name
    assert sp.Rational(gates.CNOTS["cnot"][1]) == sp.Rational(1, 16)
    exact = EXACT["ETA2_BIASED"] ** 2
    assert _error(gates.CNOTS["cnot-simplified"][1], exact) <= 1e-15 * float(exact)
    lams = gates.ns_conditional_map(gates.optimal_ns_parameters())
    for value, exact in zip(lams, (1, 1, -1)):
        assert _error(value, sp.Rational(exact, 2)) <= 1e-15



def _exact_reflectivity(label: str):
    """B1-B4 are 50:50; in each NS gate eta1 = eta3 = ETA13_NS, eta2 = ETA2_NS."""
    if label.startswith("B"):
        return sp.Rational(1, 2)
    return EXACT["ETA2_NS"] if label.endswith("eta2") else EXACT["ETA13_NS"]


def _grey_block(eta, grey_port: int):
    """The beamsplitter's 2x2 amplitude block: both transmissions
    +sqrt(1 - eta), and the grey port reflecting with -sqrt(eta)."""
    r, t = mpmath.sqrt(eta), mpmath.sqrt(1 - eta)
    return ((-r, t), (t, r)) if grey_port == 0 else ((r, t), (t, -r))


def _permutation_permanent(rows):
    return mpmath.fsum(
        mpmath.fprod(rows[i][j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(len(rows)))
    )


def _photon_modes(occ) -> list[int]:
    return [m for m, count in enumerate(occ) for _ in range(count)]


@pytest.mark.parametrize(
    "model, pinned",
    [("absolute", WORST_ERROR_ABS_CORNERS_002), ("relative", WORST_ERROR_REL_CORNERS_002)],
)
def test_criterion_8_worst_corner_at_50_digits(model, pinned):
    # corner 86 of the CNOT's 1024 (element j at +0.02 where bit 9 - j of 86
    # is set, else at -0.02), input VH, whose image is VV. The error is
    # 1 - (image weight) / (weight of the heralded sector: one photon at a1
    # and at a2, none at v1 and v2, two on the rails c_H, c_V, t_H, t_V)
    circuit = gates.build_cnot_circuit()
    k, n = len(circuit.elements), circuit.n_modes
    heralds = (1, 1, 0, 0)
    with mpmath.workdps(50):
        u = [[mpmath.mpf(int(i == j)) for j in range(n)] for i in range(n)]
        for j, el in enumerate(circuit.elements):
            eta = mpmath.mpf(sp.N(_exact_reflectivity(el.label), 60))
            delta = mpmath.mpf("0.02") * (1 if (86 >> (k - 1 - j)) & 1 else -1)
            eta = eta + delta if model == "absolute" else eta * (1 + delta)
            (p, q), (r, s) = _grey_block(eta, 0 if el.grey == el.mode_a else 1)
            a, b = el.mode_a, el.mode_b
            u[a], u[b] = (
                [p * x + q * y for x, y in zip(u[a], u[b])],
                [r * x + s * y for x, y in zip(u[a], u[b])],
            )
        cols = _photon_modes((0, 1, 1, 0) + heralds)
        weights = {}
        for rails in itertools.product(range(3), repeat=4):
            if sum(rails) == 2:
                rows = _photon_modes(rails + heralds)
                amplitude = _permutation_permanent([[u[i][j] for j in cols] for i in rows])
                weights[rails] = amplitude**2 / math.prod(map(math.factorial, rails))
        error = 1 - weights[(0, 1, 0, 1)] / mpmath.fsum(weights.values())
        assert len(weights) == 10
        assert abs(error - mpmath.mpf(pinned)) <= 1e-15
