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
    balance_residual,
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
    optimal_ns_parameters,
    solve_biased_ns,
    solve_optimal_ns,
)

RNG = np.random.default_rng(61803)

SQRT2 = math.sqrt(2.0)

# Relative forward-difference step of the Newton Jacobian, and how many
# steps and halvings of one step a start may take before it counts as failed.
_FORWARD_STEP = math.sqrt(np.finfo(float).eps)
_MAX_STEPS = 50
_MAX_HALVINGS = 30


def _newton(f, x0, tol: float) -> np.ndarray | None:
    """Damped Newton root of the square system f(x) = 0 from x0.

    The Jacobian is taken by forward differences from f(x), and each step
    is halved until ||f|| decreases. Returns the first iterate with
    ||f|| <= tol, or None when the start fails: a singular Jacobian, a
    step that no halving makes decrease ||f||, or too many steps.
    """
    x = np.asarray(x0, dtype=float)
    fx = np.asarray(f(x), dtype=float)
    norm = np.linalg.norm(fx)
    for _ in range(_MAX_STEPS):
        if norm <= tol:
            return x
        jac = np.empty((fx.size, x.size))
        for j in range(x.size):
            h = _FORWARD_STEP * max(abs(x[j]), 1.0)
            shifted = x.copy()
            shifted[j] += h
            jac[:, j] = (np.asarray(f(shifted), dtype=float) - fx) / h
        try:
            dx = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            return None
        for halving in range(_MAX_HALVINGS):
            trial = x + dx / 2.0**halving
            f_trial = np.asarray(f(trial), dtype=float)
            norm_trial = np.linalg.norm(f_trial)
            if norm_trial < norm:
                break
        else:
            return None
        x, fx, norm = trial, f_trial, norm_trial
    return x if norm <= tol else None


# Starting reflectivities (eta1, eta2, eta3) of the NS search.
_NS_STARTS = (
    (0.85, 0.17, 0.85),
    (0.5, 0.3, 0.5),
    (0.7, 0.2, 0.9),
    (0.6, 0.4, 0.6),
)
_NS_GRADIENT_STEP = 1e-5


def _ns_lagrange_root(eta0: tuple[float, float, float]) -> NsParameters | None:
    """Stationary point of l0 on the balanced curve, by Newton from eta0.

    The reflectivities are parametrised as eta = sin(theta)**2, so every
    iterate lies inside the cube. The solve drives
    F = [l0 - l1, l0 + l2, det(grad l0, grad(l0 - l1), grad(l0 + l2))]
    to zero: the two balance conditions and the Lagrange condition. The
    gradients are central differences of ``ns_conditional_map``. Returns
    None when the start does not converge.
    """

    def params(theta):
        return NsParameters(*(np.sin(theta) ** 2).tolist())

    def lams(theta):
        return np.array(ns_conditional_map(params(theta)))

    def conditions(theta):
        grads = np.empty((3, 3))
        for j, step in enumerate(np.eye(3) * _NS_GRADIENT_STEP):
            grads[:, j] = (lams(theta + step) - lams(theta - step)) / (
                2.0 * _NS_GRADIENT_STEP
            )
        l0, l1, l2 = lams(theta)
        g0, g1, g2 = grads
        return [l0 - l1, l0 + l2, np.linalg.det(np.array([g0, g0 - g1, g0 + g2]))]

    theta = _newton(conditions, np.arcsin(np.sqrt(eta0)), 1e-10)
    return None if theta is None else params(theta)


def _check_ns_point(params: NsParameters) -> None:
    """Raise unless the best balanced stationary point that the four
    starts reach has the amplitude l0 of ``params``, to 1e-6."""
    best = -np.inf
    for eta0 in _NS_STARTS:
        root = _ns_lagrange_root(eta0)
        if root is None:
            continue
        triple = ns_conditional_map(root)
        if any(abs(l) > 1.0 + 1e-9 for l in triple):
            continue
        if balance_residual(triple) < 1e-7:
            best = max(best, triple[0])
    if not np.isfinite(best):
        raise RuntimeError("numeric NS verification failed to converge")
    amplitude = ns_conditional_map(params)[0]
    if best > amplitude + 1e-6:
        raise RuntimeError(
            f"numeric search found balanced amplitude {best}, above the "
            f"closed form {amplitude}"
        )
    if abs(best - amplitude) > 1e-6:
        raise RuntimeError(f"numeric search converged to {best}, far from {amplitude}")


def _check_biased_point(params: BiasedNsParameters) -> None:
    """Raise unless ``params`` is balanced and a Newton solve of the two
    balance equations from (0.2, 0.8) lands on it to 1e-9, rather than on
    the degenerate eta2 = 1/2, eta7 = 1 root where l1 vanishes."""
    lams = biased_ns_amplitudes(params)
    if balance_residual(lams) > 1e-12:
        raise RuntimeError(f"biased closed form unbalanced: {lams}")

    def residuals(x):
        e2 = min(max(x[0], 0.0), 1.0)
        e7 = min(max(x[1], 0.0), 1.0)
        a0, a1, a2 = biased_ns_amplitudes(BiasedNsParameters(e2, e7))
        return [a0 - a1, a0 + a2]

    root = _newton(residuals, (0.2, 0.8), 1e-13)
    if root is None:
        raise RuntimeError("numeric cross-check of biased solution failed")
    e2, e7 = root
    if abs(e2 - params.eta2) > 1e-9 or abs(e7 - params.eta7) > 1e-9:
        raise RuntimeError(f"numeric root ({e2}, {e7}) disagrees with the closed form")
    if abs(biased_ns_amplitudes(BiasedNsParameters(e2, e7))[1]) < 1e-6:
        raise RuntimeError("root-find landed on the degenerate l1 = 0 point")


def test_operating_point_constants_are_the_closed_forms():
    assert ETA2_NS == pytest.approx(3.0 - 2.0 * SQRT2, abs=1e-15)
    assert ETA13_NS == pytest.approx(1.0 / (4.0 - 2.0 * SQRT2), abs=1e-15)
    assert ETA2_BIASED == pytest.approx((3.0 - SQRT2) / 7.0, abs=1e-15)
    assert ETA7_BIASED == pytest.approx(5.0 - 3.0 * SQRT2, abs=1e-15)


def test_parameter_containers_validate_range():
    with pytest.raises(ValueError):
        NsParameters(1.2, 0.2, 0.8)
    with pytest.raises(ValueError):
        BiasedNsParameters(-0.1, 0.5)


def test_optimal_map_is_half_half_minus_half():
    lams = ns_conditional_map(optimal_ns_parameters())
    assert lams[0] == pytest.approx(0.5, abs=1e-14)
    assert lams[1] == pytest.approx(0.5, abs=1e-14)
    assert lams[2] == pytest.approx(-0.5, abs=1e-14)


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


def test_closed_forms_pass_both_numeric_checks():
    _check_ns_point(optimal_ns_parameters())
    _check_biased_point(balanced_biased_parameters())


def test_numeric_ns_check_evaluates_the_map_once_per_point(monkeypatch):
    calls = []
    real_map = ns_conditional_map

    def counting_map(p):
        calls.append(p)
        return real_map(p)

    monkeypatch.setitem(globals(), "ns_conditional_map", counting_map)
    _check_ns_point(optimal_ns_parameters())
    # 1663 when each of two scalar balance constraints evaluated it twice
    assert len(calls) < 1000


@pytest.mark.parametrize(
    "eta13, message",
    [
        (0.9, "above the closed form"),  # vacuum amplitude 0.473
        (0.8, "far from"),  # vacuum amplitude 0.531
    ],
)
def test_numeric_ns_check_rejects_a_wrong_closed_form(eta13, message):
    with pytest.raises(RuntimeError, match=message):
        _check_ns_point(NsParameters(eta13, ETA2_NS, eta13))


@pytest.mark.parametrize("root", [None, NsParameters(0.5, 0.5, 0.5)])
def test_numeric_ns_check_fails_when_no_start_reaches_a_balanced_point(
    monkeypatch, root
):
    # None: no start converges; (0.5, 0.5, 0.5) is far from balanced
    monkeypatch.setitem(globals(), "_ns_lagrange_root", lambda eta0: root)
    with pytest.raises(RuntimeError, match="numeric NS verification failed to converge"):
        _check_ns_point(optimal_ns_parameters())


@pytest.mark.parametrize(
    "closed_form, root, message",
    [
        ((0.5, 0.5), (0.2, 0.8), r"biased closed form unbalanced"),
        ((ETA2_BIASED, ETA7_BIASED), None, r"numeric cross-check .* failed"),
        ((ETA2_BIASED, ETA7_BIASED), (0.5, 1.0), r"disagrees with the closed form"),
        # (0, 0) is balanced, and the root agrees with it, but l1 vanishes there
        ((0.0, 0.0), (0.0, 0.0), r"degenerate l1 = 0 point"),
    ],
)
def test_biased_solver_guards(monkeypatch, closed_form, root, message):
    found = None if root is None else np.array(root)
    monkeypatch.setitem(globals(), "_newton", lambda f, x0, tol: found)
    with pytest.raises(RuntimeError, match=message):
        _check_biased_point(BiasedNsParameters(*closed_form))


@pytest.mark.parametrize("start", _NS_STARTS)
def test_each_numeric_ns_start_reaches_the_closed_form(start):
    p = _ns_lagrange_root(start)
    assert p is not None
    assert abs(p.eta1 - ETA13_NS) < 1e-9
    assert abs(p.eta2 - ETA2_NS) < 1e-9
    assert abs(p.eta3 - ETA13_NS) < 1e-9


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


@pytest.mark.parametrize(
    "f, x0, tol, n_calls",
    [
        # f ignores x[1]: the Jacobian's second column is exactly zero, so
        # the first solve fails after f(x0) and two difference columns
        (lambda x: [x[0] - 1.0, x[0] - 2.0], (0.0, 0.0), 1e-10, 3),
        # |x| + 1 has its minimum 1 at the start: f(x0), one difference
        # column and every halving of the step, none of which lowers ||f||
        (lambda x: [abs(x[0]) + 1.0], (0.0,), 1e-10, 2 + _MAX_HALVINGS),
        # exp(x) falls by ~1/e per step and never reaches the tolerance:
        # f(x0), then one difference column and one full step per step
        (lambda x: [np.exp(x[0])], (0.0,), 1e-30, 1 + 2 * _MAX_STEPS),
    ],
    ids=["singular-jacobian", "no-halving-lowers-norm", "step-cap"],
)
def test_newton_reports_each_failed_start_as_none(f, x0, tol, n_calls):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    assert _newton(counted, x0, tol) is None
    assert len(calls) == n_calls


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
