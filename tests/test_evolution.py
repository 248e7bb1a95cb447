"""Multiphoton state evolution and the permanent-based amplitude oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_circuit, random_occupation, random_state
from loqc.elements import (
    Beamsplitter,
    Circuit,
    beamsplitter_matrix,
    compose_transfer_matrix,
    transfer_matrices,
)
from loqc.evolve import (
    MAX_PHOTONS,
    AmplitudeQuery,
    _pair_transition,
    apply_element,
    evolve,
    oracle_amplitude,
    permanent,
)
from loqc.fock import FockStateVector, basis_state, enumerate_basis, make_state
from loqc.gates import build_cnot_circuit, encode_logical, logical_pair
from loqc.postselect import DetectionPattern, condition

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
    partial = evolve(state, c.prefix(1))
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


def _pair_transition_on_numpy_scalars(reflectivity, grey_port, n, m):
    # the sum as it ran on the numpy scalars of beamsplitter_matrix's block
    mat = beamsplitter_matrix(reflectivity, grey_port)
    sums = {}
    for p in range(n + 1):
        for q in range(m + 1):
            w = (
                math.comb(n, p)
                * math.comb(m, q)
                * mat[0, 0] ** p
                * mat[1, 0] ** (n - p)
                * mat[0, 1] ** q
                * mat[1, 1] ** (m - q)
            )
            sums[p + q] = sums.get(p + q, 0.0) + w
    norm = math.factorial(n) * math.factorial(m)
    return tuple(
        sorted(
            (k, w * math.sqrt(math.factorial(k) * math.factorial(n + m - k) / norm))
            for k, w in sums.items()
        )
    )


def test_pair_transition_on_floats_keeps_every_bit():
    etas = [0.0, 1.0, 0.5, *RNG.uniform(0.0, 1.0, 40).tolist()]
    for eta in etas:
        for grey_port in (0, 1):
            for n in range(MAX_PHOTONS + 1):
                for m in range(MAX_PHOTONS + 1 - n):
                    got = _pair_transition(eta, grey_port, n, m)
                    expected = _pair_transition_on_numpy_scalars(eta, grey_port, n, m)
                    assert all(type(c) is float for _, c in got)
                    assert repr(got) == repr(
                        tuple((k, float(c)) for k, c in expected)
                    )


def test_evolve_validates_the_keep_pattern():
    with pytest.raises(ValueError, match="outside"):
        evolve(basis_state(2, (1, 1)), PAIR, keep=DetectionPattern(exact={2: 0}))
    group = DetectionPattern(groups=(((0, 5), 1),))
    with pytest.raises(ValueError, match="outside"):
        evolve(basis_state(2, (1, 1)), PAIR, keep=group)


def test_evolve_guards_sector_and_photon_cap():
    with pytest.raises(ValueError):
        evolve(basis_state(3, (1, 0, 0)), PAIR)
    too_many = basis_state(2, (MAX_PHOTONS + 1, 0))
    with pytest.raises(ValueError):
        evolve(too_many, PAIR)


@pytest.mark.parametrize(
    "input_occ, output_occ, message",
    [
        ((1, 0, 0), (1, 0), "occupations must have 2 modes, got 3 and 2"),
        ((1, 0), (1, 0, 0), "occupations must have 2 modes, got 2 and 3"),
        ((1, 0), (1, 1), "photon number not conserved: 1 in, 2 out"),
        (
            (MAX_PHOTONS + 1, 0),
            (0, MAX_PHOTONS + 1),
            f"{MAX_PHOTONS + 1} photons exceeds the supported maximum of {MAX_PHOTONS}",
        ),
        ((1, True), (True, 1), "occupation (1, True) must hold non-negative integers"),
        ((2, -1), (1, 0), "occupation (2, -1) must hold non-negative integers"),
        ((1.0, 0), (1, 0), "occupation (1.0, 0) must hold non-negative integers"),
        ((1, 0), ("1", 0), "occupation ('1', 0) must hold non-negative integers"),
    ],
    ids=["input-modes", "output-modes", "photon-conservation", "photon-cap",
         "bool-entry", "negative-entry", "float-entry", "string-entry"],
)
def test_oracle_rejects_bad_queries(input_occ, output_occ, message):
    query = AmplitudeQuery(np.eye(2), input_occ, output_occ)
    with pytest.raises(ValueError) as err:
        oracle_amplitude(query)
    assert str(err.value) == message


def test_oracle_refuses_a_transfer_matrix_that_is_not_square():
    # the CNOT's six lit columns: an 8 x 6 block whose rows and columns no
    # longer name the same modes, so neither it nor its transpose is a
    # circuit's transfer matrix, although both gave 0.25 for HH unchecked
    cnot = build_cnot_circuit()
    etas = np.array([[el.reflectivity for el in cnot.elements]])
    lit = transfer_matrices(cnot, etas, range(6))[0]
    hh = next(iter(encode_logical(logical_pair("HH"), cnot).amplitudes))
    for u, occ in ((lit, hh), (lit.T, hh[:6]), (lit[0], hh), (lit[None], hh)):
        with pytest.raises(ValueError) as err:
            oracle_amplitude(AmplitudeQuery(u, occ, occ))
        assert str(err.value) == (
            f"transfer matrix must be square, got shape {u.shape}"
        )


# a negative mode is refused when the element is built (test_elements.py)
@pytest.mark.parametrize("element, bad", [(Beamsplitter(0, 2, 0.5, grey=2), 2)])
def test_apply_element_rejects_a_mode_outside_the_state(element, bad):
    with pytest.raises(ValueError) as err:
        apply_element(basis_state(2, (1, 1)), element)
    assert str(err.value) == f"element mode {bad} outside 0..1"


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


def _draw_circuit(draw, reflectivity) -> Circuit:
    """A beamsplitter circuit on 2..6 modes with 1..8 elements, each
    reflectivity drawn from the strategy ``reflectivity``."""
    n = draw(st.integers(2, 6))
    mode = st.integers(0, n - 1)
    elements = []
    for i in range(draw(st.integers(1, 8))):
        a, b = draw(st.lists(mode, min_size=2, max_size=2, unique=True))
        eta = draw(reflectivity)
        grey = draw(st.sampled_from((a, b)))
        elements.append(Beamsplitter(a, b, eta, grey, label=f"r{i}"))
    return Circuit(n, tuple(f"m{j}" for j in range(n)), tuple(elements))


@st.composite
def _circuit_state_and_pattern(draw):
    """A beamsplitter circuit on <= 6 modes, a random state of <= 4 photons
    and an exact-count detection pattern on some of its modes."""
    circuit = _draw_circuit(draw, st.floats(0.0, 1.0))
    n = circuit.n_modes
    mode = st.integers(0, n - 1)
    seed = draw(st.integers(0, 2**32 - 1))
    state = random_state(np.random.default_rng(seed), n, draw(st.integers(0, 4)))
    detected = draw(st.lists(mode, unique=True, max_size=n))
    pattern = DetectionPattern(exact={m: draw(st.integers(0, 2)) for m in detected})
    return circuit, state, pattern


def _assert_passes_public_validation(state: FockStateVector) -> None:
    rebuilt = FockStateVector(
        state.n_modes, state.total_photons, dict(state.amplitudes)
    )
    assert rebuilt == state
    assert all(type(a) is complex for a in state.amplitudes.values())


@settings(max_examples=150, deadline=None, database=None)
@given(_circuit_state_and_pattern())
def test_trusted_states_pass_public_validation(case):
    # evolve, condition, normalized and + build their results without
    # re-validating each ket; every one must equal its validated rebuild
    circuit, state, pattern = case
    out = evolve(state, circuit)
    _assert_passes_public_validation(out)
    assert out.total_photons == state.total_photons
    assert abs(out.norm_sq - 1.0) < 1e-12
    _assert_passes_public_validation((0.5 * out).normalized())
    _assert_passes_public_validation(out + state)
    outcome = condition(out, pattern)
    _assert_passes_public_validation(outcome.reduced)
    if outcome.normalized is not None:
        _assert_passes_public_validation(outcome.normalized)
        assert abs(outcome.normalized.norm_sq - 1.0) < 1e-12


@st.composite
def _keep_case(draw):
    """A circuit on <= 6 modes with reflectivities 0, 1, 1/2 or uniform, an
    input of <= 4 photons (one basis ket, bunched ones included, or a
    random superposition), a prefix of the circuit (possibly all of it) and
    a pattern of exact counts with or without one group."""
    circuit = _draw_circuit(
        draw, st.one_of(st.sampled_from((0.0, 1.0, 0.5)), st.floats(0.0, 1.0))
    )
    n = circuit.n_modes
    total = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        state = basis_state(n, random_occupation(rng, n, total))
    else:
        state = random_state(rng, n, total)
    circuit = circuit.prefix(draw(st.integers(0, len(circuit.elements))))
    modes = draw(st.permutations(range(n)))
    n_exact = draw(st.integers(0, n))
    exact = {m: draw(st.integers(0, 2)) for m in modes[:n_exact]}
    groups = ()
    if n_exact < n and draw(st.booleans()):
        group = modes[n_exact : n_exact + draw(st.integers(1, n - n_exact))]
        groups = ((tuple(group), draw(st.integers(0, 4))),)
    return circuit, state, DetectionPattern(exact=exact, groups=groups)


def _items(state: FockStateVector | None):
    return None if state is None else list(state.amplitudes.items())


@settings(max_examples=300, deadline=None, database=None)
@given(_keep_case())
def test_keep_drops_only_kets_the_pattern_rejects(case):
    # condition after a kept evolution equals condition after the full
    # one bit for bit, dict order included; keep=None is the full state
    circuit, state, pattern = case
    full = evolve(state, circuit)
    stepwise = state
    for el in circuit.elements:
        stepwise = apply_element(stepwise, el)
    assert _items(full) == _items(stepwise)
    kept = evolve(state, circuit, keep=pattern)
    expected, got = condition(full, pattern), condition(kept, pattern)
    assert got.probability == expected.probability
    assert _items(got.reduced) == _items(expected.reduced)
    assert _items(got.normalized) == _items(expected.normalized)
    assert got.kept_modes == expected.kept_modes
