"""Layer benchmarks (pytest-benchmark), outside the tier-1 suite.

Run from the root of a checkout:

    python -m pytest benchmarks --benchmark-only

``testpaths`` in ``pyproject.toml`` names only ``tests/``, so a plain
``python -m pytest`` does not collect these. Each benchmark also asserts
its result, so a fast wrong answer fails.
"""

import contextlib
import io
import itertools

import numpy as np
import pytest

from loqc import cli, verify
from loqc.elements import compose_transfer_matrix, transfer_matrices
from loqc.evolve import apply_element, evolve, permanent
from loqc.gates import (
    BASIS_INPUTS,
    ETA2_BIASED,
    ETA7_BIASED,
    encode_logical,
    gate_by_name,
    logical_pair,
    solve_biased_ns,
    solve_optimal_ns,
)
from loqc.postselect import condition
from loqc.verify import CNOT_SUCCESS, truth_table

CNOT = gate_by_name("cnot")
# the first 128 sign corners of the CNOT's absolute sweep at magnitude 0.02
CORNER_ETAS = verify._perturbed_etas(
    CNOT,
    np.array(list(itertools.product((-0.02, 0.02), repeat=len(CNOT.elements))))[:128],
    "absolute",
)

# sweep record 86, the absolute model's worst corner (error 3.04e-2 at VH)
WORST_CORNER = verify._perturbed_circuit(CNOT, CORNER_ETAS[86].tolist())


@pytest.fixture(scope="module")
def cnot_input():
    # 4 photons on 8 modes: the two logical qubits plus the NS ancillas
    return encode_logical(logical_pair("VH"), CNOT)


def test_apply_element_on_cnot_state(benchmark, cnot_input):
    # the last splitter, where the state is widest (130 kets in, 169 out)
    last = len(CNOT.elements) - 1
    state = evolve(cnot_input, CNOT, upto=last)
    out = benchmark(apply_element, state, CNOT.elements[last])
    assert out.total_photons == 4
    assert abs(out.norm_sq - 1.0) < 1e-12


def test_condition_on_cnot_output(benchmark, cnot_input):
    output = evolve(cnot_input, CNOT)
    outcome = benchmark(condition, output, CNOT.detection)
    assert abs(outcome.probability - CNOT_SUCCESS) < 1e-12


def test_cli_ns_verify(benchmark):
    def ns_verify():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["ns-verify"])

    assert benchmark(ns_verify) == 0


def test_solve_optimal_ns_with_numeric_check(benchmark):
    _, amplitude = benchmark(solve_optimal_ns)
    assert abs(amplitude - 0.5) < 1e-12


def test_solve_biased_ns_with_numeric_check(benchmark):
    p = benchmark(solve_biased_ns)
    assert abs(p.eta2 - ETA2_BIASED) < 1e-12
    assert abs(p.eta7 - ETA7_BIASED) < 1e-12


def test_evolve_through_cnot(benchmark, cnot_input):
    out = benchmark(evolve, cnot_input, CNOT)
    assert abs(out.norm_sq - 1.0) < 1e-12
    assert abs(condition(out, CNOT.detection).probability - CNOT_SUCCESS) < 1e-12


def test_heralded_evolution_of_worst_corner(benchmark):
    detection = WORST_CORNER.detection
    states = [
        encode_logical(logical_pair(label), WORST_CORNER) for label in BASIS_INPUTS
    ]

    def heralded():
        return [evolve(s, WORST_CORNER, keep=detection) for s in states]

    for state, out in zip(states, benchmark(heralded)):
        got = condition(out, detection)
        full = condition(evolve(state, WORST_CORNER), detection)
        assert got.probability == full.probability
        assert list(got.reduced.amplitudes.items()) == list(
            full.reduced.amplitudes.items()
        )
        assert list(got.normalized.amplitudes.items()) == list(
            full.normalized.amplitudes.items()
        )


def test_truth_table_cnot(benchmark):
    report = benchmark(truth_table, "cnot")
    assert report["passed"]
    assert report["max_deviation"] < 1e-10


def test_permanent_k4(benchmark):
    rng = np.random.default_rng(4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert benchmark(permanent, m) == pytest.approx(permanent(m.T))


def test_permanent_k6(benchmark):
    # the all-ones matrix has permanent k!
    assert benchmark(permanent, np.ones((6, 6))) == pytest.approx(720.0, abs=1e-9)


def test_compose_transfer_matrix_cnot(benchmark):
    u = benchmark(compose_transfer_matrix, CNOT)
    assert np.max(np.abs(u @ u.conj().T - np.eye(CNOT.n_modes))) < 1e-12


def test_transfer_matrices_b128(benchmark):
    u = benchmark(transfer_matrices, CNOT, CORNER_ETAS)
    assert u.shape == (128, CNOT.n_modes, CNOT.n_modes)
    gram = np.einsum("bij,bkj->bik", u, u)
    assert np.max(np.abs(gram - np.eye(CNOT.n_modes))) < 1e-12


def test_batched_logical_errors_b128(benchmark):
    errors, probabilities = benchmark(verify._batched_logical_errors, CNOT, CORNER_ETAS)
    assert errors.shape == probabilities.shape == (128, 4)
    # the last corner, checked against sparse evolution
    circuit = verify._perturbed_circuit(CNOT, CORNER_ETAS[-1].tolist())
    sparse_errors, sparse_probabilities = verify._sparse_logical_errors(circuit)
    assert np.max(np.abs(errors[-1] - sparse_errors)) < 1e-12
    assert np.max(np.abs(probabilities[-1] - sparse_probabilities)) < 1e-12
