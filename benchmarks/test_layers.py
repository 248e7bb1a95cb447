"""Layer benchmarks (pytest-benchmark), outside the tier-1 suite.

Run from the root of a checkout:

    python -m pytest benchmarks --benchmark-only

``testpaths`` in ``pyproject.toml`` names only ``tests/``, so a plain
``python -m pytest`` does not collect these. Each benchmark also asserts
its result, so a fast wrong answer fails.
"""

import contextlib
import io

import numpy as np
import pytest

from loqc import cli, verify
from loqc.elements import compose_transfer_matrix, transfer_matrices
from loqc.evolve import apply_element, evolve, permanent
from loqc.fock import enumerate_basis
from loqc.gates import (
    BASIS_INPUTS,
    encode_logical,
    gate_by_name,
    logical_pair,
)
from loqc.postselect import condition
from loqc.verify import CNOT_SUCCESS, truth_table

CNOT = gate_by_name("cnot")
# all 1024 sign corners of the CNOT's absolute sweep at magnitude 0.02
ALL_CORNER_ETAS = verify._perturbed_etas(
    CNOT, verify._corner_deltas(0.02, len(CNOT.elements)), "absolute"
)
# the first 128 of them
CORNER_ETAS = ALL_CORNER_ETAS[:128]

# sweep record 86, the absolute model's worst corner (error 3.04e-2 at VH)
WORST_CORNER = verify._perturbed_circuit(CNOT, CORNER_ETAS[86].tolist())
# the four corners that tie at that worst error
TIED_CORNERS = (86, 424, 599, 937)


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


def test_sweep_csv_write(benchmark, tmp_path):
    # the sweep-random operation: 1000 relative samples, one CSV row each
    csv_path = tmp_path / "sweep.csv"
    args = ["sweep", "--model", "relative", "--magnitude", "0.02", "--mode",
            "random", "--samples", "1000", "--csv", str(csv_path)]

    def sweep():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(args)

    assert benchmark(sweep) == 0
    assert csv_path.read_bytes().count(b"\r\n") == 1 + 1000


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


def test_sweep_setup_cnot(benchmark):
    # what a corner sweep builds before its arithmetic: the corner deltas,
    # and the heralded sector with the inputs' Glynn rows, columns and norms
    def setup():
        deltas = verify._corner_deltas(0.02, len(CNOT.elements))
        return deltas, verify._heralded_amplitudes(CNOT)

    deltas, (sector, images, amplitudes) = benchmark(setup)
    # corner i holds +0.02 on as many splitters as i has set bits
    assert (np.abs(deltas) == 0.02).all()
    assert (deltas > 0).sum(axis=1).tolist() == [i.bit_count() for i in range(1024)]
    assert sector == [
        occ for occ in enumerate_basis(CNOT.n_modes, 4) if CNOT.detection.matches(occ)
    ]
    # at the nominal point every input lands on its image with weight 1/16
    amps = amplitudes(compose_transfer_matrix(CNOT)[np.newaxis])
    weights = np.abs(amps[0, range(len(BASIS_INPUTS)), images]) ** 2
    assert np.max(np.abs(weights - CNOT_SUCCESS)) < 1e-12


def test_batched_logical_errors_b128(benchmark):
    errors, probabilities = benchmark(verify._batched_logical_errors, CNOT, CORNER_ETAS)
    assert errors.shape == probabilities.shape == (128, 4)
    # the last corner, checked against sparse evolution on every input
    circuit = verify._perturbed_circuit(CNOT, CORNER_ETAS[-1].tolist())
    for j, label in enumerate(BASIS_INPUTS):
        error, probability = verify._sparse_logical_error(circuit, label)
        assert abs(errors[-1, j] - error) < 1e-12
        assert abs(probabilities[-1, j] - probability) < 1e-12


def test_batched_logical_errors_b1024(benchmark):
    # the whole corner sweep, checked against sparse evolution on every
    # input of the four tied corners, which the batch must put within
    # 1e-12 of its maximum
    errors, probabilities = benchmark(
        verify._batched_logical_errors, CNOT, ALL_CORNER_ETAS
    )
    assert errors.shape == probabilities.shape == (1024, 4)
    run_worst = errors.max(axis=1)
    assert (run_worst[list(TIED_CORNERS)] >= run_worst.max() - 1e-12).all()
    for i in TIED_CORNERS:
        circuit = verify._perturbed_circuit(CNOT, ALL_CORNER_ETAS[i].tolist())
        for j, label in enumerate(BASIS_INPUTS):
            error, probability = verify._sparse_logical_error(circuit, label)
            assert abs(errors[i, j] - error) < 1e-12
            assert abs(probabilities[i, j] - probability) < 1e-12


def test_sweep_tie_heavy_random_absolute_0_9(benchmark, monkeypatch):
    # 1000 absolute random samples at magnitude 0.9 clamp many splitters to
    # 0 or 1: 543 vectors tie at error 1.0, on 1,251 (vector, input) pairs,
    # each evolved again by the sparse check
    pairs, vectors = [], []
    sparse_error = verify._sparse_logical_error
    perturbed_circuit = verify._perturbed_circuit

    def counted_pair(circuit, label):
        pairs.append(label)
        return sparse_error(circuit, label)

    def counted_vector(base, etas):
        vectors.append(etas)
        return perturbed_circuit(base, etas)

    monkeypatch.setattr(verify, "_sparse_logical_error", counted_pair)
    monkeypatch.setattr(verify, "_perturbed_circuit", counted_vector)

    def sweep():
        pairs.clear()
        vectors.clear()
        return verify.sensitivity_sweep("cnot", "absolute", 0.9, "random", 1000, 0)

    report = benchmark(sweep)
    assert report["worst_error"] == 1.0
    assert (len(pairs), len(vectors)) == (1251, 543)


def test_sweep_random_relative_20000(benchmark):
    # a long random sweep: 20 chunks of composed transfer matrices, the
    # working memory of one
    report = benchmark(
        verify.sensitivity_sweep, "cnot", "relative", 0.02, "random", 20000, 0
    )
    assert report["n_evaluations"] == 20000
    assert report["records"]["errors"].shape == (20000, 4)
    assert 0.0 < report["worst_error"] < 1e-2
