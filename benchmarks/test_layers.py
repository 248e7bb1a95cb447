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

from loqc import cli
from loqc.evolve import apply_element, evolve, permanent
from loqc.gates import encode_logical, gate_by_name, logical_pair, solve_optimal_ns
from loqc.postselect import condition
from loqc.verify import CNOT_SUCCESS

CNOT = gate_by_name("cnot")


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
    _, amplitude = benchmark(solve_optimal_ns, verify=True)
    assert abs(amplitude - 0.5) < 1e-12


def test_permanent_k4(benchmark):
    rng = np.random.default_rng(4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert benchmark(permanent, m) == pytest.approx(permanent(m.T))
