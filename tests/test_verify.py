"""Gate verification: truth tables, moments, Bell outputs, interior
states, dual-path consistency, and the sensitivity sweep."""

import cmath
import dataclasses
import itertools
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BELL_ASSIGNMENT,
    SWAPPED_RAILS,
    SWAPPED_RAILS_REFUSAL,
    WORST_ERROR_ABS_CORNERS_002,
    WORST_ERROR_REL_CORNERS_002,
    relabelled,
)
import loqc.evolve as evolve_module
from loqc import verify
from loqc.elements import Circuit, compose_transfer_matrix
from loqc.evolve import AmplitudeQuery, evolve, oracle_amplitude, permanent
from loqc.fock import PRUNE_TOL, basis_state, enumerate_basis
from loqc.gates import (
    BASIS_INPUTS,
    CNOT_IMAGE,
    CNOTS,
    ETA2_BIASED,
    GATE_NAMES,
    QUBIT_LABELS,
    build_cnot_circuit,
    build_simplified_cnot,
    decode_logical,
    dual_rail_ket,
    encode_logical,
    gate_by_name,
    logical_pair,
)
from loqc.postselect import DetectionPattern, condition
from loqc.verify import (
    bell_test,
    coincidence_pattern,
    conditioned_logical_output,
    heisenberg_consistency,
    intermediate_state_check,
    moment_report,
    moment_table,
    reference_interior_state,
    sensitivity_sweep,
    truth_table,
)

# each CNOT's success probability, stated apart from the gate table
CNOT_SUCCESS = 1.0 / 16.0
SIMPLIFIED_SUCCESS = ETA2_BIASED**2


def test_truth_table_cnot_passes_all_checks():
    report = truth_table("cnot")
    assert report["passed"]
    for row in report["rows"]:
        assert row["decoded"] == CNOT_IMAGE[row["input"]]
        assert row["probability"] == pytest.approx(1.0 / 16.0, abs=1e-10)
        assert row["leakage"] < 1e-12
        assert row["row_error"] < 1e-12


def test_truth_table_simplified_passes_all_checks():
    report = truth_table("cnot-simplified")
    assert report["passed"]
    for row in report["rows"]:
        assert row["decoded"] == CNOT_IMAGE[row["input"]]
        assert row["probability"] == pytest.approx(ETA2_BIASED**2, abs=1e-12)


def test_truth_table_amplitude_signs():
    # the control-V rows pick up a physical minus sign relative to the
    # control-H rows; it is unobservable per basis input but pinned here
    expected_sign = {"HH": 1.0, "HV": 1.0, "VH": -1.0, "VV": -1.0}
    report = truth_table("cnot")
    for row in report["rows"]:
        amp = complex(row["amplitudes"][row["expected"]])
        phase = amp / abs(amp)
        assert phase.real == pytest.approx(expected_sign[row["input"]], abs=1e-10)
        assert phase.imag == pytest.approx(0.0, abs=1e-10)


def test_truth_table_rejects_unknown_conditioning_and_gate():
    with pytest.raises(ValueError, match="unknown conditioning mode 'bogus'"):
        truth_table("cnot", "bogus")
    with pytest.raises(ValueError, match="no truth table defined for gate 'ns'"):
        truth_table("ns")


@pytest.mark.parametrize("gate", ["ns", "ns-biased"])
@pytest.mark.parametrize(
    "report",
    [
        truth_table,
        moment_report,
        lambda gate: moment_table(gate, "HH"),
        bell_test,
        lambda gate: intermediate_state_check(gate, "HH", "x"),
        sensitivity_sweep,
    ],
    ids=[
        "truth_table", "moment_report", "moment_table", "bell_test",
        "intermediate_state_check", "sweep",
    ],
)
def test_cnot_reports_refuse_a_gate_that_is_not_a_cnot(report, gate):
    message = (
        f"no truth table defined for gate '{gate}'; "
        "CNOT gates: cnot, cnot-simplified"
    )
    with pytest.raises(ValueError, match=message):
        report(gate)


def test_truth_table_evolves_each_input_once(monkeypatch):
    calls = []
    real_evolve = verify.evolve

    def counting_evolve(*args, **kwargs):
        calls.append(args)
        return real_evolve(*args, **kwargs)

    monkeypatch.setattr(verify, "evolve", counting_evolve)
    for conditioning in ("heralded", "coincidence"):
        calls.clear()
        assert truth_table("cnot", conditioning)["passed"]
        assert len(calls) == len(BASIS_INPUTS)


def test_truth_table_evolves_only_kets_the_heralds_can_keep(monkeypatch):
    # the full evolution of the four CNOT inputs sends 1,162 kets through
    # the splitters; dropping each unheralded branch once its detector
    # mode is settled leaves 234
    kets_in = []
    real_apply = evolve_module.apply_element

    def counting_apply(state, element):
        kets_in.append(len(state.amplitudes))
        return real_apply(state, element)

    monkeypatch.setattr(evolve_module, "apply_element", counting_apply)
    assert truth_table("cnot")["passed"]
    assert sum(kets_in) <= 300


@pytest.mark.parametrize("gate", ["cnot", "cnot-simplified"])
@pytest.mark.parametrize("conditioning", ["heralded", "coincidence"])
def test_truth_table_checks_are_the_maxima_of_their_columns(gate, conditioning):
    report = truth_table(gate, conditioning)
    expected_p = report["rows"][0]["expected_probability"]
    moments = report["moments"]
    columns = {
        "logical map (1 - image weight)": [r["row_error"] for r in report["rows"]],
        "success probability deviation": [
            abs(r["probability"] - expected_p) for r in report["rows"]
        ],
        "signal moment deviation": [
            abs(moments[label][CNOT_IMAGE[label]] - expected_p)
            for label in BASIS_INPUTS
        ],
        "cross moments": [
            value
            for label in BASIS_INPUTS
            for key, value in moments[label].items()
            if key != CNOT_IMAGE[label]
        ],
    }
    assert [c["name"] for c in report["checks"]] == list(columns)
    for c in report["checks"]:
        assert c["value"] == max(columns[c["name"]])
    assert report["max_deviation"] == max(c["value"] for c in report["checks"])


def test_check_passes_strictly_below_tolerance_unless_overridden():
    assert verify.check("c", 0.5, 1.0) == {
        "name": "c",
        "value": 0.5,
        "tolerance": 1.0,
        "pass": True,
    }
    assert verify.check("c", 1.0, 1.0)["pass"] is False
    assert verify.check("c", 1.0, 1.0, passed=True)["pass"] is True
    assert verify.check("c", 0.0, 1.0, passed=False)["pass"] is False


def test_conditioning_modes_agree_on_ideal_inputs():
    for gate in (build_cnot_circuit(), build_simplified_cnot()):
        for label in BASIS_INPUTS:
            state = encode_logical(logical_pair(label), gate)
            out = evolve(state, gate, keep=gate.detection)
            heralded = condition(out, gate.detection)
            coincidence = condition(out, coincidence_pattern(gate))
            assert heralded.probability == pytest.approx(
                coincidence.probability, abs=1e-12
            )
            diff = heralded.normalized - coincidence.normalized
            assert diff.norm_sq < 1e-24


@pytest.mark.parametrize("gate", ["cnot", "cnot-simplified"])
def test_coincidence_is_the_heralding_plus_one_photon_per_rail_pair(gate):
    circuit = gate_by_name(gate)
    pattern = coincidence_pattern(circuit)
    assert pattern.exact == circuit.detection.exact
    expected = set()
    for c_rail in ("c_H", "c_V"):
        for t_rail in ("t_H", "t_V"):
            occ = [0] * circuit.n_modes
            for label in (c_rail, t_rail, "a1", "a2"):
                occ[circuit.mode_index(label)] = 1
            expected.add(tuple(occ))
    kept = {occ for occ in enumerate_basis(circuit.n_modes, 4) if pattern.matches(occ)}
    assert kept == expected


def test_moment_report_checks_each_table_it_reports():
    full = moment_report("cnot")
    assert full["passed"]
    assert list(full["tables"]) == list(BASIS_INPUTS)
    assert full["expected_signal"] == CNOT_SUCCESS
    assert [c["name"] for c in full["checks"][:2]] == [
        "HH signal moment",
        "HH cross moments",
    ]
    one = moment_report("cnot-simplified", "VH")
    assert one["passed"]
    assert one["tables"] == {"VH": moment_table("cnot-simplified", "VH")}
    assert len(one["checks"]) == 2
    with pytest.raises(ValueError):
        moment_report("ns")


@st.composite
def _bunched_submatrices(draw):
    """A (B, n, n) stack of complex matrices with |u_ij| <= 1, and (K, k)
    row and (I, k) column index arrays, k = 1..4, whose rows and columns
    may repeat as a bunched output's and a bunched input's do."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    entry = st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
    index = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
    stack = [
        [[draw(entry) for _ in range(n)] for _ in range(n)]
        for _ in range(draw(st.integers(1, 2)))
    ]
    rows = draw(st.lists(index, min_size=1, max_size=3))
    cols = draw(st.lists(index, min_size=1, max_size=3))
    return np.array(stack, dtype=complex), np.array(rows), np.array(cols)


@settings(max_examples=200, deadline=None)
@given(_bunched_submatrices())
def test_glynn_permanents_match_the_permutation_expansion(drawn):
    stack, rows, cols = drawn
    glynn = verify._glynn_permanents(stack, rows, cols)
    assert glynn.shape == (len(stack), len(cols), len(rows))
    for u, per_input in zip(stack, glynn):
        for c, per_ket in zip(cols, per_input):
            for r, value in zip(rows, per_ket):
                assert abs(value - permanent(u[np.ix_(r, c)])) < 1e-12


@pytest.mark.parametrize("gate", ["cnot", "cnot-simplified"])
def test_batched_amplitudes_match_the_oracle_over_the_heralded_sector(gate):
    # complex amplitudes, phases included: the global phase makes every
    # one of them complex, and the bunched sector kets carry the norms
    base = gate_by_name(gate)
    corners = verify._corner_deltas(0.02, len(base.elements))
    etas = verify._perturbed_etas(base, corners[:: len(corners) // 8], "absolute")
    transfers = verify.transfer_matrices(base, etas) * np.exp(0.3j)
    sector, images, lit, amplitudes = verify._heralded_amplitudes(base)
    assert sector == verify._sector(base, base.detection, 4)
    # the rails and the NS ancillas carry photons in, the vacuum ports none
    assert lit == [base.mode_index(l) for l in QUBIT_LABELS + ("a1", "a2")]
    amps = amplitudes(transfers[..., lit])
    assert amps.shape == (8, len(BASIS_INPUTS), len(sector))
    rails = [base.mode_index(l) for l in QUBIT_LABELS]
    for i, label in enumerate(BASIS_INPUTS):
        image = sector[images[i]]
        assert dual_rail_ket(CNOT_IMAGE[label]) == tuple(image[m] for m in rails)
        input_occ = next(iter(encode_logical(logical_pair(label), base).amplitudes))
        for u, batch in zip(transfers, amps[:, i]):
            for out_occ, amp in zip(sector, batch):
                oracle = oracle_amplitude(AmplitudeQuery(u, input_occ, out_occ))
                assert abs(amp - oracle) < 1e-12


def test_moment_tables_signal_and_cross():
    for label in BASIS_INPUTS:
        table = moment_table("cnot", label)
        image = CNOT_IMAGE[label]
        assert table[image] == pytest.approx(CNOT_SUCCESS, abs=1e-10)
        for combo, value in table.items():
            if combo != image:
                assert value < 1e-12
        assert sum(table.values()) == pytest.approx(CNOT_SUCCESS, abs=1e-12)


@pytest.mark.parametrize("gate", ["cnot", "cnot-simplified"])
def test_moments_read_the_heralds_from_the_detection_pattern(gate):
    # the heralds are the modes where the pattern expects one photon,
    # whatever they are called
    circuit = gate_by_name(gate)
    renamed = dataclasses.replace(
        circuit,
        labels=tuple({"a1": "h1", "a2": "h2"}.get(l, l) for l in circuit.labels),
    )
    for label in BASIS_INPUTS:
        state = encode_logical(logical_pair(label), renamed)
        out = evolve(state, renamed, keep=renamed.detection)
        assert verify._moments(renamed, out) == moment_table(gate, label)


def test_moment_tables_simplified_signal_level():
    for label in BASIS_INPUTS:
        table = moment_table("cnot-simplified", label)
        assert table[CNOT_IMAGE[label]] == pytest.approx(
            SIMPLIFIED_SUCCESS, abs=1e-12
        )
        assert sum(table.values()) == pytest.approx(SIMPLIFIED_SUCCESS, abs=1e-12)


def test_bell_outputs_and_assignment():
    result = bell_test("cnot")
    assert result["passed"]
    seen = {}
    for entry in result["entries"]:
        assert entry["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert entry["purity"] == pytest.approx(0.5, abs=1e-10)
        assert entry["probability"] == pytest.approx(CNOT_SUCCESS, abs=1e-10)
        seen[entry["input"]] = entry["bell_state"]
    assert seen == BELL_ASSIGNMENT
    assert len(set(seen.values())) == 4


_AMPLITUDE = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)


@given(st.tuples(_AMPLITUDE, _AMPLITUDE, _AMPLITUDE, _AMPLITUDE), st.booleans())
def test_reduced_purity_is_the_trace_of_rho_squared(amps, normalized):
    # each amplitude within 1/2, so the pair's norm is at most 1
    psi = np.array(amps).reshape(2, 2)
    if normalized and np.linalg.norm(psi) > 0:
        psi = psi / np.linalg.norm(psi)
    rho = psi @ psi.conj().T
    reference = np.real(np.trace(rho @ rho))
    assert abs(verify._reduced_purity(*psi.ravel().tolist()) - reference) < 1e-12


@pytest.mark.parametrize("gate", ["cnot", "cnot-simplified"])
def test_fixed_point_reports_use_no_numpy_in_verify(gate, monkeypatch):
    # numpy in verify serves the sweep alone
    monkeypatch.setattr(verify, "np", None)
    assert verify.truth_table(gate)["passed"]
    assert verify.moment_report(gate)["passed"]
    assert verify.bell_test(gate)["passed"]
    for cut in CNOTS[gate][3]:
        for label in BASIS_INPUTS:
            assert verify.intermediate_state_check(gate, label, cut)["passed"]
    with pytest.raises(AttributeError):
        verify.sensitivity_sweep(gate)


def test_interior_states_match_closed_forms():
    for label in BASIS_INPUTS:
        for cut in ("x", "y"):
            res = intermediate_state_check("cnot", label, cut)
            assert res["passed"], res
            assert res["deviation"] < 1e-10
            assert abs(abs(res["global_phase"]) - 1.0) < 1e-12
        res = intermediate_state_check("cnot-simplified", label, "z")
        assert res["passed"], res
        assert res["deviation"] < 1e-10


def test_interior_reference_scales_with_conditional_amplitudes():
    # at the post-NS cut each arm contributes its occupation's conditional
    # amplitude; the two-photon kets therefore shrink by lambda_2/lambda_0
    base = reference_interior_state("cnot", "x", "VH")
    after = reference_interior_state("cnot", "y", "VH")
    ratio = after.amplitude((0, 2, 0, 0)) / base.amplitude((0, 2, 0, 0))
    single = after.amplitude((0, 1, 0, 1)) / base.amplitude((0, 1, 0, 1))
    assert ratio == pytest.approx(-0.25, abs=1e-12)
    assert single == pytest.approx(0.25, abs=1e-12)


def test_interior_state_check_rejects_unknown_cut_and_input():
    with pytest.raises(ValueError):
        intermediate_state_check("cnot", "HH", "z")
    with pytest.raises(ValueError):
        intermediate_state_check("cnot", "+H", "x")
    # one refusal of a cut, the one that the CLI prints, after the gate's
    # and before the label's
    for gate, cuts in (("cnot", "['x', 'y']"), ("cnot-simplified", "['y', 'z']")):
        message = f"gate {gate!r} has no cut 'q'; available: {cuts}"
        for label in ("HH", "+H"):
            with pytest.raises(ValueError, match=re.escape(message)):
                reference_interior_state(gate, "q", label)
            with pytest.raises(ValueError, match=re.escape(message)):
                intermediate_state_check(gate, label, "q")
    with pytest.raises(ValueError, match="no interior states defined for gate 'ns'"):
        reference_interior_state("ns", "q", "+H")
    with pytest.raises(ValueError, match="no truth table defined for gate 'ns'"):
        intermediate_state_check("ns", "+H", "q")


@pytest.mark.parametrize("label", ["+H", "XY", "H", "HHH"])
@pytest.mark.parametrize(
    "report",
    [
        lambda label: moment_report("cnot", label),
        lambda label: moment_table("cnot", label),
        lambda label: reference_interior_state("cnot", "x", label),
        lambda label: intermediate_state_check("cnot", label, "x"),
    ],
    ids=[
        "moment_report",
        "moment_table",
        "reference_interior_state",
        "intermediate_state_check",
    ],
)
def test_reports_refuse_a_label_that_is_not_a_basis_input(report, label):
    # one refusal, dual_rail_ket's, rather than a KeyError, an IndexError
    # or the control-V closed form
    with pytest.raises(ValueError, match=re.escape(f"unknown basis label {label!r}")):
        report(label)


def _filtered_sector(circuit, pattern, photons):
    # the rule _sector implements: the keep rule over the whole sector
    return [
        occ
        for occ in enumerate_basis(circuit.n_modes, photons)
        if pattern.matches(occ)
    ]


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_sector_is_the_keep_rule_over_the_whole_sector(gate):
    circuit = gate_by_name(gate)
    patterns = [circuit.detection]
    if gate in ("cnot", "cnot-simplified"):
        patterns.append(coincidence_pattern(circuit))
    for pattern in patterns:
        for photons in range(6):
            # lists, so the order counts too
            expected = _filtered_sector(circuit, pattern, photons)
            assert verify._sector(circuit, pattern, photons) == expected


@st.composite
def _patterns_on_few_modes(draw):
    """A mode count of at most 6 and a pattern on it: random exact counts
    and groups, over disjoint modes."""
    n = draw(st.integers(1, 6))
    modes = draw(st.permutations(range(n)))
    n_exact = draw(st.integers(0, n))
    exact = {m: draw(st.integers(0, 3)) for m in modes[:n_exact]}
    groups, rest = [], modes[n_exact:]
    while rest and draw(st.booleans()):
        size = draw(st.integers(1, len(rest)))
        groups.append((tuple(rest[:size]), draw(st.integers(0, 4))))
        rest = rest[size:]
    return n, DetectionPattern(exact=exact, groups=tuple(groups))


@settings(max_examples=200, deadline=None)
@given(_patterns_on_few_modes(), st.integers(0, 5))
def test_sector_is_the_keep_rule_for_random_patterns(drawn, photons):
    n, pattern = drawn
    circuit = Circuit(n, tuple(f"m{i}" for i in range(n)), ())
    expected = _filtered_sector(circuit, pattern, photons)
    assert verify._sector(circuit, pattern, photons) == expected


def test_dual_path_consistency_all_gates():
    assert heisenberg_consistency("ns") < 1e-12
    assert heisenberg_consistency("ns-biased") < 1e-12
    assert heisenberg_consistency("cnot") < 1e-10
    assert heisenberg_consistency("cnot-simplified") < 1e-10


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_evolution_matches_the_oracle_over_the_whole_sector_at_every_cut(gate):
    # complex amplitudes, phases included, on every ket of the output sector
    circuit = gate_by_name(gate)
    if gate in ("ns", "ns-biased"):
        inputs = [
            basis_state(circuit.n_modes, circuit.prepared_occupation({0: n}))
            for n in range(3)
        ]
    else:
        inputs = [encode_logical(logical_pair(l), circuit) for l in BASIS_INPUTS]
    cuts = CNOTS[gate][3].values() if gate in CNOTS else ()
    for upto in {len(circuit.elements), *(k for k, _ in cuts)}:
        prefix = circuit.prefix(upto)
        transfer = compose_transfer_matrix(prefix)
        for state in inputs:
            (input_occ,) = state.amplitudes
            out = evolve(state, prefix)
            for out_occ in enumerate_basis(circuit.n_modes, state.total_photons):
                query = AmplitudeQuery(transfer, input_occ, out_occ)
                assert abs(oracle_amplitude(query) - out.amplitude(out_occ)) < 1e-12


def test_dual_path_consistency_sees_a_sign_error(monkeypatch):
    # the CNOT check compares complex amplitudes, so a flipped sign shows
    oracle = verify.oracle_amplitude
    monkeypatch.setattr(verify, "oracle_amplitude", lambda query: -oracle(query))
    assert heisenberg_consistency("cnot") > 1e-10
    assert heisenberg_consistency("cnot-simplified") > 1e-10


def test_sweep_zero_magnitude_has_zero_error():
    res = sensitivity_sweep("cnot", model="absolute", magnitude=0.0, mode="random", samples=4)
    assert res["worst_error"] < 1e-13
    assert res["mean_error"] < 1e-13


@pytest.mark.parametrize("magnitude", [0.0, 0.02, 5e-324])
def test_corner_deltas_are_the_sign_product_bit_for_bit(magnitude):
    # compared as bytes, so that magnitude 0's -0.0 entries count
    for k in range(1, 11):
        expected = np.array(list(itertools.product((-magnitude, magnitude), repeat=k)))
        deltas = verify._corner_deltas(magnitude, k)
        assert (deltas.dtype, deltas.shape) == (expected.dtype, expected.shape)
        assert deltas.tobytes() == expected.tobytes()


def test_sweep_corner_count_and_regression_values():
    res = sensitivity_sweep("cnot", model="absolute", magnitude=0.02, mode="corners")
    assert res["n_evaluations"] == 2**10
    assert res["worst_error"] == pytest.approx(WORST_ERROR_ABS_CORNERS_002, abs=1e-12)
    rel = sensitivity_sweep("cnot", model="relative", magnitude=0.02, mode="corners")
    assert rel["worst_error"] == pytest.approx(WORST_ERROR_REL_CORNERS_002, abs=1e-12)
    assert rel["worst_error"] < 1e-2
    # the sweep carries its verdict: at magnitude <= 0.02 the worst error
    # must also be below 1e-2, which the absolute model misses
    names = ["errors within [0, 1]", "worst logical error below 1e-2"]
    assert [(c["name"], c["pass"]) for c in res["checks"]] == list(zip(names, [True, False]))
    assert res["passed"] is False
    assert [(c["name"], c["pass"]) for c in rel["checks"]] == list(zip(names, [True, True]))
    assert rel["passed"] is True


def test_sweep_random_mode_is_seeded_and_bounded():
    a = sensitivity_sweep("cnot", model="relative", magnitude=0.05, mode="random", samples=12, seed=5)
    b = sensitivity_sweep("cnot", model="relative", magnitude=0.05, mode="random", samples=12, seed=5)
    c = sensitivity_sweep("cnot", model="relative", magnitude=0.05, mode="random", samples=12, seed=6)
    assert a["worst_error"] == b["worst_error"]
    assert a["worst_error"] != c["worst_error"]
    assert a["n_evaluations"] == 12
    assert 0.0 <= a["mean_error"] <= a["worst_error"] <= 1.0
    # above magnitude 0.02 only the range is checked
    assert [c["name"] for c in a["checks"]] == ["errors within [0, 1]"]
    assert a["passed"] is True


def test_sweep_clamps_reflectivities_to_physical_range():
    res = sensitivity_sweep("cnot", model="absolute", magnitude=0.9, mode="random", samples=6, seed=1)
    for row in res["records"]["etas"].tolist():
        for eta in row:
            assert 0.0 <= eta <= 1.0
    assert 0.0 <= res["worst_error"] <= 1.0


def test_sweep_worst_error_is_monotone_in_magnitude():
    worst = [
        sensitivity_sweep("cnot", model="absolute", magnitude=m, mode="random", samples=16, seed=11)["worst_error"]
        for m in (1e-4, 1e-3, 1e-2)
    ]
    assert worst[0] <= worst[1] <= worst[2]
    assert worst[0] < 1e-5


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sensitivity_sweep("cnot", model="absolute", magnitude=-0.1, mode="corners")
    with pytest.raises(ValueError):
        sensitivity_sweep("cnot", model="sideways", magnitude=0.1, mode="corners")
    with pytest.raises(ValueError):
        sensitivity_sweep("cnot", model="absolute", magnitude=0.1, mode="grid")
    # refused before any work, not failed inside numpy or run with True as 1
    for kwargs in (
        {"mode": "random", "samples": True},
        {"mode": "random", "samples": 2.5},
        {"mode": "random", "seed": 1.5},
        {"magnitude": "0.02"},
        {"magnitude": True, "seed": True},
    ):
        with pytest.raises(ValueError, match="must be a non-negative integer|must be a real number"):
            sensitivity_sweep("cnot", **kwargs)
    # numpy would draw -1 samples as an empty sweep and refuse seed -1 itself
    for name in ("samples", "seed"):
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got -1$"):
            sensitivity_sweep("cnot", mode="random", **{name: -1})


@pytest.mark.parametrize("gate", ["cnot", "cnot-simplified"])
@pytest.mark.parametrize("model, magnitude", [("relative", 0.02), ("absolute", 0.9)])
def test_sweep_records_match_sparse_evolution(gate, model, magnitude):
    # every record of the batched sweep, re-derived input by input through
    # the sparse evolution; at 0.9 the clamped reflectivities (0 or 1)
    # leave some inputs with no heralded output at all, reported as error 1
    base = gate_by_name(gate)
    res = sensitivity_sweep(gate, model=model, magnitude=magnitude, mode="random", samples=24, seed=1)
    zero_probability = 0
    records = res["records"]
    for etas, errors, probs in zip(
        records["etas"].tolist(),
        records["errors"].tolist(),
        records["probabilities"].tolist(),
    ):
        circuit = base.with_reflectivities(etas)
        probabilities = []
        for label in BASIS_INPUTS:
            probability, state4 = conditioned_logical_output(circuit, logical_pair(label))
            if state4 is None:
                error = 1.0
                zero_probability += 1
            else:
                amps, _ = decode_logical(state4)
                error = 1.0 - abs(amps[BASIS_INPUTS.index(CNOT_IMAGE[label])]) ** 2
            assert errors[BASIS_INPUTS.index(label)] == pytest.approx(error, abs=1e-12)
            probabilities.append(probability)
        assert min(probs) == pytest.approx(min(probabilities), abs=1e-12)
        assert max(probs) == pytest.approx(max(probabilities), abs=1e-12)
    assert res["worst_error"] == records["errors"].max()
    if magnitude == 0.9:
        assert zero_probability > 0
        assert np.isin(records["etas"], (0.0, 1.0)).any()
        assert res["worst_error"] == 1.0


@pytest.mark.parametrize("gate", ["cnot", "cnot-simplified"])
@pytest.mark.parametrize("model", ["absolute", "relative"])
@pytest.mark.parametrize("magnitude", [0.0, 0.02, 0.9])
@pytest.mark.parametrize("mode", ["corners", "random"])
def test_sweep_records_hold_no_nan_and_no_negative_zero(gate, model, magnitude, mode):
    # errors are 1 - w or exactly 1.0, probabilities sums of squares from
    # +0.0; so numpy's row max and min (which --csv writes) pick the same
    # floats as Python's max and min, which keep the first of a tie
    records = sensitivity_sweep(
        gate, model=model, magnitude=magnitude, mode=mode, samples=200, seed=0
    )["records"]
    for key in ("errors", "probabilities"):
        values = records[key]
        assert not np.isnan(values).any()
        assert not (np.signbit(values) & (values == 0.0)).any()
        rows = values.tolist()
        for reduce, method in ((max, values.max), (min, values.min)):
            assert list(map(repr, method(axis=1).tolist())) == [
                repr(reduce(row)) for row in rows
            ]


def test_sweep_absolute_corner_ties_resolve_to_first_in_sweep_order():
    # four corners tie bit for bit at the worst error; the first in sweep
    # order (B4 slowest, B1 fastest, - before +) is reported
    base = build_cnot_circuit()
    res = sensitivity_sweep("cnot", model="absolute", magnitude=0.02, mode="corners")
    run_worst = res["records"]["errors"].max(axis=1)
    ties = np.flatnonzero(run_worst == res["worst_error"]).tolist()
    assert ties == [86, 424, 599, 937]
    assert res["worst_input"] == "VH"
    signs = "".join(
        "+" if res["worst_assignment"][el.label] > el.reflectivity else "-"
        for el in base.elements
    )
    assert signs == "---+-+-++-"
    assert res["records"]["etas"][86].tolist() == list(res["worst_assignment"].values())


def test_sweep_rederives_each_distinct_tied_vector_once(monkeypatch):
    # at magnitude 0 all 1024 corners are one reflectivity vector and tie
    calls = []
    conditioned = verify.conditioned_logical_output

    def counting(*args, **kwargs):
        calls.append(args)
        return conditioned(*args, **kwargs)

    monkeypatch.setattr(verify, "conditioned_logical_output", counting)
    res = sensitivity_sweep("cnot", model="absolute", magnitude=0.0, mode="corners")
    assert len(calls) == len(BASIS_INPUTS)
    assert res["n_evaluations"] == 2**10
    assert all((values == values[0]).all() for values in res["records"].values())
    assert res["worst_error"] < 1e-13
    assert res["worst_assignment"] == {
        el.label: el.reflectivity for el in build_cnot_circuit().elements
    }


def test_sweep_rederives_only_the_tied_vector_input_pairs(monkeypatch):
    # each of the four tied corners carries the worst error on one input,
    # and only those four cells are evolved again. The batch is lifted by
    # 1e-13, inside the 1e-12 check, so any cell the sweep did not replace
    # keeps the lifted value and every replaced one must be the sparse value
    base = build_cnot_circuit()
    batched = verify._batched_logical_errors

    def lifted(base, etas):
        errors, probabilities = batched(base, etas)
        return errors + 1e-13, probabilities + 1e-13

    calls = []
    conditioned = verify.conditioned_logical_output

    def counting(circuit, pair):
        calls.append((circuit, pair))
        return conditioned(circuit, pair)

    monkeypatch.setattr(verify, "_batched_logical_errors", lifted)
    monkeypatch.setattr(verify, "conditioned_logical_output", counting)
    res = sensitivity_sweep("cnot", model="absolute", magnitude=0.02, mode="corners")
    monkeypatch.undo()
    records = res["records"]
    rows = records["etas"].tolist()
    label_of = {logical_pair(label): label for label in BASIS_INPUTS}
    pairs = [
        (rows.index([el.reflectivity for el in circuit.elements]), label_of[pair])
        for circuit, pair in calls
    ]
    assert pairs == [(86, "VH"), (424, "VH"), (599, "VV"), (937, "VV")]
    errors, probabilities = lifted(base, records["etas"])
    for i, label in pairs:
        circuit = verify._perturbed_circuit(base, rows[i])
        j = BASIS_INPUTS.index(label)
        errors[i, j], probabilities[i, j] = verify._sparse_logical_error(circuit, label)
    assert np.array_equal(records["errors"], errors)
    assert np.array_equal(records["probabilities"], probabilities)
    assert res["worst_error"] == errors[86, BASIS_INPUTS.index("VH")]
    assert res["worst_input"] == "VH"


@pytest.mark.parametrize("gate", ["cnot", "cnot-simplified"])
@pytest.mark.parametrize("model", ["absolute", "relative"])
def test_every_input_of_every_tied_corner_matches_sparse_evolution(gate, model):
    # the sweep re-derives only the tied (vector, input) pairs; the other
    # inputs of a tied vector keep their batched values, which must still
    # agree with sparse evolution
    base = gate_by_name(gate)
    res = sensitivity_sweep(gate, model=model, magnitude=0.02, mode="corners")
    records = res["records"]
    run_worst = records["errors"].max(axis=1)
    tied = np.flatnonzero(run_worst >= run_worst.max() - 1e-12).tolist()
    for i in tied:
        circuit = verify._perturbed_circuit(base, records["etas"][i].tolist())
        for j, label in enumerate(BASIS_INPUTS):
            error, probability = verify._sparse_logical_error(circuit, label)
            assert abs(records["errors"][i, j] - error) <= 1e-12
            assert abs(records["probabilities"][i, j] - probability) <= 1e-12


@pytest.mark.parametrize("model", ["absolute", "relative"])
def test_every_cell_within_the_tie_window_holds_its_sparse_value(model):
    # the simplified CNOT's corners hold cells within 1e-12 of the batched
    # worst that are not at it exactly; each comes back from the sweep as
    # its sparse re-derivation, bit for bit, not as its batched value
    base = build_simplified_cnot()
    res = sensitivity_sweep("cnot-simplified", model=model, magnitude=0.02, mode="corners")
    records = res["records"]
    batched, _ = verify._batched_logical_errors(base, records["etas"])
    tied = np.argwhere(batched >= batched.max() - 1e-12).tolist()
    assert len(tied) > np.count_nonzero(batched == batched.max())
    for i, j in tied:
        circuit = verify._perturbed_circuit(base, records["etas"][i].tolist())
        error, probability = verify._sparse_logical_error(circuit, BASIS_INPUTS[j])
        assert (records["errors"][i, j], records["probabilities"][i, j]) == (
            error, probability
        )


def test_sweep_raises_when_batched_and_sparse_paths_disagree(monkeypatch):
    batched = verify._batched_logical_errors

    def skewed(base, etas):
        errors, probabilities = batched(base, etas)
        return errors + 1e-9, probabilities

    monkeypatch.setattr(verify, "_batched_logical_errors", skewed)
    with pytest.raises(RuntimeError, match=r"vector \d+ at input (HH|HV|VH|VV) differ by"):
        sensitivity_sweep("cnot-simplified", model="absolute", magnitude=0.02, mode="corners")


def test_sweep_raises_when_only_the_sparse_probability_disagrees(monkeypatch):
    # the agreement check covers the probability as well as the error, on
    # the sparse side of a random sweep
    sparse = verify._sparse_logical_error

    def skewed(circuit, label):
        error, probability = sparse(circuit, label)
        return error, probability + 1e-9

    monkeypatch.setattr(verify, "_sparse_logical_error", skewed)
    with pytest.raises(RuntimeError, match=r"vector \d+ at input (HH|HV|VH|VV) differ by"):
        sensitivity_sweep("cnot", model="relative", mode="random", samples=50)


@pytest.mark.parametrize(
    "gate, settings",
    [
        ("cnot", {f"NS{i}.eta{j}": float(j != 2) for i in (1, 2) for j in (1, 2, 3)}),
        ("cnot-simplified", {"B5": 0.0, "B6": 0.0}),
    ],
    ids=["cnot", "cnot-simplified"],
)
def test_batch_drops_a_sector_of_rounding_dust_as_sparse_evolution_does(
    gate, settings, monkeypatch
):
    # with these NS splitters no input is heralded; how much rounding dust
    # the permanents leave depends on the BLAS build, so 1e-15 is added to
    # each of them. Both paths drop amplitudes up to PRUNE_TOL, so each
    # input has probability 0 and error 1.0, not a ratio of dust
    glynn = verify._glynn_permanents
    monkeypatch.setattr(
        verify, "_glynn_permanents", lambda *args: glynn(*args) + 1e-15
    )
    base = gate_by_name(gate)
    etas = np.array([[settings.get(el.label, el.reflectivity) for el in base.elements]])
    _, _, lit, amplitudes = verify._heralded_amplitudes(base)
    dust = np.abs(amplitudes(verify.transfer_matrices(base, etas, lit)))
    assert 0.0 < dust.max() <= PRUNE_TOL
    errors, probabilities = verify._batched_logical_errors(base, etas)
    assert errors.tolist() == [[1.0] * 4] and probabilities.tolist() == [[0.0] * 4]
    circuit = verify._perturbed_circuit(base, etas[0].tolist())
    for label in BASIS_INPUTS:
        assert verify._sparse_logical_error(circuit, label) == (1.0, 0.0)


def test_batched_errors_ignore_a_global_phase_of_the_transfer_matrices(monkeypatch):
    # a global phase makes every heralded amplitude complex without
    # changing any probability, so errors and probabilities must not move
    base = build_cnot_circuit()
    corners = verify._corner_deltas(0.02, len(base.elements))
    etas = verify._perturbed_etas(base, corners[:16], "absolute")
    errors, probabilities = verify._batched_logical_errors(base, etas)
    real_matrices = verify.transfer_matrices
    monkeypatch.setattr(
        verify, "transfer_matrices", lambda *args: real_matrices(*args) * np.exp(0.3j)
    )
    phased_errors, phased_probabilities = verify._batched_logical_errors(base, etas)
    for phased, plain in ((phased_errors, errors), (phased_probabilities, probabilities)):
        assert phased.dtype == np.float64
        assert np.abs(phased - plain).max() <= 1e-12


def test_batched_errors_compose_the_transfer_matrices_by_chunk(monkeypatch):
    # 2,500 vectors are composed in chunks of 1,024, 1,024 and 452, and give
    # the records of a run that composes all 2,500 at once, bit for bit
    sizes = []
    real_matrices = verify.transfer_matrices

    def spy(base, etas, columns):
        sizes.append(len(etas))
        return real_matrices(base, etas, columns)

    monkeypatch.setattr(verify, "transfer_matrices", spy)
    chunked = sensitivity_sweep("cnot", "relative", 0.02, "random", 2500, 4)
    assert sizes == [1024, 1024, 452]
    sizes.clear()
    monkeypatch.setattr(verify, "_COMPOSE_CHUNK", 4096)
    whole = sensitivity_sweep("cnot", "relative", 0.02, "random", 2500, 4)
    assert sizes == [2500]
    for key, records in chunked["records"].items():
        assert records.tobytes() == whole["records"][key].tobytes()
    assert {k: v for k, v in chunked.items() if k != "records"} == {
        k: v for k, v in whole.items() if k != "records"
    }
    # the mean is the Python sum of the vectors' worst errors in sweep order
    run_worst = chunked["records"]["errors"].max(axis=1)
    assert chunked["mean_error"] == sum(run_worst.tolist()) / 2500


def test_batched_errors_read_the_lit_columns_by_position_not_by_mode():
    # the shipped CNOTs have their lit columns first, where a position and
    # its mode coincide; here the vacuum ports come first and the NS
    # ancillas sit between the rails, which keep their order
    base = relabelled(
        build_cnot_circuit(), ("v2", "v1", "c_H", "a2", "c_V", "t_H", "a1", "t_V")
    )
    assert verify._heralded_amplitudes(base)[2] == [2, 3, 4, 5, 6, 7]
    corners = verify._corner_deltas(0.02, len(base.elements))
    etas = verify._perturbed_etas(base, corners[:: len(corners) // 16], "absolute")
    errors, probabilities = verify._batched_logical_errors(base, etas)
    for row, errs, probs in zip(etas, errors, probabilities):
        circuit = verify._perturbed_circuit(base, row.tolist())
        for label, error, probability in zip(BASIS_INPUTS, errs, probs):
            sparse_error, sparse_probability = verify._sparse_logical_error(circuit, label)
            assert abs(error - sparse_error) < 1e-12
            assert abs(probability - sparse_probability) < 1e-12


def test_conditioned_output_refuses_rails_out_of_order():
    # decode_logical reads the conditioned rails by position: with the
    # target rails first, input HV would decode onto the VH ket, while the
    # batch, which reads them by label, reports error 0
    base = relabelled(build_cnot_circuit(), SWAPPED_RAILS)
    with pytest.raises(ValueError) as err:
        conditioned_logical_output(base, logical_pair("HV"))
    assert str(err.value) == SWAPPED_RAILS_REFUSAL


@pytest.mark.parametrize(
    "report",
    [
        truth_table,
        lambda gate: truth_table(gate, "coincidence"),
        moment_report,
        lambda gate: moment_table(gate, "HV"),
        bell_test,
        lambda gate: intermediate_state_check(gate, "HV", "y"),
        sensitivity_sweep,
    ],
    ids=[
        "truth_table", "truth_table-coincidence", "moment_report", "moment_table",
        "bell_test", "intermediate_state_check", "sweep",
    ],
)
def test_cnot_reports_refuse_rails_out_of_order(odd_cnots, report):
    # _cnot is the one refusal: unchecked, the truth table would decode HV
    # as VH and the moment tables, which read the rails by label, would pass
    with pytest.raises(ValueError) as err:
        report("cnot-swapped")
    assert str(err.value) == SWAPPED_RAILS_REFUSAL


def test_reports_on_a_cnot_that_heralds_nothing_fail_their_checks(odd_cnots):
    # every reflectivity 0: +V and -V herald with probability 0, and their
    # vanished outputs decode to zero amplitudes, as in the truth table
    bell = bell_test("cnot-dark")
    dark = [e for e in bell["entries"] if e["probability"] == 0.0]
    assert [e["input"] for e in dark] == ["+V", "-V"]
    for entry in dark:
        assert (entry["fidelity"], entry["purity"], entry["leakage"]) == (0.0, 0.0, 0.0)
    assert not bell["passed"]
    table = truth_table("cnot-dark")
    assert not table["passed"]
    dark = [row for row in table["rows"] if row["probability"] == 0.0]
    assert [row["input"] for row in dark] == ["HV", "VH", "VV"]
    for row in dark:
        assert row["row_error"] == 1.0
        assert set(row["amplitudes"].values()) == {0j}


def test_glynn_row_products_fit_under_the_mmap_threshold():
    # the kernel's largest temporary holds one block's row products,
    # (kets, block, inputs, sign vectors) doubles; above glibc's 128 KiB
    # mmap threshold each block would map fresh pages
    for gate in CNOTS:
        base = gate_by_name(gate)
        sector = verify._heralded_amplitudes(base)[0]
        photons = sum(sector[0])
        row_products = len(sector) * len(BASIS_INPUTS) * 2 ** (photons - 1) * 8
        assert row_products * verify._SWEEP_BLOCK < 128 * 1024


def test_perturbed_etas_perturb_the_deltas_in_place():
    base = build_cnot_circuit()
    nominal = np.array([el.reflectivity for el in base.elements])
    for model in ("absolute", "relative"):
        deltas = np.random.default_rng(5).uniform(-0.9, 0.9, (40, len(base.elements)))
        expected = nominal + deltas if model == "absolute" else nominal * (1.0 + deltas)
        etas = verify._perturbed_etas(base, deltas, model)
        assert np.shares_memory(etas, deltas)
        assert etas.tobytes() == np.minimum(np.maximum(expected, 0.0), 1.0).tobytes()


def test_corner_sweeps_take_any_real_magnitude_as_float64():
    # the corner deltas are float64 whatever the magnitude's type, so an
    # integer magnitude can be perturbed in place, and a float32 one gives
    # the sweep of its value as a Python float, not float32 reflectivities
    single = np.float32(0.02)
    for given, plain in ((0, 0.0), (1, 1.0), (single, float(single))):
        for model in ("absolute", "relative"):
            got = sensitivity_sweep("cnot", model, given, "corners")
            want = sensitivity_sweep("cnot", model, plain, "corners")
            wanted = want.pop("records")
            for key, records in got.pop("records").items():
                assert records.dtype == np.float64
                assert records.tobytes() == wanted[key].tobytes()
            assert got == want
    absolute = sensitivity_sweep("cnot", "absolute", single, "corners")
    assert absolute["worst_error"] == 0.030368716447040756


def test_sweep_memory_is_its_records_plus_a_fixed_allowance():
    # the working memory is one chunk of vectors, whatever the sample count:
    # the deltas are drawn into the array that becomes the records' etas,
    # the transfer matrices are composed a chunk at a time and the mean
    # error sums one float at a time, so the peak is the records (18
    # doubles a vector) plus an allowance that does not grow with the
    # sample count (~1.4 MB at both sizes)
    sensitivity_sweep("cnot", "relative", 0.02, "random", 10, 0)  # warm caches
    excess = []
    for samples in (20000, 100000):
        tracemalloc.start()
        try:
            report = sensitivity_sweep("cnot", "relative", 0.02, "random", samples, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        excess.append(peak - sum(a.nbytes for a in report["records"].values()))
    assert max(excess) < 3e6
    assert excess[1] < excess[0] + 0.5e6


def test_conditioned_output_needs_a_heralding_pattern():
    unheralded = dataclasses.replace(build_cnot_circuit(), detection=None)
    with pytest.raises(ValueError) as err:
        conditioned_logical_output(unheralded, logical_pair("HH"))
    assert str(err.value) == "circuit has no heralding detection pattern"


def test_sweep_rejects_non_finite_magnitude_and_empty_sweeps():
    for magnitude in (math.nan, math.inf):
        for mode in ("corners", "random"):
            with pytest.raises(ValueError, match="finite"):
                sensitivity_sweep("cnot", magnitude=magnitude, mode=mode)
    with pytest.raises(ValueError, match="evaluated no perturbations"):
        sensitivity_sweep("cnot", mode="random", samples=0)


def test_sweep_rejects_magnitude_whose_range_overflows():
    # a random draw spans 2 * magnitude, which is inf for 1e308
    for mode in ("corners", "random"):
        with pytest.raises(ValueError, match=r"2 \* magnitude finite"):
            sensitivity_sweep("cnot", magnitude=1e308, mode=mode)
    largest = sys.float_info.max / 2.0
    result = sensitivity_sweep("cnot", magnitude=largest, mode="random", samples=2)
    assert result["n_evaluations"] == 2
