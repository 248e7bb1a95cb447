"""Gate verification: truth tables, moments, Bell outputs, interior
states, dual-path consistency, and the sensitivity sweep."""

import cmath
import dataclasses
import importlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BELL_ASSIGNMENT,
    WORST_ERROR_ABS_CORNERS_002,
    WORST_ERROR_REL_CORNERS_002,
)
from loqc import verify
from loqc.elements import compose_transfer_matrix
from loqc.evolve import AmplitudeQuery, evolve, oracle_amplitude, permanent
from loqc.fock import basis_state, enumerate_basis
from loqc.gates import (
    BASIS_INPUTS,
    CNOT_IMAGE,
    ETA2_BIASED,
    GATE_NAMES,
    build_cnot_circuit,
    build_simplified_cnot,
    decode_logical,
    encode_logical,
    gate_by_name,
    logical_pair,
)
from loqc.verify import (
    CNOT_SUCCESS,
    SIMPLIFIED_SUCCESS,
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
    evolve_module = importlib.import_module("loqc.evolve")
    kets_in = []
    real_apply = evolve_module.apply_element

    def counting_apply(state, element):
        kets_in.append(len(state.amplitudes))
        return real_apply(state, element)

    monkeypatch.setattr(evolve_module, "apply_element", counting_apply)
    assert truth_table("cnot")["passed"]
    assert sum(kets_in) <= 300


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
            p_h, s_h = conditioned_logical_output(
                gate, logical_pair(label), "heralded"
            )
            p_c, s_c = conditioned_logical_output(
                gate, logical_pair(label), "coincidence"
            )
            assert p_h == pytest.approx(p_c, abs=1e-12)
            diff = s_h - s_c
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
def _bunched_matrices(draw):
    """A stack of k x k complex matrices with |m_ij| <= 1, k = 1..4, whose
    columns may repeat as a bunched input's do."""
    k = draw(st.integers(1, 4))
    entry = st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
    stack = []
    for _ in range(draw(st.integers(1, 3))):
        base = [[draw(entry) for _ in range(k)] for _ in range(k)]
        cols = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
        stack.append([[row[c] for c in cols] for row in base])
    return np.array(stack, dtype=complex)


@settings(max_examples=200, deadline=None)
@given(_bunched_matrices())
def test_glynn_permanents_match_the_permutation_expansion(stack):
    glynn = verify._glynn_permanents(stack)
    assert glynn.shape == stack.shape[:1]
    for value, matrix in zip(glynn, stack):
        assert abs(value - permanent(matrix)) < 1e-12


def test_moment_tables_signal_and_cross():
    for label in BASIS_INPUTS:
        table = moment_table("cnot", label)
        image = CNOT_IMAGE[label]
        assert table[image] == pytest.approx(CNOT_SUCCESS, abs=1e-10)
        for combo, value in table.items():
            if combo != image:
                assert value < 1e-12
        assert sum(table.values()) == pytest.approx(CNOT_SUCCESS, abs=1e-12)


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
    with pytest.raises(ValueError, match="no closed-form state at cut 'z' for cnot"):
        reference_interior_state("cnot", "z", "HH")
    with pytest.raises(ValueError, match="at cut 'x' for cnot-simplified"):
        reference_interior_state("cnot-simplified", "x", "HH")
    with pytest.raises(ValueError, match="no interior states defined for gate 'ns'"):
        reference_interior_state("ns", "x", "HH")


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
    for upto in {None, *circuit.cuts.values()}:
        transfer = compose_transfer_matrix(circuit, upto)
        for state in inputs:
            (input_occ,) = state.amplitudes
            out = evolve(state, circuit, upto=upto)
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
        circuit = dataclasses.replace(
            base,
            elements=tuple(
                dataclasses.replace(el, reflectivity=eta)
                for el, eta in zip(base.elements, etas, strict=True)
            ),
        )
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


def test_sweep_raises_when_batched_and_sparse_paths_disagree(monkeypatch):
    batched = verify._batched_logical_errors

    def skewed(base, etas):
        errors, probabilities = batched(base, etas)
        return errors + 1e-9, probabilities

    monkeypatch.setattr(verify, "_batched_logical_errors", skewed)
    with pytest.raises(RuntimeError, match="differ by"):
        sensitivity_sweep("cnot-simplified", model="absolute", magnitude=0.02, mode="corners")


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
