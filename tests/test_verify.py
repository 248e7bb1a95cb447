"""Gate verification: truth tables, moments, Bell outputs, interior
states, dual-path consistency, and the sensitivity sweep."""

import dataclasses
import math
import sys

import pytest

from conftest import (
    BELL_ASSIGNMENT,
    WORST_ERROR_ABS_CORNERS_002,
    WORST_ERROR_REL_CORNERS_002,
)
from loqc import verify
from loqc.gates import (
    BASIS_INPUTS,
    CNOT_IMAGE,
    ETA2_BIASED,
    build_cnot_circuit,
    build_simplified_cnot,
    decode_logical,
    gate_by_name,
    logical_pair,
)
from loqc.verify import (
    CNOT_SUCCESS,
    SIMPLIFIED_SUCCESS,
    bell_test,
    conditioned_logical_output,
    heisenberg_consistency,
    intermediate_state_check,
    moment_table,
    reference_interior_state,
    sensitivity_sweep,
    truth_table,
)


def test_truth_table_cnot_passes_all_checks():
    report = truth_table("cnot")
    assert report.passed
    for row in report.rows:
        assert row["decoded"] == CNOT_IMAGE[row["input"]]
        assert row["probability"] == pytest.approx(1.0 / 16.0, abs=1e-10)
        assert row["leakage"] < 1e-12
        assert row["row_error"] < 1e-12


def test_truth_table_simplified_passes_all_checks():
    report = truth_table("cnot-simplified")
    assert report.passed
    for row in report.rows:
        assert row["decoded"] == CNOT_IMAGE[row["input"]]
        assert row["probability"] == pytest.approx(ETA2_BIASED**2, abs=1e-12)


def test_truth_table_amplitude_signs():
    # the control-V rows pick up a physical minus sign relative to the
    # control-H rows; it is unobservable per basis input but pinned here
    expected_sign = {"HH": 1.0, "HV": 1.0, "VH": -1.0, "VV": -1.0}
    report = truth_table("cnot")
    for row in report.rows:
        amp = complex(row["amplitudes"][row["expected"]])
        phase = amp / abs(amp)
        assert phase.real == pytest.approx(expected_sign[row["input"]], abs=1e-10)
        assert phase.imag == pytest.approx(0.0, abs=1e-10)


def test_truth_table_evolves_each_input_once(monkeypatch):
    calls = []
    real_evolve = verify.evolve

    def counting_evolve(*args, **kwargs):
        calls.append(args)
        return real_evolve(*args, **kwargs)

    monkeypatch.setattr(verify, "evolve", counting_evolve)
    for conditioning in ("heralded", "coincidence"):
        calls.clear()
        assert truth_table("cnot", conditioning).passed
        assert len(calls) == len(BASIS_INPUTS)


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


def test_dual_path_consistency_all_gates():
    assert heisenberg_consistency("ns") < 1e-12
    assert heisenberg_consistency("ns-biased") < 1e-12
    assert heisenberg_consistency("cnot") < 1e-10
    assert heisenberg_consistency("cnot-simplified") < 1e-10


def test_sweep_zero_magnitude_has_zero_error():
    res = sensitivity_sweep("cnot", model="absolute", magnitude=0.0, mode="random", samples=4)
    assert res.worst_error < 1e-13
    assert res.mean_error < 1e-13


def test_sweep_corner_count_and_regression_values():
    res = sensitivity_sweep("cnot", model="absolute", magnitude=0.02, mode="corners")
    assert res.n_evaluations == 2**10
    assert res.worst_error == pytest.approx(WORST_ERROR_ABS_CORNERS_002, abs=1e-12)
    rel = sensitivity_sweep("cnot", model="relative", magnitude=0.02, mode="corners")
    assert rel.worst_error == pytest.approx(WORST_ERROR_REL_CORNERS_002, abs=1e-12)
    assert rel.worst_error < 1e-2


def test_sweep_random_mode_is_seeded_and_bounded():
    a = sensitivity_sweep("cnot", model="relative", magnitude=0.05, mode="random", samples=12, seed=5)
    b = sensitivity_sweep("cnot", model="relative", magnitude=0.05, mode="random", samples=12, seed=5)
    c = sensitivity_sweep("cnot", model="relative", magnitude=0.05, mode="random", samples=12, seed=6)
    assert a.worst_error == b.worst_error
    assert a.worst_error != c.worst_error
    assert a.n_evaluations == 12
    assert 0.0 <= a.mean_error <= a.worst_error <= 1.0


def test_sweep_clamps_reflectivities_to_physical_range():
    res = sensitivity_sweep("cnot", model="absolute", magnitude=0.9, mode="random", samples=6, seed=1)
    for record in res.records:
        for eta in record["etas"]:
            assert 0.0 <= eta <= 1.0
    assert 0.0 <= res.worst_error <= 1.0


def test_sweep_worst_error_is_monotone_in_magnitude():
    worst = [
        sensitivity_sweep("cnot", model="absolute", magnitude=m, mode="random", samples=16, seed=11).worst_error
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
    for record in res.records:
        circuit = dataclasses.replace(
            base,
            elements=tuple(
                dataclasses.replace(el, reflectivity=eta)
                for el, eta in zip(base.elements, record["etas"], strict=True)
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
            assert record["errors"][label] == pytest.approx(error, abs=1e-12)
            probabilities.append(probability)
        assert record["probability_min"] == pytest.approx(min(probabilities), abs=1e-12)
        assert record["probability_max"] == pytest.approx(max(probabilities), abs=1e-12)
        assert record["worst_error"] == max(record["errors"].values())
    if magnitude == 0.9:
        assert zero_probability > 0
        assert any(eta in (0.0, 1.0) for r in res.records for eta in r["etas"])
        assert res.worst_error == 1.0


def test_sweep_absolute_corner_ties_resolve_to_first_in_sweep_order():
    # four corners tie bit for bit at the worst error; the first in sweep
    # order (B4 slowest, B1 fastest, - before +) is reported
    base = build_cnot_circuit()
    res = sensitivity_sweep("cnot", model="absolute", magnitude=0.02, mode="corners")
    ties = [i for i, r in enumerate(res.records) if r["worst_error"] == res.worst_error]
    assert ties == [86, 424, 599, 937]
    assert res.worst_input == "VH"
    signs = "".join(
        "+" if res.worst_assignment[el.label] > el.reflectivity else "-"
        for el in base.elements
    )
    assert signs == "---+-+-++-"
    assert res.records[86]["etas"] == list(res.worst_assignment.values())


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
    assert result.n_evaluations == 2
