"""Acceptance gate: every top-level claim, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 8 holds the 1e-2 robustness target to the two-percent
(relative) model, eta -> eta(1 +/- 0.02). The absolute model,
eta -> eta +/- 0.02, moves NS eta2 by about 11.7% and exceeds the target
(worst corner about 3.04e-2); the criterion checks that documented value
by recomputing the worst corner through the permanent oracle, and pins
both models' worst errors to 1e-12.
"""

import dataclasses
import json
import math

import numpy as np

from conftest import (
    BELL_ASSIGNMENT,
    WORST_ERROR_ABS_CORNERS_002,
    WORST_ERROR_REL_CORNERS_002,
    random_circuit,
    random_occupation,
    random_state,
)
from loqc.cli import main as cli_main
from loqc.elements import compose_transfer_matrix
from loqc.evolve import AmplitudeQuery, evolve, oracle_amplitude
from loqc.fock import basis_state, enumerate_basis
from loqc.gates import (
    BASIS_INPUTS,
    CNOT_IMAGE,
    QUBIT_LABELS,
    biased_ns_amplitudes,
    build_cnot_circuit,
    build_ns_circuit,
    conditional_map_by_evolution,
    dual_rail_ket,
    encode_logical,
    gate_by_name,
    logical_pair,
    ns_conditional_map,
    optimal_ns_parameters,
    solve_biased_ns,
)
from loqc.postselect import DetectionPattern, condition
from loqc.verify import (
    bell_test,
    heisenberg_consistency,
    intermediate_state_check,
    sensitivity_sweep,
    truth_table,
)

RNG = np.random.default_rng(20260815)
SQRT2 = math.sqrt(2.0)


def _line(n: int, ok: bool, text: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def test_criterion_1_ns_gate_optimal_point():
    closed = ns_conditional_map(optimal_ns_parameters())
    evolved = conditional_map_by_evolution(build_ns_circuit())
    target = (0.5, 0.5, -0.5)
    dev_closed = max(abs(c - t) for c, t in zip(closed, target))
    dev_evolved = max(abs(e - t) for e, t in zip(evolved, target))

    # success probability of 1/4 for arbitrary normalized inputs: evolve
    # each photon-number component and combine by linearity
    circuit = build_ns_circuit()
    sector_p = []
    for n in range(3):
        occ = [n, 1, 0]
        out = evolve(basis_state(3, tuple(occ)), circuit)
        sector_p.append(condition(out, circuit.detection).probability)
    p_dev = 0.0
    for _ in range(20):
        alpha = RNG.normal(size=3) + 1j * RNG.normal(size=3)
        alpha /= np.linalg.norm(alpha)
        p = sum(abs(a) ** 2 * pn for a, pn in zip(alpha, sector_p))
        p_dev = max(p_dev, abs(p - 0.25))

    ok = dev_closed < 1e-10 and dev_evolved < 1e-10 and p_dev < 1e-10
    assert _line(
        1,
        ok,
        "NS map (0.5, 0.5, -0.5): closed-form dev "
        f"{dev_closed:.2e}, evolution dev {dev_evolved:.2e}; success "
        f"probability dev over 20 random inputs {p_dev:.2e} (tol 1e-10)",
    )


def test_criterion_2_full_cnot_truth_table_and_moments():
    report = truth_table("cnot")
    map_ok = all(
        row["decoded"] == CNOT_IMAGE[row["input"]] and row["leakage"] < 1e-10
        for row in report["rows"]
    )
    signal_dev = max(
        abs(report["moments"][label][CNOT_IMAGE[label]] - 1.0 / 16.0)
        for label in BASIS_INPUTS
    )
    cross = max(
        value
        for label in BASIS_INPUTS
        for combo, value in report["moments"][label].items()
        if combo != CNOT_IMAGE[label]
    )
    ok = map_ok and signal_dev < 1e-10 and cross < 1e-12
    assert _line(
        2,
        ok,
        f"CNOT truth table exact, signal moments 1/16 (dev {signal_dev:.2e}, "
        f"tol 1e-10), 12 cross moments max {cross:.2e} (tol 1e-12)",
    )


def test_criterion_3_biased_ns_solver():
    solved = solve_biased_ns()
    eta2_closed = (3.0 - SQRT2) / 7.0
    eta7_closed = 5.0 - 3.0 * SQRT2
    dev = max(abs(solved.eta2 - eta2_closed), abs(solved.eta7 - eta7_closed))
    lams = biased_ns_amplitudes(solved)
    residual = max(abs(lams[0] - lams[1]), abs(lams[0] + lams[2]))
    p_dev = abs(solved.eta2 - 0.2265409)
    ok = dev < 1e-12 and residual < 1e-12 and p_dev < 1e-6
    assert _line(
        3,
        ok,
        f"biased NS solver: parameter dev {dev:.2e} (tol 1e-12), balance "
        f"residual {residual:.2e} (tol 1e-12), success probability "
        f"{solved.eta2:.7f} vs 0.2265409 (tol 1e-6)",
    )


def test_criterion_4_simplified_cnot():
    report = truth_table("cnot-simplified")
    map_ok = all(
        row["decoded"] == CNOT_IMAGE[row["input"]] and row["leakage"] < 1e-10
        for row in report["rows"]
    )
    p_target = ((3.0 - SQRT2) / 7.0) ** 2
    p_dev = max(abs(row["probability"] - p_target) for row in report["rows"])
    ok = map_ok and p_dev < 1e-7
    assert _line(
        4,
        ok,
        f"simplified CNOT truth table exact; per-input probability dev from "
        f"((3-sqrt2)/7)^2 = {p_target:.10f} is {p_dev:.2e} (tol 1e-7)",
    )


def test_criterion_5_bell_state_generation():
    result = bell_test("cnot")
    fid_dev = max(abs(e["fidelity"] - 1.0) for e in result["entries"])
    purity_dev = max(abs(e["purity"] - 0.5) for e in result["entries"])
    assignment = {e["input"]: e["bell_state"] for e in result["entries"]}
    ok = fid_dev < 1e-10 and purity_dev < 1e-10 and assignment == BELL_ASSIGNMENT
    assert _line(
        5,
        ok,
        f"Bell generation: fidelity dev {fid_dev:.2e}, purity dev "
        f"{purity_dev:.2e} (tol 1e-10); states {sorted(set(assignment.values()))}",
    )


def test_criterion_6_interior_states():
    worst = 0.0
    for label in BASIS_INPUTS:
        for gate, cuts in (("cnot", ("x", "y")), ("cnot-simplified", ("z",))):
            for cut in cuts:
                res = intermediate_state_check(gate, label, cut)
                worst = max(worst, res["deviation"])
    ok = worst < 1e-10
    assert _line(
        6,
        ok,
        f"interior states at x, y (full) and z (simplified), all four basis "
        f"inputs: max amplitude deviation {worst:.2e} (tol 1e-10)",
    )


def test_criterion_7_oracle_equivalence():
    worst_random = 0.0
    for _ in range(200):
        circuit = random_circuit(RNG, max_modes=8)
        total = int(RNG.integers(1, 3))
        occ_in = random_occupation(RNG, circuit.n_modes, total)
        out = evolve(basis_state(circuit.n_modes, occ_in), circuit)
        transfer = compose_transfer_matrix(circuit)
        for occ_out in enumerate_basis(circuit.n_modes, total):
            q = AmplitudeQuery(transfer, occ_in, occ_out)
            worst_random = max(
                worst_random, abs(out.amplitude(occ_out) - oracle_amplitude(q))
            )
    worst_gate = max(
        heisenberg_consistency(name)
        for name in ("ns", "ns-biased", "cnot", "cnot-simplified")
    )
    ok = worst_random < 1e-10 and worst_gate < 1e-10
    assert _line(
        7,
        ok,
        f"permanent oracle vs evolution: 200 random circuits max dev "
        f"{worst_random:.2e}; all gate moment computations max dev "
        f"{worst_gate:.2e} (tol 1e-10)",
    )


def _oracle_logical_error(base, result) -> float:
    """Logical error of the sweep's worst corner, recomputed from the
    transfer matrix and the permanent oracle over the heralded kets."""
    circuit = dataclasses.replace(
        base,
        elements=tuple(
            dataclasses.replace(el, reflectivity=result["worst_assignment"][el.label])
            for el in base.elements
        ),
    )
    transfer = compose_transfer_matrix(circuit)
    (input_occ,) = encode_logical(logical_pair(result["worst_input"]), circuit).amplitudes
    qubit_modes = [circuit.mode_index(l) for l in QUBIT_LABELS]
    amps = {}
    for ket in enumerate_basis(4, 2):
        out_occ = [0] * circuit.n_modes
        for mode, k in zip(qubit_modes, ket):
            out_occ[mode] = k
        for mode, k in circuit.detection.exact.items():
            out_occ[mode] = k
        amps[ket] = oracle_amplitude(
            AmplitudeQuery(transfer, input_occ, tuple(out_occ))
        )
    norm_sq = sum(abs(a) ** 2 for a in amps.values())
    image = dual_rail_ket(CNOT_IMAGE[result["worst_input"]])
    return 1.0 - abs(amps[image]) ** 2 / norm_sq


def test_criterion_8_sensitivity_at_two_percent():
    base = build_cnot_circuit()
    absolute = sensitivity_sweep("cnot", model="absolute", magnitude=0.02, mode="corners")
    relative = sensitivity_sweep("cnot", model="relative", magnitude=0.02, mode="corners")
    regression_ok = (
        abs(absolute["worst_error"] - WORST_ERROR_ABS_CORNERS_002) < 1e-12
        and abs(relative["worst_error"] - WORST_ERROR_REL_CORNERS_002) < 1e-12
    )
    oracle_dev = abs(_oracle_logical_error(base, absolute) - absolute["worst_error"])
    # an absolute 0.02 is a large relative shift on the small NS eta2
    shifts = {
        el.label: absolute["worst_assignment"][el.label] / el.reflectivity - 1.0
        for el in base.elements
    }
    largest = max(abs(v) for v in shifts.values())
    drivers = ", ".join(
        f"{label} {v:+.1%}" for label, v in shifts.items() if abs(v) > largest - 1e-12
    )
    ok = (
        relative["worst_error"] < 1e-2
        and oracle_dev < 1e-12
        and absolute["worst_error"] > 1e-2
        and regression_ok
    )
    assert _line(
        8,
        ok,
        f"0.02 corner sweep worst logical error: relative "
        f"{relative['worst_error']:.10e} (target < 1e-2); absolute "
        f"{absolute['worst_error']:.10e}, above the target as documented, "
        f"permanent oracle at its worst corner dev {oracle_dev:.2e} "
        f"(tol 1e-12); worst input {absolute['worst_input']}, largest relative "
        f"shift {drivers}; regression values "
        f"{'match' if regression_ok else 'MOVED'}",
    )


def test_criterion_9_property_suites(tmp_path):
    # unitarity of every gate and of random meshes
    unitary_dev = 0.0
    for name in ("ns", "ns-biased", "cnot", "cnot-simplified"):
        u = compose_transfer_matrix(gate_by_name(name))
        unitary_dev = max(
            unitary_dev,
            float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))),
        )
    for _ in range(20):
        c = random_circuit(RNG)
        u = compose_transfer_matrix(c)
        unitary_dev = max(
            unitary_dev,
            float(np.max(np.abs(u @ u.conj().T - np.eye(c.n_modes)))),
        )

    # photon-number conservation and norm preservation under evolution
    norm_dev = 0.0
    conserved = True
    for _ in range(20):
        c = random_circuit(RNG)
        total = int(RNG.integers(1, 4))
        state = random_state(RNG, c.n_modes, total)
        out = evolve(state, c)
        conserved = conserved and out.total_photons == total
        conserved = conserved and all(sum(occ) == total for occ in out.amplitudes)
        norm_dev = max(norm_dev, abs(out.norm_sq - 1.0))

    # conditioning completeness on a real gate output and on random states
    completeness_dev = 0.0
    cnot = build_cnot_circuit()
    gate_out = evolve(encode_logical(logical_pair("VH"), cnot), cnot)
    total_p = sum(
        condition(gate_out, DetectionPattern(exact=dict(enumerate(occ)))).probability
        for occ in enumerate_basis(8, 4)
    )
    completeness_dev = max(completeness_dev, abs(total_p - 1.0))
    state = random_state(RNG, 4, 2)
    total_p = sum(
        condition(state, DetectionPattern(exact=dict(enumerate(occ)))).probability
        for occ in enumerate_basis(4, 2)
    )
    completeness_dev = max(completeness_dev, abs(total_p - 1.0))

    # deterministic, byte-identical CLI reports under a fixed seed
    args = [
        "sweep",
        "--model",
        "relative",
        "--magnitude",
        "0.02",
        "--mode",
        "random",
        "--samples",
        "10",
        "--rng-seed",
        "42",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli_main(args + ["--json", str(a)]) == 0
    assert cli_main(args + ["--json", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())  # and it is well-formed JSON

    ok = (
        unitary_dev < 1e-12
        and conserved
        and norm_dev < 1e-12
        and completeness_dev < 1e-12
        and identical
    )
    assert _line(
        9,
        ok,
        f"properties: unitarity dev {unitary_dev:.2e}, photon conservation "
        f"{'held' if conserved else 'VIOLATED'}, norm dev {norm_dev:.2e}, "
        f"conditioning completeness dev {completeness_dev:.2e} (tol 1e-12), "
        f"CLI reports byte-identical under fixed seed: {identical}",
    )
