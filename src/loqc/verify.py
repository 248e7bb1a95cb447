"""End-to-end verification of the gate library.

Truth tables, four-fold coincidence moment tables, Bell-state generation,
interior-state comparisons against the closed-form kets, dual-path
consistency between sequential evolution and the permanent oracle, and
beamsplitter-error sensitivity sweeps. Every report takes a gate name
(``gates.gate_by_name``) and returns a dict with its ``checks`` and
``passed``; the sweep's checks are that its errors lie in [0, 1] and, at
magnitude <= 0.02, that its worst error is below 1e-2.

Each CNOT readout rule has one home: ``coincidence_pattern`` (heralding
plus one photon per rail pair), ``_sector`` (the kets a pattern keeps)
and ``_moment_deviations`` (the signal and cross moment checks).

Truth tables, moments, Bell states and interior cuts evolve the sparse
state element by element with ``evolve(..., keep=circuit.detection)``:
a ket that misses a herald or lights a vacuum port is dropped once the
last element touching that detector's mode has acted, instead of being
carried to the end. Each report reads only heralded kets. A four-fold
coincidence puts all four photons on a control rail, a target rail and
the two heralds, so it leaves the vacuum ports dark; the moment tables
and the dual-path check's 16 coincidence kets are therefore heralded
too. No later element changes a settled count, so the reports come out
bit for bit as from the full evolution (see ``loqc.evolve``).
``loqc run-circuit`` prints the whole output state, so it evolves every
ket.

The sensitivity sweep instead evaluates all of its perturbations as one
batch: ``elements.transfer_matrices`` for every perturbation at once,
then Glynn permanents over the heralded output sector, the kets that
``DetectionPattern.matches`` keeps. The sparse evolution re-derives
every distinct perturbation within 1e-12 of the batch's worst error and
must agree with it to 1e-12; its values replace the batched ones, so the
sweep's worst case is a sparse one. ``heisenberg_consistency`` compares the
complex amplitudes of sparse evolution with the permanent oracle on
``compose_transfer_matrix``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
# Imported at start-up so that a random sweep does not pay for loading
# numpy.random inside its run.
from numpy.random import default_rng

from .elements import Circuit, compose_transfer_matrix, transfer_matrices
from .evolve import AmplitudeQuery, evolve, oracle_amplitude
from .fock import (
    PRUNE_TOL,
    FockStateVector,
    Occupation,
    enumerate_basis,
    inner_product,
    make_state,
)
from .gates import (
    BASIS_INPUTS,
    CNOT_IMAGE,
    ETA2_BIASED,
    BiasedNsParameters,
    NsParameters,
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
)
from .postselect import DetectionPattern, coincidence_probability, condition

CNOT_SUCCESS = 1.0 / 16.0
SIMPLIFIED_SUCCESS = ETA2_BIASED**2

_QUBIT_LABELS = ("c_H", "c_V", "t_H", "t_V")

BELL_STATES = {
    "phi+": (1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2)),
    "phi-": (1 / math.sqrt(2), 0.0, 0.0, -1 / math.sqrt(2)),
    "psi+": (0.0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0.0),
    "psi-": (0.0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0.0),
}


def check(
    name: str, value: float, tolerance: float, passed: bool | None = None
) -> dict:
    """One report check. It passes when ``value < tolerance``, unless
    ``passed`` gives the verdict instead."""
    return {
        "name": name,
        "value": value,
        "tolerance": tolerance,
        "pass": bool(value < tolerance if passed is None else passed),
    }


def coincidence_pattern(circuit: Circuit) -> DetectionPattern:
    """Four-fold coincidence: the circuit's heralding pattern (one photon
    at each NS herald, none at the vacuum outputs) plus one photon on the
    control rail pair and one on the target rail pair."""
    c_pair = tuple(circuit.mode_index(l) for l in ("c_H", "c_V"))
    t_pair = tuple(circuit.mode_index(l) for l in ("t_H", "t_V"))
    return DetectionPattern(
        exact=circuit.detection.exact, groups=((c_pair, 1), (t_pair, 1))
    )


def _sector(
    circuit: Circuit, pattern: DetectionPattern, photons: int
) -> list[Occupation]:
    """The ``photons``-photon basis kets of ``circuit`` that ``pattern``
    keeps, in ``enumerate_basis`` order."""
    return [
        occ
        for occ in enumerate_basis(circuit.n_modes, photons)
        if pattern.matches(occ)
    ]


def conditioned_logical_output(
    circuit: Circuit, pair, conditioning: str = "heralded"
) -> tuple[float, FockStateVector | None]:
    """Evolve an encoded qubit pair and condition on the detector outcome.

    Returns the success probability and the normalized conditional state
    over (c_H, c_V, t_H, t_V), or None when the probability vanishes.
    """
    out = evolve(encode_logical(pair, circuit), circuit, keep=circuit.detection)
    return _conditioned_qubits(circuit, out, conditioning)


def _conditioned_qubits(
    circuit: Circuit, out: FockStateVector, conditioning: str
) -> tuple[float, FockStateVector | None]:
    """``conditioned_logical_output`` of an already evolved state. Both
    patterns fix every mode but (c_H, c_V, t_H, t_V), so those are the
    modes the conditioned state keeps."""
    if circuit.detection is None:
        raise ValueError("circuit has no heralding detection pattern")
    if conditioning == "heralded":
        pattern = circuit.detection
    elif conditioning == "coincidence":
        pattern = coincidence_pattern(circuit)
    else:
        raise ValueError(f"unknown conditioning mode {conditioning!r}")
    outcome = condition(out, pattern)
    return outcome.probability, outcome.normalized


def _decoded(label: str, state4: FockStateVector | None):
    """Logical amplitudes, leakage and logical error 1 - |<image|out>|^2
    of the conditioned output for basis input ``label``; the error is 1.0
    when there is no output."""
    if state4 is None:
        return (0j, 0j, 0j, 0j), 0.0, 1.0
    amps, leakage = decode_logical(state4)
    return amps, leakage, 1.0 - abs(amps[BASIS_INPUTS.index(CNOT_IMAGE[label])]) ** 2


# ---------------------------------------------------------------------------
# truth table and moments


def _expected_success(gate_name: str) -> tuple[float, float]:
    """(expected per-input success probability, tolerance)."""
    if gate_name == "cnot":
        return CNOT_SUCCESS, 1e-10
    if gate_name == "cnot-simplified":
        return SIMPLIFIED_SUCCESS, 1e-7
    raise ValueError(f"no truth table defined for gate {gate_name!r}")


def moment_table(gate: str, input_label: str) -> dict[str, float]:
    """Four-fold coincidence probabilities for one basis input.

    Keys name the (control rail, target rail) detector pair: "HV" is the
    coincidence of c_H out, t_V out, a1 out and a2 out. Computed on the
    evolved output with no conditioning; the evolution keeps only the
    heralded kets, which hold every four-fold coincidence.
    """
    circuit = gate_by_name(gate)
    state = encode_logical(logical_pair(input_label), circuit)
    return _moments(circuit, evolve(state, circuit, keep=circuit.detection))


def _moments(circuit: Circuit, out: FockStateVector) -> dict[str, float]:
    """``moment_table`` of an already evolved state."""
    a1 = circuit.mode_index("a1")
    a2 = circuit.mode_index("a2")
    table = {}
    for c_rail, t_rail in itertools.product("HV", repeat=2):
        quad = (
            circuit.mode_index(f"c_{c_rail}"),
            circuit.mode_index(f"t_{t_rail}"),
            a1,
            a2,
        )
        table[c_rail + t_rail] = coincidence_probability(out, quad)
    return table


def _moment_deviations(
    label: str, table: dict[str, float], expected_p: float
) -> tuple[float, float]:
    """(|signal moment - expected_p|, largest cross moment) of basis input
    ``label``'s moment table; the signal is the image's coincidence."""
    image = CNOT_IMAGE[label]
    cross = max(v for k, v in table.items() if k != image)
    return abs(table[image] - expected_p), cross


def moment_report(gate: str, input_label: str | None = None) -> dict:
    """Moment tables of one basis input, or of all four, each checked for
    its signal moment (the expected success probability) and its cross
    moments (zero)."""
    expected_p, p_tol = _expected_success(gate)
    labels = BASIS_INPUTS if input_label is None else (input_label,)
    tables, checks = {}, []
    for label in labels:
        tables[label] = moment_table(gate, label)
        signal_dev, cross = _moment_deviations(label, tables[label], expected_p)
        checks.append(check(f"{label} signal moment", signal_dev, p_tol))
        checks.append(check(f"{label} cross moments", cross, 1e-12))
    return {
        "expected_signal": expected_p,
        "tables": tables,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }


def truth_table(gate: str, conditioning: str = "heralded") -> dict:
    """Evolve all four computational basis inputs and check the gate logic.

    Returns rows, per-input moments, max_deviation, checks and passed.
    Each row records the conditioned output's logical amplitudes, its
    success probability and the leakage outside the dual-rail subspace.
    The row is correct when the normalized output sits entirely on the
    image basis state (the sign of its amplitude is not observable).
    """
    circuit = gate_by_name(gate)
    expected_p, p_tol = _expected_success(gate)
    rows = []
    moments: dict[str, dict[str, float]] = {}
    map_dev = 0.0
    prob_dev = 0.0
    moment_dev = 0.0
    cross_max = 0.0
    for label in BASIS_INPUTS:
        image = CNOT_IMAGE[label]
        state = encode_logical(logical_pair(label), circuit)
        out = evolve(state, circuit, keep=circuit.detection)
        probability, state4 = _conditioned_qubits(circuit, out, conditioning)
        amps, leakage, row_error = _decoded(label, state4)
        decoded = max(BASIS_INPUTS, key=lambda k: abs(amps[BASIS_INPUTS.index(k)]))
        moments[label] = _moments(circuit, out)
        signal_dev, cross = _moment_deviations(label, moments[label], expected_p)
        moment_dev = max(moment_dev, signal_dev)
        cross_max = max(cross_max, cross)
        map_dev = max(map_dev, row_error)
        prob_dev = max(prob_dev, abs(probability - expected_p))
        rows.append(
            {
                "input": label,
                "expected": image,
                "decoded": decoded,
                "conditioning": conditioning,
                "probability": probability,
                "expected_probability": expected_p,
                "leakage": leakage,
                "row_error": row_error,
                "amplitudes": {
                    k: amps[i] for i, k in enumerate(BASIS_INPUTS)
                },
            }
        )
    checks = [
        check("logical map (1 - image weight)", map_dev, 1e-10),
        check("success probability deviation", prob_dev, p_tol),
        check("signal moment deviation", moment_dev, p_tol),
        check("cross moments", cross_max, 1e-12),
    ]
    return {
        "rows": rows,
        "moments": moments,
        "max_deviation": max(map_dev, prob_dev, moment_dev, cross_max),
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------
# Bell-state generation


def bell_test(gate: str = "cnot") -> dict:
    """Run the four superposition inputs and identify the Bell state each
    produces, together with the reduced single-qubit purity.

    The assignment (which input yields which Bell state) is derived from
    the evolution itself and reported; it is stable because the circuit
    is fixed.
    """
    circuit = gate_by_name(gate)
    entries = []
    for label in ("+H", "-H", "+V", "-V"):
        probability, state4 = conditioned_logical_output(
            circuit, logical_pair(label), "heralded"
        )
        amps, leakage = decode_logical(state4)
        fidelities = {
            name: abs(sum(b.conjugate() * a for b, a in zip(bell, amps))) ** 2
            for name, bell in BELL_STATES.items()
        }
        best = max(fidelities, key=fidelities.get)
        psi = np.array([[amps[0], amps[1]], [amps[2], amps[3]]])
        rho = psi @ psi.conj().T
        purity = float(np.real(np.trace(rho @ rho)))
        entries.append(
            {
                "input": label,
                "bell_state": best,
                "fidelity": fidelities[best],
                "purity": purity,
                "probability": probability,
                "leakage": leakage,
            }
        )
    worst_fidelity = min(e["fidelity"] for e in entries)
    worst_purity = max(abs(e["purity"] - 0.5) for e in entries)
    checks = [
        check(
            "fidelity to nearest maximally entangled state",
            1.0 - worst_fidelity,
            1e-10,
        ),
        check("reduced purity deviation from 1/2", worst_purity, 1e-10),
    ]
    return {
        "gate": gate,
        "entries": entries,
        "worst_fidelity": worst_fidelity,
        "worst_purity_deviation": worst_purity,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------
# interior states


def _reference_input_split(control: str, target_sign: float) -> FockStateVector:
    """Closed-form interior state after the input splitters, over
    (c_H, arm-1, arm-2, t''').

    For control H: (1/sqrt(2))|1001> + s*(1/2)(|1100> - |1010>).
    For control V: (1/2)(|0101> + |0011> + s*(|0200> - |0020>)).
    s = +1 for target H, -1 for target V.
    """
    s = target_sign
    if control == "H":
        return make_state(
            4,
            [
                ((1, 0, 0, 1), 1 / math.sqrt(2)),
                ((1, 1, 0, 0), s * 0.5),
                ((1, 0, 1, 0), -s * 0.5),
            ],
        )
    return make_state(
        4,
        [
            ((0, 1, 0, 1), 0.5),
            ((0, 0, 1, 1), 0.5),
            ((0, 2, 0, 0), s * 0.5),
            ((0, 0, 2, 0), -s * 0.5),
        ],
    )


def reference_interior_state(
    gate: str, cut: str, input_label: str
) -> FockStateVector:
    """Closed-form conditioned interior ket for a basis input at a cut."""
    control, target = input_label[0], input_label[1]
    sign = 1.0 if target == "H" else -1.0
    base = _reference_input_split(control, sign)
    if gate == "cnot":
        if cut == "x":
            return base
        if cut == "y":
            lams = ns_conditional_map(optimal_ns_parameters())
        else:
            raise ValueError(f"no closed-form state at cut {cut!r} for {gate}")
    elif gate == "cnot-simplified":
        if cut in ("y", "z"):
            lams = biased_ns_amplitudes(balanced_biased_parameters())
        else:
            raise ValueError(f"no closed-form state at cut {cut!r} for {gate}")
    else:
        raise ValueError(f"no interior states defined for gate {gate!r}")
    amps = {
        occ: amp * lams[occ[1]] * lams[occ[2]]
        for occ, amp in base.amplitudes.items()
    }
    return FockStateVector(4, base.total_photons, amps)


def intermediate_state_check(gate: str, input_label: str, cut: str) -> dict:
    """Compare the evolved, conditioned interior state against its
    closed form, up to a global phase.

    The evolution fixes the overall phase of each branch (a target-V
    photon picks up a sign at its first grey reflection) while the
    closed-form kets are written phase-free, so the comparison aligns
    the global phase first and reports it; it is always +1 or -1 here.
    """
    if input_label not in BASIS_INPUTS:
        raise ValueError(f"interior states are defined for {BASIS_INPUTS}")
    circuit = gate_by_name(gate)
    if cut not in circuit.cuts:
        raise ValueError(
            f"gate {gate!r} has no cut {cut!r}; available: "
            f"{sorted(circuit.cuts)}"
        )
    state = encode_logical(logical_pair(input_label), circuit)
    evolved = evolve(state, circuit, upto=circuit.cuts[cut], keep=circuit.detection)
    outcome = condition(evolved, circuit.detection)
    reference = reference_interior_state(gate, cut, input_label)
    overlap = inner_product(reference, outcome.reduced)
    phase = overlap.conjugate() / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    aligned = phase * outcome.reduced
    keys = set(aligned.amplitudes) | set(reference.amplitudes)
    deviation = max(
        abs(aligned.amplitude(k) - reference.amplitude(k)) for k in keys
    )
    checks = [check("amplitude deviation from closed form", deviation, 1e-10)]
    return {
        "gate": gate,
        "input": input_label,
        "cut": cut,
        "deviation": deviation,
        "global_phase": complex(phase),
        "conditioned_probability": outcome.probability,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------
# dual-path consistency


def heisenberg_consistency(gate: str) -> float:
    """Maximum deviation between sequential evolution and the permanent
    oracle over every amplitude the gate's verification relies on.

    For the NS gates both are compared with the closed-form conditional
    map; for the CNOTs the complex amplitudes of each basis input on the
    16 four-fold coincidence kets are compared, phases included.
    """
    circuit = gate_by_name(gate)
    transfer = compose_transfer_matrix(circuit)
    dev = 0.0
    if gate in ("ns", "ns-biased"):
        if gate == "ns":
            closed = ns_conditional_map(optimal_ns_parameters())
        else:
            closed = biased_ns_amplitudes(balanced_biased_parameters())
        evolved = conditional_map_by_evolution(circuit)
        for n in range(3):
            occ = circuit.prepared_occupation({0: n})
            oracle = oracle_amplitude(AmplitudeQuery(transfer, occ, occ))
            dev = max(dev, abs(evolved[n] - closed[n]), abs(oracle - closed[n]))
        return dev
    kets = _sector(circuit, coincidence_pattern(circuit), 4)
    for label in BASIS_INPUTS:
        state = encode_logical(logical_pair(label), circuit)
        input_occ = next(iter(state.amplitudes))
        out = evolve(state, circuit, keep=circuit.detection)
        for out_occ in kets:
            amp = oracle_amplitude(AmplitudeQuery(transfer, input_occ, out_occ))
            dev = max(dev, abs(amp - out.amplitude(out_occ)))
    return dev


# ---------------------------------------------------------------------------
# sensitivity sweep


# Perturbation vectors evaluated together by the batched sweep; bounds the
# (block, inputs, kets, photons, photons) arrays of permanent submatrices.
_SWEEP_BLOCK = 128


def _perturbed_etas(base: Circuit, deltas: np.ndarray, model: str) -> np.ndarray:
    """(B, k) reflectivities for B perturbation vectors: eta + delta
    ("absolute") or eta * (1 + delta) ("relative"), clamped to [0, 1]."""
    etas = np.array([el.reflectivity for el in base.elements])
    if model == "absolute":
        etas = etas + deltas
    else:
        etas = etas * (1.0 + deltas)
    return np.minimum(np.maximum(etas, 0.0), 1.0)


def _perturbed_circuit(base: Circuit, etas: list[float]) -> Circuit:
    """``base`` with its reflectivities replaced by one row of
    ``_perturbed_etas``."""
    return dataclasses.replace(
        base,
        elements=tuple(
            dataclasses.replace(el, reflectivity=eta)
            for el, eta in zip(base.elements, etas, strict=True)
        ),
    )


def _glynn_permanents(sub: np.ndarray) -> np.ndarray:
    """Permanents of a stack of n x n matrices by Glynn's formula,
    per(M) = 2^(1-n) sum_d (prod_i d_i) prod_j sum_i d_i M_ij over the
    sign vectors d with d_0 = +1 (Glynn, EJC 31, 2010)."""
    n = sub.shape[-1]
    deltas = np.array(
        [(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=n - 1)]
    )
    row_sums = np.einsum("dr,...rc->...dc", deltas, sub)
    return row_sums.prod(axis=-1) @ deltas.prod(axis=1) / 2.0 ** (n - 1)


def _batched_logical_errors(
    base: Circuit, etas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-input logical errors and heralding probabilities, each (B, 4)
    over ``BASIS_INPUTS``, for B reflectivity vectors.

    Every heralded amplitude is per(U_sub)/sqrt(prod n!) of the transfer
    matrix (Scheel, quant-ph/0406127). The heralded sector holds the
    occupations the detection pattern keeps. Amplitudes below
    ``PRUNE_TOL`` are dropped, as the sparse evolution drops them, so a
    sector that only carries rounding dust has probability 0 and error
    1.0 on both paths.
    The vectors are processed in blocks of ``_SWEEP_BLOCK`` to bound the
    size of the intermediate arrays.
    """
    pattern = base.detection
    inputs = [
        next(iter(encode_logical(logical_pair(label), base).amplitudes))
        for label in BASIS_INPUTS
    ]
    sector = _sector(base, pattern, sum(inputs[0]))
    # the qubit modes hold every photon the pattern leaves free, so their
    # occupation picks out one sector ket
    qubit_modes = [base.mode_index(l) for l in _QUBIT_LABELS]
    qubit_kets = [tuple(occ[m] for m in qubit_modes) for occ in sector]
    images = [
        qubit_kets.index(dual_rail_ket(CNOT_IMAGE[label])) for label in BASIS_INPUTS
    ]

    def photon_modes(occ) -> list[int]:
        return [m for m, k in enumerate(occ) for _ in range(k)]

    rows = np.array([photon_modes(occ) for occ in sector])
    cols = np.array([photon_modes(occ) for occ in inputs])
    norms = np.sqrt(
        [
            [math.prod(map(math.factorial, inp + out)) for out in sector]
            for inp in inputs
        ]
    )
    errors, probabilities = [], []
    for start in range(0, len(etas), _SWEEP_BLOCK):
        u = transfer_matrices(base, etas[start : start + _SWEEP_BLOCK])
        sub = u[:, rows[None, :, :, None], cols[:, None, None, :]]
        amps = _glynn_permanents(sub) / norms
        amps[np.abs(amps) <= PRUNE_TOL] = 0.0
        probability = (amps**2).sum(axis=-1)
        image = amps[:, range(len(BASIS_INPUTS)), images] ** 2
        kept_weight = np.divide(
            image, probability, out=np.zeros_like(probability), where=probability > 0.0
        )
        errors.append(1.0 - kept_weight)
        probabilities.append(probability)
    return np.concatenate(errors), np.concatenate(probabilities)


def _sparse_logical_errors(circuit: Circuit) -> np.ndarray:
    """Logical errors (row 0) and heralding probabilities (row 1) per input
    in ``BASIS_INPUTS`` by sparse evolution, the check on the batched ones."""
    values = np.empty((2, len(BASIS_INPUTS)))
    for j, label in enumerate(BASIS_INPUTS):
        probability, state4 = conditioned_logical_output(circuit, logical_pair(label))
        values[:, j] = _decoded(label, state4)[2], probability
    return values


def sensitivity_sweep(
    gate: str = "cnot",
    model: str = "absolute",
    magnitude: float = 0.02,
    mode: str = "corners",
    samples: int = 100,
    seed: int = 0,
) -> dict:
    """Perturb every beamsplitter reflectivity and measure the logical error.

    "corners" enumerates all +/-magnitude sign patterns over the gate's
    splitters; "random" draws ``samples`` uniform perturbation vectors
    from the seeded generator. The logical error of one run is
    1 - |<ideal|output>|^2 with the conditioned output renormalized, so a
    lower success probability is reported (probability range) but never
    counted as gate error. The worst case is taken over the four basis
    inputs and all perturbations.

    All perturbations are evaluated at once from their transfer matrices
    and matrix permanents (``_batched_logical_errors``). Every distinct
    reflectivity vector within 1e-12 of the batched worst error is then
    evaluated again, once, by sparse evolution (``_perturbed_circuit``,
    ``conditioned_logical_output``, ``decode_logical``); the two must agree
    to 1e-12 per input in every row of that vector, and the sparse values
    replace the batched ones in those rows. The worst error, input and
    assignment are the first maximum in sweep order, which is always such
    a row.

    Returns the report, its checks and passed. ``records`` holds one row
    per vector in sweep order: ``etas`` (B, k), and ``errors`` and
    ``probabilities`` (B, 4) with columns in ``BASIS_INPUTS`` order.
    The errors must lie in [0, 1]; at magnitude <= 0.02 the worst error
    must also be below 1e-2.
    """
    base = gate_by_name(gate)
    # the random draw spans [-magnitude, magnitude], whose width must be finite
    if not math.isfinite(2.0 * magnitude) or magnitude < 0.0:
        raise ValueError(
            f"magnitude must be a number >= 0 with 2 * magnitude finite, "
            f"got {magnitude}"
        )
    if model not in ("absolute", "relative"):
        raise ValueError(f"unknown perturbation model {model!r}")
    k = len(base.elements)
    labels = [el.label or f"element{j}" for j, el in enumerate(base.elements)]
    if mode == "corners":
        deltas = np.array(list(itertools.product((-magnitude, +magnitude), repeat=k)))
    elif mode == "random":
        rng = default_rng(seed)
        deltas = rng.uniform(-magnitude, magnitude, size=(max(samples, 0), k))
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")
    if len(deltas) == 0:
        raise ValueError("sweep evaluated no perturbations")
    etas = _perturbed_etas(base, deltas, model)
    errors, probabilities = _batched_logical_errors(base, etas)
    run_worst = errors.max(axis=1)
    sparse: dict[tuple[float, ...], np.ndarray] = {}
    for i in np.flatnonzero(run_worst >= run_worst.max() - 1e-12).tolist():
        row = tuple(etas[i].tolist())
        if row not in sparse:
            sparse[row] = _sparse_logical_errors(_perturbed_circuit(base, row))
        deviation = np.abs(sparse[row] - (errors[i], probabilities[i])).max()
        if deviation > 1e-12:
            raise RuntimeError(
                f"batched and sparse evaluations of sweep vector {i} differ "
                f"by {deviation:.3e}"
            )
        errors[i], probabilities[i] = sparse[row]
    run_worst = errors.max(axis=1)
    worst = int(run_worst.argmax())
    worst_error = float(run_worst[worst])
    # a Python sum in sweep order: numpy's pairwise sum rounds differently
    mean_error = sum(run_worst.tolist()) / len(etas)
    # an error of exactly 1.0 is in range, so this verdict is not value < tolerance
    in_range = 0.0 <= mean_error <= worst_error <= 1.0
    checks = [check("errors within [0, 1]", worst_error, 1.0, in_range)]
    if magnitude <= 0.02 + 1e-15:
        checks.append(check("worst logical error below 1e-2", worst_error, 1e-2))
    return {
        "gate": gate,
        "model": model,
        "magnitude": magnitude,
        "mode": mode,
        "n_evaluations": len(etas),
        "worst_error": worst_error,
        "mean_error": mean_error,
        "worst_input": BASIS_INPUTS[int(errors[worst].argmax())],
        "worst_assignment": dict(zip(labels, etas[worst].tolist())),
        "probability_min": float(probabilities.min()),
        "probability_max": float(probabilities.max()),
        "element_labels": labels,
        "records": {"etas": etas, "errors": errors, "probabilities": probabilities},
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }
