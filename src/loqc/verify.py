"""End-to-end verification of the gate library.

Truth tables, four-fold coincidence moment tables, Bell-state generation,
interior-state comparisons against the closed-form kets, dual-path
consistency between sequential evolution and the permanent oracle, and
beamsplitter-error sensitivity sweeps. Every report takes a gate name
(``gates.gate_by_name``) and returns a dict with its ``checks`` and
``passed``; ``heisenberg_consistency`` returns its largest deviation, a
float. The sweep's checks are that its errors lie in [0, 1] and, at
magnitude <= 0.02, that its worst error is below 1e-2. That check applies
to both models, while acceptance criterion 8 holds the target to the
relative model only, so the absolute 0.02 corner sweep exits 1 by design.

``NS_MAPS`` and ``CNOTS`` hold each gate's checked facts. Each CNOT
readout rule has one home: ``coincidence_pattern`` (heralding plus one
photon per rail pair), ``_sector`` (the kets a pattern keeps) and
``_moment_deviations`` (the signal and cross moment checks). ``_cnot``
refuses a gate with no CNOT truth table, ``gates.dual_rail_ket`` an input
label that is not a basis input.

The qubit rails are ``gates.QUBIT_LABELS`` and the heralds are the
modes where ``circuit.detection`` expects one photon. Truth tables,
moments, Bell states and interior cuts read only heralded kets, so they
evolve with ``evolve(..., keep=circuit.detection)``, whose keep rule
``loqc.evolve`` states. A four-fold coincidence lights both heralds and
no vacuum port, so the moment tables and the dual-path check's 16
coincidence kets are heralded too.

The sensitivity sweep instead evaluates all of its perturbations as one
batch: ``elements.transfer_matrices`` for 1,024 perturbations at a time,
so a long sweep's working memory stays that of one chunk, then Glynn
permanents over the heralded output sector, the kets that
``DetectionPattern.matches`` keeps. Glynn's sign vectors run over the
four input photon columns, which every sector ket shares, so each block
of perturbations takes its column sums for every output mode in one
matrix product and each ket gathers its rows from them
(``_glynn_permanents``). The sparse evolution re-derives
every distinct (perturbation, input) pair within 1e-12 of the batch's
worst error and must agree with it to 1e-12; its values replace the
batched ones in those cells, so the sweep's worst case is a sparse one.
``heisenberg_consistency`` compares the complex amplitudes of sparse
evolution with the permanent oracle on ``compose_transfer_matrix``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
# Imported at start-up so that a random sweep does not pay for loading
# numpy.random inside its run.
from numpy.random import default_rng

from . import gates
from .elements import Circuit, compose_transfer_matrix, transfer_matrices
from .evolve import AmplitudeQuery, evolve, oracle_amplitude
from .fock import (
    PRUNE_TOL,
    FockStateVector,
    Occupation,
    _natural,
    _real,
    enumerate_basis,
    inner_product,
    make_state,
)
from .gates import (
    BASIS_INPUTS,
    CNOT_IMAGE,
    ETA2_BIASED,
    QUBIT_LABELS,
    conditional_map_by_evolution,
    decode_logical,
    dual_rail_ket,
    encode_logical,
    gate_by_name,
    logical_pair,
)
from .postselect import DetectionPattern, coincidence_probability, condition

CNOT_SUCCESS = 1.0 / 16.0
SIMPLIFIED_SUCCESS = ETA2_BIASED**2

# The closed-form conditional map (l0, l1, l2) of each NS gate at its
# operating point. The four functions are called through ``gates``: nothing
# else in this module calls them, and a name bound here but called only at
# import is a site that perfbench's tracer wraps and never sees fire.
NS_MAPS = {
    "ns": gates.ns_conditional_map(gates.optimal_ns_parameters()),
    "ns-biased": gates.biased_ns_amplitudes(gates.balanced_biased_parameters()),
}

# Each CNOT, as the CNOT reports and the CLI accept it: (expected per-input
# success probability, its tolerance, {interior cut: the NS map that cut's
# closed-form state carries, or None before the NS gates}).
CNOTS = {
    "cnot": (CNOT_SUCCESS, 1e-10, {"x": None, "y": NS_MAPS["ns"]}),
    "cnot-simplified": (
        SIMPLIFIED_SUCCESS, 1e-7, {"y": NS_MAPS["ns-biased"], "z": NS_MAPS["ns-biased"]}
    ),
}

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
    rails = tuple(circuit.mode_index(l) for l in QUBIT_LABELS)
    return DetectionPattern(
        exact=circuit.detection.exact, groups=((rails[:2], 1), (rails[2:], 1))
    )


def _sector(
    circuit: Circuit, pattern: DetectionPattern, photons: int
) -> list[Occupation]:
    """The ``photons``-photon basis kets of ``circuit`` that ``pattern``
    keeps, in ``enumerate_basis`` order.

    Only the photons that the exact counts leave over are enumerated, over
    the modes those counts do not fix, and ``pattern.matches`` keeps the
    kets that meet the group totals. Every ket agrees on the fixed modes,
    so they leave ``enumerate_basis``' descending order as it is: the CNOT's
    heralded sector takes 10 kets, not all 330 of 8 modes.
    """
    photons = _natural(photons, "total_photons")
    pattern.validate_for(circuit.n_modes)
    free = [m for m in range(circuit.n_modes) if m not in pattern.exact]
    left = photons - sum(pattern.exact.values())
    ket = [pattern.exact.get(m, 0) for m in range(circuit.n_modes)]
    if left < 0 or not free:
        return [tuple(ket)] if left == 0 else []
    sector = []
    for counts in enumerate_basis(len(free), left):
        for m, k in zip(free, counts):
            ket[m] = k
        occ = tuple(ket)
        if pattern.matches(occ):
            sector.append(occ)
    return sector


def conditioned_logical_output(
    circuit: Circuit, pair
) -> tuple[float, FockStateVector | None]:
    """Evolve an encoded qubit pair and condition on the heralding pattern.

    Returns the success probability and the normalized conditional state
    over the ``QUBIT_LABELS`` rails, or None when the probability vanishes.
    """
    out = evolve(encode_logical(pair, circuit), circuit, keep=circuit.detection)
    return _conditioned_qubits(circuit, out, "heralded")


def _conditioned_qubits(
    circuit: Circuit, out: FockStateVector, conditioning: str
) -> tuple[float, FockStateVector | None]:
    """``conditioned_logical_output`` of an already evolved state, under
    either conditioning. Both patterns fix every mode but the
    ``QUBIT_LABELS`` rails, so those are the modes the state keeps."""
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


def _cnot(gate: str) -> str:
    """``gate``, if it is a CNOT: the one refusal of the reports that read
    the CNOT truth table off the qubit rails of the gate's circuit."""
    if gate not in CNOTS:
        raise ValueError(
            f"no truth table defined for gate {gate!r}; "
            f"CNOT gates: {', '.join(CNOTS)}"
        )
    return gate


def moment_table(gate: str, input_label: str) -> dict[str, float]:
    """Four-fold coincidence probabilities for one basis input.

    Keys name the (control rail, target rail) detector pair: "HV" is the
    coincidence of c_H out, t_V out and the two heralds. Computed on the
    evolved output with no conditioning; the evolution keeps only the
    heralded kets, which hold every four-fold coincidence.
    """
    circuit = gate_by_name(_cnot(gate))
    state = encode_logical(logical_pair(input_label), circuit)
    return _moments(circuit, evolve(state, circuit, keep=circuit.detection))


def _moments(circuit: Circuit, out: FockStateVector) -> dict[str, float]:
    """``moment_table`` of an already evolved state: each coincidence is on
    the lit rails of a basis ket and the heralds, the modes where
    ``circuit.detection`` expects one photon."""
    rails = [circuit.mode_index(l) for l in QUBIT_LABELS]
    heralds = tuple(m for m, k in circuit.detection.exact.items() if k == 1)
    table = {}
    for label in BASIS_INPUTS:
        lit = tuple(m for m, k in zip(rails, dual_rail_ket(label)) if k)
        table[label] = coincidence_probability(out, lit + heralds)
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
    expected_p, p_tol, _ = CNOTS[_cnot(gate)]
    if input_label is not None:
        dual_rail_ket(input_label)  # refuses a label that is not a basis input
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
    circuit = gate_by_name(_cnot(gate))
    expected_p, p_tol, _ = CNOTS[gate]
    rows, deviations = [], []
    moments: dict[str, dict[str, float]] = {}
    for label in BASIS_INPUTS:
        image = CNOT_IMAGE[label]
        state = encode_logical(logical_pair(label), circuit)
        out = evolve(state, circuit, keep=circuit.detection)
        probability, state4 = _conditioned_qubits(circuit, out, conditioning)
        amps, leakage, row_error = _decoded(label, state4)
        decoded = max(BASIS_INPUTS, key=lambda k: abs(amps[BASIS_INPUTS.index(k)]))
        moments[label] = _moments(circuit, out)
        deviations.append(
            (row_error, abs(probability - expected_p))
            + _moment_deviations(label, moments[label], expected_p)
        )
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
    map_dev, prob_dev, moment_dev, cross_max = (
        max(0.0, *column) for column in zip(*deviations)
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
    circuit = gate_by_name(_cnot(gate))
    entries = []
    for label in ("+H", "-H", "+V", "-V"):
        probability, state4 = conditioned_logical_output(circuit, logical_pair(label))
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


def _reference_input_split(control_h: bool, target_sign: float) -> FockStateVector:
    """Closed-form interior state after the input splitters, over
    (c_H, arm-1, arm-2, t''').

    For control H: (1/sqrt(2))|1001> + s*(1/2)(|1100> - |1010>).
    For control V: (1/2)(|0101> + |0011> + s*(|0200> - |0020>)).
    s = +1 for target H, -1 for target V.
    """
    s = target_sign
    if control_h:
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
    """Closed-form conditioned interior ket for a basis input at a cut: the
    state after the input splitters, each arm scaled by the NS map that
    ``CNOTS`` gives the cut."""
    c_h, _, t_h, _ = dual_rail_ket(input_label)
    if gate not in CNOTS:
        raise ValueError(f"no interior states defined for gate {gate!r}")
    maps = CNOTS[gate][2]
    if cut not in maps:
        raise ValueError(f"no closed-form state at cut {cut!r} for {gate}")
    base = _reference_input_split(bool(c_h), 1.0 if t_h else -1.0)
    lams = maps[cut]
    if lams is None:
        return base
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
    circuit = gate_by_name(gate)
    if cut not in circuit.cuts:
        raise ValueError(
            f"gate {gate!r} has no cut {cut!r}; available: "
            f"{sorted(circuit.cuts)}"
        )
    # refuses an input that is not a basis ket before anything is evolved
    reference = reference_interior_state(gate, cut, input_label)
    state = encode_logical(logical_pair(input_label), circuit)
    evolved = evolve(state, circuit, upto=circuit.cuts[cut], keep=circuit.detection)
    outcome = condition(evolved, circuit.detection)
    overlap = inner_product(reference, outcome.reduced)
    phase = overlap.conjugate() / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    keys = set(outcome.reduced.amplitudes) | set(reference.amplitudes)
    deviation = max(
        abs(phase * outcome.reduced.amplitude(k) - reference.amplitude(k))
        for k in keys
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
    map of ``NS_MAPS``; for the CNOTs the complex amplitudes of each basis input on the
    16 four-fold coincidence kets are compared, phases included.
    """
    circuit = gate_by_name(gate)
    transfer = compose_transfer_matrix(circuit)
    dev = 0.0
    if gate in NS_MAPS:
        closed = NS_MAPS[gate]
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
# (kets, block, inputs, sign vectors) arrays of Glynn row products. At 128
# the CNOT's arrays (0.3 MB each) went back to the OS after every block and
# were faulted in again, ~1,800 minor page faults per 1024-corner batch,
# which doubled its time; at 64 the allocator keeps them.
_SWEEP_BLOCK = 64
# Vectors whose transfer matrices are composed in one call (16 blocks), so
# a sweep's working memory is one chunk's, whatever its length: a
# 100,000-sample ``loqc sweep --csv`` peaked at 62 MB of RSS, against 192 MB
# composed whole. Both benchmark sweeps (1000 and 1024 vectors) still
# compose in one call. Smaller chunks meet glibc's 128 KiB mmap threshold:
# no large free raises its dynamic threshold first, so the Glynn kernel's
# 160 KiB per-block temporaries are mapped afresh for every block. In a
# fresh process the 1024-corner sweep took ~1,340 minor page faults and
# 13-20 ms at 256 or 128 vectors a chunk, against ~400 and 11-13 ms.
_COMPOSE_CHUNK = 16 * _SWEEP_BLOCK


def _corner_deltas(magnitude: float, k: int) -> np.ndarray:
    """The (2**k, k) sign corners of +/-``magnitude`` over k splitters, bit
    for bit ``np.array(list(itertools.product((-magnitude, magnitude),
    repeat=k)))``: row i holds +magnitude where bit k-1-j of i is set and
    -magnitude (-0.0 at magnitude 0) where it is not. Built column by
    column, so no (2**k, k) integer array is ever made."""
    signs = np.array([-magnitude, magnitude])
    rows = np.arange(2**k)
    deltas = np.empty((2**k, k), signs.dtype)
    for j in range(k):
        deltas[:, j] = signs[(rows >> (k - 1 - j)) & 1]
    return deltas


def _perturbed_etas(base: Circuit, deltas: np.ndarray, model: str) -> np.ndarray:
    """(B, k) reflectivities for B perturbation vectors: eta + delta
    ("absolute") or eta * (1 + delta) ("relative"), clamped to [0, 1]."""
    nominal = np.array([el.reflectivity for el in base.elements])
    # one new (B, k) array, clamped in place; IEEE addition and
    # multiplication commute, so delta + eta and (delta + 1) * eta are the
    # bits of eta + delta and eta * (1 + delta)
    if model == "absolute":
        etas = deltas + nominal
    else:
        etas = deltas + 1.0
        etas *= nominal
    np.maximum(etas, 0.0, out=etas)
    return np.minimum(etas, 1.0, out=etas)


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


def _glynn_permanents(
    u: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Permanents of the p x p submatrices u[b][rows[k]][:, cols[i]] of a
    (B, n, n) stack, shape (B, I, K), for (K, p) row and (I, p) column
    index arrays, by Glynn's formula over the columns,
    per(M) = 2^(1-p) sum_d (prod_c d_c) prod_r sum_c d_c M_rc over the
    sign vectors d with d_0 = +1 (Glynn, EJC 31, 2010).

    The column sums v[m, b, i, d] = sum_c d_c u[b, m, cols[i, c]] are
    taken once for every row m in one matrix product, and every
    submatrix's row product gathers its rows from them.
    """
    p = cols.shape[1]
    deltas = np.array(
        [(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=p - 1)]
    )
    picked = u.transpose(1, 0, 2)[:, :, cols]
    v = (picked.reshape(-1, p) @ deltas.T).reshape(picked.shape[:-1] + (-1,))
    products = v[rows[:, 0]]
    for r in range(1, p):
        products *= v[rows[:, r]]
    # one 2-D product over the sign vectors: a stacked (..., 8) @ (8,) one
    # made the whole kernel ~1.6x slower
    permanents = products.reshape(-1, len(deltas)) @ deltas.prod(axis=1)
    return np.moveaxis(permanents.reshape(products.shape[:-1]), 0, -1) / 2.0 ** (p - 1)


def _heralded_amplitudes(base: Circuit):
    """The heralded sector of ``base``'s sweep and the batch's amplitudes
    on it: (sector, images, amplitudes). ``sector`` lists the occupations
    the detection pattern keeps, ``images[i]`` is the sector index of
    basis input i's CNOT image, and ``amplitudes(u)`` maps a (B, n, n)
    stack of transfer matrices to the (B, 4, K) amplitudes of the
    ``BASIS_INPUTS`` on the K sector kets.

    Every heralded amplitude is per(U_sub)/sqrt(prod n!) of the transfer
    matrix (Scheel, quant-ph/0406127), where U_sub repeats each output
    mode's row and each input mode's column by its photon count.
    """
    inputs = [
        next(iter(encode_logical(logical_pair(label), base).amplitudes))
        for label in BASIS_INPUTS
    ]
    sector = _sector(base, base.detection, sum(inputs[0]))
    # the qubit modes hold every photon the pattern leaves free, so their
    # occupation picks out one sector ket
    qubit_modes = [base.mode_index(l) for l in QUBIT_LABELS]
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

    def amplitudes(u: np.ndarray) -> np.ndarray:
        return _glynn_permanents(u, rows, cols) / norms

    return sector, images, amplitudes


def _batched_logical_errors(
    base: Circuit, etas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-input logical errors and heralding probabilities, each (B, 4)
    over ``BASIS_INPUTS``, for B reflectivity vectors.

    The amplitudes are ``_heralded_amplitudes``': Glynn permanents over
    the four input photon columns, which every sector ket of one basis
    input shares. Amplitudes below ``PRUNE_TOL`` are dropped, as the
    sparse evolution drops them, so a sector that only carries rounding
    dust has probability 0 and error 1.0 on both paths.
    The transfer matrices are built ``_COMPOSE_CHUNK`` vectors at a time,
    so the working memory is one chunk's whatever B is: each row depends
    only on its own reflectivities, so this equals building them all at
    once, bit for bit. The permanents are then taken in blocks of
    ``_SWEEP_BLOCK`` vectors, which bounds the size of their intermediate
    arrays, and written into the two (B, 4) results.
    """
    _, images, amplitudes = _heralded_amplitudes(base)
    errors = np.empty((len(etas), len(BASIS_INPUTS)))
    probabilities = np.empty_like(errors)
    for chunk in range(0, len(etas), _COMPOSE_CHUNK):
        transfers = transfer_matrices(base, etas[chunk : chunk + _COMPOSE_CHUNK])
        for start in range(0, len(transfers), _SWEEP_BLOCK):
            amps = amplitudes(transfers[start : start + _SWEEP_BLOCK])
            amps[np.abs(amps) <= PRUNE_TOL] = 0.0
            weights = np.abs(amps) ** 2
            probability = weights.sum(axis=-1)
            image = weights[:, range(len(BASIS_INPUTS)), images]
            kept_weight = np.divide(
                image,
                probability,
                out=np.zeros_like(probability),
                where=probability > 0.0,
            )
            rows = slice(chunk + start, chunk + start + len(amps))
            errors[rows], probabilities[rows] = 1.0 - kept_weight, probability
    return errors, probabilities


def _sparse_logical_error(circuit: Circuit, label: str) -> tuple[float, float]:
    """Logical error and heralding probability of basis input ``label`` by
    sparse evolution, the check on one batched (vector, input) pair."""
    probability, state4 = conditioned_logical_output(circuit, logical_pair(label))
    return _decoded(label, state4)[2], probability


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

    All perturbations are evaluated as one batch from their transfer
    matrices and matrix permanents (``_batched_logical_errors``). Every distinct
    (reflectivity vector, input) pair whose batched error is within 1e-12
    of the batched worst is then evaluated again, once, by sparse
    evolution (``_perturbed_circuit`` once per distinct vector, then
    ``conditioned_logical_output`` and ``decode_logical``); the two must
    agree to 1e-12 on that pair's error and probability, and the sparse
    values replace the batched ones in that cell only. The worst error,
    input and assignment are the first maximum in sweep order, which is
    always such a pair: the pair holding the batched worst M re-derives to
    at least M - 1e-12, and every pair left out is below that.

    Returns the report, its checks and passed. ``records`` holds one row
    per vector in sweep order: ``etas`` (B, k), and ``errors`` and
    ``probabilities`` (B, 4) with columns in ``BASIS_INPUTS`` order.
    The errors must lie in [0, 1]; at magnitude <= 0.02 the worst error
    must also be below 1e-2.
    """
    samples = _natural(samples, "samples")
    seed = _natural(seed, "seed")
    _real(magnitude, "magnitude")
    base = gate_by_name(_cnot(gate))
    # the random draw spans [-magnitude, magnitude], whose width must be finite
    if not math.isfinite(2.0 * magnitude) or magnitude < 0.0:
        raise ValueError(
            f"magnitude must be a number >= 0 with 2 * magnitude finite, "
            f"got {magnitude}"
        )
    if model not in ("absolute", "relative"):
        raise ValueError(f"unknown perturbation model {model!r}")
    k = len(base.elements)
    labels = [el.label for el in base.elements]
    if mode == "corners":
        deltas = _corner_deltas(magnitude, k)
    elif mode == "random":
        deltas = default_rng(seed).uniform(-magnitude, magnitude, size=(samples, k))
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")
    if len(deltas) == 0:
        raise ValueError("sweep evaluated no perturbations")
    etas = _perturbed_etas(base, deltas, model)
    del deltas  # the records hold etas; a long sweep's peak need not hold both
    errors, probabilities = _batched_logical_errors(base, etas)
    rows, cols = np.nonzero(errors >= errors.max() - 1e-12)
    circuits: dict[tuple[float, ...], Circuit] = {}
    sparse: dict[tuple[tuple[float, ...], int], tuple[float, float]] = {}
    values = []
    for vector, j in zip(map(tuple, etas[rows].tolist()), cols.tolist()):
        if (vector, j) not in sparse:
            if vector not in circuits:
                circuits[vector] = _perturbed_circuit(base, vector)
            sparse[vector, j] = _sparse_logical_error(circuits[vector], BASIS_INPUTS[j])
        values.append(sparse[vector, j])
    # compared as arrays: at magnitude 0 all 4096 cells tie, and a check
    # of numpy scalars cell by cell costs more than the four evolutions
    sparse_errors, sparse_probabilities = np.array(values).T
    deviations = np.maximum(
        np.abs(sparse_errors - errors[rows, cols]),
        np.abs(sparse_probabilities - probabilities[rows, cols]),
    )
    if deviations.max() > 1e-12:
        first = int(np.argmax(deviations > 1e-12))
        raise RuntimeError(
            f"batched and sparse evaluations of sweep vector {rows[first]} at "
            f"input {BASIS_INPUTS[cols[first]]} differ by {deviations[first]:.3e}"
        )
    errors[rows, cols], probabilities[rows, cols] = sparse_errors, sparse_probabilities
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
