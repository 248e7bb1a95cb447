"""The benchmark's workloads: the operations of one pass and their checks.

sweep-corners  ``loqc sweep cnot --model absolute --magnitude 0.02 --mode
               corners``: 1024 perturbation vectors x 4 basis inputs. Each
               reflectivity takes two values, so the evolution's
               pair-transition cache nearly always hits.
sweep-random   ``loqc sweep cnot --model relative --magnitude 0.02 --mode
               random --samples 1000 --rng-seed <seed>``: the same layers,
               but every reflectivity is a new float, so that cache misses
               and grows. Costs that only show on misses or in memory
               show here and not on the corners.
verify-battery every fixed-point CLI command in process, plus the dual-path
               consistency check for all four gates: the solvers, the
               permanent oracle, transfer matrices, group-pattern
               conditioning, circuit files and JSON reporting.

An operation is one perturbation vector evaluated on all four inputs for
the sweeps, and one command or consistency call for the battery. The
corner sweep and the battery have no random inputs; their seed is unused.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib
import json
import random
from pathlib import Path

WORKLOADS = ("sweep-corners", "sweep-random", "verify-battery")

# Absolute-model worst corner at magnitude 0.02, pinned by the test suite.
CORNERS_WORST_ERROR = 3.0368717795717814e-02
CORNERS_EXPECTED_FAILING_CHECK = "worst logical error below 1e-2"
RANDOM_SAMPLES = 1000
# Records of the random sweep re-derived through the permanent oracle,
# besides the worst one.
ORACLE_CHECKED_RECORDS = 15
ORACLE_TOLERANCE = 1e-12

CNOTS = ("cnot", "cnot-simplified")
BASIS_INPUTS = ("HH", "HV", "VH", "VV")
CUTS = {"cnot": ("x", "y"), "cnot-simplified": ("y", "z")}
# heisenberg_consistency tolerances, as the test suite asserts them.
CONSISTENCY_TOLERANCE = {
    "ns": 1e-12,
    "ns-biased": 1e-12,
    "cnot": 1e-10,
    "cnot-simplified": 1e-10,
}


@dataclasses.dataclass
class Op:
    """One timed call: ``loqc.cli.main(argv)``, or the consistency check
    of ``gate`` when ``argv`` is None. ``weight`` is the number of
    operations it performs."""

    name: str
    argv: list[str] | None = None
    gate: str | None = None
    json_path: Path | None = None
    csv_path: Path | None = None
    weight: int = 1


def plan(workload: str, seed: int, work_dir: Path) -> list[Op]:
    if workload == "sweep-corners":
        out = work_dir / "sweep.json"
        argv = ["sweep", "cnot", "--model", "absolute", "--magnitude", "0.02",
                "--mode", "corners", "--json", str(out)]
        return [Op("sweep", argv=argv, json_path=out, weight=1024)]
    if workload == "sweep-random":
        out, table = work_dir / "sweep.json", work_dir / "sweep.csv"
        argv = ["sweep", "cnot", "--model", "relative", "--magnitude", "0.02",
                "--mode", "random", "--samples", str(RANDOM_SAMPLES),
                "--rng-seed", str(seed), "--json", str(out), "--csv", str(table)]
        return [Op("sweep", argv=argv, json_path=out, csv_path=table,
                   weight=RANDOM_SAMPLES)]
    if workload == "verify-battery":
        return _battery(work_dir)
    raise ValueError(f"unknown workload {workload!r}")


def _battery(work_dir: Path) -> list[Op]:
    commands = [["ns-verify"], ["ns-verify", "--biased"], ["solve-params"]]
    for gate in CNOTS:
        for conditioning in ("heralded", "coincidence"):
            commands.append(["truth-table", gate, "--conditioning", conditioning])
        commands.append(["moments", gate])
        commands.append(["bell-test", gate])
        for cut in CUTS[gate]:
            for label in BASIS_INPUTS:
                commands.append(["intermediate", gate, "--input", label, "--cut", cut])
    commands.append(["run-circuit", str(work_dir / "ns.json"), "--input", "1"])
    ops = []
    for i, argv in enumerate(commands):
        out = work_dir / f"op{i:02d}.json"
        name = " ".join(a for a in argv if not a.startswith(str(work_dir)))
        ops.append(Op(name, argv=argv + ["--json", str(out)], json_path=out))
    for gate in CONSISTENCY_TOLERANCE:
        ops.append(Op(f"heisenberg_consistency {gate}", gate=gate))
    return ops


def run_op(op: Op, cli, verify):
    if op.argv is not None:
        return cli.main(op.argv)
    return verify.heisenberg_consistency(op.gate)


def digest(op: Op, outcome) -> str:
    """Hash of everything the call produced, for the byte-identity check."""
    h = hashlib.sha256(repr(outcome).encode())
    for path in (op.json_path, op.csv_path):
        if path is not None:
            h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def report_bytes(ops: list[Op]) -> int:
    return sum(
        p.stat().st_size
        for op in ops
        for p in (op.json_path, op.csv_path)
        if p is not None and p.exists()
    )


def check(workload: str, op: Op, outcome, seed: int) -> tuple[int, list[str]]:
    """Check one operation's outputs; returns (failed operations, reasons).

    A miss that invalidates the whole call fails all ``op.weight``
    operations; a sweep record that the permanent oracle contradicts
    fails that one operation.
    """
    if isinstance(outcome, Exception):
        return op.weight, [f"{op.name}: raised {outcome!r}"]
    if op.argv is None:
        tol = CONSISTENCY_TOLERANCE[op.gate]
        ok = isinstance(outcome, float) and 0.0 <= outcome < tol
        return (0, []) if ok else (1, [f"{op.name}: deviation {outcome!r} >= {tol}"])
    try:
        doc = json.loads(op.json_path.read_text())
    except (OSError, ValueError) as exc:
        return op.weight, [f"{op.name}: no readable JSON report ({exc})"]
    if workload == "sweep-corners":
        reasons = _check_corners(outcome, doc)
    elif workload == "sweep-random":
        reasons = _check_random_report(outcome, doc)
        if not reasons:
            return _check_random_records(op.csv_path, seed)
    else:
        reasons = []
        if outcome != 0 or doc.get("pass") is not True:
            reasons.append(f"{op.name}: exit {outcome}, pass {doc.get('pass')!r}")
    return (op.weight if reasons else 0), reasons


def _check_corners(status, doc) -> list[str]:
    reasons = []
    results = doc["results"]
    if results.get("n_evaluations") != 1024:
        reasons.append(f"n_evaluations {results.get('n_evaluations')!r} != 1024")
    worst = results.get("worst_error")
    if not isinstance(worst, float) or abs(worst - CORNERS_WORST_ERROR) > 1e-12:
        reasons.append(f"worst_error {worst!r} != {CORNERS_WORST_ERROR!r}")
    failing = [c["name"] for c in doc["checks"] if not c["pass"]]
    # The absolute model misses the 1e-2 target by design (acceptance
    # criterion 8), so exactly that check fails and the exit status is 1.
    if failing != [CORNERS_EXPECTED_FAILING_CHECK]:
        reasons.append(f"failing checks {failing!r}")
    if status != 1:
        reasons.append(f"exit status {status!r} != 1")
    return reasons


def _check_random_report(status, doc) -> list[str]:
    reasons = []
    if status != 0 or doc.get("pass") is not True:
        reasons.append(f"exit {status!r}, pass {doc.get('pass')!r}")
    n = doc["results"].get("n_evaluations")
    if n != RANDOM_SAMPLES:
        reasons.append(f"n_evaluations {n!r} != {RANDOM_SAMPLES}")
    return reasons


def _check_random_records(csv_path: Path, seed: int) -> tuple[int, list[str]]:
    """Re-derive sampled sweep records through an independent path.

    The CSV carries the exact ``repr`` reflectivities, so each record's
    circuit is rebuilt exactly; its per-input errors are recomputed from
    the transfer matrix and the permanent oracle over the heralded
    two-photon (c_H, c_V, t_H, t_V) sector, then renormalised.
    """
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, records = rows[0], rows[1:]
    if len(records) != RANDOM_SAMPLES:
        return RANDOM_SAMPLES, [f"CSV has {len(records)} records"]
    worst_col = header.index("worst_error")
    worst = max(range(len(records)), key=lambda i: float(records[i][worst_col]))
    others = [i for i in range(len(records)) if i != worst]
    chosen = [worst] + random.Random(seed).sample(others, ORACLE_CHECKED_RECORDS)
    failed, reasons = 0, []
    for i in chosen:
        row = dict(zip(header, records[i]))
        expected = {k: float(row[f"error_{k}"]) for k in BASIS_INPUTS}
        got = oracle_errors([_cell(row[h]) for h in header[: header.index("error_HH")]])
        bad = {k: (expected[k], got[k]) for k in BASIS_INPUTS
               if abs(expected[k] - got[k]) > ORACLE_TOLERANCE}
        if bad:
            failed += 1
            reasons.append(f"record {i}: sweep vs oracle errors {bad}")
    return failed, reasons


def _cell(text: str) -> float:
    """A CSV float cell. Under numpy 2 the sweep writes the reflectivities
    as ``np.float64(x)`` reprs; the literal inside is still exact."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def oracle_errors(etas: list[float]) -> dict[str, float]:
    """Per-input logical error of the CNOT at the given reflectivities,
    from ``compose_transfer_matrix`` and ``oracle_amplitude`` alone."""
    # The package re-exports the function ``evolve`` under the module's
    # name, so the modules are reached through importlib.
    elements, evolve, fock, gates = (
        importlib.import_module(f"loqc.{m}")
        for m in ("elements", "evolve", "fock", "gates")
    )
    base = gates.build_cnot_circuit()
    circuit = dataclasses.replace(
        base,
        elements=tuple(
            dataclasses.replace(el, reflectivity=eta)
            for el, eta in zip(base.elements, etas, strict=True)
        ),
    )
    transfer = elements.compose_transfer_matrix(circuit)
    qubit_modes = [circuit.mode_index(m) for m in ("c_H", "c_V", "t_H", "t_V")]
    sector = []
    for occ in fock.enumerate_basis(4, 2):
        out = [0] * circuit.n_modes
        for mode, k in zip(qubit_modes, occ):
            out[mode] = k
        for mode, k in circuit.detection.exact.items():
            out[mode] = k
        sector.append((occ, tuple(out)))
    errors = {}
    for label in BASIS_INPUTS:
        (input_occ,) = gates.encode_logical(gates.logical_pair(label), circuit).amplitudes
        amps = {
            occ: evolve.oracle_amplitude(
                evolve.AmplitudeQuery(transfer, input_occ, out)
            )
            for occ, out in sector
        }
        norm = sum(abs(a) ** 2 for a in amps.values())
        image = gates.dual_rail_ket(gates.CNOT_IMAGE[label])
        errors[label] = 1.0 - abs(amps[image]) ** 2 / norm
    return errors


# Binding sites each workload's traced pass must reach; a site that is
# bound but never fires means a wrapper was installed where the program
# no longer calls it, so a per-layer figure would silently read zero.
_SWEEP_SITES = {
    "cli.main",
    "verify.sensitivity_sweep",
    "verify._perturbed_circuit",
    "verify.conditioned_logical_output",
    "verify.encode_logical",
    "verify.evolve",
    "evolve.apply_element",
    "fock.FockStateVector.__post_init__",
    "verify.condition",
    "verify.decode_logical",
    "verify.gate_by_name",
    "gates._GATE_BUILDERS[cnot]",
    "evolve.beamsplitter_matrix",
}
REQUIRED_SITES = {
    "sweep-corners": _SWEEP_SITES,
    "sweep-random": _SWEEP_SITES,
    "verify-battery": (_SWEEP_SITES - {"verify.sensitivity_sweep",
                                       "verify._perturbed_circuit"}) | {
        "gates.evolve",
        "gates.condition",
        "cli.evolve",
        "cli.condition",
        "cli.load_circuit",
        "verify.coincidence_probability",
        "verify.compose_transfer_matrix",
        "elements.beamsplitter_matrix",
        "verify.oracle_amplitude",
        "evolve.permanent",
        "gates.solve_optimal_ns",
        "gates.solve_biased_ns",
        "gates.build_ns_circuit",
        "gates.build_biased_ns_circuit",
        "gates._GATE_BUILDERS[ns]",
        "gates._GATE_BUILDERS[ns-biased]",
        "gates._GATE_BUILDERS[cnot-simplified]",
        "verify.truth_table",
        "verify.moment_table",
        "verify.bell_test",
        "verify.intermediate_state_check",
        "verify.heisenberg_consistency",
    },
}
