"""Command-line interface.

Commands
--------
ns-verify     check the NS gate's conditional map (closed form vs circuit)
truth-table   run a CNOT variant over the four basis inputs
moments       four-fold coincidence moment tables
bell-test     superposition inputs and the Bell states they produce
intermediate  compare an interior state against its closed form
sweep         beamsplitter-error sensitivity sweep
solve-params  solve and cross-check the gate operating points
run-circuit   evolve an input through a circuit description file

Every command accepts --json PATH to write a machine-readable report;
reports are byte-identical across runs for the same flags (randomized
sweeps take --rng-seed). Exit codes: 0 all checks passed, 1 at least one
check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import gates, verify
from .circuit_io import CircuitFileError, load_circuit
from .evolve import evolve
from .fock import basis_state
from .postselect import condition

CNOT_GATES = ("cnot", "cnot-simplified")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _write_report(doc: dict, path: str | None) -> None:
    if path is None:
        return
    # NaN and Infinity are not JSON: raise before anything is written
    text = json.dumps(_jsonable(doc), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _document(command: str, inputs: dict, results: dict, checks: list[dict]) -> dict:
    """Assemble a report document; ``pass`` is the conjunction of checks."""
    return {
        "schema_version": "1",
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _results(result: dict) -> dict:
    """A verification result without the checks and verdict it carries."""
    return {k: v for k, v in result.items() if k not in ("checks", "passed")}


def _finish(doc: dict, args) -> int:
    _write_report(doc, getattr(args, "json", None))
    print("PASS" if doc["pass"] else "FAIL")
    return 0 if doc["pass"] else 1


# ---------------------------------------------------------------------------
# command handlers


def _cmd_ns_verify(args) -> int:
    overridden = any(
        getattr(args, name) is not None for name in ("eta1", "eta2", "eta3", "eta7")
    )
    if args.biased:
        if args.eta1 is not None or args.eta3 is not None:
            print("ns-verify: --eta1/--eta3 do not apply to --biased", file=sys.stderr)
            return 2
        defaults = gates.balanced_biased_parameters()
        params = gates.BiasedNsParameters(
            args.eta2 if args.eta2 is not None else defaults.eta2,
            args.eta7 if args.eta7 is not None else defaults.eta7,
        )
        closed = gates.biased_ns_amplitudes(params)
        circuit = gates.build_biased_ns_circuit(params)
        param_doc = {"eta2": params.eta2, "eta7": params.eta7}
    else:
        if args.eta7 is not None:
            print("ns-verify: --eta7 requires --biased", file=sys.stderr)
            return 2
        defaults = gates.optimal_ns_parameters()
        params = gates.NsParameters(
            args.eta1 if args.eta1 is not None else defaults.eta1,
            args.eta2 if args.eta2 is not None else defaults.eta2,
            args.eta3 if args.eta3 is not None else defaults.eta3,
        )
        closed = gates.ns_conditional_map(params)
        circuit = gates.build_ns_circuit(params)
        param_doc = {"eta1": params.eta1, "eta2": params.eta2, "eta3": params.eta3}
    evolved = gates.conditional_map_by_evolution(circuit)
    deviation = max(abs(c - e) for c, e in zip(closed, evolved))
    balance = verify.check("balanced operation", gates.balance_residual(closed), 1e-10)
    success_uniform = sum(abs(l) ** 2 for l in closed) / 3.0
    checks = [verify.check("closed form vs circuit evolution", deviation, 1e-10)]
    if not overridden:
        checks.append(balance)
    inputs = {
        "biased": args.biased,
        "eta1": args.eta1,
        "eta2": args.eta2,
        "eta3": args.eta3,
        "eta7": args.eta7,
    }
    results = {
        "parameters": param_doc,
        "closed_form": list(closed),
        "circuit_evolution": list(evolved),
        "deviation": deviation,
        "balanced": balance["pass"],
        "success_probability_uniform_input": success_uniform,
    }
    doc = _document("ns-verify", inputs, results, checks)
    kind = "biased NS" if args.biased else "NS"
    print(f"{kind} gate at " + " ".join(f"{k}={_fmt(v)}" for k, v in param_doc.items()))
    print(
        "  closed form: "
        + " ".join(f"l{i}={_fmt(l)}" for i, l in enumerate(closed))
    )
    print(
        "  circuit:     "
        + " ".join(f"l{i}={_fmt_complex(l)}" for i, l in enumerate(evolved))
    )
    print(f"  deviation {_fmt(deviation)}")
    print(f"  success probability (uniform input) {_fmt(success_uniform)}")
    print(f"  balanced: {'yes' if balance['pass'] else 'no (flagged unbalanced)'}")
    return _finish(doc, args)


def _cmd_truth_table(args) -> int:
    report = verify.truth_table(args.gate, args.conditioning)
    results = {
        "rows": report.rows,
        "moments": report.moments,
        "max_deviation": report.max_deviation,
    }
    inputs = {"gate": args.gate, "conditioning": args.conditioning}
    doc = _document("truth-table", inputs, results, report.checks)
    print(f"truth table for {args.gate} ({args.conditioning} conditioning)")
    for row in report.rows:
        print(
            f"  {row['input']} -> {row['decoded']} (expected {row['expected']})"
            f"  p={_fmt(row['probability'])}  leakage={_fmt(row['leakage'])}"
        )
    for check in doc["checks"]:
        status = "ok" if check["pass"] else "FAILED"
        print(f"  [{status}] {check['name']}: {_fmt(check['value'])}")
    return _finish(doc, args)


def _cmd_moments(args) -> int:
    result = verify.moment_report(args.gate, args.input)
    doc = _document(
        "moments",
        {"gate": args.gate, "input": args.input},
        _results(result),
        result["checks"],
    )
    print(f"four-fold coincidence moments for {args.gate}")
    for label, table in result["tables"].items():
        cells = "  ".join(f"{k}:{_fmt(v)}" for k, v in sorted(table.items()))
        print(f"  input {label}:  {cells}")
    return _finish(doc, args)


def _cmd_bell_test(args) -> int:
    result = verify.bell_test(args.gate)
    doc = _document(
        "bell-test", {"gate": args.gate}, _results(result), result["checks"]
    )
    print(f"Bell-state generation through {args.gate}")
    for entry in result["entries"]:
        print(
            f"  sign {entry['input'][0]}, target {entry['input'][1]} -> "
            f"{entry['bell_state']}  fidelity={_fmt(entry['fidelity'])}  "
            f"purity={_fmt(entry['purity'])}"
        )
    return _finish(doc, args)


def _cmd_intermediate(args) -> int:
    try:
        result = verify.intermediate_state_check(args.gate, args.input, args.cut)
    except ValueError as exc:
        print(f"intermediate: {exc}", file=sys.stderr)
        return 2
    doc = _document(
        "intermediate",
        {"gate": args.gate, "input": args.input, "cut": args.cut},
        _results(result),
        result["checks"],
    )
    print(
        f"{args.gate} input {args.input} at cut {args.cut}: deviation "
        f"{_fmt(result['deviation'])}, global phase "
        f"{_fmt_complex(result['global_phase'])}"
    )
    return _finish(doc, args)


def _cmd_sweep(args) -> int:
    result = verify.sensitivity_sweep(
        gate=args.gate,
        model=args.model,
        magnitude=args.magnitude,
        mode=args.mode,
        samples=args.samples,
        seed=args.rng_seed,
    )
    # an error of exactly 1.0 is in range, so this verdict is not value < tolerance
    in_range = 0.0 <= result.mean_error <= result.worst_error <= 1.0
    checks = [verify.check("errors within [0, 1]", result.worst_error, 1.0, in_range)]
    if args.magnitude <= 0.02 + 1e-15:
        checks.append(
            verify.check("worst logical error below 1e-2", result.worst_error, 1e-2)
        )
    inputs = {
        "gate": args.gate,
        "model": args.model,
        "magnitude": args.magnitude,
        "mode": args.mode,
        "samples": args.samples,
        "rng_seed": args.rng_seed,
    }
    doc = _document("sweep", inputs, result.to_dict(), checks)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                result.element_labels
                + [f"error_{k}" for k in gates.BASIS_INPUTS]
                + ["worst_error", "probability_min", "probability_max"]
            )
            for rec in result.records:
                writer.writerow(
                    [repr(x) for x in rec["etas"]]
                    + [repr(rec["errors"][k]) for k in gates.BASIS_INPUTS]
                    + [
                        repr(rec["worst_error"]),
                        repr(rec["probability_min"]),
                        repr(rec["probability_max"]),
                    ]
                )
    print(
        f"sweep {args.gate} model={args.model} magnitude={_fmt(args.magnitude)} "
        f"mode={args.mode} evaluations={result.n_evaluations}"
    )
    print(
        f"  worst error {_fmt(result.worst_error)} (input {result.worst_input}), "
        f"mean {_fmt(result.mean_error)}"
    )
    print(
        f"  success probability range [{_fmt(result.probability_min)}, "
        f"{_fmt(result.probability_max)}]"
    )
    return _finish(doc, args)


def _cmd_solve_params(args) -> int:
    ns_params, amplitude = gates.solve_optimal_ns(verify=True)
    lams = gates.ns_conditional_map(ns_params)
    biased = gates.solve_biased_ns(verify=True)
    blams = gates.biased_ns_amplitudes(biased)
    checks = [
        verify.check("NS balance residual", gates.balance_residual(lams), 1e-12),
        verify.check("NS success amplitude is 1/2", abs(amplitude - 0.5), 1e-12),
        verify.check("biased balance residual", gates.balance_residual(blams), 1e-12),
    ]
    results = {
        "ns": {
            "eta1": ns_params.eta1,
            "eta2": ns_params.eta2,
            "eta3": ns_params.eta3,
            "amplitude": amplitude,
            "map": list(lams),
        },
        "biased": {
            "eta2": biased.eta2,
            "eta7": biased.eta7,
            "map": list(blams),
            "success_probability": biased.eta2,
        },
    }
    doc = _document("solve-params", {}, results, checks)
    print("NS gate:")
    print(
        f"  eta1=eta3={_fmt(ns_params.eta1)}  eta2={_fmt(ns_params.eta2)}"
        f"  success amplitude {_fmt(amplitude)}"
    )
    print("biased NS gate:")
    print(
        f"  eta2={_fmt(biased.eta2)}  eta7={_fmt(biased.eta7)}"
        f"  success probability {_fmt(biased.eta2)}"
    )
    return _finish(doc, args)


def _cmd_run_circuit(args) -> int:
    try:
        circuit = load_circuit(args.file)
    except CircuitFileError as exc:
        print(f"run-circuit: {exc}", file=sys.stderr)
        return 2
    user_modes = circuit.user_modes()
    try:
        counts = [int(tok) for tok in args.input.split(",")]
    except ValueError:
        print(f"run-circuit: cannot parse --input {args.input!r}", file=sys.stderr)
        return 2
    if len(counts) != len(user_modes) or any(c < 0 for c in counts):
        print(
            f"run-circuit: --input needs {len(user_modes)} non-negative counts "
            f"for modes {[circuit.labels[m] for m in user_modes]}",
            file=sys.stderr,
        )
        return 2
    occ = circuit.prepared_occupation(dict(zip(user_modes, counts)))
    try:
        out = evolve(basis_state(circuit.n_modes, occ), circuit)
    except ValueError as exc:
        print(f"run-circuit: {exc}", file=sys.stderr)
        return 2
    amplitudes = {
        "".join(map(str, o)) if max(o) <= 9 else str(o): amp
        for o, amp in out.sorted_items()
    }
    results = {"prepared_occupation": list(occ), "amplitudes": amplitudes}
    print(f"evolved {args.file} on input {occ}")
    for key, amp in amplitudes.items():
        print(f"  |{key}>  {_fmt_complex(amp)}")
    if circuit.detection is not None:
        outcome = condition(out, circuit.detection)
        results["conditioned"] = {
            "probability": outcome.probability,
            "kept_modes": [circuit.labels[m] for m in outcome.kept_modes],
            "amplitudes": {
                "".join(map(str, o)) if (o and max(o) <= 9) else str(o): amp
                for o, amp in outcome.reduced.sorted_items()
            },
        }
        print(f"  heralded probability {_fmt(outcome.probability)}")
    doc = _document(
        "run-circuit", {"file": str(args.file), "input": args.input}, results, []
    )
    return _finish(doc, args)


# ---------------------------------------------------------------------------
# parser


# Built once per process: main() only parses with it, and every parse
# returns a fresh namespace.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loqc",
        description="Simulate and verify postselected linear-optical gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ns-verify", help="verify the NS conditional map")
    p.add_argument("--biased", action="store_true")
    for name in ("eta1", "eta2", "eta3", "eta7"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--json")
    p.set_defaults(handler=_cmd_ns_verify)

    p = sub.add_parser("truth-table", help="basis-input truth table")
    p.add_argument("gate", choices=CNOT_GATES)
    p.add_argument(
        "--conditioning", choices=("heralded", "coincidence"), default="heralded"
    )
    p.add_argument("--json")
    p.set_defaults(handler=_cmd_truth_table)

    p = sub.add_parser("moments", help="four-fold coincidence moments")
    p.add_argument("gate", choices=CNOT_GATES)
    p.add_argument("--input", choices=gates.BASIS_INPUTS, default=None)
    p.add_argument("--json")
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("bell-test", help="Bell states from superposition inputs")
    p.add_argument("gate", nargs="?", choices=CNOT_GATES, default="cnot")
    p.add_argument("--json")
    p.set_defaults(handler=_cmd_bell_test)

    p = sub.add_parser("intermediate", help="interior state vs closed form")
    p.add_argument("gate", choices=CNOT_GATES)
    p.add_argument("--input", choices=gates.BASIS_INPUTS, required=True)
    p.add_argument("--cut", required=True)
    p.add_argument("--json")
    p.set_defaults(handler=_cmd_intermediate)

    p = sub.add_parser("sweep", help="beamsplitter-error sensitivity sweep")
    p.add_argument("gate", nargs="?", choices=CNOT_GATES, default="cnot")
    p.add_argument("--model", choices=("absolute", "relative"), default="absolute")
    p.add_argument("--magnitude", type=float, default=0.02)
    p.add_argument("--mode", choices=("corners", "random"), default="corners")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--json")
    p.add_argument("--csv")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("solve-params", help="solve and check operating points")
    p.add_argument("--json")
    p.set_defaults(handler=_cmd_solve_params)

    p = sub.add_parser("run-circuit", help="evolve an input through a circuit file")
    p.add_argument("file")
    p.add_argument("--input", required=True, help="comma-separated photon counts")
    p.add_argument("--json")
    p.set_defaults(handler=_cmd_run_circuit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
