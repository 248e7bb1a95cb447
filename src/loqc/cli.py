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

Every command accepts --json PATH to write a machine-readable report whose
``inputs`` echo every parsed argument except the output paths; reports are
byte-identical across runs for the same flags (randomized sweeps take
--rng-seed). Exit codes: 0 all checks passed, 1 at least one check failed,
2 usage or input error, or a report or CSV path that cannot be written; a
path that is a directory or under a missing one prints and writes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import os
import re
import sys
from pathlib import Path

from . import gates, verify
from .circuit_io import load_circuit
from .evolve import evolve
from .fock import basis_state
from .postselect import condition

_OUTPUTS = ("json", "csv")  # parsed arguments that name output files
# parsed arguments that are not inputs of the command's computation
_NOT_INPUTS = ("command",) + _OUTPUTS
_NOT_RESULTS = ("checks", "passed", "records")  # records: sweep arrays, for --csv
_CSV_BLOCK = 64  # sweep records turned into Python floats at a time for --csv


def _real_imag(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_report(doc: dict, path: str | None) -> None:
    if path is None:
        return
    # a complex number goes through the hook as [real, imag]; NaN and
    # Infinity are not JSON: raise before anything is written
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_real_imag)
    Path(path).write_text(text + "\n")


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _ket_label(occ) -> str:
    return "".join(map(str, occ)) if occ and max(occ) <= 9 else str(occ)


def _finish(args, report: dict) -> int:
    """Write the report (``pass`` is the conjunction of its checks), print
    the verdict and return the exit code."""
    passed = all(c["pass"] for c in report["checks"])
    doc = {
        "schema_version": "1",
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
        "results": {k: v for k, v in report.items() if k not in _NOT_RESULTS},
        "checks": report["checks"],
        "pass": passed,
    }
    _write_report(doc, args.json)
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# command handlers


def _cmd_ns_verify(args) -> int:
    if args.biased:
        kind, defaults = "biased NS", gates.balanced_biased_parameters()
        closed_form, build = gates.biased_ns_amplitudes, gates.build_biased_ns_circuit
        stray = "--eta1/--eta3 do not apply to --biased"
    else:
        kind, defaults = "NS", gates.optimal_ns_parameters()
        closed_form, build = gates.ns_conditional_map, gates.build_ns_circuit
        stray = "--eta7 requires --biased"
    given = {
        k: v for k, v in vars(args).items() if k.startswith("eta") and v is not None
    }
    if given.keys() - {f.name for f in dataclasses.fields(defaults)}:
        raise ValueError(stray)
    params = dataclasses.replace(defaults, **given)
    parameters = dataclasses.asdict(params)
    closed = closed_form(params)
    evolved = gates.conditional_map_by_evolution(build(params))
    deviation = max(abs(c - e) for c, e in zip(closed, evolved))
    balance = verify.check("balanced operation", gates.balance_residual(closed), 1e-10)
    success_uniform = sum(abs(l) ** 2 for l in closed) / 3.0
    checks = [verify.check("closed form vs circuit evolution", deviation, 1e-10)]
    if not given:
        checks.append(balance)
    report = {
        "parameters": parameters,
        "closed_form": list(closed),
        "circuit_evolution": list(evolved),
        "deviation": deviation,
        "balanced": balance["pass"],
        "success_probability_uniform_input": success_uniform,
        "checks": checks,
    }
    print(f"{kind} gate at", *(f"{k}={_fmt(v)}" for k, v in parameters.items()))
    print("  closed form:", *(f"l{i}={_fmt(l)}" for i, l in enumerate(closed)))
    print("  circuit:    ", *(f"l{i}={_fmt_complex(l)}" for i, l in enumerate(evolved)))
    print(f"  deviation {_fmt(deviation)}")
    print(f"  success probability (uniform input) {_fmt(success_uniform)}")
    print(f"  balanced: {'yes' if balance['pass'] else 'no (flagged unbalanced)'}")
    return _finish(args, report)


def _cmd_truth_table(args) -> int:
    report = verify.truth_table(args.gate, args.conditioning)
    print(f"truth table for {args.gate} ({args.conditioning} conditioning)")
    for row in report["rows"]:
        print(
            f"  {row['input']} -> {row['decoded']} (expected {row['expected']})"
            f"  p={_fmt(row['probability'])}  leakage={_fmt(row['leakage'])}"
        )
    for check in report["checks"]:
        status = "ok" if check["pass"] else "FAILED"
        print(f"  [{status}] {check['name']}: {_fmt(check['value'])}")
    return _finish(args, report)


def _cmd_moments(args) -> int:
    report = verify.moment_report(args.gate, args.input)
    print(f"four-fold coincidence moments for {args.gate}")
    for label, table in report["tables"].items():
        cells = "  ".join(f"{k}:{_fmt(v)}" for k, v in sorted(table.items()))
        print(f"  input {label}:  {cells}")
    return _finish(args, report)


def _cmd_bell_test(args) -> int:
    report = verify.bell_test(args.gate)
    print(f"Bell-state generation through {args.gate}")
    for entry in report["entries"]:
        print(
            f"  sign {entry['input'][0]}, target {entry['input'][1]} -> "
            f"{entry['bell_state']}  fidelity={_fmt(entry['fidelity'])}  "
            f"purity={_fmt(entry['purity'])}"
        )
    return _finish(args, report)


def _cmd_intermediate(args) -> int:
    report = verify.intermediate_state_check(args.gate, args.input, args.cut)
    print(
        f"{args.gate} input {args.input} at cut {args.cut}: deviation "
        f"{_fmt(report['deviation'])}, global phase "
        f"{_fmt_complex(report['global_phase'])}"
    )
    return _finish(args, report)


def _write_sweep_csv(report: dict, path: str) -> None:
    """One CSV row per sweep record: its reflectivities, its error on each
    basis input, and its worst error and success-probability range."""
    records = report["records"]
    etas, errors, probs = (records[k] for k in ("etas", "errors", "probabilities"))
    with open(path, "w", newline="") as fh:
        # csv.writer's bytes: no float repr, column name or gates.CNOTS element
        # label (the sweep takes no other gate) holds a comma, quote or line
        # break, so its default dialect quotes none; it ends lines with "\r\n".
        # numpy's row max and min give the bytes of Python's max and min: the
        # records hold no NaN and no -0.0, so no tie can pick a different zero.
        # A block of rows at a time, so a long sweep never holds its rows as lists.
        fh.write(",".join(
            report["element_labels"]
            + [f"error_{k}" for k in gates.BASIS_INPUTS]
            + ["worst_error", "probability_min", "probability_max"]
        ) + "\r\n")
        for start in range(0, len(etas), _CSV_BLOCK):
            rows = slice(start, start + _CSV_BLOCK)
            block = zip(
                etas[rows].tolist(),
                errors[rows].tolist(),
                errors[rows].max(axis=1).tolist(),
                probs[rows].min(axis=1).tolist(),
                probs[rows].max(axis=1).tolist(),
            )
            fh.write("".join([
                ",".join(map(repr, e + r + [worst, p_min, p_max])) + "\r\n"
                for e, r, worst, p_min, p_max in block
            ]))


def _cmd_sweep(args) -> int:
    report = verify.sensitivity_sweep(
        gate=args.gate,
        model=args.model,
        magnitude=args.magnitude,
        mode=args.mode,
        samples=args.samples,
        seed=args.rng_seed,
    )
    if args.csv:
        _write_sweep_csv(report, args.csv)
    print(
        f"sweep {args.gate} model={args.model} magnitude={_fmt(args.magnitude)} "
        f"mode={args.mode} evaluations={report['n_evaluations']}"
    )
    print(
        f"  worst error {_fmt(report['worst_error'])} "
        f"(input {report['worst_input']}), mean {_fmt(report['mean_error'])}"
    )
    print(
        f"  success probability range [{_fmt(report['probability_min'])}, "
        f"{_fmt(report['probability_max'])}]"
    )
    return _finish(args, report)


def _cmd_solve_params(args) -> int:
    ns_params, amplitude = gates.solve_optimal_ns()
    lams = gates.ns_conditional_map(ns_params)
    biased = gates.solve_biased_ns()
    blams = gates.biased_ns_amplitudes(biased)
    checks = [
        verify.check("NS balance residual", gates.balance_residual(lams), 1e-12),
        verify.check("NS success amplitude is 1/2", abs(amplitude - 0.5), 1e-12),
        verify.check("biased balance residual", gates.balance_residual(blams), 1e-12),
    ]
    report = {
        "ns": {
            **dataclasses.asdict(ns_params),
            "amplitude": amplitude,
            "map": list(lams),
        },
        "biased": {
            **dataclasses.asdict(biased),
            "map": list(blams),
            "success_probability": biased.eta2,
        },
        "checks": checks,
    }
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
    return _finish(args, report)


def _cmd_run_circuit(args) -> int:
    circuit = load_circuit(args.file)
    user_modes = [m for m in range(circuit.n_modes) if m not in circuit.ancilla_prep]
    if not re.fullmatch("[0-9]+(,[0-9]+)*", args.input):
        raise ValueError(f"cannot parse --input {args.input!r}")
    counts = [int(tok) for tok in args.input.split(",")]
    if len(counts) != len(user_modes):
        raise ValueError(
            f"--input needs {len(user_modes)} non-negative counts "
            f"for modes {[circuit.labels[m] for m in user_modes]}"
        )
    occ = circuit.prepared_occupation(dict(zip(user_modes, counts)))
    out = evolve(basis_state(circuit.n_modes, occ), circuit)
    amplitudes = {_ket_label(o): amp for o, amp in out.sorted_items()}
    report = {"prepared_occupation": list(occ), "amplitudes": amplitudes, "checks": []}
    print(f"evolved {args.file} on input {occ}")
    for key, amp in amplitudes.items():
        print(f"  |{key}>  {_fmt_complex(amp)}")
    if circuit.detection is not None:
        outcome = condition(out, circuit.detection)
        report["conditioned"] = {
            "probability": outcome.probability,
            "kept_modes": [circuit.labels[m] for m in outcome.kept_modes],
            "amplitudes": {
                _ket_label(o): amp for o, amp in outcome.reduced.sorted_items()
            },
        }
        print(f"  heralded probability {_fmt(outcome.probability)}")
    return _finish(args, report)


# ---------------------------------------------------------------------------
# parser


# The CNOT positional of the commands that read the CNOT truth table. Its
# choices are ``gates.CNOTS`` itself, which argparse reads as the table's
# keys whenever it checks a value or prints a usage line.
_GATE = {"choices": gates.CNOTS}
_GATE_OR_CNOT = {**_GATE, "nargs": "?", "default": "cnot"}

# name -> (help line, handler, its arguments as (name, add_argument keywords)
# pairs); ``_add_arguments`` adds the --json every command takes
_COMMANDS = {
    "ns-verify": ("verify the NS conditional map", _cmd_ns_verify, (
        ("--biased", {"action": "store_true"}),
        *((f"--{eta}", {"type": float}) for eta in ("eta1", "eta2", "eta3", "eta7")),
    )),
    "truth-table": ("basis-input truth table", _cmd_truth_table, (
        ("gate", _GATE),
        (
            "--conditioning",
            {"choices": ("heralded", "coincidence"), "default": "heralded"},
        ),
    )),
    "moments": ("four-fold coincidence moments", _cmd_moments, (
        ("gate", _GATE),
        ("--input", {"choices": gates.BASIS_INPUTS}),
    )),
    "bell-test": ("Bell states from superposition inputs", _cmd_bell_test, (
        ("gate", _GATE_OR_CNOT),
    )),
    "intermediate": ("interior state vs closed form", _cmd_intermediate, (
        ("gate", _GATE),
        ("--input", {"choices": gates.BASIS_INPUTS, "required": True}),
        ("--cut", {"required": True}),
    )),
    "sweep": ("beamsplitter-error sensitivity sweep", _cmd_sweep, (
        ("gate", _GATE_OR_CNOT),
        ("--model", {"choices": ("absolute", "relative"), "default": "absolute"}),
        ("--magnitude", {"type": float, "default": 0.02}),
        ("--mode", {"choices": ("corners", "random"), "default": "corners"}),
        ("--samples", {"type": int, "default": 100}),
        ("--rng-seed", {"type": int, "default": 0}),
        ("--csv", {}),
    )),
    "solve-params": ("solve and check operating points", _cmd_solve_params, ()),
    "run-circuit": ("evolve an input through a circuit file", _cmd_run_circuit, (
        ("file", {}),
        ("--input", {"required": True, "help": "comma-separated photon counts"}),
    )),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    for argument, keywords in _COMMANDS[name][2]:
        parser.add_argument(argument, **keywords)
    parser.add_argument("--json")


# Each parser is built once per process; every parse returns a fresh namespace.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command, as a subcommand of ``loqc``."""
    parser = argparse.ArgumentParser(
        prog="loqc",
        description="Simulate and verify postselected linear-optical gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary), name)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser, the same as its subparser in ``build_parser``."""
    parser = argparse.ArgumentParser(prog=f"loqc {name}")
    _add_arguments(parser, name)
    parser.set_defaults(command=name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = rest = None
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or rest:
        # no command, or arguments its command does not take: the full
        # parser prints the help or the usage error, as argparse words it
        args = build_parser().parse_args(argv)
    try:
        # refuse an output path with the error its write would raise, up front
        for path in (getattr(args, k, None) for k in _OUTPUTS):
            if path is None:
                continue
            if Path(path).is_dir() or not Path(path).parent.is_dir():
                code = errno.EISDIR if Path(path).is_dir() else errno.ENOENT
                raise OSError(code, os.strerror(code), path)
        return _COMMANDS[args.command][1](args)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
