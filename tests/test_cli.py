"""Command-line interface: exit codes, report documents, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loqc
from loqc import cli, gates, verify
from loqc.cli import _write_report, build_parser, main
from loqc.gates import BASIS_INPUTS

NS_FILE = {
    "n_modes": 3,
    "labels": ["s", "a", "v"],
    "elements": [
        {"a": "a", "b": "v", "eta": "eta13_ns", "grey": "v"},
        {"a": "s", "b": "a", "eta": "eta2_ns", "grey": "s"},
        {"a": "a", "b": "v", "eta": "eta13_ns", "grey": "v"},
    ],
    "ancilla_prep": {"a": 1, "v": 0},
    "detection": {"exact": {"a": 1, "v": 0}},
}


def run(args):
    return main(args)


def read_doc(path):
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == "1"
    assert set(doc) == {
        "schema_version",
        "command",
        "inputs",
        "results",
        "checks",
        "pass",
    }
    assert doc["pass"] == all(c["pass"] for c in doc["checks"])
    return doc


def test_ns_verify_default_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["ns-verify", "--json", str(out)]) == 0
    doc = read_doc(out)
    assert doc["command"] == "ns-verify"
    lams = doc["results"]["closed_form"]
    assert lams[0] == pytest.approx(0.5, abs=1e-12)
    assert lams[2] == pytest.approx(-0.5, abs=1e-12)
    assert "PASS" in capsys.readouterr().out


def test_ns_verify_biased_reports_success_probability(tmp_path):
    out = tmp_path / "r.json"
    assert run(["ns-verify", "--biased", "--json", str(out)]) == 0
    doc = read_doc(out)
    p = doc["results"]["success_probability_uniform_input"]
    assert p == pytest.approx(0.2265409, abs=1e-6)


def test_ns_verify_override_flags_unbalanced(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run(
        ["ns-verify", "--eta1", "1", "--eta3", "1", "--eta2", "0.25", "--json", str(out)]
    )
    assert code == 0
    doc = read_doc(out)
    lams = doc["results"]["closed_form"]
    assert lams == pytest.approx([0.5, 0.5, -0.625], abs=1e-12)
    assert doc["results"]["balanced"] is False
    assert "flagged unbalanced" in capsys.readouterr().out


def test_ns_verify_flag_conflicts_are_usage_errors():
    assert run(["ns-verify", "--eta7", "0.5"]) == 2
    assert run(["ns-verify", "--biased", "--eta1", "0.5"]) == 2


def test_truth_table_reports_rows(tmp_path):
    out = tmp_path / "r.json"
    assert run(["truth-table", "cnot", "--json", str(out)]) == 0
    doc = read_doc(out)
    rows = {r["input"]: r for r in doc["results"]["rows"]}
    assert rows["VH"]["decoded"] == "VV"
    assert rows["VH"]["probability"] == pytest.approx(0.0625, abs=1e-10)


def test_truth_table_coincidence_matches_heralded(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["truth-table", "cnot-simplified", "--json", str(a)]) == 0
    assert (
        run(
            [
                "truth-table",
                "cnot-simplified",
                "--conditioning",
                "coincidence",
                "--json",
                str(b),
            ]
        )
        == 0
    )
    rows_a = {r["input"]: r["decoded"] for r in read_doc(a)["results"]["rows"]}
    rows_b = {r["input"]: r["decoded"] for r in read_doc(b)["results"]["rows"]}
    assert rows_a == rows_b


def test_unknown_gate_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["truth-table", "toffoli"])
    assert err.value.code == 2


def test_moments_single_input(tmp_path):
    out = tmp_path / "r.json"
    assert run(["moments", "cnot", "--input", "VH", "--json", str(out)]) == 0
    doc = read_doc(out)
    table = doc["results"]["tables"]["VH"]
    assert table["VV"] == pytest.approx(0.0625, abs=1e-10)
    assert table["HH"] == pytest.approx(0.0, abs=1e-12)


def test_bell_test_document(tmp_path):
    out = tmp_path / "r.json"
    assert run(["bell-test", "--json", str(out)]) == 0
    doc = read_doc(out)
    states = {e["input"]: e["bell_state"] for e in doc["results"]["entries"]}
    assert len(set(states.values())) == 4


def test_intermediate_pass_and_bad_cut(tmp_path):
    out = tmp_path / "r.json"
    assert run(["intermediate", "cnot", "--input", "VH", "--cut", "y", "--json", str(out)]) == 0
    doc = read_doc(out)
    assert doc["results"]["deviation"] < 1e-10
    assert run(["intermediate", "cnot", "--input", "VH", "--cut", "z"]) == 2


def test_sweep_zero_magnitude_passes(tmp_path):
    out = tmp_path / "r.json"
    assert run(["sweep", "--magnitude", "0", "--mode", "random", "--samples", "3", "--json", str(out)]) == 0
    doc = read_doc(out)
    assert doc["results"]["worst_error"] == pytest.approx(0.0, abs=1e-13)


def test_sweep_reports_are_byte_identical_under_fixed_seed(tmp_path):
    args = [
        "sweep",
        "--model",
        "relative",
        "--magnitude",
        "0.02",
        "--mode",
        "random",
        "--samples",
        "20",
        "--rng-seed",
        "3",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(args + ["--json", str(a)]) == 0
    assert run(args + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_writes_sample_csv(tmp_path):
    csv_path = tmp_path / "s.csv"
    assert (
        run(
            [
                "sweep",
                "--model",
                "relative",
                "--magnitude",
                "0.01",
                "--mode",
                "random",
                "--samples",
                "5",
                "--csv",
                str(csv_path),
            ]
        )
        == 0
    )
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("B4,")


def test_solve_params_passes(tmp_path):
    out = tmp_path / "r.json"
    assert run(["solve-params", "--json", str(out)]) == 0
    doc = read_doc(out)
    assert doc["results"]["biased"]["eta7"] == pytest.approx(
        5.0 - 3.0 * 2.0**0.5, abs=1e-10
    )


def test_run_circuit_interference_and_heralding(tmp_path, capsys):
    path = tmp_path / "ns.json"
    path.write_text(json.dumps(NS_FILE))
    out = tmp_path / "r.json"
    assert run(["run-circuit", str(path), "--input", "1", "--json", str(out)]) == 0
    doc = read_doc(out)
    conditioned = doc["results"]["conditioned"]
    assert conditioned["probability"] == pytest.approx(0.25, abs=1e-12)


def test_run_circuit_two_mode_interference(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            {
                "n_modes": 2,
                "labels": ["a", "b"],
                "elements": [{"a": "a", "b": "b", "eta": 0.5, "grey": "b"}],
            }
        )
    )
    out = tmp_path / "r.json"
    assert run(["run-circuit", str(path), "--input", "1,1", "--json", str(out)]) == 0
    doc = read_doc(out)
    amps = doc["results"]["amplitudes"]
    assert amps["20"][0] == pytest.approx(2.0**-0.5, abs=1e-12)
    assert amps["02"][0] == pytest.approx(-(2.0**-0.5), abs=1e-12)


def test_run_circuit_input_errors(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            {
                "n_modes": 2,
                "labels": ["a", "b"],
                "elements": [{"a": "a", "b": "b", "eta": 0.5, "grey": "b"}],
            }
        )
    )
    assert run(["run-circuit", str(path), "--input", "1,1,1"]) == 2
    assert run(["run-circuit", str(path), "--input", "1,x"]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{]")
    assert run(["run-circuit", str(broken), "--input", "1,1"]) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "loqc.cli", "ns-verify"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_cli_import_loads_no_scipy_and_preloads_numpy_random():
    # a fresh interpreter: the suite's own process has scipy loaded by
    # pytest plugins; sympy and mpmath serve the tests, never the program
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, loqc.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'sympy', 'mpmath')))\n"
            "print('numpy.random' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


@pytest.mark.parametrize("mode", ["corners", "random"])
@pytest.mark.parametrize("magnitude", ["nan", "inf"])
def test_sweep_non_finite_magnitude_is_a_usage_error(mode, magnitude, capsys):
    assert run(["sweep", "--magnitude", magnitude, "--mode", mode, "--samples", "2"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["corners", "random"])
def test_sweep_magnitude_overflowing_its_range_is_a_usage_error(mode, capsys):
    assert run(["sweep", "--magnitude", "1e308", "--mode", mode, "--samples", "2"]) == 2
    assert "2 * magnitude finite" in capsys.readouterr().err


def test_sweep_without_samples_is_a_usage_error(capsys):
    assert run(["sweep", "--mode", "random", "--samples", "0"]) == 2
    assert "evaluated no perturbations" in capsys.readouterr().err


@pytest.mark.parametrize(
    "gate, model, magnitude, mode, samples",
    [
        pytest.param(
            "cnot", "relative", 0.02, "random", 30, id="cnot-relative-0.02-random"
        ),
        # clamped reflectivities: rows with error 1.0, probability 0.0, e- exponents
        pytest.param(
            "cnot", "absolute", 0.9, "random", 30, id="cnot-absolute-0.9-random"
        ),
        pytest.param(
            "cnot-simplified", "absolute", 0.02, "corners", 30,
            id="cnot-simplified-absolute-0.02-corners",
        ),
        # 130 rows are written in blocks of 64, 64 and 2
        ("cnot", "relative", 0.02, "random", 130),
        ("cnot", "absolute", 0.9, "random", 130),
    ],
)
def test_sweep_csv_bytes_are_the_csv_writers(
    tmp_path, gate, model, magnitude, mode, samples
):
    csv_path = tmp_path / "s.csv"
    flags = ["--model", model, "--magnitude", str(magnitude), "--mode", mode,
             "--samples", str(samples), "--rng-seed", "2"]
    assert run(["sweep", gate, *flags, "--csv", str(csv_path)]) in (0, 1)
    report = verify.sensitivity_sweep(
        gate, model=model, magnitude=magnitude, mode=mode, samples=samples, seed=2
    )
    records = report["records"]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(
        report["element_labels"]
        + [f"error_{k}" for k in BASIS_INPUTS]
        + ["worst_error", "probability_min", "probability_max"]
    )
    for etas, errors, probs in zip(
        records["etas"].tolist(),
        records["errors"].tolist(),
        records["probabilities"].tolist(),
    ):
        writer.writerow(etas + errors + [max(errors), min(probs), max(probs)])
    assert csv_path.read_bytes() == expected.getvalue().encode()
    if magnitude == 0.9:
        assert (records["errors"] == 1.0).any()
        assert (records["probabilities"] == 0.0).any()
        assert b"e-" in csv_path.read_bytes()


def test_report_with_nan_raises_and_writes_nothing(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        _write_report({"value": float("nan")}, str(path))
    assert not path.exists()


# Runs each argv line of argv[1] (JSON) twice in a fresh interpreter, each
# time on new parsers, as a new process would: through loqc's main and
# through the full parser's parse_args. Prints, per line, the two
# [stdout, stderr, exit code] results; the exit code is None for an argv
# that parses.
_MAIN_AND_FULL_PARSER = """
import contextlib, io, json, sys
from loqc import cli

def captured(parse, argv):
    cli.build_parser.cache_clear()
    cli._command_parser.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
        except SystemExit as exc:
            code = exc.code
    return [out.getvalue(), err.getvalue(), code]

results = []
for argv in json.loads(sys.argv[1]):
    results.append([
        captured(cli.main, argv),
        captured(lambda a: cli.build_parser().parse_args(a), argv),
    ])
print(json.dumps(results))
"""


def _run_script(script, *args):
    env = {**os.environ, "PYTHONPATH": str(Path(loqc.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def test_help_and_usage_errors_do_not_depend_on_the_full_parser():
    lines = [
        ["--help"],
        *([name, "--help"] for name in cli._COMMANDS),
        ["truth-table", "-h", "cnot"],
        [],
        ["bogus"],
        ["truth-table"],
        ["truth-table", "toffoli"],
        ["truth-table", "cnot", "--bogus"],
        ["sweep", "--samples", "x"],
    ]
    results = json.loads(_run_script(_MAIN_AND_FULL_PARSER, json.dumps(lines)))
    assert len(results) == len(lines)
    for argv, (got, expected) in zip(lines, results):
        assert got == expected, argv
        stdout, stderr, code = got
        if "--help" in argv or "-h" in argv:
            assert (code, stderr) == (0, "") and stdout.startswith("usage: loqc"), argv
        else:
            assert (code, stdout) == (2, "") and stderr.startswith("usage: loqc"), argv


# Counts the ArgumentParser objects a process builds while main runs the
# command named on its command line; prints the count last.
_COUNT_PARSERS = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from loqc.cli import main
assert main() == 0
print(len(built))
"""


def test_a_one_command_process_builds_one_parser():
    assert _run_script(_COUNT_PARSERS, "solve-params").splitlines()[-1] == "1"


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["truth-table", "{gate}"],
        ["moments", "{gate}", "--input", "VH"],
        ["bell-test", "{gate}"],
        ["intermediate", "{gate}", "--input", "VH", "--cut", "y"],
        ["sweep", "{gate}", "--model", "relative"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_cnot_added_to_the_table_is_a_gate_of_every_cnot_command(
    tmp_path, monkeypatch, argv
):
    # verify.CNOTS beside the builder is the whole record of a CNOT
    docs = {}
    cli.build_parser.cache_clear()
    cli._command_parser.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setitem(verify.CNOTS, "cnot-copy", verify.CNOTS["cnot"])
            m.setitem(gates._GATE_BUILDERS, "cnot-copy", gates._GATE_BUILDERS["cnot"])
            for gate in ("cnot", "cnot-copy"):
                out = tmp_path / f"{gate}.json"
                command = [a.format(gate=gate) for a in argv]
                assert main(command + ["--json", str(out)]) == 0
                docs[gate] = read_doc(out)
    finally:
        # these parsers offer the copy; no later test may see them
        cli.build_parser.cache_clear()
        cli._command_parser.cache_clear()
    copy = json.loads(json.dumps(docs["cnot-copy"]).replace("cnot-copy", "cnot"))
    assert copy == docs["cnot"]


def test_successive_calls_do_not_share_parsed_values(tmp_path):
    assert run(["sweep", "--samples", "5", "--mode", "random"]) in (0, 1)
    out = tmp_path / "sweep.json"
    run(["sweep", "--json", str(out)])
    inputs = read_doc(out)["inputs"]
    assert inputs["samples"] == 100
    assert inputs["mode"] == "corners"


@pytest.mark.parametrize(
    "argv",
    [
        ["ns-verify", "--json", "{missing}/x.json"],
        ["sweep", "--mode", "random", "--samples", "3", "--csv", "{missing}/x.csv"],
        ["ns-verify", "--json", "{tmp}"],
        ["ns-verify", "--json", ""],
        [
            "sweep", "--mode", "random", "--samples", "3",
            "--csv", "{tmp}/ok.csv", "--json", "{missing}/x.json",
        ],
    ],
    ids=["json", "csv", "json-directory", "json-empty", "csv-then-bad-json"],
)
def test_unwritable_report_path_is_a_usage_error(tmp_path, capsys, argv):
    argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path) for a in argv]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"{argv[0]}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    # the path is refused before the command prints or writes anything
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ns-verify", "--eta7", "0.5"], "ns-verify: --eta7 requires --biased"),
        (
            ["ns-verify", "--biased", "--eta1", "0.5"],
            "ns-verify: --eta1/--eta3 do not apply to --biased",
        ),
        (["ns-verify", "--eta1", "2"], "ns-verify: eta1 = 2.0 outside [0, 1]"),
        (
            ["intermediate", "cnot", "--input", "VH", "--cut", "z"],
            "intermediate: gate 'cnot' has no cut 'z'; available: ['x', 'y']",
        ),
        (
            ["run-circuit", "{missing}", "--input", "1"],
            "run-circuit: cannot read {missing}: "
            "[Errno 2] No such file or directory: '{missing}'",
        ),
        (["run-circuit", "{ns}", "--input", "x"], "run-circuit: cannot parse --input 'x'"),
        # int() would take the first three
        (["run-circuit", "{ns}", "--input", "0_1"], "run-circuit: cannot parse --input '0_1'"),
        (["run-circuit", "{ns}", "--input", " 1"], "run-circuit: cannot parse --input ' 1'"),
        (["run-circuit", "{ns}", "--input", "+1"], "run-circuit: cannot parse --input '+1'"),
        (["run-circuit", "{ns}", "--input", "1.0"], "run-circuit: cannot parse --input '1.0'"),
        (
            ["run-circuit", "{ns}", "--input", "1,2"],
            "run-circuit: --input needs 1 non-negative counts for modes ['s']",
        ),
        (
            ["run-circuit", "{ns}", "--input", "5"],
            "run-circuit: 6 photons exceeds the supported maximum of 4",
        ),
        (
            ["sweep", "--magnitude", "nan"],
            "sweep: magnitude must be a number >= 0 with 2 * magnitude finite, got nan",
        ),
        (
            ["sweep", "--mode", "random", "--samples", "0"],
            "sweep: sweep evaluated no perturbations",
        ),
    ],
    ids=[
        "eta7-without-biased",
        "eta1-with-biased",
        "eta-out-of-range",
        "unknown-cut",
        "missing-file",
        "unparseable-input",
        "input-underscore",
        "input-space",
        "input-plus",
        "input-float",
        "wrong-input-count",
        "photon-cap",
        "nan-magnitude",
        "no-samples",
    ],
)
def test_errors_exit_2_with_one_stderr_line(tmp_path, capsys, argv, message):
    ns = tmp_path / "ns.json"
    ns.write_text(json.dumps(NS_FILE))
    paths = {"ns": ns, "missing": tmp_path / "missing.json"}
    assert run([a.format(**paths) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message.format(**paths) + "\n"
