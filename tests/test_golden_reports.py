"""Golden ``--json`` reports: one per CLI command variant.

Each file in ``tests/golden/`` holds a command line, the circuit files it
reads, its exit code and the report it writes. The test runs the command
again and compares the report: strings, booleans, integers and structure
exactly, floats to 1e-12. ``inputs.file`` is normalised to the file's
name, since the command echoes the path it was given.

Regenerate the files (only when a report is meant to change) with
``python tests/test_golden_reports.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from loqc.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-12

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

# name -> (argv, circuit files); "{dir}" in argv is the directory the
# circuit files are written to.
COMMANDS = {
    "ns-verify": (["ns-verify"], {}),
    "ns-verify-biased": (["ns-verify", "--biased"], {}),
    "ns-verify-override": (
        ["ns-verify", "--eta1", "1", "--eta3", "1", "--eta2", "0.25"], {}
    ),
    "ns-verify-biased-override": (["ns-verify", "--biased", "--eta2", "0.3"], {}),
    "solve-params": (["solve-params"], {}),
    **{
        f"truth-table-{gate}-{conditioning}": (
            ["truth-table", gate, "--conditioning", conditioning], {}
        )
        for gate in ("cnot", "cnot-simplified")
        for conditioning in ("heralded", "coincidence")
    },
    "moments-cnot": (["moments", "cnot"], {}),
    "moments-cnot-simplified": (["moments", "cnot-simplified"], {}),
    "bell-test-cnot": (["bell-test", "cnot"], {}),
    "bell-test-cnot-simplified": (["bell-test", "cnot-simplified"], {}),
    "intermediate-cnot-HV-y": (
        ["intermediate", "cnot", "--input", "HV", "--cut", "y"], {}
    ),
    "intermediate-cnot-simplified-VH-z": (
        ["intermediate", "cnot-simplified", "--input", "VH", "--cut", "z"], {}
    ),
    "sweep-cnot-absolute-corners": (
        ["sweep", "cnot", "--model", "absolute", "--magnitude", "0.02",
         "--mode", "corners"],
        {},
    ),
    "sweep-cnot-relative-corners": (
        ["sweep", "cnot", "--model", "relative", "--magnitude", "0.02",
         "--mode", "corners"],
        {},
    ),
    "sweep-cnot-simplified-absolute-corners": (
        ["sweep", "cnot-simplified", "--model", "absolute", "--magnitude",
         "0.02", "--mode", "corners"],
        {},
    ),
    "sweep-cnot-absolute-random-0.9": (
        ["sweep", "cnot", "--model", "absolute", "--magnitude", "0.9",
         "--mode", "random", "--samples", "20", "--rng-seed", "2"],
        {},
    ),
    "run-circuit-ns": (
        ["run-circuit", "{dir}/ns.json", "--input", "1"], {"ns.json": NS_FILE}
    ),
}


def run_command(argv: list[str], files: dict, work_dir: Path) -> tuple[int, dict]:
    for name, doc in files.items():
        (work_dir / name).write_text(json.dumps(doc))
    out = work_dir / "report.json"
    code = main([a.replace("{dir}", str(work_dir)) for a in argv] + ["--json", str(out)])
    report = json.loads(out.read_text())
    if "file" in report["inputs"]:
        report["inputs"]["file"] = Path(report["inputs"]["file"]).name
    return code, report


def assert_same(got, want, path: str = "report") -> None:
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), (path, got, want)
        return
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), (path, sorted(got), sorted(want))
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), (path, len(got), len(want))
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    else:
        assert got == want, (path, got, want)


def test_every_command_has_a_golden():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name, tmp_path, capsys):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    argv, files = COMMANDS[name]
    assert golden["argv"] == argv
    code, report = run_command(argv, files, tmp_path)
    assert code == golden["exit_code"]
    assert_same(report, golden["report"])


def test_golden_comparison_catches_drift():
    want = {"a": [1.0, True, "x"], "b": 2}
    assert_same({"a": [1.0 + 0.5 * FLOAT_TOL, True, "x"], "b": 2}, want)
    for got in (
        {"a": [1.0 + 2 * FLOAT_TOL, True, "x"], "b": 2},
        {"a": [1.0, 1, "x"], "b": 2},
        {"a": [1.0, True, "y"], "b": 2},
        {"a": [1.0, True, "x"], "b": 2.0},
        {"a": [1.0, True], "b": 2},
        {"a": [1.0, True, "x"], "b": 2, "c": 3},
    ):
        with pytest.raises(AssertionError):
            assert_same(got, want)


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, files) in COMMANDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, report = run_command(argv, files, Path(tmp))
        doc = {"argv": argv, "exit_code": code, "report": report}
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        (GOLDEN_DIR / f"{name}.json").write_text(text)
