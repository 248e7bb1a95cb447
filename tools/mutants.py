"""Mutation gate: every mutant breaks one load-bearing rule of loqc, and the
tier-1 suite must fail on each of them.

Run from anywhere, with the interpreter that runs the tests:

    python tools/mutants.py

Each mutant replaces one exact piece of text in a fresh temporary copy of
``src``, ``tests`` and ``pyproject.toml``, never in the working tree, so
that pyproject's ``pythonpath = ["src"]`` and ``tests/conftest.py``'s
subprocess ``PYTHONPATH`` both point at the copy. The suite first runs on
an unmutated copy, which must pass. The mutants' suites then run
concurrently, as many at once as the process may use CPUs, each with its
own ``--basetemp`` inside its copy, and are reported in table order. The
script exits 1 when a mutant's old text does not occur exactly once, when
a mutant survives, or when ``tests/test_imports.py`` is the only test file
that fails on it: that check shows only that a name went unused, not that
the rule is guarded, so a mutant keeps every imported name in use
(``<= 0 * PRUNE_TOL``, not a deleted line). Which tests fail is printed,
never pinned, so renaming a test cannot break the gate. Only the standard
library is used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
# tier-1, with a summary line for every failed or erroring test
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-rfE",
         "-p", "no:cacheprovider")
IMPORT_CHECK = "tests/test_imports.py"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the checkout
    old: str  # must occur exactly once in ``file``
    new: str
    rule: str  # the rule the mutant breaks


MUTANTS = (
    Mutant(
        "amplitude-accepts-bool", "src/loqc/fock.py",
        "isinstance(value, numbers.Complex) and not isinstance(value, bool)",
        "isinstance(value, numbers.Complex)",
        "a bool is refused as an amplitude or scalar, not taken as 0 or 1",
    ),
    Mutant(
        "grey-sign-swapped", "src/loqc/elements.py",
        "(-r, r) if grey_port == 0 else (r, -r)",
        "(r, -r) if grey_port == 0 else (-r, r)",
        "the grey port carries the splitter's minus sign",
    ),
    Mutant(
        "columns-reversed", "src/loqc/elements.py",
        "np.eye(n)[:, None, columns]",
        "np.eye(n)[:, None, columns[::-1]]",
        "column j of transfer_matrices is column columns[j] of the full matrix",
    ),
    Mutant(
        "oracle-matrix-transposed", "src/loqc/elements.py",
        "return transfer_matrices(circuit, etas)[0].astype(complex)",
        "return transfer_matrices(circuit, etas)[0].T.astype(complex)",
        "a transfer matrix's rows index outputs and its columns inputs",
    ),
    Mutant(
        "reflectivities-rotated", "src/loqc/elements.py",
        "zip(self.elements, reflectivities, strict=True)",
        "zip(self.elements, [*reflectivities[1:], *reflectivities[:1]], strict=True)",
        "with_reflectivities gives element j the j-th reflectivity",
    ),
    Mutant(
        "prefix-length-unchecked", "src/loqc/elements.py",
        '        if not 0 <= _natural(k, "prefix length") <= len(self.elements):\n'
        '            raise ValueError(f"prefix length {k} outside 0..{len(self.elements)}")\n',
        "",
        "a prefix length outside 0..len(elements) is refused, not sliced",
    ),
    Mutant(
        "circuit-label-unchecked", "src/loqc/elements.py",
        'issues.append(f"label {i} ({label!r}) is not a string")',
        "pass",
        "a circuit refuses a mode label that is not a string",
    ),
    Mutant(
        "circuit-element-unchecked", "src/loqc/elements.py",
        "            if not isinstance(el, Beamsplitter):\n"
        '                issues.append(f"element {i} is not a Beamsplitter")\n'
        "                continue\n",
        "",
        "a circuit refuses an element that is not a Beamsplitter",
    ),
    Mutant(
        "circuit-labels-string-split", "src/loqc/elements.py",
        "if isinstance(self.labels, str):",
        "if isinstance(self.labels, bytes):",
        "a circuit refuses one string as its labels, not one label per character",
    ),
    Mutant(
        "circuit-labels-kept-as-given", "src/loqc/elements.py",
        'object.__setattr__(self, "labels", tuple(self.labels))',
        'object.__setattr__(self, "labels", self.labels)',
        "a circuit stores its labels as a tuple, whatever sequence it is given",
    ),
    Mutant(
        "settled-one-step-early", "src/loqc/evolve.py",
        "for step, el in enumerate(elements, 1):\n        last_step",
        "for step, el in enumerate(elements, 0):\n        last_step",
        "evolve prunes a detected mode only after the last element touching it",
    ),
    Mutant(
        "pair-transition-norms-dropped", "src/loqc/evolve.py",
        "coeff = w * math.sqrt(_FACT[n_out] * _FACT[m_out] / (_FACT[n] * _FACT[m]))",
        "coeff = w",
        "sparse evolution applies the bosonic sqrt(n!) factors",
    ),
    Mutant(
        "oracle-conjugated", "src/loqc/evolve.py",
        "return complex(permanent(sub)) / math.sqrt(norm)",
        "return complex(permanent(sub)).conjugate() / math.sqrt(norm)",
        "the permanent oracle returns the amplitude, not its conjugate",
    ),
    Mutant(
        "cnot-image-swapped", "src/loqc/gates.py",
        '"VH": "VV", "VV": "VH"',
        '"VH": "VH", "VV": "VV"',
        "control V swaps the target rails",
    ),
    Mutant(
        "cnot-successes-swapped", "src/loqc/gates.py",
        "build_cnot_circuit, 1.0 / 16.0, 1e-10,\n"
        '        {"x": (2, None), "y": (8, NS_GATES["ns"][1])},\n'
        "    ),\n"
        '    "cnot-simplified": (\n'
        "        build_simplified_cnot, ETA2_BIASED**2, 1e-7,",
        "build_cnot_circuit, ETA2_BIASED**2, 1e-10,\n"
        '        {"x": (2, None), "y": (8, NS_GATES["ns"][1])},\n'
        "    ),\n"
        '    "cnot-simplified": (\n'
        "        build_simplified_cnot, 1.0 / 16.0, 1e-7,",
        "each CNOT is checked against its own success probability",
    ),
    Mutant(
        "cnot-y-cut-unscaled", "src/loqc/gates.py",
        '"y": (8, NS_GATES["ns"][1])',
        '"y": (8, None)',
        "the CNOT's state after its NS gates carries the NS map",
    ),
    Mutant(
        "simplified-z-cut-early", "src/loqc/gates.py",
        '"z": (6, NS_GATES["ns-biased"][1])',
        '"z": (5, NS_GATES["ns-biased"][1])',
        "the simplified CNOT's cut z follows both biased splitters B5 and B6",
    ),
    Mutant(
        "ns-eta2-grey-on-ancilla", "src/loqc/gates.py",
        'Beamsplitter(s, a, p.eta2, grey=s, label=prefix + "eta2")',
        'Beamsplitter(s, a, p.eta2, grey=a, label=prefix + "eta2")',
        "the NS gate's middle splitter has its grey port on the signal",
    ),
    Mutant(
        "dual-rail-target-swapped", "src/loqc/gates.py",
        "_SINGLE_QUBIT[c] + _SINGLE_QUBIT[t]))",
        "_SINGLE_QUBIT[c] + _SINGLE_QUBIT[t][::-1]))",
        "a basis ket puts the target's H photon on t_H and its V photon on t_V",
    ),
    Mutant(
        "heralding-drops-vacuum-vetoes", "src/loqc/gates.py",
        "detection=DetectionPattern(exact=ancillas)",
        "detection=DetectionPattern(exact={m: k for m, k in ancillas.items() if k})",
        "heralding detects each ancilla, vacuum ones too, as it was prepared",
    ),
    Mutant(
        "b3-grey-on-control", "src/loqc/gates.py",
        'Beamsplitter(_C_V, _T_H, 0.5, grey=_T_H, label="B3")',
        'Beamsplitter(_C_V, _T_H, 0.5, grey=_C_V, label="B3")',
        "B3 has its grey port on the t' beam",
    ),
    Mutant(
        "cnot-rail-order-unchecked", "src/loqc/verify.py",
        "return _railed(gate_by_name(gate))",
        "return gate_by_name(gate)",
        "every CNOT report refuses rails left free out of QUBIT_LABELS order",
    ),
    Mutant(
        "moment-table-takes-superpositions", "src/loqc/verify.py",
        "    dual_rail_ket(input_label)  # refuses a label that is not a basis input\n"
        "    return _moments(",
        "    return _moments(",
        "moment_table refuses a label that is not a basis input",
    ),
    Mutant(
        "interior-cut-one-late", "src/loqc/verify.py",
        "circuit.prefix(CNOTS[gate][3][cut][0])",
        "circuit.prefix(CNOTS[gate][3][cut][0] + 1)",
        "an interior cut is the state after the elements before it",
    ),
    Mutant(
        "rails-paired-wrongly", "src/loqc/verify.py",
        "groups=((rails[:2], 1), (rails[2:], 1))",
        "groups=((rails[::2], 1), (rails[1::2], 1))",
        "a coincidence puts one photon on each qubit's own rail pair",
    ),
    Mutant(
        "purity-factor-one", "src/loqc/verify.py",
        "norm2**2 - 2 * abs(a * d - b * c) ** 2",
        "norm2**2 - 1 * abs(a * d - b * c) ** 2",
        "the reduced purity is (sum |.|^2)^2 - 2|ad - bc|^2",
    ),
    Mutant(
        "bell-phi-minus-sign-flipped", "src/loqc/verify.py",
        '"phi-": (1 / math.sqrt(2), 0.0, 0.0, -1 / math.sqrt(2))',
        '"phi-": (1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2))',
        "phi- is (|HH> - |VV>)/sqrt(2)",
    ),
    Mutant(
        "sector-ignores-groups", "src/loqc/verify.py",
        "if pattern.matches(occ):\n            sector.append(occ)",
        "if pattern.matches(occ) or True:\n            sector.append(occ)",
        "a pattern's sector holds only the kets that meet its group totals",
    ),
    Mutant(
        "corner-bits-reversed", "src/loqc/verify.py",
        "signs[(rows >> (k - 1 - j)) & 1]",
        "signs[(rows >> j) & 1]",
        "sweep corners run in itertools.product order",
    ),
    Mutant(
        "relative-as-absolute", "src/loqc/verify.py",
        'if model == "absolute":',
        'if model in ("absolute", "relative"):',
        "the relative model scales each reflectivity by 1 + delta",
    ),
    Mutant(
        "etas-unclamped", "src/loqc/verify.py",
        "    np.maximum(deltas, 0.0, out=deltas)\n"
        "    return np.minimum(deltas, 1.0, out=deltas)",
        "    return deltas",
        "perturbed reflectivities are clamped to [0, 1]",
    ),
    Mutant(
        "glynn-d0-free", "src/loqc/verify.py",
        "[(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=p - 1)]",
        "list(itertools.product((1.0, -1.0), repeat=p))",
        "Glynn's sign vectors fix d_0 = +1",
    ),
    Mutant(
        "glynn-scaled-by-2p", "src/loqc/verify.py",
        "/ 2.0 ** (p - 1)",
        "/ 2.0 ** p",
        "Glynn's sum is scaled by 2^(1-p)",
    ),
    Mutant(
        "glynn-norms-dropped", "src/loqc/verify.py",
        "return _glynn_permanents(u, rows, cols) / norms",
        "return _glynn_permanents(u, rows, cols)",
        "the batched amplitudes divide by sqrt(prod n!)",
    ),
    Mutant(
        "batch-prune-zero", "src/loqc/verify.py",
        "amps[np.abs(amps) <= PRUNE_TOL] = 0.0",
        "amps[np.abs(amps) <= 0 * PRUNE_TOL] = 0.0",
        "the batch drops the amplitudes that sparse evolution prunes",
    ),
    Mutant(
        "tie-window-zero", "src/loqc/verify.py",
        "errors >= errors.max() - 1e-12",
        "errors >= errors.max() - 0",
        "every pair within 1e-12 of the batched worst is re-derived sparsely",
    ),
    Mutant(
        "sparse-check-skipped", "src/loqc/verify.py",
        "if deviations.max() > 1e-12:",
        "if deviations.max() > math.inf:",
        "batched and sparse errors of the tied pairs agree to 1e-12",
    ),
    Mutant(
        "mean-error-over-hh", "src/loqc/verify.py",
        "mean_error = sum(map(float, run_worst)) / len(etas)",
        "mean_error = sum(map(float, errors[:, 0])) / len(etas)",
        "the mean error is over each vector's worst input",
    ),
    Mutant(
        "csv-block-short", "src/loqc/cli.py",
        "rows = slice(start, start + _CSV_BLOCK)",
        "rows = slice(start, start + _CSV_BLOCK - 1)",
        "--csv writes one row per sweep record",
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=ignore)
        else:
            shutil.copy2(ROOT / name, dest / name)


def _run_suite(root: Path) -> tuple[int, list[str]]:
    """The suite's exit code and the ids of its failed or erroring tests."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, *TIER1, f"--basetemp={root / 'pytest-tmp'}"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return proc.returncode, failed


def main() -> int:
    # a stale table fails before any suite runs
    stale = [
        f"{m.name}: old text occurs {n} times in {m.file}"
        for m in MUTANTS
        if (n := (ROOT / m.file).read_text().count(m.old)) != 1
    ]
    if stale:
        print("\n".join(stale))
        return 1
    start = time.perf_counter()
    gaps = 0
    with tempfile.TemporaryDirectory(prefix="loqc-mutants-") as tmp:
        base = Path(tmp, "unmutated")
        _copy(base)
        code, failed = _run_suite(base)
        if code != 0:
            print(f"the unmutated suite exits {code}; failing: {failed}")
            return 1
        print(f"unmutated suite passes ({time.perf_counter() - start:.1f} s)")

        def run(m: Mutant) -> tuple[int, list[str], float]:
            t0 = time.perf_counter()
            work = Path(tmp, m.name)
            _copy(work)
            path = work / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            code, failed = _run_suite(work)
            shutil.rmtree(work)
            return code, failed, time.perf_counter() - t0

        # map yields in table order, each result as soon as it and every
        # earlier one are done
        with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
            for m, (code, failed, seconds) in zip(MUTANTS, pool.map(run, MUTANTS)):
                others = [f for f in failed if not f.startswith(IMPORT_CHECK)]
                if code == 0:
                    verdict = "SURVIVED"
                elif code != 1:
                    verdict = f"EXIT {code}"
                elif not others:
                    verdict = "IMPORTS"  # only the unused-import check failed
                else:
                    verdict = "killed"
                gaps += verdict != "killed"
                print(
                    f"{verdict:8} {m.name:34} {len(others):3} failing"
                    f" {seconds:6.1f} s  {m.rule}"
                )
                if len(others) <= 3:
                    for test in failed:
                        print(f"{'':9}{test}")
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - gaps} of {len(MUTANTS)} mutants killed in {total:.0f} s")
    return 1 if gaps else 0


if __name__ == "__main__":
    raise SystemExit(main())
