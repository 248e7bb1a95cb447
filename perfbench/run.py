"""The loqc benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are described in ``workloads.py``. Every sample is a fresh
worker process (``worker.py``), because a command-line user pays import
and cache fill on every call; samples run one at a time, single-threaded.

``--trace 0`` runs passes until ``--seconds`` is used up (at least two,
so outputs can be compared across passes) and reports the end-to-end
metrics named in ``BENCHMARK.json``, each the median over its samples:
set-up time, correct operations per second over one pass, and the
worker's peak resident memory. Times are scaled to a reference host speed
measured while they run (see ``worker.py``), and printed unscaled as well. ``--trace 1`` alternates traced and
untraced passes for as long (at least two traced, one untraced) and
reports the per-layer metrics of the traced ones; their counts must
repeat exactly.

Every output is checked. The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
status is 1 when any check failed, and 2, without a result line, when the
benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 2
MIN_SETUPS = 5
# Sample times are scaled to a host on which a window of worker.py's speed
# probe takes this long, so drift of a shared host's speed cancels.
REFERENCE_WINDOW_S = 0.0004
# Every process of a run ends within this many seconds of its start.
RUN_LIMIT_S = 170
OUT_DIR = ".bench_out"
# One thread per numerical library, so a sample never competes with itself.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Per-layer figures that must repeat exactly between passes with one seed.
EXACT_SUFFIXES = (".calls", ".hits", ".misses", ".entries", "kets_validated",
                  "kets_in", "kets_seen", "kets_kept", "report_bytes")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Session:
    def __init__(self, root: Path, workload: str, seed: int, work_dir: Path):
        self.root, self.workload, self.seed, self.work_dir = root, workload, seed, work_dir
        self.limit = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env.update({name: "1" for name in THREAD_ENV})
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def worker(self, mode: str, trace: bool = False, spans_path: str = "-") -> dict:
        argv = [sys.executable, str(BENCH_DIR / "worker.py"), self.workload,
                str(self.seed), mode, "1" if trace else "0", str(self.work_dir),
                spans_path]
        proc = self._run(argv)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        src = (self.root / "src").resolve()
        if src not in Path(result["loqc_file"]).resolve().parents:
            raise BenchError(f"worker imported loqc from {result['loqc_file']}, not {src}")
        return result

    def import_seconds(self) -> dict[str, float]:
        proc = self._run([sys.executable, "-X", "importtime", "-c", "import loqc.cli"])
        if proc.returncode != 0:
            raise BenchError(f"import of loqc.cli failed:\n{proc.stderr[-4000:]}")
        return tracing.import_seconds(proc.stderr)

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        timeout = self.limit - time.monotonic()
        try:
            return subprocess.run(argv, cwd=self.root, env=self.env, text=True,
                                  capture_output=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s in {argv[1:3]}") from None


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all passes, setting each pass's
    "attempted" and "failed". A call whose outputs differ from the first
    pass's fails all its operations."""
    attempted = failed = 0
    reasons = []
    reference = [c["digest"] for c in passes[0]["calls"]]
    for i, p in enumerate(passes):
        p["attempted"] = p["failed"] = 0
        for j, call in enumerate(p["calls"]):
            p["attempted"] += call["weight"]
            if call["digest"] != reference[j]:
                p["failed"] += call["weight"]
                reasons.append(f"pass {i}, call {j}: outputs differ from pass 0")
            else:
                p["failed"] += call["failed"]
        attempted += p["attempted"]
        failed += p["failed"]
        reasons += p["reasons"]
    return attempted, failed, reasons


def unscaled(sample: dict, phase: str) -> float:
    """A phase's wall time without the speed probe's windows."""
    return sample[f"{phase}_s"] - sample[f"{phase}_probe_s"]


def scaled(sample: dict, phase: str) -> float:
    """A phase's time at the reference host speed."""
    return unscaled(sample, phase) * sample[f"{phase}_speed"] * REFERENCE_WINDOW_S


def repeat(sample, seconds: float, at_least: int) -> list:
    """Call ``sample(i)`` for i = 0, 1, ... until ``seconds`` are used up,
    at least ``at_least`` times. Another call starts while less than half
    of it is expected to run past the deadline."""
    deadline = time.monotonic() + seconds
    out = []
    while True:
        started = time.monotonic()
        out.append(sample(len(out)))
        finished = time.monotonic()
        if len(out) >= at_least and finished + (finished - started) / 2 > deadline:
            return out


def timed_run(session: Session, seconds: float) -> tuple[dict, dict]:
    session.worker("setup")  # compiles bytecode and fills the file cache; discarded
    passes = repeat(lambda i: session.worker("pass"), seconds, MIN_PASSES)
    setups = list(passes)
    while len(setups) < MIN_SETUPS:
        setups.append(session.worker("setup"))
    attempted, failed, reasons = tally(passes)
    samples = {
        "setup_s": [scaled(w, "setup") for w in setups],
        "ops_per_s": [(p["attempted"] - p["failed"]) / scaled(p, "pass") for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    wall = {
        "setup_s": statistics.median(unscaled(w, "setup") for w in setups),
        "ops_per_s": statistics.median(
            (p["attempted"] - p["failed"]) / unscaled(p, "pass") for p in passes),
    }
    info = {"attempted": attempted, "failed": failed, "reasons": reasons,
            "samples": samples, "unscaled": wall, "versions": passes[0]["versions"]}
    return {k: statistics.median(v) for k, v in samples.items()}, info


def traced_run(session: Session, seconds: float, out_dir: Path) -> tuple[dict, dict]:
    """Traced and untraced passes, alternating, at least two traced; the
    spans of the last traced pass are kept."""
    session.worker("setup")
    imports = session.import_seconds()
    spans = str(out_dir / f"spans-{session.workload}.tsv")
    passes = repeat(
        lambda i: session.worker("pass", trace=i % 2 == 0, spans_path=spans),
        seconds,
        3,
    )
    traced, untraced = passes[::2], passes[1::2]
    for t in traced:
        if t["unfired_sites"]:
            raise BenchError(f"traced sites never called: {t['unfired_sites']}")
    attempted, failed, reasons = tally(untraced + traced)
    first = traced[0]["layers"]
    for i, t in enumerate(traced[1:], 1):
        changed = [k for k in first
                   if k.endswith(EXACT_SUFFIXES) and first[k] != t["layers"].get(k)]
        if changed:
            failed += t["attempted"] - t["failed"]
            reasons.append(f"traced pass {i}: counts differ from traced pass 0: {changed}")
    layers = {
        k: v if k.endswith(EXACT_SUFFIXES)
        else statistics.median(t["layers"][k] for t in traced)
        for k, v in first.items()
    }
    layers.update(imports)
    layers["trace.overhead"] = (
        statistics.median(scaled(t, "pass") for t in traced)
        / statistics.median(scaled(u, "pass") for u in untraced)
    )
    info = {"attempted": attempted, "failed": failed, "reasons": reasons,
            "samples": {}, "versions": untraced[0]["versions"],
            "missing_sites": traced[0]["missing_sites"]}
    return layers, info


def tail_percentile(values: list[float], better: str) -> str:
    """Highest percentile with at least ten samples worse than it."""
    n = len(values)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return "tail n/a (needs >= 21 samples)"
    ordered = sorted(values, reverse=(better == "higher"))
    return f"p{p} {ordered[math.ceil(p * n / 100) - 1]:.6g}"


def machine(versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu": cpu}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "loqc" / "cli.py").is_file():
        print("run.py: no src/loqc here; run from the root of a loqc checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    # Relative, so the reports that name a file read the same in any checkout.
    work_dir = Path(OUT_DIR) / f"work-{args.workload}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    session = Session(root, args.workload, args.seed, work_dir)
    try:
        if args.trace:
            values, info = traced_run(session, args.seconds, root / OUT_DIR)
        else:
            values, info = timed_run(session, args.seconds)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {}
    print(f"loqc benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    for m in declared:
        name = m["name"]
        if name not in values:
            if name.startswith("evolve.pair_cache."):
                print(f"  {name}: absent (no pair-transition cache)")
                continue
            print(f"run.py: metric {name} was not measured", file=sys.stderr)
            return 2
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        samples = info["samples"].get(name)
        extra = ""
        if samples:
            extra = (f"  (median of n={len(samples)}, range {min(samples):.6g}.."
                     f"{max(samples):.6g}, {tail_percentile(samples, m['better'])})")
        if name in info.get("unscaled", {}):
            extra += f"  unscaled {info['unscaled'][name]:.6g}"
        print(f"  {name:40s} {values[name]:.6g} {m['unit']}{extra}")
    attempted, failed = info["attempted"], info["failed"]
    print(f"  {'fail_ratio':40s} {failed / attempted:.6g} ({failed}/{attempted})")
    for reason in info["reasons"][:20]:
        print(f"  FAILED {reason}")
    for site in info.get("missing_sites", []):
        print(f"  note: traced site {site} no longer exists")
    print("machine: " + json.dumps(machine(info["versions"])))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
