"""One benchmark sample in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE TRACE WORK_DIR SPANS_PATH

MODE "setup" only times set-up; "pass" also runs one pass of the workload
and checks its outputs. With TRACE 1 the pass runs with span wrappers
installed and the spans are written to SPANS_PATH. The result is printed
as one JSON line on stdout.

Set-up is the wall time, from the start of this script, to import
``loqc.cli`` and build the workload's circuits. Nothing is imported before
that clock starts beyond what the interpreter loads itself, so no module
arrives preloaded.

The speed of a shared host can drift by a factor of two within seconds.
So while set-up and the pass run, a timer signal every SAMPLE_INTERVAL_S
runs one short window of a fixed pure-Python loop, which calls no loqc
code, and records how long it took. ``run.py`` takes the windows out of
each phase's time and scales the rest to a reference host speed.
"""

import os
import sys
from time import perf_counter

_T0 = perf_counter()

import signal  # noqa: E402  (its import counts toward set-up)

SAMPLE_INTERVAL_S = 0.025
WINDOW_ITERATIONS = 1000


class SpeedProbe:
    """Host-speed windows taken on a timer while loqc runs."""

    def __init__(self):
        self.windows: list[float] = []
        signal.signal(signal.SIGALRM, self._window)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def _window(self, signum, frame) -> None:
        # The kind of work loqc's hot path does: tuple keys, dict updates
        # and complex arithmetic.
        start = perf_counter()
        acc = {}
        for i in range(WINDOW_ITERATIONS):
            key = (i % 5, i % 3, i & 1)
            acc[key] = acc.get(key, 0j) + (i & 15) * 0.5
        self.windows.append(perf_counter() - start)

    def phase(self, name: str, elapsed_s: float, first_window: int) -> dict:
        """A phase's wall time, the part its windows took, and the host
        speed over it as windows per second of window time."""
        windows = self.windows[first_window:] or self.windows
        return {
            f"{name}_s": elapsed_s,
            f"{name}_probe_s": sum(self.windows[first_window:]),
            f"{name}_speed": sum(1.0 / w for w in windows) / len(windows),
        }

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)


def build_circuits(workload: str, work_dir: str) -> None:
    """Build the workload's circuits; the battery also writes the NS
    circuit file that ``run-circuit`` reads."""
    import json

    from loqc import circuit_io, gates

    if workload == "verify-battery":
        for name in gates.GATE_NAMES:
            gates.gate_by_name(name)
        doc = circuit_io.circuit_to_dict(gates.build_ns_circuit())
        with open(os.path.join(work_dir, "ns.json"), "w") as fh:
            json.dump(doc, fh)
    else:
        gates.gate_by_name("cnot")


def main() -> int:
    workload, seed, mode, trace, work_dir, spans_path = sys.argv[1:]
    probe = SpeedProbe()
    import loqc.cli

    build_circuits(workload, work_dir)
    setup = probe.phase("setup", perf_counter() - _T0, 0)

    import json
    from pathlib import Path

    result = {"loqc_file": loqc.__file__, **setup}
    if mode == "pass":
        result.update(
            _run_pass(workload, int(seed), trace == "1", Path(work_dir), spans_path, probe)
        )
    probe.stop()
    print(json.dumps(result))
    return 0


def _run_pass(workload: str, seed: int, trace: bool, work_dir, spans_path, probe) -> dict:
    import contextlib
    import importlib
    import io
    import resource

    import numpy
    import scipy

    import workloads

    cli = importlib.import_module("loqc.cli")
    verify = importlib.import_module("loqc.verify")
    ops = workloads.plan(workload, seed, work_dir)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    outcomes = []
    with contextlib.redirect_stdout(io.StringIO()):
        first_window = len(probe.windows)
        start = perf_counter()
        for op in ops:
            try:
                outcomes.append(workloads.run_op(op, cli, verify))
            except Exception as exc:  # a failed operation, counted below
                outcomes.append(exc)
        pass_s = perf_counter() - start
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        **probe.phase("pass", pass_s, first_window),
        "peak_rss_mb": peak_rss_mb,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        # Snapshot before the output checks, which call traced functions.
        layers = tracer.layer_metrics()
        layers.update(tracing.pair_cache_metrics(importlib.import_module("loqc.evolve")))
        layers["cli.report_bytes"] = workloads.report_bytes(ops)
        out["layers"] = layers
        required = workloads.REQUIRED_SITES[workload]
        out["unfired_sites"] = sorted((required & tracer.sites) - tracer.fired)
        out["missing_sites"] = sorted(required - tracer.sites)
        tracer.write_spans(spans_path)

    calls, reasons = [], []
    for op, outcome in zip(ops, outcomes):
        n_failed, why = workloads.check(workload, op, outcome, seed)
        reasons += why
        calls.append({"weight": op.weight, "failed": n_failed,
                      "digest": workloads.digest(op, outcome)})
    out.update(calls=calls, reasons=reasons)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
