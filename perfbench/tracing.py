"""Span tracing for the traced benchmark run.

Every public function of the loqc layer modules (plus the sweep's private
``_perturbed_circuit``) is wrapped at each place it is bound: the module
that defines it and every module that imported it by name, the gate
builder table in ``loqc.gates`` and ``FockStateVector.__post_init__`` on
its class. Nothing under ``src/`` is edited; the wrappers are installed
from here after ``loqc.cli`` has been imported.

Spans are kept in memory as (id, parent, name, start, end) and written
out when the traced pass ends. Calls, inclusive time and self time
(duration minus the part covered by child spans) are summed as spans
close, so the per-layer metrics need no second pass over the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
from collections import Counter
from time import perf_counter

LAYER_MODULES = (
    "fock",
    "elements",
    "evolve",
    "postselect",
    "gates",
    "verify",
    "circuit_io",
    "cli",
)

# Private functions traced in addition to the public ones.
PRIVATE_SPANS = {("verify", "_perturbed_circuit")}

POST_INIT = "fock.FockStateVector.__post_init__"
GATE_BUILDERS = (
    "gates.build_ns_circuit",
    "gates.build_biased_ns_circuit",
    "gates.build_cnot_circuit",
    "gates.build_simplified_cnot",
)
GATE_SOLVERS = ("gates.solve_optimal_ns", "gates.solve_biased_ns")


def _count_kets(key: str):
    def hook(counts, args, result):
        counts[key] += len(args[0].amplitudes)

    return hook


def _count_kept(counts, args, result):
    counts["postselect.kets_kept"] += len(result.reduced.amplitudes)


# Work counters taken at span boundaries: (before the call, after it).
# Kets are counted on entry, before ``__post_init__`` prunes them.
COUNTER_HOOKS = {
    POST_INIT: (_count_kets("fock.kets_validated"), None),
    "evolve.apply_element": (_count_kets("evolve.kets_in"), None),
    "postselect.condition": (_count_kets("postselect.kets_seen"), _count_kept),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.sites: set[str] = set()
        self.fired: set[str] = set()
        self._ids = itertools.count(1)
        self._stack: list[list] = []

    def wrap(self, fn, name: str, site: str):
        """Return ``fn`` wrapped in a span called ``name``, installed at ``site``."""
        before, after = COUNTER_HOOKS.get(name, (None, None))
        spans, stack, fired = self.spans, self._stack, self.fired
        calls, total, self_time, counts = (
            self.calls, self.total, self.self_time, self.counts
        )
        ids = self._ids
        self.sites.add(site)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fired.add(site)
            if before is not None:
                before(counts, args, None)
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                total[name] += duration
                self_time[name] += duration - frame[1]
                spans.append((frame[0], parent, name, start, end))
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every loqc module that binds it."""
        modules = {
            m: importlib.import_module(f"loqc.{m}") for m in LAYER_MODULES
        }
        names = {}
        for m, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or (m, attr) in PRIVATE_SPANS)
                ):
                    names[obj] = f"{m}.{attr}"
        for m, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in names:
                    setattr(mod, attr, self.wrap(obj, names[obj], f"{m}.{attr}"))
        # gate_by_name calls the builders through this table, not by name.
        builders = modules["gates"]._GATE_BUILDERS
        for key, fn in builders.items():
            builders[key] = self.wrap(fn, names[fn], f"gates._GATE_BUILDERS[{key}]")
        cls = modules["fock"].FockStateVector
        cls.__post_init__ = self.wrap(
            cls.__post_init__, POST_INIT, "fock.FockStateVector.__post_init__"
        )

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced pass (pair-cache figures excluded)."""
        calls, total, self_time, counts = (
            self.calls, self.total, self.self_time, self.counts
        )
        seen = counts["postselect.kets_seen"]
        metrics = {
            "fock.construct.calls": calls[POST_INIT],
            "fock.construct.s": total[POST_INIT],
            "fock.kets_validated": counts["fock.kets_validated"],
            "evolve.evolve.calls": calls["evolve.evolve"],
            "evolve.evolve.s": total["evolve.evolve"],
            "evolve.apply_element.calls": calls["evolve.apply_element"],
            "evolve.apply_element.self_s": self_time["evolve.apply_element"],
            "evolve.kets_in": counts["evolve.kets_in"],
            "postselect.condition.calls": calls["postselect.condition"],
            "postselect.condition.s": total["postselect.condition"],
            "postselect.kets_seen": seen,
            "postselect.kets_kept": counts["postselect.kets_kept"],
            "postselect.keep_ratio": (
                counts["postselect.kets_kept"] / seen if seen else 0.0
            ),
            "verify.self_s": _prefixed(self_time, "verify."),
            "cli.self_s": _prefixed(self_time, "cli."),
            "gates.build.s": sum(total[n] for n in GATE_BUILDERS),
            "gates.solve.s": sum(total[n] for n in GATE_SOLVERS),
            "elements.beamsplitter_matrix.calls": calls["elements.beamsplitter_matrix"],
        }
        for name in (
            "postselect.coincidence_probability",
            "elements.compose_transfer_matrix",
            "evolve.permanent",
            "evolve.oracle_amplitude",
            "gates.encode_logical",
            "gates.decode_logical",
            "circuit_io.load_circuit",
        ):
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.s"] = total[name]
        return metrics


def _prefixed(counter: Counter, prefix: str) -> float:
    return sum(v for k, v in counter.items() if k.startswith(prefix))


def pair_cache_metrics(evolve_module) -> dict[str, float]:
    """Read-only figures of the evolution's pair-transition cache.

    Empty when the program no longer has that cache, so a later design
    without it reports the figures as absent instead of failing.
    """
    cache = getattr(evolve_module, "_pair_transition", None)
    info = getattr(cache, "cache_info", None)
    if info is None:
        return {}
    hits, misses, _, size = info()
    lookups = hits + misses
    return {
        "evolve.pair_cache.hits": hits,
        "evolve.pair_cache.misses": misses,
        "evolve.pair_cache.entries": size,
        "evolve.pair_cache.hit_ratio": hits / lookups if lookups else 0.0,
    }


def import_seconds(importtime_stderr: str) -> dict[str, float]:
    """Import time per package from ``python -X importtime`` output.

    Each module's self time goes to its nearest enclosing numpy, scipy or
    loqc module, so stdlib modules first pulled in by a package count for
    that package.
    """
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        field = parts[2]
        level = (len(field) - len(field.lstrip()) - 1) // 2
        entries.append((level, int(parts[0]), field.strip()))
    totals = {"numpy": 0.0, "scipy": 0.0, "loqc": 0.0}
    owners: list[tuple[int, str | None]] = []
    # The output lists children before their parent; read it backwards so
    # each parent is seen first.
    for level, self_us, module in reversed(entries):
        while owners and owners[-1][0] >= level:
            owners.pop()
        top = module.split(".")[0]
        owner = top if top in totals else (owners[-1][1] if owners else None)
        owners.append((level, owner))
        if owner is not None:
            totals[owner] += self_us * 1e-6
    return {f"setup.import_s.{k}": v for k, v in totals.items()}
