"""Circuit description files.

A circuit is a JSON object:

    {
      "n_modes": 3,
      "labels": ["s", "a", "v"],
      "elements": [
        {"a": "a", "b": "v", "eta": "eta13_ns", "grey": "v", "label": "eta1"},
        {"a": "s", "b": "a", "eta": 0.25, "grey": "s"}
      ],
      "ancilla_prep": {"a": 1, "v": 0},
      "detection": {"exact": {"a": 1, "v": 0}, "groups": [[["s"], 1]]},
      "cuts": {"mid": 1}
    }

Modes may be referenced by label or by integer index. Reflectivities are
numbers or one of the symbolic tokens below, which resolve to the
closed-form operating points so that files never carry rounded decimals.
Photon counts and cut positions are non-negative integers (not booleans);
a cut names the state after that many elements. ``ancilla_prep``,
``detection`` and ``cuts`` are optional.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import gates
from .elements import Beamsplitter, Circuit, validate_circuit
from .postselect import DetectionPattern

REFLECTIVITY_TOKENS = {
    "eta2_ns": gates.ETA2_NS,
    "eta13_ns": gates.ETA13_NS,
    "eta2_biased": gates.ETA2_BIASED,
    "eta7_biased": gates.ETA7_BIASED,
}


class CircuitFileError(ValueError):
    """Malformed circuit description; the message says what and where."""


def resolve_reflectivity(value) -> float:
    if isinstance(value, str):
        try:
            return REFLECTIVITY_TOKENS[value]
        except KeyError:
            raise CircuitFileError(
                f"unknown reflectivity token {value!r}; known: "
                f"{', '.join(sorted(REFLECTIVITY_TOKENS))}"
            ) from None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise CircuitFileError(f"reflectivity must be a number or token, got {value!r}")


def _count(value, where: str) -> int:
    """A non-negative integer from the file; booleans and floats are
    rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise CircuitFileError(
            f"{where}: must be a non-negative integer, got {value!r}"
        )
    return value


def _mode_ref(value, labels: tuple[str, ...], where: str) -> int:
    if isinstance(value, str):
        if value not in labels:
            raise CircuitFileError(f"{where}: unknown mode label {value!r}")
        return labels.index(value)
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0 or value >= len(labels):
            raise CircuitFileError(
                f"{where}: mode index {value} outside 0..{len(labels) - 1}"
            )
        return value
    raise CircuitFileError(f"{where}: mode reference must be a label or index")


def circuit_from_dict(doc: dict) -> Circuit:
    if not isinstance(doc, dict):
        raise CircuitFileError("top-level value must be an object")
    for key in ("n_modes", "labels", "elements"):
        if key not in doc:
            raise CircuitFileError(f"missing required field {key!r}")
    n_modes = doc["n_modes"]
    if isinstance(n_modes, bool) or not isinstance(n_modes, int) or n_modes < 1:
        raise CircuitFileError(f"n_modes must be a positive integer, got {n_modes!r}")
    labels = tuple(doc["labels"])
    if len(labels) != n_modes or not all(isinstance(s, str) for s in labels):
        raise CircuitFileError(
            f"labels must be {n_modes} strings, got {doc['labels']!r}"
        )
    elements = []
    for i, el in enumerate(doc["elements"]):
        where = f"elements[{i}]"
        if not isinstance(el, dict):
            raise CircuitFileError(f"{where}: must be an object")
        for key in ("a", "b", "eta", "grey"):
            if key not in el:
                raise CircuitFileError(f"{where}: missing field {key!r}")
        a = _mode_ref(el["a"], labels, where)
        b = _mode_ref(el["b"], labels, where)
        grey = _mode_ref(el["grey"], labels, where)
        eta = resolve_reflectivity(el["eta"])
        elements.append(
            Beamsplitter(a, b, eta, grey=grey, label=str(el.get("label", "")))
        )
    prep = {}
    for ref, count in dict(doc.get("ancilla_prep", {})).items():
        mode = _mode_ref(ref, labels, "ancilla_prep")
        prep[mode] = _count(count, f"ancilla_prep[{ref!r}]")
    detection = None
    if "detection" in doc and doc["detection"] is not None:
        det = doc["detection"]
        if not isinstance(det, dict):
            raise CircuitFileError("detection must be an object")
        exact = {
            _mode_ref(ref, labels, "detection.exact"): _count(
                count, f"detection.exact[{ref!r}]"
            )
            for ref, count in dict(det.get("exact", {})).items()
        }
        groups = []
        for j, entry in enumerate(det.get("groups", [])):
            where = f"detection.groups[{j}]"
            try:
                modes, total = entry
            except (TypeError, ValueError):
                raise CircuitFileError(f"{where}: must be [modes, total]") from None
            groups.append(
                (
                    tuple(_mode_ref(m, labels, where) for m in modes),
                    _count(total, f"{where} total"),
                )
            )
        try:
            detection = DetectionPattern(exact=exact, groups=tuple(groups))
        except ValueError as exc:
            raise CircuitFileError(f"detection: {exc}") from None
    cuts = doc.get("cuts", {})
    if not isinstance(cuts, dict):
        raise CircuitFileError("cuts must be an object")
    circuit = Circuit(
        n_modes=n_modes,
        labels=labels,
        elements=tuple(elements),
        ancilla_prep=prep,
        detection=detection,
        cuts={name: _count(k, f"cuts[{name!r}]") for name, k in cuts.items()},
    )
    issues = validate_circuit(circuit)
    if issues:
        raise CircuitFileError("; ".join(issues))
    return circuit


def load_circuit(path: str | Path) -> Circuit:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CircuitFileError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFileError(f"{path} is not valid JSON: {exc}") from None
    try:
        return circuit_from_dict(doc)
    except CircuitFileError as exc:
        raise CircuitFileError(f"{path}: {exc}") from None


def circuit_to_dict(circuit: Circuit) -> dict:
    """Inverse of ``circuit_from_dict`` (numeric reflectivities only)."""
    doc = {
        "n_modes": circuit.n_modes,
        "labels": list(circuit.labels),
        "elements": [
            {
                "a": circuit.labels[el.mode_a],
                "b": circuit.labels[el.mode_b],
                "eta": el.reflectivity,
                "grey": circuit.labels[el.grey],
                "label": el.label,
            }
            for el in circuit.elements
        ],
        "ancilla_prep": {
            circuit.labels[m]: k for m, k in circuit.ancilla_prep.items()
        },
        "cuts": dict(circuit.cuts),
    }
    if circuit.detection is not None:
        doc["detection"] = {
            "exact": {
                circuit.labels[m]: k for m, k in circuit.detection.exact.items()
            },
            "groups": [
                [[circuit.labels[m] for m in modes], total]
                for modes, total in circuit.detection.groups
            ],
        }
    return doc
