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
``detection`` and ``cuts`` are optional. Lists, objects and labels must
be JSON lists, objects and strings: another type is rejected, not converted.
An unknown key is rejected too, so a misspelt optional field is not
dropped. ``Beamsplitter`` and ``Circuit`` check their own rules.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import gates
from .elements import Beamsplitter, Circuit
from .fock import _natural
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


_TOP_LEVEL_KEYS = ("n_modes", "labels", "elements", "ancilla_prep", "detection", "cuts")
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind: type, where: str):
    """``value`` if it has the JSON type ``kind``; no other is converted."""
    if not isinstance(value, kind):
        raise CircuitFileError(f"{where} must be {_JSON_TYPES[kind]}")
    return value


def _known_keys(doc: dict, known: tuple[str, ...], where: str) -> None:
    for key in doc:
        if key not in known:
            raise CircuitFileError(f"{where}: unknown field {key!r}")


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
    """The circuit a decoded JSON document describes; every error, those of
    ``fock._natural`` on counts included, is a CircuitFileError."""
    try:
        return _circuit(doc)
    except ValueError as exc:
        raise CircuitFileError(str(exc)) from None


def _circuit(doc: dict) -> Circuit:
    _typed(doc, dict, "top-level value")
    _known_keys(doc, _TOP_LEVEL_KEYS, "top level")
    for key in ("n_modes", "labels", "elements"):
        if key not in doc:
            raise CircuitFileError(f"missing required field {key!r}")
    n_modes = doc["n_modes"]
    if isinstance(n_modes, bool) or not isinstance(n_modes, int) or n_modes < 1:
        raise CircuitFileError(f"n_modes must be a positive integer, got {n_modes!r}")
    labels = tuple(_typed(doc["labels"], list, "labels"))
    if len(labels) != n_modes or not all(isinstance(s, str) for s in labels):
        raise CircuitFileError(
            f"labels must be {n_modes} strings, got {doc['labels']!r}"
        )
    elements = []
    for i, el in enumerate(_typed(doc["elements"], list, "elements")):
        where = f"elements[{i}]"
        _typed(el, dict, f"{where}:")
        _known_keys(el, ("a", "b", "eta", "grey", "label"), where)
        for key in ("a", "b", "eta", "grey"):
            if key not in el:
                raise CircuitFileError(f"{where}: missing field {key!r}")
        a = _mode_ref(el["a"], labels, where)
        b = _mode_ref(el["b"], labels, where)
        grey = _mode_ref(el["grey"], labels, where)
        eta = resolve_reflectivity(el["eta"])
        label = _typed(el.get("label", ""), str, f"{where}: label")
        try:
            elements.append(Beamsplitter(a, b, eta, grey=grey, label=label))
        except ValueError as exc:
            raise CircuitFileError(f"{where}: {exc}") from None
    prep = {}
    prep_doc = _typed(doc.get("ancilla_prep", {}), dict, "ancilla_prep")
    for ref, count in prep_doc.items():
        mode = _mode_ref(ref, labels, "ancilla_prep")
        prep[mode] = _natural(count, f"ancilla_prep[{ref!r}]:")
    detection = None
    if "detection" in doc and doc["detection"] is not None:
        det = _typed(doc["detection"], dict, "detection")
        _known_keys(det, ("exact", "groups"), "detection")
        exact_doc = _typed(det.get("exact", {}), dict, "detection.exact")
        exact = {
            _mode_ref(ref, labels, "detection.exact"): _natural(
                count, f"detection.exact[{ref!r}]:"
            )
            for ref, count in exact_doc.items()
        }
        groups = []
        groups_doc = _typed(det.get("groups", []), list, "detection.groups")
        for j, entry in enumerate(groups_doc):
            where = f"detection.groups[{j}]"
            try:
                modes, total = entry
            except (TypeError, ValueError):
                raise CircuitFileError(f"{where}: must be [modes, total]") from None
            modes = _typed(modes, list, f"{where}: modes")
            groups.append(
                (
                    tuple(_mode_ref(m, labels, where) for m in modes),
                    _natural(total, f"{where} total:"),
                )
            )
        try:
            detection = DetectionPattern(exact=exact, groups=tuple(groups))
        except ValueError as exc:
            raise CircuitFileError(f"detection: {exc}") from None
    cuts = _typed(doc.get("cuts", {}), dict, "cuts")
    return Circuit(
        n_modes=n_modes,
        labels=labels,
        elements=tuple(elements),
        ancilla_prep=prep,
        detection=detection,
        cuts={name: _natural(k, f"cuts[{name!r}]:") for name, k in cuts.items()},
    )


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
