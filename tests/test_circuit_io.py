"""Circuit description files: parsing, validation diagnostics, round trips."""

import json

import pytest

from loqc.circuit_io import (
    REFLECTIVITY_TOKENS,
    CircuitFileError,
    circuit_from_dict,
    circuit_to_dict,
    load_circuit,
    resolve_reflectivity,
)
from loqc.cli import main
from loqc.evolve import evolve
from loqc.fock import basis_state
from loqc.gates import (
    ETA2_NS,
    build_cnot_circuit,
    build_ns_circuit,
    build_simplified_cnot,
    conditional_map_by_evolution,
)

GOOD = {
    "n_modes": 3,
    "labels": ["s", "a", "v"],
    "elements": [
        {"a": "a", "b": "v", "eta": "eta13_ns", "grey": "v", "label": "eta1"},
        {"a": "s", "b": "a", "eta": "eta2_ns", "grey": "s", "label": "eta2"},
        {"a": "a", "b": "v", "eta": "eta13_ns", "grey": "v", "label": "eta3"},
    ],
    "ancilla_prep": {"a": 1, "v": 0},
    "detection": {"exact": {"a": 1, "v": 0}},
}


def test_symbolic_tokens_resolve_to_operating_points():
    assert resolve_reflectivity("eta2_ns") == pytest.approx(ETA2_NS, abs=1e-15)
    assert resolve_reflectivity(0.25) == 0.25
    assert set(REFLECTIVITY_TOKENS) == {
        "eta2_ns",
        "eta13_ns",
        "eta2_biased",
        "eta7_biased",
    }
    with pytest.raises(CircuitFileError):
        resolve_reflectivity("eta9_unknown")


def test_file_circuit_reproduces_builder_gate():
    circuit = circuit_from_dict(GOOD)
    reference = build_ns_circuit()
    assert circuit.labels == reference.labels
    assert circuit.ancilla_prep == reference.ancilla_prep
    file_map = conditional_map_by_evolution(circuit)
    ref_map = conditional_map_by_evolution(reference)
    for a, b in zip(file_map, ref_map):
        assert abs(a - b) < 1e-14


def test_mode_references_accept_labels_and_indices():
    doc = {
        "n_modes": 2,
        "labels": ["x", "y"],
        "elements": [{"a": 0, "b": "y", "eta": 0.5, "grey": 1}],
    }
    circuit = circuit_from_dict(doc)
    out = evolve(basis_state(2, (1, 1)), circuit)
    assert abs(out.amplitude((2, 0)) - 2.0**-0.5) < 1e-14


def test_round_trip_through_dict():
    circuit = circuit_from_dict(GOOD)
    doc = circuit_to_dict(circuit)
    again = circuit_from_dict(doc)
    assert again.n_modes == circuit.n_modes
    assert again.labels == circuit.labels
    assert again.ancilla_prep == circuit.ancilla_prep
    assert again.detection == circuit.detection
    for e1, e2 in zip(again.elements, circuit.elements):
        assert (e1.mode_a, e1.mode_b, e1.grey) == (e2.mode_a, e2.mode_b, e2.grey)
        assert e1.reflectivity == pytest.approx(e2.reflectivity, abs=1e-15)


def test_load_circuit_from_file(tmp_path):
    path = tmp_path / "ns.json"
    path.write_text(json.dumps(GOOD))
    circuit = load_circuit(path)
    assert circuit.n_modes == 3


def test_diagnostics_name_the_offending_field():
    bad = dict(GOOD, n_modes="three")
    with pytest.raises(CircuitFileError, match="n_modes"):
        circuit_from_dict(bad)

    bad = dict(GOOD)
    bad = json.loads(json.dumps(bad))
    bad["elements"] = [{"a": "s", "b": "s", "eta": 0.5, "grey": "s"}]
    with pytest.raises(CircuitFileError):
        circuit_from_dict(bad)

    bad = json.loads(json.dumps(GOOD))
    bad["elements"][0]["a"] = "nope"
    with pytest.raises(CircuitFileError, match="nope"):
        circuit_from_dict(bad)

    bad = json.loads(json.dumps(GOOD))
    bad["elements"][0]["eta"] = 1.5
    with pytest.raises(CircuitFileError):
        circuit_from_dict(bad)

    bad = json.loads(json.dumps(GOOD))
    del bad["labels"]
    with pytest.raises(CircuitFileError):
        circuit_from_dict(bad)


def test_load_circuit_rejects_unparseable_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(CircuitFileError):
        load_circuit(path)
    with pytest.raises(CircuitFileError):
        load_circuit(tmp_path / "missing.json")


def test_round_trip_keeps_the_cnot_circuits_and_their_cuts():
    for circuit in (build_cnot_circuit(), build_simplified_cnot()):
        again = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(circuit))))
        assert again == circuit
        assert again.cuts == circuit.cuts != {}


def _with(path: str, value, doc=GOOD) -> dict:
    """A copy of ``doc`` with the field at dotted ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path.split(".")
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        _with("detection.exact.a", 1.7),
        _with("detection.exact.a", True),
        _with("detection.groups", [[["s"], 0.5]]),
        _with("detection.groups", [[["s"], True]]),
        _with("ancilla_prep.a", True),
        _with("cuts", {"mid": 1.5}),
        _with("cuts", {"mid": 4}),
        _with("cuts", [1]),
        {"n_modes": True, "labels": ["s"], "elements": []},
        _with("labels", "sav"),
    ],
    ids=[
        "exact-float",
        "exact-bool",
        "group-float",
        "group-bool",
        "prep-bool",
        "cut-float",
        "cut-out-of-range",
        "cuts-not-object",
        "n_modes-bool",
        "labels-string",
    ],
)
def test_counts_must_be_integers_not_coerced(doc, tmp_path):
    with pytest.raises(CircuitFileError):
        circuit_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run-circuit", str(path), "--input", "1"]) == 2


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            _with("elements", [{"a": "s", "b": "a", "eta": [0.5], "grey": "s"}]),
            "reflectivity must be a number or token, got [0.5]",
        ),
        (
            _with("elements", [{"a": 7, "b": "a", "eta": 0.5, "grey": "a"}]),
            "elements[0]: mode index 7 outside 0..2",
        ),
        (
            _with("elements", [{"a": 1.5, "b": "a", "eta": 0.5, "grey": "a"}]),
            "elements[0]: mode reference must be a label or index",
        ),
        ([GOOD], "top-level value must be an object"),
        (_with("labels", ["s", "a"]), "labels must be 3 strings, got ['s', 'a']"),
        (
            _with("labels", ["s", "a", 2]),
            "labels must be 3 strings, got ['s', 'a', 2]",
        ),
        (_with("elements", ["s"]), "elements[0]: must be an object"),
        (
            _with("elements", [{"a": "s", "b": "a", "eta": 0.5}]),
            "elements[0]: missing field 'grey'",
        ),
        (_with("detection", [["a", 1]]), "detection must be an object"),
        (
            _with("detection.groups", [[["s"]]]),
            "detection.groups[0]: must be [modes, total]",
        ),
        (_with("detection.groups", [5]), "detection.groups[0]: must be [modes, total]"),
        (
            _with("detection.groups", [[["s", "a"], 1]]),
            "detection: modes [1] appear in more than one constraint",
        ),
        # a value of the wrong JSON type is rejected, not iterated or converted
        (_with("labels", 5), "labels must be a list"),
        (_with("labels", "sav"), "labels must be a list"),
        (_with("labels", {"s": 0, "a": 1, "v": 2}), "labels must be a list"),
        (_with("elements", 5), "elements must be a list"),
        (_with("ancilla_prep", 5), "ancilla_prep must be an object"),
        (_with("ancilla_prep", [["a", 1]]), "ancilla_prep must be an object"),
        (_with("detection", {"groups": 5}), "detection.groups must be a list"),
        (
            _with("detection.groups", [[5, 1]]),
            "detection.groups[0]: modes must be a list",
        ),
        (
            _with("detection", {"exact": [["a", 1]]}),
            "detection.exact must be an object",
        ),
        (
            _with("elements", [dict(GOOD["elements"][0], label={"x": 1})]),
            "elements[0]: label must be a string",
        ),
        (
            _with("elements", [dict(GOOD["elements"][0], label=None)]),
            "elements[0]: label must be a string",
        ),
        # a misspelt key is refused, not dropped
        (_with("cut", {"mid": 1}), "top level: unknown field 'cut'"),
        (
            _with("elements", [dict(GOOD["elements"][0], etta=0.5)]),
            "elements[0]: unknown field 'etta'",
        ),
        (
            _with("detection", {"exact": {"a": 1}, "group": []}),
            "detection: unknown field 'group'",
        ),
        # the element's and the circuit's own rules, checked as they are built
        (
            _with("elements", [{"a": "s", "b": "s", "eta": 0.5, "grey": "s"}]),
            "elements[0]: modes coincide (0)",
        ),
        (
            _with("elements", [{"a": "s", "b": "a", "eta": 0.5, "grey": "v"}]),
            "elements[0]: grey mode 2 is not one of its modes",
        ),
        (
            _with("elements", [{"a": "s", "b": "a", "eta": 1.5, "grey": "s"}]),
            "elements[0]: reflectivity 1.5 outside [0, 1]",
        ),
        (
            _with("elements", [{"a": "s", "b": "a", "eta": float("nan"), "grey": "s"}]),
            "elements[0]: reflectivity nan outside [0, 1]",
        ),
        (_with("cuts", {"mid": 4}), "cut 'mid' at 4 outside 0..3"),
    ],
    ids=[
        "eta-type",
        "mode-index-range",
        "mode-reference-type",
        "top-level-not-object",
        "labels-count",
        "labels-type",
        "element-not-object",
        "element-missing-field",
        "detection-not-object",
        "group-short",
        "group-not-pair",
        "overlapping-constraints",
        "labels-number",
        "labels-string",
        "labels-object",
        "elements-number",
        "prep-number",
        "prep-pairs",
        "groups-number",
        "group-modes-number",
        "exact-pairs",
        "element-label-object",
        "element-label-null",
        "unknown-top-level-key",
        "unknown-element-key",
        "unknown-detection-key",
        "element-modes-coincide",
        "element-grey",
        "element-reflectivity",
        "element-reflectivity-nan",
        "cut-out-of-range",
    ],
)
def test_file_shape_errors_say_what_and_where(doc, message):
    with pytest.raises(CircuitFileError) as err:
        circuit_from_dict(doc)
    assert str(err.value) == message


def test_round_trip_keeps_a_detection_group():
    doc = _with("detection", {"exact": {"a": 1}, "groups": [[["v", "s"], 1]]})
    circuit = circuit_from_dict(doc)
    assert circuit.detection.groups == (((0, 2), 1),)
    written = circuit_to_dict(circuit)
    assert written["detection"] == {"exact": {"a": 1}, "groups": [[["s", "v"], 1]]}
    assert circuit_from_dict(json.loads(json.dumps(written))) == circuit
