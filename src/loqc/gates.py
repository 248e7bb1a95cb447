"""Postselected linear-optical gates and their parameter solvers.

The building block is the conditional sign-shift gate (NS gate): three
beamsplitters, one ancilla photon and one ancilla vacuum mode. Detecting
exactly one photon at the ancilla "1" output and none at the "0" output
applies, up to a common success amplitude, the map

    alpha|0> + beta|1> + gamma|2>  ->  l0*alpha|0> + l1*beta|1> + l2*gamma|2>

on the signal mode. Balanced operation means |l0| = |l1| = |l2| with the
sign flipped on the two-photon part; the best achievable common amplitude
is 1/2, so each NS gate succeeds with probability 1/4.

Two NS gates inside a pair of nested balanced interferometers make a
dual-rail CNOT that succeeds with probability 1/16. Replacing each NS
gate by a single biased splitter plus a rebalancing attenuator gives the
simplified CNOT with success probability ((3 - sqrt(2))/7)^2, about 1/20.

Both operating points are closed forms, which ``solve_optimal_ns`` and
``solve_biased_ns`` return. ``tests/test_exact.py`` proves them exactly
with sympy: no balanced NS amplitude exceeds 1/2 and only the closed form
reaches it, and the biased balance equations have exactly one non-zero
root in [0, 1]**2. ``NS_GATES`` and ``CNOTS`` hold each gate's builder
beside the closed forms that its reports check.

Mode and sign conventions
-------------------------
Dual rail: a photon in the H rail is logical 0, in the V rail logical 1, as
``_SINGLE_QUBIT`` states for ``encode_logical`` and the derived ``_BASIS_KETS``.
CNOT modes are ordered (c_H, c_V, t_H, t_V, a1, a2, v1, v2). The 50:50
splitters have their grey ports chosen so that, with + internal arms
d1 = (c_V + t')/sqrt(2) and d2 = (c_V - t')/sqrt(2):

    B4: t'  = (t_H + t_V)/sqrt(2),   t''' = (t_H - t_V)/sqrt(2)
    B3: d1, d2 as above (grey on the t' port)
    B2: c_V_out = (d1' + d2')/sqrt(2), t'' = (d1' - d2')/sqrt(2)
    B1: t_H_out = (t'' + t''')/sqrt(2), t_V_out = (t'' - t''')/sqrt(2)

Inside each NS gate the middle splitter's grey port faces the signal arm
and the outer splitters' grey ports face the vacuum ancilla. These
choices are load-bearing: they set which interference terms change sign
and therefore whether the network computes a CNOT at all. Each is stated
once, in ``_ns_splitters``, ``_biased_pair`` or ``_nested_cnot``, and every
builder heralds through ``_heralded``, the one heralding rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elements import Beamsplitter, Circuit
from .evolve import evolve
from .fock import FockStateVector, Occupation, _real, basis_state, make_state
from .postselect import DetectionPattern, condition

_SQRT2 = math.sqrt(2.0)

# Closed-form reflectivities. These are the only copies in the codebase;
# the circuit-file loader resolves its symbolic tokens to these values.
ETA2_NS = (_SQRT2 - 1.0) ** 2  # = 3 - 2*sqrt(2), about 0.1716
ETA13_NS = 1.0 / (4.0 - 2.0 * _SQRT2)  # about 0.8536
ETA2_BIASED = (3.0 - _SQRT2) / 7.0  # about 0.2265
ETA7_BIASED = 5.0 - 3.0 * _SQRT2  # about 0.7574

BASIS_INPUTS = ("HH", "HV", "VH", "VV")

# Mode labels of the four qubit rails, in the order ``decode_logical``
# reads them.
QUBIT_LABELS = ("c_H", "c_V", "t_H", "t_V")

# Logical action in the computational basis: control H leaves the target
# alone, control V swaps the target rails.
CNOT_IMAGE = {"HH": "HH", "HV": "HV", "VH": "VV", "VV": "VH"}


class _Reflectivities:
    """Base of the parameter sets, whose every field is a reflectivity."""

    def __post_init__(self):
        for name, v in vars(self).items():
            _real(v, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")


@dataclass(frozen=True)
class NsParameters(_Reflectivities):
    """Reflectivities (eta1, eta2, eta3) of the three NS-gate splitters."""

    eta1: float
    eta2: float
    eta3: float


@dataclass(frozen=True)
class BiasedNsParameters(_Reflectivities):
    """Biased NS gate: signal splitter eta2 plus rebalancing attenuator eta7."""

    eta2: float
    eta7: float


def optimal_ns_parameters() -> NsParameters:
    return NsParameters(ETA13_NS, ETA2_NS, ETA13_NS)


def balanced_biased_parameters() -> BiasedNsParameters:
    return BiasedNsParameters(ETA2_BIASED, ETA7_BIASED)


def ns_conditional_map(p: NsParameters) -> tuple[float, float, float]:
    """Closed-form conditional amplitudes (l0, l1, l2) of the NS gate.

    For a vacuum signal the ancilla photon must reach the "1" detector
    either straight through all three splitters or via the vacuum mode
    and back, which gives l0.
    """
    l0 = math.sqrt(p.eta1 * p.eta2 * p.eta3) + math.sqrt(
        (1.0 - p.eta1) * (1.0 - p.eta3)
    )
    l1 = math.sqrt(p.eta1 * p.eta3) * (1.0 - p.eta2) - l0 * math.sqrt(p.eta2)
    l2 = p.eta2 * l0 - 2.0 * math.sqrt(p.eta1 * p.eta2 * p.eta3) * (1.0 - p.eta2)
    return (l0, l1, l2)


def biased_ns_amplitudes(p: BiasedNsParameters) -> tuple[float, float, float]:
    """Conditional amplitudes of the biased NS gate.

    With the outer splitters fully reflective the gate collapses to one
    splitter of reflectivity eta2, giving (sqrt(eta2), 1 - 2*eta2,
    -sqrt(eta2)*(2 - 3*eta2)); an attenuator of reflectivity eta7 in the
    signal path (conditioned on losing nothing) multiplies the n-photon
    amplitude by sqrt(eta7)**n.
    """
    s2 = math.sqrt(p.eta2)
    s7 = math.sqrt(p.eta7)
    return (s2, s7 * (1.0 - 2.0 * p.eta2), -p.eta7 * s2 * (2.0 - 3.0 * p.eta2))


def balance_residual(lams: tuple[float, float, float]) -> float:
    """max(|l0 - l1|, |l0 + l2|): zero exactly when the map is balanced."""
    l0, l1, l2 = lams
    return max(abs(l0 - l1), abs(l0 + l2))


def solve_optimal_ns() -> tuple[NsParameters, float]:
    """Best balanced NS operating point and its success amplitude (1/2)."""
    params = optimal_ns_parameters()
    return params, ns_conditional_map(params)[0]


def solve_biased_ns() -> BiasedNsParameters:
    """Balanced biased operating point eta2 = (3 - sqrt(2))/7, eta7 = 5 - 3*sqrt(2)."""
    return balanced_biased_parameters()


# ---------------------------------------------------------------------------
# circuit constructors

# Modes of the nested CNOT after c_H (mode 0): the other qubit rails, then
# each NS arm's ancilla photon, then each arm's vacuum ancilla.
_C_V, _T_H, _T_V, _A1, _A2, _V1, _V2 = range(1, 8)


def _ns_splitters(p: NsParameters, s: int, a: int, v: int, prefix: str = ""):
    """The NS gate's three splitters on signal s, ancilla photon a and
    vacuum v: eta1 and eta3 couple a with v (grey on v), eta2 couples the
    signal with a (grey on the signal)."""
    return (
        Beamsplitter(a, v, p.eta1, grey=v, label=prefix + "eta1"),
        Beamsplitter(s, a, p.eta2, grey=s, label=prefix + "eta2"),
        Beamsplitter(a, v, p.eta3, grey=v, label=prefix + "eta3"),
    )


def _biased_pair(p: BiasedNsParameters, s: int, a: int, v: int, labels):
    """The biased NS gate's attenuator eta7 against vacuum v (grey on v)
    and signal splitter eta2 with ancilla photon a (grey on the signal s)."""
    return (
        Beamsplitter(s, v, p.eta7, grey=v, label=labels[0]),
        Beamsplitter(s, a, p.eta2, grey=s, label=labels[1]),
    )


def _heralded(labels, elements, ancillas: dict[int, int]) -> Circuit:
    """A circuit whose heralding detects each ancilla mode with the count
    it was prepared with: one photon at each "1" output, none elsewhere."""
    return Circuit(
        len(labels), labels, elements, ancilla_prep=ancillas,
        detection=DetectionPattern(exact=ancillas),
    )


def _nested_cnot(outer, inner, vacua: tuple[str, str]) -> Circuit:
    """The CNOT's nested balanced interferometers: B4 mixes the target
    rails, ``outer`` acts on the c_V and t' beams, B3 forms arms d1 and d2,
    ``inner`` acts on them (ancilla photons a1, a2, vacua ``vacua``), then
    B2 and B1 undo the interferometers."""
    elements = (
        Beamsplitter(_T_H, _T_V, 0.5, grey=_T_V, label="B4"),
        *outer,
        Beamsplitter(_C_V, _T_H, 0.5, grey=_T_H, label="B3"),
        *inner,
        Beamsplitter(_C_V, _T_H, 0.5, grey=_T_H, label="B2"),
        Beamsplitter(_T_H, _T_V, 0.5, grey=_T_V, label="B1"),
    )
    ancillas = {_A1: 1, _A2: 1, _V1: 0, _V2: 0}
    return _heralded(QUBIT_LABELS + ("a1", "a2") + vacua, elements, ancillas)


def build_ns_circuit(p: NsParameters | None = None) -> Circuit:
    """Three-splitter NS gate on modes (s, a, v).

    Mode s is the signal, a carries the single ancilla photon and feeds
    the "1" detector, v is the vacuum ancilla feeding the "0" detector.
    """
    if p is None:
        p = optimal_ns_parameters()
    return _heralded(("s", "a", "v"), _ns_splitters(p, 0, 1, 2), {1: 1, 2: 0})


def build_biased_ns_circuit(p: BiasedNsParameters | None = None) -> Circuit:
    """Biased NS gate on modes (s, a, v7): one signal splitter eta2 with
    the ancilla photon, one attenuator eta7 against vacuum."""
    if p is None:
        p = balanced_biased_parameters()
    pair = _biased_pair(p, 0, 1, 2, ("eta7", "eta2"))
    return _heralded(("s", "a", "v7"), pair, {1: 1, 2: 0})


def build_cnot_circuit() -> Circuit:
    """Dual-rail CNOT from two NS gates inside nested interferometers.

    One NS gate acts on each arm, d1 (c_V) and d2 (t_H). Heralding
    detects one photon on each NS "1" output and none on the vacuum
    outputs.
    """
    p = optimal_ns_parameters()
    ns1 = _ns_splitters(p, _C_V, _A1, _V1, "NS1.")
    ns2 = _ns_splitters(p, _T_H, _A2, _V2, "NS2.")
    return _nested_cnot((), ns1 + ns2, ("v1", "v2"))


def build_simplified_cnot() -> Circuit:
    """CNOT with biased NS gates: splitters B5/B6 at eta2 replace the NS
    gates, attenuators B7/B8 at eta7 on the c_V and t' beams rebalance.
    Heralding detects one photon at each of a1, a2 and none at v7, v8.
    """
    p = balanced_biased_parameters()
    attenuators, splitters = zip(
        _biased_pair(p, _C_V, _A1, _V1, ("B7", "B5")),
        _biased_pair(p, _T_H, _A2, _V2, ("B8", "B6")),
    )
    return _nested_cnot(attenuators, splitters, ("v7", "v8"))


def conditional_map_by_evolution(circuit: Circuit) -> tuple[complex, ...]:
    """Conditioned signal amplitudes of an NS-style circuit, by evolution.

    Feeds |n>, n = 0, 1, 2, into the signal mode (mode 0) together with
    the circuit's ancilla preparation, evolves, conditions on the
    circuit's detection pattern, and reads off the amplitude left on |n>.
    Used to cross-check the closed forms through an entirely different
    code path.
    """
    if circuit.detection is None:
        raise ValueError("circuit has no detection pattern")
    out = []
    for n in range(3):
        prepared = basis_state(circuit.n_modes, circuit.prepared_occupation({0: n}))
        final = evolve(prepared, circuit, keep=circuit.detection)
        outcome = condition(final, circuit.detection)
        reduced_occ = tuple(
            n if m == 0 else 0 for m in outcome.kept_modes
        )
        out.append(outcome.reduced.amplitude(reduced_occ))
    return tuple(out)


# ---------------------------------------------------------------------------
# dual-rail encoding


@dataclass(frozen=True)
class LogicalQubitPair:
    """Control and target qubit amplitudes, each (H, V) and normalized."""

    control: tuple[complex, complex]
    target: tuple[complex, complex]

    def __post_init__(self):
        for name in ("control", "target"):
            amp = getattr(self, name)
            norm = abs(amp[0]) ** 2 + abs(amp[1]) ** 2
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(
                    f"{name} amplitudes {amp} have squared norm {norm}, not 1"
                )


_SINGLE_QUBIT = {
    "H": (1.0, 0.0),
    "V": (0.0, 1.0),
    "+": (1.0 / _SQRT2, 1.0 / _SQRT2),
    "-": (1.0 / _SQRT2, -1.0 / _SQRT2),
}


def logical_pair(label: str) -> LogicalQubitPair:
    """Two-character input label, e.g. "HV" or "+H". H and V are the rail
    states, + and - their equal superpositions."""
    if len(label) != 2 or label[0] not in _SINGLE_QUBIT or label[1] not in _SINGLE_QUBIT:
        raise ValueError(f"unknown logical input label {label!r}")
    return LogicalQubitPair(_SINGLE_QUBIT[label[0]], _SINGLE_QUBIT[label[1]])


def encode_logical(pair: LogicalQubitPair, circuit: Circuit) -> FockStateVector:
    """Dual-rail-encode a qubit pair into the circuit's input state,
    with ancilla photons placed per the circuit's preparation."""
    c_h, c_v, t_h, t_v = (circuit.mode_index(l) for l in QUBIT_LABELS)
    entries = []
    for c_mode, c_amp in ((c_h, pair.control[0]), (c_v, pair.control[1])):
        for t_mode, t_amp in ((t_h, pair.target[0]), (t_v, pair.target[1])):
            amp = complex(c_amp) * complex(t_amp)
            if amp == 0:
                continue
            occ = circuit.prepared_occupation({c_mode: 1, t_mode: 1})
            entries.append((occ, amp))
    return make_state(circuit.n_modes, entries)


# Each basis input over the QUBIT_LABELS rails: its control's, then its target's (H, V).
_BASIS_KETS = {
    c + t: tuple(map(int, _SINGLE_QUBIT[c] + _SINGLE_QUBIT[t])) for c, t in BASIS_INPUTS
}


def dual_rail_ket(label: str) -> Occupation:
    """Occupation of a basis ket over the ``QUBIT_LABELS`` rails."""
    if label not in _BASIS_KETS:
        raise ValueError(f"unknown basis label {label!r}")
    return _BASIS_KETS[label]


def decode_logical(
    state: FockStateVector,
) -> tuple[tuple[complex, complex, complex, complex], float]:
    """Project a state over the four ``QUBIT_LABELS`` rails onto the
    dual-rail computational basis.

    Returns the amplitudes on (HH, HV, VH, VV) and the leakage: the
    weight of the kets outside the encoded subspace, summed directly
    (absolute, so it carries the input's own normalization).
    """
    if state.n_modes != 4:
        raise ValueError(f"decode expects a 4-mode state, got {state.n_modes}")
    amps = tuple(state.amplitude(_BASIS_KETS[k]) for k in BASIS_INPUTS)
    code = _BASIS_KETS.values()
    leaked = (abs(a) ** 2 for occ, a in state.amplitudes.items() if occ not in code)
    return amps, sum(leaked, 0.0)


# Each NS gate: (builder, its closed-form conditional map (l0, l1, l2) at
# its operating point).
NS_GATES = {
    "ns": (build_ns_circuit, ns_conditional_map(optimal_ns_parameters())),
    "ns-biased": (
        build_biased_ns_circuit, biased_ns_amplitudes(balanced_biased_parameters())
    ),
}

# Each CNOT: (builder, expected per-input success probability, its
# tolerance, {interior cut: (number of elements before it, the NS map its
# closed-form state carries, or None before the NS gates)}). Its keys are
# the gates that the CNOT reports and the CLI's CNOT commands accept. The
# CNOT's cut "x" follows the input splitters B4 and B3, "y" both NS gates;
# the simplified CNOT's "y" and "z" both follow B5/B6, before recombination.
CNOTS = {
    "cnot": (
        build_cnot_circuit, 1.0 / 16.0, 1e-10,
        {"x": (2, None), "y": (8, NS_GATES["ns"][1])},
    ),
    "cnot-simplified": (
        build_simplified_cnot, ETA2_BIASED**2, 1e-7,
        {"y": (6, NS_GATES["ns-biased"][1]), "z": (6, NS_GATES["ns-biased"][1])},
    ),
}

# Every gate's builder, in table order; ``gate_by_name`` builds through it.
# A snapshot taken at import: a gate added to a table later goes here too.
_GATE_BUILDERS = {name: entry[0] for name, entry in (NS_GATES | CNOTS).items()}
GATE_NAMES = tuple(_GATE_BUILDERS)


def gate_by_name(name: str) -> Circuit:
    """Construct a named gate at its standard operating point."""
    try:
        builder = _GATE_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown gate {name!r}; known: {', '.join(GATE_NAMES)}"
        ) from None
    return builder()
