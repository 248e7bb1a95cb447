"""Beamsplitter elements and circuits, with an asymmetric phase convention.

Every beamsplitter here is real: one face of the splitter (the "grey"
port) reflects with amplitude -sqrt(eta), the other face with +sqrt(eta),
and both transmissions are +sqrt(1 - eta). Writing r = sqrt(eta) and
t = sqrt(1 - eta), the 2x2 amplitude matrix with the grey port second is

    [[ r,  t],
     [ t, -r]]

which is symmetric, orthogonal and involutory. Because of the symmetry the
same matrix serves as the Heisenberg map on mode operators and as the
single-photon amplitude map (outputs indexed by rows, inputs by columns).
Which port is grey matters: it decides which interference terms pick up a
sign, and the gate constructions depend on those choices.

Two methods derive a circuit from another:
``Circuit.with_reflectivities`` is the same network at new reflectivities
(a perturbed device), and ``Circuit.prefix`` its first k elements (an
interior cut, whose k ``gates.CNOTS`` gives). Both pass the new circuit
through ``Circuit``'s construction check.

``beamsplitter_matrix`` is the only place that applies the grey-port
sign; it takes one reflectivity or an array of real ones. ``transfer_matrices``
is the only composer of single-photon transfer matrices: it applies those
blocks as row updates for a whole batch of reflectivity vectors, the
batched sensitivity sweep's path. It builds one block stack per grey
port the circuit uses, over that port's elements only, and composes the
c requested input columns in a rows-first (n, B, c) buffer, so that each
row update writes contiguous memory; it returns the (B, n, c) view of
it. A row update mixes two rows entry by entry, so each column evolves
alone and the sweep composes only the columns its inputs light.
``compose_transfer_matrix`` is its one-row case over every column, the
permanent oracle's path. Sparse evolution shares neither, which keeps
it an independent check on both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import Occupation, _natural, _real
from .postselect import DetectionPattern


def _real_array(reflectivities) -> np.ndarray:
    """``reflectivities`` as a float array. An array of bools, complex
    numbers, objects or strings is refused, not coerced to floats."""
    eta = np.asarray(reflectivities)
    if eta.dtype.kind not in "iuf":
        raise ValueError(f"reflectivities must be real numbers, got dtype {eta.dtype}")
    return eta.astype(float, copy=False)


def beamsplitter_matrix(reflectivity, grey_port: int) -> np.ndarray:
    """Real amplitude matrix of a beamsplitter, shape (..., 2, 2) for a
    reflectivity array of shape (...) (a real scalar gives one 2x2 matrix).

    ``grey_port`` is 0 or 1 and selects which diagonal entry carries
    -sqrt(reflectivity).
    """
    if not isinstance(reflectivity, np.ndarray):
        _real(reflectivity, "reflectivity")
    eta = _real_array(reflectivity)
    inside = (eta >= 0.0) & (eta <= 1.0)
    if not inside.all():
        raise ValueError(f"reflectivity {eta[~inside][0]} outside [0, 1]")
    if _natural(grey_port, "grey_port") not in (0, 1):
        raise ValueError(f"grey_port must be 0 or 1, got {grey_port}")
    r = np.sqrt(eta)
    t = np.sqrt(1.0 - eta)
    m = np.empty(eta.shape + (2, 2))
    m[..., 0, 1] = m[..., 1, 0] = t
    m[..., 0, 0], m[..., 1, 1] = (-r, r) if grey_port == 0 else (r, -r)
    return m


@dataclass(frozen=True)
class Beamsplitter:
    """A beamsplitter acting on two modes of a larger circuit.

    ``grey`` must equal ``mode_a`` or ``mode_b`` and names the mode whose
    reflection is sign-flipped. Construction refuses a mode that fails
    ``fock._natural``, coinciding modes, another grey mode, a reflectivity
    that fails ``fock._real``, and one outside [0, 1]; the ``Circuit``
    checks that the modes exist. The modes are stored as ``int`` and the
    reflectivity as ``float``, so a numpy number given is not kept.
    """

    mode_a: int
    mode_b: int
    reflectivity: float
    grey: int
    label: str = ""

    def __post_init__(self):
        for name in ("mode_a", "mode_b", "grey"):
            object.__setattr__(self, name, _natural(getattr(self, name), "mode"))
        if self.mode_a == self.mode_b:
            raise ValueError(f"modes coincide ({self.mode_a})")
        if self.grey not in (self.mode_a, self.mode_b):
            raise ValueError(f"grey mode {self.grey} is not one of its modes")
        _real(self.reflectivity, "reflectivity")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError(f"reflectivity {self.reflectivity} outside [0, 1]")
        object.__setattr__(self, "reflectivity", float(self.reflectivity))

    def grey_port(self) -> int:
        """0 or 1: which of the two modes is grey."""
        return 0 if self.grey == self.mode_a else 1


@dataclass(frozen=True)
class Circuit:
    """An ordered sequence of beamsplitters over ``n_modes`` labeled modes.

    ``ancilla_prep`` maps ancilla mode index -> photons fed in (zero
    entries mark vacuum ancillas that are still ancillas, not user
    inputs). ``detection`` is the heralding pattern for postselected
    gates. Construction raises one ValueError that lists every way the
    parts do not fit together, joined by "; ", after refusing alone a
    count or mode that is not an integer. One string given as the labels
    is refused, not split into one label per character. ``n_modes`` and
    the ancilla numbers are stored as ``int``, and ``labels`` and
    ``elements`` as tuples, so a circuit built from lists equals the one
    built from tuples.
    """

    n_modes: int
    labels: tuple[str, ...]
    elements: tuple[Beamsplitter, ...]
    ancilla_prep: dict[int, int] = field(default_factory=dict)
    detection: DetectionPattern | None = None

    def __post_init__(self):
        # a plain int skips the call: a negative one is reported with the rest
        def count(value, what: str) -> int:
            return value if type(value) is int else _natural(value, what)

        n = count(self.n_modes, "n_modes")
        prep = {
            count(m, "ancilla prep mode"): count(k, f"ancilla prep count on mode {m!r}")
            for m, k in self.ancilla_prep.items()
        }
        issues: list[str] = []
        if isinstance(self.labels, str):
            issues.append(f"labels {self.labels!r} is one string, not one per mode")
        object.__setattr__(self, "n_modes", n)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "ancilla_prep", prep)
        if n < 1:
            issues.append(f"n_modes must be >= 1, got {n}")
        if len(self.labels) != n:
            issues.append(f"{len(self.labels)} labels for {n} modes")
        for i, label in enumerate(self.labels):
            if not isinstance(label, str):
                issues.append(f"label {i} ({label!r}) is not a string")
        names = [label for label in self.labels if isinstance(label, str)]
        if len(set(names)) != len(names):
            issues.append("mode labels are not unique")
        for i, el in enumerate(self.elements):
            if not isinstance(el, Beamsplitter):
                issues.append(f"element {i} is not a Beamsplitter")
                continue
            for m in (el.mode_a, el.mode_b):
                if m >= n:
                    where = f"element {i}" + (f" ({el.label})" if el.label else "")
                    issues.append(f"{where}: mode {m} outside 0..{n - 1}")
        for m, k in self.ancilla_prep.items():
            if m < 0 or m >= n:
                issues.append(f"ancilla prep mode {m} outside 0..{n - 1}")
            if k < 0:
                issues.append(f"ancilla prep count {k} on mode {m} is negative")
        if self.detection is not None:
            try:
                self.detection.validate_for(n)
            except ValueError as exc:
                issues.append(str(exc))
        if issues:
            raise ValueError("; ".join(issues))

    def with_reflectivities(self, reflectivities) -> Circuit:
        """This circuit with element j's reflectivity set to
        ``reflectivities[j]``; ``Beamsplitter`` checks each one, and a
        vector of another length raises ValueError."""
        return replace(
            self,
            elements=tuple(
                replace(el, reflectivity=eta)
                for el, eta in zip(self.elements, reflectivities, strict=True)
            ),
        )

    def prefix(self, k: int) -> Circuit:
        """This circuit cut after its first ``k`` elements, with the same
        preparation and detection."""
        if not 0 <= _natural(k, "prefix length") <= len(self.elements):
            raise ValueError(f"prefix length {k} outside 0..{len(self.elements)}")
        return replace(self, elements=self.elements[:k])

    def mode_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(
                f"no mode labeled {label!r}; have {list(self.labels)}"
            ) from None

    def prepared_occupation(self, photons: dict[int, int]) -> Occupation:
        """Input occupation with ``photons[m]`` photons on mode m plus the
        ancilla preparation."""
        occ = [0] * self.n_modes
        for mode, k in itertools.chain(photons.items(), self.ancilla_prep.items()):
            occ[mode] += k
        return tuple(occ)


def transfer_matrices(circuit: Circuit, reflectivities, columns=None) -> np.ndarray:
    """Real single-photon transfer matrices, shape (B, n, c), of
    ``circuit`` with its reflectivities replaced row by row from the
    (B, k) array ``reflectivities`` (column j for element j), restricted
    to the input columns ``columns`` in the order given (all n for None):
    column j of the result is column ``columns[j]`` of the full matrix,
    bit for bit. A column outside 0..n-1 raises ValueError.

    Rows index outputs and columns inputs, so for elements applied in
    circuit order c1 then c2 each matrix is U(c2) @ U(c1): every element's
    block updates the two rows it mixes. The blocks come from one
    ``beamsplitter_matrix`` call per grey port in use, over that port's
    elements only. The matrices are composed in a rows-first (n, B, c)
    buffer, where row a of all B matrices is one contiguous (B, c) block,
    and the result is a (B, n, c) view of it.
    """
    etas = _real_array(reflectivities)
    k = len(circuit.elements)
    if etas.ndim != 2 or etas.shape[1] != k:
        raise ValueError(f"need a (B, {k}) reflectivity array, got shape {etas.shape}")
    n = circuit.n_modes
    columns = list(range(n) if columns is None else columns)
    for c in columns:
        if isinstance(c, bool) or not hasattr(c, "__index__") or not 0 <= c < n:
            raise ValueError(f"column {c!r} outside 0..{n - 1}")
    u = np.broadcast_to(
        np.eye(n)[:, None, columns], (n, len(etas), len(columns))
    ).copy()
    ports = [el.grey_port() for el in circuit.elements]
    # each port's (k_port, B, 2, 2) stack, taken element by element in
    # circuit order
    stacks = {
        port: iter(beamsplitter_matrix(etas.T[[p == port for p in ports]], port))
        for port in set(ports)
    }
    for el, port in zip(circuit.elements, ports):
        block = next(stacks[port])[..., None]
        a, b = el.mode_a, el.mode_b
        u[a], u[b] = (
            block[:, 0, 0] * u[a] + block[:, 0, 1] * u[b],
            block[:, 1, 0] * u[a] + block[:, 1, 1] * u[b],
        )
    return u.transpose(1, 0, 2)


def compose_transfer_matrix(circuit: Circuit) -> np.ndarray:
    """Single-photon transfer matrix of ``circuit``: the one-row case of
    ``transfer_matrices`` at its own reflectivities, returned complex even
    though every in-scope element is real."""
    etas = [[el.reflectivity for el in circuit.elements]]
    return transfer_matrices(circuit, etas)[0].astype(complex)
