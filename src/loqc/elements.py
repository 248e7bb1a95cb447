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

``beamsplitter_matrix`` is the only place that applies the grey-port
sign; it takes one reflectivity or an array of them. ``transfer_matrices``
is the only composer of single-photon transfer matrices: it applies those
blocks as row updates for a whole batch of reflectivity vectors, the
batched sensitivity sweep's path. ``compose_transfer_matrix`` is its
one-row case, the permanent oracle's path. Sparse evolution shares
neither, which keeps it an independent check on both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .fock import Occupation
from .postselect import DetectionPattern, _natural


def beamsplitter_matrix(reflectivity, grey_port: int) -> np.ndarray:
    """Real amplitude matrix of a beamsplitter, shape (..., 2, 2) for a
    reflectivity of shape (...) (a scalar gives one 2x2 matrix).

    ``grey_port`` is 0 or 1 and selects which diagonal entry carries
    -sqrt(reflectivity).
    """
    eta = np.asarray(reflectivity, dtype=float)
    inside = (eta >= 0.0) & (eta <= 1.0)
    if not inside.all():
        raise ValueError(f"reflectivity {eta[~inside][0]} outside [0, 1]")
    if grey_port not in (0, 1):
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
    reflection is sign-flipped. Construction refuses negative or non-integer
    modes, coinciding modes, another grey mode and a reflectivity outside
    [0, 1]; the ``Circuit`` checks that the modes exist.
    """

    mode_a: int
    mode_b: int
    reflectivity: float
    grey: int
    label: str = ""

    def __post_init__(self):
        for mode in (self.mode_a, self.mode_b, self.grey):
            if type(mode) is not int or mode < 0:  # a plain int skips the call
                _natural(mode, "mode")
        if self.mode_a == self.mode_b:
            raise ValueError(f"modes coincide ({self.mode_a})")
        if self.grey not in (self.mode_a, self.mode_b):
            raise ValueError(f"grey mode {self.grey} is not one of its modes")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError(f"reflectivity {self.reflectivity} outside [0, 1]")

    def grey_port(self) -> int:
        """0 or 1: which of the two modes is grey."""
        return 0 if self.grey == self.mode_a else 1


@dataclass(frozen=True)
class Circuit:
    """An ordered sequence of beamsplitters over ``n_modes`` labeled modes.

    ``ancilla_prep`` maps ancilla mode index -> photons fed in (zero
    entries mark vacuum ancillas that are still ancillas, not user
    inputs). ``detection`` is the heralding pattern for postselected
    gates. ``cuts`` names inspection points: ``cuts[name] = k`` means the
    state after the first k elements. Construction raises one ValueError
    that lists every way the parts do not fit together, joined by "; ",
    after refusing alone a count, mode or cut that is not an integer.
    """

    n_modes: int
    labels: tuple[str, ...]
    elements: tuple[Beamsplitter, ...]
    ancilla_prep: dict[int, int] = field(default_factory=dict)
    detection: DetectionPattern | None = None
    cuts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        # as in Beamsplitter, a plain int skips the call and formats no message
        n = self.n_modes
        if type(n) is not int:
            _natural(n, "n_modes")
        for m, k in self.ancilla_prep.items():
            if type(m) is not int or type(k) is not int:
                _natural(m, "ancilla prep mode")
                _natural(k, f"ancilla prep count on mode {m!r}")
        for name, k in self.cuts.items():
            if type(k) is not int:
                _natural(k, f"cut {name!r}")
        issues: list[str] = []
        if n < 1:
            issues.append(f"n_modes must be >= 1, got {n}")
        if len(self.labels) != n:
            issues.append(f"{len(self.labels)} labels for {n} modes")
        if len(set(self.labels)) != len(self.labels):
            issues.append("mode labels are not unique")
        for i, el in enumerate(self.elements):
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
        for name, k in self.cuts.items():
            if k < 0 or k > len(self.elements):
                issues.append(f"cut {name!r} at {k} outside 0..{len(self.elements)}")
        if issues:
            raise ValueError("; ".join(issues))

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

    def first_elements(self, upto: int | None) -> tuple[Beamsplitter, ...]:
        """The first ``upto`` elements, all of them for None. An ``upto``
        outside 0..len(elements) raises rather than slicing from the end."""
        if upto is None:
            return self.elements
        if not 0 <= upto <= len(self.elements):
            raise ValueError(f"upto {upto} outside 0..{len(self.elements)}")
        return self.elements[:upto]


def transfer_matrices(circuit: Circuit, reflectivities) -> np.ndarray:
    """Real single-photon transfer matrices, shape (B, n, n), of
    ``circuit`` with its reflectivities replaced row by row from the
    (B, k) array ``reflectivities`` (column j for element j).

    Rows index outputs and columns inputs, so for elements applied in
    circuit order c1 then c2 each matrix is U(c2) @ U(c1): every element's
    block updates the two rows it mixes.
    """
    etas = np.asarray(reflectivities, dtype=float)
    k = len(circuit.elements)
    if etas.ndim != 2 or etas.shape[1] != k:
        raise ValueError(f"need a (B, {k}) reflectivity array, got shape {etas.shape}")
    n = circuit.n_modes
    u = np.broadcast_to(np.eye(n), (len(etas), n, n)).copy()
    # (B, k, 2, 2) blocks of every element for each grey port, built once
    blocks = [beamsplitter_matrix(etas, port)[..., None] for port in (0, 1)]
    for j, el in enumerate(circuit.elements):
        block = blocks[el.grey_port()][:, j]
        a, b = el.mode_a, el.mode_b
        row_a, row_b = u[:, a].copy(), u[:, b].copy()
        u[:, a] = block[:, 0, 0] * row_a + block[:, 0, 1] * row_b
        u[:, b] = block[:, 1, 0] * row_a + block[:, 1, 1] * row_b
    return u


def compose_transfer_matrix(circuit: Circuit, upto: int | None = None) -> np.ndarray:
    """Single-photon transfer matrix of the first ``upto`` elements.

    The one-row case of ``transfer_matrices`` at the circuit's own
    reflectivities. Returned complex even though every in-scope element
    is real.
    """
    prefix = Circuit(circuit.n_modes, circuit.labels, circuit.first_elements(upto))
    etas = [[el.reflectivity for el in prefix.elements]]
    return transfer_matrices(prefix, etas)[0].astype(complex)
