"""Sparse Fock-space state vectors for passive linear optics.

A state lives in a fixed sector: ``n_modes`` optical modes holding exactly
``total_photons`` photons in total. Basis kets are occupation tuples
(photons per mode, left to right) and amplitudes are stored sparsely,
keyed by occupation. Passive circuits never change the photon total, so
the sector is fixed once at construction.

Validation happens at the API boundary: the public constructor,
``make_state``, ``basis_state`` and scalar multiplication check every ket.
Library operations that derive a state from an already-valid one
(evolution, conditioning, normalization, addition) build it through the
trusted ``FockStateVector._trusted``, which only prunes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

Occupation = tuple[int, ...]

# Amplitudes below this magnitude are dropped after every operation.
# Every exact nonzero amplitude arising in the gates under study is
# larger than 0.02, so pruning only removes floating-point dust.
PRUNE_TOL = 1e-14


def enumerate_basis(n_modes: int, total_photons: int) -> list[Occupation]:
    """All occupations of ``total_photons`` over ``n_modes`` modes.

    Returned in lexicographically descending order, e.g. (2, 1) gives
    [(1, 0), (0, 1)]. The count is C(total_photons + n_modes - 1,
    n_modes - 1).
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if total_photons < 0:
        raise ValueError(f"total_photons must be >= 0, got {total_photons}")
    # ascending mode multisets are exactly the descending occupations
    out: list[Occupation] = []
    for photon_modes in itertools.combinations_with_replacement(
        range(n_modes), total_photons
    ):
        occ = [0] * n_modes
        for m in photon_modes:
            occ[m] += 1
        out.append(tuple(occ))
    return out


def _check_occupation(occ: Occupation, n_modes: int) -> None:
    if len(occ) != n_modes:
        raise ValueError(f"occupation {occ} has {len(occ)} modes, expected {n_modes}")
    # type, not isinstance: a bool is an int but not a photon count
    if any(type(k) is not int or k < 0 for k in occ):
        raise ValueError(f"occupation {occ} must hold non-negative integers")


@dataclass(frozen=True)
class FockStateVector:
    """Immutable sparse state in a fixed (n_modes, total_photons) sector.

    ``amplitudes`` maps occupation tuples to complex amplitudes. States
    produced by the library from normalized inputs always have squared
    norm in [0, 1 + 1e-12]; unnormalized intermediate values (for
    example postselection residues) are allowed and carry their weight
    in the amplitudes.
    """

    n_modes: int
    total_photons: int
    amplitudes: dict[Occupation, complex] = field(default_factory=dict)

    def __post_init__(self):
        pruned: dict[Occupation, complex] = {}
        for occ, amp in self.amplitudes.items():
            occ = tuple(occ)
            _check_occupation(occ, self.n_modes)
            if sum(occ) != self.total_photons:
                raise ValueError(
                    f"occupation {occ} has {sum(occ)} photons, expected "
                    f"{self.total_photons}"
                )
            amp = complex(amp)
            if abs(amp) > PRUNE_TOL:
                pruned[occ] = amp
        object.__setattr__(self, "amplitudes", pruned)

    @classmethod
    def _trusted(
        cls, n_modes: int, total_photons: int, amps: dict[Occupation, complex]
    ) -> "FockStateVector":
        """A state from kets the library derived from a valid state.

        The caller guarantees that every key is an occupation tuple of the
        (n_modes, total_photons) sector and every value a complex; only the
        ``PRUNE_TOL`` pruning of ``__post_init__`` is applied.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "n_modes", n_modes)
        object.__setattr__(state, "total_photons", total_photons)
        object.__setattr__(
            state,
            "amplitudes",
            {occ: amp for occ, amp in amps.items() if abs(amp) > PRUNE_TOL},
        )
        return state

    def amplitude(self, occ: Occupation) -> complex:
        return self.amplitudes.get(tuple(occ), 0j)

    @property
    def norm_sq(self) -> float:
        return sum((abs(a) ** 2 for a in self.amplitudes.values()), 0.0)

    def normalized(self) -> "FockStateVector":
        n = math.sqrt(self.norm_sq)
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return FockStateVector._trusted(
            self.n_modes,
            self.total_photons,
            {occ: a / n for occ, a in self.amplitudes.items()},
        )

    def sorted_items(self) -> list[tuple[Occupation, complex]]:
        """Amplitudes sorted by descending occupation, for stable output."""
        return sorted(self.amplitudes.items(), key=lambda kv: kv[0], reverse=True)

    def _require_same_sector(self, other: "FockStateVector") -> None:
        if (
            self.n_modes != other.n_modes
            or self.total_photons != other.total_photons
        ):
            raise ValueError(
                f"sectors differ: ({self.n_modes} modes, {self.total_photons} "
                f"photons) vs ({other.n_modes} modes, {other.total_photons} photons)"
            )

    def __add__(self, other: "FockStateVector") -> "FockStateVector":
        self._require_same_sector(other)
        amps = dict(self.amplitudes)
        for occ, a in other.amplitudes.items():
            amps[occ] = amps.get(occ, 0j) + a
        return FockStateVector._trusted(self.n_modes, self.total_photons, amps)

    def __sub__(self, other: "FockStateVector") -> "FockStateVector":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FockStateVector":
        return FockStateVector(
            self.n_modes,
            self.total_photons,
            {occ: scalar * a for occ, a in self.amplitudes.items()},
        )

    __rmul__ = __mul__


def make_state(
    n_modes: int, entries: list[tuple[Occupation, complex]]
) -> FockStateVector:
    """Build a state from (occupation, amplitude) pairs.

    All occupations must agree on mode count and photon total (the
    sector is taken from the first entry); repeated occupations are an
    error, and exactly-zero amplitudes are dropped.
    """
    if not entries:
        raise ValueError("need at least one (occupation, amplitude) entry")
    first = tuple(entries[0][0])
    _check_occupation(first, n_modes)
    total = sum(first)
    amps: dict[Occupation, complex] = {}
    for occ, amp in entries:
        occ = tuple(occ)
        if occ in amps:
            raise ValueError(f"occupation {occ} listed twice")
        amps[occ] = complex(amp)
    return FockStateVector(n_modes, total, amps)


def basis_state(n_modes: int, occ: Occupation) -> FockStateVector:
    return make_state(n_modes, [(tuple(occ), 1.0)])


def inner_product(a: FockStateVector, b: FockStateVector) -> complex:
    """Hermitian inner product <a|b>, conjugate-linear in the first argument."""
    a._require_same_sector(b)
    right = b.amplitudes
    return sum(
        (amp.conjugate() * right[occ] for occ, amp in a.amplitudes.items()
         if occ in right),
        0j,
    )
