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

This bottom module is also the one home of the three input rules:
``_natural`` for every count (a numpy integer passes as an ``int``; a bool,
float or negative number is refused), ``_real`` for every real number and
``_amplitude`` for every amplitude given to the public constructor.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field

Occupation = tuple[int, ...]

# Amplitudes below this magnitude are dropped after every operation.
# Every exact nonzero amplitude arising in the gates under study is
# larger than 0.02, so pruning only removes floating-point dust.
PRUNE_TOL = 1e-14


def _natural(value, what: str) -> int:
    """A mode, count or total as an int, a numpy integer included; negative
    numbers, floats and booleans are refused, not coerced."""
    if type(value) is int and value >= 0:  # the common case
        return value
    if isinstance(value, bool) or not hasattr(value, "__index__") or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return operator.index(value)


def _real(value, what: str) -> None:
    """Refuse a boolean or a value that is not a real number, which a range
    check would read as 0 or 1 or fail on with a TypeError."""
    if type(value) is float:  # the common case
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")


def _amplitude(value, occ: Occupation | None) -> complex:
    """An amplitude (of ket ``occ``, or a scalar factor when ``occ`` is None)
    as a complex; a bool, a value that is not a number (a string, say) and a
    NaN or infinite one are refused, not coerced or pruned away."""
    number = type(value) is complex or (  # the common case skips the ABC check
        isinstance(value, numbers.Complex) and not isinstance(value, bool)
    )
    if not (number and math.isfinite(value.real) and math.isfinite(value.imag)):
        what = "scalar" if occ is None else f"amplitude of ket {occ}"
        raise ValueError(f"{what} must be a finite complex number, got {value!r}")
    return complex(value)


def enumerate_basis(n_modes: int, total_photons: int) -> list[Occupation]:
    """All occupations of ``total_photons`` over ``n_modes`` modes.

    Returned in lexicographically descending order, e.g. (2, 1) gives
    [(1, 0), (0, 1)]. The count is C(total_photons + n_modes - 1,
    n_modes - 1).
    """
    n_modes = _natural(n_modes, "n_modes")
    total_photons = _natural(total_photons, "total_photons")
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
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


def _check_occupation(occ, n_modes: int) -> Occupation:
    """``occ`` as a tuple of ``n_modes`` ints, each passing ``_natural``."""
    occ = tuple(occ)
    if len(occ) != n_modes:
        raise ValueError(f"occupation {occ} has {len(occ)} modes, expected {n_modes}")
    try:
        return tuple([_natural(k, "photon count") for k in occ])
    except ValueError:
        raise ValueError(f"occupation {occ} must hold non-negative integers") from None


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
        for name in ("n_modes", "total_photons"):
            object.__setattr__(self, name, _natural(getattr(self, name), name))
        pruned: dict[Occupation, complex] = {}
        for occ, amp in self.amplitudes.items():
            occ = _check_occupation(occ, self.n_modes)
            if sum(occ) != self.total_photons:
                raise ValueError(
                    f"occupation {occ} has {sum(occ)} photons, expected "
                    f"{self.total_photons}"
                )
            amp = _amplitude(amp, occ)
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
        _amplitude(scalar, None)  # a bool would pass as 0 or 1 once multiplied
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
    sector is taken from the first entry); repeated occupations and
    amplitudes that ``_amplitude`` refuses are an error, and exactly-zero
    amplitudes are dropped.
    """
    if not entries:
        raise ValueError("need at least one (occupation, amplitude) entry")
    total = sum(_check_occupation(entries[0][0], n_modes))
    amps: dict[Occupation, complex] = {}
    for occ, amp in entries:
        occ = tuple(occ)
        if occ in amps:
            raise ValueError(f"occupation {occ} listed twice")
        amps[occ] = amp
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
