"""State evolution through beamsplitter circuits, and an independent
permanent-based amplitude oracle used to cross-check it.

The two computations share no code beyond the transfer matrix itself:
``evolve`` pushes the sparse state through the circuit element by
element, while ``oracle_amplitude`` evaluates a single matrix permanent.
Agreement between them is part of the test suite's safety net.

``evolve`` is the path of truth tables, moments, Bell states and interior
cuts. The sensitivity sweep in ``loqc.verify`` uses its own batched
permanent engine for every perturbation and calls ``evolve`` only to
check the perturbations at its worst error. ``permanent`` and
``oracle_amplitude`` are on neither path: they are the reference that
``verify.heisenberg_consistency`` and the tests compare both against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elements import Circuit, beamsplitter_matrix
from .fock import FockStateVector, Occupation

# Largest photon total the simulator accepts. The gates under study use
# at most four photons; larger sectors would silently explode the sparse
# dictionaries, so they are rejected instead.
MAX_PHOTONS = 4

_FACT = [math.factorial(k) for k in range(MAX_PHOTONS + 3)]


# Bounded because it is keyed by float reflectivity: a long random sweep
# would otherwise grow it without limit. One pass of a sweep, or of every
# CLI command, fills fewer than 60 entries.
@lru_cache(maxsize=1024)
def _pair_transition(
    reflectivity: float, grey_port: int, n: int, m: int
) -> tuple[tuple[int, float], ...]:
    """Amplitudes for (n, m) photons entering a beamsplitter.

    Returns ((n_out, coeff), ...) with m_out = n + m - n_out. The
    coefficient collects the binomial routing of each photon through the
    2x2 creation-operator substitution together with the bosonic
    sqrt(n!) normalization factors; forgetting those factors is the
    classic error in multiphoton interference, so they live here in one
    place.
    """
    mat = beamsplitter_matrix(reflectivity, grey_port)
    a_stay, a_cross = mat[0, 0], mat[1, 0]
    b_cross, b_stay = mat[0, 1], mat[1, 1]
    total = n + m
    sums: dict[int, float] = {}
    for p in range(n + 1):
        for q in range(m + 1):
            w = (
                math.comb(n, p)
                * math.comb(m, q)
                * a_stay**p
                * a_cross ** (n - p)
                * b_cross**q
                * b_stay ** (m - q)
            )
            sums[p + q] = sums.get(p + q, 0.0) + w
    out = []
    for n_out, w in sums.items():
        m_out = total - n_out
        coeff = w * math.sqrt(_FACT[n_out] * _FACT[m_out] / (_FACT[n] * _FACT[m]))
        out.append((n_out, coeff))
    return tuple(sorted(out))


def apply_element(state: FockStateVector, element) -> FockStateVector:
    """Apply one beamsplitter to a state, redistributing its two modes."""
    a, b = element.mode_a, element.mode_b
    for mode in (a, b):
        if mode < 0 or mode >= state.n_modes:
            raise ValueError(
                f"element mode {mode} outside 0..{state.n_modes - 1}"
            )
    eta = element.reflectivity
    grey_port = element.grey_port()
    new_amps: dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        n, m = occ[a], occ[b]
        for n_out, coeff in _pair_transition(eta, grey_port, n, m):
            new_occ = list(occ)
            new_occ[a] = n_out
            new_occ[b] = n + m - n_out
            key = tuple(new_occ)
            new_amps[key] = new_amps.get(key, 0j) + amp * coeff
    return FockStateVector._trusted(state.n_modes, state.total_photons, new_amps)


def evolve(
    state: FockStateVector, circuit: Circuit, upto: int | None = None
) -> FockStateVector:
    """Push ``state`` through the first ``upto`` elements (all by default)."""
    if state.n_modes != circuit.n_modes:
        raise ValueError(
            f"state has {state.n_modes} modes, circuit {circuit.n_modes}"
        )
    if state.total_photons > MAX_PHOTONS:
        raise ValueError(
            f"{state.total_photons} photons exceeds the supported maximum "
            f"of {MAX_PHOTONS}"
        )
    for el in circuit.elements[:upto]:
        state = apply_element(state, el)
    return state


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square matrix, by direct expansion (size <= 6)."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {m.shape}")
    k = m.shape[0]
    if k > 6:
        raise ValueError(f"permanent supports size <= 6, got {k}")
    if k == 0:
        return 1.0 + 0j
    rows = range(k)
    total = 0j
    for cols in itertools.permutations(rows):
        term = 1.0 + 0j
        for r, c in zip(rows, cols):
            term *= m[r, c]
        total += term
    return total


@dataclass(frozen=True)
class AmplitudeQuery:
    """One transition amplitude question: <output| circuit |input>."""

    transfer: np.ndarray
    input_occ: Occupation
    output_occ: Occupation


def oracle_amplitude(query: AmplitudeQuery) -> complex:
    """Transition amplitude from the transfer matrix alone.

    Builds the submatrix whose columns repeat input modes by occupation
    and rows repeat output modes, then evaluates
    per(U_sub) / sqrt(prod(in_i!) * prod(out_j!)). Deliberately
    independent of the element-by-element evolution.
    """
    u = np.asarray(query.transfer)
    n = u.shape[0]
    inp = tuple(query.input_occ)
    out = tuple(query.output_occ)
    if len(inp) != n or len(out) != n:
        raise ValueError(
            f"occupations must have {n} modes, got {len(inp)} and {len(out)}"
        )
    if sum(inp) != sum(out):
        raise ValueError(
            f"photon number not conserved: {sum(inp)} in, {sum(out)} out"
        )
    if sum(inp) > MAX_PHOTONS:
        raise ValueError(
            f"{sum(inp)} photons exceeds the supported maximum of {MAX_PHOTONS}"
        )
    cols = [j for j in range(n) for _ in range(inp[j])]
    rows = [i for i in range(n) for _ in range(out[i])]
    sub = u[np.ix_(rows, cols)]
    norm = 1.0
    for k in inp:
        norm *= _FACT[k]
    for k in out:
        norm *= _FACT[k]
    return complex(permanent(sub)) / math.sqrt(norm)
