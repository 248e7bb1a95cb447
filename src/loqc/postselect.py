"""Detector-outcome conditioning.

A detection pattern combines per-mode exact photon counts (number-resolved
detectors and "no photon here" vetoes) with group constraints that fix the
total photon number across a set of modes without caring where inside the
group the photons land (a coincidence among detectors covering several
modes). Conditioning a state on a pattern yields the success probability,
the unnormalized reduced state on the surviving modes, and the normalized
conditional state when the probability is nonzero. The CNOT's four-fold
coincidence (``verify.coincidence_pattern``) is the heralding pattern's
exact counts plus one group per qubit rail pair, so conditioning on it
keeps the same modes as heralding does.

Every mode, count and total here passes ``fock._natural``: a numpy integer
is stored as an ``int``, and a bool, float or negative number is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fock import FockStateVector, Occupation, _natural


@dataclass(frozen=True)
class DetectionPattern:
    """Exact counts per mode plus optional group-total constraints.

    ``exact`` maps mode index -> required photon count. ``groups`` is a
    sequence of (modes, total) pairs. A mode may appear in at most one
    constraint of either kind.
    """

    exact: dict[int, int] = field(default_factory=dict)
    groups: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self):
        exact = {
            _natural(m, "mode"): _natural(k, "count") for m, k in self.exact.items()
        }
        norm_groups = []
        seen: set[int] = set(exact)
        for modes, total in self.groups:
            modes = tuple(sorted(_natural(m, "mode") for m in modes))
            total = _natural(total, "group total")
            if len(set(modes)) != len(modes):
                raise ValueError(f"group {modes} repeats a mode")
            overlap = seen.intersection(modes)
            if overlap:
                raise ValueError(
                    f"modes {sorted(overlap)} appear in more than one constraint"
                )
            seen.update(modes)
            norm_groups.append((modes, total))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "groups", tuple(norm_groups))

    def matches(self, occ: Occupation) -> bool:
        """Whether a ket meets every exact count and group total."""
        for m, k in self.exact.items():
            if occ[m] != k:
                return False
        for modes, total in self.groups:
            if sum(occ[m] for m in modes) != total:
                return False
        return True

    def validate_for(self, n_modes: int) -> None:
        modes = [*self.exact, *(m for group, _ in self.groups for m in group)]
        bad = [m for m in modes if m >= n_modes]
        if bad:
            raise ValueError(
                f"detection pattern references modes {sorted(bad)} outside "
                f"0..{n_modes - 1}"
            )


@dataclass(frozen=True)
class ConditionalOutcome:
    """Result of conditioning a state on a detection pattern.

    ``probability`` is the total squared amplitude of the kept kets.
    ``reduced`` is the unnormalized state over the surviving modes (the
    modes not fixed by an exact constraint), and ``kept_modes`` lists
    their original indices in order. ``normalized`` is None exactly when
    the probability is zero; a zero-probability pattern is a legitimate
    value, not an error.
    """

    probability: float
    reduced: FockStateVector
    normalized: FockStateVector | None
    kept_modes: tuple[int, ...]


def condition(state: FockStateVector, pattern: DetectionPattern) -> ConditionalOutcome:
    """Project ``state`` onto a detector outcome and strip the measured modes."""
    pattern.validate_for(state.n_modes)
    kept_modes = tuple(
        m for m in range(state.n_modes) if m not in pattern.exact
    )
    reduced_total = state.total_photons - sum(pattern.exact.values())
    amps: dict[Occupation, complex] = {}
    probability = 0.0
    for occ, amp in state.amplitudes.items():
        if not pattern.matches(occ):
            continue
        reduced_occ = tuple(occ[m] for m in kept_modes)
        amps[reduced_occ] = amps.get(reduced_occ, 0j) + amp
        probability += abs(amp) ** 2
    reduced = FockStateVector._trusted(len(kept_modes), max(reduced_total, 0), amps)
    normalized = reduced.normalized() if probability > 0.0 else None
    return ConditionalOutcome(probability, reduced, normalized, kept_modes)


def coincidence_probability(
    state: FockStateVector, modes: tuple[int, int, int, int]
) -> float:
    """Probability of exactly one photon in each of four distinct modes.

    For states with at most one photon per counted mode this equals the
    fourth-order number-operator moment across the four detectors, which
    is the regime of every gate output in this package.
    """
    modes = tuple(_natural(m, "coincidence mode") for m in modes)
    if len(modes) != 4:
        raise ValueError(f"coincidence needs four modes, got {len(modes)}")
    if len(set(modes)) != len(modes):
        raise ValueError(f"coincidence modes {modes} must be distinct")
    bad = [m for m in modes if m >= state.n_modes]
    if bad:
        raise ValueError(
            f"coincidence modes {sorted(bad)} outside 0..{state.n_modes - 1}"
        )
    return sum(
        abs(amp) ** 2
        for occ, amp in state.amplitudes.items()
        if all(occ[m] == 1 for m in modes)
    )
