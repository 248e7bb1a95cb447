"""Detector-outcome conditioning.

A detection pattern combines per-mode exact photon counts (number-resolved
detectors and "no photon here" vetoes) with group constraints that fix the
total photon number across a set of modes without caring where inside the
group the photons land (a coincidence among detectors covering several
modes). Conditioning a state on a pattern yields the success probability,
the unnormalized reduced state on the surviving modes, and the normalized
conditional state when the probability is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fock import FockStateVector, Occupation


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
        exact = {int(m): int(k) for m, k in self.exact.items()}
        if any(k < 0 for k in exact.values()):
            raise ValueError("exact photon counts must be non-negative")
        norm_groups = []
        seen: set[int] = set(exact)
        for modes, total in self.groups:
            modes = tuple(sorted(int(m) for m in modes))
            if int(total) < 0:
                raise ValueError("group totals must be non-negative")
            if len(set(modes)) != len(modes):
                raise ValueError(f"group {modes} repeats a mode")
            overlap = seen.intersection(modes)
            if overlap:
                raise ValueError(
                    f"modes {sorted(overlap)} appear in more than one constraint"
                )
            seen.update(modes)
            norm_groups.append((modes, int(total)))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "groups", tuple(norm_groups))

    def modes(self) -> set[int]:
        out = set(self.exact)
        for group_modes, _ in self.groups:
            out.update(group_modes)
        return out

    def validate_for(self, n_modes: int) -> None:
        bad = [m for m in self.modes() if m < 0 or m >= n_modes]
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
        if any(occ[m] != k for m, k in pattern.exact.items()):
            continue
        if any(
            sum(occ[m] for m in modes) != total for modes, total in pattern.groups
        ):
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
    if len(set(modes)) != len(modes):
        raise ValueError(f"coincidence modes {modes} must be distinct")
    bad = [m for m in modes if m < 0 or m >= state.n_modes]
    if bad:
        raise ValueError(
            f"coincidence modes {sorted(bad)} outside 0..{state.n_modes - 1}"
        )
    return sum(
        abs(amp) ** 2
        for occ, amp in state.amplitudes.items()
        if all(occ[m] == 1 for m in modes)
    )


def strip_empty_modes(
    state: FockStateVector, modes: tuple[int, ...]
) -> FockStateVector:
    """Drop modes that carry no photons in any ket of ``state``.

    Raises if any ket has a photon in one of the stripped modes; used to
    collapse spectator vacuum modes after conditioning.
    """
    drop = set(modes)
    for occ in state.amplitudes:
        occupied = [m for m in drop if occ[m] != 0]
        if occupied:
            raise ValueError(
                f"mode(s) {sorted(occupied)} are not empty in ket {occ}"
            )
    kept = [m for m in range(state.n_modes) if m not in drop]
    amps = {
        tuple(occ[m] for m in kept): amp for occ, amp in state.amplitudes.items()
    }
    return FockStateVector._trusted(len(kept), state.total_photons, amps)
