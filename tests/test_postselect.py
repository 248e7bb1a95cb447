"""Detection patterns and conditioning."""

import math

import numpy as np
import pytest

from conftest import random_state
from loqc.fock import basis_state, enumerate_basis, make_state
from loqc.postselect import DetectionPattern, coincidence_probability, condition

RNG = np.random.default_rng(777)


def test_pattern_rejects_conflicting_constraints():
    with pytest.raises(ValueError):
        DetectionPattern(exact={0: -1})
    with pytest.raises(ValueError):
        DetectionPattern(groups=(((0, 0), 1),))
    with pytest.raises(ValueError):
        DetectionPattern(groups=(((0, 1), -1),))
    with pytest.raises(ValueError):
        DetectionPattern(exact={0: 1}, groups=(((0, 1), 1),))
    with pytest.raises(ValueError):
        DetectionPattern(groups=(((0, 1), 1), ((1, 2), 0)))
    # floats and booleans are rejected, not truncated to integers
    for bad in (
        {"exact": {0: 1.7}},
        {"exact": {0.9: True}},
        {"exact": {0: True}},
        {"groups": (((0, 1.5), 1),)},
        {"groups": (((0, 1), 1.9),)},
        {"groups": (((0, 1), False),)},
    ):
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            DetectionPattern(**bad)
    p = DetectionPattern(exact={np.int64(3): np.int8(1)}, groups=(((np.int32(0), 1), 2),))
    assert p.exact == {3: 1} and p.groups == (((0, 1), 2),)


def test_pattern_modes_and_range_validation():
    p = DetectionPattern(exact={3: 1}, groups=(((0, 1), 2),))
    p.validate_for(4)
    with pytest.raises(ValueError):
        p.validate_for(3)
    group = DetectionPattern(groups=(((0, 4), 1),))
    with pytest.raises(ValueError, match=r"modes \[4\] outside 0\.\.3"):
        group.validate_for(4)


def test_condition_exact_counts():
    s = make_state(
        3,
        [
            ((1, 1, 0), 0.6),
            ((2, 0, 0), 0.8j),
        ],
    )
    out = condition(s, DetectionPattern(exact={1: 1}))
    assert out.kept_modes == (0, 2)
    assert out.probability == pytest.approx(0.36)
    assert out.reduced.n_modes == 2
    assert out.reduced.amplitude((1, 0)) == pytest.approx(0.6)
    assert out.normalized.amplitude((1, 0)) == pytest.approx(1.0)


def test_condition_zero_probability_is_legitimate():
    s = basis_state(2, (2, 0))
    out = condition(s, DetectionPattern(exact={0: 1}))
    assert out.probability == 0.0
    assert out.normalized is None
    assert out.reduced.amplitudes == {}


def test_condition_group_totals_keep_all_group_modes():
    s = make_state(
        4,
        [
            ((1, 1, 0, 0), 0.5),
            ((0, 2, 0, 0), 0.5),
            ((1, 0, 1, 0), 0.5),
            ((0, 1, 0, 1), 0.5),
        ],
    )
    pattern = DetectionPattern(exact={3: 0}, groups=(((0, 1), 2),))
    out = condition(s, pattern)
    assert out.kept_modes == (0, 1, 2)
    assert out.probability == pytest.approx(0.5)
    assert out.reduced.amplitude((1, 1, 0)) == pytest.approx(0.5)
    assert out.reduced.amplitude((0, 2, 0)) == pytest.approx(0.5)


def test_conditioning_completeness_over_exhaustive_patterns():
    state = random_state(RNG, 4, 2)
    total = 0.0
    for occ in enumerate_basis(4, 2):
        pattern = DetectionPattern(exact=dict(enumerate(occ)))
        total += condition(state, pattern).probability
    assert abs(total - 1.0) < 1e-12


def test_conditioning_completeness_partial_measurement():
    # measuring only two of four modes must also resolve unit probability
    state = random_state(RNG, 4, 2)
    total = 0.0
    for k0 in range(3):
        for k1 in range(3):
            pattern = DetectionPattern(exact={0: k0, 1: k1})
            total += condition(state, pattern).probability
    assert abs(total - 1.0) < 1e-12


def test_coincidence_probability_counts_single_occupancy_kets():
    s = make_state(
        4,
        [
            ((1, 1, 1, 1), 0.5),
            ((2, 1, 1, 0), 0.5),
            ((1, 1, 2, 0), math.sqrt(0.5)),
        ],
    )
    assert coincidence_probability(s, (0, 1, 2, 3)) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        coincidence_probability(s, (0, 1, 2, 2))
    with pytest.raises(ValueError):
        coincidence_probability(s, (0, 1, 2, 9))
    # a bool is not read as mode 1, nor a float as its integer part
    for modes in ((True, 2, 3, 0), (0, 1, 2, 3.0), (0, 1, 2, -1)):
        with pytest.raises(ValueError, match="coincidence mode must be a non-negative"):
            coincidence_probability(s, modes)
    # a two- or three-fold coincidence is not a four-fold one
    for modes in ((0, 1), (0, 1, 2)):
        with pytest.raises(ValueError, match=f"^coincidence needs four modes, got {len(modes)}$"):
            coincidence_probability(s, modes)


def test_matches_keeps_exactly_the_kets_condition_keeps():
    kept_any = dropped_any = False
    for _ in range(30):
        n = int(RNG.integers(3, 7))
        state = random_state(RNG, n, int(RNG.integers(1, 5)))
        modes = [int(m) for m in RNG.permutation(n)]
        n_exact = int(RNG.integers(1, n - 1))
        pattern = DetectionPattern(
            exact={m: int(RNG.integers(0, 3)) for m in modes[:n_exact]},
            groups=((tuple(modes[n_exact : n_exact + 2]), int(RNG.integers(0, 3))),),
        )
        outcome = condition(state, pattern)
        kept = [occ for occ in state.amplitudes if pattern.matches(occ)]
        reduced = {
            tuple(occ[m] for m in outcome.kept_modes): state.amplitudes[occ]
            for occ in kept
        }
        assert outcome.reduced.amplitudes == reduced
        assert outcome.probability == pytest.approx(
            sum(abs(state.amplitudes[occ]) ** 2 for occ in kept), abs=1e-15
        )
        kept_any |= bool(kept)
        dropped_any |= len(kept) < len(state.amplitudes)
    assert kept_any and dropped_any
