import numpy as np
import pytest

from relayosc.certificates import open_loop_variation_check, variation_bounding_conditions
from relayosc.lti import ImpulseResponse, PlantSpec, circulant, periodic_summation
from relayosc.variation import cyclic_diff, cyclic_sign_changes

from conftest import (
    check_unimodal_preservation,
    column_cyclic_changes,
    column_cyclic_diff,
    random_unimodal_vector,
)


def exhaustive_low_variation_family(n: int) -> np.ndarray:
    """All vectors over {0,1,2}^n whose difference variation is <= 2, as columns.

    Contains every rotation of every 0/1 step vector and every
    single-peaked integer vector with entries in {0,1,2}.
    """
    from itertools import product

    cols = np.array(list(product([0.0, 1.0, 2.0], repeat=n))).T
    keep = column_cyclic_changes(column_cyclic_diff(cols)) <= 2
    return cols[:, keep]


def exhaustive_variation_bound(v: np.ndarray, family: np.ndarray) -> bool:
    """Directly test the output variation over the whole input family."""
    out = circulant(v) @ family
    return bool(np.all(column_cyclic_changes(column_cyclic_diff(out)) <= 2))


class TestVariationBoundingConditions:
    def test_plateau_step_generator_passes(self):
        v = np.array([1, 1, 1, 0, -1, -1, -1, 0], float)
        verdict = variation_bounding_conditions(v)
        assert verdict.passed and verdict.condition1 and verdict.condition2

    def test_folded_decaying_kernels_pass(self):
        for ratio in (0.1, 0.5, 0.9):
            for period in (4, 5, 8, 13):
                gb = periodic_summation(ImpulseResponse.geometric(ratio), period)
                assert variation_bounding_conditions(gb).passed

    def test_the_verdict_does_not_depend_on_the_scale(self):
        # every minor is judged against a bound relative to the generator's entries, so the verdict is
        # the same at any scale: exactly at a power of two, and for a failing minor well clear of its bound
        rng = np.random.default_rng(2)
        for _ in range(300):
            v = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(4, 12))))[::-1]
            verdict = variation_bounding_conditions(v)
            for k in (-30, -20, 0, 20):
                assert variation_bounding_conditions(v * 2.0**k) == verdict, (v, k)
        v = np.array([1, 0.5, 0.3, 0.1, 0.05])
        assert not variation_bounding_conditions(v).passed
        assert not variation_bounding_conditions(v * 1e-7).passed

    def test_alternating_generator_fails_with_witness(self):
        v = np.array([1, -1, 1, -1, 1, -1], float)
        verdict = variation_bounding_conditions(v)
        assert not verdict.passed and not verdict.condition1
        # and the failure is real: some low-variation input gets mangled
        probe = check_unimodal_preservation(v, trials=200, seed=5)
        assert not probe.ok and probe.counterexample is not None

    def test_short_vectors_unconditional(self):
        verdict = variation_bounding_conditions([5.0, -3.0, 2.0])
        assert verdict.passed and verdict.unconditional

    def test_agrees_with_exhaustive_family(self, rng):
        for n in (4, 5, 6):
            family = exhaustive_low_variation_family(n)
            for _ in range(150):
                v = rng.integers(-1, 3, size=n).astype(float)
                assert variation_bounding_conditions(v).passed == exhaustive_variation_bound(
                    v, family
                )

    def test_condition2_witness_index(self):
        # difference dips between two same-sign neighbours at the witness
        v = np.array([2.0, 0.0, 1.0, -1.0], float)
        verdict = variation_bounding_conditions(v)
        if not verdict.condition2:
            assert verdict.witness is not None


class TestPreservation:
    def test_generator_property(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 14))
            w = random_unimodal_vector(rng, n, integer=bool(rng.integers(0, 2)))
            assert cyclic_sign_changes(cyclic_diff(w)) <= 2

    def test_single_peaked_relay_images_preserve(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 10))
            peak = random_unimodal_vector(rng, n) * 3.0
            probe = check_unimodal_preservation(peak, trials=60, seed=int(rng.integers(1e6)))
            assert probe.ok, f"unexpected counterexample for {peak}"

    def test_small_lengths_vacuous(self, rng):
        for n in (2, 3):
            v = rng.normal(size=n)
            assert check_unimodal_preservation(v, trials=80, seed=3).ok

    def test_reproducible(self):
        v = np.array([1, -1, 1, -1, 1, -1], float)
        a = check_unimodal_preservation(v, trials=100, seed=11)
        b = check_unimodal_preservation(v, trials=100, seed=11)
        assert not a.ok and not b.ok
        np.testing.assert_array_equal(a.counterexample, b.counterexample)


def build_unimodal_waveform(pattern, dead_zone: float, rng) -> np.ndarray:
    """A single-peaked waveform whose relay image is exactly `pattern`.

    Ramps up through the positive run, dips inside the dead zone on the
    zero slots and mirrors through the negative run, then gets a random
    common rotation with the pattern already applied by the caller.
    """
    pattern = list(pattern)
    n = len(pattern)
    hi = dead_zone + 0.1 + rng.uniform(0.1, 1.0)
    out = np.zeros(n)
    pos = [i for i, s in enumerate(pattern) if s > 0]
    neg = [i for i, s in enumerate(pattern) if s < 0]
    zer = [i for i, s in enumerate(pattern) if s == 0]
    for rank, i in enumerate(pos):
        # rise then stay above the dead zone
        frac = 1.0 - abs((rank + 0.5) / len(pos) - 0.5)
        out[i] = dead_zone + 0.05 + (hi - dead_zone) * frac
    for rank, i in enumerate(neg):
        frac = 1.0 - abs((rank + 0.5) / len(neg) - 0.5)
        out[i] = -(dead_zone + 0.05 + (hi - dead_zone) * frac)
    for i in zer:
        out[i] = float(rng.uniform(-0.5, 0.5)) * dead_zone if dead_zone > 0 else 0.0
    return out


class TestOpenLoopVariation:
    def test_plateau_pattern_case(self, rng):
        plant = PlantSpec(ImpulseResponse.geometric(0.1), 0, 0.5)
        pattern = [1, 1, 1, 0, -1, -1, -1, 0]
        u = build_unimodal_waveform(pattern, 0.5, rng)
        report = open_loop_variation_check(plant, u)
        assert report.preconditions_ok, report.notes
        assert report.ok
        assert report.diff_variation <= 2 and report.level_variation <= 2

    def test_sign_symmetric_adds_resolved_bound(self, rng):
        plant = PlantSpec(ImpulseResponse.geometric(0.1), 0, 0.0)
        u = build_unimodal_waveform([1, 1, 1, 1, -1, -1, -1, -1], 0.0, rng)
        report = open_loop_variation_check(plant, u)
        assert report.sign_symmetric and report.resolved_variation is not None
        assert report.resolved_variation <= 2 and report.ok

    def test_constant_pattern_reported_not_thrown(self):
        # dyadic samples keep the row sums exact, so the response is an
        # exact constant and its difference carries no alternations
        plant = PlantSpec(ImpulseResponse.from_samples([1.0, 0.5, 0.25]), 0, 0.0)
        u = np.ones(6) * 2.0
        report = open_loop_variation_check(plant, u)
        assert not report.preconditions_ok
        assert report.diff_variation == -1
        assert report.ok

    def test_off_class_plant_flagged(self, rng):
        plant = PlantSpec(ImpulseResponse.from_samples([1.0, 0.0, 0.5]), 0, 0.0)
        u = build_unimodal_waveform([1, 1, -1, -1], 0.0, rng)
        report = open_loop_variation_check(plant, u)
        assert not report.preconditions_ok
        assert any("decaying" in note for note in report.notes)


class TestMinorCatalogue:
    CATALOGUE = [[[0, 0], [0, 0]], [[0, 1], [0, 0]], [[1, 1], [0, 1]], [[0, 0], [1, 0]], [[1, 0], [1, 1]]]

    def test_catalogued_determinants_nonnegative(self):
        # the ten listed submatrices (five forms and their negations)
        for m in self.CATALOGUE:
            arr = np.array(m, float)
            for sub in (arr, -arr):
                assert sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0] >= 0

    def test_plateau_pattern_minors(self):
        # every consecutive 2x2 minor of the circulant of the pattern's
        # cyclic difference is nonnegative; with runs of length >= 3 the
        # sign pairs are separated by at least two zeros and each window
        # matches one of the catalogued forms up to sign (shorter runs
        # add mixed-sign windows whose determinants are still >= 0)
        catalogue = set()
        for m in self.CATALOGUE:
            arr = np.array(m, float)
            catalogue.add(tuple(arr.ravel()))
            catalogue.add(tuple((-arr).ravel()))
        for n1, n2 in ((2, 2), (3, 2), (2, 4), (3, 3), (4, 3), (3, 5)):
            pattern = np.array([1] * n1 + [0] + [-1] * n2 + [0], float)
            h = circulant(cyclic_diff(pattern))
            n = h.shape[0]
            for i in range(n):
                for j in range(n):
                    sub = h[np.ix_([i, (i + 1) % n], [j, (j + 1) % n])]
                    det = sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
                    assert det >= 0
                    if min(n1, n2) >= 3:
                        assert tuple(sub.ravel()) in catalogue

    def test_all_shapes_consecutive_minors_nonnegative(self):
        shapes = [
            [1, 1, 1, -1, -1, -1],
            [1, 1, -1, -1, -1, 0],
            [1, 0, -1, -1, -1, -1],
            [1, 1, 1, 0, -1, 0],
        ]
        for pattern in shapes:
            d = cyclic_diff(np.array(pattern, float))
            vals = d**2 - np.roll(d, 1) * np.roll(d, -1)
            assert np.all(vals >= 0)


def test_preservation_probe_refuses_a_nan_dead_zone():
    with pytest.raises(ValueError, match="dead_zone must be nonnegative"):
        check_unimodal_preservation([2.0, -3.0, 0.1], dead_zone=float("nan"))
