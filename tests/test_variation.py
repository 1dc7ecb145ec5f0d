import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayosc.variation import (
    _flags,
    cyclic_diff,
    cyclic_sign_changes,
    is_periodically_unimodal,
    is_sign_symmetric,
    max_cyclic_sign_changes,
    max_sign_changes,
    relay,
    relay_vec,
    sign_changes,
    sign_counts,
)

from conftest import (
    brute_max_cyclic_sign_changes,
    brute_max_sign_changes,
    is_periodically_unimodal_direct,
    is_periodically_unimodal_levelsets,
    reference_cyclic_sign_changes,
    reference_flags,
    reference_max_cyclic_sign_changes,
    reference_max_sign_changes,
    reference_sign_changes,
    wrapped_rotation_count,
)

# the single-peaked 13-sample sequence used in several checks below
HUMP13 = [0, 0.2, 0.25, 0.5, 0.87, 0.75, 0.65, 0.53, 0.52, 0.47, 0.3, 0.1, 0.08]


class TestCyclicDiff:
    def test_basic(self):
        np.testing.assert_allclose(cyclic_diff([1, 2, 3]), [1, 1, -2])

    def test_constant_maps_to_zero(self):
        np.testing.assert_array_equal(cyclic_diff([4.5] * 6), np.zeros(6))

    def test_sums_to_zero(self, rng):
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 15))
            assert abs(cyclic_diff(v).sum()) < 1e-12

    def test_hump_has_two_alternations(self):
        assert cyclic_sign_changes(cyclic_diff(HUMP13)) == 2


class TestSignChanges:
    def test_zero_skipped(self):
        assert sign_changes([1, 0, 3]) == 0

    def test_zero_vector_convention(self):
        assert sign_changes([0, 0, 0]) == -1

    def test_maximal_alternation(self):
        assert sign_changes([1, -1, 1, -1]) == 3

    def test_scalar(self):
        assert sign_changes([7.0]) == 0


class TestMaxSignChanges:
    def test_adversarial_zero(self):
        assert max_sign_changes([1, 0, 3]) == 2

    def test_no_zeros_equals_plain(self):
        assert max_sign_changes([1, -1]) == sign_changes([1, -1]) == 1

    def test_all_zero(self):
        assert max_sign_changes([0, 0, 0]) == 2

    def test_matches_exhaustive_small(self, rng):
        for _ in range(400):
            n = int(rng.integers(1, 9))
            v = rng.integers(-1, 2, size=n).astype(float)
            assert max_sign_changes(v) == brute_max_sign_changes(v)

    def test_matches_exhaustive_length_12(self, rng):
        for _ in range(60):
            v = rng.integers(-1, 2, size=12).astype(float)
            assert max_sign_changes(v) == brute_max_sign_changes(v)

    def test_at_least_plain(self, rng):
        for _ in range(300):
            v = rng.integers(-2, 3, size=rng.integers(1, 12)).astype(float)
            assert max_sign_changes(v) >= sign_changes(v)


class TestCyclicCounts:
    def test_one_updown_pair(self):
        assert cyclic_sign_changes([1, 1, -1, -1]) == 2

    def test_full_alternation(self):
        assert cyclic_sign_changes([1, -1, 1, -1]) == 4

    def test_zero_vector(self):
        assert cyclic_sign_changes([0, 0]) == -1

    def test_matches_wrapped_rotation_definition(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 12))
            v = rng.integers(-2, 3, size=n).astype(float)
            assert cyclic_sign_changes(v) == wrapped_rotation_count(v)

    def test_resolved_zeros_match_exhaustive(self, rng):
        for _ in range(400):
            n = int(rng.integers(1, 9))
            v = rng.integers(-1, 2, size=n).astype(float)
            assert max_cyclic_sign_changes(v) == brute_max_cyclic_sign_changes(v)

    def test_single_peaked_patterns_have_value_two(self):
        for pat in ([1, 1, 0, -1, -1, 0], [1, 0, -1], [1, -1, 0], [1, 1, -1]):
            assert max_cyclic_sign_changes(np.array(pat, float)) == 2

    def test_all_zero_resolved(self):
        assert max_cyclic_sign_changes([0.0, 0, 0, 0]) == 4
        assert max_cyclic_sign_changes([0.0, 0, 0]) == 2


@st.composite
def waveforms(draw):
    """A finite vector of 1-24 entries: zeros of both signs, and constant or repeating runs, often."""
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-1e3, 1e3))
    shape = draw(st.sampled_from(["free", "constant", "repeating"]))
    if shape == "constant":
        return np.full(draw(st.integers(1, 24)), draw(entry))
    if shape == "repeating":
        block = draw(st.lists(entry, min_size=1, max_size=6))
        return np.array(block * draw(st.integers(1, 24 // len(block))))
    return np.array(draw(st.lists(entry, min_size=1, max_size=24)))


class TestFlags:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(waveforms(), st.one_of(st.just(0.0), st.floats(0.0, 2.0)), st.booleans(), st.data())
    def test_equal_to_the_numpy_counts(self, u, dead_zone, own_pattern, data):
        # the waveform's relay image (zeros where the dead zone is wide), or a free pattern with or without zeros
        if own_pattern:
            pattern = relay_vec(u, dead_zone)
        else:
            values = data.draw(st.sampled_from([[-1, 1], [-1, 0, 1]]))
            pattern = np.array(data.draw(st.lists(st.sampled_from(values), min_size=u.size, max_size=u.size)), np.int8)
        assert _flags(u, pattern) == reference_flags(u, pattern)
        for v in (u, pattern):
            assert sign_changes(v) == reference_sign_changes(v)
            assert max_sign_changes(v) == reference_max_sign_changes(v)
            assert cyclic_sign_changes(v) == reference_cyclic_sign_changes(v)
            assert max_cyclic_sign_changes(v) == reference_max_cyclic_sign_changes(v)
            assert is_sign_symmetric(v) == (np.count_nonzero(v > 0) == np.count_nonzero(v < 0))
            assert sign_counts(v)[:2] == (np.count_nonzero(v > 0), np.count_nonzero(v < 0))

    def test_a_matrix_is_refused(self):
        with pytest.raises(ValueError, match="1-D"):
            _flags(np.zeros((2, 2)), np.zeros((2, 2), np.int8))


class TestRelay:
    def test_inside_dead_zone(self):
        assert relay(0.5, 0.8) == 0

    def test_above_threshold(self):
        assert relay(0.9, 0.8) == 1

    def test_boundary_maps_to_zero(self):
        assert relay(-0.8, 0.8) == 0
        assert relay(0.8, 0.8) == 0

    def test_negative_dead_zone_rejected(self):
        with pytest.raises(ValueError):
            relay(1.0, -0.1)
        with pytest.raises(ValueError):
            relay_vec([1.0], -0.1)

    def test_nan_dead_zone_rejected(self):
        # NaN compares false with everything, so it would relay every entry to 0
        for call in (lambda: relay(2.0, np.nan), lambda: relay_vec([2.0, -3.0, 0.1], np.nan)):
            with pytest.raises(ValueError, match="dead_zone must be nonnegative"):
                call()

    def test_relay_vec_needs_a_nonempty_array(self):
        with pytest.raises(ValueError):
            relay_vec([], 0.0)
        with pytest.raises(ValueError):
            relay_vec(0.5, 0.0)
        with pytest.raises(ValueError):
            relay_vec(np.zeros((0, 3)), 0.0)
        with pytest.raises(ValueError):
            relay_vec([1.0, np.nan], 0.0)
        np.testing.assert_array_equal(relay_vec([[0.5, -0.5], [0.1, 0.0]], 0.2), [[1, -1], [0, 0]])

    def test_vector_and_oddness(self, rng):
        for _ in range(100):
            v = rng.normal(size=8)
            dz = float(rng.uniform(0, 1))
            np.testing.assert_array_equal(relay_vec(-v, dz), -relay_vec(v, dz))


class TestSignCounts:
    def test_balanced(self):
        assert sign_counts([1, 1, -1, -1]) == (2, 2, 0)
        assert is_sign_symmetric([1, 1, -1, -1])

    def test_unbalanced(self):
        assert sign_counts([1, 1, 1, 0, -1, -1, 0]) == (3, 2, 2)
        assert not is_sign_symmetric([1, 1, 1, 0, -1, -1, 0])

    def test_sum_and_negation(self, rng):
        for _ in range(200):
            v = rng.integers(-2, 3, size=rng.integers(1, 10)).astype(float)
            pos, neg, zero = sign_counts(v)
            assert pos + neg + zero == v.size
            assert is_sign_symmetric(-v) == is_sign_symmetric(v)


class TestUnimodality:
    def test_hump(self):
        assert is_periodically_unimodal(HUMP13)

    def test_two_peaks(self):
        assert not is_periodically_unimodal([1, 2, 1, 2])

    def test_single_spike(self):
        assert is_periodically_unimodal([1, 1, 5, 1, 1])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            is_periodically_unimodal([0.0, 0.0])

    def test_constant_is_the_known_edge(self):
        # a constant is weakly monotone both ways but its difference
        # carries no alternations, so only the direct test accepts it
        assert is_periodically_unimodal_direct([3.0, 3.0, 3.0])
        assert not is_periodically_unimodal([3.0, 3.0, 3.0])
        assert is_periodically_unimodal_levelsets([3.0, 3.0, 3.0])

    def test_three_way_agreement_floats(self, rng):
        for _ in range(300):
            v = rng.normal(size=rng.integers(2, 16))
            a = is_periodically_unimodal(v)
            assert a == is_periodically_unimodal_direct(v)
            assert a == is_periodically_unimodal_levelsets(v)

    def test_three_way_agreement_with_ties(self, rng):
        done = 0
        while done < 300:
            v = rng.integers(0, 4, size=rng.integers(2, 10)).astype(float)
            if np.all(v == v[0]):
                continue
            done += 1
            a = is_periodically_unimodal(v)
            assert a == is_periodically_unimodal_direct(v)
            assert a == is_periodically_unimodal_levelsets(v)
