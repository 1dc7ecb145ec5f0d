import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayosc.analyzer import dominance_index
from relayosc.lti import (
    ImpulseResponse,
    PlantSpec,
    TruncationError,
    UnstablePlantError,
    _fold_table,
    check_monotone_decay,
    circulant,
    cyclic_shift,
    factor_delay,
    is_convex_on_support,
    loop_gain,
    loop_matrix,
    periodic_summation,
    relative_degree,
)

from conftest import (
    batch_table_cases,
    circulant_apply,
    direct_periodic_summation,
    exact_rational_fold,
    fold_error_bound,
    horizon,
    load_plant,
    reference_circulant,
    reference_periodic_summation,
    reference_rational_head,
    save_plant,
    time_limit,
)


def two_lags(k1=1.0, k2=0.5, p1=0.5, p2=0.2):
    """Sum of two first-order lags: k1*z/(z-p1) + k2*z/(z-p2)."""
    num = [k1 + k2, -(k1 * p2 + k2 * p1), 0.0]
    den = [1.0, -(p1 + p2), p1 * p2]
    return ImpulseResponse.from_rational(num, den)


class TestImpulseResponse:
    def test_rational_matches_geometric(self):
        g = ImpulseResponse.from_rational([1, 0], [1, -0.1])
        np.testing.assert_allclose(g.samples(30), 0.1 ** np.arange(30), rtol=1e-12)
        g9 = ImpulseResponse.from_rational([1, 0], [1, -0.9])
        np.testing.assert_allclose(g9.samples(50), 0.9 ** np.arange(50), rtol=1e-12)

    def test_unit_pulse(self):
        g = ImpulseResponse.from_rational([1], [1])
        np.testing.assert_array_equal(g.samples(5), [1, 0, 0, 0, 0])

    def test_two_lags_closed_form(self):
        g = two_lags()
        t = np.arange(40)
        np.testing.assert_allclose(g.samples(40), 0.5**t + 0.5 * 0.2**t, rtol=1e-10)

    def test_marginal_pole_rejected(self):
        with pytest.raises(UnstablePlantError):
            ImpulseResponse.from_rational([1, 0], [1, -1.0])

    def test_unstable_pole_rejected_with_radius(self):
        with pytest.raises(UnstablePlantError, match="1.5"):
            ImpulseResponse.from_rational([1, 0], [1, -1.5])

    def test_improper_rejected(self):
        with pytest.raises(ValueError, match="improper"):
            ImpulseResponse.from_rational([1, 0, 0], [1, -0.5])

    def test_geometric_domain(self):
        with pytest.raises(ValueError):
            ImpulseResponse.geometric(1.0)
        with pytest.raises(ValueError):
            ImpulseResponse.geometric(0.5, gain=0.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ImpulseResponse.geometric(0.5, float("inf")), "gain must be positive and finite"),
            (lambda: ImpulseResponse.geometric(0.5, float("nan")), "gain must be positive and finite"),
            (lambda: ImpulseResponse.from_rational([1.0, float("nan")], [1.0, -0.5]), "coefficients must be finite"),
            (lambda: ImpulseResponse.from_rational([1.0, 0.0], [1.0, float("-inf")]), "coefficients must be finite"),
            (lambda: ImpulseResponse.from_samples([1.0, float("inf")]), "samples must be finite"),
            (lambda: ImpulseResponse.from_dict({"kind": "samples", "values": [float("nan")]}), "samples must be finite"),
        ],
        ids=["inf-gain", "nan-gain", "nan-numerator", "inf-denominator", "inf-sample", "nan-sample-from-dict"],
    )
    def test_non_finite_responses_are_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_geometric_tail_exact(self):
        g = ImpulseResponse.geometric(0.25, gain=2.0)
        assert g.tail_bound(0) == pytest.approx(2.0 / 0.75)
        assert g.tail_bound(3) == pytest.approx(2.0 * 0.25**3 / 0.75)

    def test_samples_tail_exact(self):
        g = ImpulseResponse.from_samples([1.0, -2.0, 0.5])
        assert g.tail_bound(0) == pytest.approx(3.5)
        assert g.tail_bound(1) == pytest.approx(2.5)
        assert g.tail_bound(3) == 0.0
        assert g.tail_bound(99) == 0.0

    def test_rational_tail_is_an_upper_bound(self):
        g = two_lags()
        full = g.samples(4000)
        for t in (0, 1, 5, 20, 60):
            actual = np.sum(np.abs(full[t:]))
            assert g.tail_bound(t) >= actual

    def test_serialization_round_trip(self):
        for g in (
            ImpulseResponse.geometric(0.3, 2.0),
            two_lags(),
            ImpulseResponse.from_samples([0, 0, 1, 0.5]),
        ):
            h = ImpulseResponse.from_dict(g.to_dict())
            np.testing.assert_allclose(h.samples(20), g.samples(20), rtol=1e-14)

    def test_sample_reads_the_finite_support(self):
        g = ImpulseResponse.from_samples([1.0, -2.0, 0.5])
        window = g.samples(6)
        assert [g.sample(t) for t in range(-2, 6)] == [0.0, 0.0, *window]
        assert g.sample(10**9) == 0.0

    def test_horizon_past_the_cap_is_loud(self):
        # the tail bound is closed-form at once; reaching 1e-12 would take about 4e7 samples
        g = ImpulseResponse.from_rational([1, 0], [1, -0.999999])
        with time_limit(1.0):
            assert g.tail_bound(0) == pytest.approx(1e6, rel=1e-7)
            with pytest.raises(TruncationError):
                horizon(g, 1e-12)


@st.composite
def rational_responses(draw):
    """A stable rational response of order 1-4 with any relative degree, or its delay-factored core."""
    order = draw(st.integers(1, 4))
    poles = draw(st.lists(st.floats(-0.95, 0.95), min_size=order, max_size=order))
    degree = draw(st.integers(0, order))
    coeff = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3)
    num = draw(st.lists(coeff, min_size=order + 1 - degree, max_size=order + 1 - degree))
    if degree and draw(st.booleans()):
        # the core's numerator carries ``degree`` appended zeros
        num[0] = abs(num[0])
        return factor_delay(ImpulseResponse.from_rational(num, np.poly(poles)))[1]
    return ImpulseResponse.from_rational(num, np.poly(poles))


requests = st.lists(
    st.one_of(
        st.tuples(st.just("samples"), st.integers(0, 2600)),
        st.tuples(st.just("sample"), st.integers(-2, 2600)),
    ),
    min_size=1,
    max_size=8,
)


@st.composite
def closed_form_responses(draw):
    """A rational response: any of :func:`rational_responses`, or a slow pole in 0.99-0.9999 beside
    a faster one, a double pole, or a complex pair, each over a random second-order numerator."""
    kind = draw(st.sampled_from(["any", "slow", "double", "complex"]))
    if kind == "any":
        return draw(rational_responses())
    if kind == "slow":
        poles = [draw(st.floats(0.99, 0.9999)), draw(st.floats(-0.9, 0.9))]
    elif kind == "double":
        poles = [draw(st.floats(-0.95, 0.95))] * 2
    else:
        pole = draw(st.floats(0.1, 0.95)) * np.exp(1j * draw(st.floats(0.05, 3.1)))
        poles = [pole, np.conj(pole)]
    num = draw(st.lists(st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3), min_size=3, max_size=3))
    return ImpulseResponse.from_rational(num, np.real(np.poly(poles)))


class TestClosedForm:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(closed_form_responses(), st.lists(st.integers(0, 60), min_size=1, max_size=4))
    def test_tail_bound_covers_the_summed_tail(self, g, starts):
        # every float sample from start to 20 000 (4 000 unless a pole reaches 0.99), summed exactly
        samples = np.abs(g.samples(20_000 if np.abs(g.poles).max() >= 0.99 else 4_000)).tolist()
        tail, end = Fraction(0), len(samples)
        for start in sorted(starts, reverse=True):
            tail += sum(map(Fraction, samples[start:end]), Fraction(0))
            end = start
            assert Fraction(g.tail_bound(start)) >= tail, start
        assert np.array_equal(g.tail_bounds(starts), [g.tail_bound(t) for t in starts])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(closed_form_responses(), st.integers(1, 12))
    def test_fold_is_within_its_stated_bound_of_the_exact_fold(self, g, period):
        exact = exact_rational_fold(g.num.tolist(), g.den.tolist(), period)
        bound = fold_error_bound(g, period)
        for got, want, allowed in zip(periodic_summation(g, period).tolist(), exact, bound.tolist()):
            assert abs(Fraction(got) - want) <= Fraction(allowed)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ImpulseResponse.from_samples([1.7e308, 1e308]),
            lambda: ImpulseResponse.from_rational([1e308, 1e308], [1.0, -0.9]),
            lambda: periodic_summation(ImpulseResponse.from_rational([1e308, 0.0], [1.0, -0.5]), 3),
            lambda: ImpulseResponse.from_rational([1e308, 0.0], [1.0, -0.5]).tail_bound(5),
        ],
        ids=["samples", "rational-transient", "rational-fold", "rational-tail"],
    )
    def test_an_overflowing_absolute_sum_is_refused(self, build):
        # a ValueError where the sum is formed, before numpy warns (warnings are errors here)
        with pytest.raises(ValueError, match="absolute sum is not finite"):
            build()


class TestRationalSampleStream:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(rational_responses(), requests)
    def test_bitwise_equal_to_the_from_scratch_recurrence(self, g, calls):
        reference = reference_rational_head(g.num, g.den, 2601)
        for kind, n in calls:
            if kind == "samples":
                got = g.samples(n)
                assert np.array_equal(got.view(np.uint64), reference[:n].view(np.uint64))
            else:
                want = reference[n] if n >= 0 else 0.0
                assert np.float64(g.sample(n)).view(np.uint64) == np.float64(want).view(np.uint64)


class TestDelayFactoring:
    def test_degree_zero(self):
        assert relative_degree(ImpulseResponse.geometric(0.1)) == 0

    def test_rational_degree(self):
        g = ImpulseResponse.from_rational([1], [1, -0.5])
        assert relative_degree(g) == 1
        d, core = factor_delay(g)
        assert d == 1
        np.testing.assert_allclose(core.samples(10), 0.5 ** np.arange(10), rtol=1e-12)

    def test_delayed_pulse(self):
        d, core = factor_delay(ImpulseResponse.from_samples([0, 0, 0, 1]))
        assert d == 3
        np.testing.assert_array_equal(core.samples(3), [1, 0, 0])

    def test_long_delay(self):
        # z^{-9} z/(z-0.1) written as a degree-9 rational function
        den = np.zeros(10)
        den[0], den[1] = 1.0, -0.1
        g = ImpulseResponse.from_rational([1], den)
        d, core = factor_delay(g)
        assert (relative_degree(g), d) == (9, 9)
        np.testing.assert_allclose(core.samples(12), 0.1 ** np.arange(12), rtol=1e-10)

    def test_zero_response_rejected(self):
        with pytest.raises(ValueError):
            relative_degree(ImpulseResponse.from_samples([0.0, 0.0]))

    def test_negative_lead_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            factor_delay(ImpulseResponse.from_samples([0, -1.0, 0.5]))


class TestMonotoneDecay:
    def test_geometric_passes(self):
        v = check_monotone_decay(ImpulseResponse.geometric(0.1))
        assert v.passed and v.notes == ()

    def test_disconnected_support(self):
        v = check_monotone_decay(ImpulseResponse.from_samples([1, 0, 0.5]))
        assert not v.passed and not v.support_connected

    def test_non_strict(self):
        v = check_monotone_decay(ImpulseResponse.from_samples([1, 1, 0.5]))
        assert not v.passed and not v.strictly_decreasing

    def test_negative_sample(self):
        v = check_monotone_decay(ImpulseResponse.from_samples([1, -0.5]))
        assert not v.passed and not v.strictly_positive

    def test_two_lags_certified(self):
        v = check_monotone_decay(two_lags())
        assert v.passed and v.tail_certified

    def test_oscillatory_rational_not_certified(self):
        g = ImpulseResponse.from_rational([1, 0, 0], [1, -0.8, 0.52])
        v = check_monotone_decay(g)
        assert not v.passed
        assert not v.tail_certified

    @pytest.mark.parametrize(
        "values, failed",
        [([1, 0.5, 1e-14, 2e-14], "strictly_decreasing"), ([1, 0.5, 0, 1e-13], "support_connected")],
        ids=["rising", "gap"],
    )
    def test_a_finite_tail_below_1e_12_is_read(self, values, failed):
        v = check_monotone_decay(ImpulseResponse.from_samples(values))
        assert not v.passed and not getattr(v, failed)


class TestConvexity:
    def test_geometric(self):
        assert is_convex_on_support(ImpulseResponse.geometric(0.9))

    def test_concave_start(self):
        assert not is_convex_on_support(ImpulseResponse.from_samples([1, 0.9, 0.7, 0.4]))

    def test_unit_pulse(self):
        assert is_convex_on_support(ImpulseResponse.from_rational([1], [1]))

    def test_linear_ramp_boundary(self):
        assert is_convex_on_support(ImpulseResponse.from_samples([3, 2, 1]))

    def test_a_finite_tail_below_1e_12_is_read(self):
        assert not is_convex_on_support(ImpulseResponse.from_samples([1, 0.5, 0.4, 1e-13, 9e-14]))


@st.composite
def scaled_pairs(draw):
    """(a geometric or finite falling response, the same response scaled by 2^k, k in [-60, 60])."""
    scale = 2.0 ** draw(st.integers(-60, 60))
    if draw(st.booleans()):
        ratio = draw(st.floats(0.05, 0.99))
        return ImpulseResponse.geometric(ratio), ImpulseResponse.geometric(ratio, scale)
    values = sorted(draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=10)), reverse=True)
    return ImpulseResponse.from_samples(values), ImpulseResponse.from_samples(np.multiply(values, scale))


class TestScaleInvariance:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(scaled_pairs())
    def test_scaling_by_a_power_of_two_changes_no_verdict(self, pair):
        # the period window depends on the shape of the response, not on its gain
        g, scaled = pair
        for verdict in (dominance_index, is_convex_on_support, lambda h: check_monotone_decay(h).passed):
            assert verdict(scaled) == verdict(g)


class TestPeriodicSummation:
    def test_geometric_closed_form_vs_direct(self):
        g = ImpulseResponse.geometric(0.1)
        ps = periodic_summation(g, 6)
        direct = direct_periodic_summation(g.sample, 6, terms=50)
        np.testing.assert_allclose(ps, direct, rtol=1e-12)
        np.testing.assert_allclose(ps, 0.1 ** np.arange(6) / (1 - 1e-6), rtol=1e-13)

    def test_unit_pulse(self):
        ps = periodic_summation(ImpulseResponse.from_samples([1.0]), 4)
        np.testing.assert_array_equal(ps, [1, 0, 0, 0])

    def test_slow_geometric(self):
        ps = periodic_summation(ImpulseResponse.geometric(0.9), 2)
        np.testing.assert_allclose(ps, np.array([1.0, 0.9]) / (1 - 0.81), rtol=1e-14)
        np.testing.assert_allclose(ps, [5.2632, 4.7368], atol=5e-5)

    def test_rational_matches_geometric(self):
        # a simple pole folds as b c^i / (1 - c^P), the geometric formula itself
        a = periodic_summation(ImpulseResponse.from_rational([1, 0], [1, -0.3]), 5)
        b = periodic_summation(ImpulseResponse.geometric(0.3), 5)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_truncation_failure_is_loud(self):
        # z/(z - 0.999999) folds in closed form at once; the loud path left is a horizon past the cap
        g = ImpulseResponse.from_rational([1, 0], [1, -0.999999])
        with time_limit(1.0):
            np.testing.assert_allclose(periodic_summation(g, 3), 0.999999 ** np.arange(3) / (1 - 0.999999**3), rtol=1e-9)
            with pytest.raises(TruncationError):
                horizon(g, 1e-14)

    def test_folded_kernel_positive_and_decreasing(self):
        # the property every fixed-point argument leans on
        for g in (
            ImpulseResponse.geometric(0.1),
            ImpulseResponse.geometric(0.9),
            two_lags(),
        ):
            assert check_monotone_decay(g).passed
            for period in (2, 3, 7, 12):
                vals = periodic_summation(g, period)
                assert np.all(vals > 0)
                assert np.all(np.diff(vals) < 0)

    def test_fast_kernel_leading_product_entry(self):
        # first entry of the folded-kernel circulant against the
        # half-and-half pattern, the scalar behind the threshold example
        gb = periodic_summation(ImpulseResponse.geometric(0.1), 6)
        first = circulant_apply(gb, np.array([1.0, 1, 1, -1, -1, -1]))[0]
        assert first == pytest.approx(0.88911, abs=5e-6)


class TestFoldTable:
    def test_every_row_is_the_fold_at_its_period_alone(self):
        # bit for bit (-0.0 apart from 0.0 too), in tables of any width
        for g, periods in batch_table_cases():
            table = _fold_table(g, periods)
            assert table.shape == (len(periods), periods[-1])
            for row, period in zip(table, periods):
                assert row[:period].tobytes() == reference_periodic_summation(g, period).tobytes(), (g, period)
            assert periodic_summation(g, periods[-1]).tobytes() == table[-1].tobytes()


class TestCirculant:
    def test_the_strided_copy_is_the_index_gather(self, rng):
        # the same entries as the n x n index gather, and C-contiguous, so K @ s keeps BLAS's order and its bits
        for n in range(1, 302):
            v, s = rng.normal(size=n), rng.choice([-1.0, 0.0, 1.0], size=n)
            K = circulant(v)
            assert K.flags.c_contiguous
            assert K.tobytes() == reference_circulant(v).tobytes()
            assert (K @ s).tobytes() == (reference_circulant(v) @ s).tobytes()
        assert circulant([]).shape == (0, 0)

    def test_identity_generator(self, rng):
        w = rng.normal(size=7)
        np.testing.assert_allclose(circulant_apply(np.eye(7)[0], w), w, rtol=1e-15)

    def test_first_column_is_generator(self, rng):
        v = rng.normal(size=5)
        np.testing.assert_array_equal(circulant(v)[:, 0], v)

    def test_commutation(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 12))
            v, w = rng.normal(size=n), rng.normal(size=n)
            np.testing.assert_allclose(
                circulant_apply(v, w), circulant_apply(w, v), rtol=1e-12, atol=1e-12
            )

    def test_shift_algebra(self, rng):
        v = rng.normal(size=6)
        np.testing.assert_array_equal(cyclic_shift(v, 8), cyclic_shift(v, 2))
        np.testing.assert_array_equal(cyclic_shift(v, 6), v)
        np.testing.assert_array_equal(cyclic_shift([1.0, 2.0, 3.0], 1), [3.0, 1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            circulant_apply([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_double_sum_convolution_consistency(self, rng):
        # y(t) = sum_j u(j) * gbar(t - j) with gbar the two-sided fold
        g = ImpulseResponse.geometric(0.5)
        period = 4
        u = rng.normal(size=period)
        gb = periodic_summation(g, period)
        y = circulant_apply(gb, u)
        for t in range(period):
            acc = 0.0
            for j in range(period):
                acc += u[j] * sum(g.sample(t - j + m * period) for m in range(-2, 60))
            assert y[t] == pytest.approx(acc, rel=1e-12)


class TestPlantSpec:
    def test_validation(self):
        g = ImpulseResponse.geometric(0.1)
        with pytest.raises(ValueError):
            PlantSpec(g, -1)
        with pytest.raises(ValueError):
            PlantSpec(g, 0, -0.5)
        with pytest.raises(ValueError):
            PlantSpec(ImpulseResponse.from_samples([0, 1.0]), 0)

    def test_from_response_factors_delay(self):
        plant = PlantSpec.from_response(
            ImpulseResponse.from_rational([1], [1, -0.9]), delay=3, dead_zone=0.2
        )
        assert plant.delay == 4  # 3 requested + 1 from the relative degree
        assert plant.g0.sample(0) == pytest.approx(1.0)

    def test_json_round_trip(self, tmp_path):
        plant = PlantSpec(ImpulseResponse.geometric(0.1), 9, 0.8)
        path = tmp_path / "plant.json"
        save_plant(plant, path)
        loaded = load_plant(path)
        assert loaded.delay == 9 and loaded.dead_zone == 0.8
        np.testing.assert_allclose(loaded.g0.samples(10), plant.g0.samples(10))
        spec = json.loads(path.read_text())
        assert set(spec) == {"version", "plant", "delay", "dead_zone"}

    def test_bad_version(self):
        with pytest.raises(ValueError):
            PlantSpec.from_dict({"version": 99, "plant": {"kind": "geometric", "ratio": 0.5}})


class TestLoopGain:
    def test_zero_pattern(self):
        plant = PlantSpec(ImpulseResponse.geometric(0.1), 2)
        np.testing.assert_array_equal(loop_gain(plant, [0, 0, 0, 0]), np.zeros(4))

    def test_two_by_two_hand_case(self):
        plant = PlantSpec(ImpulseResponse.geometric(0.1), 0)
        u = loop_gain(plant, [1, -1])
        expected = (1.0 - 0.1) / (1 - 0.01)  # (gbar_1 - gbar_2)
        np.testing.assert_allclose(u, [-expected, expected], rtol=1e-14)

    def test_delay_reduces_modulo_period(self):
        g = ImpulseResponse.geometric(0.1)
        u9 = loop_gain(PlantSpec(g, 9), [1, 1, 1, -1, -1, -1])
        u3 = loop_gain(PlantSpec(g, 3), [1, 1, 1, -1, -1, -1])
        np.testing.assert_array_equal(u9, u3)

    def test_folded_kernel_equivalence(self, rng):
        # shifting the output equals generating with the shifted kernel
        g = ImpulseResponse.geometric(0.4)
        for _ in range(20):
            period = int(rng.integers(2, 10))
            delay = int(rng.integers(0, 15))
            s = rng.integers(-1, 2, size=period).astype(float)
            plant = PlantSpec(g, delay)
            gb = periodic_summation(g, period)
            folded = -circulant_apply(cyclic_shift(gb, delay % period), s)
            np.testing.assert_allclose(loop_gain(plant, s), folded, rtol=1e-13, atol=1e-15)

    def test_loop_matrix_entries_from_definition(self, rng):
        # K[i, j] = -gbar((i - delay - j) mod P) with gbar folded term by term
        g = ImpulseResponse.from_rational([1, 0], [1, -0.3])
        for period, delay in ((2, 0), (5, 3), (7, 11)):
            gbar = direct_periodic_summation(g.sample, period, terms=80)
            i, j = np.indices((period, period))
            expected = -gbar[(i - delay - j) % period]
            K = loop_matrix(PlantSpec(g, delay), period)
            np.testing.assert_allclose(K, expected, rtol=1e-13, atol=1e-15)
            s = rng.integers(-1, 2, size=period).astype(float)
            np.testing.assert_array_equal(loop_gain(PlantSpec(g, delay), s), K @ s)

    def test_bad_pattern_entries(self):
        plant = PlantSpec(ImpulseResponse.geometric(0.1), 1)
        with pytest.raises(ValueError):
            loop_gain(plant, [1, 2])
