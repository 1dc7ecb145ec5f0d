import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from relayosc import analyzer
from relayosc.analyzer import (
    _digit_table,
    _fixed_waveform,
    _run_shapes,
    _screen,
    brute_force_fixed_points,
    canonical_rotation,
    check_absence,
    dead_zone_threshold,
    default_pmax,
    dominance_index,
    enumerate_unimodal_patterns,
    exists_base_oscillation,
    find_oscillations,
    period_bounds,
    period_records,
    report_from_dict,
    subharmonic_periods,
    verify_fixed_point,
)
from relayosc.lti import ImpulseResponse, PlantSpec, TruncationError, loop_generator, loop_matrix
from relayosc.variation import max_cyclic_sign_changes, sign_counts

from conftest import (
    exact_geometric_fixed_point,
    reference_brute_force_fixed_points,
    reference_period_records,
    reference_unimodal_patterns,
    responses,
    time_limit,
)


def geometric_plant(ratio, delay, dead_zone=0.0):
    return PlantSpec(ImpulseResponse.geometric(ratio), delay, dead_zone)


def direct_dominance_index(ratio: float) -> int:
    """Independent partial-sum scan with the exact geometric tail."""
    t = 1
    while True:
        partial = (1 - ratio**t) / (1 - ratio)
        tail = ratio**t / (1 - ratio)
        if partial - tail > 0:
            return t
        t += 1


class TestDominanceIndex:
    def test_fast_decay(self):
        assert dominance_index(ImpulseResponse.geometric(0.1)) == 1
        assert dominance_index(ImpulseResponse.geometric(0.1)) == direct_dominance_index(0.1)

    def test_slow_decay(self):
        assert dominance_index(ImpulseResponse.geometric(0.9)) == 7
        assert dominance_index(ImpulseResponse.geometric(0.9)) == direct_dominance_index(0.9)

    def test_unit_pulse(self):
        assert dominance_index(ImpulseResponse.from_samples([1.0])) == 1

    def test_matches_direct_scan_on_grid(self):
        for ratio in (0.05, 0.3, 0.5, 0.7, 0.8, 0.95):
            got = dominance_index(ImpulseResponse.geometric(ratio))
            assert got == direct_dominance_index(ratio)


    @pytest.mark.parametrize("bound", [dominance_index, period_bounds, default_pmax])
    def test_head_that_never_outweighs_its_tail_fails_fast(self, bound):
        # 1, -2, then zeros: the tail bound is exhausted at t = 2 with the gap still negative
        g = ImpulseResponse.from_samples([1.0, -2.0])
        arg = g if bound is dominance_index else PlantSpec.from_response(g, 1)
        with time_limit(1.0), pytest.raises(TruncationError):
            bound(arg)


class TestPeriodBounds:
    def test_fast_decay_window(self):
        b = period_bounds(geometric_plant(0.1, 9))
        assert (b.lower, b.upper) == (18, 20)
        assert b.dominance_index == 1
        assert b.upper_convex == 38

    def test_slow_decay_window(self):
        b = period_bounds(geometric_plant(0.9, 8))
        assert (b.lower, b.upper) == (16, 30)
        assert b.upper_convex == 34

    def test_unit_pulse(self):
        plant = PlantSpec(ImpulseResponse.from_samples([1.0]), 1)
        b = period_bounds(plant)
        assert (b.lower, b.upper) == (2, 4)
        assert b.upper_convex == 6

    def test_needs_delay(self):
        with pytest.raises(ValueError):
            period_bounds(geometric_plant(0.1, 0))

    def test_default_pmax_adds_slack(self):
        assert default_pmax(geometric_plant(0.1, 9)) == 22


class TestPatternEnumeration:
    def test_smallest_period(self):
        assert enumerate_unimodal_patterns(2) == [(-1, 1)]

    def test_period_four_count(self):
        pats = enumerate_unimodal_patterns(4)
        assert len(pats) == 8  # 3 zero-free + 2 + 2 one-zero + 1 two-zero

    def test_all_single_peaked(self):
        for period in (2, 3, 5, 8, 13):
            for pat in enumerate_unimodal_patterns(period):
                assert max_cyclic_sign_changes(np.asarray(pat, float)) == 2

    def test_canonical_and_distinct(self):
        for period in (4, 6, 9):
            pats = enumerate_unimodal_patterns(period)
            assert len(set(pats)) == len(pats)
            for pat in pats:
                assert pat == canonical_rotation(pat)
                # full rotation family is distinct: fundamental period is P
                assert len({tuple(np.roll(pat, k)) for k in range(period)}) == period

    def test_matches_reference_enumeration(self):
        # canonical forms emitted directly equal the rotate-and-deduplicate
        # definition, order included
        for period in range(2, 41):
            assert enumerate_unimodal_patterns(period) == reference_unimodal_patterns(period)

    def test_counts_follow_run_splits(self):
        for period in range(4, 12):
            expected = (period - 1) + 2 * (period - 2) + (period - 3)
            assert len(enumerate_unimodal_patterns(period)) == expected


class TestVerifyFixedPoint:
    def test_example_family(self):
        plant = geometric_plant(0.1, 9)
        for period in (18, 6, 2):
            pat = [1] * (period // 2) + [-1] * (period // 2)
            rec = verify_fixed_point(plant, pat)
            assert rec is not None and rec.period == period
            assert rec.admissible and rec.sign_symmetric and rec.is_self_oscillation

    def test_rotations_all_verify(self):
        plant = geometric_plant(0.1, 9)
        base = [1, 1, 1, -1, -1, -1]
        recs = [verify_fixed_point(plant, np.roll(base, k)) for k in range(6)]
        assert all(r is not None for r in recs)
        assert len({r.pattern for r in recs}) == 1  # one canonical family

    def test_zero_delay_never_fixes(self):
        plant = geometric_plant(0.1, 0)
        for period in range(2, 13):
            for pat in enumerate_unimodal_patterns(period):
                assert verify_fixed_point(plant, pat) is None

    def test_dead_zone_family(self):
        plant = geometric_plant(0.1, 3, 0.8)
        rec = verify_fixed_point(plant, [1, 1, 0, -1, -1, 0])
        assert rec is not None and rec.admissible
        # boundary entries quantize to zero, so a strictly larger zone kills it
        assert verify_fixed_point(geometric_plant(0.1, 3, 1.2), [1, 1, 0, -1, -1, 0]) is None

    def test_waveform_alignment(self):
        plant = geometric_plant(0.1, 9)
        rec = verify_fixed_point(plant, [1, -1])
        from relayosc.variation import relay_vec

        assert tuple(relay_vec(rec.waveform, 0.0)) == rec.pattern

    def test_invalid_patterns(self):
        plant = geometric_plant(0.1, 1)
        with pytest.raises(ValueError):
            verify_fixed_point(plant, [2, 0])
        with pytest.raises(ValueError):
            verify_fixed_point(plant, [1])


class TestBaseOscillation:
    def test_dead_zone_flip(self):
        assert exists_base_oscillation(geometric_plant(0.1, 3, 0.8))
        assert not exists_base_oscillation(geometric_plant(0.1, 3, 0.9))

    def test_fast_decay_all_delays(self):
        for delay in range(1, 13):
            assert exists_base_oscillation(geometric_plant(0.1, delay))

    def test_slow_decay_can_lack_the_base_period(self):
        # the head of a slow kernel does not dominate its tail, so the
        # half-and-half pattern fails at twice the delay
        assert exists_base_oscillation(geometric_plant(0.9, 2))
        assert not exists_base_oscillation(geometric_plant(0.9, 3))
        assert not exists_base_oscillation(geometric_plant(0.9, 8))

    def test_scalar_agrees_with_verification_on_grid(self):
        # the iff holds on both sides across ratios, delays and zones
        for ratio in (0.1, 0.5, 0.9):
            for delay in (1, 2, 3, 5):
                for dz in (0.0, 0.3, 0.9):
                    exists_base_oscillation(geometric_plant(ratio, delay, dz))

    def test_one_ulp_below_threshold(self):
        # the scalar and the full verdict read the same loop response, so
        # they agree one ulp inside the dead-zone edge; a scalar taken from
        # a separately rounded product once disagreed here
        base = geometric_plant(0.6185501653160004, 2)
        dz = float(np.nextafter(dead_zone_threshold(base), 0.0))
        plant = geometric_plant(0.6185501653160004, 2, dz)
        assert exists_base_oscillation(plant)
        assert verify_fixed_point(plant, [1, 1, -1, -1]) is not None


class TestDeadZoneThreshold:
    def test_example_value(self):
        th = dead_zone_threshold(geometric_plant(0.1, 3))
        assert th == pytest.approx(0.8891, abs=1e-3)
        assert th == pytest.approx(0.889110889110889, rel=1e-12)

    def test_independent_direct_product(self):
        # plain-loop circulant against a directly folded kernel
        ratio, delay = 0.1, 3
        period = 2 * delay
        gbar = np.zeros(period)
        for i in range(period):
            for k in range(200):
                t = i + k * period - delay
                if t >= 0:
                    gbar[i] += ratio**t
        s = np.array([1.0] * delay + [-1.0] * delay)
        prod = np.array(
            [sum(gbar[(i - j) % period] * s[j] for j in range(period)) for i in range(period)]
        )
        expected = np.sort(prod)[::-1][delay - 1]
        assert dead_zone_threshold(geometric_plant(ratio, delay)) == pytest.approx(
            expected, rel=1e-10
        )

    def test_shifted_pulse(self):
        plant = PlantSpec(ImpulseResponse.from_samples([1.0]), 1)
        assert dead_zone_threshold(plant) == pytest.approx(1.0)

    def test_slow_plant_small_window(self):
        # 4x4 product evaluated by hand: entries +-{0.019, 0.361}/0.3439
        th = dead_zone_threshold(geometric_plant(0.9, 2))
        assert th == pytest.approx(0.019 / 0.3439, rel=1e-9)

    def test_threshold_is_smallest_positive_waveform_entry(self):
        for ratio, delay in ((0.1, 3), (0.5, 2), (0.9, 2)):
            plant = geometric_plant(ratio, delay)
            rec = verify_fixed_point(
                plant, [1] * delay + [-1] * delay
            )
            assert rec is not None
            smallest_pos = min(x for x in rec.waveform if x > 0)
            assert dead_zone_threshold(plant) == pytest.approx(smallest_pos, rel=1e-12)


class TestSubharmonics:
    def test_examples(self):
        assert subharmonic_periods(9) == [18, 6, 2]
        assert subharmonic_periods(12) == [24, 8]
        assert subharmonic_periods(4) == [8]
        assert subharmonic_periods(1) == [2]

    def test_all_even_and_divide(self):
        for delay in range(1, 30):
            for p in subharmonic_periods(delay):
                assert p % 2 == 0
                assert (2 * delay) % p == 0
                assert ((2 * delay) // p) % 2 == 1

    def test_closure_under_threshold(self):
        # once the base period exists and the zone is under threshold,
        # every subharmonic period carries a verified oscillation
        for ratio, delay in ((0.1, 9), (0.1, 6), (0.5, 3)):
            plant = geometric_plant(ratio, delay)
            th = dead_zone_threshold(plant)
            for dz in (0.0, 0.5 * th, 0.95 * th):
                p = PlantSpec(plant.g0, delay, dz)
                if not exists_base_oscillation(p):
                    continue
                for period in subharmonic_periods(delay):
                    pat = [1] * (period // 2) + [-1] * (period // 2)
                    assert verify_fixed_point(p, pat) is not None, (ratio, delay, dz, period)


class TestAbsence:
    def test_zero_delay_geometric(self):
        verdict = check_absence(geometric_plant(0.1, 0))
        assert verdict.applicable

    def test_parallel_lags(self):
        num = [1.5, -0.45, 0.0]
        den = [1.0, -0.7, 0.1]
        plant = PlantSpec.from_response(ImpulseResponse.from_rational(num, den))
        assert plant.delay == 0
        assert check_absence(plant).applicable
        for period in range(1, 11):
            assert brute_force_fixed_points(plant, period) == []

    def test_inapplicable_with_delay(self):
        assert not check_absence(geometric_plant(0.1, 2)).applicable

    def test_inapplicable_off_class(self):
        plant = PlantSpec(ImpulseResponse.from_samples([1.0, 0.0, 0.5]), 0)
        verdict = check_absence(plant)
        assert not verdict.applicable and "inapplicable" in verdict.reason


class TestBruteForce:
    def test_two_by_two_hand_enumeration(self):
        plant = geometric_plant(0.1, 1)
        assert brute_force_fixed_points(plant, 2) == [(-1, 1), (1, -1)]

    def test_trivial_zero_excluded(self):
        plant = geometric_plant(0.1, 1)
        assert (0, 0) not in brute_force_fixed_points(plant, 2)

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_force_fixed_points(geometric_plant(0.1, 1), 17)

    def test_dead_zone_families(self):
        plant = geometric_plant(0.1, 3, 0.8)
        fams = sorted({canonical_rotation(p) for p in brute_force_fixed_points(plant, 6)})
        assert fams == [
            (-1, -1, -1, 1, 1, 1),
            (-1, -1, 0, 1, 1, 0),
            (-1, 0, -1, 1, 0, 1),
            (-1, 0, 0, 1, 0, 0),
            (-1, 1, -1, 1, -1, 1),
        ]

    def test_matches_pattern_level_verification(self, rng):
        # every oracle hit re-verifies individually, rotations included
        plant = geometric_plant(0.5, 2, 0.1)
        for period in (2, 3, 4, 6):
            for pat in brute_force_fixed_points(plant, period):
                assert verify_fixed_point(plant, pat) is not None


def criterion_6_plants():
    """The 20 random plants of acceptance criterion 6, drawn the same way."""
    rng = np.random.default_rng(20260809)
    return [
        geometric_plant(
            float(rng.uniform(0.05, 0.95)), int(rng.integers(1, 6)), float(rng.uniform(0.0, 1.0))
        )
        for _ in range(20)
    ]


def twin_plants(ratio, delay):
    """The geometric and the rational form of one plant."""
    return [
        PlantSpec(ImpulseResponse.geometric(ratio), delay),
        PlantSpec.from_response(ImpulseResponse.from_rational([1.0, 0.0], [1.0, -ratio]), delay),
    ]


class TestOracleAgainstReference:
    @pytest.mark.parametrize("index", range(20))
    def test_criterion_6_plants_every_period(self, index):
        plant = criterion_6_plants()[index]
        for period in range(1, 13):
            assert brute_force_fixed_points(plant, period) == reference_brute_force_fixed_points(
                plant, period
            ), period

    @pytest.mark.parametrize("ratio, delay", [(0.6185501653160004, 2), (0.3, 1), (0.45, 4), (0.7, 2)])
    def test_twins_at_the_dead_zone_edge(self, ratio, delay):
        for twin in twin_plants(ratio, delay):
            edge = dead_zone_threshold(twin)
            for dz in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                plant = PlantSpec(twin.g0, twin.delay, float(dz))
                for period in range(1, 11):
                    assert brute_force_fixed_points(plant, period) == reference_brute_force_fixed_points(
                        plant, period
                    ), (twin.g0.kind, dz, period)

    @pytest.mark.parametrize(
        "plant, period, hit_blocks",
        [
            (PlantSpec(ImpulseResponse.from_samples([1.32, -0.4, -0.8, 1.39, 0.29, 1.19]), 5, 0.37), 13, 20),
            (PlantSpec(ImpulseResponse.from_samples([1.32, -0.4, -0.8, 1.39, 0.29, 1.19]), 5, 0.37), 14, 0),
            (geometric_plant(0.1, 7), 13, 0),
            (geometric_plant(0.1, 7), 14, 16),
        ],
        ids=["samples-13", "samples-14", "geometric-13", "geometric-14"],
    )
    def test_several_high_digit_columns(self, plant, period, hit_blocks):
        # hit_blocks: how many blocks of 3^10 rows hold a fixed pattern
        found = brute_force_fixed_points(plant, period)
        assert found == reference_brute_force_fixed_points(plant, period)
        assert len({p[10:] for p in found}) == hit_blocks

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        responses(),
        st.integers(0, 6),
        st.sampled_from(range(1, 13)),  # integers() would draw mostly P = 1
        st.sampled_from(["zero", "edge", "below", "above", "random"]),
        st.floats(0.0, 2.0),
    )
    def test_equals_the_reference(self, g, delay, period, where, random_dead_zone):
        # the edge is the threshold where it exists; rows at it go to the block product
        edge = max(dead_zone_threshold(PlantSpec(g, delay)), 0.0) if delay else 0.0
        dead_zone = {
            "zero": 0.0,
            "edge": edge,
            "below": np.nextafter(edge, 0.0),
            "above": np.nextafter(edge, np.inf),
            "random": random_dead_zone,
        }[where]
        plant = PlantSpec(g, delay, float(dead_zone))
        assert brute_force_fixed_points(plant, period) == reference_brute_force_fixed_points(plant, period)

    @pytest.mark.parametrize(
        "samples, dead_zone",
        [([1.0, np.nan], 0.0), ([1.0, np.inf], 0.0), ([1e307, -1e307, 1e307], 0.0), ([1.0, 0.5], np.inf),
         ([1.0, 0.5], np.nan)],
    )
    def test_non_finite_or_overflowing_kernels_match_the_reference(self, samples, dead_zone):
        # the same patterns, or the same error, and the same warnings as the block product everywhere
        plant = PlantSpec(ImpulseResponse.from_samples(samples), 2, dead_zone)
        for period in range(1, 13):
            outcomes = []
            for oracle in (brute_force_fixed_points, reference_brute_force_fixed_points):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        outcome = oracle(plant, period)
                    except ValueError as exc:
                        outcome = str(exc)
                outcomes.append((outcome, [str(w.message) for w in caught]))
            assert outcomes[0] == outcomes[1], period

    @pytest.mark.parametrize("a0, a1", [(2.0, 2.0), (5.0, -3.0)], ids=["zero-slot", "plus-slot"])
    def test_rows_that_round_apart_go_to_the_block_product(self, a0, a1, monkeypatch):
        # u_0 = a0 s_0 + a1 s_1 + 2^-52 (s_10 + s_11) at dead zone 2, with s_1 = s_10 forced
        # and s_2..s_9 = 0. In the block s_10 = s_11 = 1, one row puts u_0 at 2: summed left
        # to right it is 2, an edge, while the screen adds the high digits first and gets
        # 2 + 2^-51. Every other row of that block clears its edges, so only the rounding
        # allowance sends the block to the product, which decides the row
        assert 2.0 + 2.0**-52 + 2.0**-52 != 2.0 + (2.0**-52 + 2.0**-52)
        K = np.zeros((12, 12))
        K[0, :2], K[0, 10:] = (a0, a1), 2.0**-52
        K[1, 10] = K[10, 10] = K[11, 11] = 3.0
        for module in (analyzer, conftest):
            monkeypatch.setattr(module, "loop_matrix", lambda plant, p, tol: K)
        plant = geometric_plant(0.1, 1, 2.0)
        found = brute_force_fixed_points(plant, 12)
        assert found == reference_brute_force_fixed_points(plant, 12)
        assert found

    def test_fourteen_digits_in_a_fraction_of_a_second(self):
        # 81 blocks of 3^10 rows; the block product alone takes about 0.4 s
        plant = geometric_plant(0.1, 9)
        with time_limit(0.25):
            found = brute_force_fixed_points(plant, 14)
        assert found == reference_brute_force_fixed_points(plant, 14)


def record_keys(records):
    """Every field of each record, the waveform as its bytes, in order."""
    return [
        (r.period, r.pattern, r.unimodal, r.pattern_unimodal, r.sign_symmetric, r.is_self_oscillation,
         np.asarray(r.waveform).tobytes())
        for r in records
    ]


def assert_records_match_reference(plant, periods):
    found = 0
    for period in periods:
        for prune in (False, True):
            got = period_records(plant, period, prune)
            assert record_keys(got) == record_keys(reference_period_records(plant, period, prune)), (
                period, prune
            )
            found += len(got)
    return found


def shape_patterns(rows, period):
    """The pattern matrix of rows (b, z1, a, z2): one candidate per row."""
    b, z1, a, _ = (rows[:, k : k + 1] for k in range(4))
    j = np.arange(period)
    return np.where(j < b, -1.0, np.where((j >= b + z1) & (j < b + z1 + a), 1.0, 0.0))


class TestScreenThenVerify:
    @pytest.mark.parametrize("index", range(20))
    def test_criterion_6_plants_match_the_reference(self, index):
        assert_records_match_reference(criterion_6_plants()[index], range(2, 41))

    @pytest.mark.parametrize("ratio, delay", [(0.6185501653160004, 2), (0.3, 1), (0.45, 4), (0.7, 2), (0.1, 9)])
    def test_twins_at_the_dead_zone_edge_match_the_reference(self, ratio, delay):
        found = 0
        for twin in twin_plants(ratio, delay):
            edge = dead_zone_threshold(twin)
            for dz in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                plant = PlantSpec(twin.g0, twin.delay, float(dz))
                found += assert_records_match_reference(plant, range(2, 4 * delay + 12))
        assert found > 0

    def test_finite_response_matches_the_reference(self):
        taps = ImpulseResponse.from_samples([1.32, -0.4, -0.8, 1.39, 0.29, 1.19])
        found = sum(
            assert_records_match_reference(PlantSpec(taps, delay, dz), range(2, 41))
            for delay, dz in ((5, 0.37), (2, 0.0), (3, 1.0))
        )
        assert found > 0

    def test_shapes_are_the_enumeration(self):
        for period in (2, 3, 7):
            rows = _run_shapes(period)
            assert [tuple(int(x) for x in s) for s in shape_patterns(rows, period)] == (
                enumerate_unimodal_patterns(period)
            )

    def test_tolerance_covers_every_screened_entry(self):
        # the rows of K at the screened slots times s, summed in einsum's order
        # rather than BLAS's; the bound holds for any summation order
        rng = np.random.default_rng(6)
        plants = twin_plants(0.995, 2) + twin_plants(0.995, 7)
        for _ in range(6):
            plants += twin_plants(float(rng.uniform(0.02, 0.99)), int(rng.integers(1, 10)))
        worst = 0.0
        for plant in plants:
            for period in range(2, 121):
                c = loop_generator(plant, period)
                rows = _run_shapes(period)
                slots, u_hat, tau, _ = _screen(c, rows, plant.dead_zone)
                exact = np.einsum("nkj,nj->nk", loop_matrix(plant, period)[slots], shape_patterns(rows, period))
                err = np.max(np.abs(u_hat - exact))
                assert err <= tau, (plant.g0.kind, plant.delay, period)
                worst = max(worst, err)
        assert worst > 0.0  # the screen's rounding is real, so the check is not vacuous

    def test_every_rejected_candidate_fails_verification(self):
        rejected = 0
        for ratio in (0.1, 0.6, 0.95):
            for twin in twin_plants(ratio, 3) + twin_plants(ratio, 5):
                edge = dead_zone_threshold(twin)
                for dz in (0.0, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                    dz = float(dz)
                    for period in range(2, 25):
                        rows = _run_shapes(period)
                        kept = _screen(loop_generator(twin, period), rows, dz)[3]
                        K = loop_matrix(twin, period)
                        for row in rows[~kept]:
                            rejected += 1
                            assert _fixed_waveform(K, np.repeat([-1.0, 0.0, 1.0, 0.0], row), dz) is None
        assert rejected > 0

    @pytest.mark.parametrize("samples", [[1.0, np.nan], [1.0, np.inf], [1e307, -1e307, 1e307]])
    def test_non_finite_or_overflowing_responses_reject_nothing(self, samples):
        # nothing may be screened out, so verification meets the bad entries as before
        plant = PlantSpec(ImpulseResponse.from_samples(samples), 2)
        for period in range(2, 7):
            assert _screen(loop_generator(plant, period), _run_shapes(period), 0.0)[3].all()
            outcomes = []
            for analyze in (period_records, reference_period_records):
                try:
                    outcomes.append(record_keys(analyze(plant, period)))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], period

    def test_survivor_count_at_pmax_200(self):
        # 78 805 candidates; the screen passes exactly the 3 fixed families on
        # to K @ s, so it cannot quietly fall back to verifying everything
        plant = geometric_plant(0.1, 9)
        candidates = survivors = 0
        for period in range(2, 201):
            rows = _run_shapes(period)
            candidates += len(rows)
            survivors += int(np.sum(_screen(loop_generator(plant, period), rows, 0.0)[3]))
        assert (candidates, survivors) == (78805, 3)
        assert len(find_oscillations(plant, pmax=200).records) == 3


class TestOracleBlocks:
    @pytest.mark.parametrize("n", range(8))
    def test_digit_table_rows_are_base_3_codes(self, n):
        table = _digit_table(n)
        assert table.shape == (3**n, n)
        for code, row in enumerate(table):
            assert [int(x) for x in row] == [(code // 3**j) % 3 - 1 for j in range(n)]
        assert len({tuple(row) for row in table.tolist()}) == 3**n

    def test_fixed_patterns_in_later_blocks(self):
        # the 12 rotations of the square wave carry their top two digits in
        # blocks 0, 2, 6 and 8 of 3^10 rows; every hit is exactly fixed
        ratio, delay, period = 0.1, 6, 12
        square = [1] * 6 + [-1] * 6
        rotations = {tuple(square[k:] + square[:k]) for k in range(period)}
        blocks = {(p[10] + 1) + 3 * (p[11] + 1) for p in rotations}
        assert blocks == {0, 2, 6, 8}
        found = brute_force_fixed_points(geometric_plant(ratio, delay), period)
        assert rotations <= set(found)
        assert all(exact_geometric_fixed_point(ratio, delay, p) for p in found)

    @pytest.mark.parametrize("period", [1, 10, 11])
    def test_all_zero_pattern_excluded_once(self, period, monkeypatch):
        # with an identity loop every pattern is its own relay image
        monkeypatch.setattr(analyzer, "loop_matrix", lambda plant, p, tol: np.eye(p))
        found = brute_force_fixed_points(geometric_plant(0.1, 1), period)
        assert len(found) == len(set(found)) == 3**period - 1
        assert (0,) * period not in found


class TestFindOscillations:
    def test_example_one(self):
        report = find_oscillations(geometric_plant(0.1, 9), pmax=20, oracle_pmax=12)
        assert sorted({r.period for r in report.records}) == [2, 6, 18]
        assert report.violations == []
        assert report.bounds.upper == 20

    def test_pruned_matches_unpruned(self):
        for plant in (geometric_plant(0.1, 5), geometric_plant(0.9, 3), geometric_plant(0.1, 3, 0.8)):
            a = find_oscillations(plant, pmax=12)
            b = find_oscillations(plant, pmax=12, prune_sign_symmetric=True)
            assert [r.pattern for r in a.records] == [r.pattern for r in b.records]

    def test_dead_zone_case_and_oracle_diff(self):
        report = find_oscillations(geometric_plant(0.1, 3, 0.8), pmax=8, oracle_pmax=8)
        assert report.violations == []
        by_period = {}
        for r in report.records:
            by_period.setdefault(r.period, []).append(r.pattern)
        assert by_period[2] == [(-1, 1)]
        assert by_period[6] == [(-1, -1, -1, 1, 1, 1), (-1, -1, 0, 1, 1, 0)]
        extras = {(e.period, e.pattern) for e in report.oracle_diff}
        assert (6, (-1, 0, -1, 1, 0, 1)) in extras
        assert (6, (-1, 0, 0, 1, 0, 0)) in extras
        assert all(not e.pattern_unimodal for e in report.oracle_diff)

    def test_oracle_flags_a_family_the_enumeration_misses(self, monkeypatch):
        # the cross-check compares the oracle with the analyzer's records, so
        # a fixed single-peaked family that is never enumerated is a violation
        import relayosc.analyzer as analyzer_mod

        missed = (-1, -1, 0, 1, 1, 0)
        full = analyzer_mod._run_shapes  # the row (2, 1, 2, 1) is the family missed
        monkeypatch.setattr(
            analyzer_mod, "_run_shapes", lambda p: full(p)[~np.all(full(p) == (2, 1, 2, 1), axis=1)]
        )
        report = find_oscillations(geometric_plant(0.1, 3, 0.8), pmax=8, oracle_pmax=8)
        assert missed not in {r.pattern for r in report.records}
        entries = [e for e in report.oracle_diff if e.pattern == missed]
        assert [(e.period, e.pattern_unimodal, e.in_analyzer) for e in entries] == [(6, True, False)]
        assert report.violations == [
            f"oracle found an unmatched single-peaked fixed pattern {missed} at period 6"
        ]

    def test_oracle_flags_a_fixed_family_the_pruning_skips(self, monkeypatch):
        # pruning skips zero-free patterns whose sign counts differ; make it
        # skip a fixed family and the oracle must report the gap
        import relayosc.analyzer as analyzer_mod

        fixed = (-1, -1, -1, 1, 1, 1)
        counts = analyzer_mod.sign_counts
        monkeypatch.setattr(
            analyzer_mod,
            "sign_counts",
            lambda v: (3, 2, 0) if tuple(int(x) for x in v) == fixed else counts(v),
        )
        plant = geometric_plant(0.1, 3, 0.8)
        report = find_oscillations(plant, pmax=8, prune_sign_symmetric=True, oracle_pmax=8)
        assert any(e.pattern == fixed and not e.in_analyzer for e in report.oracle_diff)
        assert f"oracle found an unmatched single-peaked fixed pattern {fixed} at period 6" in report.violations

    def test_records_sign_symmetric(self):
        for plant in (geometric_plant(0.1, 9), geometric_plant(0.9, 4), geometric_plant(0.1, 3, 0.8)):
            report = find_oscillations(plant, pmax=14)
            for rec in report.records:
                assert rec.sign_symmetric
                pos, neg, zero = sign_counts(np.asarray(rec.pattern, float))
                if zero == 0:
                    assert rec.period == 2 * pos

    def test_odd_symmetry_of_fixed_points(self):
        plant = geometric_plant(0.1, 3, 0.8)
        for pat in ([1, 1, 0, -1, -1, 0], [1, 1, 1, -1, -1, -1]):
            rec = verify_fixed_point(plant, pat)
            neg = verify_fixed_point(plant, [-x for x in pat])
            assert rec is not None and neg is not None
            assert rec.pattern == neg.pattern  # same canonical family

    def test_slow_plant_max_periods_regression(self):
        # exact enumeration results for the slow kernel, cross-checked by
        # closed-loop simulation during development; pins the sweep path
        maxima = []
        for delay in range(1, 9):
            report = find_oscillations(geometric_plant(0.9, delay))
            assert report.violations == []
            maxima.append(max((r.period for r in report.records if r.period >= delay), default=None))
        assert maxima == [2, 6, 10, 12, 16, 18, 20, 24]

    def test_zero_delay_report(self):
        report = find_oscillations(geometric_plant(0.1, 0), pmax=10, oracle_pmax=10)
        assert report.records == [] and report.bounds is None
        assert report.absence is not None and report.absence.applicable
        assert report.violations == []

    def test_report_json_round_trip_and_reverify(self):
        report = find_oscillations(geometric_plant(0.1, 3, 0.8), pmax=8, oracle_pmax=6)
        blob = json.dumps(report.to_dict())
        again = report_from_dict(json.loads(blob))
        assert [r.pattern for r in again.records] == [r.pattern for r in report.records]
        for rec in again.records:
            fresh = verify_fixed_point(again.plant, rec.pattern)
            assert fresh == rec
