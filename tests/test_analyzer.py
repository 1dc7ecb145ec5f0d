import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayosc import analyzer
from relayosc.analyzer import (
    _SLOTS,
    _digit_table,
    _entries,
    _generator,
    _prefix_sums,
    _screen,
    _sweep_rows,
    brute_force_fixed_points,
    canonical_rotation,
    check_absence,
    dead_zone_threshold,
    default_pmax,
    dominance_index,
    enumerate_unimodal_patterns,
    exists_base_oscillation,
    find_oscillations,
    oracle_families,
    period_bounds,
    period_records,
    verify_fixed_point,
)
from relayosc.lti import ImpulseResponse, PlantSpec, TruncationError, loop_generator, loop_matrix, periodic_summation
from relayosc.variation import max_cyclic_sign_changes, relay_vec, sign_counts

from conftest import (
    exact_geometric_fixed_point,
    fraction_sums,
    reference_brute_force_fixed_points,
    reference_dominance_index,
    reference_period_records,
    reference_unimodal_patterns,
    report_from_dict,
    responses,
    subharmonic_periods,
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


    def test_the_block_lengths_change_no_index_and_no_failure(self):
        # 600 responses (rng(5)): geometric and two-pole rational with indices up to about 1300, and
        # sorted finite responses, 30 of them with a tail bound exhausted before the head wins
        def outcome(walk, make):
            try:
                return walk(make())
            except TruncationError as exc:
                return str(exc)

        rng = np.random.default_rng(5)
        outcomes = []
        for k in range(600):
            if k % 3 == 0:
                ratio, gain = 1 - 10 ** -rng.uniform(0.05, 3.3), rng.uniform(0.1, 3)
                make = lambda: ImpulseResponse.geometric(ratio, gain)
            elif k % 3 == 1:
                a, b, w = 1 - 10 ** -rng.uniform(0.3, 3.3), rng.uniform(-0.9, 0.9), rng.uniform(0.2, 0.8)
                make = lambda: ImpulseResponse.from_rational([1.0, -(w * b + (1 - w) * a), 0.0], [1.0, -(a + b), a * b])
            else:
                values = sorted(rng.normal(rng.uniform(-0.2, 1.0), 1.0, rng.integers(1, 300)).tolist(), reverse=True)
                make = lambda: ImpulseResponse.from_samples([max(values[0], 1.0), *values[1:]])
            outcomes.append(outcome(dominance_index, make))
            assert outcomes[-1] == outcome(reference_dominance_index, make), k
        assert sum(isinstance(o, str) for o in outcomes) == 30
        assert max(o for o in outcomes if isinstance(o, int)) > 1024

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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=12))
    def test_canonical_rotation_is_the_smallest_roll(self, pattern):
        rolls = [tuple(int(x) for x in np.roll(pattern, k)) for k in range(len(pattern))]
        assert canonical_rotation(pattern) == min(rolls)
        # np.roll by _canonical_roll gives it, and no smaller k does
        assert analyzer._canonical_roll(pattern) == rolls.index(min(rolls))

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
        # every rotation of a fixed pattern gives the record of its canonical rotation, waveform
        # bits included, the non-primitive (-1, 1, -1, 1) too: each is judged in that rotation
        plants = [
            geometric_plant(0.1, 9),
            geometric_plant(0.5, 3, 0.2),
            PlantSpec(ImpulseResponse.from_rational([1, 0, 0], [1, -1.1, 0.28]), 2),
            PlantSpec(ImpulseResponse.from_samples([1, 0.6, 0.3, 0.1]), 4),
        ]
        for plant in plants:
            patterns = {r.pattern for r in find_oscillations(plant, pmax=20).records}
            patterns |= {e.pattern for period in range(2, 9) for e in oracle_families(plant, period, set())}
            if plant == plants[0]:
                assert (-1, 1, -1, 1) in patterns
            for pattern in patterns:
                ref = verify_fixed_point(plant, pattern)
                assert ref.pattern == pattern
                for k in range(len(pattern)):
                    assert verify_fixed_point(plant, np.roll(pattern, k)) == ref

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

    def test_outside_the_decaying_class_the_threshold_decides(self):
        # the scalar criterion is a theorem only for decaying plants: elsewhere it may disagree,
        # and the judge's verdict is returned, which the analyzer's records at twice the delay repeat
        rng = np.random.default_rng(3)
        disagreements = 0
        for _ in range(300):
            taps = rng.uniform(-1.0, 1.5, int(rng.integers(1, 8)))
            taps[0] = abs(taps[0]) + 0.01
            delay = int(rng.integers(1, 7))
            plant = PlantSpec(ImpulseResponse.from_samples(taps), delay, 0.0)
            family = (-1,) * delay + (1,) * delay
            exists = exists_base_oscillation(plant)
            assert exists == (family in {r.pattern for r in period_records(plant, 2 * delay)})
            disagreements += exists != (analyzer._base_family(plant)[1] > 0.0)
        assert disagreements > 20


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

    def test_no_base_family_reads_zero(self):
        # the relay image of K s at geometric 0.931, delay 3, is s shifted by one slot, so the
        # family is fixed at no dead zone: the threshold is 0.0, not -0.0
        plant = geometric_plant(0.931, 3)
        assert dead_zone_threshold(plant) == 0.0
        assert np.copysign(1.0, dead_zone_threshold(plant)) == 1.0
        assert not exists_base_oscillation(plant)
        assert verify_fixed_point(plant, [1, 1, 1, -1, -1, -1]) is None
        assert (-1, -1, -1, 1, 1, 1) not in {r.pattern for r in period_records(plant, 6)}

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
        # the edge is the threshold where it exists; rows at it go to the exact sums
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

    @pytest.mark.parametrize("dead_zone", [np.inf, np.nan])
    def test_non_finite_or_overflowing_kernels_match_the_reference(self, dead_zone):
        # the same patterns and no warnings at an infinite dead zone; a NaN one is refused
        if np.isnan(dead_zone):  # refused: its relay would map every entry to 0
            with pytest.raises(ValueError, match="dead_zone must be nonnegative"):
                PlantSpec(ImpulseResponse.from_samples([1.0, 0.5]), 2, dead_zone)
            return
        plant = PlantSpec(ImpulseResponse.from_samples([1.0, 0.5]), 2, dead_zone)
        for period in range(1, 13):
            assert brute_force_fixed_points(plant, period) == reference_brute_force_fixed_points(plant, period) == []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(responses(), st.integers(0, 6), st.sampled_from(range(1, 13)), st.booleans(), st.floats(0.0, 2.0))
    def test_closed_under_rotation_and_negation(self, g, delay, period, at_edge, random_dead_zone):
        # the result is closed under rotation and negation, and the judge accepts exactly its run-start rows
        edge = max(dead_zone_threshold(PlantSpec(g, delay)), 0.0) if delay else 0.0
        plant = PlantSpec(g, delay, edge if at_edge else random_dead_zone)
        accepted = []
        judge = analyzer._judge

        def spy(K, s, dead_zone, tau):
            u = judge(K, s, dead_zone, tau)
            if u is not None:
                accepted.append(tuple(int(x) for x in s))
            return u

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(analyzer, "_judge", spy)
            found = brute_force_fixed_points(plant, period)
        orbits = {q for p in found for k in range(period) for q in (p[k:] + p[:k], tuple(-x for x in p[k:] + p[:k]))}
        assert orbits == set(found)
        assert sorted(accepted) == [p for p in found if p[0] == -1 and (p[-1] != -1 or set(p) == {-1})]

    @pytest.mark.parametrize(
        "samples, delay, head, fixed",
        [
            ([3.0, -1.0, -1.0, -(2.0**-52), -(2.0**-52)], 10, [1.0, 1.0, -3.0, 0.0, 0.0, 0.0], False),
            (
                [1.0, -(2.0**-52), -(2.0**-52), 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, -5.0],
                0,
                [-1.0, 5.0, 0.0, 0.0, 0.0, -3.0],
                True,
            ),
        ],
        ids=["zero-slot", "plus-slot"],
    )
    def test_rows_that_round_apart_use_exact_sums(self, samples, delay, head, fixed, monkeypatch):
        # row 0 of K is head, zeros, then 2^-52 at columns 10 and 11. Where a row's head terms sum to
        # the dead zone 2 (or -2) and both small terms push the same way, its sum in column order
        # rounds to the edge, while the exact sum lies 2^-51 past it and the screen, adding the high
        # digits apart, gets that exactly. Such rows survive the screen within the rounding
        # allowance, and their exact sums decide them: a zero entry rejected, or a +-1 entry accepted
        eps = 2.0**-52
        assert 2.0 + eps + eps != 2.0 + (eps + eps)
        plant = PlantSpec(ImpulseResponse.from_samples(samples), delay, 2.0)
        assert loop_matrix(plant, 12)[0].tolist() == head + [0.0] * 4 + [eps, eps]
        decided = []
        exact_sums = analyzer._exact_sums

        def spy(K, s):
            u = exact_sums(K, s)
            in_order = [sum(row) for row in (K * s).tolist()]
            decided.append((tuple(int(x) for x in s), relay_vec(u, 2.0), relay_vec(in_order, 2.0)))
            return u

        monkeypatch.setattr(analyzer, "_exact_sums", spy)
        found = brute_force_fixed_points(plant, 12)
        assert found == reference_brute_force_fixed_points(plant, 12)
        assert found
        apart = [(s, np.array_equal(exact, s)) for s, exact, in_order in decided if not np.array_equal(exact, in_order)]
        assert fixed in {is_fixed for s, is_fixed in apart if s != (-1,) * 12}  # that row skips the screen
        assert all((s in found) == is_fixed for s, is_fixed in apart)

    def test_fourteen_digits_in_a_fraction_of_a_second(self):
        # 3^14 rows; a matrix product over all of them alone takes about 0.4 s
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
        got = period_records(plant, period)
        assert record_keys(got) == record_keys(reference_period_records(plant, period)), period
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
            rows = _sweep_rows([period])[:, 1:]
            assert [tuple(int(x) for x in s) for s in shape_patterns(rows, period)] == (
                enumerate_unimodal_patterns(period)
            )
        # a sweep's rows are each period's in turn, tagged with their period
        periods = [2, 3, 7, 8, 30]
        rows = _sweep_rows(periods)
        assert rows[:, 0].tolist() == [p for p in periods for _ in enumerate_unimodal_patterns(p)]
        assert np.array_equal(rows[:, 1:], np.vstack([_sweep_rows([p])[:, 1:] for p in periods]))

    def test_tolerance_covers_every_screened_entry(self):
        # the rows of K at all six screened slots of every row times s, summed in
        # einsum's order rather than BLAS's; the bound holds for any summation order
        rng = np.random.default_rng(6)
        plants = twin_plants(0.995, 2) + twin_plants(0.995, 7)
        for _ in range(6):
            plants += twin_plants(float(rng.uniform(0.02, 0.99)), int(rng.integers(1, 10)))
        worst = 0.0
        for plant in plants:
            folds = folded(plant, range(2, 121))
            prefix, offset, tau = _prefix_sums(folds)
            all_rows = _sweep_rows(list(folds))
            for period in folds:
                assert tau[period] == folds[period][1]
                rows = all_rows[all_rows[:, 0] == period]
                K, patterns = loop_matrix(plant, period), shape_patterns(rows[:, 1:], period)
                for slot_level in _SLOTS:
                    slot = np.broadcast_to(slot_level(*rows[:, [0, 1, 2, 4]].T)[0], len(rows))
                    u_hat = _entries(prefix, rows, offset[period], slot)
                    err = np.max(np.abs(u_hat - np.einsum("nj,nj->n", K[slot], patterns)))
                    assert err <= tau[period], (plant.g0.kind, plant.delay, period)
                    worst = max(worst, err)
        assert worst > 0.0  # the screen's rounding is real, so the check is not vacuous

    def test_the_screen_keeps_the_rows_no_slot_rejects(self):
        # every slot of every row at once, as one pass over all six slots would screen them;
        # on these plants each slot is the only one to reject some row, so none goes unchecked
        taps = ImpulseResponse.from_samples([1.0, 0.96, -0.74, 0.97, 0.11, -0.53])
        alone = np.zeros(len(_SLOTS), dtype=int)
        for plant in (PlantSpec(taps, 4, 0.77), PlantSpec(taps, 2), geometric_plant(0.6, 3, 0.03)):
            folds = folded(plant, range(2, 41))
            prefix, offset, tau = _prefix_sums(folds)
            rows = _sweep_rows(list(folds))
            P = rows[:, 0]
            rejects = np.array([
                analyzer._margin(_entries(prefix, rows, offset[P], slot), level, plant.dead_zone) < -tau[P]
                for slot, level in (slot_level(P, *rows[:, [1, 2, 4]].T) for slot_level in _SLOTS)
            ])
            kept = _screen(rows, (prefix, offset, tau), plant.dead_zone)
            assert np.array_equal(kept, np.flatnonzero(~rejects.any(axis=0)))
            alone += np.sum(rejects & (rejects.sum(axis=0) == 1), axis=1)
        assert alone.all(), alone

    def test_every_rejected_candidate_fails_verification(self):
        rejected = 0
        for ratio in (0.1, 0.6, 0.95):
            for twin in twin_plants(ratio, 3) + twin_plants(ratio, 5):
                edge = dead_zone_threshold(twin)
                folds = folded(twin, range(2, 25))
                rows, sums = _sweep_rows(list(folds)), _prefix_sums(folds)
                for dz in (0.0, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                    dz = float(dz)
                    kept = np.zeros(len(rows), dtype=bool)
                    kept[_screen(rows, sums, dz)] = True
                    for period, *runs in rows[~kept]:
                        rejected += 1
                        pattern = np.repeat([-1.0, 0.0, 1.0, 0.0], runs)
                        assert verify_fixed_point(PlantSpec(twin.g0, twin.delay, dz), pattern) is None
        assert rejected > 0

    @pytest.mark.parametrize("samples", [[1.0, np.nan], [1.0, np.inf], [1e308, np.nan, 0.0, 1e308]])
    def test_non_finite_responses_are_refused(self, samples):
        # refused where the response is built, before any fold, screen or judge meets the entries
        with pytest.raises(ValueError, match="samples must be finite"):
            ImpulseResponse.from_samples(samples)

    def test_an_overflowing_period_is_refused_at_its_fold(self):
        # 8 sigma overflows from period 2 on, where a screen's sums could overflow: the sweep, the
        # oracle and verification refuse that period, warning nothing; period 1 is still decided
        plant = PlantSpec(ImpulseResponse.from_samples([1e307, -1e307, 1e307]), 2)
        assert brute_force_fixed_points(plant, 1) == reference_brute_force_fixed_points(plant, 1)
        for decide in (
            lambda: period_records(plant, 2),
            lambda: find_oscillations(plant, pmax=6),
            lambda: verify_fixed_point(plant, [1, -1]),
            lambda: brute_force_fixed_points(plant, 2),
        ):
            with pytest.raises(ValueError, match="loop kernel too large to decide at period 2"):
                decide()

    def test_survivor_count_at_pmax_200(self):
        # 78 805 candidates; the screen passes exactly the 3 fixed families on
        # to K @ s, so it cannot quietly fall back to verifying everything
        plant = geometric_plant(0.1, 9)
        folds = folded(plant, range(2, 201))
        rows = _sweep_rows(list(folds))
        assert (len(rows), len(_screen(rows, _prefix_sums(folds), 0.0))) == (78805, 3)
        assert len(find_oscillations(plant, pmax=200).records) == 3

    def test_a_long_sweep_screens_in_several_batches(self, monkeypatch):
        # pmax 60 fills three batches and pmax 200 many more; a batch is flushed once it
        # reaches its size, and the records are the same as one period at a time
        plant = geometric_plant(0.1, 9)
        batches = []
        batch_records = analyzer._batch_records

        def spy(plants, folds, *rest):
            batches.append(list(folds))
            return batch_records(plants, folds, *rest)

        monkeypatch.setattr(analyzer, "_batch_records", spy)
        for pmax in (60, 200):
            batches.clear()
            report = find_oscillations(plant, pmax=pmax)
            assert [p for batch in batches for p in batch] == list(range(2, pmax + 1))
            assert all(len(_sweep_rows(batch[:-1])) < analyzer._SCREEN_ROWS for batch in batches)
            assert record_keys(report.records) == record_keys(
                [r for period in range(2, pmax + 1) for r in period_records(plant, period)]
            )
        assert len(batches) > 10

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        responses(),
        st.integers(0, 8),
        st.integers(2, 12) | st.integers(46, 50),  # 46 and up cross two batch flushes
        st.sampled_from(["zero", "edge", "below", "above", "random"]),
        st.floats(0.0, 2.0),
    )
    def test_sweep_equals_the_reference_period_by_period(self, g, delay, pmax, where, random_dead_zone):
        edge = max(dead_zone_threshold(PlantSpec(g, delay)), 0.0) if delay else 0.0
        dead_zone = {
            "zero": 0.0,
            "edge": edge,
            "below": np.nextafter(edge, 0.0),
            "above": np.nextafter(edge, np.inf),
            "random": random_dead_zone,
        }[where]
        plant = PlantSpec(g, delay, float(dead_zone))
        assert outcome(lambda: find_oscillations(plant, pmax).records) == outcome(lambda: reference_sweep(plant, pmax))


def folded(plant, periods):
    """Each period's generator and tau, as the sweep keeps them; the generator is the loop generator's bits."""
    gens = {period: _generator(periodic_summation(plant.g0, period), plant.delay) for period in periods}
    assert all(np.array_equal(c, loop_generator(plant, period)) for period, (c, _) in gens.items())
    return gens


def reference_sweep(plant, pmax):
    """The records of ``find_oscillations``, one period at a time from the reference; its bounds may raise."""
    records = [r for period in range(2, pmax + 1) for r in reference_period_records(plant, period)]
    if plant.delay:
        period_bounds(plant)
    return sorted(records, key=lambda r: (r.period, r.pattern))


def outcome(run):
    """Record keys, or the message of the error the period bounds raise."""
    try:
        return record_keys(run())
    except TruncationError as exc:
        return str(exc)


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
        monkeypatch.setattr(analyzer, "loop_matrix", lambda plant, p: np.eye(p))
        found = brute_force_fixed_points(geometric_plant(0.1, 1), period)
        assert len(found) == len(set(found)) == 3**period - 1
        assert (0,) * period not in found

    @pytest.mark.parametrize("period", [1, 10, 11])
    def test_the_judge_sees_one_run_start_row_per_orbit(self, period, monkeypatch):
        # with an identity loop every row survives the screen: the judge sees every representative,
        # s_0 = -1 and s_{P-1} != -1, and the all-(-1) row, 2 3^(P-2) + 1 rows (1 at P = 1)
        monkeypatch.setattr(analyzer, "loop_matrix", lambda plant, p: np.eye(p))
        judged = []
        judge = analyzer._judge

        def spy(K, s, dead_zone, tau):
            judged.append(tuple(int(x) for x in s))
            return judge(K, s, dead_zone, tau)

        monkeypatch.setattr(analyzer, "_judge", spy)
        brute_force_fixed_points(geometric_plant(0.1, 1), period)
        assert len(judged) == len(set(judged)) == 2 * 3**period // 9 + 1
        assert all(s[0] == -1 and (s[-1] != -1 or set(s) == {-1}) for s in judged)


def threshold_probe():
    """(plant at dead zone 0, its threshold) for 400 geometric plants: ratio from U(0.02, 0.98), delays 1..11."""
    rng = np.random.default_rng(1)
    out = []
    for _ in range(400):
        base = geometric_plant(float(rng.uniform(0.02, 0.98)), int(rng.integers(1, 12)))
        out.append((base, dead_zone_threshold(base)))
    return out


def edge_zones(threshold):
    """The threshold and one ulp to each side, those that are not negative."""
    return [float(dz) for dz in (np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 1.0)) if dz >= 0]


def fraction_fixed(plant, pattern):
    """Whether the relay image of the Fraction sums of the float kernel, each rounded once, is the pattern."""
    s = np.asarray(pattern, dtype=float)
    return np.array_equal(relay_vec(fraction_sums(loop_matrix(plant, s.size), s), plant.dead_zone), s)


def batch_size_example():
    """1/(1 - 0.5155147400105061 z^-1) at delay 5, 8 ulps below its threshold.

    The dead zone lies halfway between two roundings of entry 6 of K s for the pattern of
    ``test_the_batch_size_no_longer_decides``: the 3^10-row product, which puts it inside, and
    its exact sum, which clears it by 1.4e-17; the one-row product clears it too.
    """
    g = ImpulseResponse.from_rational([1.0, 0.0], [1.0, -0.5155147400105061])
    return PlantSpec.from_response(g, 5, 0.010712959694936089)


class TestOneJudge:
    def test_the_threshold_probe_never_fails_the_cross_check(self):
        # the scalar and the verdict read one vector of exact sums, so they agree at the edge, and
        # the family exists exactly below the threshold, which is 0.0 where it never exists
        for base, threshold in threshold_probe():
            assert exists_base_oscillation(base) == (threshold > 0)
            for dz in edge_zones(threshold):
                exists = exists_base_oscillation(PlantSpec(base.g0, base.delay, dz))
                assert exists == (dz < threshold), (base.g0.ratio, base.delay, dz)

    def test_the_threshold_is_the_end_of_the_base_familys_interval(self):
        # geometric plants and their rational twins: the existence test, the threshold and the
        # analyzer's records agree at dead zone 0 (so a positive threshold means the family is fixed
        # there), at the threshold and one ulp to each side of it
        rng = np.random.default_rng(0)
        for _ in range(400):
            ratio, delay = float(rng.uniform(0.05, 0.97)), int(rng.integers(1, 9))
            family = (-1,) * delay + (1,) * delay
            for twin in twin_plants(ratio, delay):
                threshold = dead_zone_threshold(twin)
                for dz in [0.0] + edge_zones(threshold):
                    plant = PlantSpec(twin.g0, twin.delay, dz)
                    exists = exists_base_oscillation(plant)
                    assert exists == (dz < threshold), (twin.g0.kind, ratio, delay, dz)
                    assert exists == (family in {r.pattern for r in period_records(plant, 2 * delay)})

    def test_the_oracle_equals_verification_on_the_base_family_at_the_edge(self):
        checked = 0
        for base, threshold in threshold_probe():
            if base.delay > 5:
                continue
            pattern = (1,) * base.delay + (-1,) * base.delay
            for dz in edge_zones(threshold):
                plant = PlantSpec(base.g0, base.delay, dz)
                fixed = fraction_fixed(plant, pattern)
                assert (pattern in brute_force_fixed_points(plant, 2 * base.delay)) == fixed
                assert (verify_fixed_point(plant, pattern) is not None) == fixed
                checked += fixed
        assert checked > 100

    def test_the_oracle_does_not_depend_on_its_block_size(self, monkeypatch):
        for ratio, delay in ((0.6185501653160004, 2), (0.3, 1), (0.45, 4), (0.7, 2), (0.5992479820325187, 2)):
            for twin in twin_plants(ratio, delay):
                for dz in edge_zones(dead_zone_threshold(twin)) + [0.0]:
                    plant = PlantSpec(twin.g0, twin.delay, dz)
                    for period in (2 * delay, 7):
                        found = []
                        for chunk in (3, 10):
                            monkeypatch.setattr(analyzer, "_ORACLE_CHUNK", chunk)
                            found.append(brute_force_fixed_points(plant, period))
                        assert found[0] == found[1], (twin.g0.kind, ratio, delay, dz, period)
        plant = batch_size_example()
        found = []
        for chunk in (3, 10):
            monkeypatch.setattr(analyzer, "_ORACLE_CHUNK", chunk)
            found.append(brute_force_fixed_points(plant, 10))
        assert found[0] == found[1]

    def test_the_batch_size_no_longer_decides(self):
        # entry 6 clears the dead zone by 1.4e-17: a product over 3^10 rows and one over this row
        # alone round it to opposite sides of the edge, and its exact sum settles it
        plant = batch_size_example()
        pattern = (-1,) + (1,) * 5 + (-1,) * 4
        assert fraction_fixed(plant, pattern)
        assert pattern in brute_force_fixed_points(plant, 10)
        assert verify_fixed_point(plant, pattern) is not None
        assert canonical_rotation(pattern) in {r.pattern for r in period_records(plant, 10)}


class TestTwins:
    def test_geometric_and_rational_twins_agree(self):
        # z/(z - r) folds to the bits of geometric r and its tail bound differs by the pole's error
        # radius only: the same bounds at delays 1-12 for 200 ratios, the same records for 40
        for k, ratio in enumerate(np.random.default_rng(17).uniform(0.05, 0.995, 200).tolist()):
            geometric, rational = (p.g0 for p in twin_plants(ratio, 1))
            assert dominance_index(geometric) == dominance_index(rational), ratio
            for delay in range(1, 13):
                bounds = [(period_bounds(p), default_pmax(p)) for p in twin_plants(ratio, delay)]
                assert bounds[0] == bounds[1], (ratio, delay)
            if k < 40:
                reports = [find_oscillations(p) for p in twin_plants(ratio, 1 + k % 12)]
                assert record_keys(reports[0].records) == record_keys(reports[1].records), ratio


class TestFindOscillations:
    def test_example_one(self):
        report = find_oscillations(geometric_plant(0.1, 9), pmax=20, oracle_pmax=12)
        assert sorted({r.period for r in report.records}) == [2, 6, 18]
        assert report.violations == []
        assert report.bounds.upper == 20

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
        full = analyzer_mod._sweep_rows  # the row (2, 1, 2, 1) is the family missed
        monkeypatch.setattr(
            analyzer_mod, "_sweep_rows", lambda ps: full(ps)[~np.all(full(ps)[:, 1:] == (2, 1, 2, 1), axis=1)]
        )
        report = find_oscillations(geometric_plant(0.1, 3, 0.8), pmax=8, oracle_pmax=8)
        assert missed not in {r.pattern for r in report.records}
        entries = [e for e in report.oracle_diff if e.pattern == missed]
        assert [(e.period, e.pattern_unimodal, e.in_analyzer) for e in entries] == [(6, True, False)]
        assert report.violations == [
            f"oracle found an unmatched single-peaked fixed pattern {missed} at period 6"
        ]

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
