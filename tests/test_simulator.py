import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayosc.analyzer import canonical_rotation, find_oscillations, verify_fixed_point
from relayosc.lti import ImpulseResponse, PlantSpec
from relayosc.simulate import (
    ClassificationFlags,
    SimulationError,
    Trajectory,
    classify,
    detect_period,
    simulate,
)
from relayosc.variation import relay_vec

from conftest import (
    reference_classify,
    reference_detect_period,
    reference_simulate,
    simulate_by_convolution,
    time_limit,
)

EXAMPLE_SEEDS = {
    18: [1] * 9 + [-1] * 9,
    6: [1, 1, 1, -1, -1, -1] * 3,
    2: [1, -1] * 9,
}


#: 59 falling taps with a negative one every seventh sample
LONG_FIR = ImpulseResponse.from_samples([1.0] + [0.93**k * (-0.5 if k % 7 == 0 else 1.0) for k in range(1, 59)])
#: a third-order rational response
ORDER_3 = ImpulseResponse.from_rational([1.0, -0.3, 0.2, 0.1], np.poly([0.9, -0.6, 0.3]))


def fast_plant(delay=9, dead_zone=0.0):
    return PlantSpec(ImpulseResponse.geometric(0.1), delay, dead_zone)


@st.composite
def loop_responses(draw):
    """A finite response for the step loop: geometric, rational of order 1-4 or up to 60 samples, negative taps allowed."""
    kind = draw(st.sampled_from(["geometric", "rational", "samples"]))
    lead_tap = st.floats(0.1, 2.0)
    tap = st.floats(-2.0, 2.0)
    if kind == "geometric":
        return ImpulseResponse.geometric(draw(st.floats(0.01, 0.99)), draw(lead_tap))
    if kind == "rational":
        order = draw(st.integers(1, 4))
        poles = draw(st.lists(st.floats(-0.95, 0.95), min_size=order, max_size=order))
        num = [draw(lead_tap)] + draw(st.lists(tap, min_size=order, max_size=order))
        return ImpulseResponse.from_rational(num, np.poly(poles))
    more = draw(st.integers(0, 59))  # a length drawn first spreads evenly up to 60 taps
    return ImpulseResponse.from_samples([draw(lead_tap)] + draw(st.lists(tap, min_size=more, max_size=more)))


@st.composite
def loop_runs(draw):
    """A finite plant (negative taps allowed), a relay seed and a horizon."""
    g = draw(loop_responses())
    dead_zone = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    plant = PlantSpec(g, draw(st.integers(0, 6)), dead_zone)
    seed = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=15))
    return plant, seed, draw(st.integers(1, 700))


def run_outcome(run, plant, seed, steps):
    """Waveform and relay bytes of a run, or the type and message of its error."""
    try:
        traj = run(plant, seed, steps)
    except (ValueError, SimulationError) as exc:
        return type(exc), str(exc)
    return traj.u.tobytes(), traj.relay_out.tobytes()


class TestSimulate:
    def test_settles_to_each_documented_period(self):
        plant = fast_plant()
        for period, seed in EXAMPLE_SEEDS.items():
            traj = simulate(plant, seed, 200)
            hit = detect_period(traj)
            assert hit is not None and hit[0] == period

    def test_matches_verified_waveform(self):
        plant = fast_plant()
        for period, seed in EXAMPLE_SEEDS.items():
            traj = simulate(plant, seed, 200)
            rec = verify_fixed_point(plant, [1] * (period // 2) + [-1] * (period // 2))
            tail = traj.u[-period:]
            # compare up to rotation via the detected canonical phase
            _, phase = detect_period(traj)
            aligned = np.roll(tail, phase)
            np.testing.assert_allclose(aligned, rec.waveform, atol=1e-9)

    def test_deterministic(self):
        plant = fast_plant()
        a = simulate(plant, EXAMPLE_SEEDS[6], 300)
        b = simulate(plant, EXAMPLE_SEEDS[6], 300)
        np.testing.assert_array_equal(a.relay_out, b.relay_out)
        np.testing.assert_array_equal(a.u, b.u)

    def test_odd_symmetry(self):
        plant = fast_plant(5)
        seed = [1, 1, -1, 0, 1, -1, -1, 1]
        a = simulate(plant, seed, 120)
        b = simulate(plant, [-s for s in seed], 120)
        np.testing.assert_array_equal(a.u, -b.u)
        np.testing.assert_array_equal(a.relay_out, -b.relay_out)

    def test_zero_seed_stays_zero(self):
        plant = fast_plant(delay=2, dead_zone=0.5)
        traj = simulate(plant, [0, 0, 0, 0], 50)
        assert not np.any(traj.u)
        assert detect_period(traj) == (1, 0)
        flags = classify(traj.u[-1:], plant)
        assert not flags.is_self_oscillation

    def test_recursion_matches_convolution_rational(self):
        num = [1.5, -0.45, 0.0]
        den = [1.0, -0.7, 0.1]
        plant = PlantSpec.from_response(ImpulseResponse.from_rational(num, den), delay=2)
        seed = [1, -1, 1, 1, -1, 0, -1, 1]
        a = simulate(plant, seed, 150)
        b = simulate_by_convolution(plant, seed, 150)
        np.testing.assert_array_equal(a.relay_out, b.relay_out)
        np.testing.assert_allclose(a.u, b.u, atol=1e-10)

    def test_recursion_matches_convolution_geometric(self):
        plant = PlantSpec(ImpulseResponse.geometric(0.8), 3, 0.2)
        seed = [1, 1, 1, -1, -1, -1]
        a = simulate(plant, seed, 200)
        b = simulate_by_convolution(plant, seed, 200)
        np.testing.assert_array_equal(a.relay_out, b.relay_out)
        np.testing.assert_allclose(a.u, b.u, atol=1e-10)

    def test_finite_samples_plant(self):
        plant = PlantSpec(ImpulseResponse.from_samples([1.0, 0.4]), 2)
        traj = simulate(plant, [1, 1, -1, -1], 100)
        hit = detect_period(traj)
        assert hit is not None and hit[0] == 4

    def test_seed_shorter_than_delay(self):
        plant = fast_plant(delay=6)
        traj = simulate(plant, [1, -1], 80)
        assert len(traj) == 80  # pre-seed history is zero, run proceeds

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            simulate(fast_plant(), [1, 2], 10)
        with pytest.raises(ValueError):
            simulate(fast_plant(), [1, -1], 0)

    def test_zero_delay_algebraic_loop(self):
        # with a dead zone the quiescent branch is consistent and decays
        plant = fast_plant(delay=0, dead_zone=0.5)
        traj = simulate(plant, [1, -1], 60)
        assert detect_period(traj) == (1, 0)
        assert abs(traj.u[-1]) < 0.5

    def test_zero_delay_chattering_is_loud(self):
        plant = fast_plant(delay=0, dead_zone=0.0)
        with pytest.raises(SimulationError, match="chatters"):
            simulate(plant, [1, -1], 60)

    @pytest.mark.parametrize(
        "g",
        [
            (ImpulseResponse.from_samples, [1.0, float("nan")]),
            (ImpulseResponse.from_samples, [1.0, float("inf")]),
            (ImpulseResponse.geometric, 0.5, float("inf")),
        ],
    )
    def test_non_finite_response_is_refused(self, g):
        # refused where it is built; a finite response whose absolute sum overflows, when simulated
        build, *args = g
        with pytest.raises(ValueError, match="must be (positive and )?finite"):
            build(*args)
        with pytest.raises(ValueError, match="only finite responses"):
            simulate(PlantSpec(ImpulseResponse.geometric(0.5, 1e308), 1), [1, -1], 20)


class TestCycleDetection:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(loop_runs())
    def test_bitwise_equal_to_stepping_every_sample(self, run):
        plant, seed, steps = run
        assert run_outcome(simulate, plant, seed, steps) == run_outcome(reference_simulate, plant, seed, steps)

    @pytest.mark.parametrize(
        "g, delay, dead_zone, seed, period",
        [
            (LONG_FIR, 0, 2.5, [1] * 59, None),
            (LONG_FIR, 0, 3.0, [1, 1, -1, 0, 1, -1, -1, 1, 0, 1] * 3, 1),
            (LONG_FIR, 1, 0.0, [1, 1, -1, 0, 1, -1, -1, 1, 0, 1], 34),
            (LONG_FIR, 1, 0.5, [1, 1, -1, 0, 1, -1, -1, 1, 0, 1], 101),
            (LONG_FIR, 6, 0.0, [1, 1, -1, 0, 1, -1, -1, 1, 0, 1], 34),
            (LONG_FIR, 6, 0.5, [-1, 0, 1], 18),
            (ORDER_3, 0, 2.5, [1] * 59, None),
            (ORDER_3, 0, 3.5, [1] * 59, 1),
        ],
        ids=[
            "fir59-d0-chatters",
            "fir59-d0-quiet",
            "fir59-d1-period-34",
            "fir59-d1-period-101",
            "fir59-d6-period-34",
            "fir59-d6-short-seed",
            "order3-d0-chatters",
            "order3-d0-settles",
        ],
    )
    def test_long_responses_are_bitwise_equal_to_stepping_every_sample(self, g, delay, dead_zone, seed, period):
        plant = PlantSpec(g, delay, dead_zone)
        outcome = run_outcome(simulate, plant, seed, 600)
        assert outcome == run_outcome(reference_simulate, plant, seed, 600)
        if period is None:
            assert outcome[0] is SimulationError and "chatters" in outcome[1]
        else:
            assert detect_period(simulate(plant, seed, 600))[0] == period

    def test_long_horizon_costs_the_transient(self):
        plant = fast_plant()
        steps = 10**6
        for period, seed in EXAMPLE_SEEDS.items():
            with time_limit(1.0):
                long = simulate(plant, seed, steps)
            # the short run ends at the same phase of the cycle as the long
            # one, and its second half is past the transient
            short = reference_simulate(plant, seed, 400 + (steps - 400) % period)
            assert long.u[-200:].tobytes() == short.u[-200:].tobytes()
            assert long.relay_out[-200:].tobytes() == short.relay_out[-200:].tobytes()


@st.composite
def hand_built_trajectories(draw):
    """A transient then a repeated block, perhaps with one entry changed; relay values int8, int64 or float (zeros of both signs)."""
    entry = st.one_of(st.sampled_from([0.0, -0.0, 0.3, -0.3, 0.9, -0.9]), st.floats(-2.0, 2.0))
    block = draw(st.lists(entry, min_size=1, max_size=8))
    u = np.array(draw(st.lists(entry, max_size=10)) + block * draw(st.integers(1, 12)))
    dead_zone = draw(st.sampled_from([0.0, 0.2, 0.5]))
    if draw(st.booleans()):
        r = relay_vec(u, dead_zone)
    else:
        r = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=u.size, max_size=u.size)))
    dtype = draw(st.sampled_from([np.int8, np.int64, float]))
    r = r.astype(dtype)
    if dtype is float:
        r[(r == 0) & np.array(draw(st.lists(st.booleans(), min_size=u.size, max_size=u.size)))] = -0.0
    at = draw(st.integers(0, u.size - 1))
    change = draw(st.sampled_from(["none", "waveform", "relay"]))
    if change == "waveform":  # break the repetition by a little or by a lot
        u[at] += draw(st.sampled_from([1e-13, 1e-6, 1.0, float("nan")]))
    elif change == "relay" and dtype is float and draw(st.booleans()):
        r[r == r[at]] = float("nan")  # every entry of one value, so NaN repeats with the block
    elif change == "relay":
        r[at] = -1 if r[at] == 1 else 1
    plant = PlantSpec(draw(loop_responses()), draw(st.integers(0, 6)), dead_zone)
    return Trajectory(u=u, relay_out=r, seed_history=(), plant=plant)


def outcome(run, *args):
    """What a call returns, or the type and message of its ValueError (the phase of a NaN relay value)."""
    try:
        return run(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def classified(u, plant, run):
    """The flags of one period and the bits of their residual, or the error."""
    flags = outcome(run, u, plant)
    return flags, float.hex(flags.residual) if isinstance(flags, ClassificationFlags) else None


class TestPostProcessing:
    """``detect_period`` and ``classify`` return what the numpy versions in ``conftest`` return."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(loop_runs())
    def test_simulated_runs(self, run):
        plant, seed, steps = run
        try:
            traj = simulate(plant, seed, steps)
        except SimulationError:
            return
        hit = detect_period(traj)
        assert hit == reference_detect_period(traj)
        u = traj.u[-hit[0] :] if hit else traj.u[-min(steps, 12) :]
        assert classified(u, plant, classify) == classified(u, plant, reference_classify)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(hand_built_trajectories())
    def test_hand_built_trajectories(self, traj):
        assert outcome(detect_period, traj) == outcome(reference_detect_period, traj)
        for u in (traj.u[-4:], traj.u):
            assert classified(u, traj.plant, classify) == classified(u, traj.plant, reference_classify)

    def test_a_matrix_is_refused(self):
        with pytest.raises(ValueError):
            classify(np.ones((2, 2)), fast_plant())
        with pytest.raises(ValueError):
            classify([], fast_plant())


class TestDetectPeriod:
    def test_needs_enough_window(self):
        plant = fast_plant()
        traj = simulate(plant, EXAMPLE_SEEDS[18], 40)  # < 4 periods of 18
        assert detect_period(traj) is None

    def test_transient_then_periodic_tail(self):
        # synthetic: noise followed by an exactly periodic tail
        tail_u = np.array([0.9, 0.3, -0.9, -0.3])
        u = np.concatenate([np.array([5.0, -2.0, 0.7, 1.3, -4.0]), np.tile(tail_u, 12)])
        r = np.where(u > 0.5, 1, np.where(u < -0.5, -1, 0)).astype(np.int8)
        traj = Trajectory(u=u, relay_out=r, seed_history=(), plant=fast_plant(2, 0.5))
        hit = detect_period(traj)
        assert hit is not None and hit[0] == 4

    def test_nan_gap_is_no_period(self):
        u = np.full(40, np.nan)
        traj = Trajectory(u=u, relay_out=np.zeros(40, dtype=np.int8), seed_history=(), plant=fast_plant())
        assert detect_period(traj) is None

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=12),
        st.sampled_from([np.int8, np.int64]),
    )
    def test_phase_is_the_smallest_roll_to_canonical(self, pattern, dtype):
        r = np.array(pattern * 5, dtype=dtype)
        traj = Trajectory(u=r.astype(float), relay_out=r, seed_history=(), plant=fast_plant())
        period, phase = detect_period(traj)
        tail = [int(x) for x in r[-period:]]
        canon = canonical_rotation(tail)
        assert phase == next(k for k in range(period) if tuple(int(x) for x in np.roll(tail, k)) == canon)

    def test_phase_points_to_canonical(self):
        plant = fast_plant()
        traj = simulate(plant, EXAMPLE_SEEDS[6], 200)
        period, phase = detect_period(traj)
        tail = traj.relay_out[-period:]
        rolled = tuple(int(x) for x in np.roll(tail, phase))
        assert rolled == (-1, -1, -1, 1, 1, 1)


class TestClassify:
    def test_steady_states_classify_as_oscillations(self):
        plant = fast_plant()
        for period, seed in EXAMPLE_SEEDS.items():
            traj = simulate(plant, seed, 200)
            flags = classify(traj.u[-period:], plant)
            assert flags.is_self_oscillation and flags.admissible and flags.sign_symmetric
            assert flags.residual < 1e-9

    def test_dead_zone_families_roundtrip(self):
        # drive the loop from each verified family and classify the result
        plant = PlantSpec(ImpulseResponse.geometric(0.1), 3, 0.8)
        report = find_oscillations(plant, pmax=6)
        assert len(report.records) >= 2
        for rec in report.records:
            traj = simulate(plant, list(rec.pattern) * 3, 200)
            period, phase = detect_period(traj)
            assert period == rec.period
            flags = classify(traj.u[-period:], plant)
            assert flags.is_self_oscillation and flags.admissible

    def test_out_of_class_oscillation_flagged(self):
        # the mixed-run family solves the loop but is not single-peaked
        plant = PlantSpec(ImpulseResponse.geometric(0.1), 3, 0.8)
        traj = simulate(plant, [1, 0, 1, -1, 0, -1] * 3, 240)
        period, _ = detect_period(traj)
        assert period == 6
        flags = classify(traj.u[-period:], plant)
        assert flags.is_self_oscillation
        assert not flags.pattern_unimodal and not flags.admissible

    def test_constant_waveform(self):
        plant = fast_plant(2, 0.5)
        flags = classify(np.zeros(4), plant)
        assert not flags.is_self_oscillation and flags.residual == 0.0
