"""Shared reference implementations used as independent oracles.

Everything here is deliberately written the slow, literal way so the
library's optimized paths are checked against definitions rather than
against themselves.
"""

from __future__ import annotations

import contextlib
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from relayosc.analyzer import _record_from, enumerate_unimodal_patterns
from relayosc.config import DEFAULTS
from relayosc.lti import SAMPLES, ImpulseResponse, PlantSpec, loop_matrix
from relayosc.simulate import SimulationError, Trajectory, _check_seed, _num_den_taps
from relayosc.variation import cyclic_sign_changes, relay, relay_vec, sign_changes, sign_counts


def wrapped_rotation_count(v) -> int:
    """Literal cyclic variation: sup over rotations of the wrapped vector."""
    x = np.asarray(v, dtype=float)
    n = x.size
    return max(sign_changes(np.concatenate([x[i:], x[: i + 1]])) for i in range(n))


def brute_max_sign_changes(v) -> int:
    """Maximal alternations over all sign assignments of the zero entries."""
    x = np.asarray(v, dtype=float)
    zeros = np.flatnonzero(x == 0.0)
    best = -1
    for mask in range(2 ** zeros.size):
        y = x.copy()
        for j, idx in enumerate(zeros):
            y[idx] = 1.0 if (mask >> j) & 1 else -1.0
        best = max(best, sign_changes(y))
    return best


def brute_max_cyclic_sign_changes(v) -> int:
    """Maximal cyclic alternations over all sign assignments of zeros."""
    x = np.asarray(v, dtype=float)
    zeros = np.flatnonzero(x == 0.0)
    best = -1
    for mask in range(2 ** zeros.size):
        y = x.copy()
        for j, idx in enumerate(zeros):
            y[idx] = 1.0 if (mask >> j) & 1 else -1.0
        best = max(best, wrapped_rotation_count(y))
    return best


def column_cyclic_changes(matrix: np.ndarray) -> np.ndarray:
    """Cyclic sign changes of every column, vectorized over columns.

    Zero entries are deleted per column; the count walks the rows once
    and adds the wraparound comparison, matching cyclic_sign_changes for
    columns with at least one nonzero (all-zero columns report 0, which
    is fine for <= comparisons).
    """
    signs = np.sign(matrix)
    cols = matrix.shape[1]
    first = np.zeros(cols)
    prev = np.zeros(cols)
    count = np.zeros(cols, dtype=np.int64)
    for row in signs:
        live = row != 0.0
        first = np.where((first == 0.0) & live, row, first)
        count += (prev != 0.0) & live & (row != prev)
        prev = np.where(live, row, prev)
    count += (prev != 0.0) & (first != 0.0) & (first != prev)
    return count


def column_cyclic_diff(matrix: np.ndarray) -> np.ndarray:
    return np.roll(matrix, -1, axis=0) - matrix


def direct_periodic_summation(sample_fn, period: int, terms: int) -> np.ndarray:
    """Periodic summation by plain nested loops, the definition itself."""
    out = np.zeros(period)
    for i in range(period):
        for k in range(terms):
            out[i] += sample_fn(i + k * period)
    return out


def exact_geometric_fixed_point(ratio, delay: int, pattern, dead_zone=0) -> bool:
    """Whether a relay pattern is a fixed point of the geometric loop, exactly.

    The plant is g(t) = ratio**t behind ``delay`` samples of pure delay.
    Everything is ``Fraction`` arithmetic: ``ratio`` and ``dead_zone`` go
    through ``Fraction(...)``, so pass ``Fraction(9, 10)`` (or the string
    ``"9/10"``) for the decimal value; a float contributes its binary value.
    One period of the loop response is the closed-form fold

        u(t) = -sum_{m<P} s((t - d - m) mod P) * r**m / (1 - r**P),

    and its relay image is compared strictly with the pattern: u > dz
    gives +1, u < -dz gives -1, anything else (the boundary included)
    gives 0.
    """
    r = Fraction(ratio)
    dz = Fraction(dead_zone)
    s = [int(x) for x in pattern]
    period = len(s)
    fold = [r**m / (1 - r**period) for m in range(period)]
    for t in range(period):
        u = Fraction(0)
        for m in range(period):
            u -= s[(t - delay - m) % period] * fold[m]
        image = 1 if u > dz else (-1 if u < -dz else 0)
        if image != s[t]:
            return False
    return True


def reference_unimodal_patterns(period: int) -> list[tuple[int, ...]]:
    """Single-peaked patterns the literal way: every run shape, reduced by rotation.

    Builds [+^a -^b], [+^a -^b 0], [+^a 0 -^b] and [+^a 0 -^b 0] for all
    a, b >= 1, maps each to its lexicographically smallest rotation
    (-1 < 0 < 1) by trying every shift, and deduplicates through a set.
    """

    def smallest_rotation(pattern):
        return min(tuple(pattern[k:] + pattern[:k]) for k in range(len(pattern)))

    found = set()
    for zeros in range(3):
        for a in range(1, period - zeros):
            b = period - zeros - a
            if b < 1:
                continue
            shapes = {
                0: [[1] * a + [-1] * b],
                1: [[1] * a + [-1] * b + [0], [1] * a + [0] + [-1] * b],
                2: [[1] * a + [0] + [-1] * b + [0]],
            }[zeros]
            found.update(smallest_rotation(shape) for shape in shapes)
    return sorted(found)


def fraction_sums(K, s) -> np.ndarray:
    """K @ s entry by entry in ``Fraction`` arithmetic, each sum rounded to float once at the end."""
    return np.array([float(sum(Fraction(k) * int(x) for k, x in zip(row, s))) for row in np.asarray(K).tolist()])


def smallest_margins(u, s, dead_zone):
    """Per column: how far the float products u clear the relay levels s at the closest entry.

    The margin of an entry is s u - dead_zone at a level of +-1 and
    dead_zone - |u| at 0. A float product of P exact terms is off its
    exact sum by at most gamma_{P-1} sigma, well inside :func:`edge_band`:
    a pattern whose smallest margin exceeds the band is fixed, one whose
    smallest margin is below minus the band is not, and the others need
    the exact sum.
    """
    return np.where(s == 0, dead_zone - np.abs(u), s * u - dead_zone).min(axis=0)


def edge_band(K) -> float:
    """64 P u sigma, sigma the largest absolute row sum of K: a looser band than the library's."""
    return 64 * K.shape[0] * 2.0**-53 * float(np.abs(K).sum(axis=1).max())


def reference_period_records(plant, period: int, prune_sign_symmetric: bool = False, tol: float = DEFAULTS.tol):
    """The analyzer at one period, candidate by candidate: every pattern through ``K @ s``.

    A candidate within :func:`edge_band` of an edge (:func:`smallest_margins`)
    is decided again from its :func:`fraction_sums`, which are then its
    waveform. The library screens the candidates through prefix sums and
    judges only the survivors; its records, waveform bits included, must
    equal these wherever no margin falls between the library's band and
    this looser one.
    """
    K = loop_matrix(plant, period, tol)
    band = edge_band(K)
    out = []
    for pattern in enumerate_unimodal_patterns(period):
        arr = np.asarray(pattern, dtype=float)
        if prune_sign_symmetric:
            pos, neg, zero = sign_counts(arr)
            if zero == 0 and pos != neg:
                continue
        u = K @ arr
        low = smallest_margins(u, arr, plant.dead_zone)
        if abs(low) <= band:  # near an edge: the exact sum decides, and is the waveform
            u = fraction_sums(K, arr)
            fixed = np.array_equal(relay_vec(u, plant.dead_zone), arr)
        else:
            fixed = low > band
        if fixed:
            out.append(_record_from(u, arr))
    return out


@st.composite
def responses(draw):
    """A finite core response: geometric, rational of order 1-2 or samples, negative taps allowed."""
    kind = draw(st.sampled_from(["geometric", "rational", "samples"]))
    lead_tap = st.floats(0.1, 2.0)
    tap = st.floats(-2.0, 2.0)
    if kind == "geometric":
        return ImpulseResponse.geometric(draw(st.floats(0.01, 0.99)), draw(lead_tap))
    if kind == "rational":
        order = draw(st.integers(1, 2))
        poles = draw(st.lists(st.floats(-0.95, 0.95), min_size=order, max_size=order))
        num = [draw(lead_tap)] + draw(st.lists(tap, min_size=order, max_size=order))
        return ImpulseResponse.from_rational(num, np.poly(poles))
    return ImpulseResponse.from_samples([draw(lead_tap)] + draw(st.lists(tap, max_size=9)))


def reference_brute_force_fixed_points(
    plant, period: int, cap: int = DEFAULTS.oracle_cap, tol: float = DEFAULTS.tol
) -> list[tuple[int, ...]]:
    """The exhaustive oracle by integer decoding: every code's digits by // and %.

    Each chunk of 3^10 codes is decoded with P floor divisions and P
    modulos per row, cast to float64 and pushed through the loop matrix.
    Each row is judged by its :func:`smallest_margins`, and a row within
    :func:`edge_band` of an edge is decided again from its
    :func:`fraction_sums`. The library builds the same rows without
    decoding and decides each by its exact sum; its hits must equal these.
    """
    chunk = 3**10
    if period < 1:
        raise ValueError("period must be positive")
    if period > cap:
        raise ValueError(f"period {period} exceeds the oracle cap {cap} (3^P candidates)")
    K = loop_matrix(plant, period, tol)
    band = edge_band(K)
    powers = 3 ** np.arange(period, dtype=np.int64)
    total = 3**period
    found: list[tuple[int, ...]] = []
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = ((codes[:, None] // powers[None, :]) % 3 - 1).astype(np.int8)
        columns = digits.T.astype(np.float64)
        low = smallest_margins(K @ columns, columns, plant.dead_zone)
        hits = low > band
        for i in np.flatnonzero(np.abs(low) <= band):
            hits[i] = np.array_equal(relay_vec(fraction_sums(K, digits[i]), plant.dead_zone), digits[i])
        hits &= np.any(digits != 0, axis=1)
        found.extend(tuple(int(x) for x in row) for row in digits[hits])
    return sorted(found)


def reference_simulate(
    plant: PlantSpec,
    seed_history,
    steps: int,
    divergence_factor: float = DEFAULTS.divergence_factor,
) -> Trajectory:
    """The literal step loop, without cycle detection: every sample stepped.

    ``simulate`` must return these waveform and relay bytes, and raise
    the same errors, on every finite plant.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    seed = _check_seed(seed_history)
    cap = divergence_factor * plant.g0.l1_bound()
    delay = plant.delay
    dz = plant.dead_zone

    lead = len(seed)
    # relay history indexed by shifted time: r_all[i] holds r(i - lead)
    r_all = np.zeros(lead + steps, dtype=np.int8)
    r_all[:lead] = seed

    use_fir = plant.g0.kind == SAMPLES
    if use_fir:
        taps = plant.g0.values

        def fir_output(tau: int) -> float:
            acc = 0.0
            for k in range(min(taps.size, tau + lead + 1)):
                acc += taps[k] * r_all[tau - k + lead]
            return acc

    else:
        b, a = _num_den_taps(plant)
        order = a.size - 1
        # y history reaches back far enough for both the recurrence taps
        # and the delayed reads; seeded values are exact finite sums
        # because the pre-seed relay history is identically zero
        back = max(order, delay, 1)
        y_all = np.zeros(back + steps)  # y_all[i] holds y(i - back)
        g_head = plant.g0.samples(max(lead, 1))
        for tau in range(-min(back, lead), 0):
            acc = 0.0
            for k in range(tau + lead + 1):
                acc += g_head[k] * r_all[tau - k + lead]
            y_all[tau + back] = acc

        def recurrence(tau: int, r_now: int) -> float:
            """y(tau) given relay history and y(tau-1..tau-order)."""
            acc = b[0] * r_now
            for i in range(1, b.size):
                if tau - i + lead >= 0:
                    acc += b[i] * r_all[tau - i + lead]
            for j in range(1, order + 1):
                acc -= a[j] * y_all[tau - j + back]
            return acc

    g00 = plant.g0.sample(0)
    u = np.zeros(steps)
    for t in range(steps):
        tau = t - delay
        if delay >= 1:
            if use_fir:
                yt = fir_output(tau)
            elif tau < 0:
                yt = y_all[tau + back]
            else:
                yt = recurrence(tau, int(r_all[tau + lead]))
                y_all[tau + back] = yt
            u[t] = -yt
            r_all[t + lead] = relay(u[t], dz)
        else:
            # algebraic loop: y(t) = c + g0(0) * r(t); the instantaneous
            # gain is positive so at most one relay output is consistent
            if use_fir:
                c = fir_output(t) - g00 * r_all[t + lead]
            else:
                c = recurrence(t, 0)
            chosen = None
            for cand in (1, 0, -1):
                if relay(-(c + g00 * cand), dz) == cand:
                    chosen = cand
                    break
            if chosen is None:
                raise SimulationError(
                    f"no consistent relay output at step {t}: the zero-delay loop "
                    f"chatters (offset {-c:.6g}, instantaneous gain {g00:.6g})"
                )
            r_all[t + lead] = chosen
            u[t] = -(c + g00 * chosen)
            if not use_fir:
                y_all[t + back] = c + g00 * chosen
        if abs(u[t]) > cap:
            raise SimulationError(
                f"waveform magnitude {abs(u[t]):.6g} exceeded the divergence cap "
                f"{cap:.6g} at step {t}; the loop output is bounded by the response's "
                f"absolute sum, so this indicates a defect"
            )

    return Trajectory(u=u, relay_out=r_all[lead:].copy(), seed_history=tuple(seed), plant=plant)


def reference_rational_head(num, den, n: int) -> np.ndarray:
    """First n samples of num(z)/den(z) (monic den) by its recurrence, from t = 0.

    The library's rational sample cache resumes this recurrence where it
    stopped; it must give these values bit for bit.
    """
    b = np.asarray(num, dtype=float)[::-1]  # b[i] multiplies z^i
    a = np.asarray(den, dtype=float)[::-1]
    order = a.size - 1
    top = a.size - 1  # degree of the monic denominator
    g = np.zeros(n)
    for k in range(n):
        idx = top - k
        acc = b[idx] if 0 <= idx < b.size else 0.0
        for j in range(1, min(k, order) + 1):
            acc -= a[top - j] * g[k - j]
        g[k] = acc
    return g


def is_periodically_unimodal_direct(v) -> bool:
    """Rotation-based unimodality check, used as an independent oracle.

    True when some cyclic rotation of v is weakly increasing up to a
    peak and weakly decreasing after it. Constant vectors satisfy this
    (trivially monotone both ways) even though the variation-based test
    excludes them, so the two agree exactly on non-constant input.
    """
    x = np.asarray(v, dtype=float)
    n = x.size
    for k in range(n):
        d = np.diff(np.roll(x, -k))
        rises = np.flatnonzero(d > 0)
        falls = np.flatnonzero(d < 0)
        if rises.size == 0 or falls.size == 0:
            return True  # monotone within the window
        if rises.max() < falls.min():
            return True
    return False


def is_periodically_unimodal_levelsets(v) -> bool:
    """Level-set unimodality check, used as an independent oracle.

    True when the cyclic variation of v - gamma stays <= 2 for every
    real gamma. The count is piecewise constant in gamma, so it is
    enough to test gamma at each distinct entry and at midpoints of
    consecutive distinct entries.
    """
    x = np.asarray(v, dtype=float)
    levels = np.unique(x)
    gammas = np.concatenate([levels, (levels[:-1] + levels[1:]) / 2.0])
    return all(cyclic_sign_changes(x - g) <= 2 for g in gammas)


def simulate_by_convolution(plant, seed_history, steps: int, tol: float = 1e-14) -> Trajectory:
    """The closed loop by truncated direct convolution with a certified tail.

    Cross-checks the simulator's recurrence path; the two agree to the
    truncation tolerance on every overlap. Quadratic in the horizon.
    """
    if plant.delay < 1 and plant.g0.kind != SAMPLES:
        raise ValueError("the convolution reference needs a positive delay")
    seed = [int(v) for v in seed_history]
    lead = len(seed)
    depth = plant.g0.horizon(tol) if plant.g0.kind != SAMPLES else plant.g0.values.size
    taps = plant.g0.samples(depth)
    r_all = np.zeros(lead + steps, dtype=np.int8)
    r_all[:lead] = seed
    u = np.zeros(steps)
    for t in range(steps):
        tau = t - plant.delay
        acc = 0.0
        for k in range(min(depth, tau + lead + 1)):
            acc += taps[k] * r_all[tau - k + lead]
        u[t] = -acc
        r_all[t + lead] = relay(u[t], plant.dead_zone)
    return Trajectory(u=u, relay_out=r_all[lead:].copy(), seed_history=tuple(seed), plant=plant)


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run ``seconds``, so a hang fails instead of stalling."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
