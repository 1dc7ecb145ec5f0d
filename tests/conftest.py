"""Shared reference implementations used as independent oracles.

Everything here is deliberately written the slow, literal way so the
library's optimized paths are checked against definitions rather than
against themselves.
"""

from __future__ import annotations

import contextlib
import json
import signal
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import strategies as st

from relayosc.analyzer import (
    _DOMINANCE_CAP,
    AbsenceVerdict,
    OracleEntry,
    OscillationRecord,
    OscillationReport,
    PeriodBounds,
    _canonical_roll,
    _record_from,
    _rounding_bound,
    enumerate_unimodal_patterns,
)
from relayosc.config import DEFAULTS
from relayosc.lti import (
    GEOMETRIC,
    MAX_HORIZON,
    SAMPLES,
    ImpulseResponse,
    PlantSpec,
    TruncationError,
    _binom,
    _Mode,
    _series_div,
    circulant,
    cyclic_shift,
    loop_gain,
    loop_matrix,
)
from relayosc.simulate import _WINDOW, ClassificationFlags, SimulationError, Trajectory, _check_seed, _num_den_taps
from relayosc.variation import cyclic_diff, cyclic_sign_changes, relay, relay_vec, sign_changes


# -- library surface only the tests use -------------------------------------


def report_from_dict(d: dict) -> OscillationReport:
    """Rebuild a report from its JSON form (records are re-verified upstream)."""
    plant = PlantSpec.from_dict(
        {"plant": d["plant"], "delay": d["Pd"], "dead_zone": d["chi0"]}
    )
    bounds = None
    if d.get("bounds"):
        b = d["bounds"]
        bounds = PeriodBounds(
            b["delay"], b["dominance_index"], b["lower"], b["upper"], b["upper_convex"]
        )
    absence = None
    if d.get("absence"):
        absence = AbsenceVerdict(d["absence"]["applicable"], d["absence"]["reason"])
    records = [
        OscillationRecord(
            period=r["period"],
            pattern=tuple(r["pattern"]),
            waveform=tuple(r["waveform"]),
            unimodal=r["flags"]["unimodal"],
            pattern_unimodal=r["flags"]["pattern_unimodal"],
            sign_symmetric=r["flags"]["sign_symmetric"],
            is_self_oscillation=r["flags"]["is_self_oscillation"],
        )
        for r in d.get("records", [])
    ]
    oracle = [
        OracleEntry(e["period"], tuple(e["pattern"]), e["pattern_unimodal"], e["in_analyzer"])
        for e in d.get("oracle_diff", [])
    ]
    return OscillationReport(
        plant=plant,
        pmax=d["pmax"],
        bounds=bounds,
        absence=absence,
        records=records,
        oracle_pmax=d.get("oracle_pmax", 0),
        oracle_diff=oracle,
        violations=list(d.get("violations", [])),
    )




def subharmonic_periods(delay: int) -> list[int]:
    """All even periods of the form 2*delay / odd divisor, descending.

    These are the periods at which the half-and-half family persists
    once the base-period oscillation exists and the dead zone stays
    below the threshold; includes 2*delay itself.
    """
    if delay < 1:
        raise ValueError("delay must be at least 1")
    periods = []
    for d in range(1, delay + 1):
        if delay % d == 0 and d % 2 == 1:
            periods.append(2 * delay // d)
    return sorted(periods, reverse=True)




def random_unimodal_vector(rng: np.random.Generator, n: int, integer: bool = False) -> np.ndarray:
    """Random vector whose cyclic difference variation is at most 2.

    Built constructively: a rise to a peak followed by a fall, with
    random breakpoints and levels, then a random rotation. Covers
    plateaus and repeated values; with ``integer`` the levels are small
    integers so exact ties are frequent.
    """
    if n < 1:
        raise ValueError("n must be positive")
    peak = int(rng.integers(1, n + 1))
    if integer:
        levels = rng.integers(0, 4, size=n).astype(float)
    else:
        levels = rng.uniform(-1.0, 1.0, size=n)
    head = np.sort(levels[:peak])
    tail = np.sort(levels[peak:])[::-1]
    return np.roll(np.concatenate([head, tail]), int(rng.integers(0, n)))


@dataclass(frozen=True, eq=False)
class PreservationCheck:
    """Result of the randomized preservation probe."""

    ok: bool
    counterexample: Optional[np.ndarray]
    trials: int


def check_unimodal_preservation(
    v,
    trials: int = 200,
    seed: int = 0,
    dead_zone: float = 0.0,
) -> PreservationCheck:
    """Probe whether the relay image of v generates a variation-safe circulant.

    Draws ``trials`` random low-variation inputs w and checks that the
    circulant generated by relay(v) keeps the cyclic difference
    variation of the output at most 2. Returns the first violating w if
    one is found. When the relay image has zero-resolved cyclic
    variation <= 2 no counterexample can exist; the probe is most useful
    for falsifying generators outside that class.
    """
    x = np.asarray(v, dtype=float)
    pattern = relay_vec(x, dead_zone).astype(float)
    rng = np.random.default_rng(seed)
    n = x.size
    for _ in range(trials):
        w = random_unimodal_vector(rng, n, integer=bool(rng.integers(0, 2)))
        out = circulant_apply(pattern, w)
        if cyclic_sign_changes(cyclic_diff(out)) > 2:
            return PreservationCheck(False, w, trials)
    return PreservationCheck(True, None, trials)




def circulant_apply(v, w) -> np.ndarray:
    """Cyclic convolution of v and w, i.e. circulant(v) @ w; commutes in its arguments."""
    x = np.asarray(v, dtype=float)
    y = np.asarray(w, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("circulant_apply needs two equal-length vectors")
    return circulant(x) @ y




def load_plant(path) -> PlantSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return PlantSpec.from_dict(json.load(fh))


def save_plant(plant: PlantSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plant.to_dict(), fh, indent=2)
        fh.write("\n")


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


def exact_rational_fold(num, den, period: int) -> list:
    """One period of the fold of num(z)/den(z), in Fraction arithmetic on the float coefficients.

    The fold solves the recurrence wrapped onto one period: sum_j den_j gbar((i - j) mod P)
    is the sum of the numerator's coefficients of z^-t over t = i mod P. The P x P system is
    solved by Gauss-Jordan elimination; it is regular because no pole lies on the unit circle.
    """
    rows = [[Fraction(0)] * (period + 1) for _ in range(period)]
    for t, x in enumerate([0.0] * (len(den) - len(num)) + list(num)):
        rows[t % period][period] += Fraction(x)
    for i in range(period):
        for j, x in enumerate(den):
            rows[i][(i - j) % period] += Fraction(x)
    for col in range(period):
        pivot = next(r for r in range(col, period) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(period):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][period] / rows[i][i] for i in range(period)]


def fold_error_bound(g, period: int) -> np.ndarray:
    """The stated error bound of the closed-form rational fold, entry by entry.

    For each mode (pole c of multiplicity m, coefficients b_j, error radius R >= |c| and
    amplitudes A_j >= |b_j|), with F_j(i) = sum_s C(i + sP, j) R^(i + sP - j) the fold of its
    j-th term at R, the bound is

        2 sum_j [(A_j - |b_j|) F_j(i) + A_j (R - |c|) (j + 1) F_{j+1}(i)]
        + 64 (n + 2) u [sum_j A_j F_j(i) (1 + 1 / (1 - R^P)) + sum_{t < h, t = i mod P} |g(t)|]

    summed over the modes (n the order, u the unit roundoff, h the head). The first line is
    the first-order effect of the errors of the poles and coefficients, counted twice because
    the head corrections carry it once more; the second is the rounding of the closed form.
    """
    u = 2.0**-53
    modes, head = g._modes[:2]
    model = np.zeros(period)
    scale = np.zeros(period)
    for mode in modes:
        c, b, R, A, anchor = mode
        m = b.size
        F = [reference_mode_fold(_Mode(R, np.eye(m + 1)[j], R, None, anchor), period) for j in range(m + 1)]
        for j in range(m):
            model += 2 * ((A[j] - abs(b[j])) * F[j] + A[j] * (R - abs(c)) * (j + 1) * F[j + 1])
            scale += A[j] * F[j] * (1 + 1 / (1 - R**period))
    np.add.at(scale, np.arange(head.size) % period, np.abs(head))
    return model + 64 * (g.den.size + 1) * u * scale


# -- one period at a time: the folds, generators and prefix sums the sweep's tables replace --


def reference_mode_fold(mode: _Mode, period: int) -> np.ndarray:
    """One mode folded at one period: per term (1/j!) d^j/dc^j c^e / (1 - c^P) at e = (i - anchor) mod P, i < P."""
    c, b = mode.pole, mode.coeffs
    e = (np.arange(period) - mode.anchor) % period
    out = b[0] * c**e / (1.0 - c**period)
    if b.size > 1:
        top = [_binom(e, k) * c ** np.maximum(e - k, 0) for k in range(b.size)]
        bottom = [1.0 - c**period] + [-_binom(period, k) * c ** (period - k) for k in range(1, b.size)]
        out = out + sum(b[j] * q for j, q in enumerate(_series_div(top, bottom)) if j)
    return np.real(out)


def reference_periodic_summation(g: ImpulseResponse, period: int) -> np.ndarray:
    """The fold of g at one period alone; each row of ``lti._fold_table`` must have its bits."""
    if g.kind == GEOMETRIC:
        return g.gain * g.ratio ** np.arange(period) / (1.0 - g.ratio**period)
    if g.kind == SAMPLES:
        n = g.values.size
        padded = np.zeros(-(-n // period) * period)
        padded[:n] = g.values
        return padded.reshape(-1, period).sum(axis=0)
    modes, _, corrections, _ = g._modes
    vals = np.zeros(period)
    for mode in modes:
        vals = vals + reference_mode_fold(mode, period)
    np.add.at(vals, np.arange(corrections.size) % period, corrections)
    return vals


def reference_generator(fold: np.ndarray, delay: int) -> tuple[np.ndarray, float]:
    """(the fold rotated down by the delay, the loop generator's bits; its tau from sum |c| over that rotation)."""
    c = cyclic_shift(fold, delay % fold.size)
    return c, _rounding_bound(fold.size, float(np.abs(c).sum()))


def reference_prefix_sums(gens: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prefix sums of (c, c) of every period of ``gens`` one after the other, start of each, tau of each).

    ``gens`` maps a period to its :func:`reference_generator`; the two tables are indexed by period.
    """
    size = max(gens) + 1
    offset, tau = np.zeros(size, dtype=np.int64), np.zeros(size)
    prefixes = [np.concatenate(([0.0], np.cumsum(np.concatenate((c, c))))) for c, _ in gens.values()]
    periods = np.fromiter(gens, dtype=np.int64, count=len(gens))
    offset[periods] = np.cumsum(2 * periods + 1) - (2 * periods + 1)
    tau[periods] = [t for _, t in gens.values()]
    return np.concatenate(prefixes), offset, tau


def reference_circulant(v) -> np.ndarray:
    """The circulant with first column v gathered through an n x n index array: entry (i, j) is v[(i - j) mod n]."""
    x = np.asarray(v, dtype=float)
    idx = np.arange(x.size)
    return x[(idx[:, None] - idx[None, :]) % x.size]


def batch_table_cases() -> list:
    """(response, periods) whose batch tables are checked row by row against one period at a time.

    Geometric responses with gains other than 1 up to P = 3000 and their rational twins, complex
    pole pairs, a double pole, roots 1e-9 apart that cluster into one, two near simple poles, and
    finite supports shorter and longer than the periods.
    """
    rng = np.random.default_rng(27)

    def periods(top):
        return sorted({1, 2, top, *rng.integers(1, top, 25).tolist()})

    cases = []
    for ratio, gain in ((0.3, 1.0), (0.9, 2.5), (0.999, 0.37), (0.9999, 1.7)):
        cases.append((ImpulseResponse.geometric(ratio, gain), periods(3000)))
        cases.append((ImpulseResponse.from_rational([gain, 0.0], [1.0, -ratio]), periods(400)))  # its twin
    for radius, angle in ((0.5, 0.3), (0.9, 2.0), (0.97, 0.05)):
        pair = [radius * np.exp(1j * angle), radius * np.exp(-1j * angle)]
        cases.append((ImpulseResponse.from_rational([1.0, -0.4, 0.2], np.real(np.poly(pair))), periods(400)))
        cases.append((ImpulseResponse.from_rational([0.5, 0.1, 0.0, 0.3], np.real(np.poly(pair + [-0.6]))), periods(200)))
    for gap in (0.0, 1e-9, 1e-6):
        cases.append((ImpulseResponse.from_rational([1.0, 0.2, -0.1, 0.05], np.poly([0.8, 0.8 + gap, 0.3])), periods(400)))
    for length in (1, 7, 60):
        taps = [float(rng.uniform(0.1, 2.0))] + rng.uniform(-1.0, 2.0, length - 1).tolist()
        cases.append((ImpulseResponse.from_samples(taps), periods(120)))
    return cases


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


def reference_period_records(plant, period: int):
    """The analyzer at one period, candidate by candidate: every pattern through ``K @ s``.

    A candidate within :func:`edge_band` of an edge (:func:`smallest_margins`)
    is decided again from its :func:`fraction_sums`, which are then its
    waveform. The library screens the candidates through prefix sums and
    judges only the survivors; its records, waveform bits included, must
    equal these wherever no margin falls between the library's band and
    this looser one.
    """
    K = loop_matrix(plant, period)
    band = edge_band(K)
    out = []
    for pattern in enumerate_unimodal_patterns(period):
        arr = np.asarray(pattern, dtype=float)
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


def reference_brute_force_fixed_points(plant, period: int, cap: int = DEFAULTS.oracle_cap) -> list[tuple[int, ...]]:
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
    K = loop_matrix(plant, period)
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


def reference_simulate(plant: PlantSpec, seed_history, steps: int) -> Trajectory:
    """The literal step loop, without cycle detection: every sample stepped.

    ``simulate`` must return these waveform and relay bytes, and raise
    the same errors, on every finite plant.
    """
    if steps <= 0:
        raise ValueError("steps must be positive")
    seed = _check_seed(seed_history)
    cap = DEFAULTS.divergence_factor * plant.g0.l1_bound()
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


def reference_sign_changes(v) -> int:
    """The numpy sign-change count along the vector: -1 for the zero vector."""
    x = np.asarray(v, dtype=float)
    s = np.sign(x[x != 0.0])
    if s.size == 0:
        return -1
    return int(np.count_nonzero(s[1:] != s[:-1]))


def reference_max_sign_changes(v) -> int:
    """The numpy zero-resolved count: each zero greedily takes the sign opposite to its left neighbour's."""
    s = np.sign(np.asarray(v, dtype=float)).astype(np.int8)
    if not s.any():
        return s.size - 1
    nz = np.flatnonzero(s)
    first = nz[0]
    for i in range(first - 1, -1, -1):  # leading zeros, filled backwards from the first nonzero entry
        s[i] = -s[i + 1]
    prev = s[first]
    for i in range(first + 1, s.size):
        if s[i] == 0:
            s[i] = -prev
        prev = s[i]
    return reference_sign_changes(s)


def reference_cyclic_sign_changes(v) -> int:
    """The numpy cyclic sign-change count: -1 for the zero vector."""
    s = np.sign(np.asarray(v, dtype=float))
    nz = s[s != 0.0]
    if nz.size == 0:
        return -1
    return int(np.count_nonzero(nz != np.roll(nz, 1)))


def reference_max_cyclic_sign_changes(v) -> int:
    """The numpy zero-resolved cyclic sign-change count, gap by gap between nonzero entries."""
    x = np.asarray(v, dtype=float)
    s = np.sign(x).astype(np.int8)
    n = x.size
    if not s.any():
        return n if n % 2 == 0 else n - 1
    nz = [int(i) for i in np.flatnonzero(s)]
    total = 0
    m = len(nz)
    for i in range(m):
        a = s[nz[i]]
        b = s[nz[(i + 1) % m]]
        gap = (nz[(i + 1) % m] - nz[i] - 1) % n
        want_odd = 1 if a != b else 0
        total += gap + 1 if (gap + 1) % 2 == want_odd else gap
    return int(total)


def reference_flags(u, pattern) -> tuple[int, bool, bool]:
    """The numpy flags: u's cyclic-difference variation, the pattern single-peaked, sign-symmetric.

    ``variation._flags`` must return these on every finite waveform and relay pattern.
    """
    x = np.asarray(u, dtype=float)
    p = np.asarray(pattern, dtype=float)
    return (
        reference_cyclic_sign_changes(np.roll(x, -1) - x),
        reference_max_cyclic_sign_changes(p) == 2,
        int(np.count_nonzero(p > 0)) == int(np.count_nonzero(p < 0)),
    )


def reference_detect_period(traj: Trajectory, tol: float = DEFAULTS.detect_tol) -> Optional[tuple[int, int]]:
    """The numpy period search: one ``np.array_equal`` of the relay window per candidate period."""
    r = traj.relay_out
    u = traj.u
    total = u.size
    for period in range(1, total // _WINDOW + 1):
        span = _WINDOW * period
        rs = r[total - span :]
        us = u[total - span :]
        if not np.array_equal(rs[period:], rs[:-period]):
            continue
        gap = np.max(np.abs(us[period:] - us[:-period]))
        if not gap <= tol:
            continue
        return period, _canonical_roll(r[total - period :])
    return None


def reference_classify(u_period, plant: PlantSpec, tol: float = DEFAULTS.detect_tol) -> ClassificationFlags:
    """The classification through ``loop_gain`` and the numpy flags."""
    u = np.asarray(u_period, dtype=float)
    pattern = relay_vec(u, plant.dead_zone)
    response = loop_gain(plant, pattern)
    residual = float(np.max(np.abs(response - u)))
    diff_var, pattern_unimodal, symmetric = reference_flags(u, pattern)
    return ClassificationFlags(
        pattern=tuple(int(x) for x in pattern),
        residual=residual,
        is_self_oscillation=residual <= tol and diff_var >= 2,
        unimodal=diff_var == 2,
        pattern_unimodal=pattern_unimodal,
        sign_symmetric=symmetric,
    )


def reference_dominance_index(g0: ImpulseResponse) -> int:
    """The dominance walk in blocks of 4, 8, 16, ... terms: the library's walk with other block lengths.

    Each t's gap depends on the samples before t, added one after the
    other, and on t's own tail bound, so ``dominance_index`` must return
    this index, or raise this error, whatever block lengths it takes.
    """
    acc, mass, start, block = 0.0, 0.0, 1, 4
    while start <= _DOMINANCE_CAP:
        stop = min(start + block, _DOMINANCE_CAP + 1)
        t = np.arange(start, stop)
        head = g0.samples(stop - 1)[start - 1 :]
        sums = np.cumsum(np.concatenate(([acc], head)))[1:]
        masses = np.cumsum(np.concatenate(([mass], np.abs(head))))[1:]
        tails = g0.tail_bounds(t)
        won = sums - tails > (t + 2) * 2.0**-53 * masses
        ends = np.flatnonzero(won | (tails == 0.0))
        if ends.size:
            if won[ends[0]]:
                return int(t[ends[0]])
            raise TruncationError("partial sum never outweighs the tail: the tail bound is exhausted")
        acc, mass, start, block = sums[-1], masses[-1], stop, 2 * block
    raise TruncationError("partial-sum dominance undecidable within the horizon")


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


def horizon(g: ImpulseResponse, tol: float) -> int:
    """Smallest n (power-of-two refined) with g.tail_bound(n) < tol."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if g.tail_bound(0) < tol:
        return 1
    n = 1
    while g.tail_bound(n) >= tol:
        n *= 2
        if n > MAX_HORIZON:
            raise TruncationError(
                f"tail bound cannot reach {tol:g} within {MAX_HORIZON} samples"
            )
    lo, hi = n // 2, n
    while lo < hi:
        mid = (lo + hi) // 2
        if g.tail_bound(mid) < tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


def simulate_by_convolution(plant, seed_history, steps: int, tol: float = 1e-14) -> Trajectory:
    """The closed loop by truncated direct convolution with a certified tail.

    Cross-checks the simulator's recurrence path; the two agree to the
    truncation tolerance on every overlap. Quadratic in the horizon.
    """
    if plant.delay < 1 and plant.g0.kind != SAMPLES:
        raise ValueError("the convolution reference needs a positive delay")
    seed = [int(v) for v in seed_history]
    lead = len(seed)
    depth = horizon(plant.g0, tol) if plant.g0.kind != SAMPLES else plant.g0.values.size
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
