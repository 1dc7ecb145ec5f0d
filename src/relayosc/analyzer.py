"""Fixed-point search, period bounds and existence tests for relay loops.

A periodic solution of the closed loop is a waveform u over one period
whose relay image, pushed through the delayed plant and negated,
reproduces u. Because the relay output determines the waveform, the
search space is finite: candidate sign patterns over one period. The
analyzer enumerates the single-peaked candidates (one positive run, one
negative run, optionally separated by single zeros), screens each in O(1)
in batches of many periods, verifies every survivor as a fixed point, and
annotates the findings against the provable period bounds. An exhaustive
oracle over all 3^P patterns provides the independent cross-check and also
surfaces oscillations outside the single-peaked class.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULTS
from .lti import (
    ImpulseResponse,
    PlantSpec,
    TruncationError,
    check_monotone_decay,
    circulant,
    cyclic_shift,
    is_convex_on_support,
    loop_matrix,
    periodic_summation,
)
from .variation import _flags, _resolved_changes, relay_vec

__all__ = [
    "InternalCheckError",
    "OscillationRecord",
    "PeriodBounds",
    "AbsenceVerdict",
    "OracleEntry",
    "OscillationReport",
    "dominance_index",
    "period_bounds",
    "canonical_rotation",
    "enumerate_unimodal_patterns",
    "verify_fixed_point",
    "period_records",
    "exists_base_oscillation",
    "dead_zone_threshold",
    "check_absence",
    "brute_force_fixed_points",
    "oracle_families",
    "find_oscillations",
    "default_pmax",
]

#: low base-3 digits per oracle block, the first fixed at -1 (3**9 patterns per block)
_ORACLE_CHUNK = 10
#: candidate rows the analyzer screens at once, which bounds the screen's temporaries at any pmax
_SCREEN_ROWS = 2048


class InternalCheckError(AssertionError):
    """A cross-assertion that must hold for decaying plants failed."""


# -- records and reports ------------------------------------------------


@dataclass(frozen=True)
class OscillationRecord:
    """A verified periodic solution, reported once per rotation family.

    ``pattern`` is the lexicographically smallest rotation of the relay
    output; ``waveform`` is the matching loop response (its relay image
    equals ``pattern`` exactly). Every cyclic shift of the pattern is a
    fixed pattern of the same loop, so the family is reported once; its
    JSON form lists every shift as a valid phase.
    """

    period: int
    pattern: tuple[int, ...]
    waveform: tuple[float, ...]
    unimodal: bool
    pattern_unimodal: bool
    sign_symmetric: bool
    is_self_oscillation: bool

    @property
    def admissible(self) -> bool:
        """Single-peaked waveform with a single-peaked relay pattern."""
        return self.unimodal and self.pattern_unimodal

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "pattern": list(self.pattern),
            "waveform": list(self.waveform),
            "flags": {
                "unimodal": self.unimodal,
                "pattern_unimodal": self.pattern_unimodal,
                "admissible": self.admissible,
                "sign_symmetric": self.sign_symmetric,
                "is_self_oscillation": self.is_self_oscillation,
            },
            "phases": list(range(self.period)),
        }


@dataclass(frozen=True)
class PeriodBounds:
    """Provable period window for single-peaked oscillations with P >= delay.

    ``lower`` is twice the delay and no admissible oscillation has a
    period strictly between the delay and that value. ``upper`` adds
    twice the dominance index of the core response. ``upper_convex`` is
    the tighter 4 * delay + 2 available when the core response is convex
    on its support (meaningful for delay >= 2).
    """

    delay: int
    dominance_index: int
    lower: int
    upper: int
    upper_convex: Optional[int]

    def to_dict(self) -> dict:
        return {
            "delay": self.delay,
            "dominance_index": self.dominance_index,
            "lower": self.lower,
            "upper": self.upper,
            "upper_convex": self.upper_convex,
        }


@dataclass(frozen=True)
class AbsenceVerdict:
    applicable: bool
    reason: str

    def to_dict(self) -> dict:
        return {"applicable": self.applicable, "reason": self.reason}


@dataclass(frozen=True)
class OracleEntry:
    """An oracle-found fixed pattern family and whether the analyzer recorded it too."""

    period: int
    pattern: tuple[int, ...]
    pattern_unimodal: bool
    in_analyzer: bool

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "pattern": list(self.pattern),
            "pattern_unimodal": self.pattern_unimodal,
            "in_analyzer": self.in_analyzer,
        }


@dataclass
class OscillationReport:
    """Everything one analysis run produced, JSON-serializable."""

    plant: PlantSpec
    pmax: int
    bounds: Optional[PeriodBounds]
    absence: Optional[AbsenceVerdict]
    records: list[OscillationRecord]
    oracle_pmax: int = 0
    oracle_diff: list[OracleEntry] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = self.plant.to_dict()
        return {
            "plant": d["plant"],
            "Pd": d["delay"],
            "chi0": d["dead_zone"],
            "pmax": self.pmax,
            "bounds": self.bounds.to_dict() if self.bounds else None,
            "absence": self.absence.to_dict() if self.absence else None,
            "records": [r.to_dict() for r in self.records],
            "oracle_pmax": self.oracle_pmax,
            "oracle_diff": [e.to_dict() for e in self.oracle_diff],
            "violations": list(self.violations),
        }


# -- bounds ---------------------------------------------------------------

#: the last t :func:`dominance_index` tries
_DOMINANCE_CAP = 1_000_000


def dominance_index(g0: ImpulseResponse) -> int:
    """Smallest t >= 1 whose leading partial sum strictly outweighs the tail.

    That is, the first t with sum_{k<t} g0(k) - sum_{k>=t} g0(k) > 0,
    the tail evaluated through the certified bound. The gap counts as
    positive when it clears the rounding of the partial sum and of the
    subtraction, (t + 2) u sum_{k<t} |g0(k)| (u = 2^-53), which scales
    with the response, so scaling the gain leaves the index unchanged. If
    the tail bound reaches zero first, or the walk passes
    ``_DOMINANCE_CAP``, the call fails rather than guess. The walk goes
    in blocks of 64, 256, 1024, ... terms: ``np.cumsum`` adds the samples
    one after the other, as a plain loop would, and :meth:`ImpulseResponse.tail_bounds`
    bounds each t's tail on its own, so the block lengths change no index and no failure.
    """
    acc, mass, start, block = 0.0, 0.0, 1, 64
    while start <= _DOMINANCE_CAP:
        stop = min(start + block, _DOMINANCE_CAP + 1)
        t = np.arange(start, stop)
        head = g0.samples(stop - 1)[start - 1 :]
        sums = np.cumsum(np.concatenate(([acc], head)))[1:]
        masses = np.cumsum(np.concatenate(([mass], np.abs(head))))[1:]
        tails = g0.tail_bounds(t)
        # certified lower enclosure of the gap: partial sum minus tail bound
        won = sums - tails > (t + 2) * 2.0**-53 * masses
        ends = np.flatnonzero(won | (tails == 0.0))
        if ends.size:
            if won[ends[0]]:
                return int(t[ends[0]])
            # nothing is left to add, so no later t can win
            raise TruncationError("partial sum never outweighs the tail: the tail bound is exhausted")
        acc, mass, start, block = sums[-1], masses[-1], stop, 4 * block
    raise TruncationError("partial-sum dominance undecidable within the horizon")


def period_bounds(plant: PlantSpec) -> PeriodBounds:
    """Period window for single-peaked oscillations with P >= delay.

    Requires delay >= 1. The convex tightening is attached whenever the
    core response is convex on its support; it is provable for delay >= 2
    and reported (and empirically valid) at delay 1 as well.
    """
    if plant.delay < 1:
        raise ValueError("period bounds require a positive delay")
    ps = dominance_index(plant.g0)
    convex = is_convex_on_support(plant.g0)
    return PeriodBounds(
        delay=plant.delay,
        dominance_index=ps,
        lower=2 * plant.delay,
        upper=2 * (plant.delay + ps),
        upper_convex=4 * plant.delay + 2 if convex else None,
    )


def default_pmax(plant: PlantSpec) -> int:
    """Default sweep ceiling: the provable upper bound plus ``DEFAULTS.pmax_slack``.

    Nothing single-peaked exists beyond the bound, so the slack exists
    to detect bound violations as loud failures instead of silence.
    """
    return _ceiling(plant, period_bounds(plant) if plant.delay >= 1 else None)


def _ceiling(plant: PlantSpec, bounds: Optional[PeriodBounds]) -> int:
    """The default pmax from the plant's bounds; without a delay, from twice (1 + its dominance index)."""
    upper = bounds.upper if bounds else 2 * (1 + dominance_index(plant.g0))
    return upper + DEFAULTS.pmax_slack


# -- pattern enumeration --------------------------------------------------


def _canonical_roll(pattern) -> int:
    """The smallest k for which ``np.roll(pattern, k)`` is the canonical rotation (:func:`canonical_rotation`)."""
    s = [int(x) for x in pattern]
    n = len(s)
    rolls = [s[n - k :] + s[: n - k] for k in range(n)]
    return rolls.index(min(rolls))


def canonical_rotation(pattern) -> tuple[int, ...]:
    """Lexicographically smallest cyclic rotation (-1 < 0 < 1): the pattern rolled by :func:`_canonical_roll`."""
    s = [int(x) for x in pattern]
    k = len(s) - _canonical_roll(s)
    return tuple(s[k:] + s[:k])


def enumerate_unimodal_patterns(period: int) -> list[tuple[int, ...]]:
    """All single-peaked relay patterns of a given length, one per rotation family.

    The run shapes [+^a -^b], [+^a -^b 0], [+^a 0 -^b] and [+^a 0 -^b 0]
    (a, b >= 1) are emitted directly in canonical rotation [-^b z1 +^a z2],
    z1 and z2 each empty or one zero. Every returned pattern has
    zero-resolved cyclic variation exactly 2, and these are the only
    fixed-point candidates with that property (one-signed patterns can
    never match the sign-flipped loop output).
    """
    if period < 2:
        raise ValueError("patterns need at least two entries")
    return [(-1,) * b + (0,) * z1 + (1,) * a + (0,) * z2 for _, b, z1, a, z2 in _sweep_rows([period]).tolist()]


def _sweep_rows(periods) -> np.ndarray:
    """Rows (P, b, z1, a, z2) of [-^b 0^z1 +^a 0^z2], period by period: longer negative runs, then zeros, first."""
    periods = np.asarray(periods, dtype=np.int64)
    n = 4 * (periods - 1)  # b = P - 1 .. 1, each with (z1, z2) = (1, 1), (1, 0), (0, 1), (0, 0)
    P = np.repeat(periods, n)
    k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    b, z1, z2 = P - 1 - k // 4, 1 - (k >> 1 & 1), 1 - (k & 1)
    rows = np.stack([P, b, z1, P - b - z1 - z2, z2], axis=1)
    return rows[rows[:, 3] >= 1]


# -- fixed-point verification ----------------------------------------------


def _record_from(u: np.ndarray, pattern: np.ndarray) -> OscillationRecord:
    """The record of a fixed pattern in its canonical rotation and its waveform."""
    diff_var, pattern_unimodal, symmetric = _flags(u, pattern)
    return OscillationRecord(
        period=int(u.size),
        pattern=tuple(int(x) for x in pattern),
        waveform=tuple(float(x) for x in u),
        unimodal=diff_var == 2,
        pattern_unimodal=pattern_unimodal,
        sign_symmetric=symmetric,
        is_self_oscillation=diff_var >= 2,
    )


def verify_fixed_point(plant: PlantSpec, pattern) -> Optional[OscillationRecord]:
    """Check one relay pattern as a fixed point of the loop, through :func:`_judge`.

    Returns a record when the relay image of the loop response equals
    the pattern exactly (strict inequalities, no tolerance: an entry on
    the dead-zone boundary quantizes to 0 and fails a +-1 slot). Absence
    is the None return, not an error. The pattern is judged in its
    canonical rotation, so every rotation of a family gets one record,
    waveform bits included.
    """
    s = np.asarray(pattern, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("pattern must have at least two entries")
    if not np.all(np.isin(s, (-1.0, 0.0, 1.0))):
        raise ValueError("pattern entries must lie in {-1, 0, +1}")
    s = np.roll(s, _canonical_roll(s))
    K = loop_matrix(plant, s.size)
    u = _judge(K, s, plant.dead_zone, _rounding_bound(s.size, float(np.abs(K).sum(axis=1).max())))
    if u is None:
        return None
    return _record_from(u, s)


def _rounding_bound(period: int, sigma: float) -> float:
    """tau = 18 P u sigma (u = 2^-53), the rounding allowance of the judge and of both screens.

    Entry i of K @ s sums P exact terms (s_j in {-1, 0, 1}) of absolute sum at most sigma, in an
    order BLAS picks, so the product is off by at most gamma_{P-1} sigma (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.1, 4.2). Each screen derives why tau also covers
    its own estimate of the entry. A kernel whose 8 sigma is not finite is refused; below that, no
    sum that the judge or a screen forms overflows.
    """
    if not np.isfinite(8 * sigma):
        raise ValueError(f"loop kernel too large to decide at period {period}: its absolute sum is {sigma:g}")
    return 18 * period * 2.0**-53 * sigma


def _margin(u, level, dead_zone: float):
    """How far u clears the relay interval of ``level``: level u - dead_zone for +-1, dead_zone - |u| for 0."""
    if np.ndim(level) == 0:  # one level for every entry
        return dead_zone - np.abs(u) if level == 0 else level * u - dead_zone
    return np.where(level, level * u - dead_zone, dead_zone - np.abs(u))


def _exact_sums(K: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The correctly rounded sums of K[i, j] s_j by ``math.fsum``; each product is exact, s_j being -1, 0 or 1."""
    return np.array([math.fsum(row) for row in (K * s).tolist()])


def _judge(K: np.ndarray, s: np.ndarray, dead_zone: float, tau: float) -> Optional[np.ndarray]:
    """The waveform of relay pattern s when s is a fixed point of K, else None: every relay decision's judge.

    s is fixed when the relay image of its exact sums (:func:`_exact_sums`) is s: a function of the
    float kernel alone, whatever the summation order or batch size. K @ s is off those sums by less
    than tau (:func:`_rounding_bound`), with room for their own rounding. Rounding is monotone and
    -tau a float, so a smallest rounded margin (:func:`_margin`) below -tau rejects s, and one above
    tau accepts it with the waveform K @ s. Any other row is decided by its exact sums, then its
    waveform. Negated rows have negated products, margins and sums, so -s gets the verdict of s.
    """
    u = K @ s
    smallest = _margin(u, s, dead_zone).min()
    if smallest > tau:
        return u
    if smallest < -tau:
        return None
    u = _exact_sums(K, s)
    return u if np.array_equal(relay_vec(u, dead_zone), s) else None


#: (waveform entry, relay level) of each screened slot of the rows (P, b, z1, z2), most selective
#: first: 12, 23, 23, 41, 81 and 81% of the long-period benchmark's candidates pass each one alone
_SLOTS = (
    lambda P, b, z1, z2: (P - 1, 1 - z2),  # the last entry: a trailing zero, else the positive run
    lambda P, b, z1, z2: (b - 1, -1),  # the end of the negative run
    lambda P, b, z1, z2: (P - 1 - z2, 1),  # the end of the positive run
    lambda P, b, z1, z2: (b, 1 - z1),  # after the negative run: a zero, else the positive run
    lambda P, b, z1, z2: (0, -1),  # the start of the negative run
    lambda P, b, z1, z2: (b + z1, 1),  # the start of the positive run
)


def _prefix_sums(gens: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prefix sums of (c, c) of every period of ``gens`` one after the other, start of each, tau of each).

    ``gens`` maps a period to its generator c and tau (:func:`_generator`); the two tables are indexed by period.
    """
    size = max(gens) + 1
    offset, tau = np.zeros(size, dtype=np.int64), np.zeros(size)
    prefixes = [np.concatenate(([0.0], np.cumsum(np.concatenate((c, c))))) for c, _ in gens.values()]
    periods = np.fromiter(gens, dtype=np.int64, count=len(gens))
    offset[periods] = np.cumsum(2 * periods + 1) - (2 * periods + 1)
    tau[periods] = [t for _, t in gens.values()]
    return np.concatenate(prefixes), offset, tau


def _entries(prefix: np.ndarray, rows: np.ndarray, offset, slot) -> np.ndarray:
    """u_hat at ``slot`` of each row (P, b, z1, a, z2), from its period's prefix sums starting at ``offset``."""
    P, b, _, a, z2 = rows.T
    neg, pos = offset + (slot - b + 1) % P, offset + (slot + z2 + 1) % P
    return prefix[neg + b] - prefix[neg] - (prefix[pos + a] - prefix[pos])


def _screen(rows: np.ndarray, sums: tuple, dead_zone: float) -> np.ndarray:
    """Indices of the rows (P, b, z1, a, z2) that no slot rejects, in order; ``sums`` from :func:`_prefix_sums`.

    Row (b, z1, a, z2) is s = [-^b 0^z1 +^a 0^z2]. Entry u_i of -(c conv s) is the sum of
    c[(i - j) mod P] over j < b minus that over the positive run, each a difference of prefix sums
    of (c, c), at both ends of each run and at the zeros (else a positive end). A row is rejected when a slot
    misses its relay level by more than tau (:func:`_rounding_bound`, sigma = sum |c|): K @ s is off
    by gamma_{P-1} sigma; four prefix sums of <= 2P terms by 8 gamma_{2P-1} sigma; the three
    subtractions over disjoint runs by 2 u sigma. tau = 18 P u sigma > (17P - 7) u sigma covers the
    second order and its own rounding. Rounding is monotone and -tau a float: a rounded margin
    below -tau is a true one, and the judge rejects the row too (:func:`_judge`).
    The slots are screened one at a time, each on the rows no earlier slot rejected: every entry is
    the same elementwise expression as over all six slots at once, so it has the same bits.
    """
    prefix, offset, tau = sums
    keep = np.arange(len(rows))
    for slot_level in _SLOTS:
        r = rows[keep]
        P = r[:, 0]
        slot, level = slot_level(P, r[:, 1], r[:, 2], r[:, 4])
        margin = _margin(_entries(prefix, r, offset[P], slot), level, dead_zone)
        keep = keep[margin >= -tau[P]]
    return keep


def _cell_records(rows: np.ndarray, gens: dict, sums: tuple, dead_zone: float) -> list:
    """Screen the rows at one dead zone, then judge the survivors; ``gens`` as in :func:`_prefix_sums`."""
    survivors = rows[_screen(rows, sums, dead_zone)].tolist()
    out = []
    for period, group in itertools.groupby(survivors, key=lambda row: row[0]):
        c, tau = gens[period]
        K = -circulant(c)  # built only for a period with survivors
        for _, *runs in group:
            arr = np.repeat([-1.0, 0.0, 1.0, 0.0], runs)
            u = _judge(K, arr, dead_zone, tau)
            if u is not None:
                out.append(_record_from(u, arr))
    return out


def _generator(fold: np.ndarray, delay: int) -> tuple[np.ndarray, float]:
    """(the fold rotated down by the delay, the bits of :func:`loop_generator`; its tau, :func:`_rounding_bound`)."""
    c = cyclic_shift(fold, delay % fold.size)
    return c, _rounding_bound(fold.size, float(np.abs(c).sum()))


def _batch_records(plants: list, folds: dict, tops: dict, records: list) -> None:
    """Screen and judge one batch of folded periods for every plant, adding to its list in ``records``.

    The rows are made once; each delay's generators, tau (the rounding of sum |c| depends on the
    rotation) and prefix sums once, up to its pmax in ``tops``.
    """
    rows = _sweep_rows(list(folds))
    for delay, top in tops.items():
        gens = {period: _generator(fold, delay) for period, fold in folds.items() if period <= top}
        if not gens:
            continue
        sums, mine = _prefix_sums(gens), rows[: np.searchsorted(rows[:, 0], top, side="right")]
        for plant, found in zip(plants, records):
            if plant.delay == delay:
                found += _cell_records(mine, gens, sums, plant.dead_zone)


def _sweep(plants: list, periods, tops: dict) -> list[list[OscillationRecord]]:
    """The analyzer's records for plants of one core response, over ``periods`` in order.

    Each delay is swept up to its pmax in ``tops``. Each period is folded once for every plant (the
    fold depends on neither the delay nor the dead zone) and screened in batches (:func:`_batch_records`).
    """
    records: list = [[] for _ in plants]
    folds, rows = {}, 0
    with np.errstate(over="ignore"):  # a fold whose absolute sum overflows is refused by _rounding_bound
        for period in periods:
            folds[period] = periodic_summation(plants[0].g0, period)
            rows += 4 * period
            if rows >= _SCREEN_ROWS or period == periods[-1]:
                _batch_records(plants, folds, tops, records)
                folds, rows = {}, 0
    return records


def period_records(plant: PlantSpec, period: int) -> list[OscillationRecord]:
    """The analyzer at one period: screen every candidate, judge the survivors (:func:`_judge`)."""
    return _sweep([plant], [period], {plant.delay: period})[0]


def _base_family(plant: PlantSpec) -> tuple[float, float]:
    """(the dead-zone threshold, the scalar -u[delay]) of the half-and-half pattern s at period twice the delay.

    u holds the exact sums of the loop response to s (:func:`_exact_sums`), which the judge reads:
    s is fixed exactly at the dead zones below min_i s_i u_i, so the threshold is that or 0.0.
    """
    if plant.delay < 1:
        raise ValueError("the base oscillation needs a positive delay")
    s = np.repeat([1.0, -1.0], plant.delay)
    u = _exact_sums(loop_matrix(plant, s.size), s)
    return max(0.0, float((s * u).min())), -float(u[plant.delay])


def exists_base_oscillation(plant: PlantSpec) -> bool:
    """Existence of the oscillation with period exactly twice the delay: the dead zone under the threshold.

    The threshold is :func:`dead_zone_threshold`. For a decaying plant
    (:func:`check_monotone_decay`) the paper's scalar criterion, the loop
    response at slot ``delay`` negated against the dead zone, must agree:
    a mismatch would falsify it and raises InternalCheckError. Elsewhere
    the criterion is no theorem and the threshold decides alone.
    """
    threshold, scalar = _base_family(plant)
    exists = plant.dead_zone < threshold
    if exists != (scalar > plant.dead_zone) and check_monotone_decay(plant.g0).passed:
        raise InternalCheckError(
            f"scalar existence test ({scalar:.12g} vs dead zone {plant.dead_zone:.12g}) "
            f"disagrees with the threshold {threshold:.12g} at period {2 * plant.delay}"
        )
    return exists


def dead_zone_threshold(plant: PlantSpec) -> float:
    """The end of the dead-zone interval [0, threshold) on which the base-period family is fixed.

    0.0 when the half-and-half pattern is fixed at no dead zone. Where it
    is fixed at dead zone 0, this is the smallest positive entry of the
    base-period waveform, in the exact sums the judge reads.
    """
    return _base_family(plant)[0]


def check_absence(plant: PlantSpec) -> AbsenceVerdict:
    """Zero-delay loops with monotone decay admit no single-peaked oscillation.

    Applicable when the loop has no pure delay (the response starts at a
    positive sample) and the decay check passes; then no waveform in the
    single-peaked class solves the loop equation, for any dead zone.
    """
    if plant.delay != 0:
        return AbsenceVerdict(False, f"loop carries a pure delay of {plant.delay}")
    decay = check_monotone_decay(plant.g0)
    if not decay.passed:
        return AbsenceVerdict(
            False, "absence test inapplicable: " + "; ".join(decay.notes or ("decay check failed",))
        )
    return AbsenceVerdict(
        True,
        "no single-peaked oscillation exists: zero relative degree with "
        "monotonically decaying response",
    )


# -- exhaustive oracle -----------------------------------------------------


@functools.lru_cache(maxsize=None)  # n <= _ORACLE_CHUNK: at most 11 tables, under 1 MB
def _digit_table(n: int) -> np.ndarray:
    """Row c holds the base-3 digits of c, lowest first, each minus one: int8, shape (3^n, n), read-only."""
    table = np.empty((3**n, n), dtype=np.int8)
    for j in range(n):
        table[:, j] = np.tile(np.repeat(np.array([-1, 0, 1], dtype=np.int8), 3**j), 3 ** (n - 1 - j))
    table.flags.writeable = False
    return table


def _digit_sums(weights: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Entry (i, c) is start_i + sum_j d_j weights[j, i], d row c of ``_digit_table(len(weights))``, added digit by digit."""
    sums = start[:, None]
    for w in weights:
        sums = (np.multiply.outer(w, [-1.0, 0.0, 1.0])[:, :, None] + sums[:, None, :]).reshape(w.size, -1)
    return sums


def _oracle_screen(kernel: np.ndarray, low: int, dead_zone: float, tau: float) -> np.ndarray:
    """The run-start rows, s_0 = -1 and s_{P-1} != -1, that no column rejects; see the oracle."""
    period = kernel.shape[0]
    table = _digit_table(low)[::3]  # row c: s_0 = -1, then the digits of c
    low_sums, high_sums = _digit_sums(kernel[1:low], -kernel[0]), _digit_sums(kernel[low:], np.zeros(period))
    blocks = _digit_table(period - low)
    survivors = []
    for block in range(len(blocks) // 3, len(blocks)):  # the blocks whose last digit, s_{P-1}, is 0 or 1
        v, digits = high_sums[:, block], blocks[block]
        # high columns first: their level is the block's digit for every row
        keep = np.flatnonzero(_margin(low_sums[-1] + v[-1], digits[-1], dead_zone) >= -tau)
        for i in range(period - 2, -1, -1):
            if not keep.size:
                break
            level = digits[i - low] if i >= low else table[keep, i]
            keep = keep[_margin(low_sums[i, keep] + v[i], level, dead_zone) >= -tau]
        survivors.append(np.hstack([table[keep], np.broadcast_to(digits, (keep.size, period - low))]))
    return np.vstack(survivors)


def brute_force_fixed_points(plant: PlantSpec, period: int, cap: int = DEFAULTS.oracle_cap) -> list[tuple[int, ...]]:
    """Every fixed sign pattern at one period, by exhausting all 3^P of them.

    Assumes no pattern shape, so the result is an independent oracle for
    the analyzer. The all-zero pattern, a trivial fixed point of every
    loop, is excluded. Patterns are returned sorted, rotations included.

    Only run-start rows are judged: s_0 = -1 and s_{P-1} != -1, and the
    all-(-1) row, 2 3^(P-2) + 1 in all. Every nonzero pattern, or its
    negation, turns a run of -1 to the front to give one. K is circulant:
    row i of K times s turned by k holds the products of row i + k times
    s, so each turn and negation of s has the turned or negated exact
    sums, and the verdict of s from :func:`_judge`. A fixed row adds its
    P turns and their negations. Row c has the base-3 digits of c, lowest
    first, minus one; the rows of a block share s_0 = -1 and the high digits.

    Screen, then judge. Entry i of K @ s sums P exact terms of absolute
    sum at most sigma, the largest row sum of |K|. The screen adds them
    digit by digit from -K[i, 0], the low and the high digits' sums apart,
    once per period, then one add per row: a summation tree off the exact
    sum by at most gamma_{P-1} sigma, within tau = 18 P u sigma
    (:func:`_rounding_bound`). Column by column, high ones first, a row is
    rejected when its rounded margin to its own level is below -tau, as
    the judge would reject it. Every survivor goes to :func:`_judge`, so
    the result does not depend on the block size.
    """
    if period < 1:
        raise ValueError("period must be positive")
    if period > cap:
        raise ValueError(f"period {period} exceeds the oracle cap {cap} (3^P candidates)")
    K = loop_matrix(plant, period)
    tau = _rounding_bound(period, float(np.abs(K).sum(axis=1).max()))
    low = min(period - 1, _ORACLE_CHUNK)
    found, screened = set(), _oracle_screen(K.T, low, plant.dead_zone, tau).tolist() if low else []
    for row in [[-1] * period] + screened:  # the all-(-1) row unscreened
        if _judge(K, np.array(row, dtype=float), plant.dead_zone, tau) is not None:
            found.update(tuple(r[k:] + r[:k]) for r in (row, [-x for x in row]) for k in range(period))
    return sorted(found)


def oracle_families(plant: PlantSpec, period: int, matched) -> list[OracleEntry]:
    """Every fixed pattern family the oracle finds at one period, by canonical rotation.

    ``in_analyzer`` states whether a family is among ``matched``, the
    analyzer's record patterns at that period. Uncapped: callers cap it.
    """
    fixed = brute_force_fixed_points(plant, period, cap=period)
    return [
        OracleEntry(period, canon, _resolved_changes(canon, True) == 2, canon in matched)
        for canon in sorted({canonical_rotation(p) for p in fixed})
    ]


# -- orchestration ----------------------------------------------------------


def _thm_necessity_violations(rec: OscillationRecord) -> list[str]:
    """An admissible record, or a zero-free one (period = 2 * positive count), must be sign-symmetric."""
    out = []
    if not rec.sign_symmetric and rec.admissible:
        out.append(f"admissible record at period {rec.period} is not sign-symmetric (pattern {rec.pattern})")
    if not rec.sign_symmetric and 0 not in rec.pattern:
        out.append(f"zero-free record at period {rec.period} violates period = 2 * positive count")
    return out


def _bound_violations(rec: OscillationRecord, bounds: PeriodBounds) -> list[str]:
    if not rec.admissible or rec.period < bounds.delay:
        return []
    out = []
    if rec.period < bounds.lower:
        out.append(
            f"record period {rec.period} under the lower bound {bounds.lower} "
            f"(delay {bounds.delay})"
        )
    if rec.period > bounds.upper:
        out.append(f"record period {rec.period} over the upper bound {bounds.upper}")
    if bounds.upper_convex is not None and bounds.delay >= 2 and rec.period > bounds.upper_convex:
        out.append(f"record period {rec.period} over the convex bound {bounds.upper_convex}")
    return out


def find_oscillations(plant: PlantSpec, pmax: Optional[int] = None, oracle_pmax: int = 0) -> OscillationReport:
    """Sweep all single-peaked patterns up to ``pmax`` and verify fixed points.

    Every candidate is judged, the zero-free ones with unequal run lengths
    too, although none is ever fixed, so the necessity claim (a
    single-peaked self-oscillation is sign-symmetric) is demonstrated
    rather than assumed. With ``oracle_pmax`` > 0 the exhaustive oracle
    runs for every period up to the smaller of the two ceilings;
    unmatched families are listed in ``oracle_diff`` and any disagreement
    inside the single-peaked class is flagged as a violation (the
    exit-code-2 condition upstream).
    """
    return _reports([plant], pmax, oracle_pmax)[0]


def _reports(plants: list, pmax: Optional[int], oracle_pmax: int = 0) -> list[OscillationReport]:
    """:func:`find_oscillations` for plants of one core response, in one pass (:func:`_sweep`).

    The bounds, the default pmax and the absence verdict depend on the response and the delay alone: one per delay.
    """
    if pmax is not None and pmax < 2:
        raise ValueError("pmax must be at least 2")
    at = {plant.delay: plant for plant in plants}
    bounds = {delay: period_bounds(p) if delay >= 1 else None for delay, p in at.items()}
    tops = {delay: _ceiling(at[delay], b) if pmax is None else pmax for delay, b in bounds.items()}
    found = _sweep(plants, range(2, max(tops.values()) + 1), tops)
    absence = check_absence(at[0]) if 0 in at else None
    return [
        _report(plant, tops[plant.delay], bounds[plant.delay], absence if not plant.delay else None, recs, oracle_pmax)
        for plant, recs in zip(plants, found)
    ]


def _report(plant: PlantSpec, pmax: int, bounds, absence, records: list, oracle_pmax: int) -> OscillationReport:
    """One plant's report from its records: the necessity and bound checks, then the oracle up to ``oracle_pmax``."""
    records.sort(key=lambda r: (r.period, r.pattern))
    violations: list[str] = []
    for rec in records:
        violations.extend(_thm_necessity_violations(rec))
        if bounds:
            violations.extend(_bound_violations(rec, bounds))
            if bounds.delay < rec.period < bounds.lower:
                violations.append(
                    f"record period {rec.period} falls in the excluded window "
                    f"({bounds.delay}, {bounds.lower})"
                )

    oracle_entries: list[OracleEntry] = []
    effective_oracle = min(oracle_pmax, pmax)
    for period in range(2, effective_oracle + 1):
        matched = {r.pattern for r in records if r.period == period}
        families = oracle_families(plant, period, matched)
        for entry in (e for e in families if not e.in_analyzer):
            oracle_entries.append(entry)
            if entry.pattern_unimodal:
                violations.append(
                    f"oracle found an unmatched single-peaked fixed pattern {entry.pattern} "
                    f"at period {period}"
                )
        for canon in sorted(matched - {e.pattern for e in families}):
            violations.append(
                f"analyzer record {canon} at period {period} is missing from the oracle"
            )

    return OscillationReport(plant, pmax, bounds, absence, records, effective_oracle, oracle_entries, violations)
