"""Fixed-point search, period bounds and existence tests for relay loops.

A periodic solution of the closed loop is a waveform u over one period
whose relay image, pushed through the delayed plant and negated,
reproduces u. Because the relay output determines the waveform, the
search space is finite: candidate sign patterns over one period. The
analyzer enumerates the single-peaked candidates (one positive run, one
negative run, optionally separated by single zeros), screens each in O(1),
verifies every survivor as a fixed point, and annotates the findings
against the provable period bounds. An exhaustive oracle over all 3^P
patterns provides the independent cross-check and also surfaces
oscillations outside the single-peaked class.
"""

from __future__ import annotations

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
    is_convex_on_support,
    loop_generator,
    loop_matrix,
)
from .variation import (
    cyclic_diff,
    cyclic_sign_changes,
    is_sign_symmetric,
    max_cyclic_sign_changes,
    relay_vec,
    sign_counts,
)

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
    "subharmonic_periods",
    "check_absence",
    "brute_force_fixed_points",
    "oracle_families",
    "find_oscillations",
    "default_pmax",
    "report_from_dict",
]

#: low base-3 digits per oracle block (3**10 patterns per block)
_ORACLE_CHUNK = 10


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


# -- bounds ---------------------------------------------------------------


def dominance_index(g0: ImpulseResponse, tol: float = DEFAULTS.tol) -> int:
    """Smallest t >= 1 whose leading partial sum strictly outweighs the tail.

    That is, the first t with sum_{k<t} g0(k) - sum_{k>=t} g0(k) > 0,
    the tail evaluated through the certified bound. The gap must clear
    ``tol`` to count as positive; if it hovers inside the tolerance band
    past the horizon, or the tail bound reaches zero first, the call
    fails rather than guess.
    """
    t = 1
    acc = 0.0
    while True:
        acc += g0.sample(t - 1)
        tail = g0.tail_bound(t)
        # certified lower enclosure of the gap: partial sum minus tail bound
        if acc - tail > tol:
            return t
        if tail == 0.0:
            # nothing is left to add, so no later t can clear tol
            raise TruncationError("partial sum never outweighs the tail: the tail bound is exhausted")
        t += 1
        if t > 1_000_000:
            raise TruncationError("partial-sum dominance undecidable within the horizon")


def period_bounds(plant: PlantSpec, tol: float = DEFAULTS.tol) -> PeriodBounds:
    """Period window for single-peaked oscillations with P >= delay.

    Requires delay >= 1. The convex tightening is attached whenever the
    core response is convex on its support; it is provable for delay >= 2
    and reported (and empirically valid) at delay 1 as well.
    """
    if plant.delay < 1:
        raise ValueError("period bounds require a positive delay")
    ps = dominance_index(plant.g0, tol)
    convex = is_convex_on_support(plant.g0, tol)
    return PeriodBounds(
        delay=plant.delay,
        dominance_index=ps,
        lower=2 * plant.delay,
        upper=2 * (plant.delay + ps),
        upper_convex=4 * plant.delay + 2 if convex else None,
    )


def default_pmax(plant: PlantSpec, tol: float = DEFAULTS.tol) -> int:
    """Default sweep ceiling: the provable upper bound plus ``DEFAULTS.pmax_slack``.

    Nothing single-peaked exists beyond the bound, so the slack exists
    to detect bound violations as loud failures instead of silence.
    """
    if plant.delay < 1:
        return 2 * (1 + dominance_index(plant.g0, tol)) + DEFAULTS.pmax_slack
    return period_bounds(plant, tol).upper + DEFAULTS.pmax_slack


# -- pattern enumeration --------------------------------------------------


def canonical_rotation(pattern) -> tuple[int, ...]:
    """Lexicographically smallest cyclic rotation (entries ordered -1 < 0 < 1)."""
    s = [int(x) for x in pattern]
    n = len(s)
    return min(tuple(s[k:] + s[:k]) for k in range(n))


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
    return [(-1,) * b + (0,) * z1 + (1,) * a + (0,) * z2 for b, z1, a, z2 in _run_shapes(period).tolist()]


def _run_shapes(period: int) -> np.ndarray:
    """Rows (b, z1, a, z2) of [-^b 0^z1 +^a 0^z2], sorted: longer negative runs, then zeros, first."""
    b = np.repeat(np.arange(period - 1, 0, -1), 4)
    z1, z2 = np.tile([[1, 1, 0, 0], [1, 0, 1, 0]], period - 1)
    rows = np.stack([b, z1, period - b - z1 - z2, z2], axis=1)
    return rows[rows[:, 2] >= 1]


# -- fixed-point verification ----------------------------------------------


def _fixed_waveform(K: np.ndarray, pattern: np.ndarray, dead_zone: float) -> Optional[np.ndarray]:
    """The waveform K @ pattern when its relay image is the pattern, else None."""
    u = K @ pattern
    if not np.array_equal(relay_vec(u, dead_zone), pattern):
        return None
    return u


def _record_from(u: np.ndarray, pattern: np.ndarray) -> OscillationRecord:
    period = int(u.size)
    canon = canonical_rotation(pattern)
    # align the stored waveform with the canonical rotation
    for k in range(period):
        if tuple(int(x) for x in np.roll(pattern, k)) == canon:
            u = np.roll(u, k)
            break
    diff_var = cyclic_sign_changes(cyclic_diff(u))
    return OscillationRecord(
        period=period,
        pattern=canon,
        waveform=tuple(float(x) for x in u),
        unimodal=diff_var == 2,
        pattern_unimodal=max_cyclic_sign_changes(np.asarray(canon, float)) == 2,
        sign_symmetric=is_sign_symmetric(np.asarray(canon, float)),
        is_self_oscillation=diff_var >= 2,
    )


def verify_fixed_point(plant: PlantSpec, pattern, tol: float = DEFAULTS.tol) -> Optional[OscillationRecord]:
    """Check one relay pattern as a fixed point of the loop.

    Returns a record when the relay image of the loop response equals
    the pattern exactly (strict inequalities, no tolerance: an entry on
    the dead-zone boundary quantizes to 0 and fails a +-1 slot). Absence
    is the None return, not an error.
    """
    s = np.asarray(pattern, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("pattern must have at least two entries")
    if not np.all(np.isin(s, (-1.0, 0.0, 1.0))):
        raise ValueError("pattern entries must lie in {-1, 0, +1}")
    u = _fixed_waveform(loop_matrix(plant, s.size, tol), s, plant.dead_zone)
    if u is None:
        return None
    return _record_from(u, s)


def _screen(c: np.ndarray, rows: np.ndarray, dead_zone: float):
    """Screen each row at six slots in O(1): returns (slots, entries u_hat, tau, survivor mask).

    Row (b, z1, a, z2) is s = [-^b 0^z1 +^a 0^z2]. Entry u_i of -(c conv s) is the sum of
    c[(i - j) mod P] over j < b minus that over the positive run, each a difference of prefix sums
    of (c, c), at both ends of each run and at the zeros (else a positive end). A row is rejected when a slot
    misses its relay level by more than tau. With u = 2^-53, sigma = sum |c| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 3.1, 4.2): K @ s sums P exact terms in any order,
    off by gamma_{P-1} sigma; four prefix sums of <= 2P terms by 8 gamma_{2P-1} sigma; the three
    subtractions over disjoint runs by 2 u sigma. tau = 18 P u sigma > (17P - 7) u sigma covers the
    second order and its own rounding. Rounding is monotone and -tau a float: a rounded margin
    below -tau is a true one. If 8 sigma overflows or c is not finite, nothing is rejected.
    """
    period = c.size
    b, z1, a, z2 = (rows[:, k : k + 1] for k in range(4))
    slots = np.hstack([0 * b, b - 1, b + z1, period - 1 - z2, b, 0 * b + period - 1])
    levels = np.hstack([0 * b - 1, 0 * b - 1, 0 * b + 1, 0 * b + 1, 1 - z1, 1 - z2])
    sigma = float(np.abs(c).sum())
    tau = 18 * period * 2.0**-53 * sigma if np.isfinite(8 * sigma) else np.inf
    with np.errstate(all="ignore"):  # non-finite entries leave tau inf or nan and reject nothing
        prefix = np.concatenate(([0.0], np.cumsum(np.concatenate((c, c)))))
        neg, pos = (slots - b + 1) % period, (slots + z2 + 1) % period
        u = prefix[neg + b] - prefix[neg] - (prefix[pos + a] - prefix[pos])
        margin = np.where(levels == 0, dead_zone - np.abs(u), levels * u - dead_zone)
    return slots, u, tau, ~np.any(margin < -tau, axis=1)


def period_records(
    plant: PlantSpec, period: int, prune_sign_symmetric: bool = False, tol: float = DEFAULTS.tol
) -> list[OscillationRecord]:
    """The analyzer at one period: screen every candidate, verify the survivors through ``K @ s``."""
    c = loop_generator(plant, period, tol)
    rows = _run_shapes(period)
    survivors = rows[_screen(c, rows, plant.dead_zone)[3]]
    K = -circulant(c) if len(survivors) else None  # built only for a period with survivors
    out = []
    for row in survivors:
        arr = np.repeat([-1.0, 0.0, 1.0, 0.0], row)
        if prune_sign_symmetric:
            pos, neg, zero = sign_counts(arr)
            if zero == 0 and pos != neg:
                continue
        u = _fixed_waveform(K, arr, plant.dead_zone)
        if u is not None:
            out.append(_record_from(u, arr))
    return out


def exists_base_oscillation(plant: PlantSpec, tol: float = DEFAULTS.tol) -> bool:
    """Existence of the oscillation with period exactly twice the delay.

    Decided by a single scalar: the loop response to the half-and-half
    pattern at slot ``delay``, negated and compared against the dead
    zone. The full fixed-point verification of the same response must
    agree; a mismatch would falsify the scalar criterion and raises
    InternalCheckError.
    """
    if plant.delay < 1:
        raise ValueError("the base oscillation needs a positive delay")
    s = np.repeat([1.0, -1.0], plant.delay)  # the half-and-half pattern
    u = loop_matrix(plant, s.size, tol) @ s
    scalar = -float(u[plant.delay])
    exists = scalar > plant.dead_zone
    verified = np.array_equal(relay_vec(u, plant.dead_zone), s)
    if exists != verified:
        raise InternalCheckError(
            f"scalar existence test ({scalar:.12g} vs dead zone {plant.dead_zone:.12g}) "
            f"disagrees with direct verification at period {s.size}"
        )
    return exists


def dead_zone_threshold(plant: PlantSpec, tol: float = DEFAULTS.tol) -> float:
    """Largest dead zone below which the base-period family persists.

    Equals the delay-th largest entry of minus the loop response to the
    half-and-half pattern, which is also the smallest positive entry of
    the base-period waveform.
    """
    if plant.delay < 1:
        raise ValueError("the threshold needs a positive delay")
    s = np.repeat([1.0, -1.0], plant.delay)  # the half-and-half pattern
    prod = -(loop_matrix(plant, s.size, tol) @ s)
    return float(np.sort(prod)[::-1][plant.delay - 1])


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


def check_absence(plant: PlantSpec, tol: float = DEFAULTS.tol) -> AbsenceVerdict:
    """Zero-delay loops with monotone decay admit no single-peaked oscillation.

    Applicable when the loop has no pure delay (the response starts at a
    positive sample) and the decay check passes; then no waveform in the
    single-peaked class solves the loop equation, for any dead zone.
    """
    if plant.delay != 0:
        return AbsenceVerdict(False, f"loop carries a pure delay of {plant.delay}")
    decay = check_monotone_decay(plant.g0, tol=tol)
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


def _digit_table(n: int) -> np.ndarray:
    """Row c holds the base-3 digits of c, lowest first, each minus one: int8, shape (3^n, n)."""
    table = np.empty((3**n, n), dtype=np.int8)
    for j in range(n):
        table[:, j] = np.tile(np.repeat(np.array([-1, 0, 1], dtype=np.int8), 3**j), 3 ** (n - 1 - j))
    return table


def brute_force_fixed_points(
    plant: PlantSpec,
    period: int,
    cap: int = DEFAULTS.oracle_cap,
    tol: float = DEFAULTS.tol,
) -> list[tuple[int, ...]]:
    """Every fixed sign pattern at one period, by exhausting all 3^P of them.

    Enumerates each candidate individually (no rotation pruning, no
    shape assumptions), so the result is an independent oracle for the
    analyzer. The all-zero pattern, a trivial fixed point of every loop,
    is excluded. Patterns are returned sorted; rotations of a family
    appear individually.

    Pattern c has the base-3 digits of c, lowest first, minus one. One row
    block holds the 3^10 low digit rows; only its high columns change. A
    row is fixed when its relay image has its code (c minus the all-zero
    code (3^P - 1) / 2); codes are exact in float64 (3^16 < 2^53).
    """
    if period < 1:
        raise ValueError("period must be positive")
    if period > cap:
        raise ValueError(f"period {period} exceeds the oracle cap {cap} (3^P candidates)")
    kernel = loop_matrix(plant, period, tol).T  # row s -> row u through s @ kernel
    low = min(period, _ORACLE_CHUNK)
    rows = np.empty((3**low, period))
    rows[:, :low] = _digit_table(low)
    powers = 3.0 ** np.arange(period)
    codes = np.arange(3**low, dtype=float) - (3**period - 1) // 2
    found: list[tuple[int, ...]] = []
    for block, digits in enumerate(_digit_table(period - low)):
        rows[:, low:] = digits
        # one expression: no block's image or product outlives it, which keeps the peak low
        hits = relay_vec(rows @ kernel, plant.dead_zone) @ powers == codes + block * 3**low
        found.extend(tuple(int(x) for x in row) for row in rows[hits] if row.any())
    return sorted(found)


def oracle_families(plant: PlantSpec, period: int, matched, tol: float = DEFAULTS.tol) -> list[OracleEntry]:
    """Every fixed pattern family the oracle finds at one period, by canonical rotation.

    ``in_analyzer`` states whether a family is among ``matched``, the
    analyzer's record patterns at that period. Uncapped: callers cap it.
    """
    fixed = brute_force_fixed_points(plant, period, cap=period, tol=tol)
    return [
        OracleEntry(period, canon, max_cyclic_sign_changes(np.asarray(canon, float)) == 2, canon in matched)
        for canon in sorted({canonical_rotation(p) for p in fixed})
    ]


# -- orchestration ----------------------------------------------------------


def _thm_necessity_violations(rec: OscillationRecord) -> list[str]:
    out = []
    pos, neg, zero = sign_counts(np.asarray(rec.pattern, float))
    if rec.admissible and pos != neg:
        out.append(
            f"admissible record at period {rec.period} is not sign-symmetric "
            f"(pattern {rec.pattern})"
        )
    if zero == 0 and rec.period != 2 * pos:
        out.append(
            f"zero-free record at period {rec.period} violates period = 2 * positive count"
        )
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


def find_oscillations(
    plant: PlantSpec,
    pmax: Optional[int] = None,
    prune_sign_symmetric: bool = False,
    oracle_pmax: int = 0,
    tol: float = DEFAULTS.tol,
) -> OscillationReport:
    """Sweep all single-peaked patterns up to ``pmax`` and verify fixed points.

    ``prune_sign_symmetric`` skips zero-free candidates with unequal run
    lengths (provably never fixed); the default sweep keeps them so the
    necessity claim is demonstrated rather than assumed, and both modes
    must return identical records. With ``oracle_pmax`` > 0 the
    exhaustive oracle runs for every period up to the smaller of the two
    ceilings; unmatched families are listed in ``oracle_diff`` and any
    disagreement inside the single-peaked class is flagged as a
    violation (the exit-code-2 condition upstream).
    """
    if pmax is None:
        pmax = default_pmax(plant, tol)
    if pmax < 2:
        raise ValueError("pmax must be at least 2")
    records: list[OscillationRecord] = []
    for period in range(2, pmax + 1):
        records.extend(period_records(plant, period, prune_sign_symmetric, tol))
    records.sort(key=lambda r: (r.period, r.pattern))

    bounds = period_bounds(plant, tol) if plant.delay >= 1 else None
    absence = check_absence(plant, tol) if plant.delay == 0 else None

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
        families = oracle_families(plant, period, matched, tol)
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

    return OscillationReport(
        plant=plant,
        pmax=pmax,
        bounds=bounds,
        absence=absence,
        records=records,
        oracle_pmax=effective_oracle,
        oracle_diff=oracle_entries,
        violations=violations,
    )
