"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines. Every tolerance is pinned here, next to the assertion that uses
it; nothing defers to later calibration. The shared sweeps are computed
once in module fixtures and reused by the bound-integrity criterion.
"""

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from relayosc import cli
from relayosc.analyzer import (
    brute_force_fixed_points,
    canonical_rotation,
    dead_zone_threshold,
    default_pmax,
    dominance_index,
    exists_base_oscillation,
    find_oscillations,
    verify_fixed_point,
)
from relayosc.certificates import open_loop_variation_check, variation_bounding_conditions
from relayosc.lti import ImpulseResponse, PlantSpec, circulant
from relayosc.simulate import detect_period, simulate
from relayosc.variation import (
    cyclic_diff,
    cyclic_sign_changes,
    is_periodically_unimodal,
    max_cyclic_sign_changes,
    max_sign_changes,
    sign_changes,
)

from conftest import (
    column_cyclic_changes,
    column_cyclic_diff,
    exact_geometric_fixed_point,
    is_periodically_unimodal_direct,
    is_periodically_unimodal_levelsets,
)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def geometric_plant(ratio, delay, dead_zone=0.0):
    return PlantSpec(ImpulseResponse.geometric(ratio), delay, dead_zone)


def run_shapes(period):
    """One rotation of every single-peaked run shape of a given length.

    The shapes are [+^a -^b], [+^a -^b 0], [+^a 0 -^b] and [+^a 0 -^b 0]
    with a, b >= 1. One rotation per family suffices for fixed-point
    questions because the loop is time-invariant.
    """
    shapes = []
    for a in range(1, period):
        shapes.append([1] * a + [-1] * (period - a))
    for a in range(1, period - 1):
        b = period - 1 - a
        shapes.append([1] * a + [-1] * b + [0])
        shapes.append([1] * a + [0] + [-1] * b)
    for a in range(1, period - 2):
        shapes.append([1] * a + [0] + [-1] * (period - 2 - a) + [0])
    return shapes


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- shared sweeps ----------------------------------------------------------


@pytest.fixture(scope="module")
def fast_grid_sweep(tmp_path_factory):
    """Criterion 1 sweep through the command line, timed, plus reports."""
    out = str(tmp_path_factory.mktemp("sweep") / "points.csv")
    start = time.perf_counter()
    rc, _ = run_cli(
        ["sweep", "--geometric", "0.1", "--delay", "1:12", "--pmax", "26", "--out", out]
    )
    elapsed = time.perf_counter() - start
    rows = open(out).read().strip().splitlines()
    points = {tuple(map(int, line.split(","))) for line in rows[1:]}
    reports = [find_oscillations(geometric_plant(0.1, d), pmax=26) for d in range(1, 13)]
    return {"rc": rc, "elapsed": elapsed, "points": points, "reports": reports}


@pytest.fixture(scope="module")
def convex_bound_sweeps():
    """Criterion 4 sweeps (library level), timed."""
    start = time.perf_counter()
    slow = {d: find_oscillations(geometric_plant(0.9, d)) for d in range(1, 9)}
    fast = {d: find_oscillations(geometric_plant(0.1, d)) for d in range(1, 9)}
    elapsed = time.perf_counter() - start
    return {"slow": slow, "fast": fast, "elapsed": elapsed}


@pytest.fixture(scope="module")
def random_plant_equivalence():
    """Criterion 6 instances: analyzer records vs exhaustive oracle."""
    rng = np.random.default_rng(20260809)
    instances = []
    for _ in range(20):
        plant = geometric_plant(
            float(rng.uniform(0.05, 0.95)),
            int(rng.integers(1, 6)),
            float(rng.uniform(0.0, 1.0)),
        )
        report = find_oscillations(plant, pmax=12)
        mismatches = []
        for period in range(2, 13):
            analyzer_here = sorted(r.pattern for r in report.records if r.period == period)
            oracle_here = sorted(
                {
                    canonical_rotation(p)
                    for p in brute_force_fixed_points(plant, period)
                    if max_cyclic_sign_changes(np.asarray(p, float)) == 2
                }
            )
            if analyzer_here != oracle_here:
                mismatches.append((period, analyzer_here, oracle_here))
        instances.append({"plant": plant, "report": report, "mismatches": mismatches})
    return instances


# -- criteria ---------------------------------------------------------------


def test_criterion_1_fast_plant_point_set(fast_grid_sweep):
    red = {(d, 2 * d) for d in range(1, 13)}
    blue = {(3, 2), (5, 2), (6, 4), (7, 2), (9, 2), (9, 6), (10, 4), (11, 2), (12, 8)}
    expected = red | blue
    got = fast_grid_sweep["points"]
    ok = got == expected and fast_grid_sweep["elapsed"] < 10.0 and fast_grid_sweep["rc"] == 0
    verdict(
        1,
        ok,
        f"{len(got)} points in {fast_grid_sweep['elapsed']:.2f} s "
        f"(extras {sorted(got - expected)}, misses {sorted(expected - got)})",
    )
    assert got == expected
    assert fast_grid_sweep["elapsed"] < 10.0
    assert fast_grid_sweep["rc"] == 0


def test_criterion_2_example_periods_and_seeds():
    plant = geometric_plant(0.1, 9)
    report = find_oscillations(plant, pmax=20)
    periods = sorted({r.period for r in report.records})
    seeds = {
        18: [1] * 9 + [-1] * 9,
        6: [1, 1, 1, -1, -1, -1] * 3,
        2: [1, -1] * 9,
    }
    reached = {}
    for period, seed in seeds.items():
        traj = simulate(plant, seed, 200)
        hit = detect_period(traj, tol=1e-9)
        reached[period] = hit[0] if hit else None
    ok = periods == [2, 6, 18] and all(reached[p] == p for p in seeds)
    verdict(2, ok, f"verified periods {periods}, simulated periods {reached}")
    assert periods == [2, 6, 18]
    for period in seeds:
        assert reached[period] == period


def test_criterion_3_dead_zone_threshold():
    plant = geometric_plant(0.1, 3)
    th = dead_zone_threshold(plant)

    # independent direct route: fold the delayed kernel by plain summation
    # and take the delay-th largest entry of the explicit circulant product
    period, delay, ratio = 6, 3, 0.1
    gbar = np.zeros(period)
    for i in range(period):
        for k in range(400):
            t = i + k * period - delay
            if t >= 0:
                gbar[i] += ratio**t
    prod = circulant(gbar) @ np.array([1.0] * delay + [-1.0] * delay)
    independent = float(np.sort(prod)[::-1][delay - 1])

    flip_lo = exists_base_oscillation(geometric_plant(0.1, 3, 0.8))
    flip_hi = exists_base_oscillation(geometric_plant(0.1, 3, 0.9))
    ok = (
        abs(th - 0.8891) < 1e-3
        and abs(th - independent) < 1e-10
        and flip_lo
        and not flip_hi
    )
    verdict(3, ok, f"threshold {th:.12g} (independent {independent:.12g}), flip {flip_lo}->{flip_hi}")
    assert abs(th - 0.8891) < 1e-3
    assert abs(th - independent) < 1e-10
    assert flip_lo and not flip_hi


def test_criterion_4_convex_bound_sweeps(convex_bound_sweeps):
    slow = convex_bound_sweeps["slow"]
    fast = convex_bound_sweeps["fast"]
    elapsed = convex_bound_sweeps["elapsed"]

    slow_max = [
        max((r.period for r in slow[d].records if r.period >= d), default=None)
        for d in range(1, 9)
    ]
    fast_max = [
        max((r.period for r in fast[d].records if r.period >= d), default=None)
        for d in range(1, 9)
    ]
    ps_slow = dominance_index(ImpulseResponse.geometric(0.9))
    ps_fast = dominance_index(ImpulseResponse.geometric(0.1))

    bounds_ok = ps_slow == 7 and ps_fast == 1
    for d in range(1, 9):
        for label, reports, ps in (("slow", slow, ps_slow), ("fast", fast, ps_fast)):
            for rec in reports[d].records:
                if rec.period >= d:
                    bounds_ok &= 2 * d <= rec.period <= 2 * (d + ps)
                    bounds_ok &= rec.period <= 4 * d + 2

    # maxima of the plant built here (ratio 0.9); the quoted series
    # [2, 6, 10, 14, ..., 30] = 4d - 2 belongs to ratio 0.99, checked below
    expected_slow = [2, 6, 10, 12, 16, 18, 20, 24]
    expected_fast = [2 * d for d in range(1, 9)]

    # exact certificate of the ratio-0.9 maxima, independent of the analyzer:
    # the square wave at each maximum is fixed, and no single-peaked shape
    # is fixed at any longer period up to the default sweep ceiling
    slow_exact = []
    for d, top in zip(range(1, 9), expected_slow):
        half = top // 2
        accepted = exact_geometric_fixed_point(Fraction(9, 10), d, [1] * half + [-1] * half)
        longer = any(
            exact_geometric_fixed_point(Fraction(9, 10), d, shape)
            for period in range(top + 1, default_pmax(geometric_plant(0.9, d)) + 1)
            for shape in run_shapes(period)
        )
        slow_exact.append(accepted and not longer)

    # the quoted series on the plant that reproduces it: ratio 0.99, pmax 4d + 2
    quoted = [2, 6, 10, 14, 18, 22, 26, 30]
    quoted_max = [
        max(
            (
                r.period
                for r in find_oscillations(geometric_plant(0.99, d), pmax=4 * d + 2).records
                if r.period >= d
            ),
            default=None,
        )
        for d in range(1, 9)
    ]
    quoted_exact = [
        exact_geometric_fixed_point(Fraction(99, 100), d, [1] * (2 * d - 1) + [-1] * (2 * d - 1))
        for d in range(1, 9)
    ]

    ok = (
        slow_max == expected_slow
        and all(slow_exact)
        and fast_max == expected_fast
        and bounds_ok
        and elapsed < 30.0
        and quoted_max == quoted
        and all(quoted_exact)
    )
    verdict(
        4,
        ok,
        f"ratio 0.9 maxima {slow_max} (expected {expected_slow}, exact ok={all(slow_exact)}), "
        f"ratio 0.99 maxima {quoted_max} (expected {quoted}, exact ok={all(quoted_exact)}), "
        f"fast maxima ok={fast_max == expected_fast}, bounds ok={bounds_ok}, {elapsed:.2f} s",
    )
    assert fast_max == expected_fast
    assert bounds_ok
    assert elapsed < 30.0
    assert slow_max == expected_slow
    assert slow_exact == [True] * 8
    assert quoted_max == quoted
    assert quoted_exact == [True] * 8


def test_criterion_5_zero_delay_absence():
    start = time.perf_counter()
    found = {}
    for ratio in (0.1, 0.9):
        for dz in (0.0, 0.5):
            plant = geometric_plant(ratio, 0, dz)
            hits = []
            for period in range(1, 13):
                hits.extend(brute_force_fixed_points(plant, period))
            found[(ratio, dz)] = hits
    elapsed = time.perf_counter() - start
    ok = all(not hits for hits in found.values()) and elapsed < 60.0
    verdict(5, ok, f"fixed patterns {sum(map(len, found.values()))} across 4 configs, {elapsed:.2f} s")
    for key, hits in found.items():
        assert hits == [], key
    assert elapsed < 60.0


def test_criterion_6_oracle_equivalence(random_plant_equivalence):
    bad = [inst for inst in random_plant_equivalence if inst["mismatches"]]
    verdict(6, not bad, f"20 random plants, {len(bad)} with mismatches")
    for inst in random_plant_equivalence:
        assert inst["mismatches"] == [], inst["plant"]


def test_criterion_7_variation_property_suites():
    rng = np.random.default_rng(7777)
    cases = 10_000
    failures = {"order": 0, "even": 0, "rotation": 0, "equivalence": 0}

    def random_vector():
        n = int(rng.integers(2, 21))
        if rng.integers(0, 2):
            return rng.normal(size=n)
        return rng.integers(-2, 3, size=n).astype(float)

    for _ in range(cases):
        v = random_vector()
        if max_sign_changes(v) < sign_changes(v):
            failures["order"] += 1

    for _ in range(cases):
        v = random_vector()
        if not np.any(v != 0.0):
            v[0] = 1.0
        if cyclic_sign_changes(v) % 2 != 0:
            failures["even"] += 1

    for _ in range(cases):
        v = random_vector()
        base_minus = cyclic_sign_changes(v)
        base_plus = max_cyclic_sign_changes(v)
        k = int(rng.integers(0, v.size))
        w = np.roll(v, k)
        if cyclic_sign_changes(w) != base_minus or max_cyclic_sign_changes(w) != base_plus:
            failures["rotation"] += 1

    done = 0
    while done < cases:
        v = random_vector()
        if np.all(v == v[0]):
            continue
        done += 1
        a = is_periodically_unimodal(v)
        if a != is_periodically_unimodal_direct(v) or a != is_periodically_unimodal_levelsets(v):
            failures["equivalence"] += 1

    ok = not any(failures.values())
    verdict(7, ok, f"{cases} cases per suite, failures {failures}")
    assert not any(failures.values()), failures


def test_criterion_8_variation_bound_certificate():
    from itertools import product

    start = time.perf_counter()
    disagreements = []
    for n in (4, 5, 6):
        family = np.array(list(product([0.0, 1.0, 2.0], repeat=n))).T
        keep = column_cyclic_changes(column_cyclic_diff(family)) <= 2
        family = family[:, keep]
        for v in product((-1.0, 0.0, 1.0, 2.0), repeat=n):
            vec = np.array(v)
            predicted = variation_bounding_conditions(vec).passed
            out = circulant(vec) @ family
            actual = bool(np.all(column_cyclic_changes(column_cyclic_diff(out)) <= 2))
            if predicted != actual:
                disagreements.append((v, predicted, actual))
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 120.0
    verdict(8, ok, f"5376 generators, {len(disagreements)} disagreements, {elapsed:.2f} s")
    assert disagreements == []
    assert elapsed < 120.0


def _unimodal_waveform(pattern, dead_zone, rng):
    """Single-peaked waveform whose relay image is exactly `pattern`."""
    n = len(pattern)
    hi = dead_zone + 0.15 + float(rng.uniform(0.0, 1.0))
    out = np.zeros(n)
    pos = [i for i, s in enumerate(pattern) if s > 0]
    neg = [i for i, s in enumerate(pattern) if s < 0]
    for rank, i in enumerate(pos):
        frac = 1.0 - abs((rank + 0.5) / len(pos) - 0.5)
        out[i] = dead_zone + 0.05 + (hi - dead_zone) * frac
    for rank, i in enumerate(neg):
        frac = 1.0 - abs((rank + 0.5) / len(neg) - 0.5)
        out[i] = -(dead_zone + 0.05 + (hi - dead_zone) * frac)
    for i, s in enumerate(pattern):
        if s == 0:
            out[i] = float(rng.uniform(-0.5, 0.5)) * dead_zone
    return out


def test_criterion_9_loop_variation_invariance():
    rng = np.random.default_rng(909090)
    violations = 0
    for _ in range(1000):
        dead_zone = float(rng.uniform(0.0, 0.8))
        plant = geometric_plant(
            float(rng.uniform(0.05, 0.95)), int(rng.integers(0, 7)), dead_zone
        )
        a = int(rng.integers(1, 7))
        b = int(rng.integers(1, 7))
        form = int(rng.integers(0, 4))
        pattern = [1] * a + ([0] if form in (0, 2) else []) + [-1] * b + (
            [0] if form in (0, 1) else []
        )
        # zero slots need a positive zone to sit in; drop them otherwise
        if dead_zone == 0.0:
            pattern = [s for s in pattern if s != 0] or [1, -1]
        k = int(rng.integers(0, len(pattern)))
        pattern = list(np.roll(pattern, k))
        u = np.roll(_unimodal_waveform(np.roll(pattern, -k), dead_zone, rng), k)
        report = open_loop_variation_check(plant, u)
        assert report.preconditions_ok, report.notes
        if report.diff_variation > 2 or report.level_variation > 2:
            violations += 1
        elif report.sign_symmetric and report.resolved_variation > 2:
            violations += 1
    verdict(9, violations == 0, f"1000 randomized loop responses, {violations} violations")
    assert violations == 0


def test_criterion_10_bound_integrity(
    fast_grid_sweep, convex_bound_sweeps, random_plant_equivalence
):
    all_reports = list(fast_grid_sweep["reports"])
    all_reports += list(convex_bound_sweeps["slow"].values())
    all_reports += list(convex_bound_sweeps["fast"].values())
    all_reports += [inst["report"] for inst in random_plant_equivalence]

    violations = [v for rep in all_reports for v in rep.violations]
    window_hits = []
    bound_hits = []
    for rep in all_reports:
        if rep.bounds is None:
            continue
        d, ps = rep.bounds.delay, rep.bounds.dominance_index
        for rec in rep.records:
            if d < rec.period < 2 * d:
                window_hits.append((d, rec.period))
            if rec.period >= d and not (2 * d <= rec.period <= 2 * (d + ps)):
                bound_hits.append((d, rec.period))
    rc_ok = fast_grid_sweep["rc"] != 2
    ok = not violations and not window_hits and not bound_hits and rc_ok
    verdict(
        10,
        ok,
        f"{len(all_reports)} reports: {len(violations)} violations, "
        f"{len(window_hits)} excluded-window hits, {len(bound_hits)} bound breaks",
    )
    assert violations == []
    assert window_hits == []
    assert bound_hits == []
    assert rc_ok
