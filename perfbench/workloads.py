"""The four benchmark workloads: inputs from a seed, the timed call, the output check.

Inputs come from ``random.Random(seed)`` so that the same seed gives the
same plants on every Python and numpy version. They are laid out so that
one pass costs about the same whatever the seed: each delay appears a
fixed number of times, and parameters that set the cost are drawn once
per bin of their range or held near fixed points (``slow-plants`` is a
fixed set that the seed only orders). Every timed call builds its plant
afresh from its parameters, as one command-line call would.

A call fails when it raises, reports violations or exits non-zero, when
one of its records' relay image recomputed through ``loop_gain`` is not
the record's pattern, or when the record's waveform differs from
``loop_gain`` by more than ``WAVEFORM_TOL``. Cells placed exactly at
``dead_zone_threshold`` are only checked for "no exception, exit code
other than 2"; rounding there is a known defect of the library.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass, field

import numpy as np

analyzer = importlib.import_module("relayosc.analyzer")
cli = importlib.import_module("relayosc.cli")
lti = importlib.import_module("relayosc.lti")
simulate = importlib.import_module("relayosc.simulate")

WAVEFORM_TOL = 1e-9

#: fixed sweep ceiling of the long-period workload
LONG_PMAX = 60
#: simulation horizon of the simulate-seeds workload
SIM_STEPS = 2000


@dataclass
class Call:
    """One top-level call: its parameters and the plant built from them."""

    params: dict
    plant: object
    edge: bool = False


@dataclass
class Outcome:
    """What the timed call returned, reduced to what the check needs."""

    error: str | None = None
    raised: bool = False
    exit_code: int = 0
    violations: list = field(default_factory=list)
    # (period, pattern tuple, waveform tuple)
    records: list = field(default_factory=list)
    decay_passed: bool = True
    output_bytes: int = 0
    # simulate-seeds: (period, phase) or None, and the classified period
    detected: tuple | None = None
    classified: object = None
    tail_relay: tuple = ()


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal bins of [lo, hi], in random order."""
    width = (hi - lo) / n
    draws = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(draws)
    return draws


def _sum_of_poles(a: float, b: float):
    """0.5 z/(z-a) + 0.5 z/(z-b) as (num, den) in falling powers of z."""
    return [1.0, -0.5 * (a + b), 0.0], [1.0, -(a + b), a * b]


def _pattern_text(pattern) -> str:
    return "".join("+" if x > 0 else "-" if x < 0 else "0" for x in pattern)


def _fingerprint(records) -> list[str]:
    return sorted(f"{period}:{_pattern_text(pattern)}" for period, pattern, _ in records)


def _records_from_report(report) -> list:
    return [(r.period, tuple(r.pattern), tuple(r.waveform)) for r in report.records]


def _record_problem(plant, records) -> str | None:
    """Recompute each record through loop_gain; describe the first mismatch."""
    for period, pattern, waveform in records:
        u = lti.loop_gain(plant, pattern)
        dz = plant.dead_zone
        image = tuple(int(x) for x in np.where(u > dz, 1, np.where(u < -dz, -1, 0)))
        if image != tuple(pattern):
            return f"relay image of record P={period} {_pattern_text(pattern)} is {_pattern_text(image)}"
        gap = float(np.max(np.abs(np.asarray(waveform) - u)))
        if gap > WAVEFORM_TOL:
            return f"waveform of record P={period} differs from loop_gain by {gap:.3g}"
    return None


class Workload:
    name = ""

    def make_calls(self, seed: int) -> list[Call]:
        raise NotImplementedError

    def run(self, call: Call, scratch: str) -> Outcome:
        raise NotImplementedError

    def check(self, call: Call, out: Outcome) -> tuple[str | None, list | None]:
        """(failure reason or None, fingerprint or None for unchecked cells)."""
        if out.error:
            return out.error, None
        if not out.decay_passed:
            return "monotone decay check failed", None
        if out.violations:
            return f"violations: {out.violations[0]}", None
        problem = _record_problem(call.plant, out.records)
        return problem, _fingerprint(out.records)


class LongPeriod(Workload):
    """find_oscillations at a fixed large pmax on fast geometric plants."""

    name = "long-period"

    def make_calls(self, seed):
        rng = random.Random(seed)
        ratios = _stratified(rng, 0.05, 0.3, 4)
        calls = []
        for i, delay in enumerate((6, 7, 8, 9)):
            params = {"ratio": ratios[i], "delay": delay}
            calls.append(Call(params, self._plant(params)))
        return calls

    @staticmethod
    def _plant(p):
        return lti.PlantSpec.from_response(lti.ImpulseResponse.geometric(p["ratio"]), p["delay"])

    def run(self, call, scratch):
        report = analyzer.find_oscillations(self._plant(call.params), pmax=LONG_PMAX)
        return Outcome(violations=list(report.violations), records=_records_from_report(report))


class AnalyzeGrid(Workload):
    """In-process `relayosc analyze` over geometric plants and their rational twins."""

    name = "analyze-grid"
    #: cells per pass placed exactly at dead_zone_threshold(plant)
    EDGE_CELLS = 3

    def make_calls(self, seed):
        rng = random.Random(seed)
        cells = []
        for delay in range(1, 7):
            # one diagonal of the delay x dominance-index grid: a geometric
            # ratio in (0.5**(1/(d-1)), 0.5**(1/d)) has dominance index d, so
            # every seed gives cell d the same default pmax (4d + 2) and
            # oracle depth. The seed moves the ratio at most a tenth of that
            # interval from its middle (ratios 0.23 to 0.88), because the
            # rational twin's pmax, and with it the slowest calls, grows
            # quickly with the ratio
            lo = 0.05 if delay == 1 else 0.5 ** (1 / (delay - 1))
            hi = 0.5 ** (1 / delay)
            ratio = (lo + hi) / 2 + rng.uniform(-0.1, 0.1) * (hi - lo)
            zone = rng.uniform(0.0, 0.5)
            for kind in ("geometric", "rational"):
                cells.append({"kind": kind, "ratio": ratio, "delay": delay, "dead_zone": zone})
        edges = set(rng.sample(range(len(cells)), self.EDGE_CELLS))
        calls = []
        for i, params in enumerate(cells):
            plant = self._plant(params)
            if i in edges:
                params["dead_zone"] = analyzer.dead_zone_threshold(plant)
                plant = self._plant(params)
            calls.append(Call(params, plant, edge=i in edges))
        return calls

    @staticmethod
    def _plant(p):
        if p["kind"] == "geometric":
            g = lti.ImpulseResponse.geometric(p["ratio"])
        else:
            g = lti.ImpulseResponse.from_rational([1.0, 0.0], [1.0, -p["ratio"]])
        return lti.PlantSpec.from_response(g, p["delay"], p["dead_zone"])

    @staticmethod
    def argv(p, out_path):
        source = (
            ["--geometric", repr(p["ratio"])]
            if p["kind"] == "geometric"
            else ["--rational", f"1,0/1,{-p['ratio']!r}"]
        )
        return [
            "analyze", *source,
            "--delay", str(p["delay"]),
            "--dead-zone", repr(p["dead_zone"]),
            "--out", out_path,
        ]

    def run(self, call, scratch):
        out_path = os.path.join(scratch, "report.json")
        if os.path.exists(out_path):
            os.remove(out_path)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(self.argv(call.params, out_path))
        text = stdout.getvalue()
        out = Outcome(exit_code=code, output_bytes=len(text.encode()))
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                raw = fh.read()
            out.output_bytes += len(raw)
            report = json.loads(raw)
            out.violations = list(report["violations"])
            out.records = [
                (r["period"], tuple(r["pattern"]), tuple(r["waveform"])) for r in report["records"]
            ]
        if code != 0:
            detail = out.violations[:1] or stderr.getvalue().strip().splitlines()[-1:]
            out.error = f"exit code {code}: {detail[0] if detail else ''}"
        return out

    def check(self, call, out):
        if call.edge:
            if out.raised or out.exit_code == 2:
                return out.error, None
            return None, None
        return super().check(call, out)


class SlowPlants(Workload):
    """Decay check then a short sweep on freshly built slow 2nd-order rational plants."""

    name = "slow-plants"
    CALLS = 24

    def make_calls(self, seed):
        rng = random.Random(seed)
        # a fixed design: e (with a = 1 - 10**-e) on evenly spaced points of
        # [2, 3], so a spans [0.99, 0.999]; b on evenly spaced points of
        # [0.1, 0.5] in another order; delays cycling 1-4. The seed only
        # orders the calls. A call's cost depends on how often the sample
        # cache is rebuilt (whenever a fold needs more samples than any fold
        # before), which jumps erratically with any change of a or b: with
        # free draws the median call time spread 24% between seeds
        n = self.CALLS
        calls = []
        for i in range(n):
            e = 2.0 + (i + 0.5) / n
            b = 0.1 + 0.4 * ((5 * i) % n + 0.5) / n
            params = {"a": 1.0 - 10.0 ** -e, "b": b, "delay": 1 + i % 4}
            calls.append(Call(params, self._plant(params)))
        rng.shuffle(calls)
        return calls

    @staticmethod
    def _plant(p):
        num, den = _sum_of_poles(p["a"], p["b"])
        return lti.PlantSpec.from_response(lti.ImpulseResponse.from_rational(num, den), p["delay"])

    def run(self, call, scratch):
        p = call.params
        num, den = _sum_of_poles(p["a"], p["b"])
        g = lti.ImpulseResponse.from_rational(num, den)
        passed = lti.check_monotone_decay(g).passed
        plant = lti.PlantSpec.from_response(g, p["delay"])
        report = analyzer.find_oscillations(plant, pmax=4 * p["delay"] + 2)
        return Outcome(
            decay_passed=passed,
            violations=list(report.violations),
            records=_records_from_report(report),
        )


class SimulateSeeds(Workload):
    """simulate, detect_period and classify per seeded relay history."""

    name = "simulate-seeds"
    PLANTS_PER_KIND = 4
    SEEDS_PER_PLANT = 4

    def make_calls(self, seed):
        rng = random.Random(seed)
        n = self.PLANTS_PER_KIND
        delays = list(range(1, 7)) * 2
        rng.shuffle(delays)
        ratios = _stratified(rng, 0.05, 0.9, n)
        # the slow pole of each rational plant within 0.01 of 0.55, 0.675,
        # 0.8 and 0.925: it sets how many samples the certified tail scans,
        # which is most of a rational call's cost and decides the median call
        slow_poles = [0.55 + 0.125 * i + rng.uniform(-0.01, 0.01) for i in range(n)]
        rng.shuffle(slow_poles)
        # tap counts near 20, 33, 46 and 59: the FIR step loop costs in
        # proportion to them and the longest sets the tail latency
        taps = [20 + 13 * i + rng.randint(0, 1) for i in range(n)]
        rng.shuffle(taps)
        plants = []
        for i in range(n):
            plants.append({"kind": "geometric", "ratio": ratios[i]})
            plants.append({"kind": "rational", "a": slow_poles[i], "b": rng.uniform(0.1, 0.5)})
            factors = [rng.uniform(0.75, 0.98) for _ in range(taps[i] - 1)]
            values = [1.0]
            for f in factors:
                values.append(values[-1] * f)
            plants.append({"kind": "samples", "values": values})
        calls = []
        for i, spec in enumerate(plants):
            spec["delay"] = delays[i]
            spec["dead_zone"] = rng.uniform(0.0, 0.2)
            for _ in range(self.SEEDS_PER_PLANT):
                history = [rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 2 * spec["delay"] + 2))]
                if not any(history):
                    history[0] = 1
                params = dict(spec, history=history)
                calls.append(Call(params, self._plant(params)))
        return calls

    @staticmethod
    def _plant(p):
        if p["kind"] == "geometric":
            g = lti.ImpulseResponse.geometric(p["ratio"])
        elif p["kind"] == "rational":
            g = lti.ImpulseResponse.from_rational(*_sum_of_poles(p["a"], p["b"]))
        else:
            g = lti.ImpulseResponse.from_samples(p["values"])
        return lti.PlantSpec.from_response(g, p["delay"], p["dead_zone"])

    def run(self, call, scratch):
        plant = self._plant(call.params)
        traj = simulate.simulate(plant, call.params["history"], SIM_STEPS)
        hit = simulate.detect_period(traj)
        out = Outcome(detected=hit)
        if hit is not None:
            period = hit[0]
            out.classified = simulate.classify(traj.u[-period:], plant)
            out.tail_relay = tuple(int(x) for x in traj.relay_out[-period:])
            out.records = [(period, out.tail_relay, tuple(float(x) for x in traj.u[-period:]))]
        return out

    def check(self, call, out):
        if out.error:
            return out.error, None
        if out.detected is None:
            return None, ["none"]
        flags = out.classified
        if flags.pattern != out.tail_relay:
            return "classify's relay image differs from the simulated relay output", None
        problem = _record_problem(call.plant, out.records)
        period, phase = out.detected
        canon = out.tail_relay[-phase:] + out.tail_relay[:-phase] if phase else out.tail_relay
        return problem, [f"{period}:{phase}:{_pattern_text(canon)}:{int(flags.admissible)}"]


WORKLOADS = {w.name: w for w in (LongPeriod(), AnalyzeGrid(), SlowPlants(), SimulateSeeds())}
