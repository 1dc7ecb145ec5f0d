#!/usr/bin/env python3
"""relayosc benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload long-period --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from ``src/`` of
the same checkout. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes
over the same inputs and reports the per-layer metrics. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
provenance and a readable summary. Times are in reference seconds (see
``reference.py``). Exit code 0 means the run finished, whatever the
checks found; 2 means it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: BLAS threads; every workload runs serially
BLAS_THREADS = 1

WORKLOAD_NAMES = ("long-period", "analyze-grid", "slow-plants", "simulate-seeds")
#: fresh interpreters started per run to time set-up; the median is reported
SETUP_REPEATS = 7
#: a run measures at least this many passes of each kind, even past --seconds
MIN_PASSES = 3
#: calls beyond the reported tail latency
TAIL_BEYOND = 10


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin() -> int:
    """Pin BLAS threads and this process to one CPU; return that CPU.

    Call before numpy loads. The set-up probes inherit both. The cores of
    a shared machine drift in speed independently, and the reference loop
    only corrects for the core it runs on.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _setup_seconds(workload: str, seed: int, speed) -> float:
    """Reference seconds of a fresh interpreter that imports relayosc and builds the plants."""
    cmd = [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)]
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child every 50 ms, which
    # would round set-up times up to that step
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - t0
    speed.refresh(force=True)
    return speed.scale(seconds)


def _tail(call_ms: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with TAIL_BEYOND calls above it.

    With too few calls for that, the slowest call (percentile 100).
    """
    ordered = sorted(call_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Runner:
    """Runs passes over one workload's calls, timing and checking each call."""

    def __init__(self, workload, calls, scratch, speed, tracer=None):
        self.workload = workload
        self.calls = calls
        self.scratch = scratch
        self.speed = speed
        self.tracer = tracer
        self.raw_seconds = 0.0
        # reference seconds of every call, per call index, for untraced and traced passes
        self.plain: list[list[float]] = [[] for _ in calls]
        self.traced: list[list[float]] = [[] for _ in calls]
        self.passes = {False: 0, True: 0}
        # per call: whether any of its executions failed; a call counts once
        # in attempted and failed however many passes the run makes, so the
        # counts depend on the seed only, not on the machine's speed
        self.call_failed = [False] * len(calls)
        self.unexpected: list[str] = []
        self.fingerprints: list = [None] * len(calls)
        self.output_bytes = 0
        self._next_call_id = 0

    def one_pass(self, traced: bool) -> float:
        """Seconds spent inside the calls of one pass (checks excluded)."""
        from workloads import Outcome

        samples = self.traced if traced else self.plain
        total = 0.0
        for i, call in enumerate(self.calls):
            self.speed.refresh()
            if traced:
                self.tracer.call_id = self._next_call_id
                self.tracer.active = True
            self._next_call_id += 1
            t0 = time.perf_counter()
            try:
                out = self.workload.run(call, self.scratch)
            except Exception as exc:  # a failed call is counted, not fatal
                out = Outcome(error=f"raised {type(exc).__name__}: {exc}", raised=True)
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.active = False
                self.output_bytes += out.output_bytes
            total += dt
            samples[i].append(self.speed.scale(dt))
            self._check(i, call, out)
        self.passes[traced] += 1
        if not traced:
            self.raw_seconds += total
        return total

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def failed(self) -> int:
        return sum(self.call_failed)

    def _check(self, i, call, out) -> None:
        reason, fingerprint = self.workload.check(call, out)
        if reason is not None:
            self.call_failed[i] = True
            # the dead-zone-edge crash is the library's known defect; any
            # other failure means the outputs are wrong
            if not call.edge:
                self.unexpected.append(f"call {i} {call.params}: {reason}")
            return
        if fingerprint is None:
            return
        if self.fingerprints[i] is None:
            self.fingerprints[i] = fingerprint
        elif self.fingerprints[i] != fingerprint:
            self.unexpected.append(f"call {i} changed its result between passes")


def _per_call(samples: list[list[float]]) -> list[float]:
    """Each call's median time over the run's passes."""
    return [statistics.median(times) for times in samples]


def _expected_mismatches(workload: str, seed: int, fingerprints: list) -> list[str]:
    """Compare the default seed's results with the list stored from the seed code."""
    if seed != 0:
        return []
    path = HERE / "expected_seed0.json"
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    if len(expected) != len(fingerprints):
        return [f"expected {len(expected)} calls per pass, the workload has {len(fingerprints)}"]
    return [
        f"call {i}: expected {want}, got {got}"
        for i, (want, got) in enumerate(zip(expected, fingerprints))
        if want is not None and want != got
    ]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "relayosc" / "__init__.py").is_file():
        print(f"error: no relayosc package under {SRC}", file=sys.stderr)
        return 2
    cpu = pin()
    sys.path.insert(0, str(SRC))
    import provenance
    import reference
    import workloads
    from spans import Tracer, per_layer_metrics

    workload = workloads.WORKLOADS[args.workload]
    prov = provenance.collect(ROOT, args.seed, BLAS_THREADS, cpu)
    print("provenance " + json.dumps(prov, sort_keys=True))

    calls = workload.make_calls(args.seed)
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    speed = reference.Speed()
    runner = Runner(workload, calls, str(scratch), speed, tracer)
    setup: list[float] = []
    try:
        # warm-up: first-call costs (lazy imports, allocator growth) stay out of the timing
        workload.run(calls[0], str(scratch))
        start = time.perf_counter()
        last = 0.0
        while True:
            elapsed = time.perf_counter() - start
            # set-up probes are spread over the run, between passes, so that
            # they sample the machine as the passes do
            if not args.trace and len(setup) < SETUP_REPEATS:
                if elapsed >= len(setup) * args.seconds / SETUP_REPEATS:
                    setup.append(_setup_seconds(args.workload, args.seed, speed))
            if args.trace and runner.passes[False] > runner.passes[True]:
                tracer.install()
                try:
                    last = runner.one_pass(traced=True)
                finally:
                    tracer.uninstall()
            else:
                last = runner.one_pass(traced=False)
            done = min(runner.passes.values()) if args.trace else runner.passes[False]
            elapsed = time.perf_counter() - start
            if done >= MIN_PASSES and elapsed + last > args.seconds:
                break
        while not args.trace and len(setup) < SETUP_REPEATS:
            setup.append(_setup_seconds(args.workload, args.seed, speed))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    mismatches = _expected_mismatches(args.workload, args.seed, runner.fingerprints)
    for line in runner.unexpected + mismatches:
        print(f"check failed: {line}")
    correct = not runner.unexpected and not mismatches
    per_call = _per_call(runner.plain)
    wall = sum(per_call)
    ref_s = statistics.median(speed.timings)
    print(
        f"{args.workload} seed {args.seed}: {len(calls)} calls per pass, "
        f"{runner.passes[False]} untraced and {runner.passes[True]} traced passes, "
        f"{runner.failed}/{runner.attempted} distinct calls failed on some pass "
        f"(failed_frac {runner.failed / runner.attempted:.4f})"
    )
    print(
        f"reference loop: median {ref_s * 1e3:.4f} ms over {len(speed.timings)} timings "
        f"(nominal {reference.NOMINAL_S * 1e3:.4f} ms); untraced pass in measured seconds: "
        f"{runner.raw_seconds / runner.passes[False]:.4f} s on average"
    )

    if args.trace:
        metrics = per_layer_metrics(
            tracer, runner.passes[True], runner.output_bytes, reference.NOMINAL_S / ref_s
        )
        metrics["trace.overhead_frac"] = sum(_per_call(runner.traced)) / wall - 1.0
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"provenance": prov, "workload": args.workload})
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        if tracer.missing:
            print(f"missing hooks: {', '.join(tracer.missing)}")
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    else:
        raw_ms = [t * 1e3 for times in runner.plain for t in times]
        tail_ms, tail_pct = _tail(raw_ms)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "call_p50_ms": statistics.median(per_call) * 1e3,
            "call_tail_ms": tail_ms,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(
            f"call_tail_ms is p{tail_pct:.1f} of {len(raw_ms)} timed calls; "
            f"setup_s is the median of {len(setup)} fresh interpreters"
        )
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}

    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, entry in result.items():
        print(f"  {name:<48} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": result,
            }
        )
    )
    return 0


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
