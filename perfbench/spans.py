"""Span tracing installed from outside the package.

Each hook replaces one public function of ``relayosc`` with a wrapper
that records a span (name, start, end, parent span, call id). The
wrapper is set at every module attribute that holds the original
object, because that is where the calling code looks it up (for
example ``relayosc.analyzer.periodic_summation`` as well as
``relayosc.lti.periodic_summation``). Methods are wrapped on their
class. Nothing under ``src/`` changes.

Spans stay in memory and are written once, when the run ends. A hooked
name that no longer exists is listed as missing; the run goes on.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

def _count_samples(counts, args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs.get("n", 0)
    counts["lti.samples.max_n"] = max(counts["lti.samples.max_n"], int(n))


def _count_dominance(counts, args, kwargs, result):
    counts["analyzer.dominance_index.terms"] += int(result)


def _count_candidates(counts, args, kwargs, result):
    counts["analyzer.enumerate_unimodal_patterns.candidates"] += len(result)


def _count_records(counts, args, kwargs, result):
    counts["analyzer.find_oscillations.records"] += len(result.records)


def _count_oracle(counts, args, kwargs, result):
    period = args[1] if len(args) > 1 else kwargs["period"]
    counts["analyzer.brute_force_fixed_points.patterns"] += 3 ** int(period)
    counts["analyzer.brute_force_fixed_points.hits"] += len(result)


def _count_steps(counts, args, kwargs, result):
    steps = args[2] if len(args) > 2 else kwargs["steps"]
    counts["simulate.simulate.steps"] += int(steps)


def _count_detect(counts, args, kwargs, result):
    if result is None:
        counts["simulate.detect_period.none"] += 1


# (span name, module, attribute path, counter); the counter sees
# (counts, args, kwargs, result) after each call returns
HOOKS = [
    ("lti.samples", "relayosc.lti", "ImpulseResponse.samples", _count_samples),
    ("lti.horizon", "relayosc.lti", "ImpulseResponse.horizon", None),
    ("lti.periodic_summation", "relayosc.lti", "periodic_summation", None),
    ("lti.check_monotone_decay", "relayosc.lti", "check_monotone_decay", None),
    ("lti.is_convex_on_support", "relayosc.lti", "is_convex_on_support", None),
    ("analyzer.dominance_index", "relayosc.analyzer", "dominance_index", _count_dominance),
    ("analyzer.period_bounds", "relayosc.analyzer", "period_bounds", None),
    (
        "analyzer.enumerate_unimodal_patterns",
        "relayosc.analyzer",
        "enumerate_unimodal_patterns",
        _count_candidates,
    ),
    ("analyzer.canonical_rotation", "relayosc.analyzer", "canonical_rotation", None),
    ("analyzer.find_oscillations", "relayosc.analyzer", "find_oscillations", _count_records),
    (
        "analyzer.brute_force_fixed_points",
        "relayosc.analyzer",
        "brute_force_fixed_points",
        _count_oracle,
    ),
    ("simulate.simulate", "relayosc.simulate", "simulate", _count_steps),
    ("simulate.detect_period", "relayosc.simulate", "detect_period", _count_detect),
    ("simulate.classify", "relayosc.simulate", "classify", None),
    ("cli.main", "relayosc.cli", "main", None),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted attribute path, or None."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None or not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Records spans while ``active``; ``install`` and ``uninstall`` set and remove the hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1, call id)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.active = False
        self.call_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn, counter):
        tracer = self
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, tracer.call_id)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every hooked name; names that cannot be found become ``missing``."""
        modules = [m for n, m in sys.modules.items() if n == "relayosc" or n.startswith("relayosc.")]
        self.missing = []
        for name, module_name, path, counter in HOOKS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (span count, total self seconds, total inclusive seconds).

        A span's self time is its duration minus the durations of its
        direct children; calls are single-threaded, so children nest.
        """
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(self.names[name_id], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child[i]
            entry[2] += end - start
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["span_fields"] = ["name", "start", "end", "parent", "call"]
        payload["names"] = self.names
        payload["missing"] = self.missing
        payload["spans"] = [
            [n, round(s, 9), round(e, 9), p, c] for n, s, e, p, c in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def per_layer_metrics(
    tracer: Tracer, passes: int, output_bytes: int, scale: float
) -> dict[str, float]:
    """Per-pass layer metrics from the spans and counts of ``passes`` traced passes.

    Counts and self times are totals divided by the number of passes;
    rates and ratios are taken over the totals. Times are multiplied by
    ``scale`` (reference seconds per measured second). A layer that did
    not run reads 0.
    """
    times = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0] / passes

    def self_s(name):
        return times.get(name, (0, 0.0, 0.0))[1] * scale / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "lti.samples.calls": calls("lti.samples"),
        "lti.samples.self_s": self_s("lti.samples"),
        "lti.samples.max_n": counts["lti.samples.max_n"],
        "lti.periodic_summation.calls": calls("lti.periodic_summation"),
        "lti.periodic_summation.self_s": self_s("lti.periodic_summation"),
        "lti.horizon.calls": calls("lti.horizon"),
        "lti.check_monotone_decay.self_s": self_s("lti.check_monotone_decay"),
        "lti.is_convex_on_support.self_s": self_s("lti.is_convex_on_support"),
        "analyzer.dominance_index.self_s": self_s("analyzer.dominance_index"),
        "analyzer.dominance_index.terms": counts["analyzer.dominance_index.terms"] / passes,
        "analyzer.period_bounds.self_s": self_s("analyzer.period_bounds"),
    }
    enum = "analyzer.enumerate_unimodal_patterns"
    candidates = counts[f"{enum}.candidates"]
    m[f"{enum}.calls"] = calls(enum)
    m[f"{enum}.self_s"] = self_s(enum)
    m[f"{enum}.candidates"] = candidates / passes
    m["analyzer.canonical_rotation.calls"] = calls("analyzer.canonical_rotation")
    m["analyzer.canonical_rotation.self_s"] = self_s("analyzer.canonical_rotation")

    find = "analyzer.find_oscillations"
    m[f"{find}.calls"] = calls(find)
    m[f"{find}.self_s"] = self_s(find)
    # find's self time is everything but its hooked children: the
    # candidate verification loop and record building
    m["analyzer.verify.candidates_per_s"] = ratio(candidates / passes, m[f"{find}.self_s"])
    m["analyzer.verify.hit_ratio"] = ratio(counts[f"{find}.records"], candidates)
    # the item-1 profile split, as shares of find_oscillations' inclusive time
    find_total = times.get(find, (0, 0.0, 0.0))[2] * scale / passes
    m["profile.canonical_rotation_frac"] = ratio(m["analyzer.canonical_rotation.self_s"], find_total)
    m["profile.enumerate_frac"] = ratio(m[f"{enum}.self_s"], find_total)
    m["profile.verify_frac"] = ratio(m[f"{find}.self_s"], find_total)

    oracle = "analyzer.brute_force_fixed_points"
    m[f"{oracle}.calls"] = calls(oracle)
    m[f"{oracle}.self_s"] = self_s(oracle)
    m[f"{oracle}.patterns"] = counts[f"{oracle}.patterns"] / passes
    m[f"{oracle}.hits"] = counts[f"{oracle}.hits"] / passes
    m[f"{oracle}.patterns_per_s"] = ratio(m[f"{oracle}.patterns"], m[f"{oracle}.self_s"])

    sim = "simulate.simulate"
    m[f"{sim}.calls"] = calls(sim)
    m[f"{sim}.self_s"] = self_s(sim)
    m[f"{sim}.steps"] = counts[f"{sim}.steps"] / passes
    m[f"{sim}.steps_per_s"] = ratio(m[f"{sim}.steps"], m[f"{sim}.self_s"])
    detect = "simulate.detect_period"
    m[f"{detect}.calls"] = calls(detect)
    m[f"{detect}.self_s"] = self_s(detect)
    m[f"{detect}.none_ratio"] = ratio(counts[f"{detect}.none"] / passes, m[f"{detect}.calls"])
    m["simulate.classify.self_s"] = self_s("simulate.classify")

    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.output_bytes"] = output_bytes / passes
    m["trace.missing_hooks"] = len(tracer.missing)
    return m
