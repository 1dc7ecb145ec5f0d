"""Command-line front end.

Verbs: check-plant, analyze, sweep, simulate, oracle. Plants come from
a JSON spec file (--plant) or inline shortcuts (--geometric, --rational,
--samples); --delay and --dead-zone add to or override the file values.
Exit codes: 0 analysis completed (absence of oscillations included),
1 invalid input or inapplicable analysis, 2 internal consistency or
bound violation (never expected on a monotonically decaying plant).

All numeric output is printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import analyzer
from .config import DEFAULTS
from .simulate import SimulationError, _check_inputs, classify, detect_period, simulate
from .lti import (
    PlantSpec,
    TruncationError,
    UnstablePlantError,
    check_monotone_decay,
    is_convex_on_support,
)

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_int_list(text: str) -> list[int]:
    """'3' -> [3]; '1:4' -> [1,2,3,4]; '1,3,9' -> [1,3,9]; ValueError when empty."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return _nonempty(list(range(int(lo), int(hi) + 1)), text)
    return _nonempty([int(tok) for tok in text.split(",") if tok], text)


def _parse_float_list(text: str) -> list[float]:
    return _nonempty([float(tok) for tok in text.split(",") if tok], text)


def _nonempty(values: list, text: str) -> list:
    if not values:
        raise ValueError(f"expected at least one number, got {text!r}")
    return values


def _build_plant(args) -> PlantSpec:
    """The plant of the one plant source; the first entries of --delay and --dead-zone override the file values."""
    sources = [s for s in (args.plant, args.geometric, args.rational, args.samples) if s]
    if len(sources) != 1:
        raise ValueError("give exactly one plant source (--plant, --geometric, --rational or --samples)")
    if args.plant:
        with open(args.plant, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):  # refused here too, because the flags below write into it
            raise ValueError(f"a plant spec must be a JSON object, got {type(spec).__name__}")
    elif args.geometric:
        parts = _parse_float_list(args.geometric)
        spec = {"plant": {"kind": "geometric", "ratio": parts[0], "gain": parts[1] if len(parts) > 1 else 1.0}}
    elif args.rational:
        num_text, den_text = args.rational.split("/")
        spec = {"plant": {"kind": "rational", "num": _parse_float_list(num_text), "den": _parse_float_list(den_text)}}
    else:
        spec = {"plant": {"kind": "samples", "values": _parse_float_list(args.samples)}}
    if args.delay is not None:
        spec["delay"] = _parse_int_list(args.delay)[0]
    if args.dead_zone is not None:
        spec["dead_zone"] = _parse_float_list(args.dead_zone)[0]
    return PlantSpec.from_dict(spec)


def _write(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- verbs ---------------------------------------------------------------


def cmd_check_plant(args) -> int:
    plant = _build_plant(args)
    g0 = plant.g0
    print(f"plant: {g0!r}")
    print(f"delay (pure delay plus source relative degree): {plant.delay}")
    print(f"dead zone: {_fmt(plant.dead_zone)}")
    print(f"leading sample: {_fmt(g0.sample(0))}")
    print(f"l1 bound: {_fmt(g0.l1_bound())}")
    verdict = check_monotone_decay(g0)
    print(f"monotone decay: {'PASS' if verdict.passed else 'FAIL'}")
    for note in verdict.notes:
        print(f"  - {note}")
    print(f"convex on support: {'yes' if is_convex_on_support(g0) else 'no'}")
    return 0


def _require_decay(plant: PlantSpec) -> None:
    verdict = check_monotone_decay(plant.g0)
    if not verdict.passed:
        reasons = "; ".join(verdict.notes) or "decay check failed"
        raise ValueError(f"analysis requires a monotonically decaying response ({reasons})")


def _report_summary(report) -> list[str]:
    lines = []
    if report.bounds:
        b = report.bounds
        convex = f", convex {b.upper_convex}" if b.upper_convex is not None else ""
        lines.append(
            f"period bounds: [{b.lower}, {b.upper}]{convex} (dominance index {b.dominance_index})"
        )
    if report.absence:
        lines.append(f"absence: {report.absence.reason}")
    lines.append(f"verified oscillations: {len(report.records)} (pmax {report.pmax})")
    for rec in report.records:
        flags = []
        if rec.admissible:
            flags.append("admissible")
        if rec.sign_symmetric:
            flags.append("sign-symmetric")
        peak = max(abs(x) for x in rec.waveform)
        lines.append(
            f"  P={rec.period:3d} pattern={''.join('+' if x > 0 else '-' if x < 0 else '0' for x in rec.pattern)}"
            f" peak={_fmt(peak)} [{', '.join(flags) or 'outside the single-peaked class'}]"
        )
    for entry in report.oracle_diff:
        lines.append(
            f"  oracle-only P={entry.period}"
            f" pattern={''.join('+' if x > 0 else '-' if x < 0 else '0' for x in entry.pattern)}"
            f" {'single-peaked' if entry.pattern_unimodal else 'outside the single-peaked class'}"
        )
    for v in report.violations:
        lines.append(f"  VIOLATION: {v}")
    return lines


def _records_csv(report) -> str:
    rows = ["period,pattern,admissible,sign_symmetric,peak"]
    for rec in report.records:
        pat = " ".join(str(x) for x in rec.pattern)
        peak = max(abs(x) for x in rec.waveform)
        rows.append(f"{rec.period},{pat},{int(rec.admissible)},{int(rec.sign_symmetric)},{_fmt(peak)}")
    return "\n".join(rows) + "\n"


def cmd_analyze(args) -> int:
    plant = _build_plant(args)
    _require_decay(plant)
    oracle_pmax = min(DEFAULTS.analyze_oracle_pmax, args.oracle_cap)  # find_oscillations caps it at pmax
    report = analyzer.find_oscillations(plant, pmax=args.pmax, oracle_pmax=oracle_pmax)
    for line in _report_summary(report):
        print(line)
    if args.out:  # the JSON or CSV report is built only to be written
        payload = json.dumps(report.to_dict(), indent=2) + "\n" if args.format == "json" else _records_csv(report)
        _write(payload, args.out)
        print(f"report written to {args.out}")
    return 2 if report.violations else 0


def cmd_sweep(args) -> int:
    if args.delay is None:
        raise ValueError("sweep needs --delay (an integer, a range lo:hi, or a comma list)")
    if not args.out:
        raise ValueError("sweep needs --out for its CSV files")
    delays = _parse_int_list(args.delay)
    zones = _parse_float_list(args.dead_zone) if args.dead_zone is not None else None
    first = _build_plant(args)  # the first cell, as analyze builds it: without --dead-zone, the file's dead zone
    _require_decay(first)
    zones = zones or [first.dead_zone]
    # every cell is the response of the first with its own delay, to which the response's own pure delay adds
    plants = [PlantSpec(first.g0, first.delay - delays[0] + d, z) for z in zones for d in delays]
    results = analyzer._reports(plants, args.pmax)

    violations = [v for res in results for v in res.violations]
    multi = len(zones) > 1
    for zone in zones:
        cells = sorted((res for res in results if res.plant.dead_zone == zone), key=lambda res: res.plant.delay)
        rows = sorted({(res.plant.delay, rec.period) for res in cells for rec in res.records})
        lines = ["Pd,P"] + [f"{pd},{p}" for pd, p in rows]
        path = _tagged_path(args.out, "dz" + _fmt(zone).replace(".", "p")) if multi else args.out
        _write("\n".join(lines) + "\n", path)
        print(f"{len(rows)} (Pd, P) points -> {path}")
        bnd_lines = ["Pd,lower,upper,upper_convex,dominance_index"]
        for b in (res.bounds for res in cells if res.bounds):
            convex = "" if b.upper_convex is None else b.upper_convex
            bnd_lines.append(f"{b.delay},{b.lower},{b.upper},{convex},{b.dominance_index}")
        bpath = path + ".bounds.csv"
        _write("\n".join(bnd_lines) + "\n", bpath)
        print(f"bound lines -> {bpath}")
    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    return 2 if violations else 0


def cmd_simulate(args) -> int:
    plant = _build_plant(args)
    seeds: list[list[int]] = []
    if args.seed_file:
        with open(args.seed_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        entries = data["seeds"] if isinstance(data, dict) else data
        if not (isinstance(entries, list) and all(isinstance(s, list) for s in entries)):
            raise ValueError("a seed file holds a list of seed lists, or an object whose 'seeds' entry is one")
        if not all(v in (-1, 0, 1) for s in entries for v in s):
            raise ValueError("seed history entries must lie in {-1, 0, +1}")
        seeds = [list(map(int, s)) for s in entries]
    for text in args.seed or []:
        seeds.append([int(tok) for tok in text.split(",") if tok])
    if not seeds:
        raise ValueError("simulate needs --seed lists or --seed-file")
    for seed in seeds:  # refuse before the header, so a refusal prints nothing on stdout
        _check_inputs(plant, seed, args.steps)
    print("seed,period,phase,admissible,self_oscillation,residual,error")
    for idx, seed in enumerate(seeds):
        try:
            traj = simulate(plant, seed, args.steps)
        except SimulationError as exc:
            # per-seed errors are reported as rows, not fatal
            print(f"{idx},,,,,,\"{exc}\"")
            continue
        hit = detect_period(traj, tol=args.detect_tol)
        if hit is None:
            print(f"{idx},,,,,,no steady state within the window")
            continue
        period, phase = hit
        flags = classify(traj.u[-period:], plant, tol=args.detect_tol)
        print(
            f"{idx},{period},{phase},{int(flags.admissible)},"
            f"{int(flags.is_self_oscillation)},{_fmt(flags.residual)},"
        )
        if args.out:
            path = args.out if len(seeds) == 1 else _tagged_path(args.out, f"seed{idx}")
            rows = ["t,u,r"] + [
                f"{t},{_fmt(traj.u[t])},{traj.relay_out[t]}" for t in range(len(traj))
            ]
            _write("\n".join(rows) + "\n", path)
    return 0


def _tagged_path(out: str, tag: str) -> str:
    """``out`` with ``_tag`` inserted before the extension of its base name, if it has one."""
    stem, ext = os.path.splitext(out)
    return f"{stem}_{tag}{ext}"


def cmd_oracle(args) -> int:
    plant = _build_plant(args)
    pmax = args.pmax or min(10, args.oracle_cap)
    if pmax < 2:  # a cap below 2 leaves no period to search
        raise ValueError("pmax must be at least 2")
    if pmax > args.oracle_cap:
        raise ValueError(
            f"refusing the exhaustive search: pmax {pmax} exceeds the oracle cap "
            f"{args.oracle_cap} (3^P candidates; raise --oracle-cap deliberately)"
        )
    print("period,pattern,single_peaked,in_analyzer")
    for period in range(2, pmax + 1):
        matched = {r.pattern for r in analyzer.period_records(plant, period)}
        for entry in analyzer.oracle_families(plant, period, matched):
            print(
                f"{period},{' '.join(str(x) for x in entry.pattern)},"
                f"{int(entry.pattern_unimodal)},{int(entry.in_analyzer)}"
            )
    return 0


# -- argument wiring -------------------------------------------------------

_FLAGS = {
    "pmax": dict(type=int, help="largest period swept (default: provable bound plus slack)"),
    "format": dict(choices=("json", "csv"), default="json", help="report format for --out"),
    "out": dict(help="output path"),
    "seed-file": dict(help="JSON file with relay seed histories"),
    "oracle-cap": dict(
        type=int, default=DEFAULTS.oracle_cap, help="largest period the exhaustive oracle may attempt"
    ),
    "steps": dict(type=int, default=DEFAULTS.sim_steps, help="simulation horizon"),
    "detect-tol": dict(type=float, default=DEFAULTS.detect_tol, help="steady-state repetition tolerance"),
    "seed": dict(action="append", help="inline relay seed history, comma separated"),
}

#: each verb's handler and the flags it reads besides the plant source
_VERBS = {
    "check-plant": (cmd_check_plant, ()),
    "analyze": (cmd_analyze, ("pmax", "format", "out", "oracle-cap")),
    "sweep": (cmd_sweep, ("pmax", "out")),
    "simulate": (cmd_simulate, ("out", "seed-file", "steps", "detect-tol", "seed")),
    "oracle": (cmd_oracle, ("pmax", "oracle-cap")),
}


def _attach_signed_values(argv: list) -> list:
    """``--flag -1,1`` as ``--flag=-1,1``: argparse takes a value like ``-1,1``, a minus and a digit but no number, for an option."""
    out: list = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is invalid input: exit 1 through main, not argparse's exit 2
        raise ValueError(message)


@functools.lru_cache(maxsize=None)  # built at the first main call, not at import, then reused: parsing keeps no state in it
def _parser() -> _Parser:
    parser = _Parser(
        prog="relayosc",
        description="Self-oscillation analysis for discrete-time relay feedback loops",
    )
    source = argparse.ArgumentParser(add_help=False)  # the plant source, which every verb reads
    source.add_argument("--plant", help="plant spec JSON path")
    source.add_argument("--geometric", help="inline plant: ratio[,gain]")
    source.add_argument("--rational", help="inline plant: num-coeffs/den-coeffs, e.g. 1,0/1,-0.1")
    source.add_argument("--samples", help="inline plant: comma list of samples")
    source.add_argument("--delay", help="pure delay (int; sweep also accepts lo:hi or a comma list)")
    source.add_argument("--dead-zone", help="relay dead-zone half width (sweep: comma list)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _VERBS.items():
        verb = sub.add_parser(name, parents=[source])
        for flag in flags:
            verb.add_argument("--" + flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
        if getattr(args, "pmax", None) is not None and args.pmax < 2:  # as find_oscillations refuses it
            raise ValueError("pmax must be at least 2")
        return _VERBS[args.command][0](args)
    except (ValueError, OSError, KeyError, UnstablePlantError, TruncationError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
