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
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from . import analyzer
from .config import DEFAULTS
from .simulate import SimulationError, _check_inputs, classify, detect_period, simulate
from .lti import (
    PlantSpec,
    UnstablePlantError,
    check_monotone_decay,
    is_convex_on_support,
)

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_int_list(text: str) -> list[int]:
    """'3' -> [3]; '1:4' -> [1,2,3,4]; '1,3,9' -> [1,3,9]."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _build_spec(args) -> dict:
    """The one plant source as a plant-file dict; inline sources carry no delay."""
    sources = [s for s in (args.plant, args.geometric, args.rational, args.samples) if s]
    if len(sources) != 1:
        raise ValueError("give exactly one plant source (--plant, --geometric, --rational or --samples)")
    if args.plant:
        with open(args.plant, "r", encoding="utf-8") as fh:
            return json.load(fh)
    if args.geometric:
        parts = _parse_float_list(args.geometric)
        g = {"kind": "geometric", "ratio": parts[0], "gain": parts[1] if len(parts) > 1 else 1.0}
    elif args.rational:
        num_text, den_text = args.rational.split("/")
        g = {"kind": "rational", "num": _parse_float_list(num_text), "den": _parse_float_list(den_text)}
    else:
        g = {"kind": "samples", "values": _parse_float_list(args.samples)}
    return {"plant": g}


def _build_plant(args) -> PlantSpec:
    spec = _build_spec(args)
    if args.delay is not None:
        spec["delay"] = _parse_int_list(args.delay)[0]
    if args.dead_zone is not None:
        spec["dead_zone"] = _parse_float_list(args.dead_zone)[0]
    return PlantSpec.from_dict(spec)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- verbs ---------------------------------------------------------------


def cmd_check_plant(args) -> int:
    plant = _build_plant(args)
    g0 = plant.g0
    print(f"plant: {g0!r}")
    print(f"delay (pure delay plus source relative degree): {plant.delay}")
    print(f"dead zone: {_fmt(plant.dead_zone)}")
    print(f"leading sample: {_fmt(g0.sample(0))}")
    print(f"l1 bound: {_fmt(g0.l1_bound())}")
    verdict = check_monotone_decay(g0, tol=args.tol)
    print(f"monotone decay: {'PASS' if verdict.passed else 'FAIL'}")
    for note in verdict.notes:
        print(f"  - {note}")
    print(f"convex on support: {'yes' if is_convex_on_support(g0, tol=args.tol) else 'no'}")
    return 0


def _require_decay(plant: PlantSpec, tol: float) -> None:
    verdict = check_monotone_decay(plant.g0, tol=tol)
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
    _require_decay(plant, args.tol)
    pmax = args.pmax or analyzer.default_pmax(plant, args.tol)
    oracle_pmax = min(pmax, DEFAULTS.analyze_oracle_pmax, args.oracle_cap)
    report = analyzer.find_oscillations(
        plant, pmax=pmax, prune_sign_symmetric=args.prune, oracle_pmax=oracle_pmax, tol=args.tol
    )
    for line in _report_summary(report):
        print(line)
    payload = (
        json.dumps(report.to_dict(), indent=2) + "\n"
        if args.format == "json"
        else _records_csv(report)
    )
    if args.out:
        _write_or_print(payload, args.out)
        print(f"report written to {args.out}")
    return 2 if report.violations else 0


def _sweep_cell(spec: dict, delay: int, dead_zone: float, pmax, prune: bool, tol: float):
    """One (delay, dead zone) cell, built as ``analyze`` builds its plant.

    Module-level so worker pools can pickle it. Points and bounds carry
    the loop delay, which includes any pure delay of the response.
    """
    plant = PlantSpec.from_dict({**spec, "delay": delay, "dead_zone": dead_zone})
    report = analyzer.find_oscillations(plant, pmax=pmax, prune_sign_symmetric=prune, tol=tol)
    points = sorted({(plant.delay, rec.period) for rec in report.records})
    bounds = report.bounds
    return {
        "delay": plant.delay,
        "dead_zone": dead_zone,
        "points": points,
        "bounds": bounds.to_dict() if bounds else None,
        "violations": report.violations,
    }


def cmd_sweep(args) -> int:
    if args.delay is None:
        raise ValueError("sweep needs --delay (an integer, a range lo:hi, or a comma list)")
    if not args.out:
        raise ValueError("sweep needs --out for its CSV files")
    delays = _parse_int_list(args.delay)
    zones = _parse_float_list(args.dead_zone) if args.dead_zone is not None else [0.0]
    if not delays or not zones:
        raise ValueError("sweep ranges must be nonempty")
    spec = _build_spec(args)
    _require_decay(PlantSpec.from_dict({**spec, "delay": delays[0], "dead_zone": zones[0]}), args.tol)
    cells = [(spec, d, z, args.pmax, args.prune, args.tol) for z in zones for d in delays]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_sweep_cell, *zip(*cells)))
    else:
        results = [_sweep_cell(*cell) for cell in cells]

    violations = [v for res in results for v in res["violations"]]
    multi = len(zones) > 1
    for zone in zones:
        rows = sorted(
            {pt for res in results if res["dead_zone"] == zone for pt in res["points"]}
        )
        lines = ["Pd,P"] + [f"{pd},{p}" for pd, p in rows]
        path = _tagged_path(args.out, "dz" + _fmt(zone).replace(".", "p")) if multi else args.out
        _write_or_print("\n".join(lines) + "\n", path)
        print(f"{len(rows)} (Pd, P) points -> {path}")
        bnd_lines = ["Pd,lower,upper,upper_convex,dominance_index"]
        for res in sorted(
            (r for r in results if r["dead_zone"] == zone), key=lambda r: r["delay"]
        ):
            b = res["bounds"]
            if b:
                convex = "" if b["upper_convex"] is None else b["upper_convex"]
                bnd_lines.append(
                    f"{b['delay']},{b['lower']},{b['upper']},{convex},{b['dominance_index']}"
                )
        bpath = (path or "bounds") + ".bounds.csv"
        _write_or_print("\n".join(bnd_lines) + "\n", bpath)
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
        seeds = [list(map(int, s)) for s in (data["seeds"] if isinstance(data, dict) else data)]
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
            _write_or_print("\n".join(rows) + "\n", path)
    return 0


def _tagged_path(out: str, tag: str) -> str:
    """``out`` with ``_tag`` inserted before its extension."""
    stem, dot, ext = out.rpartition(".")
    return f"{stem}_{tag}{dot}{ext}" if stem else f"{out}_{tag}"


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
        matched = {r.pattern for r in analyzer.period_records(plant, period, tol=args.tol)}
        for entry in analyzer.oracle_families(plant, period, matched, args.tol):
            print(
                f"{period},{' '.join(str(x) for x in entry.pattern)},"
                f"{int(entry.pattern_unimodal)},{int(entry.in_analyzer)}"
            )
    return 0


# -- argument wiring -------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plant", help="plant spec JSON path")
    p.add_argument("--geometric", help="inline plant: ratio[,gain]")
    p.add_argument("--rational", help="inline plant: num-coeffs/den-coeffs, e.g. 1,0/1,-0.1")
    p.add_argument("--samples", help="inline plant: comma list of samples")
    p.add_argument("--delay", help="pure delay (int; sweep also accepts lo:hi or a comma list)")
    p.add_argument("--dead-zone", dest="dead_zone", help="relay dead-zone half width (sweep: comma list)")
    p.add_argument("--pmax", type=int, help="largest period swept (default: provable bound plus slack)")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="report format for --out")
    p.add_argument("--out", help="output path")
    p.add_argument("--seed-file", dest="seed_file", help="JSON file with relay seed histories")
    p.add_argument("--tol", type=float, default=DEFAULTS.tol, help="certified truncation tolerance")
    p.add_argument(
        "--oracle-cap",
        dest="oracle_cap",
        type=int,
        default=DEFAULTS.oracle_cap,
        help="largest period the exhaustive oracle may attempt",
    )
    p.add_argument("--prune", action="store_true", help="skip provably impossible zero-free patterns")
    p.add_argument("--workers", type=int, default=1, help="parallel workers for sweeps")
    p.add_argument("--steps", type=int, default=DEFAULTS.sim_steps, help="simulation horizon")
    p.add_argument(
        "--detect-tol",
        dest="detect_tol",
        type=float,
        default=DEFAULTS.detect_tol,
        help="steady-state repetition tolerance",
    )
    p.add_argument("--seed", action="append", help="inline relay seed history, comma separated")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relayosc",
        description="Self-oscillation analysis for discrete-time relay feedback loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "check-plant": cmd_check_plant,
        "analyze": cmd_analyze,
        "sweep": cmd_sweep,
        "simulate": cmd_simulate,
        "oracle": cmd_oracle,
    }
    for name in handlers:
        _add_common(sub.add_parser(name))
    args = parser.parse_args(argv)
    try:
        if args.pmax is not None and args.pmax < 2:  # as find_oscillations refuses it
            raise ValueError("pmax must be at least 2")
        return handlers[args.command](args)
    except (ValueError, OSError, KeyError, UnstablePlantError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except analyzer.InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
