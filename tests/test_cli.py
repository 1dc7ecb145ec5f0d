import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relayosc
from relayosc import analyzer, cli, lti
from relayosc.analyzer import find_oscillations, verify_fixed_point
from relayosc.lti import ImpulseResponse, PlantSpec

from conftest import report_from_dict, time_limit


def test_module_entry_point():
    # the child finds the package where this process imported it from
    src = os.path.dirname(os.path.dirname(relayosc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "relayosc.cli", "check-plant", "--geometric", "0.1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "monotone decay: PASS" in proc.stdout


def test_the_command_line_does_not_import_multiprocessing():
    # nothing runs in a process pool, so no verb pays for importing one
    src = os.path.dirname(os.path.dirname(relayosc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, relayosc.cli; print([m for m in sys.modules if 'multiprocessing' in m])"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_an_overflowing_response_is_refused_without_warnings():
    # the absolute sum 2.7e308 overflows: one error line, exit 1, and no numpy RuntimeWarning
    src = os.path.dirname(os.path.dirname(relayosc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "relayosc.cli", "analyze", "--samples", "1.7e308,1e308"]
        + ["--delay", "1", "--pmax", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.fixture
def plant_file(tmp_path):
    path = tmp_path / "plant.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "plant": {"kind": "geometric", "ratio": 0.1, "gain": 1.0},
                "delay": 9,
                "dead_zone": 0.0,
            }
        )
    )
    return str(path)


class TestCheckPlant:
    def test_geometric_inline(self, capsys):
        rc = cli.main(["check-plant", "--geometric", "0.1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "monotone decay: PASS" in out
        assert "convex on support: yes" in out

    def test_rational_with_delay(self, capsys):
        rc = cli.main(["check-plant", "--rational", "1,0/1,-0.9", "--delay", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "delay (pure delay plus source relative degree): 3" in out
        assert "monotone decay: PASS" in out

    @pytest.mark.parametrize("samples", ["1,0.9,0.1", "1e-13,0.9e-13,0.1e-13"])
    def test_convexity_does_not_depend_on_the_gain(self, samples, capsys):
        assert cli.main(["check-plant", "--samples", samples]) == 0
        assert "convex on support: no\n" in capsys.readouterr().out

    def test_disconnected_samples_fail(self, capsys):
        rc = cli.main(["check-plant", "--samples", "1,0,0.5"])
        out = capsys.readouterr().out
        assert rc == 0  # the verdict is the result
        assert "monotone decay: FAIL" in out
        assert "support" in out

    def test_rational_coefficients_print_as_plain_floats(self, capsys):
        # numpy 2 writes an element of list(array) as np.float64(1.0)
        assert cli.main(["check-plant", "--rational", "1,0/1,-0.9", "--delay", "3"]) == 0
        plant = "plant: ImpulseResponse.from_rational(num=[1.0, 0.0], den=[1.0, -0.9])\n"
        assert capsys.readouterr().out.startswith(plant)

    def test_missing_plant(self, capsys):
        rc = cli.main(["check-plant"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unstable_rejected(self, capsys):
        rc = cli.main(["check-plant", "--rational", "1,0/1,-1.5"])
        assert rc == 1


class TestAnalyze:
    def test_example_one(self, plant_file, capsys, tmp_path):
        out_path = str(tmp_path / "report.json")
        rc = cli.main(["analyze", "--plant", plant_file, "--out", out_path])
        out = capsys.readouterr().out
        assert rc == 0
        for fragment in ("P= 18", "P=  6", "P=  2"):
            assert fragment in out
        data = json.loads(Path(out_path).read_text())
        assert data["Pd"] == 9 and data["chi0"] == 0.0
        assert sorted({r["period"] for r in data["records"]}) == [2, 6, 18]
        assert data["violations"] == []
        # round trip: rebuild and re-verify every record
        report = report_from_dict(data)
        for rec in report.records:
            assert verify_fixed_point(report.plant, rec.pattern) == rec

    def test_csv_report(self, tmp_path, monkeypatch, capsys):
        # the README example: one row per record, in the JSON report's order
        monkeypatch.chdir(tmp_path)
        argv = ["analyze", "--geometric", "0.1", "--delay", "9"]
        assert cli.main([*argv, "--format", "csv", "--out", "r.csv"]) == 0
        assert cli.main([*argv, "--out", "r.json"]) == 0
        capsys.readouterr()
        text = (tmp_path / "r.csv").read_text()
        assert text == (
            "period,pattern,admissible,sign_symmetric,peak\n"
            "2,-1 1,1,1,0.909090909091\n"
            "6,-1 -1 -1 1 1 1,1,1,1.10889110889\n"
            "18,-1 -1 -1 -1 -1 -1 -1 -1 -1 1 1 1 1 1 1 1 1 1,1,1,1.11111110889\n"
        )
        records = json.loads((tmp_path / "r.json").read_text())["records"]
        expected = [
            [
                str(r["period"]),
                " ".join(map(str, r["pattern"])),
                str(int(r["flags"]["admissible"])),
                str(int(r["flags"]["sign_symmetric"])),
                f"{max(abs(x) for x in r['waveform']):.12g}",
            ]
            for r in records
        ]
        assert [row.split(",") for row in text.splitlines()[1:]] == expected

    def test_the_report_writes_the_plant_fields_unchanged(self, tmp_path, capsys):
        # the coefficients are plain floats now; json wrote the numpy floats with the same digits
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--rational", "1,0/1,-0.9", "--delay", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        plant = '  "plant": {\n    "kind": "rational",\n    "num": [\n      1.0,\n      0.0\n    ],\n'
        plant += '    "den": [\n      1.0,\n      -0.9\n    ]\n  },\n  "Pd": 3,\n  "chi0": 0.0,\n'
        assert out.read_text().startswith("{\n" + plant)
        assert json.loads(out.read_text())["plant"] == {"kind": "rational", "num": [1.0, 0.0], "den": [1.0, -0.9]}

    def test_dead_zone_case(self, capsys):
        rc = cli.main(
            ["analyze", "--geometric", "0.1", "--delay", "3", "--dead-zone", "0.8", "--pmax", "8"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("P=  6") >= 2  # two admissible families at period 6
        assert "oracle-only" in out

    def test_absence_is_a_result(self, capsys):
        rc = cli.main(["analyze", "--geometric", "0.1", "--delay", "0", "--pmax", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "absence" in out

    def test_off_class_plant_rejected(self, capsys):
        rc = cli.main(["analyze", "--samples", "1,0,0.5", "--pmax", "6"])
        assert rc == 1
        assert "monotonically decaying" in capsys.readouterr().err

    @pytest.mark.parametrize("gain", ["1", "1e-13"])
    def test_bounds_do_not_depend_on_the_gain(self, gain, capsys):
        assert cli.main(["analyze", "--geometric", f"0.5,{gain}", "--delay", "2"]) == 0
        assert capsys.readouterr().out.startswith("period bounds: [4, 8], convex 10 (dominance index 2)\n")

    def test_flag_overrides_file(self, plant_file, capsys):
        rc = cli.main(["analyze", "--plant", plant_file, "--delay", "3", "--pmax", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "P=  6" in out and "P= 18" not in out


class TestSweep:
    def test_small_grid_deterministic(self, tmp_path, capsys):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        argv = ["sweep", "--geometric", "0.1", "--delay", "1:4", "--pmax", "10"]
        assert cli.main(argv + ["--out", out_a]) == 0
        assert cli.main(argv + ["--out", out_b]) == 0
        capsys.readouterr()
        assert Path(out_a).read_text() == Path(out_b).read_text()
        rows = Path(out_a).read_text().strip().splitlines()
        assert rows[0] == "Pd,P"
        assert "1,2" in rows and "3,6" in rows and "3,2" in rows
        assert (tmp_path / "a.csv.bounds.csv").exists()

    def test_requires_out_and_delay(self, capsys):
        assert cli.main(["sweep", "--geometric", "0.1", "--out", "x.csv"]) == 1
        assert cli.main(["sweep", "--geometric", "0.1", "--delay", "1:2"]) == 1

    def test_multi_zone_files(self, tmp_path, capsys):
        out = str(tmp_path / "pts.csv")
        rc = cli.main(
            [
                "sweep",
                "--geometric",
                "0.1",
                "--delay",
                "3",
                "--dead-zone",
                "0,0.8",
                "--pmax",
                "6",
                "--out",
                out,
            ]
        )
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "pts_dz0.csv").exists()
        assert (tmp_path / "pts_dz0p8.csv").exists()

    @pytest.mark.parametrize(
        "source, response",
        [
            (["--geometric", "0.5"], {"kind": "geometric", "ratio": 0.5}),
            (["--rational", "1/1,-0.5"], {"kind": "rational", "num": [1], "den": [1, -0.5]}),
            (["--samples", "0,1,0.5,0.25"], {"kind": "samples", "values": [0, 1, 0.5, 0.25]}),
        ],
        ids=["geometric", "rational", "samples"],
    )
    def test_one_pass_matches_the_per_cell_reference(self, source, response, tmp_path, capsys):
        # one pass over every cell writes the bytes of one find_oscillations per (delay, dead zone)
        # cell; the rational and finite responses carry a pure delay of their own
        out = str(tmp_path / "pts.csv")
        argv = ["sweep", *source, "--delay", "0:4", "--dead-zone", "0,0.3", "--out", out]
        assert cli.main(argv) == 0
        capsys.readouterr()
        for zone, tag in ((0.0, "dz0"), (0.3, "dz0p3")):
            cells = [{"plant": response, "delay": delay, "dead_zone": zone} for delay in range(5)]
            reports = [find_oscillations(PlantSpec.from_dict(cell)) for cell in cells]
            points = sorted({(r.plant.delay, rec.period) for r in reports for rec in r.records})
            assert points
            bounds = [
                f"{b.delay},{b.lower},{b.upper},{'' if b.upper_convex is None else b.upper_convex},{b.dominance_index}\n"
                for b in (r.bounds for r in reports if r.bounds)
            ]
            path = tmp_path / f"pts_{tag}.csv"
            assert path.read_text() == "Pd,P\n" + "".join(f"{pd},{p}\n" for pd, p in points)
            assert Path(f"{path}.bounds.csv").read_text() == "Pd,lower,upper,upper_convex,dominance_index\n" + "".join(bounds)

    def test_a_sweep_folds_each_period_once(self, tmp_path, monkeypatch, capsys):
        # the fold depends on neither the delay nor the dead zone, so 24 cells share one per period
        folds, fold = [], lti.periodic_summation

        def spy(g, period):
            folds.append(period)
            return fold(g, period)

        monkeypatch.setattr(lti, "periodic_summation", spy)
        monkeypatch.setattr(analyzer, "periodic_summation", spy)
        argv = ["sweep", "--rational", "1,0/1,-0.9", "--delay", "1:12", "--dead-zone", "0,0.1"]
        assert cli.main(argv + ["--out", str(tmp_path / "pts.csv")]) == 0
        capsys.readouterr()
        pmax = analyzer.default_pmax(PlantSpec(ImpulseResponse.from_rational([1, 0], [1, -0.9]), 12))
        assert folds == list(range(2, pmax + 1))

    def test_the_plant_file_dead_zone_holds_without_the_flag(self, tmp_path, capsys):
        # each cell is the plant analyze builds from the same flags: the file's dead zone 0.9 leaves
        # no oscillation, and --dead-zone still overrides it
        plant = tmp_path / "plant.json"
        plant.write_text(json.dumps({"plant": {"kind": "geometric", "ratio": 0.5}, "delay": 3, "dead_zone": 0.9}))
        out = tmp_path / "pts.csv"
        argv = ["--plant", str(plant), "--delay", "3", "--pmax", "12"]
        assert cli.main(["analyze", *argv]) == 0
        assert "verified oscillations: 0 (pmax 12)" in capsys.readouterr().out
        assert cli.main(["sweep", *argv, "--out", str(out)]) == 0
        assert out.read_text() == "Pd,P\n"
        assert cli.main(["sweep", *argv, "--dead-zone", "0", "--out", str(out)]) == 0
        assert out.read_text() == "Pd,P\n3,2\n3,6\n"

    @pytest.mark.parametrize("source", [["--rational", "1/1,-0.5"], ["--samples", "0,1,0.5,0.25"]])
    def test_response_delay_adds_to_loop_delay(self, source, tmp_path, capsys):
        # the response's own pure delay counts, exactly as in analyze
        out = str(tmp_path / "pts.csv")
        assert cli.main(["sweep", *source, "--delay", "1", "--out", out]) == 0
        assert cli.main(["analyze", *source, "--delay", "1"]) == 0
        summary = capsys.readouterr().out
        records = [line for line in summary.splitlines() if line.startswith("  P=")]
        periods = sorted(int(line.split("P=")[1].split()[0]) for line in records)
        assert periods
        rows = Path(out).read_text().strip().splitlines()
        assert rows == ["Pd,P"] + [f"2,{p}" for p in periods]
        bounds = Path(out + ".bounds.csv").read_text().strip().splitlines()
        assert bounds[1].startswith("2,4,")

    @pytest.mark.parametrize("samples", ["1,0.5,0.7", "1,-2"])
    def test_rejects_plant_that_fails_decay(self, samples, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert cli.main(["analyze", "--samples", samples, "--delay", "1"]) == 1
        assert cli.main(["sweep", "--samples", samples, "--delay", "1", "--out", out]) == 1
        assert "monotonically decaying" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestSimulateVerb:
    def test_documented_seeds(self, plant_file, capsys):
        rc = cli.main(
            [
                "simulate",
                "--plant",
                plant_file,
                "--steps",
                "200",
                "--seed",
                ",".join(["1"] * 9 + ["-1"] * 9),
                "--seed",
                ",".join(["1", "1", "1", "-1", "-1", "-1"] * 3),
                "--seed",
                ",".join(["1", "-1"] * 9),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        periods = [int(line.split(",")[1]) for line in lines[1:]]
        assert periods == [18, 6, 2]

    def test_readme_example_verbatim(self, capsys):
        # the residual column too: the loop product and its bits, not only the periods
        seeds = [["1"] * 9 + ["-1"] * 9, ["1", "1", "1", "-1", "-1", "-1"] * 3, ["1", "-1"] * 9]
        argv = ["simulate", "--geometric", "0.1", "--delay", "9", "--steps", "200"]
        assert cli.main(argv + [arg for seed in seeds for arg in ("--seed", ",".join(seed))]) == 0
        assert capsys.readouterr().out == (
            "seed,period,phase,admissible,self_oscillation,residual,error\n"
            "0,18,11,1,1,2.22044604925e-16,\n"
            "1,6,5,1,1,1.11022302463e-16,\n"
            "2,2,1,1,1,1.11022302463e-16,\n"
        )

    @pytest.mark.parametrize("seed", ["-1,1", "-1,-1,1,1", "-1", "-0,1"])
    def test_a_seed_may_start_with_minus_one(self, seed, capsys):
        # argparse would read a value that starts with '-' and is no plain number as an option
        argv = ["simulate", "--geometric", "0.5", "--delay", "2", "--steps", "60"]
        assert cli.main(argv + [f"--seed={seed}"]) == 0
        joined = capsys.readouterr()
        assert cli.main(argv + ["--seed", seed]) == 0
        assert capsys.readouterr() == joined
        assert joined.out.count("\n") == 2 and joined.err == ""

    def test_seed_file_and_dump(self, tmp_path, capsys):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps({"seeds": [[1, -1], [1, 1, -1, -1]]}))
        out = str(tmp_path / "traj.csv")
        rc = cli.main(
            [
                "simulate",
                "--geometric",
                "0.1",
                "--delay",
                "2",
                "--seed-file",
                str(seeds),
                "--steps",
                "120",
                "--out",
                out,
            ]
        )
        capsys.readouterr()
        assert rc == 0
        dumped = (tmp_path / "traj_seed0.csv").read_text().splitlines()
        assert dumped[0] == "t,u,r"
        assert len(dumped) == 121

    def test_chattering_reported_per_seed(self, capsys):
        rc = cli.main(
            ["simulate", "--geometric", "0.1", "--delay", "0", "--seed", "1,-1", "--steps", "50"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "chatters" in out

    def test_needs_seeds(self, capsys):
        assert cli.main(["simulate", "--geometric", "0.1", "--delay", "2"]) == 1

    def test_non_finite_response_is_refused(self, capsys):
        assert cli.main(["simulate", "--samples", "1,nan", "--delay", "1", "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: response samples must be finite\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--samples", "1,nan", "--delay", "1", "--seed", "1"],
            ["--geometric", "0.5", "--delay", "1", "--seed", "1,-1", "--seed", "1,2"],
            ["--geometric", "0.5", "--delay", "1", "--seed", "1", "--steps", "0"],
        ],
        ids=["non-finite-response", "second-seed-out-of-range", "no-steps"],
    )
    def test_refusal_prints_nothing_on_stdout(self, argv, capsys):
        # every input is checked before the CSV header, so stdout holds no partial table
        assert cli.main(["simulate", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "content, argv, message",
    [
        ("[1, 2]", ["analyze", "--plant", "{}", "--delay", "1"], "a plant spec must be a JSON object, got list"),
        ("[1, 2]", ["check-plant", "--plant", "{}"], "a plant spec must be a JSON object, got list"),
        ('{"plant": [1]}', ["check-plant", "--plant", "{}"], "an impulse response must be a JSON object, got list"),
        (
            '{"plant": {"kind": "geometric", "ratio": null}}',
            ["check-plant", "--plant", "{}"],
            "plant field 'ratio' must be a number, got None",
        ),
        (
            '{"plant": {"kind": "geometric", "ratio": 0.5}, "delay": [1]}',
            ["check-plant", "--plant", "{}"],
            "plant field 'delay' must be a number, got [1]",
        ),
        (
            '{"plant": {"kind": "geometric", "ratio": 0.5}, "dead_zone": 1%s}' % ("0" * 400),
            ["check-plant", "--plant", "{}"],
            "plant field 'dead_zone' is too large for a float",
        ),
        (
            '{"plant": {"kind": "geometric", "ratio": 1%s}}' % ("0" * 400),
            ["check-plant", "--plant", "{}"],
            "plant field 'ratio' is too large for a float",
        ),
        (
            '{"seeds": [1, 2]}',
            ["simulate", "--geometric", "0.5", "--delay", "1", "--seed-file", "{}"],
            "a seed file holds a list of seed lists, or an object whose 'seeds' entry is one",
        ),
        (
            "[[1, -1], [null]]",
            ["simulate", "--geometric", "0.5", "--delay", "1", "--seed-file", "{}"],
            "seed history entries must lie in {-1, 0, +1}",
        ),
    ],
    ids=[
        "plant-list-with-delay", "plant-list", "response-list", "ratio-null", "delay-list",
        "dead-zone-huge", "ratio-huge",
        "seed-not-a-list", "seed-entry-null",
    ],
)
def test_a_json_file_of_the_wrong_shape_is_an_error_line(content, argv, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(content)
    assert cli.main([arg.format(path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--geometric", "0.1", "--delay", "3", "--pmax", "0"],
        ["analyze", "--geometric", "0.1", "--delay", "3", "--pmax", "1"],
        ["sweep", "--geometric", "0.1", "--delay", "1:3", "--pmax", "0", "--out", "pts.csv"],
        ["oracle", "--geometric", "0.1", "--delay", "3", "--pmax", "1"],
        ["oracle", "--geometric", "0.1", "--delay", "3", "--pmax", "-4"],
    ],
    ids=["analyze-0", "analyze-1", "sweep-0", "oracle-1", "oracle-minus-4"],
)
def test_pmax_below_two_is_refused(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: pmax must be at least 2\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("verb, flags", [("check-plant", []), ("analyze", ["--pmax", "6"]), ("oracle", ["--pmax", "6"])])
def test_nan_dead_zone_is_refused(verb, flags, capsys):
    # a NaN dead zone relays every entry to 0, so no pattern would ever be fixed
    assert cli.main([verb, "--geometric", "0.5", "--delay", "2", "--dead-zone", "nan", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dead_zone must be nonnegative\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-plant", "--geometric", "0.1", "--pmax", "6"],
        ["analyze", "--geometric", "0.1", "--delay", "3", "--steps", "50"],
        ["sweep", "--geometric", "0.1", "--delay", "1:3", "--seed", "1,-1", "--out", "pts.csv"],
        ["simulate", "--geometric", "0.1", "--delay", "3", "--seed", "1,-1", "--prune"],
        ["oracle", "--geometric", "0.1", "--delay", "3", "--out", "x.csv"],
        ["check-plant", "--geometric", "0.1", "--tol", "1e-12"],
        ["analyze", "--geometric", "0.1", "--delay", "3", "--tol", "1e-12"],
        ["sweep", "--geometric", "0.1", "--delay", "1:3", "--out", "pts.csv", "--tol", "1e-12"],
        ["oracle", "--geometric", "0.1", "--delay", "3", "--tol", "1e-12"],
        ["sweep", "--geometric", "0.1", "--delay", "1:3", "--out", "pts.csv", "--workers", "2"],
        ["analyze", "--geometric", "0.1", "--delay", "3", "--prune"],
        ["sweep", "--geometric", "0.1", "--delay", "1:3", "--out", "pts.csv", "--prune"],
    ],
    ids=[
        "check-plant", "analyze", "sweep", "simulate", "oracle",
        "check-plant-tol", "analyze-tol", "sweep-tol", "oracle-tol", "sweep-workers", "analyze-prune", "sweep-prune",
    ],
)
def test_a_verb_refuses_flags_it_does_not_read(argv, tmp_path, monkeypatch, capsys):
    # a usage error is invalid input: exit 1, as exit 2 means an internal check failed
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["analyze", "--geometric", "0.1", "--delay", "3", "--pmax", "x"],
        ["sweep", "--geometric", "0.1", "--pmax"],
        # the dominance index of ratio 1 - 5e-7 is about ln 2 / 5e-7, past the walk's cap of 10^6
        ["analyze", "--geometric", "0.9999995", "--delay", "1"],
        ["analyze", "--geometric", "0.5", "--delay", ","],
        ["analyze", "--geometric", ",", "--delay", "2"],
        ["check-plant", "--geometric", "0.5", "--dead-zone", ","],
        ["analyze", "--geometric", "0.5", "--delay", "3:1"],
    ],
    ids=[
        "no-verb", "bad-int", "missing-value", "dominance-past-the-cap",
        "empty-delay", "empty-geometric", "empty-dead-zone", "empty-delay-range",
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    with time_limit(10.0):
        assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "out, tagged",
    [("../out.d/points", "../out.d/points_{}"), ("../pts", "../pts_{}"), (".hidden", ".hidden_{}")],
    ids=["dotted-directory", "parent-directory", "hidden"],
)
def test_a_tag_goes_before_the_extension_of_the_base_name(out, tagged, tmp_path, monkeypatch, capsys):
    # one file per dead zone of a sweep and per seed of a simulation; a dot in a directory is no extension
    (tmp_path / "out.d").mkdir()
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    argv = ["--geometric", "0.5", "--pmax", "6", "--out", out]
    assert cli.main(["sweep", *argv, "--delay", "1:2", "--dead-zone", "0,0.1"]) == 0
    argv = ["--geometric", "0.5", "--delay", "2", "--steps", "200", "--out", out]
    assert cli.main(["simulate", *argv, "--seed", "1,-1", "--seed", "1,1,-1,-1"]) == 0
    capsys.readouterr()
    written = {os.path.relpath(p, tmp_path / "run") for p in tmp_path.rglob("*") if p.is_file()}
    sweep = {tagged.format(tag) + suffix for tag in ("dz0", "dz0p1") for suffix in ("", ".bounds.csv")}
    assert written == sweep | {tagged.format("seed0"), tagged.format("seed1")}


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: relayosc analyze")


def test_importing_the_command_line_builds_no_parser():
    # every benchmark set-up imports the module, so the parser waits for the first main call
    src = os.path.dirname(os.path.dirname(relayosc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import relayosc.cli as cli; print(cli._parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    # the parser of every verb is built at the first call and serves every later one
    builds, add_subparsers = [], cli._Parser.add_subparsers

    def spy(self, **kwargs):
        builds.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(cli._Parser, "add_subparsers", spy)
    cli._parser.cache_clear()
    source = ["--geometric", "0.5", "--delay", "2"]
    assert cli.main(["check-plant", *source]) == 0
    assert cli.main(["analyze", *source, "--pmax", "6"]) == 0
    assert cli.main(["sweep", *source, "--pmax", "6", "--out", str(tmp_path / "pts.csv")]) == 0
    assert cli.main(["simulate", *source, "--steps", "60", "--seed", "1,-1"]) == 0
    assert cli.main(["oracle", *source, "--pmax", "4"]) == 0
    capsys.readouterr()
    assert builds == ["relayosc"]


#: the command-line examples of README.md, as written there
README_EXAMPLES = [
    ["check-plant", "--geometric", "0.1"],
    ["check-plant", "--rational", "1,0/1,-0.9", "--delay", "3"],
    ["check-plant", "--samples", "1,0.5,0.25"],
    ["analyze", "--geometric", "0.1", "--delay", "9", "--out", "report.json"],
    ["sweep", "--geometric", "0.1", "--delay", "1:12", "--pmax", "26", "--out", "points.csv"],
    ["analyze", "--geometric", "0.1", "--delay", "3", "--dead-zone", "0.8", "--pmax", "8"],
    ["oracle", "--geometric", "0.1", "--delay", "3", "--dead-zone", "0.8", "--pmax", "6"],
    ["simulate", "--geometric", "0.1", "--delay", "9", "--steps", "200"]
    + ["--seed", "1,1,1,1,1,1,1,1,1,-1,-1,-1,-1,-1,-1,-1,-1,-1"]
    + ["--seed", "1,1,1,-1,-1,-1,1,1,1,-1,-1,-1,1,1,1,-1,-1,-1"]
    + ["--seed", "1,-1,1,-1,1,-1,1,-1,1,-1,1,-1,1,-1,1,-1,1,-1"],
]


def _written(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_repeated_calls_in_one_process_equal_fresh_processes(tmp_path, monkeypatch, capsys):
    # a usage error, --help and a seed that starts with '-' between two runs leave no trace in the parser
    src = os.path.dirname(os.path.dirname(relayosc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    fresh = []
    for k, argv in enumerate(README_EXAMPLES):
        run = tmp_path / f"fresh{k}"
        run.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "relayosc.cli", *argv],
            capture_output=True,
            text=True,
            cwd=run,
            env={**os.environ, "PYTHONPATH": path},
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr, _written(run)))

    def in_process(tag):
        results = []
        for k, argv in enumerate(README_EXAMPLES):
            run = tmp_path / f"{tag}{k}"
            run.mkdir()
            monkeypatch.chdir(run)
            code = cli.main(list(argv))
            out, err = capsys.readouterr()
            results.append((code, out, err, _written(run)))
        return results

    assert in_process("first") == fresh
    assert cli.main(["analyze", "--geometric", "0.1", "--delay", "3", "--steps", "50"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --steps 50\n"
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: relayosc simulate")
    assert cli.main(["simulate", "--geometric", "0.5", "--delay", "2", "--steps", "60", "--seed", "-1,1"]) == 0
    assert capsys.readouterr().out.startswith("seed,period,phase")
    assert in_process("second") == fresh


@pytest.mark.parametrize(
    "source, dead_zone",
    [
        (["--geometric", "0.5992479820325187"], "0.29486613586039423"),
        (["--geometric", "0.5967006291221685"], "0.2974070888933513"),
        (["--rational", "1,0/1,-0.5967006291221685"], "0.2974070888933513"),
        (["--geometric", "0.6145925654416112"], "0.2797421171040235"),
        (["--geometric", "0.5989733406586771"], "0.29513967480911246"),
    ],
    ids=["geometric-a", "geometric-b", "rational-b", "geometric-c", "geometric-d"],
)
def test_delay_2_cells_at_the_edge_exit_0(source, dead_zone, tmp_path, capsys):
    # each dead zone lies within ulps of the edge of [-1 -1 1 1] at period 4, where products summed
    # in different orders decide differently; the oracle and the analyzer must agree (else exit 2)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", *source, "--delay", "2", "--dead-zone", dead_zone, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["violations"] == []
    assert "VIOLATION" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, pmax, oracle_pmax",
    [([], 22, 12), (["--pmax", "8"], 8, 8), (["--oracle-cap", "5"], 22, 5), (["--pmax", "30"], 30, 12)],
)
def test_analyze_computes_the_bounds_once(flags, pmax, oracle_pmax, tmp_path, monkeypatch, capsys):
    calls = []
    bounds = analyzer.period_bounds
    monkeypatch.setattr(analyzer, "period_bounds", lambda *a: calls.append(a) or bounds(*a))
    out = str(tmp_path / "report.json")
    assert cli.main(["analyze", "--geometric", "0.1", "--delay", "9", "--out", out, *flags]) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    assert (report["pmax"], report["oracle_pmax"]) == (pmax, oracle_pmax)
    assert len(calls) == 1


def test_analyze_exits_2_on_a_family_the_enumeration_misses(monkeypatch, capsys):
    # the oracle finds a fixed single-peaked family that the sweep never enumerated: a violation
    missed = (-1, -1, 0, 1, 1, 0)
    full = analyzer._sweep_rows  # the row (2, 1, 2, 1) is the family missed
    monkeypatch.setattr(
        analyzer, "_sweep_rows", lambda ps: full(ps)[~np.all(full(ps)[:, 1:] == (2, 1, 2, 1), axis=1)]
    )
    rc = cli.main(["analyze", "--geometric", "0.1", "--delay", "3", "--dead-zone", "0.8", "--pmax", "8"])
    out = capsys.readouterr().out
    assert rc == 2
    assert f"  VIOLATION: oracle found an unmatched single-peaked fixed pattern {missed} at period 6\n" in out


def test_the_report_states_every_other_violation():
    # hand-built records against hand-built bounds: the necessity, bound, excluded-window and
    # oracle lines, record by record in period order, then the oracle's
    def record(pattern, admissible, symmetric):
        return analyzer.OscillationRecord(
            len(pattern), pattern, (0.0,) * len(pattern), admissible, admissible, symmetric, admissible
        )

    records = [record((-1,) * 5 + (1,) * 5, True, True), record((-1, -1, 1, 1), True, False)]
    records.append(record((-1, 1), True, True))  # matched by the oracle: no line
    bounds = analyzer.PeriodBounds(delay=3, dominance_index=1, lower=6, upper=8, upper_convex=7)
    plant = PlantSpec(ImpulseResponse.geometric(0.1), 3)
    report = analyzer._report(plant, 10, bounds, None, records, oracle_pmax=4)
    assert report.violations == [
        "admissible record at period 4 is not sign-symmetric (pattern (-1, -1, 1, 1))",
        "zero-free record at period 4 violates period = 2 * positive count",
        "record period 4 under the lower bound 6 (delay 3)",
        "record period 4 falls in the excluded window (3, 6)",
        "record period 10 over the upper bound 8",
        "record period 10 over the convex bound 7",
        "analyzer record (-1, -1, 1, 1) at period 4 is missing from the oracle",
    ]


class TestOracleVerb:
    def test_two_by_two(self, capsys):
        rc = cli.main(["oracle", "--geometric", "0.1", "--delay", "1", "--pmax", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2,-1 1,1,1" in out

    def test_dead_zone_extras_marked(self, capsys):
        rc = cli.main(
            [
                "oracle",
                "--geometric",
                "0.1",
                "--delay",
                "3",
                "--dead-zone",
                "0.8",
                "--pmax",
                "6",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "6,-1 0 -1 1 0 1,0,0" in out  # outside the class, not in analyzer
        assert "6,-1 -1 -1 1 1 1,1,1" in out

    def test_readme_example_verbatim(self, capsys):
        rc = cli.main(
            ["oracle", "--geometric", "0.1", "--delay", "3", "--dead-zone", "0.8", "--pmax", "6"]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "period,pattern,single_peaked,in_analyzer\n"
            "2,-1 1,1,1\n"
            "4,-1 1 -1 1,0,0\n"
            "6,-1 -1 -1 1 1 1,1,1\n"
            "6,-1 -1 0 1 1 0,1,1\n"
            "6,-1 0 -1 1 0 1,0,0\n"
            "6,-1 0 0 1 0 0,0,0\n"
            "6,-1 1 -1 1 -1 1,0,0\n"
        )

    def test_in_analyzer_follows_the_analyzer_records(self, capsys, monkeypatch):
        # a fixed single-peaked family the enumeration never emits is not
        # "in the analyzer", even though the family itself is fixed
        missed = (-1, -1, 0, 1, 1, 0)
        full = analyzer._sweep_rows  # the row (2, 1, 2, 1) is the family missed
        monkeypatch.setattr(
            analyzer, "_sweep_rows", lambda ps: full(ps)[~np.all(full(ps)[:, 1:] == (2, 1, 2, 1), axis=1)]
        )
        rc = cli.main(
            ["oracle", "--geometric", "0.1", "--delay", "3", "--dead-zone", "0.8", "--pmax", "6"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "6,-1 -1 0 1 1 0,1,0\n" in out
        assert "6,-1 -1 -1 1 1 1,1,1\n" in out

    def test_cap_refusal(self, capsys):
        rc = cli.main(["oracle", "--geometric", "0.1", "--delay", "1", "--pmax", "18"])
        assert rc == 1
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "1"])
    def test_cap_below_two_without_pmax_is_refused(self, cap, capsys):
        # the default ceiling is min(10, cap): nothing to search, so no silent empty run
        rc = cli.main(["oracle", "--geometric", "0.1", "--delay", "3", "--oracle-cap", cap])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err == "error: pmax must be at least 2\n"
