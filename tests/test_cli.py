import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relayosc
from relayosc import analyzer, cli
from relayosc.analyzer import report_from_dict, verify_fixed_point


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

    def test_disconnected_samples_fail(self, capsys):
        rc = cli.main(["check-plant", "--samples", "1,0,0.5"])
        out = capsys.readouterr().out
        assert rc == 0  # the verdict is the result
        assert "monotone decay: FAIL" in out
        assert "support" in out

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

    def test_workers_match_serial(self, tmp_path, capsys):
        serial = str(tmp_path / "s.csv")
        parallel = str(tmp_path / "p.csv")
        argv = ["sweep", "--geometric", "0.5", "--delay", "1:4", "--pmax", "12"]
        assert cli.main(argv + ["--out", serial]) == 0
        assert cli.main(argv + ["--out", parallel, "--workers", "2"]) == 0
        capsys.readouterr()
        assert Path(serial).read_text() == Path(parallel).read_text()

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
        assert "error: the response's absolute sum is nan" in capsys.readouterr().err

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
        full = analyzer._run_shapes  # the row (2, 1, 2, 1) is the family missed
        monkeypatch.setattr(
            analyzer, "_run_shapes", lambda p: full(p)[~np.all(full(p) == (2, 1, 2, 1), axis=1)]
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
