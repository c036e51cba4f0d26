import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pilotopt.cli as cli
from pilotopt import (
    ExperimentConfig,
    NumericalError,
    SystemConfig,
    design_pilots,
    load_pilots,
    run_monte_carlo,
    save_pilots,
    sigma2_from_snr,
)
from pilotopt.report import read_sweep_csv, read_trace_csv

# note the --snr-db=... form: a comma list starting with a negative number
# must be attached to the flag so argparse does not read it as an option
FAST = [
    "--m", "8", "--k", "4", "--n", "2", "--trials", "60", "--seed", "99",
    "--snr-db=-4,0,4",
]


class TestSweepSnrCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = cli.main(["sweep-snr", *FAST, "--out", str(out)])
        assert code == 0
        rows = read_sweep_csv(out)
        assert len(rows) == 6
        assert {r.algorithm for r in rows} == {"proposed", "conventional"}

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep-snr", *FAST, "--out", str(a)]) == 0
        assert cli.main(["sweep-snr", *FAST, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_output(self, capsys):
        code = cli.main([
            "sweep-snr", "--m", "4", "--k", "2", "--n", "2", "--trials", "20",
            "--snr-db", "0", "--mode", "conventional",
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.splitlines()[0].startswith("snr_db,")

    def test_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        code = cli.main(["sweep-snr", *FAST, "--format", "json", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data) == 6


class TestSweepNCommand:
    def test_multiple_lengths(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = cli.main([
            "sweep-n", "--m", "8", "--k", "4", "--n", "1,2,4", "--trials", "40",
            "--snr-db", "0", "--out", str(out),
        ])
        assert code == 0
        rows = read_sweep_csv(out)
        assert sorted({r.n for r in rows}) == [1, 2, 4]
        prop = {r.n: r.wsmse_analytic for r in rows if r.algorithm == "proposed"}
        conv = {r.n: r.wsmse_analytic for r in rows if r.algorithm == "conventional"}
        assert abs(prop[4] - conv[4]) < 1e-9

    def test_svg_draws_one_increasing_line_per_algorithm_and_snr(self, tmp_path):
        out = tmp_path / "rows.svg"
        code = cli.main([
            "sweep-n", "--m", "8", "--k", "4", "--n", "1,2,4", "--trials", "20",
            "--snr-db", "0,10", "--format", "svg", "--out", str(out),
        ])
        assert code == 0
        svg = out.read_text()
        lines = re.findall(r'<polyline points="([^"]*)"', svg)
        assert len(lines) == 4
        for points in lines:
            xs = [float(p.split(",")[0]) for p in points.split()]
            assert len(xs) == 3 and np.all(np.diff(xs) > 0)
        for label in ("proposed, 0 dB", "conventional, 10 dB"):
            assert f">{label}</text>" in svg


class TestConvergenceCommand:
    def test_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = cli.main([
            "convergence", "--m", "8", "--k", "4", "--n", "2", "--snr-db", "0",
            "--out", str(out),
        ])
        assert code == 0
        parsed = read_trace_csv(out)
        assert set(parsed) == {"dft-reuse", "dft-k", "random"}
        for objs in parsed.values():
            assert np.all(np.diff(objs) <= 1e-12)

    def test_requires_single_snr(self, tmp_path):
        code = cli.main([
            "convergence", "--m", "8", "--k", "4", "--n", "2",
            "--snr-db", "0,3", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 2


class TestOptimizeCommand:
    def test_writes_loadable_pilots(self, tmp_path):
        out = tmp_path / "pilots.txt"
        code = cli.main([
            "optimize", "--m", "8", "--k", "4", "--n", "2", "--snr-db", "0",
            "--out", str(out),
        ])
        assert code == 0
        x = load_pilots(out)
        assert x.shape == (2, 4)
        assert np.allclose(np.sum(np.abs(x) ** 2, axis=0), 1.0, rtol=1e-10)

    def test_writes_the_designed_pilots(self, tmp_path):
        out = tmp_path / "pilots.txt"
        assert cli.main(["optimize", "--m", "8", "--k", "4", "--n", "2", "--snr-db",
                         "3", "--seed", "5", "--out", str(out)]) == 0
        cfg = SystemConfig(antennas=8, users=4, pilot_len=2,
                           sigma2=sigma2_from_snr(3.0, np.ones(4)))
        ecfg = ExperimentConfig(base=cfg, snr_db_list=[3.0], seed=5)
        expected = tmp_path / "expected.txt"
        save_pilots(expected, design_pilots("proposed", cfg, ecfg)[0])
        assert out.read_bytes() == expected.read_bytes()

    def test_conventional_mode_is_a_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "pilots.txt"
        code = cli.main([
            "optimize", "--m", "8", "--k", "4", "--n", "2", "--snr-db", "3",
            "--mode", "conventional", "--out", str(out),
        ])
        assert code == 2
        assert "unrecognized arguments: --mode conventional" in capsys.readouterr().err
        assert not out.exists()


class TestEstimateCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "est.json"
        code = cli.main([
            "estimate", "--m", "8", "--k", "4", "--n", "2", "--snr-db", "10",
            "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data["algorithms"]) == {"proposed", "conventional"}
        for entry in data["algorithms"].values():
            assert len(entry["per_user_realized"]) == 4
            assert entry["wsmse_realized"] > 0

    def test_realization_is_monte_carlo_trial_zero(self, tmp_path):
        out = tmp_path / "est.json"
        assert cli.main([
            "estimate", "--m", "8", "--k", "4", "--n", "2", "--snr-db", "10",
            "--seed", "31", "--init", "random", "--out", str(out),
        ]) == 0
        data = json.loads(out.read_text())
        cfg = SystemConfig(antennas=8, users=4, pilot_len=2,
                           sigma2=sigma2_from_snr(10.0, np.ones(4)))
        ecfg = ExperimentConfig(base=cfg, snr_db_list=[10.0], seed=31,
                                init="random")
        for algorithm in ("proposed", "conventional"):
            x, _, ana, _ = design_pilots(algorithm, cfg, ecfg)
            rep = run_monte_carlo(cfg, x, algorithm, trials=1, seed=31)
            entry = data["algorithms"][algorithm]
            assert entry["per_user_realized"] == [float(v) for v in rep.per_user]
            assert entry["wsmse_analytic"] == ana.wsmse


@pytest.mark.parametrize("command, flag", [
    ("convergence", "--trials=5"),
    ("convergence", "--init=random"),
    ("convergence", "--mode=proposed"),
    ("optimize", "--trials=5"),
    ("optimize", "--format=json"),
    ("optimize", "--mode=proposed"),
    ("estimate", "--trials=5"),
    ("estimate", "--format=csv"),
])
def test_commands_reject_flags_they_ignore(command, flag, tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = cli.main([command, "--m", "4", "--k", "3", "--n", "2", "--snr-db", "0",
                     flag, "--out", str(out)])
    assert code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


class TestPaperProfile:
    def test_gains_table_requires_matching_users(self, tmp_path):
        code = cli.main([
            "sweep-snr", "--k", "4", "--n", "2", "--gains", "paper",
            "--trials", "1", "--snr-db", "0", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_profile_sets_dimensions(self, tmp_path):
        out = tmp_path / "est.json"
        code = cli.main([
            "estimate", "--profile", "paper", "--snr-db", "0", "--mode",
            "conventional", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["algorithms"]["conventional"]["per_user_realized"]) == 32


class TestExitCodes:
    def test_unknown_argument(self):
        assert cli.main(["sweep-snr", "--bogus"]) == 2

    def test_missing_command(self):
        assert cli.main([]) == 2

    def test_config_error_from_gains_file(self, tmp_path):
        gains = tmp_path / "gains.txt"
        gains.write_text("0.5\n0.5\n")
        code = cli.main([
            "sweep-snr", "--k", "4", "--n", "2", "--gains", str(gains),
            "--trials", "1", "--snr-db", "0", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_unwritable_output(self):
        code = cli.main([
            "sweep-snr", "--m", "4", "--k", "2", "--n", "2", "--trials", "5",
            "--snr-db", "0", "--out", "/nonexistent-dir/rows.csv",
        ])
        assert code == 2

    @pytest.mark.parametrize("command", ["optimize", "convergence"])
    @pytest.mark.parametrize("sweeps", ["0", "-1"])
    def test_sweep_budget_below_one(self, command, sweeps, tmp_path, capsys):
        code = cli.main([
            command, "--m", "4", "--k", "3", "--n", "2", "--snr-db", "0",
            f"--max-sweeps={sweeps}", "--out", str(tmp_path / "out.txt"),
        ])
        assert code == 2
        assert "max_sweeps" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol, tmp_path, capsys):
        code = cli.main([
            "optimize", "--m", "4", "--k", "3", "--n", "2", "--snr-db", "0",
            f"--tol={tol}", "--out", str(tmp_path / "out.txt"),
        ])
        assert code == 2
        assert "tol" in capsys.readouterr().err

    def test_seed_must_be_nonnegative(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = cli.main([
            "sweep-snr", "--m", "4", "--k", "3", "--n", "2", "--trials", "5",
            "--snr-db", "0", "--seed", "-1", "--out", str(out),
        ])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_pilot_length_must_be_whole(self, tmp_path):
        def sweep(n):
            out = tmp_path / f"rows-{n}.csv"
            code = cli.main([
                "sweep-snr", "--m", "4", "--k", "4", "--n", n, "--trials", "5",
                "--snr-db", "0", "--out", str(out),
            ])
            return code, out.read_bytes() if out.exists() else None

        assert sweep("2.6") == (2, None)
        code, whole = sweep("4")
        assert code == 0
        assert sweep("4.0") == (0, whole)

    def test_numerical_failure_maps_to_three(self, monkeypatch):
        def boom(_):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "sweep_snr", boom)
        code = cli.main([
            "sweep-snr", "--m", "4", "--k", "2", "--n", "2", "--trials", "5",
            "--snr-db", "0",
        ])
        assert code == 3


@pytest.mark.parametrize("command", ["optimize", "estimate"])
def test_stdout_appends_to_redirected_file(command, tmp_path):
    # `pilotopt optimize >> log` must add to log, not truncate it
    args = [command, "--m", "8", "--k", "4", "--n", "2", "--snr-db", "3",
            "--seed", "5"]
    out = tmp_path / "out.txt"
    assert cli.main([*args, "--out", str(out)]) == 0
    log = tmp_path / "log.txt"
    log.write_bytes(b"keep\n")
    src = Path(__file__).resolve().parents[1] / "src"
    with open(log, "ab") as fh:
        subprocess.run(
            [sys.executable, "-m", "pilotopt", *args],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=fh, stderr=subprocess.DEVNULL, check=True,
        )
    assert log.read_bytes() == b"keep\n" + out.read_bytes()


def test_import_loads_no_scipy():
    # nor the heavy stdlib packages a thread pool or an XML escape pulls in;
    # pathlib, and so numpy, already loads urllib.parse
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ("scipy", "concurrent", "xml", "urllib.request", "http", "ssl", "email")
    probe = (
        "import sys, pilotopt.cli; print(sorted(m for m in sys.modules if any("
        f"m == h or m.startswith(h + '.') for h in {heavy!r})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"
