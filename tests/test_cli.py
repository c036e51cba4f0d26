import argparse
import ast
import csv
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pilotopt.cli as cli
import pilotopt.optimizer as optimizer
from pilotopt import (
    ExperimentConfig,
    NumericalError,
    SystemConfig,
    design_pilots,
    run_monte_carlo,
    save_pilots,
    sigma2_from_snr,
)


def subcommands(parser):
    """Each name ``parser`` accepts as a command, the alias included, mapped to its parser."""
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


COMMANDS = sorted(subcommands(cli.build_parser()))


def read_csv(path):
    """The rows of a CSV output as dicts of text cells."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
        rows = read_csv(out)
        assert len(rows) == 6
        assert {r["algorithm"] for r in rows} == {"proposed", "conventional"}

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

    def test_one_trial_json_is_strict(self, tmp_path):
        # one trial has an exact standard error too: a finite number, never
        # the NaN that strict RFC 8259 parsers reject, and the CSV agrees
        out = tmp_path / "rows.json"
        assert cli.main(["sweep-snr", "--snr-db", "0", "--trials", "1", "--format",
                         "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text(), parse_constant=pytest.fail)
        stderrs = [row["stderr"] for row in data]
        assert len(stderrs) == 2 and all(np.isfinite(v) and v > 0 for v in stderrs)
        assert cli.main(["sweep-snr", "--snr-db", "0", "--trials", "1",
                         "--out", str(tmp_path / "rows.csv")]) == 0
        rows = read_csv(tmp_path / "rows.csv")
        assert [float(row["stderr"]) for row in rows] == stderrs

    def test_one_point_svg_marks_every_row(self, tmp_path):
        # one SNR: each series is a single point, which a polyline cannot draw
        out = tmp_path / "rows.svg"
        code = cli.main(["sweep-snr", "--m", "8", "--k", "4", "--n", "2", "--trials", "20",
                         "--snr-db", "0", "--format", "svg", "--out", str(out)])
        assert code == 0
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.fromstring(out.read_text())
        markers = root.findall(f"{ns}circle")
        polylines = root.findall(f"{ns}polyline")
        assert len(markers) == len(polylines) == 2
        for marker, line in zip(markers, polylines):
            assert marker.get("fill") == line.get("stroke")
            assert line.get("points") == f"{marker.get('cx')},{marker.get('cy')}"


class TestSweepNCommand:
    def test_alias_of_sweep_snr(self, tmp_path):
        outs = {name: tmp_path / f"{name}.csv" for name in ("sweep-snr", "sweep-n")}
        for name, out in outs.items():
            assert cli.main([name, "--m", "8", "--k", "4", "--n", "1,4", "--trials", "20",
                             "--snr-db", "0,10", "--out", str(out)]) == 0
        assert outs["sweep-snr"].read_bytes() == outs["sweep-n"].read_bytes()
        assert [r["n"] for r in read_csv(outs["sweep-n"])] == ["1"] * 4 + ["4"] * 4

    def test_one_length_svg_is_drawn_against_snr(self, tmp_path):
        out = tmp_path / "rows.svg"
        assert cli.main(["sweep-n", "--m", "8", "--k", "4", "--n", "4", "--trials", "20",
                         "--snr-db", "0,10", "--format", "svg", "--out", str(out)]) == 0
        svg = out.read_text()
        assert ">SNR (dB)</text>" in svg
        assert len(re.findall(r'<polyline points="[^" ]+ [^" ]+"', svg)) == 2

    def test_multiple_lengths(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = cli.main([
            "sweep-n", "--m", "8", "--k", "4", "--n", "1,2,4", "--trials", "40",
            "--snr-db", "0", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert sorted({int(r["n"]) for r in rows}) == [1, 2, 4]
        ana = {(r["algorithm"], r["n"]): float(r["wsmse_analytic"]) for r in rows}
        assert abs(ana["proposed", "4"] - ana["conventional", "4"]) < 1e-9

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

    def test_svg_legend_stays_on_the_canvas(self, tmp_path):
        # 3 lengths on the 16-point default grid: 32 series
        out = tmp_path / "rows.svg"
        assert cli.main(["sweep-n", "--n", "1,2,4", "--trials", "20",
                         "--format", "svg", "--seed", "5", "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        width, height = float(root.get("width")), float(root.get("height"))
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 32
        styles = {(p.get("stroke"), p.get("stroke-dasharray")) for p in polylines}
        assert len(styles) == 32
        keys = [(e.get("stroke"), e.get("stroke-dasharray"))
                for e in root.findall(f"{ns}line") if e.get("stroke") != "black"]
        assert sorted(keys, key=str) == sorted(styles, key=str)
        for e in root.findall(f"{ns}line"):
            for x in (e.get("x1"), e.get("x2")):
                assert 0 <= float(x) <= width
            for y in (e.get("y1"), e.get("y2")):
                assert 0 <= float(y) <= height
        labels = [e for e in root.findall(f"{ns}text") if "dB" in (e.text or "")]
        assert len(labels) == 32
        for e in labels:
            size = float(e.get("font-size"))
            # glyph box: cap height above the baseline, descent below,
            # at most 0.6 em per character
            assert float(e.get("y")) - size >= 0
            assert float(e.get("y")) + size / 4 <= height
            assert float(e.get("x")) + 0.6 * size * len(e.text) <= width


class TestConvergenceCommand:
    def test_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = cli.main([
            "convergence", "--m", "8", "--k", "4", "--n", "2", "--snr-db", "0",
            "--out", str(out),
        ])
        assert code == 0
        parsed = {}
        for row in read_csv(out):
            parsed.setdefault(row["init"], []).append(float(row["objective"]))
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
        assert out.read_text().splitlines()[0] == "2 4"
        entries = np.loadtxt(out, skiprows=1)
        assert entries.shape == (8, 2)
        energies = np.sum(entries.reshape(4, 2, 2) ** 2, axis=(1, 2))
        assert np.allclose(energies, 1.0, rtol=1e-10)

    def test_writes_the_designed_pilots(self, tmp_path):
        out = tmp_path / "pilots.txt"
        assert cli.main(["optimize", "--m", "8", "--k", "4", "--n", "2", "--snr-db",
                         "3", "--seed", "5", "--out", str(out)]) == 0
        cfg = SystemConfig(antennas=8, users=4, pilot_len=2,
                           sigma2=sigma2_from_snr(3.0, np.ones(4)))
        ecfg = ExperimentConfig(antennas=8, users=4, snr_db_list=[3.0], n_list=[2], seed=5)
        expected = tmp_path / "expected.txt"
        save_pilots(expected, design_pilots("proposed", cfg, ecfg)[0])
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("init, how", [
        (None, "constructed"),
        ("dft-reuse", "after 1 sweeps (converged=True)"),
    ])
    def test_reports_the_gap_to_the_bound(self, init, how, tmp_path, capsys):
        # unit gains: the reuse frame is optimal, so both paths reach the bound
        args = ["optimize", "--m", "8", "--k", "4", "--n", "2", "--snr-db", "0",
                "--out", str(tmp_path / "pilots.txt")]
        assert cli.main(args + (["--init", init] if init else [])) == 0
        assert capsys.readouterr().err == (
            f"objective 0.666666666667 {how}, 0.00e+00 relative above the bound "
            "0.666666666667\n")

    def test_random_start_past_k_symbols_reaches_the_bound(self, tmp_path, capsys):
        # at n > k every leave-one-out matrix has a repeated least eigenvalue;
        # a random start once kept its directions and stopped 8.7e-2 above
        assert cli.main(["optimize", "--m", "8", "--k", "4", "--n", "6", "--snr-db", "10",
                         "--init", "random", "--seed", "1",
                         "--out", str(tmp_path / "pilots.txt")]) == 0
        gap = re.search(r", (\S+) relative above the bound", capsys.readouterr().err)
        assert abs(float(gap.group(1))) <= 1e-12

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
        ecfg = ExperimentConfig(antennas=8, users=4, snr_db_list=[10.0], n_list=[2],
                                seed=31, init="random")
        for algorithm in ("proposed", "conventional"):
            x, b, ana, _ = design_pilots(algorithm, cfg, ecfg)
            rep = run_monte_carlo(cfg, x, b, trials=1, seed=31)
            entry = data["algorithms"][algorithm]
            assert entry["per_user_realized"] == [float(v) for v in rep.per_user]
            assert entry["wsmse_realized"] == rep.wsmse
            assert entry["wsmse_analytic"] == ana.wsmse

    def test_builds_each_estimator_once(self, tmp_path, monkeypatch):
        calls = []
        solve = optimizer.solve_hermitian

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(optimizer, "solve_hermitian", counted)
        out = tmp_path / "est.json"
        assert cli.main(["estimate", "--snr-db", "10", "--seed", "5",
                         "--out", str(out)]) == 0
        # the constructed design's estimator is a broadcast division and the
        # baseline's a scalar per user: no solve
        assert len(calls) == 0
        data = json.loads(out.read_text())
        cfg = SystemConfig(antennas=32, users=8, pilot_len=4,
                           sigma2=sigma2_from_snr(10.0, np.ones(8)))
        ecfg = ExperimentConfig(antennas=32, users=8, snr_db_list=[10.0], n_list=[4], seed=5)
        for algorithm in ("proposed", "conventional"):
            x, b, _, _ = design_pilots(algorithm, cfg, ecfg)
            expected = run_monte_carlo(cfg, x, b, 1, 5).per_user
            entry = data["algorithms"][algorithm]
            assert entry["per_user_realized"] == [float(v) for v in expected]


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

    @pytest.mark.parametrize("flag", ["--gains", "--power"])
    @pytest.mark.parametrize("text, entry", [
        ("0.5\nabc\n", "'abc'"),
        ("0.5\n0.5 0.6\n", "'0.5 0.6'"),
    ], ids=["not-a-number", "two-numbers"])
    def test_malformed_number_file(self, flag, text, entry, tmp_path, capsys):
        values = tmp_path / "bad.txt"
        values.write_text(text)
        out = tmp_path / "rows.csv"
        code = cli.main(["sweep-snr", "--snr-db", "0", "--trials", "5", "--k", "2",
                         flag, str(values), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {values} line 2: expected one number, got {entry}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gains", "--power"])
    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"],
                             ids=["empty", "comment-only"])
    def test_number_file_without_values(self, flag, text, tmp_path, capsys):
        values = tmp_path / "none.txt"
        values.write_text(text)
        out = tmp_path / "rows.csv"
        code = cli.main(["sweep-snr", "--snr-db", "0", "--trials", "5", "--k", "2",
                         flag, str(values), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {values}: file contains no values\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gains", "--power"])
    def test_number_file_not_utf8(self, flag, tmp_path, capsys):
        # a UTF-16 byte order mark before "bad"
        values = tmp_path / "utf16.txt"
        values.write_bytes(bytes.fromhex("fffe006261640a"))
        out = tmp_path / "rows.csv"
        code = cli.main(["sweep-snr", "--snr-db", "0", "--trials", "5",
                         flag, str(values), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {values}: file is not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep-snr", "optimize", "estimate"])
    def test_closed_standard_output(self, command, capsys, monkeypatch):
        # a process started with stdout closed (`>&-`) has sys.stdout None
        monkeypatch.setattr(sys, "stdout", None)
        code = cli.main([command, "--m", "4", "--k", "2", "--n", "2", "--snr-db", "0",
                         *(["--trials", "5"] if command == "sweep-snr" else []),
                         "--out", "-"])
        assert code == 2
        assert capsys.readouterr().err.endswith("i/o error: standard output is closed\n")

    def test_unwritable_output(self):
        code = cli.main([
            "sweep-snr", "--m", "4", "--k", "2", "--n", "2", "--trials", "5",
            "--snr-db", "0", "--out", "/nonexistent-dir/rows.csv",
        ])
        assert code == 2

    def test_singular_gram_matrix_exits_3(self):
        # at N = 4 > K = 2 the proposed design's Gram matrix has two
        # eigenvalues at sigma2, 1e-13 of the largest at 130 dB: the check on
        # its exact spectrum lambda* + sigma2 names it
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pilotopt", "sweep-snr", "--k", "2", "--n",
             "4", "--snr-db", "130", "--trials", "5", "--out", "-"],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == (
            "numerical failure: a is singular or not positive definite: smallest eigenvalue "
            "1.000000e-13 vs largest 1.000000e+00\n"
        )

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

    @pytest.mark.parametrize("command", ["sweep-snr", "optimize"])
    @pytest.mark.parametrize("args, message", [
        (["--snr-db=nan"], "snr_db must be finite, got nan"),
        (["--snr-db=inf"], "snr_db must be finite, got inf"),
        (["--snr-db=-inf"], "snr_db must be finite, got -inf"),
        (["--snr-db=4000"], "snr_db 4000.0 puts the noise variance outside the float range"),
        (["--snr-db=0", "--k", "8", "--power", "1e308"],
         "powers are too large: their mean overflows"),
    ])
    def test_noise_variance_inputs_rejected_by_name(self, command, args, message,
                                                    tmp_path, capsys):
        out = tmp_path / "out.txt"
        code = cli.main([command, "--m", "4", "--k", "3", "--n", "2", *args,
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["optimize", "--power", "1e308", "--k", "1", "--m", "4", "--n", "1"],
         "powers and gains are too large: 2 * (sum_k g_k P_k + sigma2) overflows in "
         "the pilot Gram matrix"),
        (["estimate", "--power", "1e-320"],
         "sigma2 1e-320 is too small: pilot_len / sigma2 overflows"),
        (["sweep-snr", "--k", "4", "--m", "8", "--n", "2", "--gains", "GAINS",
          "--trials", "20"],
         "gains are too small: the WSMSE weight 1 / (users * antennas * g_k) overflows"),
    ])
    def test_float_range_inputs_rejected_by_name(self, args, message, tmp_path,
                                                 capsys):
        gains = tmp_path / "gains.txt"
        gains.write_text("5e-324\n1\n1\n1\n")
        args = [str(gains) if a == "GAINS" else a for a in args]
        out = tmp_path / "out.txt"
        assert cli.main([*args, "--snr-db", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_user_count_past_the_address_space_rejected_by_name(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        side = 10**22 + 2
        assert cli.main(["sweep-snr", f"--k={10**22}", "--m", "4", "--n", "2",
                         "--snr-db", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: dimensions are too large: {side} x {side} "
                                           "complex arrays exceed the address space\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["optimize", "estimate"])
    @pytest.mark.parametrize("args, message", [
        (["--n", "2", "--snr-db", "0,3"], "one SNR point, got 2"),
        (["--n", "1,2", "--snr-db", "0"], "one pilot length, got 2"),
    ])
    def test_single_point_commands_need_one_point(self, command, args, message,
                                                  tmp_path, capsys):
        out = tmp_path / "out.txt"
        code = cli.main([command, "--m", "4", "--k", "3", *args, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_user_count(self, command, tmp_path, capsys):
        out = tmp_path / "out.txt"
        assert cli.main([command, "--k", "-1", "--snr-db", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: dimensions must be positive, got antennas=32, users=-1, pilot_len=4\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--gains", "FILE"], "gains must be a scalar or a length-4 sequence, got shape (2,)"),
        (["--gains", "paper"], "gains must be a scalar or a length-4 sequence, got shape (32,)"),
        (["--power", "FILE"], "powers must be a scalar or a length-4 sequence, got shape (2,)"),
    ])
    def test_per_user_inputs_of_the_wrong_length(self, args, message, tmp_path, capsys):
        values = tmp_path / "values.txt"
        values.write_text("0.5\n0.5\n")
        args = [str(values) if a == "FILE" else a for a in args]
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep-snr", "--k", "4", "--n", "2", *args, "--trials", "1",
                         "--snr-db", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_numerical_failure_maps_to_three(self, monkeypatch):
        def boom(_):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "sweep_snr", boom)
        code = cli.main([
            "sweep-snr", "--m", "4", "--k", "2", "--n", "2", "--trials", "5",
            "--snr-db", "0",
        ])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["--snr-db", "100"],
        # a weight of about 1e-301, whose squares underflow
        ["--snr-db", "3000", "--m", "2", "--k", "1", "--n", "1"],
        # seeds that failed the gate while it divided by the sample's stderr
        *(["--seed", str(seed)] for seed in (5, 9, 11, 15, 19)),
    ])
    def test_few_trial_sweeps_pass_the_gate(self, argv, tmp_path):
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep-snr", "--trials", "3", *argv, "--out", str(out)]) == 0


class TestExperimentOptions:
    OPTIONS = ("seed", "tol", "max_sweeps", "init", "mode")

    @staticmethod
    def resolve(monkeypatch, argv):
        """The :class:`ExperimentConfig` that ``pilotopt argv`` hands its command."""
        seen = []
        run = subcommands(cli.build_parser())[argv[0]].get_default("run")
        monkeypatch.setattr(cli, run.__name__, lambda ecfg, _: seen.append(ecfg) or 0)
        assert cli.main(argv) == 0
        return seen[0]

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unset_options_take_the_field_defaults(self, command, profile, monkeypatch):
        ecfg = self.resolve(monkeypatch, [command, "--profile", profile, "--snr-db", "0"])
        defaults = {f.name: f.default for f in fields(ExperimentConfig)}
        for name in self.OPTIONS:
            assert getattr(ecfg, name) == defaults[name]
        # the sweeps take the profile's trial count, the others never read one
        sweep = command.startswith("sweep")
        assert ecfg.trials == (cli._PROFILES[profile]["trials"] if sweep else defaults["trials"])

    def test_given_options_pass_through(self, monkeypatch):
        ecfg = self.resolve(monkeypatch, [
            "sweep-snr", "--snr-db", "0", "--seed", "0", "--tol", "0", "--max-sweeps", "7",
            "--init", "dft-k", "--mode", "proposed", "--trials", "9",
        ])
        assert (ecfg.seed, ecfg.tol, ecfg.max_sweeps, ecfg.init, ecfg.mode, ecfg.trials) == (
            0, 0.0, 7, "dft-k", "proposed", 9)


@pytest.mark.parametrize("command", ["optimize", "estimate", "sweep-snr"])
def test_stdout_appends_to_redirected_file(command, tmp_path):
    # `pilotopt optimize >> log` must add to log, not truncate it; the
    # subprocess runs the entry point, which freezes the heap first
    args = [command, "--m", "8", "--k", "4", "--n", "2", "--snr-db", "3",
            "--seed", "5", *(["--trials", "20"] if command == "sweep-snr" else [])]
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


SRC = Path(__file__).resolve().parents[1] / "src"
SWEEP_ARGV = ["sweep-snr", "--m", "4", "--k", "2", "--n", "2", "--trials", "20",
              "--snr-db", "0,10", "--seed", "3"]


def _new_modules(tmp_path, runs, names):
    """The modules among ``names`` (or inside them) that the ``runs`` of ``main`` load.

    The runs go once through an interpreter that imports ``site`` and once
    through a clean one (-S, numpy's site directory on the path), where no
    .pth file has imported anything yet. Only what the package and its
    commands add to ``import numpy`` counts: numpy 1.x imports
    numpy.random itself. For each interpreter, the sorted names loaded so
    far after each run.
    """
    site_dir = os.path.dirname(os.path.dirname(np.__file__))
    found = []
    for flags, path in [([], str(SRC)), (["-S"], os.pathsep.join([str(SRC), site_dir]))]:
        probe = (
            "import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import pilotopt.cli\n"
            f"for i, argv in enumerate({runs!r}):\n"
            f"    out = {str(tmp_path)!r} + '/out%d' % i\n"
            "    assert pilotopt.cli.main([*argv, '--out', out]) == 0, argv\n"
            "    print(sorted(m for m in set(sys.modules) - before if any("
            f"m == h or m.startswith(h + '.') for h in {names!r})))\n"
        )
        done = subprocess.run(
            [sys.executable, *flags, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        found.append([ast.literal_eval(line) for line in done.stdout.splitlines()])
    return found


def test_commands_load_no_numpy_random(tmp_path):
    # every draw comes from the standard library's generator, so no command
    # loads numpy's generators or the hashlib and OpenSSL modules they pull
    # in. In the clean interpreter the bundled gains table must also be read
    # without importlib.resources and what it pulls in, and every parser
    # formats at a fixed width, so argparse never imports shutil (with bz2
    # and lzma) to look up the terminal's
    small = ["--m", "8", "--k", "4", "--n", "2", "--snr-db", "0", "--seed", "1"]
    runs = [
        ["sweep-snr", *small, "--trials", "20"],
        ["convergence", *small],
        ["estimate", *small],
        ["optimize", *small, "--init", "random"],
        ["estimate", "--profile", "paper", "--snr-db", "0", "--seed", "1"],
    ]
    heavy = ("numpy.random", "secrets", "hashlib", "_hashlib", "importlib.resources",
             "pathlib", "tempfile", "shutil")
    for found in _new_modules(tmp_path, runs, heavy):
        assert found == [[]] * len(runs)


# the commands of the benchmark's gated workloads, as bench/run.py runs them
GATED_SWEEPS = {
    "desk-sweep": ["sweep-snr", "--profile", "desk", "--mode", "both", "--trials", "200"],
    "paper-point": ["sweep-snr", "--profile", "paper", "--snr-db", "0", "--mode", "both",
                    "--trials", "200"],
}


def test_only_the_cyclic_routes_load_the_optimizer(tmp_path):
    # the constructed design and the baseline are closed forms, so neither
    # gated sweep compiles pilotopt.optimizer; a cyclic start, the convergence
    # traces and optimize, which reports the objective, each load it
    gated = [[*argv, "--seed", "1"] for argv in GATED_SWEEPS.values()]
    for found in _new_modules(tmp_path, gated, ("pilotopt.optimizer",)):
        assert found == [[]] * len(gated)
    small = ["--m", "8", "--k", "4", "--n", "2", "--snr-db", "0", "--seed", "1"]
    for argv in (["sweep-snr", *small, "--trials", "20", "--init", "random"],
                 ["convergence", *small], ["optimize", *small]):
        for found in _new_modules(tmp_path, [argv], ("pilotopt.optimizer",)):
            assert found == [["pilotopt.optimizer"]], argv


@pytest.mark.parametrize("workload", sorted(GATED_SWEEPS))
def test_gated_sweeps_call_no_solve_or_decomposition(workload, tmp_path, monkeypatch):
    # the constructed design's estimators are one broadcast division on its
    # known spectrum and the baseline's a scalar per user, so neither gated
    # sweep reaches LAPACK's LU solve, an eigensolver or the SVD
    def fails(*args, **kwargs):
        raise AssertionError("a gated sweep called a numpy.linalg solve or decomposition")

    for name in ("solve", "eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, fails)
    out = tmp_path / "rows.csv"
    assert cli.main([*GATED_SWEEPS[workload], "--seed", "1", "--out", str(out)]) == 0
    assert {row["algorithm"] for row in read_csv(out)} == {"proposed", "conventional"}


@pytest.mark.parametrize("argv", [
    *GATED_SWEEPS.values(),
    ["estimate", "--profile", "paper", "--snr-db", "0"],
    ["optimize", "--profile", "paper", "--snr-db", "0"],
], ids=[*GATED_SWEEPS, "paper-estimate", "paper-optimize"])
def test_constructed_commands_call_no_numpy_sort(argv, tmp_path, monkeypatch):
    # the closed form sorts its K energies and bins and picks its Givens
    # coordinates on Python floats and lists, so no constructed command pages
    # in numpy's sort code
    def fails(*args, **kwargs):
        raise AssertionError("a constructed command called numpy's sort")

    for name in ("sort", "argsort"):
        monkeypatch.setattr(np, name, fails)
    assert cli.main([*argv, "--seed", "1", "--out", str(tmp_path / "out")]) == 0


def test_gated_sweeps_page_in_no_blas_code(tmp_path):
    # the error law sums its Gram matrix in numpy's long-double loop and the
    # norms and the overflow guard are plain sums, so neither gated sweep nor
    # the paper estimate runs an OpenBLAS kernel: the resident pages of the
    # library's code stay those that importing numpy touched
    if not os.path.exists("/proc/self/smaps"):
        pytest.skip("no /proc/self/smaps to read resident pages from")
    runs = [[*argv, "--seed", "1"] for argv in GATED_SWEEPS.values()]
    runs.append(["estimate", "--profile", "paper", "--snr-db", "0"])
    probe = (
        "import pilotopt.cli\n"
        "def blas_code_kb():\n"
        "    kb, code = None, False\n"
        "    with open('/proc/self/smaps') as fh:\n"
        "        for line in fh:\n"
        "            head, *rest = line.split()\n"
        "            if not head.endswith(':'):\n"
        "                code = 'x' in rest[0] and 'openblas' in line\n"
        "            elif code and head == 'Rss:':\n"
        "                kb = (kb or 0) + int(rest[0])\n"
        "    return kb\n"
        "print(blas_code_kb())\n"
        f"for i, argv in enumerate({runs!r}):\n"
        f"    out = {str(tmp_path)!r} + '/out%d' % i\n"
        "    assert pilotopt.cli.main([*argv, '--out', out]) == 0, argv\n"
        "    print(blas_code_kb())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    before, *after = map(ast.literal_eval, done.stdout.split())
    if before is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS library mapped into the process")
    assert after == [before] * len(runs)


def test_csv_sweep_loads_no_chart_json_or_csv(tmp_path):
    # a CSV sweep compiles and imports only what it writes with: the chart
    # module and json load with the first SVG and JSON outputs
    runs = [
        ["sweep-snr", "--snr-db", "0", "--trials", "20", "--seed", "1"],
        ["sweep-snr", "--snr-db", "0", "--trials", "20", "--seed", "1",
         "--format", "svg"],
        ["convergence", "--snr-db", "0", "--seed", "1", "--format", "json"],
    ]
    for csv_run, svg_run, json_run in _new_modules(tmp_path, runs,
                                                   ("json", "csv", "pilotopt.plot")):
        assert csv_run == []
        assert svg_run == ["pilotopt.plot"]
        assert "json" in json_run and "csv" not in json_run


@pytest.mark.parametrize("columns", [None, "60", "100", "0", "wide"])
def test_help_keeps_argparse_default_width(columns, monkeypatch):
    # each parser formats at the fixed width its default formatter would
    # have looked up, so help and usage text keep their bytes
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    parser = cli.build_parser()
    for p in [parser, *subcommands(parser).values()]:
        fixed = p.format_help(), p.format_usage()
        p.formatter_class = argparse.HelpFormatter
        assert (p.format_help(), p.format_usage()) == fixed


def test_entrypoint_freezes_the_heap(tmp_path):
    # the exit hook runs after main returns, so it sees the heap as the run
    # left it, and it runs once, though the process ends without teardown
    out = tmp_path / "rows.csv"
    assert cli.main([*SWEEP_ARGV, "--out", str(out)]) == 0
    probe = (
        "import atexit, gc, sys, pilotopt.cli\n"
        "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
        f"sys.argv = ['pilotopt', *{SWEEP_ARGV!r}]\n"
        "pilotopt.cli.entrypoint()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, check=True,
    )
    (frozen,) = done.stderr.split()
    assert int(frozen) > 0
    assert done.stdout == out.read_bytes()


def test_piped_output_keeps_its_last_buffer(tmp_path):
    # 64.5 kB, many times stdout's 8 KiB buffer: the final flush before the
    # process ends writes the last part (PYTHONUNBUFFERED would write each line)
    args = ["convergence", "--profile", "paper", "--snr-db", "0", "--seed", "1"]
    out = tmp_path / "trace.csv"
    assert cli.main([*args, "--out", str(out)]) == 0
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run(
        [sys.executable, "-m", "pilotopt", *args, "--out", "-"],
        env={**env, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE, check=True,
    )
    assert len(done.stdout) > 4 * 8192
    assert done.stdout == out.read_bytes()


def _failed_final_flush(argv, stdout):
    """``(exit code, stderr)`` of a run whose output waits in stdout's buffer till the end."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run(
        [sys.executable, "-m", "pilotopt", *argv],
        env={**env, "PYTHONPATH": str(SRC)},
        stdout=stdout, stderr=subprocess.PIPE, text=True,
    )
    return done.returncode, done.stderr


def test_failed_flush_into_a_closed_pipe_is_an_io_error():
    # a pipe with no reader: reported as main reports a failed write
    read, write = os.pipe()
    os.close(read)
    try:
        code, err = _failed_final_flush(["optimize", "--snr-db", "0", "--seed", "1"], write)
    finally:
        os.close(write)
    assert code == 2
    assert err.count("i/o error") == 1
    assert err.endswith("\ni/o error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_flush_into_a_full_device_is_an_io_error():
    # the sweep's rows fit stdout's buffer, so the final flush is the first
    # write; it reports once, and nothing flushes the buffer again at exit
    with open("/dev/full", "w") as full:
        code, err = _failed_final_flush(["sweep-snr", "--trials", "20", "--out", "-"], full)
    assert code == 2
    assert len(re.findall(r"^i/o error: \[Errno 28\] ", err, flags=re.MULTILINE)) == 1
    assert "Exception ignored" not in err


def test_profiled_run_writes_its_profile(tmp_path):
    # cProfile writes its file as SystemExit unwinds, so a profiled run
    # takes the interpreter's exit
    prof = tmp_path / "sweep.prof"
    subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(prof), "-m", "pilotopt",
         *SWEEP_ARGV, "--out", str(tmp_path / "rows.csv")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, check=True,
    )
    assert prof.stat().st_size > 0


def test_inspect_flag_opens_the_prompt(tmp_path):
    # python -i prompts after the module ends, and the prompt reads stdin
    done = subprocess.run(
        [sys.executable, "-i", "-m", "pilotopt", *SWEEP_ARGV,
         "--out", str(tmp_path / "rows.csv")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        input="print('prompted')\n", capture_output=True, text=True, check=True,
    )
    assert done.stdout == "prompted\n"


@pytest.mark.parametrize("tools, observed", [({}, False), ({5: "coverage"}, True)])
def test_monitoring_tools_keep_the_interpreters_exit(tools, observed, monkeypatch):
    # Python 3.12+ registers a tool such as coverage under one of the ids
    # 0-5 of sys.monitoring; a stand-in runs the check on any version
    asked = []

    def get_tool(tool_id):
        asked.append(tool_id)
        return tools.get(tool_id)

    monkeypatch.setattr(sys, "monitoring", SimpleNamespace(get_tool=get_tool), raising=False)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    assert cli._observed() is observed
    assert asked == list(range(6))


def test_library_callers_never_freeze(tmp_path):
    # the heap belongs to the host: only the command line entry point freezes
    probe = (
        "import gc, pilotopt, pilotopt.cli\n"
        f"code = pilotopt.cli.main([*{SWEEP_ARGV!r}, '--out', {str(tmp_path / 'r.csv')!r}])\n"
        "print(code, gc.get_freeze_count())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == ["0", "0"]


@pytest.mark.parametrize("setup, collections", [
    ("gc.set_threshold(123, 4, 5)", 0),
    ("gc.disable()", 0),
    ("", 0),
    # a caller's frozen objects stay frozen, as gc.unfreeze would thaw them,
    # so the first allocation after the import walks it in one collection
    ("gc.freeze()", 1),
])
def test_import_restores_the_callers_collector(setup, collections):
    probe = (
        f"import gc\n{setup}\n"
        "before = gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()\n"
        "runs = []\n"
        "gc.callbacks.append(lambda phase, info: runs.append(phase == 'start'))\n"
        "import pilotopt\n"
        "print(gc.get_threshold(), gc.isenabled(), gc.get_freeze_count())\n"
        "print(*before)\n"
        "print(sum(runs))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    got, before, runs = done.stdout.splitlines()
    assert got == before
    assert int(runs) == collections
    if setup == "gc.freeze()":
        assert int(got.split()[-1]) > 0


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _run_python(args, blas_env, **kwargs):
    """Run ``python args`` with ``PYTHONPATH=src`` and only ``blas_env`` of the BLAS variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_env, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, check=True, **kwargs)


# numpy's Linux wheels bundle a prefixed 64-bit-integer OpenBLAS in numpy.libs;
# loading a library the process already holds returns its live handle
_THREADS_PROBE = """
import ctypes, glob, json, os
import pilotopt, numpy
site = os.path.dirname(os.path.dirname(numpy.__file__))
threads = None
for path in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
    fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
    if fn is not None:
        threads = fn()
env = {k: os.environ.get(k) for k in %r}
print(json.dumps({"threads": threads, "env": env}))
""" % (BLAS_THREAD_VARS,)


def _cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


@pytest.mark.parametrize("blas_env, threads", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"GOTO_NUM_THREADS": "2"}, 2),
    ({"OMP_NUM_THREADS": "2"}, 2),
])
def test_import_pins_blas_threads_unless_chosen(blas_env, threads):
    done = _run_python(["-c", _THREADS_PROBE], blas_env, capture_output=True, text=True)
    report = json.loads(done.stdout)
    # the pin leaves the caller's environment as it found it
    assert report["env"] == {k: blas_env.get(k) for k in BLAS_THREAD_VARS}
    if report["threads"] is None:
        pytest.skip("numpy's OpenBLAS exports no scipy_openblas_get_num_threads64_ "
                    "(not a numpy.libs wheel build), so its thread count is unreadable")
    # OpenBLAS caps a requested count at the cores the process may use
    assert report["threads"] == min(threads, _cores())


def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # paper scale: its stacked products are large enough for OpenBLAS to split
    args = ["-m", "pilotopt", "sweep-snr", "--profile", "paper", "--snr-db", "0",
            "--trials", "8", "--seed", "1"]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        _run_python([*args, "--out", str(out)], {"OPENBLAS_NUM_THREADS": threads})
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
