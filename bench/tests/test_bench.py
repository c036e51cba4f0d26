"""Tests of the benchmark's own code: tracing, self time and output checks.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402

# two SNR points x two algorithms x five trials
TINY_DESK = ["sweep-snr", "--profile", "desk", "--mode", "both", "--trials", "5",
             "--snr-db", "0,10", "--seed", "7"]
TINY_SPEC = {"users": 8, "pilot_len": 4, "snr_db": [0.0, 10.0], "trials": 5}


def _run(cmd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def tiny_traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    traced, plain = tmp / "traced.csv", tmp / "plain.csv"
    summary, spans = tmp / "summary.json", tmp / "spans.json"
    _run([sys.executable, str(BENCH / "tracer.py"), str(summary), str(spans), "--"]
         + TINY_DESK + ["--out", str(traced)])
    _run([sys.executable, "-m", "pilotopt"] + TINY_DESK + ["--out", str(plain)])
    data = json.loads(summary.read_text())
    data["spans"] = json.loads(spans.read_text())
    return traced, plain, data


def test_traced_counts_are_exact(tiny_traced):
    traced, _, data = tiny_traced
    summary, failures = checks.check_sweep(traced, TINY_SPEC)
    assert failures == []
    assert summary["trial_evals"] == 20
    stats = data["functions"]
    assert stats == tracer.aggregate(data["spans"]["names"], data["spans"]["spans"])
    # from-imported names in harness and model are wrapped
    assert stats["numerics.draw_cn"]["calls"] == 2 * summary["trial_evals"]
    assert stats["numerics.RandomStream.generator"]["calls"] == 2 * summary["trial_evals"]
    # harness._ESTIMATORS holds its own references to both estimators
    assert stats["optimizer.proposed_estimate"]["calls"] == summary["proposed_trial_evals"]
    assert stats["conventional.conventional_estimate"]["calls"] == 10
    assert stats["cli.main"]["calls"] == 1
    assert stats["numerics.hermitian_eig"]["calls"] == 3 * stats["optimizer.rayleigh_update"]["calls"]


def test_traced_output_bytes_equal_untraced(tiny_traced):
    traced, plain, data = tiny_traced
    assert data["exit_code"] == 0
    assert traced.read_bytes() == plain.read_bytes()


def test_self_time_on_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [3, 6] (overlapping, as from two
    # threads); a holds c [2, 3]; d [7, 8] is a second child of root
    spans = [
        (3, 2, 2, 2.0, 3.0),
        (2, 1, 1, 1.0, 4.0),
        (4, 1, 1, 3.0, 6.0),
        (5, 1, 3, 7.0, 8.0),
        (1, 0, 0, 0.0, 10.0),
    ]
    own = tracer.self_times(spans)
    assert own == {1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 1.0}
    stats = tracer.aggregate(["root", "mid", "leaf", "other", "never"], spans)
    assert stats["mid"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0, "us_per_call": 3e6}
    assert stats["root"]["self_s"] == 4.0
    assert stats["never"] == {"calls": 0, "total_s": 0.0, "self_s": 0.0, "us_per_call": 0.0}


def test_checks_reject_bad_sweeps(tiny_traced, tmp_path):
    traced, _, _ = tiny_traced
    lines = traced.read_text().splitlines()

    def failures_of(text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        return checks.check_sweep(bad, TINY_SPEC)[1]

    assert failures_of("\n".join(["x" + lines[0]] + lines[1:]) + "\n")
    assert failures_of("\n".join(lines[:-1]) + "\n")
    row = lines[1].split(",")
    row[4] = repr(float(row[3]) + 5 * float(row[5]))  # empirical 5 stderr off
    assert failures_of("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")


def test_checks_reject_rising_trace(tmp_path):
    spec = {"users": 2, "pilot_len": 1, "snr_db": [0.0], "max_sweeps": 5}
    rows = ["init,update_index,objective"]
    for init in checks.TRACE_INITS:
        rows += [f"{init},0,3.0", f"{init},1,2.0", f"{init},2,1.5"]
    good = tmp_path / "good.csv"
    good.write_text("\n".join(rows) + "\n")
    summary, failures = checks.check_trace(good, spec)
    assert failures == [] and summary["objective_best"] == 1.5
    rows[-1] = "random,2,2.5"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert checks.check_trace(bad, spec)[1]
