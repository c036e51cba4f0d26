"""Closed-loop benchmark of the pilotopt command line.

One client runs one ``python -m pilotopt`` process at a time, with
``PYTHONPATH=src`` from the checkout, and starts the next only after the
previous one has exited. The benchmark seed is passed to the command
line as ``--seed``, so the same seed gives the same inputs and every
repeat within a run must write the same bytes.

    python3 bench/run.py --workload desk-sweep --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --seed 1 --record bench/BENCH_baseline.json

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the per-layer metrics: one traced run with
``OPENBLAS_NUM_THREADS=1``, then untraced and traced runs in pairs. Without
``--workload`` every workload runs in both modes. The last line of
standard output is one JSON result per workload run; the exit code is 1
when any output check failed and 2 when the program is missing.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

DESK_GRID = [float(v) for v in range(-10, 21, 2)]

# Trial counts keep one Monte Carlo process near 2 s (desk) and 3 s (paper)
# on a 2-core box, so one 55 s run holds 15 to 30 samples. paper-converge
# is measured by hand and in records but not gated in BENCHMARK.json: at
# about 5 s a process, a run holds too few samples to be steady (README).
WORKLOADS = {
    "desk-sweep": {
        "args": ["sweep-snr", "--profile", "desk", "--mode", "both", "--trials", "200"],
        "kind": "sweep", "users": 8, "pilot_len": 4, "snr_db": DESK_GRID, "trials": 200,
    },
    "paper-point": {
        "args": ["sweep-snr", "--profile", "paper", "--snr-db", "0", "--mode", "both",
                 "--trials", "200"],
        "kind": "sweep", "users": 32, "pilot_len": 16, "snr_db": [0.0], "trials": 200,
    },
    "paper-converge": {
        "args": ["convergence", "--profile", "paper", "--snr-db", "0", "--tol", "1e-12",
                 "--max-sweeps", "300"],
        "kind": "trace", "users": 32, "pilot_len": 16, "snr_db": [0.0], "max_sweeps": 300,
    },
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "proposed_wsmse": "wsmse",
    "objective_best": "trace",
}

# Wrapped functions whose numbers BENCHMARK.json names; the record keeps all.
LAYER_FUNCTIONS = (
    "numerics.RandomStream.generator",
    "numerics.draw_cn",
    "numerics.hermitian_eig",
    "numerics.solve_hermitian",
    "numerics.inv_sqrt_psd",
    "model.generate_channel",
    "model.received_pilot_signal",
    "conventional.conventional_estimate",
    "optimizer.gram_matrix",
    "optimizer.objective",
    "optimizer.leave_one_out",
    "optimizer.rayleigh_update",
    "optimizer.optimize_pilots",
    "optimizer.proposed_estimate",
    "optimizer.analytic_wsmse",
    "harness.run_monte_carlo",
    "harness.sweep_snr",
    "harness.convergence_trace",
    "report.emit",
    "report.write_sweep_csv",
    "report.write_trace_csv",
    "cli.main",
)
DERIVED_UNITS = {
    "harness.draws_per_trial": "ratio",
    "harness.solves_per_trial": "ratio",
    "optimizer.eigh_per_update": "ratio",
    "optimizer.objective_per_update": "ratio",
    "optimizer.degenerate_share": "ratio",
    "harness.max_z": "stderr",
    "trace.overhead_s": "s",
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us"}

SETUP_SAMPLES = 5
MIN_SAMPLES = 3
# every run of the benchmark ends well inside three minutes
HARD_LIMIT_S = 170.0


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = dict(DERIVED_UNITS)
    for fn in LAYER_FUNCTIONS:
        for field, unit in FIELD_UNITS.items():
            names[f"{fn}.{field}"] = unit
    for fn in LAYER_FUNCTIONS:
        names[f"st.{fn}.us_per_call"] = "us"
    return names


class Run:
    """One invocation: a work directory, a deadline and the failures seen."""

    def __init__(self, work):
        self.work = work
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.attempted = 0
        self.failures = []
        self._count = 0

    def path(self, stem, suffix):
        self._count += 1
        return self.work / f"{stem}-{self._count}{suffix}"

    def left(self):
        return self.deadline - time.monotonic()

    def process(self, cmd, env, stdout_path):
        """Run ``cmd`` to completion; return ``(exit code, wall s, cpu s, peak RSS MB, start)``.

        The exit code is ``None`` when the process was killed at the deadline.
        """
        err_path = stdout_path.with_suffix(".err")
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], max(self.left(), 0.0))
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.monotonic()
            finally:
                os.close(fd)
        code = os.waitstatus_to_exitcode(status)
        proc.returncode = code
        if not ready:
            code = None
        return code, end - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, start

    def cli(self, spec, seed, env, traced=False):
        """One command line run; returns its sample and the checked output path."""
        out = self.path("traced" if traced else "plain", ".csv")
        args = spec["args"] + ["--seed", str(seed), "--out", str(out)]
        trace = out.with_suffix(".trace.json")
        if traced:
            spans = out.with_suffix(".spans.json")
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace), str(spans), "--"] + args
        else:
            cmd = [sys.executable, "-m", "pilotopt"] + args
        self.attempted += 1
        code, wall, cpu, rss, _ = self.process(cmd, env, out.with_suffix(".stdout"))
        sample = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "trace": trace}
        if code != 0:
            reason = "timed out" if code is None else f"exit code {code}"
            tail = out.with_suffix(".err").read_text(errors="replace")[-400:]
            return self.fail(f"{reason}: {tail.strip()}"), out
        check = checks.check_sweep if spec["kind"] == "sweep" else checks.check_trace
        summary, failures = check(out, spec)
        if failures:
            return self.fail("; ".join(failures)), out
        sample["summary"] = summary
        return sample, out

    def fail(self, message):
        self.failures.append(message)
        return None

    def setup_time(self, env):
        """Seconds from process launch to ``pilotopt.cli`` imported."""
        out = self.path("setup", ".txt")
        code = [sys.executable, "-c", "import pilotopt.cli, time; print(time.monotonic())"]
        status, _, _, _, start = self.process(code, env, out)
        if status != 0:
            return self.fail(f"importing pilotopt.cli failed with exit code {status}")
        return float(out.read_text().strip()) - start

    def probe(self, env):
        out = self.path("probe", ".json")
        status, *_ = self.process([sys.executable, str(BENCH / "probe.py")], env, out)
        if status != 0:
            return self.fail(f"environment probe failed with exit code {status}")
        return json.loads(out.read_text())


def child_env(threads=None):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def spread(values):
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def closed_loop(run, spec, seed, seconds, env, traced_pairs=False):
    """Repeat the workload while one more round fits in ``seconds``.

    A round is one untraced process, or an untraced and a traced one in
    pairs mode; the loop makes at least ``MIN_SAMPLES`` rounds, or one in
    pairs mode. Returns the untraced and the traced samples. Every
    output must have the bytes of the first one.
    """
    plain, traced = [], []
    reference = None
    start = time.monotonic()
    while run.left() > 0:
        round_start = time.monotonic()
        for is_traced, bucket in ((False, plain), (True, traced))[: 2 if traced_pairs else 1]:
            sample, out = run.cli(spec, seed, env, traced=is_traced)
            if sample is None:
                return plain, traced
            data = out.read_bytes()
            if reference is None:
                reference = data
            elif data != reference:
                run.fail(f"{out.name}: output bytes differ from the first run with the same seed")
                return plain, traced
            bucket.append(sample)
        elapsed = time.monotonic() - start
        if len(plain) >= MIN_SAMPLES or traced_pairs:
            if elapsed + (time.monotonic() - round_start) > seconds:
                break
    return plain, traced


def end_to_end(run, name, seed, seconds):
    spec = WORKLOADS[name]
    env = child_env()
    run.setup_time(env)  # warm-up: compiles bytecode, fills the page cache
    setups = [run.setup_time(env) for _ in range(SETUP_SAMPLES)]
    if None in setups:
        return None
    samples, _ = closed_loop(run, spec, seed, seconds, env)
    if run.failures:
        return None
    summary = samples[0]["summary"]
    record = {
        "wall_s": spread([s["wall_s"] for s in samples]),
        "setup_s": spread(setups),
        "cpu_s": spread([s["cpu_s"] for s in samples]),
        "peak_rss_mb": spread([s["peak_rss_mb"] for s in samples]),
        "proposed_wsmse": summary["proposed_wsmse"],
        "objective_best": summary["objective_best"],
    }
    metrics = {
        key: {"value": val["median"] if isinstance(val, dict) else val, "unit": END_TO_END_UNITS[key]}
        for key, val in record.items()
    }
    extra = {}
    if summary["trial_evals"]:
        extra["mc_trials_per_s"] = {
            "value": summary["trial_evals"] / record["wall_s"]["median"], "unit": "1/s",
        }
    return {"metrics": metrics, "samples": record, "extra": extra}


def layer_stats(samples):
    """Median per-function numbers over traced samples, the first trace
    summary, and whether every sample made the same calls."""
    files = []
    for sample in samples:
        with open(sample["trace"], encoding="utf-8") as fh:
            files.append(json.load(fh))
    aggs = [data["functions"] for data in files]
    stats = {
        fn: {
            "calls": aggs[0][fn]["calls"],
            "self_s": statistics.median(agg[fn]["self_s"] for agg in aggs),
            "us_per_call": statistics.median(agg[fn]["us_per_call"] for agg in aggs),
        }
        for fn in aggs[0]
    }
    same_calls = all(agg[fn]["calls"] == stats[fn]["calls"] for agg in aggs for fn in stats)
    return stats, files[0], same_calls


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(run, name, seed, seconds):
    spec = WORKLOADS[name]
    env = child_env()
    run.setup_time(env)  # warm-up: compiles bytecode, fills the page cache
    start = time.monotonic()
    single, _ = run.cli(spec, seed, child_env(threads=1), traced=True)
    if single is None:
        return None
    left = seconds - (time.monotonic() - start)
    plain, traced = closed_loop(run, spec, seed, left, env, traced_pairs=True)
    if run.failures:
        return None
    stats, data, same_calls = layer_stats(traced)
    single_stats, single_data, _ = layer_stats([single])
    if not same_calls:
        run.fail("call counts differ between traced runs with the same seed")
        return None

    summary = traced[0]["summary"]
    updates = stats["optimizer.rayleigh_update"]["calls"]
    values = {
        "harness.draws_per_trial": _ratio(stats["numerics.draw_cn"]["calls"], summary["trial_evals"]),
        "harness.solves_per_trial": _ratio(
            stats["numerics.solve_hermitian"]["calls"], summary["proposed_trial_evals"]
        ),
        "optimizer.eigh_per_update": _ratio(stats["numerics.hermitian_eig"]["calls"], updates),
        "optimizer.objective_per_update": _ratio(stats["optimizer.objective"]["calls"], updates),
        "optimizer.degenerate_share": _ratio(
            data["counters"].get(tracer.DEGENERATE_COUNTER, 0), updates
        ),
        "harness.max_z": summary["max_z"],
        "trace.overhead_s": statistics.median(s["wall_s"] for s in traced)
        - statistics.median(s["wall_s"] for s in plain),
    }
    for fn in LAYER_FUNCTIONS:
        for field in FIELD_UNITS:
            values[f"{fn}.{field}"] = stats[fn][field]
        values[f"st.{fn}.us_per_call"] = single_stats[fn]["us_per_call"]
    units = per_layer_names()
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    return {
        "metrics": metrics,
        "default_threads": {"functions": stats, "blas_runtime": data["blas_runtime"],
                            "traced_runs": len(traced)},
        "single_thread": {"functions": single_stats, "blas_runtime": single_data["blas_runtime"]},
        "wall_s": {"untraced": spread([s["wall_s"] for s in plain]),
                   "traced": spread([s["wall_s"] for s in traced]),
                   "single_thread_traced": single["wall_s"]},
    }


def git_commit():
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_table(name, mode, result, extra=None):
    print(f"{name} [{mode}]")
    rows = dict(result["metrics"])
    rows.update(extra or {})
    for key, metric in rows.items():
        print(f"  {key:48s} {metric['value']:>16.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="write the full run record as JSON to this path")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pilotopt" / "cli.py").is_file():
        print(f"error: no pilotopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_run"))
    record = {
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "loop": "closed, one client, one CLI process at a time",
        "workloads": {},
    }
    failed_any = False
    try:
        for name in names:
            entry = record["workloads"].setdefault(
                name, {"command": ["python", "-m", "pilotopt"] + WORKLOADS[name]["args"]}
            )
            for mode in modes:
                run = Run(work)
                if args.record and "environment" not in record:
                    record["environment"] = run.probe(child_env())
                    record["environment_single_thread"] = run.probe(child_env(threads=1))
                measure = per_layer if mode else end_to_end
                result = measure(run, name, args.seed, args.seconds)
                correct = not run.failures
                attempted, failed = max(run.attempted, 1), len(run.failures)
                failed_any |= not correct
                key = "per_layer" if mode else "end_to_end"
                entry[key] = result
                entry[f"{key}_checks"] = {
                    "attempted": attempted, "failed": failed, "failures": run.failures,
                    "error_rate": failed / attempted,
                }
                if correct:
                    extra = dict(result.get("extra", {}))
                    if not mode:
                        extra["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
                    print_table(name, "per-layer" if mode else "end-to-end", result, extra)
                for message in run.failures:
                    print(f"{name}: check failed: {message}")
                if len(names) == 1:
                    print(json.dumps({
                        "correct": correct,
                        "attempted": attempted,
                        "failed": failed,
                        "metrics": result["metrics"] if correct else {},
                    }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
