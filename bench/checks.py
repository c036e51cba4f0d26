"""Output checks on pilotopt result files, and the quality figures read from them.

Each ``check_*`` function returns ``(summary, failures)``: the figures the
benchmark reports from the file, and one message per failed check. An
empty failure list means the file passed every check.
"""

import csv
import math

SWEEP_HEADER = [
    "snr_db",
    "n",
    "algorithm",
    "wsmse_analytic",
    "wsmse_empirical",
    "stderr",
    "trials",
    "sweeps",
]
TRACE_HEADER = ["init", "update_index", "objective"]
TRACE_INITS = ("dft-reuse", "dft-k", "random")

# the command line's own consistency gate uses the same limit
Z_LIMIT = 4.0
# per-update objective increase allowed as rounding; acceptance criterion 4 uses it
MONOTONE_TOL = 1e-12


def sigma2(snr_db):
    """Noise variance at ``snr_db`` for unit power budgets, as the CLI computes it."""
    return 1.0 / 10.0 ** (snr_db / 10.0)


def objective_from_wsmse(wsmse, users, pilot_len, snr_db):
    """``tr(A^{-1})`` from the analytic WSMSE ``1 - N/K + (sigma2/K) tr(A^{-1})``."""
    return users * (wsmse - 1.0 + pilot_len / users) / sigma2(snr_db)


def wsmse_from_objective(objective, users, pilot_len, snr_db):
    return 1.0 - pilot_len / users + sigma2(snr_db) * objective / users


def _read(path, header):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        return None, [f"header is {rows[0] if rows else None}, expected {header}"]
    return rows[1:], []


def check_sweep(path, spec):
    """Check a ``sweep-snr --mode both`` CSV against the workload ``spec``.

    ``spec`` holds ``users``, ``pilot_len``, ``snr_db`` (the grid) and
    ``trials``.
    """
    rows, failures = _read(path, SWEEP_HEADER)
    if rows is None:
        return None, failures
    expected = [(snr, alg) for snr in spec["snr_db"] for alg in ("proposed", "conventional")]
    if len(rows) != len(expected):
        return None, [f"{len(rows)} rows, expected {len(expected)}"]

    analytic = {}
    proposed = []
    max_z = 0.0
    trial_evals = proposed_evals = 0
    for rec, (snr, alg) in zip(rows, expected):
        try:
            r_snr, r_n, r_alg = float(rec[0]), int(rec[1]), rec[2]
            ana, emp, err, trials = float(rec[3]), float(rec[4]), float(rec[5]), int(rec[6])
        except (ValueError, IndexError):
            failures.append(f"unparsable row {rec}")
            continue
        if (r_snr, r_n, r_alg, trials) != (snr, spec["pilot_len"], alg, spec["trials"]):
            failures.append(f"row {rec[:3]} + trials {trials} is not the expected {snr} {alg}")
            continue
        if not 0.0 <= ana <= 1.0:
            failures.append(f"{alg} @ {snr} dB: wsmse_analytic {ana} outside [0, 1]")
        if not (math.isfinite(err) and err > 0.0):
            failures.append(f"{alg} @ {snr} dB: stderr {err} is not a positive number")
            continue
        z = abs(emp - ana) / err
        max_z = max(max_z, z)
        if z > Z_LIMIT:
            failures.append(f"{alg} @ {snr} dB: |emp - ana| = {z:.2f} stderr > {Z_LIMIT}")
        analytic[(snr, alg)] = ana
        trial_evals += trials
        if alg == "proposed":
            proposed_evals += trials
            proposed.append((snr, ana))

    if spec["pilot_len"] < spec["users"]:
        for snr in spec["snr_db"]:
            p, c = analytic.get((snr, "proposed")), analytic.get((snr, "conventional"))
            if p is not None and c is not None and p > c:
                failures.append(f"proposed {p} above conventional {c} at {snr} dB")
    if failures or not proposed:
        return None, failures or ["no proposed rows"]
    objectives = [
        objective_from_wsmse(ana, spec["users"], spec["pilot_len"], snr) for snr, ana in proposed
    ]
    return {
        "proposed_wsmse": sum(ana for _, ana in proposed) / len(proposed),
        "objective_best": min(objectives),
        "trial_evals": trial_evals,
        "proposed_trial_evals": proposed_evals,
        "max_z": max_z,
    }, []


def check_trace(path, spec):
    """Check a ``convergence`` CSV: three inits, whole sweeps, monotone objective."""
    rows, failures = _read(path, TRACE_HEADER)
    if rows is None:
        return None, failures
    traces = {}
    order = []
    for rec in rows:
        try:
            init, index, value = rec[0], int(rec[1]), float(rec[2])
        except (ValueError, IndexError):
            return None, [f"unparsable row {rec}"]
        if init not in traces:
            order.append(init)
            traces[init] = []
        if index != len(traces[init]):
            return None, [f"{init}: update index {index} out of sequence"]
        traces[init].append(value)
    if tuple(order) != TRACE_INITS:
        return None, [f"inits {order}, expected {list(TRACE_INITS)}"]

    users = spec["users"]
    finals = []
    updates = 0
    for init in TRACE_INITS:
        objs = traces[init]
        n_updates = len(objs) - 1
        if n_updates < users or n_updates % users or n_updates > users * spec["max_sweeps"]:
            failures.append(f"{init}: {len(objs)} rows is not 1 + {users} x sweeps")
        if not all(math.isfinite(v) and v > 0.0 for v in objs):
            failures.append(f"{init}: objective not finite and positive")
        worst = max((b - a for a, b in zip(objs, objs[1:])), default=0.0)
        if worst > MONOTONE_TOL:
            failures.append(f"{init}: objective rose by {worst:.3e} in one update")
        finals.append(objs[-1])
        updates += n_updates
    if failures:
        return None, failures
    snr = spec["snr_db"][0]
    wsmse = [wsmse_from_objective(v, users, spec["pilot_len"], snr) for v in finals]
    return {
        "proposed_wsmse": sum(wsmse) / len(wsmse),
        "objective_best": min(finals),
        "trial_evals": 0,
        "proposed_trial_evals": 0,
        "max_z": 0.0,
        "updates": updates,
    }, []
