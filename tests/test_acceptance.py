"""End-to-end acceptance checks for the full pilot-optimization pipeline.

Each test prints one ``ACCEPTANCE <n> PASS/FAIL`` line (visible with
``pytest -s``) and enforces its stated tolerance. Criterion 3 measures
every optimizer run against the Schur-Horn lower bound on the objective,
:func:`~pilotopt.closedform.optimality_bound`: off-frame starts reach
it, while the DFT-reuse start stays inside its orthogonal direction set
and stops on a saddle above it (a small perturbation of that endpoint
descends to the bound). The default design, constructed pilots, meets
the bound on every sweep row.
"""

import time

import numpy as np
import pytest

import pilotopt.cli as cli
from pilotopt import (
    ExperimentConfig,
    RandomStream,
    SystemConfig,
    analytic_wsmse,
    combiner,
    conventional_estimator,
    design_reuse_pilots,
    hermitian_eig,
    init_pilots,
    leave_one_out,
    objective,
    optimality_bound,
    optimize_pilots,
    proposed_estimator,
    rayleigh_update,
    receiver_scalar,
    reference_gains,
    run_monte_carlo,
    sigma2_from_snr,
    sweep_snr,
)

SNR_GRID = [float(s) for s in range(-10, 21, 2)]


def report(number, passed, description):
    print(f"\nACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {description}")


def wsmse(x, estimator, cfg):
    """Analytic WSMSE of pilots ``x`` under ``estimator(x, cfg)``."""
    return analytic_wsmse(x, estimator(x, cfg), cfg).wsmse


def reference_cfg(snr_db, pilot_len=16):
    gains = reference_gains()
    return SystemConfig(
        antennas=128,
        users=32,
        pilot_len=pilot_len,
        sigma2=sigma2_from_snr(snr_db, np.ones(32)),
        powers=1.0,
        gains=gains,
    )


def test_criterion_1_dominance_over_snr_grid():
    started = time.perf_counter()
    failures = []
    for snr_db in SNR_GRID:
        cfg = reference_cfg(snr_db)
        x0 = init_pilots("dft-reuse", cfg)
        x_opt, _ = optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=100)
        proposed = wsmse(x_opt, proposed_estimator, cfg)
        conventional = wsmse(design_reuse_pilots(cfg), conventional_estimator, cfg)
        if proposed > conventional:
            failures.append(f"{snr_db} dB: {proposed} > {conventional}")
        if snr_db <= 10.0 and not proposed < conventional:
            failures.append(f"{snr_db} dB: not strictly below")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    report(1, not failures, "optimized pilots dominate the reuse baseline "
           f"on the SNR grid ({elapsed:.1f}s)")
    assert not failures, "; ".join(failures)


def test_criterion_2_orthogonal_point_equality():
    failures = []
    for snr_db in (0.0, 10.0):
        cfg = reference_cfg(snr_db, pilot_len=32)
        x0 = init_pilots("dft-reuse", cfg)
        x_opt, _ = optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=100)
        proposed = wsmse(x_opt, proposed_estimator, cfg)
        conventional = wsmse(design_reuse_pilots(cfg), conventional_estimator, cfg)
        closed = cfg.sigma2 / 32 * np.sum(1.0 / (cfg.gains * cfg.powers + cfg.sigma2))
        if abs(proposed - conventional) > 1e-9:
            failures.append(f"{snr_db} dB: algorithms differ by {proposed - conventional}")
        if abs(proposed - closed) > 1e-9 or abs(conventional - closed) > 1e-9:
            failures.append(f"{snr_db} dB: closed form mismatch")
    report(2, not failures,
           "full-length pilots: both algorithms hit the orthogonal closed form")
    assert not failures, "; ".join(failures)


def test_schur_horn_bound_matches_closed_forms():
    cfg_one = reference_cfg(0.0, pilot_len=1)
    cfg_full = reference_cfg(0.0, pilot_len=32)
    cases = [
        ("N=1", cfg_one, objective(init_pilots("dft-reuse", cfg_one), cfg_one)),
        ("N=K", cfg_full, objective(init_pilots("dft-reuse", cfg_full), cfg_full)),
    ]
    for label, cfg, closed in cases:
        bound = optimality_bound(cfg)
        assert abs(bound - closed) <= 1e-12 * closed, f"{label}: {bound} != {closed}"


def test_criterion_3_convergence_speed_and_common_objective():
    # The cyclic iteration promises neither a sweep count nor one result
    # from every start at N < K, so each start is measured against the
    # global bound instead of its own endpoint. Off-frame starts reach
    # the bound. The DFT-reuse start cannot leave its 16 orthogonal
    # directions (the per-user update maps that set to itself) and stops
    # on a saddle above the bound; that invariant is checked in place of
    # reaching the bound.
    started = time.perf_counter()
    failures = []
    gaps = []
    for snr_db in (0.0, 3.0):
        cfg = reference_cfg(snr_db)
        bound = optimality_bound(cfg)
        frame = np.fft.fft(np.eye(cfg.pilot_len)) / np.sqrt(cfg.pilot_len)
        finals = {}
        for kind in ("dft-reuse", "dft-k", "random"):
            x0 = init_pilots(kind, cfg, stream=RandomStream(12345, 2**33))
            x_opt, trace = optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=100)
            final = float(trace.objective_per_update[-1])
            finals[kind] = final
            gap = (final - bound) / bound
            gaps.append(f"{kind}@{snr_db:g}dB {gap:.1e}/{trace.sweeps_completed}sw")
            if not trace.converged:
                failures.append(f"{kind} @ {snr_db} dB: not converged in 100 sweeps")
            # allow only rounding below the bound
            if gap < -1e-12:
                failures.append(
                    f"{kind} @ {snr_db} dB: {final} lies below the bound {bound}"
                )
            if kind == "dft-reuse":
                unit = x_opt / np.linalg.norm(x_opt, axis=0)
                overlap = np.abs(frame.conj().T @ unit).max(axis=0).min()
                if gap > 1e-6 and overlap < 1 - 1e-9:
                    failures.append(
                        f"{kind} @ {snr_db} dB: {gap:.2e} above the bound "
                        f"and off the DFT directions (overlap {overlap})"
                    )
            elif gap > 1e-6:
                failures.append(
                    f"{kind} @ {snr_db} dB: {gap:.2e} relative above the bound"
                )
        spread = abs(finals["dft-k"] - finals["random"]) / bound
        if spread > 1e-6:
            failures.append(
                f"{snr_db} dB: off-frame starts disagree by {spread:.2e} relative"
            )
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    report(3, not failures,
           f"convergence to the Schur-Horn bound, gap/sweeps "
           f"{', '.join(gaps)} ({elapsed:.1f}s)")
    assert not failures, "; ".join(failures)


def test_criterion_3_default_design_meets_the_bound():
    # every proposed row of a default sweep, at every pilot length, has the
    # WSMSE 1 - N/K + (sigma2/K) bound of the constructed optimum
    ecfg = ExperimentConfig(antennas=128, users=32, gains=reference_gains(),
                            snr_db_list=[0.0, 3.0], n_list=[1, 4, 8, 16, 24, 32],
                            trials=200, mode="proposed")
    worst = 0.0
    for row in sweep_snr(ecfg):
        cfg = ecfg.point(row.snr_db, row.n)
        best = 1.0 - row.n / cfg.users + cfg.sigma2 / cfg.users * optimality_bound(cfg)
        worst = max(worst, abs(row.wsmse_analytic - best) / best)
    passed = worst <= 1e-12
    report(3, passed, f"constructed pilots meet the bound on every sweep row "
           f"(worst relative WSMSE gap {worst:.1e})")
    assert passed


def test_criterion_4_objective_never_increases():
    rng = np.random.default_rng(20240810)
    worst = -np.inf
    for i in range(200):
        users = int(rng.integers(2, 17))
        pilot_len = int(rng.integers(1, users + 1))
        snr_db = float(rng.uniform(-10.0, 20.0))
        powers = rng.uniform(0.5, 2.0, users)
        cfg = SystemConfig(
            antennas=4,
            users=users,
            pilot_len=pilot_len,
            sigma2=sigma2_from_snr(snr_db, powers),
            powers=powers,
            gains=rng.uniform(0.05, 1.0, users),
        )
        kind = ("dft-reuse", "random")[i % 2]
        x0 = init_pilots(kind, cfg, stream=RandomStream(1000 + i, 0))
        _, trace = optimize_pilots(cfg, x0, tol=1e-9, max_sweeps=60)
        objs = np.concatenate([[trace.initial_objective], trace.objective_per_update])
        worst = max(worst, float(np.diff(objs).max()))
    passed = worst <= 1e-12
    report(4, passed, f"monotone objective over 200 random runs "
           f"(worst per-update increase {worst:.2e})")
    assert passed


def test_criterion_5_analytic_empirical_agreement():
    started = time.perf_counter()
    gains = reference_gains()[:8]
    failures = []
    for snr_db in (0.0, 10.0):
        cfg = SystemConfig(
            antennas=32, users=8, pilot_len=4,
            sigma2=sigma2_from_snr(snr_db, np.ones(8)), powers=1.0, gains=gains,
        )
        x0 = init_pilots("dft-reuse", cfg)
        x_opt, _ = optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=100)
        checks = [
            ("proposed", x_opt, proposed_estimator),
        ]
        x_base = design_reuse_pilots(cfg)
        checks.append(
            ("conventional", x_base, conventional_estimator)
        )
        for label, x, estimator in checks:
            analytic = wsmse(x, estimator, cfg)
            emp = run_monte_carlo(cfg, x, estimator(x, cfg), trials=5000, seed=20100)
            rel = abs(emp.wsmse - analytic) / analytic
            if rel > 0.02:
                failures.append(f"{label} @ {snr_db} dB: {rel:.3%} relative error")
            if abs(emp.wsmse - analytic) > 4 * emp.stderr:
                failures.append(f"{label} @ {snr_db} dB: outside 4 standard errors")
    elapsed = time.perf_counter() - started
    if elapsed >= 20.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 20s")
    report(5, not failures,
           f"Monte Carlo matches the analytic WSMSE for both estimators "
           f"({elapsed:.1f}s)")
    assert not failures, "; ".join(failures)


def test_criterion_6_closed_form_cross_checks():
    failures = []
    # single-symbol iterative optimum vs closed form
    cfg = SystemConfig(antennas=4, users=5, pilot_len=1, sigma2=0.8,
                       powers=[1.0, 0.5, 2.0, 1.5, 1.0],
                       gains=[0.9, 0.3, 0.6, 0.2, 0.7])
    expected = 1.0 / (np.sum(cfg.gains * cfg.powers) + cfg.sigma2)
    for kind in ("dft-reuse", "random"):
        x0 = init_pilots(kind, cfg, stream=RandomStream(77, 0))
        x_opt, _ = optimize_pilots(cfg, x0, tol=1e-12, max_sweeps=100)
        got = objective(x_opt, cfg)
        if abs(got - expected) > 1e-10:
            failures.append(f"single-symbol {kind}: |{got} - {expected}| > 1e-10")
    # scalar reference scenario
    unit = SystemConfig(antennas=4, users=1, pilot_len=1, sigma2=1.0)
    scalar = wsmse(init_pilots("dft-reuse", unit), proposed_estimator, unit)
    if abs(scalar - 0.5) > 1e-12:
        failures.append(f"scalar reference: {scalar} != 0.5")
    report(6, not failures, "closed forms agree with the iterative optimum")
    assert not failures, "; ".join(failures)


def test_criterion_7_update_oracle_and_receiver_collapse():
    rng = np.random.default_rng(424242)
    worst_overlap = 1.0
    worst_scalar = 0.0
    instances = 0
    while instances < 100:
        pilot_len = int(rng.integers(2, 7))
        users = int(rng.integers(pilot_len + 2, pilot_len + 9))
        cfg = SystemConfig(
            antennas=4, users=users, pilot_len=pilot_len,
            sigma2=float(rng.uniform(0.05, 1.5)),
            powers=rng.uniform(0.5, 2.0, users),
            gains=rng.uniform(0.05, 1.0, users),
        )
        x = init_pilots("random", cfg, stream=RandomStream(8800 + instances, 0))
        k = int(rng.integers(0, users))
        col, degenerate, _ = rayleigh_update(x, k, cfg)
        assert not degenerate
        _, v = hermitian_eig(leave_one_out(x, k, cfg))
        overlap = abs(np.vdot(v[:, 0], col)) / np.linalg.norm(col)
        worst_overlap = min(worst_overlap, overlap)
        scalar = receiver_scalar(x, combiner(x, k, cfg), k, cfg)
        worst_scalar = max(worst_scalar, abs(scalar - 1.0))
        instances += 1
    passed = worst_overlap > 1 - 1e-8 and worst_scalar < 1e-12
    report(7, passed,
           f"update equals the least-loaded direction (worst overlap deficit "
           f"{1 - worst_overlap:.2e}) and the receiver scalar collapses to 1 "
           f"(worst |c-1| {worst_scalar:.2e})")
    assert passed


def test_criterion_8_reproducibility(tmp_path):
    args = [
        "sweep-snr", "--m", "8", "--k", "4", "--n", "2", "--trials", "80",
        "--seed", "31415", "--snr-db=-4,0,6",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main([*args, "--out", str(a)]) == 0
    assert cli.main([*args, "--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    report(8, identical, "byte-identical sweeps")
    assert identical
