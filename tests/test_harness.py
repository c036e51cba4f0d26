from dataclasses import replace

import numpy as np
import pytest

from pilotopt import (
    ConfigurationError,
    ExperimentConfig,
    RandomStream,
    SystemConfig,
    conventional_estimate,
    convergence_trace,
    design_pilots,
    design_reuse_pilots,
    draw_cn,
    generate_channel,
    init_pilots,
    objective,
    proposed_estimate,
    received_pilot_signal,
    reference_gains,
    run_monte_carlo,
    sigma2_from_snr,
    sweep_snr,
    trial_errors,
)
from pilotopt.harness import _trials_per_chunk

DESK_GAINS = reference_gains()[:8]
ESTIMATES = {"proposed": proposed_estimate, "conventional": conventional_estimate}


def reference_monte_carlo(cfg, x, algorithm, trials, seed):
    """Trial-by-trial loop over the public layer functions.

    Returns ``(wsmse, stderr, per_user)`` reduced as one ``(trials,
    users)`` error matrix.
    """
    errs = []
    for t in range(trials):
        h = generate_channel(cfg, RandomStream(seed, t))
        noise = np.sqrt(cfg.sigma2) * draw_cn(
            RandomStream(seed, 2**32 + t), cfg.antennas, cfg.pilot_len)
        y = received_pilot_signal(h, x, noise)
        err = np.sum(np.abs(ESTIMATES[algorithm](y, x, cfg) - h) ** 2, axis=0)
        errs.append(err / (cfg.antennas * cfg.gains))
    errs = np.stack(errs)
    per_trial = errs.mean(axis=1)
    stderr = per_trial.std(ddof=1) / np.sqrt(trials) if trials > 1 else np.nan
    return float(per_trial.mean()), float(stderr), errs.mean(axis=0)


def assert_matches_reference(rep, cfg, x, algorithm, trials, seed):
    wsmse, stderr, per_user = reference_monte_carlo(cfg, x, algorithm, trials, seed)
    assert rep.wsmse == wsmse
    assert rep.stderr == stderr or (np.isnan(rep.stderr) and np.isnan(stderr))
    # the chunked engine sums the per-user errors in another order
    assert np.allclose(rep.per_user, per_user, rtol=1e-12, atol=0.0)


def desk_experiment(**overrides):
    base = SystemConfig(antennas=16, users=8, pilot_len=4, sigma2=1.0,
                        gains=DESK_GAINS)
    kwargs = dict(base=base, snr_db_list=[0.0, 10.0], trials=400, seed=1234)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestRunMonteCarlo:
    def test_near_noiseless_recovery(self):
        cfg = SystemConfig(antennas=8, users=4, pilot_len=4, sigma2=1e-9)
        x = init_pilots("dft-reuse", cfg)
        rep = run_monte_carlo(cfg, x, "proposed", trials=50, seed=7)
        assert rep.wsmse < 1e-6

    def test_scalar_reference_many_trials(self):
        cfg = SystemConfig(antennas=8, users=1, pilot_len=1, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        rep = run_monte_carlo(cfg, x, "proposed", trials=100000, seed=9)
        assert rep.wsmse == pytest.approx(0.5, rel=0.02)

    def test_single_contaminator_reference(self):
        cfg = SystemConfig(antennas=16, users=2, pilot_len=1, sigma2=1.0)
        x = design_reuse_pilots(cfg)
        rep = run_monte_carlo(cfg, x, "conventional", trials=10000, seed=42)
        assert rep.wsmse == pytest.approx(0.75, rel=0.02)

    def test_deterministic_and_worker_independent(self):
        cfg = SystemConfig(antennas=8, users=4, pilot_len=2, sigma2=0.5,
                           gains=[0.9, 0.4, 0.7, 0.2])
        x = design_reuse_pilots(cfg)
        trials = 2 * _trials_per_chunk(cfg) + 7  # three chunks
        a = run_monte_carlo(cfg, x, "conventional", trials=trials, seed=5)
        b = run_monte_carlo(cfg, x, "conventional", trials=trials, seed=5)
        assert a.wsmse == b.wsmse
        assert np.array_equal(a.per_user, b.per_user)
        assert a.stderr == b.stderr

    def test_both_mode_shares_realizations(self):
        # one run per algorithm, but both see the same draws: the reference
        # loop draws trial t from streams t and 2**32 + t for either one
        cfg = SystemConfig(antennas=8, users=4, pilot_len=2, sigma2=0.5,
                           gains=[0.9, 0.4, 0.7, 0.2])
        x = design_reuse_pilots(cfg)
        for name in ("proposed", "conventional"):
            rep = run_monte_carlo(cfg, x, name, trials=200, seed=11)
            assert_matches_reference(rep, cfg, x, name, 200, 11)

    @pytest.mark.parametrize("dims", [(8, 4, 2), (8, 1, 1), (4, 9, 3), (5, 3, 6)])
    @pytest.mark.parametrize("offset", [None, -1, 1])
    def test_matches_per_trial_reference(self, dims, offset):
        # one trial, one less and one more than a chunk; K = 1, K above
        # numpy's 8-wide pairwise block, and N > K
        m, k, n = dims
        cfg = SystemConfig(antennas=m, users=k, pilot_len=n, sigma2=0.3,
                           gains=np.linspace(0.2, 1.0, k))
        trials = 1 if offset is None else _trials_per_chunk(cfg) + offset
        x = design_reuse_pilots(cfg)
        for algorithm in ("proposed", "conventional"):
            rep = run_monte_carlo(cfg, x, algorithm, trials=trials, seed=3)
            assert rep.trials == trials
            assert_matches_reference(rep, cfg, x, algorithm, trials, 3)
            first = trial_errors(cfg, x, algorithm, 3, 0)
            assert np.array_equal(
                first, run_monte_carlo(cfg, x, algorithm, trials=1, seed=3).per_user
            )

    def test_rejects_bad_mode_and_trials(self):
        cfg = SystemConfig(antennas=2, users=1, pilot_len=1, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        with pytest.raises(ConfigurationError):
            run_monte_carlo(cfg, x, "bogus", trials=10, seed=1)
        # each algorithm designs its own pilots, so one call runs one estimator
        with pytest.raises(ConfigurationError):
            run_monte_carlo(cfg, x, "both", trials=10, seed=1)
        with pytest.raises(ConfigurationError):
            run_monte_carlo(cfg, x, "proposed", trials=0, seed=1)

    def test_per_user_agreement_with_analytic(self):
        from pilotopt import (
            analytic_wsmse,
            init_pilots,
            optimize_pilots,
            proposed_estimator,
        )
        from pilotopt.numerics import RandomStream

        cfg = SystemConfig(antennas=32, users=4, pilot_len=2, sigma2=0.5,
                           gains=DESK_GAINS[:4])
        x0 = init_pilots("random", cfg, stream=RandomStream(1, 0))
        x, _ = optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=100)
        expected = analytic_wsmse(x, proposed_estimator(x, cfg), cfg).per_user
        rep = run_monte_carlo(cfg, x, "proposed", trials=10000, seed=606)
        assert np.all(np.abs(rep.per_user - expected) / expected < 0.02)

    def test_stderr_scales_with_trials(self):
        cfg = SystemConfig(antennas=4, users=2, pilot_len=2, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        small = run_monte_carlo(cfg, x, "proposed", trials=200, seed=3)
        large = run_monte_carlo(cfg, x, "proposed", trials=3200, seed=3)
        assert large.stderr < small.stderr
        assert large.trials == 3200


class TestDesignPilots:
    @pytest.mark.parametrize("algorithm", ["proposed", "conventional"])
    @pytest.mark.parametrize("power", [1e-300, 1e-200, 1e300])
    def test_analytic_wsmse_depends_on_snr_only(self, algorithm, power):
        ecfg = desk_experiment()

        def per_user(p):
            cfg = replace(ecfg.base, powers=np.full(8, p),
                          sigma2=sigma2_from_snr(0.0, np.full(8, p)))
            return design_pilots(algorithm, cfg, ecfg)[2].per_user

        assert np.allclose(per_user(power), per_user(1.0), rtol=1e-12, atol=0.0)

    def test_unknown_algorithm_rejected(self):
        ecfg = desk_experiment()
        with pytest.raises(ConfigurationError, match="algorithm"):
            design_pilots("bogus", ecfg.base, ecfg)


class TestSweepSnr:
    def test_row_layout_and_dominance(self):
        ecfg = desk_experiment()
        rows = sweep_snr(ecfg)
        assert len(rows) == 4
        assert [r.algorithm for r in rows] == [
            "proposed", "conventional", "proposed", "conventional",
        ]
        for r in rows:
            assert r.n == 4
            assert r.trials == 400
            assert np.isfinite(r.wsmse_analytic)
            assert abs(r.wsmse_empirical - r.wsmse_analytic) <= 4 * r.stderr
        by_snr = {r.snr_db: {} for r in rows}
        for r in rows:
            by_snr[r.snr_db][r.algorithm] = r
        for snr, pair in by_snr.items():
            assert pair["proposed"].wsmse_analytic <= pair["conventional"].wsmse_analytic
            assert pair["proposed"].sweeps >= 1
            assert pair["conventional"].sweeps is None

    def test_proposed_decreasing_in_snr(self):
        ecfg = desk_experiment(
            snr_db_list=[-10.0, 0.0, 10.0, 20.0], mode="proposed", trials=1
        )
        rows = sweep_snr(ecfg)
        vals = [r.wsmse_analytic for r in rows]
        assert np.all(np.diff(vals) < 0)

    def test_single_algorithm_mode(self):
        ecfg = desk_experiment(mode="conventional", trials=50)
        rows = sweep_snr(ecfg)
        assert [r.algorithm for r in rows] == ["conventional", "conventional"]

    def test_rows_equal_single_point_runs(self):
        # the sweep evaluates every point of one pilot length on shared
        # draws; each row must equal its own run_monte_carlo
        ecfg = desk_experiment(n_list=[2, 4], snr_db_list=[-5.0, 0.0, 10.0])
        trials = _trials_per_chunk(replace(ecfg.base, pilot_len=4)) + 1
        ecfg = replace(ecfg, trials=trials)
        rows = sweep_snr(ecfg)
        assert len(rows) == 12
        for row in rows:
            cfg = replace(ecfg.base, pilot_len=row.n,
                          sigma2=sigma2_from_snr(row.snr_db, ecfg.base.powers))
            x, _, ana, _ = design_pilots(row.algorithm, cfg, ecfg)
            emp = run_monte_carlo(cfg, x, row.algorithm, trials, ecfg.seed)
            assert row.wsmse_analytic == ana.wsmse
            assert row.wsmse_empirical == emp.wsmse
            assert row.stderr == emp.stderr


class TestSweepPilotLength:
    def test_orthogonal_point_matches_and_monotone(self):
        ecfg = desk_experiment(snr_db_list=[0.0], n_list=[1, 2, 4, 8], trials=50)
        rows = sweep_snr(ecfg)
        assert len(rows) == 8
        prop = {r.n: r.wsmse_analytic for r in rows if r.algorithm == "proposed"}
        conv = {r.n: r.wsmse_analytic for r in rows if r.algorithm == "conventional"}
        assert abs(prop[8] - conv[8]) < 1e-9
        for series in (prop, conv):
            vals = [series[n] for n in (1, 2, 4, 8)]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_single_symbol_matches_closed_form(self):
        ecfg = desk_experiment(snr_db_list=[0.0], n_list=[1], mode="proposed",
                               trials=20)
        rows = sweep_snr(ecfg)
        cfg = SystemConfig(antennas=16, users=8, pilot_len=1,
                           sigma2=sigma2_from_snr(0.0, np.ones(8)),
                           gains=DESK_GAINS)
        best = objective(init_pilots("dft-reuse", cfg), cfg)
        expected = 1.0 - 1.0 / 8 + cfg.sigma2 / 8 * best
        assert rows[0].wsmse_analytic == pytest.approx(expected, abs=1e-10)

    def test_n_list_concatenates_single_length_sweeps(self):
        ecfg = desk_experiment(n_list=[1, 2, 4], trials=20)
        rows = sweep_snr(ecfg)
        singles = []
        for n in (1, 2, 4):
            base = replace(ecfg.base, pilot_len=n)
            singles += sweep_snr(replace(ecfg, base=base, n_list=[]))
        assert len(rows) == len(singles) == 12
        assert [vars(r) for r in rows] == [vars(r) for r in singles]

    def test_empty_n_list_sweeps_base_pilot_len(self):
        rows = sweep_snr(desk_experiment(mode="proposed", trials=10))
        assert [r.n for r in rows] == [4, 4]
        same = sweep_snr(desk_experiment(mode="proposed", trials=10, n_list=[4]))
        assert [vars(r) for r in rows] == [vars(r) for r in same]


class TestConvergenceTrace:
    def test_three_initializations(self):
        ecfg = desk_experiment(snr_db_list=[0.0], trials=10, tol=1e-8,
                               max_sweeps=200)
        results = convergence_trace(ecfg)
        assert [r.init for r in results] == ["dft-reuse", "dft-k", "random"]
        for r in results:
            assert r.trace.converged
            assert r.updates_to_converge >= 1
            assert r.final_objective == pytest.approx(
                float(r.trace.objective_per_update[-1])
            )
            objs = np.concatenate(
                [[r.trace.initial_objective], r.trace.objective_per_update]
            )
            assert np.all(np.diff(objs) <= 1e-12)
        # off-frame starts agree on the reachable optimum
        assert results[1].final_objective == pytest.approx(
            results[2].final_objective, rel=1e-6
        )

    def test_requires_single_snr(self):
        ecfg = desk_experiment(trials=10)
        with pytest.raises(ConfigurationError):
            convergence_trace(ecfg)


class TestExperimentConfig:
    def test_validation(self):
        base = SystemConfig(antennas=4, users=2, pilot_len=2, sigma2=1.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(base=base, snr_db_list=[], trials=10)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(base=base, snr_db_list=[0.0], trials=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(base=base, snr_db_list=[0.0], trials=1, mode="all")
        for tol in (float("nan"), -1.0, float("inf")):
            with pytest.raises(ConfigurationError, match="tol"):
                ExperimentConfig(base=base, snr_db_list=[0.0], trials=1, tol=tol)
        assert ExperimentConfig(base=base, snr_db_list=[0.0], trials=1, tol=0.0).tol == 0.0
        with pytest.raises(ConfigurationError, match="seed"):
            ExperimentConfig(base=base, snr_db_list=[0.0], trials=1, seed=-1)
        assert ExperimentConfig(base=base, snr_db_list=[0.0], trials=1, seed=0).seed == 0
