import re
from dataclasses import replace

import numpy as np
import pytest

import pilotopt.harness as harness
import pilotopt.model as model
import pilotopt.numerics as numerics
import pilotopt.optimizer as optimizer
from pilotopt import (
    ConfigurationError,
    ContractViolation,
    ExperimentConfig,
    NumericalError,
    RandomStream,
    SystemConfig,
    analytic_wsmse,
    construct_pilots,
    conventional_estimate,
    conventional_estimator,
    convergence_trace,
    design_pilots,
    design_reuse_pilots,
    init_pilots,
    objective,
    optimize_pilots,
    proposed_estimate,
    proposed_estimator,
    received_pilot_signal,
    reference_gains,
    run_monte_carlo,
    sigma2_from_snr,
    sweep_snr,
    trial_errors,
)
from pilotopt.harness import _error_map, _evaluate, _trial_weight, _trials_per_chunk

DESK_GAINS = reference_gains()[:8]
ESTIMATES = {"proposed": proposed_estimate, "conventional": conventional_estimate}
ESTIMATORS = {"proposed": proposed_estimator, "conventional": conventional_estimator}


def bartlett_draw(cfg, seed, t):
    """Trial ``t``'s ``Z = [h, white]``, ``(antennas, K + N)``, from the Wishart law.

    The rows of ``Z`` are ``antennas`` independent ``CN(0, D)`` vectors,
    ``D = diag(g, 1_N)``, so ``R = Z^H Z`` is complex Wishart and equals
    ``D^(1/2) L L^H D^(1/2)`` for its Bartlett factor ``L``: ``(K + N) x
    min(K + N, M)`` lower trapezoidal with ``L_ii = sqrt(Gamma(M - i, 1))``
    and ``CN(0, 1)`` entries below the diagonal. Stream ``(seed, t)``
    gives the gammas first, then one (real, imaginary) pair of standard
    normals per entry below the diagonal, row by row. ``Z = [L^H; 0]
    D^(1/2)`` has that Gram matrix.
    """
    m, width = cfg.antennas, cfg.users + cfg.pilot_len
    r = min(width, m)
    rng = RandomStream(seed, t).generator()
    gammas = rng.standard_gamma(m - np.arange(r, dtype=float))
    below = sum(min(i, m) for i in range(width))
    pairs = iter(rng.standard_normal((below, 2)) / np.sqrt(2.0))
    low = np.zeros((width, r), dtype=complex)
    for i in range(width):
        if i < r:
            low[i, i] = np.sqrt(gammas[i])
        for j in range(min(i, m)):
            re, im = next(pairs)
            low[i, j] = complex(re, im)
    z = np.zeros((m, width), dtype=complex)
    z[:r] = low.conj().T
    return z * np.sqrt(np.concatenate([cfg.gains, np.ones(cfg.pilot_len)]))


def reference_monte_carlo(cfg, x, algorithm, trials, seed):
    """Trial-by-trial loop over the public layer functions.

    Returns ``(wsmse, stderr, per_user)`` reduced as one ``(trials,
    users)`` error matrix.
    """
    errs = []
    for t in range(trials):
        z = bartlett_draw(cfg, seed, t)
        h = z[:, : cfg.users]
        y = received_pilot_signal(h, x, np.sqrt(cfg.sigma2) * z[:, cfg.users :])
        err = np.sum(np.abs(ESTIMATES[algorithm](y, x, cfg) - h) ** 2, axis=0)
        errs.append(err / (cfg.antennas * cfg.gains))
    errs = np.stack(errs)
    per_trial = errs.mean(axis=1)
    stderr = per_trial.std(ddof=1) / np.sqrt(trials) if trials > 1 else np.nan
    return float(per_trial.mean()), float(stderr), errs.mean(axis=0)


def assert_matches_reference(rep, cfg, x, algorithm, trials, seed):
    # the engine reduces each trial through its Gram matrix, the reference
    # through y @ b - h: the same sums in another order
    wsmse, stderr, per_user = reference_monte_carlo(cfg, x, algorithm, trials, seed)
    assert rep.wsmse == pytest.approx(wsmse, rel=1e-13, abs=0.0)
    assert rep.stderr == pytest.approx(stderr, rel=1e-13, abs=0.0, nan_ok=True)
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
        rep = run_monte_carlo(cfg, x, proposed_estimator(x, cfg), trials=50, seed=7)
        assert rep.wsmse < 1e-6

    def test_scalar_reference_many_trials(self):
        cfg = SystemConfig(antennas=8, users=1, pilot_len=1, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        rep = run_monte_carlo(cfg, x, proposed_estimator(x, cfg), trials=100000, seed=9)
        assert rep.wsmse == pytest.approx(0.5, rel=0.02)

    def test_single_contaminator_reference(self):
        cfg = SystemConfig(antennas=16, users=2, pilot_len=1, sigma2=1.0)
        x = design_reuse_pilots(cfg)
        rep = run_monte_carlo(cfg, x, conventional_estimator(x, cfg), trials=10000,
                              seed=42)
        assert rep.wsmse == pytest.approx(0.75, rel=0.02)

    def test_deterministic_and_worker_independent(self):
        cfg = SystemConfig(antennas=8, users=4, pilot_len=2, sigma2=0.5,
                           gains=[0.9, 0.4, 0.7, 0.2])
        x = design_reuse_pilots(cfg)
        est = conventional_estimator(x, cfg)
        trials = 2 * _trials_per_chunk(cfg) + 7  # three chunks
        a = run_monte_carlo(cfg, x, est, trials=trials, seed=5)
        b = run_monte_carlo(cfg, x, est, trials=trials, seed=5)
        assert a.wsmse == b.wsmse
        assert np.array_equal(a.per_user, b.per_user)
        assert a.stderr == b.stderr

    def test_both_mode_shares_realizations(self):
        # one run per algorithm, but both see the same draws: the reference
        # loop draws trial t from stream t for either one
        cfg = SystemConfig(antennas=8, users=4, pilot_len=2, sigma2=0.5,
                           gains=[0.9, 0.4, 0.7, 0.2])
        x = design_reuse_pilots(cfg)
        for name in ("proposed", "conventional"):
            rep = run_monte_carlo(cfg, x, ESTIMATORS[name](x, cfg), trials=200, seed=11)
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
            b = ESTIMATORS[algorithm](x, cfg)
            rep = run_monte_carlo(cfg, x, b, trials=trials, seed=3)
            assert rep.trials == trials
            assert_matches_reference(rep, cfg, x, algorithm, trials, 3)
            first = trial_errors(cfg, x, b, 3, 0)
            assert np.allclose(
                run_monte_carlo(cfg, x, b, trials=1, seed=3).per_user, first,
                rtol=1e-13, atol=0.0,
            )

    def test_rejects_bad_estimator_and_trials(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=1, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        b = proposed_estimator(x, cfg)
        # a (pilot_len, 1) estimator would broadcast against the channel
        for bad_x, bad_b, name in [(x, b[:, :1], "b"), (x, b.T, "b"), (x.T, b, "x")]:
            with pytest.raises(ContractViolation, match=f"^{name} shape"):
                run_monte_carlo(cfg, bad_x, bad_b, trials=10, seed=1)
            with pytest.raises(ContractViolation, match=f"^{name} shape"):
                trial_errors(cfg, bad_x, bad_b, 1, 0)
        with pytest.raises(ConfigurationError):
            run_monte_carlo(cfg, x, b, trials=0, seed=1)

    @pytest.mark.parametrize("trials, seed, message", [
        (2.5, 1, "trials must be an integer, got 2.5"),
        (3.0, 1, "trials must be an integer, got 3.0"),
        (0, 1, "trials must be >= 1, got 0"),
        (2, 1.5, "seed must be an integer, got 1.5"),
        (2, -1, "seed must be >= 0, got -1"),
        # trial ids stop below 2**32, under the random start's stream 2**33
        (2**32 + 1, 1, "trials must be <= 4294967296, got 4294967297"),
    ])
    def test_monte_carlo_integer_inputs_rejected_by_name(self, trials, seed, message):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=1, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            run_monte_carlo(cfg, x, proposed_estimator(x, cfg), trials, seed)

    @pytest.mark.parametrize("seed, t, message", [
        (1.5, 0, "seed must be an integer, got 1.5"),
        (-1, 0, "seed must be >= 0, got -1"),
        (1, 0.0, "t must be an integer, got 0.0"),
        (1, -1, "t must be >= 0, got -1"),
        # trial ids stop below 2**32; 2**33 is the optimizer's random start
        (1, 2**32, "t must be <= 4294967295, got 4294967296"),
        (1, 2**33, "t must be <= 4294967295, got 8589934592"),
    ])
    def test_trial_integer_inputs_rejected_by_name(self, seed, t, message):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=1, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            trial_errors(cfg, x, proposed_estimator(x, cfg), seed, t)

    def test_last_trial_id_is_accepted(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=1, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        last = trial_errors(cfg, x, proposed_estimator(x, cfg), 1, 2**32 - 1)
        assert last.shape == (2,) and np.all(np.isfinite(last))

    def test_integer_inputs_accept_numpy_integers(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=1, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        b = proposed_estimator(x, cfg)
        rep = run_monte_carlo(cfg, x, b, np.int64(3), np.uint32(7))
        assert rep.wsmse == run_monte_carlo(cfg, x, b, 3, 7).wsmse
        assert np.array_equal(trial_errors(cfg, x, b, np.int64(7), np.int32(2)),
                              trial_errors(cfg, x, b, 7, 2))

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
        rep = run_monte_carlo(cfg, x, proposed_estimator(x, cfg), trials=10000,
                              seed=606)
        assert np.all(np.abs(rep.per_user - expected) / expected < 0.02)

    def test_stderr_scales_with_trials(self):
        cfg = SystemConfig(antennas=4, users=2, pilot_len=2, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        small = run_monte_carlo(cfg, x, proposed_estimator(x, cfg), trials=200, seed=3)
        large = run_monte_carlo(cfg, x, proposed_estimator(x, cfg), trials=3200, seed=3)
        assert large.stderr < small.stderr
        assert large.trials == 3200


# (antennas, users, pilot_len, sigma2, estimator): K = 1, N > K, N = K,
# M < K + N, down to sigma2 = 1e-12
GRAM_CASES = [
    (6, 1, 1, 1.0, "random"),
    (6, 1, 3, 1e-12, "random"),
    (5, 3, 6, 0.3, "random"),
    (5, 3, 6, 1e-12, "random"),
    (8, 4, 4, 1e-12, "random"),
    (8, 4, 4, 0.1, "proposed"),
    (8, 4, 4, 1e-3, "conventional"),
    (4, 9, 3, 0.5, "proposed"),
    (4, 9, 3, 1e-12, "proposed"),
    (4, 9, 3, 1e-12, "random"),
    (16, 8, 4, 1e-6, "conventional"),
    (3, 5, 2, 2.0, "random"),
]
# Designed estimators with N >= K near noiseless: the error is about 1e-6
# of the channel, so the subtraction of the channel (direct route) and of
# the identity in F (Gram route) each cost about five digits.
NEAR_NOISELESS = [
    (6, 1, 3, 1e-12, "proposed"),
    (5, 3, 6, 1e-11, "proposed"),  # 1e-12 is at the solver's singularity floor
    (8, 4, 4, 1e-12, "proposed"),
]


def gram_case(case, index):
    """Random pilots, gains spread over 1e-6 .. 1 and an estimator matrix."""
    m, k, n, sigma2, kind = case
    rng = np.random.default_rng(100 + index)
    gains = rng.permutation(np.logspace(-6.0, 0.0, k))
    # the reuse design needs equal powers
    powers = 1.5 if kind == "conventional" else rng.uniform(0.5, 2.0, k)
    cfg = SystemConfig(antennas=m, users=k, pilot_len=n, sigma2=sigma2,
                       powers=powers, gains=gains)
    x = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    x *= np.sqrt(cfg.powers / np.sum(np.abs(x) ** 2, axis=0))
    if kind == "proposed":
        b = proposed_estimator(x, cfg)
    elif kind == "conventional":
        x = design_reuse_pilots(cfg)
        b = conventional_estimator(x, cfg)
    else:
        b = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return cfg, x, b


def direct_trials(cfg, x, b, trials, seed):
    """``(trials, users)`` errors of the direct route, one trial at a time."""
    return np.stack([trial_errors(cfg, x, b, seed, t) for t in range(trials)])


class TestGramEngine:
    """The Gram evaluation against the direct y @ b - h route it replaces."""

    @pytest.mark.parametrize("index", range(len(GRAM_CASES)))
    def test_matches_direct_route(self, index):
        cfg, x, b = gram_case(GRAM_CASES[index], index)
        trials = _trials_per_chunk(cfg) + 3  # two chunks
        per_trial, per_user = _evaluate([(cfg, x, b)], trials, seed=21)
        direct = direct_trials(cfg, x, b, trials, 21)
        assert np.allclose(per_trial[0], direct.mean(axis=1), rtol=1e-12, atol=0.0)
        assert np.allclose(per_user[0], direct.mean(axis=0), rtol=1e-12, atol=0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("index", range(len(NEAR_NOISELESS)))
    def test_near_noiseless_both_routes_match_long_double(self, index):
        cfg, x, b = gram_case(NEAR_NOISELESS[index], len(GRAM_CASES) + index)
        trials = 30
        per_trial = _evaluate([(cfg, x, b)], trials, seed=21)[0][0]
        direct = direct_trials(cfg, x, b, trials, 21).mean(axis=1)
        # Z F in long double from the same float64 draws, pilots and b
        z = np.stack([bartlett_draw(cfg, 21, t) for t in range(trials)])
        z = z.astype(np.clongdouble)
        xl, bl = x.astype(np.clongdouble), b.astype(np.clongdouble)
        f = np.concatenate([xl.conj().T @ bl - np.eye(cfg.users),
                            np.sqrt(np.longdouble(cfg.sigma2)) * bl])
        err = np.sum(np.abs(z @ f) ** 2, axis=1) / (cfg.antennas * cfg.gains)
        exact = err.mean(axis=1)

        def worst(values):
            return float(np.max(np.abs(values - exact) / exact))

        # both routes lose the same few digits here (worst seen: 3.4e-11 for
        # the Gram route, 2.1e-11 for the direct one)
        assert worst(per_trial) < 1e-9
        assert worst(direct) < 1e-9

    @pytest.mark.parametrize("index", range(len(GRAM_CASES)))
    def test_weight_mean_is_analytic_wsmse(self, index):
        # a row of Z is u D^(1/2) with u ~ CN(0, I) and D = diag(g, 1_N), so
        # E <R, G> = M tr(D^(1/2) G D^(1/2))
        cfg, x, b = gram_case(GRAM_CASES[index], index)
        w = _trial_weight(cfg, _error_map(cfg, x, b))
        g = w.view(np.complex128).reshape(cfg.users + cfg.pilot_len, -1)
        d = np.sqrt(np.concatenate([cfg.gains, np.ones(cfg.pilot_len)]))
        mean = cfg.antennas * np.trace(d[:, None] * g * d[None, :]).real
        assert mean == pytest.approx(analytic_wsmse(x, b, cfg).wsmse, rel=1e-12, abs=0.0)

    def test_point_values_do_not_depend_on_company_or_chunk(self, monkeypatch):
        cfg, x, b = gram_case(GRAM_CASES[5], 5)
        other = gram_case(GRAM_CASES[4], 4)[1:]
        trials = 2 * _trials_per_chunk(cfg) + 5
        alone = _evaluate([(cfg, x, b)], trials, seed=4)
        shared = _evaluate([(cfg, *other), (cfg, x, b), (cfg, *other)], trials, seed=4)
        assert np.array_equal(alone[0][0], shared[0][1])
        assert np.array_equal(alone[1][0], shared[1][1])
        monkeypatch.setattr(harness, "CHUNK_BYTES", 1)
        assert np.array_equal(_evaluate([(cfg, x, b)], trials, seed=4)[0], alone[0])

    def test_sweep_counts(self, monkeypatch):
        # a refactor that brings back per-point work changes these counts
        calls = dict.fromkeys(
            ["draw_cn", "generator", "solve_hermitian", "received_pilot_signal"], 0)

        def counted(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(numerics, "draw_cn")
        counted(model, "draw_cn")
        counted(optimizer, "draw_cn")
        counted(RandomStream, "generator")
        counted(optimizer, "solve_hermitian")
        counted(harness, "received_pilot_signal")
        ecfg = desk_experiment(snr_db_list=[0.0, 10.0], trials=5)
        assert len(sweep_snr(ecfg)) == 4
        # one random stream per trial, one solve per proposed design
        assert calls == {"draw_cn": 0, "generator": 5, "solve_hermitian": 2,
                         "received_pilot_signal": 0}

    def test_desk_sweep_designs_once(self, monkeypatch):
        # the default design and the baseline do not depend on the noise
        # variance: a 16-point desk sweep builds each once and only forms one
        # estimator per proposed point (the cyclic optimizer from dft-reuse
        # made 128 updates across 16 runs here)
        calls = dict.fromkeys(
            ["construct_pilots", "design_reuse_pilots", "rayleigh_update", "solve_hermitian"], 0)

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(harness, "construct_pilots")
        counted(harness, "design_reuse_pilots")
        counted(optimizer, "rayleigh_update")
        counted(optimizer, "solve_hermitian")
        base = SystemConfig(antennas=32, users=8, pilot_len=4, sigma2=1.0)
        grid = [float(v) for v in range(-10, 21, 2)]
        ecfg = ExperimentConfig(base=base, snr_db_list=grid, trials=200, seed=1)
        assert len(sweep_snr(ecfg)) == 32
        assert calls == {"construct_pilots": 1, "design_reuse_pilots": 1,
                         "rayleigh_update": 0, "solve_hermitian": 16}


# (antennas, users, pilot_len): M >= K + N, and M < K + N, where the
# Bartlett factor is trapezoidal
LAW_CASES = [(6, 3, 2), (4, 3, 4)]
LAW_TRIALS = 20000


def law_case(case):
    m, k, n = case
    cfg = SystemConfig(antennas=m, users=k, pilot_len=n, sigma2=0.5,
                       gains=np.linspace(0.2, 1.0, k)[::-1])
    return cfg, np.concatenate([cfg.gains, np.ones(n)])


class TestFactorLaw:
    """The factor route's draws against the complex Wishart law ``CW(M, D)``.

    ``R = D^(1/2) L L^H D^(1/2)`` must be the Gram matrix of ``M`` i.i.d.
    ``CN(0, D)`` rows. Each check holds a sample moment over
    ``LAW_TRIALS`` trials at a fixed seed within 5 of the law's own
    standard errors of that moment.
    """

    @pytest.mark.parametrize("case", LAW_CASES)
    def test_gram_moments(self, case):
        cfg, d = law_case(case)
        m, trials = cfg.antennas, LAW_TRIALS
        low = harness._draws(cfg, 8, 0, trials)
        root = np.sqrt(d)
        r = root[:, None] * (low @ low.conj().transpose(0, 2, 1)) * root[None, :]
        dd = np.outer(d, d)
        # E R = M D, and E|R_ij - E R_ij|^2 = M d_i d_j for every entry
        mean = r.mean(axis=0)
        assert np.all(np.abs(mean - m * np.diag(d)) <= 5 * np.sqrt(m * dd / trials))
        # off the diagonal E|R_ij|^2 = M d_i d_j, with variance (M^2 + 2M) (d_i d_j)^2
        second = (np.abs(r) ** 2).mean(axis=0)
        off = ~np.eye(len(d), dtype=bool)
        se = np.sqrt((m * m + 2 * m) / trials) * dd
        assert np.all(np.abs(second - m * dd)[off] <= 5 * se[off])
        # R_ii / d_i ~ Gamma(M, 1): E R_ii^2 = M (M + 1) d_i^2, and R_ii^2 has
        # variance (M (M+1) (M+2) (M+3) - M^2 (M+1)^2) d_i^4
        fourth = m * (m + 1) * (m + 2) * (m + 3) - (m * (m + 1)) ** 2
        se = np.sqrt(fourth / trials) * d**2
        assert np.all(np.abs(second.diagonal() - m * (m + 1) * d**2) <= 5 * se)

    @pytest.mark.parametrize("case", LAW_CASES)
    def test_wsmse_mean_and_variance(self, case):
        # a trial's WSMSE is sum_m u_m C u_m^H with u_m ~ CN(0, I) and
        # C = D^(1/2) G D^(1/2): mean M tr(C), variance M ||C||_F^2, and the
        # sample variance has variance kappa_4 / T + 2 kappa_2^2 / (T - 1)
        # with kappa_r = M (r - 1)! sum_i c_i^r over C's eigenvalues c_i
        cfg, d = law_case(case)
        m, trials = cfg.antennas, LAW_TRIALS
        x = construct_pilots(cfg)
        b = proposed_estimator(x, cfg)
        per_trial = _evaluate([(cfg, x, b)], trials, seed=9)[0][0]
        w = _trial_weight(cfg, _error_map(cfg, x, b))
        g = w.view(np.complex128).reshape(len(d), -1)
        c = np.linalg.eigvalsh(np.sqrt(d)[:, None] * g * np.sqrt(d)[None, :])
        mean = analytic_wsmse(x, b, cfg).wsmse
        assert mean == pytest.approx(m * c.sum(), rel=1e-12)
        kappa2, kappa4 = m * np.sum(c**2), 6 * m * np.sum(c**4)
        assert abs(per_trial.mean() - mean) <= 5 * np.sqrt(kappa2 / trials)
        se = np.sqrt(kappa4 / trials + 2 * kappa2**2 / (trials - 1))
        assert abs(per_trial.var(ddof=1) - kappa2) <= 5 * se


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
            # the constructed design runs no optimizer
            assert pair["proposed"].sweeps is None
            assert pair["conventional"].sweeps is None

    def test_cyclic_rows_carry_their_sweeps(self):
        rows = sweep_snr(desk_experiment(init="dft-reuse", trials=5))
        assert [r.sweeps is None for r in rows] == [False, True, False, True]
        assert all(r.sweeps >= 1 for r in rows if r.algorithm == "proposed")

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
            x, b, ana, _ = design_pilots(row.algorithm, cfg, ecfg)
            emp = run_monte_carlo(cfg, x, b, trials, ecfg.seed)
            assert row.wsmse_analytic == ana.wsmse
            assert row.wsmse_empirical == emp.wsmse
            assert row.stderr == emp.stderr


    def test_non_finite_wsmse_is_a_numerical_error(self, monkeypatch):
        evaluate = harness._evaluate

        def poisoned(points, trials, seed):
            per_trial, per_user = evaluate(points, trials, seed)
            per_trial[-1, 0] = np.nan
            return per_trial, per_user

        monkeypatch.setattr(harness, "_evaluate", poisoned)
        with pytest.raises(NumericalError, match="WSMSE is not finite"):
            sweep_snr(desk_experiment(trials=5))
        with pytest.raises(NumericalError, match="WSMSE is not finite"):
            harness._consistency_gate("p", float("inf"), 0.5, 0.01)


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

    def test_requires_single_pilot_length(self):
        ecfg = desk_experiment(snr_db_list=[0.0], n_list=[2, 4], trials=10)
        with pytest.raises(ConfigurationError, match="one pilot length, got 2"):
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

    def test_every_point_checked_on_construction(self):
        base = SystemConfig(antennas=4, users=2, pilot_len=2, sigma2=1.0,
                            powers=1e-300)
        ExperimentConfig(base=base, snr_db_list=[0.0])
        # 1e-300 at 200 dB is a noise variance of 1e-320: N / sigma2 overflows
        with pytest.raises(ConfigurationError, match="sigma2 1e-320 is too small"):
            ExperimentConfig(base=base, snr_db_list=[0.0, 200.0])
        with pytest.raises(ConfigurationError, match="dimensions must be positive"):
            ExperimentConfig(base=base, snr_db_list=[0.0], n_list=[2, 0])

    def test_drivers_resolve_the_same_point(self):
        # base.pilot_len and base.sigma2 are not the point: n_list and the SNR are
        base = SystemConfig(antennas=8, users=4, pilot_len=4, sigma2=1.0,
                            gains=DESK_GAINS[:4])
        ecfg = ExperimentConfig(base=base, snr_db_list=[3.0], n_list=[2], trials=20,
                                seed=8)
        assert ecfg.pilot_lens == [2]
        snr_db, cfg = ecfg.single_point()
        assert (snr_db, cfg.pilot_len) == (3.0, 2)
        assert cfg.sigma2 == sigma2_from_snr(3.0, base.powers)
        assert vars(ecfg.point(3.0, 2)) == vars(cfg)

        rows = sweep_snr(ecfg)
        assert [r.n for r in rows] == [2, 2]
        for row in rows:
            assert row.wsmse_analytic == design_pilots(row.algorithm, cfg, ecfg)[2].wsmse

        for res in convergence_trace(ecfg):
            stream = RandomStream(ecfg.seed, 2**33)
            x0 = init_pilots(res.init, cfg, stream=stream)
            _, trace = optimize_pilots(cfg, x0, tol=ecfg.tol, max_sweeps=ecfg.max_sweeps)
            assert res.trace.initial_objective == objective(x0, cfg)
            assert res.final_objective == trace.objective_per_update[-1]

    def test_single_point_needs_one_snr_and_one_pilot_length(self):
        base = SystemConfig(antennas=4, users=2, pilot_len=2, sigma2=1.0)
        assert ExperimentConfig(base=base, snr_db_list=[1.0]).pilot_lens == [2]
        assert ExperimentConfig(base=base, snr_db_list=[1.0]).single_point()[1].pilot_len == 2
        with pytest.raises(ConfigurationError, match="one SNR point, got 2"):
            ExperimentConfig(base=base, snr_db_list=[1.0, 2.0]).single_point()
        with pytest.raises(ConfigurationError, match="one pilot length, got 2"):
            ExperimentConfig(base=base, snr_db_list=[1.0], n_list=[1, 2]).single_point()

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("seed", 1.5), ("max_sweeps", 2.5), ("n_list", [2.6]),
        ("trials", 3.0), ("n_list", [2, 4.0]),
    ])
    def test_integer_fields(self, field, value):
        base = SystemConfig(antennas=4, users=2, pilot_len=2, sigma2=1.0)
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig(base=base, snr_db_list=[0.0], **{field: value})

    def test_trials_stop_at_the_noise_stream_offset(self):
        base = SystemConfig(antennas=4, users=2, pilot_len=2, sigma2=1.0)
        assert ExperimentConfig(base=base, snr_db_list=[0.0], trials=2**32).trials == 2**32
        with pytest.raises(ConfigurationError, match="^trials must be <= 4294967296, got "):
            ExperimentConfig(base=base, snr_db_list=[0.0], trials=2**32 + 1)

    def test_integer_fields_accept_numpy_integers(self):
        base = SystemConfig(antennas=4, users=2, pilot_len=2, sigma2=1.0)
        ecfg = ExperimentConfig(base=base, snr_db_list=[0.0], trials=np.int64(3),
                                seed=np.uint32(7), n_list=[np.int64(1), 2])
        assert (ecfg.trials, ecfg.seed, ecfg.n_list) == (3, 7, [1, 2])
        assert all(type(v) is int for v in (ecfg.trials, ecfg.seed, *ecfg.n_list))

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_rejected_before_any_design(self, snr_db):
        base = SystemConfig(antennas=4, users=2, pilot_len=2, sigma2=1.0)
        with pytest.raises(ConfigurationError, match="snr_db must be finite"):
            ExperimentConfig(base=base, snr_db_list=[0.0, snr_db])
