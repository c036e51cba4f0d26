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
    SweepRow,
    SystemConfig,
    analytic_wsmse,
    construct_pilots,
    conventional_estimator,
    convergence_trace,
    design_pilots,
    design_reuse_pilots,
    init_pilots,
    objective,
    optimize_pilots,
    proposed_estimator,
    reference_gains,
    run_monte_carlo,
    sigma2_from_snr,
    sweep_snr,
)
from pilotopt.harness import _factor, _monte_carlo

DESK_GAINS = reference_gains()[:8]
# the command line's SNR grid, -10 to 20 dB
DESK_GRID = [float(v) for v in range(-10, 21, 2)]
ESTIMATORS = {"proposed": proposed_estimator, "conventional": conventional_estimator}


def bartlett_factor(cfg, seed, dof):
    """The Bartlett factor ``L`` of ``CW(dof, I_(K+N))``, entry by entry.

    ``(K + N) x r`` lower trapezoidal, ``r = min(K + N, dof)``, with
    ``L_ii = sqrt(Gamma(dof - i, 1))`` and ``CN(0, 1)`` entries below the
    diagonal. Stream ``(seed, 0)`` gives the gammas first, then one
    (real, imaginary) pair of standard normals per entry below the
    diagonal, row by row. A run of ``T`` trials draws ``dof = T M``; one
    trial alone draws ``dof = M``.
    """
    width = cfg.users + cfg.pilot_len
    r = min(width, dof)
    rng = RandomStream(seed, 0).generator()
    gammas = [rng.gammavariate(dof - i, 1.0) for i in range(r)]
    low = np.zeros((width, r), dtype=complex)
    for i in range(width):
        if i < r:
            low[i, i] = np.sqrt(gammas[i])
        for j in range(min(i, r)):
            re = rng.gauss(0.0, 1.0)
            im = rng.gauss(0.0, 1.0)
            low[i, j] = complex(re, im) / np.sqrt(2.0)
    return low


def root_scale(cfg):
    """``D^(1/2)``'s diagonal, ``D = diag(g, 1_N)``."""
    return np.sqrt(np.concatenate([cfg.gains, np.ones(cfg.pilot_len)]))


def direct_errors(cfg, x, b, low):
    """Per-user squared errors of ``y @ b`` summed over the rows of ``Z = L^H D^(1/2)``.

    ``Z``'s Gram matrix is ``D^(1/2) L L^H D^(1/2)``; for the factor of
    ``T`` trials, ``dof = T M``, the sums are ``T M g_k`` times the
    per-user means. ``Z``'s rows are split ``M`` at a time into the
    channel ``h`` and the noise of a received block ``y = h x^H +
    noise``, the last block padded with zero rows, which add no error.
    """
    z = low.conj().T * root_scale(cfg)
    z = np.concatenate([z, np.zeros((-len(z) % cfg.antennas, z.shape[1]))])
    err = 0.0
    for block in z.reshape(-1, cfg.antennas, z.shape[1]):
        h = block[:, : cfg.users]
        y = h @ x.conj().T + np.sqrt(cfg.sigma2) * block[:, cfg.users :]
        err = err + np.sum(np.abs(y @ b - h) ** 2, axis=0)
    return err


def weight_matrix(cfg, x, b):
    """``C = D^(1/2) F diag(1 / (K M g)) F^H D^(1/2)``, ``F = [x^H b - I; sqrt(sigma2) b]``."""
    f = np.concatenate([x.conj().T @ b - np.eye(cfg.users), np.sqrt(cfg.sigma2) * b])
    g = (f / (cfg.users * cfg.antennas * cfg.gains)) @ f.conj().T
    d = root_scale(cfg)
    return d[:, None] * g * d[None, :]


def exact_stderr(cfg, x, b, trials):
    """``sqrt(M ||C||_F^2 / T)`` from the eigenvalues of :func:`weight_matrix`."""
    c = np.linalg.eigvalsh(weight_matrix(cfg, x, b))
    return np.sqrt(cfg.antennas * np.sum(c**2) / trials)


def reference_monte_carlo(cfg, x, algorithm, trials, seed):
    """A run's ``(wsmse, stderr, per_user)`` on the direct route.

    Draws the summed factor of ``trials`` trials entry by entry and
    takes the estimator's error on its ``r`` rows of ``Z``.
    """
    b = ESTIMATORS[algorithm](x, cfg)
    low = bartlett_factor(cfg, seed, trials * cfg.antennas)
    per_user = direct_errors(cfg, x, b, low) / (trials * cfg.antennas * cfg.gains)
    return float(per_user.mean()), float(exact_stderr(cfg, x, b, trials)), per_user


def assert_matches_reference(rep, cfg, x, algorithm, trials, seed):
    # the engine maps the summed factor through F, the reference through
    # Y b - H on the rows of Z: the same sums in another order
    wsmse, stderr, per_user = reference_monte_carlo(cfg, x, algorithm, trials, seed)
    assert rep.wsmse == pytest.approx(wsmse, rel=1e-13, abs=0.0)
    assert rep.stderr == pytest.approx(stderr, rel=1e-13, abs=0.0)
    assert np.allclose(rep.per_user, per_user, rtol=1e-12, atol=0.0)


def desk_experiment(**overrides):
    kwargs = dict(antennas=16, users=8, gains=DESK_GAINS, snr_db_list=[0.0, 10.0],
                  n_list=[4], trials=400, seed=1234)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def point_bits(cfg):
    """``vars(cfg)`` with each value as its type, shape and bytes, to compare bit for bit."""
    return {name: (type(value), np.shape(value), np.asarray(value).tobytes())
            for name, value in vars(cfg).items()}


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

    def test_deterministic_and_independent_of_earlier_runs(self):
        # a run is a pure function of its inputs: no generator state leaks in
        # from runs, trials or sweeps made before it
        cfg = SystemConfig(antennas=8, users=4, pilot_len=2, sigma2=0.5,
                           gains=[0.9, 0.4, 0.7, 0.2])
        x = design_reuse_pilots(cfg)
        est = conventional_estimator(x, cfg)
        a = run_monte_carlo(cfg, x, est, trials=119, seed=5)
        run_monte_carlo(cfg, x, est, trials=7, seed=6)
        sweep_snr(desk_experiment(trials=3))
        b = run_monte_carlo(cfg, x, est, trials=119, seed=5)
        assert a.wsmse == b.wsmse
        assert np.array_equal(a.per_user, b.per_user)
        assert a.stderr == b.stderr
        assert run_monte_carlo(cfg, x, est, trials=119, seed=6).wsmse != a.wsmse

    def test_both_mode_shares_realizations(self):
        # one run per algorithm, but both read the same summed draw: the
        # reference draws it once from stream 0 for either one
        cfg = SystemConfig(antennas=8, users=4, pilot_len=2, sigma2=0.5,
                           gains=[0.9, 0.4, 0.7, 0.2])
        x = design_reuse_pilots(cfg)
        for name in ("proposed", "conventional"):
            rep = run_monte_carlo(cfg, x, ESTIMATORS[name](x, cfg), trials=200, seed=11)
            assert_matches_reference(rep, cfg, x, name, 200, 11)

    @pytest.mark.parametrize("dims", [(8, 4, 2), (8, 1, 1), (4, 9, 3), (5, 3, 6)])
    @pytest.mark.parametrize("offset", [None, -1, 1])
    def test_matches_per_trial_reference(self, dims, offset):
        # one trial, and the trial counts whose T M falls one step below and
        # above the factor's width K + N, where the summed factor turns from
        # trapezoidal to square (at M >= K + N both are square); K = 1, K
        # above numpy's 8-wide pairwise block, and N > K
        m, k, n = dims
        cfg = SystemConfig(antennas=m, users=k, pilot_len=n, sigma2=0.3,
                           gains=np.linspace(0.2, 1.0, k))
        trials = 1 if offset is None else max(1, -(-(k + n) // m) + offset)
        x = design_reuse_pilots(cfg)
        for algorithm in ("proposed", "conventional"):
            b = ESTIMATORS[algorithm](x, cfg)
            rep = run_monte_carlo(cfg, x, b, trials=trials, seed=3)
            assert_matches_reference(rep, cfg, x, algorithm, trials, 3)
            # one trial is within about one rounding of the direct route's
            # trial taken in long double
            one = run_monte_carlo(cfg, x, b, trials=1, seed=3)
            first = summed_direct_route(cfg, x, b, 1, 3, np.clongdouble)
            assert np.allclose(one.per_user, first, rtol=1e-15, atol=0.0)
            assert one.wsmse == pytest.approx(first.mean(), rel=1e-15, abs=0.0)

    def test_rejects_bad_estimator_and_trials(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=1, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        b = proposed_estimator(x, cfg)
        # a (pilot_len, 1) estimator would broadcast against the channel
        for bad_x, bad_b, name in [(x, b[:, :1], "b"), (x, b.T, "b"), (x.T, b, "x")]:
            with pytest.raises(ContractViolation, match=f"^{name} shape"):
                run_monte_carlo(cfg, bad_x, bad_b, trials=10, seed=1)
        with pytest.raises(ConfigurationError):
            run_monte_carlo(cfg, x, b, trials=0, seed=1)

    @pytest.mark.parametrize("trials, seed, message", [
        (2.5, 1, "trials must be an integer, got 2.5"),
        (3.0, 1, "trials must be an integer, got 3.0"),
        (0, 1, "trials must be >= 1, got 0"),
        (2, 1.5, "seed must be an integer, got 1.5"),
        (2, -1, "seed must be >= 0, got -1"),
        (2**32 + 1, 1, "trials must be <= 4294967296, got 4294967297"),
    ])
    def test_monte_carlo_integer_inputs_rejected_by_name(self, trials, seed, message):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=1, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            run_monte_carlo(cfg, x, proposed_estimator(x, cfg), trials, seed)

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_largest_trial_count_costs_one_draw(self, profile):
        # 2**32 trials are one factor with 2**32 M degrees of freedom; the
        # row lands within the gate of the analytic WSMSE
        if profile == "desk":
            cfg = SystemConfig(antennas=32, users=8, pilot_len=4, sigma2=1.0)
        else:
            cfg = SystemConfig(antennas=128, users=32, pilot_len=16, sigma2=1.0,
                               gains=reference_gains())
        for x, build in ((construct_pilots(cfg), proposed_estimator),
                         (design_reuse_pilots(cfg), conventional_estimator)):
            b = build(x, cfg)
            rep = run_monte_carlo(cfg, x, b, 2**32, seed=1)
            assert rep.stderr == pytest.approx(exact_stderr(cfg, x, b, 2**32), rel=1e-12)
            assert np.all(np.isfinite(rep.per_user))
            assert abs(rep.wsmse - analytic_wsmse(x, b, cfg).wsmse) <= 4 * rep.stderr

    def test_integer_inputs_accept_numpy_integers(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=1, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        b = proposed_estimator(x, cfg)
        rep = run_monte_carlo(cfg, x, b, np.int64(3), np.uint32(7))
        assert rep.wsmse == run_monte_carlo(cfg, x, b, 3, 7).wsmse

    @pytest.mark.parametrize("algorithm", ["proposed", "conventional"])
    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_wsmse_is_exactly_the_mean_of_per_user(self, profile, algorithm):
        # one reduction: the WSMSE is read off the per-user means, not
        # reduced again from the draw
        if profile == "desk":
            cfg = SystemConfig(antennas=32, users=8, pilot_len=4, sigma2=1.0)
        else:
            cfg = SystemConfig(antennas=128, users=32, pilot_len=16, sigma2=1.0,
                               gains=reference_gains())
        x = design_pilots(algorithm, cfg, desk_experiment())[0]
        b = ESTIMATORS[algorithm](x, cfg)
        for seed in range(20):
            rep = run_monte_carlo(cfg, x, b, 200, seed)
            assert rep.wsmse == float(np.mean(rep.per_user))

    def test_sweep_rows_are_the_mean_of_per_user(self, monkeypatch):
        per_user = []

        def kept(*args):
            result = _monte_carlo(*args)
            per_user.extend(result[0])
            return result

        monkeypatch.setattr(harness, "_monte_carlo", kept)
        grid = [float(v) for v in range(-10, 21, 2)]
        rows = sweep_snr(ExperimentConfig(antennas=32, users=8, snr_db_list=grid, n_list=[4],
                                          trials=200, seed=1))
        assert len(rows) == len(per_user) == 32
        for row, terms in zip(rows, per_user):
            assert row.wsmse_empirical == float(np.mean(terms))

    def test_per_user_agreement_with_analytic(self):
        cfg = SystemConfig(antennas=32, users=4, pilot_len=2, sigma2=0.5,
                           gains=DESK_GAINS[:4])
        x0 = init_pilots("random", cfg, stream=RandomStream(1, 0))
        x, _ = optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=100)
        expected = analytic_wsmse(x, proposed_estimator(x, cfg), cfg).per_user
        rep = run_monte_carlo(cfg, x, proposed_estimator(x, cfg), trials=10000,
                              seed=606)
        assert np.all(np.abs(rep.per_user - expected) / expected < 0.02)

    def test_stderr_scales_with_trials(self):
        # the exact standard error: sqrt(M ||C||_F^2 / T), whatever the draw
        cfg = SystemConfig(antennas=4, users=2, pilot_len=2, sigma2=1.0,
                           gains=[0.3, 0.9])
        x = init_pilots("dft-reuse", cfg)
        b = proposed_estimator(x, cfg)
        small = run_monte_carlo(cfg, x, b, trials=200, seed=3)
        large = run_monte_carlo(cfg, x, b, trials=3200, seed=3)
        assert large.stderr == pytest.approx(small.stderr / 4, rel=1e-14)
        assert small.stderr == pytest.approx(exact_stderr(cfg, x, b, 200), rel=1e-12)
        assert run_monte_carlo(cfg, x, b, trials=200, seed=4).stderr == small.stderr


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


def summed_direct_route(cfg, x, b, trials, seed, dtype=np.complex128):
    """Per-user means of ``trials`` trials on the direct route, ``y @ b - h``.

    Runs on the ``r`` rows of ``Z = L^H D^(1/2)`` for the engine's own
    summed factor, ``T M`` degrees of freedom from stream 0, so it checks
    the engine's algebra and not its draw. The factor is cast to
    ``dtype`` first and the means rounded to float64 once at the end: in
    ``np.clongdouble``, where long double is wider than float64, they are
    within about one rounding of the exact values on that factor.
    """
    low = _factor(cfg, seed, trials * cfg.antennas).astype(dtype)
    err = direct_errors(cfg, x, b, low)
    return (err / (trials * cfg.antennas * cfg.gains)).astype(np.float64)


class TestGramEngine:
    """The Gram evaluation against the direct y @ b - h route it replaces."""

    @pytest.mark.parametrize("index", range(len(GRAM_CASES)))
    def test_matches_direct_route(self, index):
        cfg, x, b = gram_case(GRAM_CASES[index], index)
        for trials in (1, 7):
            rep = run_monte_carlo(cfg, x, b, trials, seed=21)
            direct = summed_direct_route(cfg, x, b, trials, 21)
            assert rep.wsmse == pytest.approx(direct.mean(), rel=1e-12, abs=0.0)
            assert np.allclose(rep.per_user, direct, rtol=1e-12, atol=0.0)
        # one trial against the direct route taken in long double
        assert np.allclose(run_monte_carlo(cfg, x, b, 1, seed=21).per_user,
                           summed_direct_route(cfg, x, b, 1, 21, np.clongdouble),
                           rtol=1e-12, atol=0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("index", range(len(NEAR_NOISELESS)))
    def test_near_noiseless_both_routes_match_long_double(self, index):
        cfg, x, b = gram_case(NEAR_NOISELESS[index], len(GRAM_CASES) + index)
        trials = 30
        gram = run_monte_carlo(cfg, x, b, trials, seed=21)
        direct = summed_direct_route(cfg, x, b, trials, 21)
        # Z F in long double from the same float64 draw, pilots and b
        z = _factor(cfg, 21, trials * cfg.antennas).conj().T * root_scale(cfg)
        z = z.astype(np.clongdouble)
        xl, bl = x.astype(np.clongdouble), b.astype(np.clongdouble)
        f = np.concatenate([xl.conj().T @ bl - np.eye(cfg.users),
                            np.sqrt(np.longdouble(cfg.sigma2)) * bl])
        exact = np.sum(np.abs(z @ f) ** 2, axis=0) / (trials * cfg.antennas * cfg.gains)

        def worst(values):
            return float(np.max(np.abs(values - exact) / exact))

        # the float64 direct route loses a few digits here; the engine
        # forms its error block in long double and loses none
        assert worst(gram.per_user) < 1e-14
        assert worst(direct) < 1e-9
        assert abs(gram.wsmse - exact.mean()) / exact.mean() < 1e-14

    @pytest.mark.parametrize("index", range(len(GRAM_CASES)))
    def test_weight_mean_is_analytic_wsmse(self, index):
        # a row of Z is u D^(1/2) with u ~ CN(0, I) and D = diag(g, 1_N), so
        # a trial's WSMSE u C u^H summed over M rows has mean M tr(C)
        cfg, x, b = gram_case(GRAM_CASES[index], index)
        mean = cfg.antennas * np.trace(weight_matrix(cfg, x, b)).real
        assert mean == pytest.approx(analytic_wsmse(x, b, cfg).wsmse, rel=1e-12, abs=0.0)

    def test_point_values_do_not_depend_on_company(self):
        cfg, x, b = gram_case(GRAM_CASES[5], 5)
        other = gram_case(GRAM_CASES[4], 4)[1:]
        # two designs at three noise variances, a column: the point of (x, b)
        # at cfg.sigma2 is the fourth, SNR by SNR and the designs within
        def values(sigma2, designs):
            # the empirical (per_user, wsmse) and the law's (per_user, sd)
            maps = model._error_maps(designs, cfg, sigma2)
            return (*_monte_carlo(cfg, maps, 57, seed=4), *model._error_law(maps, cfg))

        alone = values(np.array([[cfg.sigma2]]), [(x, b[np.newaxis])])
        shared = values(np.array([[0.7], [cfg.sigma2], [2.0]]),
                        [(other[0], np.stack([other[1]] * 3)), (x, np.stack([b] * 3))])
        for one, among in zip(alone, shared):
            assert one[0].tobytes() == among[3].tobytes()

    def test_sweep_counts(self, monkeypatch):
        # a refactor that brings back per-trial or per-point work changes
        # these counts: one random stream per pilot length, whatever the
        # trial count and the number of SNR points; the constructed design's
        # estimators are a broadcast division, with no solve, and the cyclic
        # optimizer's take one stacked solve per pilot length
        calls = dict.fromkeys(["draw_cn", "generator", "solve_hermitian", "_error_maps"], 0)

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
        # one error map per point, which the analytic WSMSE, the Monte Carlo
        # block and the standard error all read
        counted(model, "_error_maps")
        counted(harness, "_error_maps")
        for trials in (5, 5000):
            calls.update(dict.fromkeys(calls, 0))
            ecfg = desk_experiment(snr_db_list=[0.0, 10.0], trials=trials)
            assert len(sweep_snr(ecfg)) == 4
            assert calls == {"draw_cn": 0, "generator": 1, "solve_hermitian": 0,
                             "_error_maps": 1}
        calls.update(dict.fromkeys(calls, 0))
        assert len(sweep_snr(desk_experiment(n_list=[2, 4], trials=5))) == 8
        assert calls == {"draw_cn": 0, "generator": 2, "solve_hermitian": 0, "_error_maps": 2}
        # from a random start: four optimizer runs, each drawing its start
        # from a fresh stream, and one stacked solve per pilot length
        calls.update(dict.fromkeys(calls, 0))
        ecfg = desk_experiment(n_list=[2, 4], trials=5, init="random", max_sweeps=3)
        assert len(sweep_snr(ecfg)) == 8
        assert calls == {"draw_cn": 4, "generator": 6, "solve_hermitian": 2, "_error_maps": 2}

    def test_desk_sweep_designs_once(self, monkeypatch):
        # the default design and the baseline do not depend on the noise
        # variance: a 16-point desk sweep builds each once and forms all 16
        # proposed estimators by one broadcast division, with no solve (the
        # cyclic optimizer from dft-reuse made 128 updates across 16 runs here)
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
        grid = [float(v) for v in range(-10, 21, 2)]
        ecfg = ExperimentConfig(antennas=32, users=8, snr_db_list=grid, n_list=[4],
                                trials=200, seed=1)
        assert len(sweep_snr(ecfg)) == 32
        assert calls == {"construct_pilots": 1, "design_reuse_pilots": 1,
                         "rayleigh_update": 0, "solve_hermitian": 0}

    @pytest.mark.parametrize("profile, n, snr_db_list", [
        ("desk", 4, DESK_GRID), ("paper", 16, [0.0]), ("paper", 32, DESK_GRID),
    ], ids=["desk-sweep", "paper-point", "paper-n32"])
    def test_stacked_solve_skips_the_eigensolve(self, monkeypatch, profile, n, snr_db_list):
        # the constructed design checks the singularity floor on its known
        # spectrum lambda* + sigma2, so no constructed sweep runs an
        # eigensolve, not even at N = K = 32 over the default grid, where the
        # Gershgorin discs of the paper's Gram matrices cannot prove the floor
        # and solve_hermitian would run one
        calls = []
        inner = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return inner(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        if profile == "desk":
            scenario = dict(antennas=32, users=8)
        else:
            scenario = dict(antennas=128, users=32, gains=reference_gains())
        ecfg = ExperimentConfig(**scenario, snr_db_list=snr_db_list, n_list=[n], trials=200,
                                seed=1)
        assert len(sweep_snr(ecfg)) == 2 * len(snr_db_list)
        assert len(calls) == 0


# (antennas, users, pilot_len, trials): T M >= K + N, and T M < K + N at
# T > 1, where the summed factor is trapezoidal
LAW_CASES = [(6, 3, 2, 3), (2, 3, 4, 2)]
LAW_SEEDS = 20000


def law_case(case):
    m, k, n, trials = case
    cfg = SystemConfig(antennas=m, users=k, pilot_len=n, sigma2=0.5,
                       gains=np.linspace(0.2, 1.0, k)[::-1])
    return cfg, np.concatenate([cfg.gains, np.ones(n)]), trials


class TestFactorLaw:
    """The summed factor's draws against the complex Wishart law ``CW(T M, D)``.

    ``S = D^(1/2) L L^H D^(1/2)`` must be the sum of ``T`` independent
    ``CW(M, D)`` Gram matrices, the Gram matrix of ``T M`` i.i.d. ``CN(0,
    D)`` rows. Each check holds a sample moment over ``LAW_SEEDS`` seeds
    within 5 of the law's own standard errors of that moment.
    """

    @pytest.mark.parametrize("case", LAW_CASES)
    def test_gram_moments(self, case):
        cfg, d, trials = law_case(case)
        n, seeds = trials * cfg.antennas, LAW_SEEDS
        low = np.stack([_factor(cfg, seed, n) for seed in range(seeds)])
        root = np.sqrt(d)
        s = root[:, None] * (low @ low.conj().transpose(0, 2, 1)) * root[None, :]
        dd = np.outer(d, d)
        # E S = T M D, and E|S_ij - E S_ij|^2 = T M d_i d_j for every entry
        mean = s.mean(axis=0)
        assert np.all(np.abs(mean - n * np.diag(d)) <= 5 * np.sqrt(n * dd / seeds))
        # off the diagonal E|S_ij|^2 = T M d_i d_j, with variance
        # ((T M)^2 + 2 T M) (d_i d_j)^2
        second = (np.abs(s) ** 2).mean(axis=0)
        off = ~np.eye(len(d), dtype=bool)
        se = np.sqrt((n * n + 2 * n) / seeds) * dd
        assert np.all(np.abs(second - n * dd)[off] <= 5 * se[off])
        # S_ii / d_i ~ Gamma(T M, 1): E S_ii^2 = T M (T M + 1) d_i^2, and
        # S_ii^2 has variance (n (n+1) (n+2) (n+3) - n^2 (n+1)^2) d_i^4, n = T M
        fourth = n * (n + 1) * (n + 2) * (n + 3) - (n * (n + 1)) ** 2
        se = np.sqrt(fourth / seeds) * d**2
        assert np.all(np.abs(second.diagonal() - n * (n + 1) * d**2) <= 5 * se)

    @pytest.mark.parametrize("case", LAW_CASES)
    def test_wsmse_mean_and_variance(self, case):
        # a trial's WSMSE is sum_m u_m C u_m^H with u_m ~ CN(0, I) and
        # C = D^(1/2) G D^(1/2), so a row's mean over T trials has cumulants
        # kappa_r = T M (r - 1)! sum_i (c_i / T)^r over C's eigenvalues c_i:
        # mean M tr(C), variance M ||C||_F^2 / T, the reported standard error
        # squared; the sample variance over seeds has variance
        # kappa_4 / S + 2 kappa_2^2 / (S - 1)
        cfg, d, trials = law_case(case)
        m, seeds = cfg.antennas, LAW_SEEDS
        x = construct_pilots(cfg)
        b = proposed_estimator(x, cfg)
        maps = model._error_maps([(x, b[np.newaxis])], cfg, np.array([[cfg.sigma2]]))
        runs = [_monte_carlo(cfg, maps, trials, seed) for seed in range(seeds)]
        means = np.array([wsmse[0] for _, wsmse in runs])
        c = np.linalg.eigvalsh(weight_matrix(cfg, x, b))
        mean = analytic_wsmse(x, b, cfg).wsmse
        assert mean == pytest.approx(m * c.sum(), rel=1e-12)
        kappa2 = m * np.sum(c**2) / trials
        kappa4 = 6 * m * np.sum(c**4) / trials**3
        stderr = run_monte_carlo(cfg, x, b, trials, 0).stderr
        assert stderr == pytest.approx(np.sqrt(kappa2), rel=1e-12)
        assert abs(means.mean() - mean) <= 5 * np.sqrt(kappa2 / seeds)
        se = np.sqrt(kappa4 / seeds + 2 * kappa2**2 / (seeds - 1))
        assert abs(means.var(ddof=1) - kappa2) <= 5 * se


class TestDesignPilots:
    @pytest.mark.parametrize("algorithm", ["proposed", "conventional"])
    @pytest.mark.parametrize("power", [1e-300, 1e-200, 1e300])
    def test_analytic_wsmse_depends_on_snr_only(self, algorithm, power):
        def per_user(p):
            ecfg = desk_experiment(powers=p)
            return design_pilots(algorithm, ecfg.point(0.0, 4), ecfg)[2].per_user

        assert np.allclose(per_user(power), per_user(1.0), rtol=1e-12, atol=0.0)

    def test_unknown_algorithm_rejected(self):
        ecfg = desk_experiment()
        with pytest.raises(ConfigurationError, match="algorithm"):
            design_pilots("bogus", ecfg.point(0.0, 4), ecfg)


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

    @pytest.mark.parametrize("overrides", [
        # N = 1, N = K and N > K in one n_list
        dict(n_list=[1, 8, 12], snr_db_list=[-5.0, 0.0, 10.0]),
        # pilots designed once per noise variance
        dict(n_list=[2, 8, 12], snr_db_list=[-5.0, 10.0], init="random"),
        dict(n_list=[3, 8], snr_db_list=[0.0, 7.0, 20.0], mode="proposed",
             powers=np.linspace(0.5, 2.0, 8)),
        dict(n_list=[1, 4, 12], snr_db_list=[3.0]),
        # one user: each bias x_k^H b_k is a dot product, whose BLAS bits
        # depend on the strides the stacked pilots give it
        dict(antennas=3, users=1, gains=DESK_GAINS[:1], n_list=[1, 10],
             snr_db_list=[-3.0, 7.0, 40.0]),
    ])
    def test_rows_equal_single_point_runs(self, overrides):
        # the sweep designs and evaluates every point of one pilot length in
        # one stacked pass; each row must equal its own design_pilots and
        # run_monte_carlo, field by field and bit for bit
        ecfg = desk_experiment(trials=57, **overrides)
        rows = sweep_snr(ecfg)
        points = [(snr_db, n, algorithm) for n in ecfg.n_list for snr_db in ecfg.snr_db_list
                  for algorithm in ecfg.algorithms]
        assert [(r.snr_db, r.n, r.algorithm) for r in rows] == points
        powers = np.ones(ecfg.users) * ecfg.powers
        for row in rows:
            cfg = SystemConfig(antennas=ecfg.antennas, users=ecfg.users, pilot_len=row.n,
                               sigma2=sigma2_from_snr(row.snr_db, powers), powers=powers,
                               gains=ecfg.gains)
            x, b, ana, trace = design_pilots(row.algorithm, cfg, ecfg)
            emp = run_monte_carlo(cfg, x, b, ecfg.trials, ecfg.seed)
            expected = SweepRow(row.snr_db, row.n, row.algorithm, ana.wsmse, emp.wsmse,
                                emp.stderr, ecfg.trials,
                                None if trace is None else trace.sweeps_completed)
            assert vars(row) == vars(expected)
            assert (row.sweeps is None) == (ecfg.init is None or row.algorithm != "proposed")

    def test_non_finite_wsmse_is_a_numerical_error(self, monkeypatch):
        factor = harness._factor

        def poisoned(cfg, seed, dof):
            low = factor(cfg, seed, dof)
            low[-1, 0] = np.nan
            return low

        monkeypatch.setattr(harness, "_factor", poisoned)
        with pytest.raises(NumericalError, match="WSMSE is not finite"):
            sweep_snr(desk_experiment(trials=5))
        with pytest.raises(NumericalError, match="WSMSE is not finite"):
            harness._consistency_gate("p", float("inf"), 0.5, 0.01)

    @staticmethod
    def louder_noise(monkeypatch, scale):
        """Scale the noise rows of every Bartlett factor, the noise amplitude, by ``scale``."""
        factor = harness._factor

        def louder(cfg, seed, dof):
            low = factor(cfg, seed, dof)
            low[cfg.users :] *= scale
            return low

        monkeypatch.setattr(harness, "_factor", louder)

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_gate_catches_louder_noise(self, monkeypatch, profile):
        # the CLI's profiles: desk over the default grid, paper at 0 dB; the
        # exact standard error does not grow with the variance it checks
        if profile == "desk":
            scenario = dict(antennas=32, users=8, n_list=[4],
                            snr_db_list=[float(v) for v in range(-10, 21, 2)])
        else:
            scenario = dict(antennas=128, users=32, gains=reference_gains(), n_list=[16],
                            snr_db_list=[0.0])
        ecfg = ExperimentConfig(**scenario, trials=200)
        sweep_snr(ecfg)
        self.louder_noise(monkeypatch, 1.05)
        with pytest.raises(NumericalError, match="more than 4 standard errors"):
            sweep_snr(ecfg)

    def test_one_trial_rows_are_gated(self, monkeypatch):
        # a one-trial row has no sample standard error, but it has an exact
        # one: the row reports it and the gate divides by it
        ecfg = desk_experiment(trials=1)
        row = sweep_snr(ecfg)[0]
        cfg = ecfg.point(row.snr_db, row.n)
        x, b, _, _ = design_pilots(row.algorithm, cfg, ecfg)
        assert row.stderr == pytest.approx(exact_stderr(cfg, x, b, 1), rel=1e-12)
        self.louder_noise(monkeypatch, 2.0)
        with pytest.raises(NumericalError, match="more than 4 standard errors"):
            sweep_snr(ecfg)


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
            singles += sweep_snr(replace(ecfg, n_list=[n]))
        assert len(rows) == len(singles) == 12
        assert [vars(r) for r in rows] == [vars(r) for r in singles]

    def test_empty_n_list_is_rejected(self):
        # there is no fallback pilot length: a sweep runs exactly the lengths named
        rows = sweep_snr(desk_experiment(mode="proposed", trials=10))
        assert [r.n for r in rows] == [4, 4]
        with pytest.raises(ConfigurationError, match="^n_list must be non-empty$"):
            sweep_snr(desk_experiment(mode="proposed", trials=10, n_list=[]))


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


def small_experiment(**overrides):
    """A 4-antenna, 2-user experiment at one point, 0 dB and two pilot symbols."""
    return ExperimentConfig(**{"antennas": 4, "users": 2, "snr_db_list": [0.0],
                               "n_list": [2], **overrides})


class TestExperimentConfig:
    def test_validation(self):
        for axis in ("snr_db_list", "n_list"):
            with pytest.raises(ConfigurationError, match=f"^{axis} must be non-empty$"):
                small_experiment(**{axis: []})
        with pytest.raises(ConfigurationError):
            small_experiment(trials=0)
        with pytest.raises(ConfigurationError):
            small_experiment(trials=1, mode="all")
        for tol in (float("nan"), -1.0, float("inf")):
            with pytest.raises(ConfigurationError, match="tol"):
                small_experiment(trials=1, tol=tol)
        assert small_experiment(trials=1, tol=0.0).tol == 0.0
        with pytest.raises(ConfigurationError, match="seed"):
            small_experiment(trials=1, seed=-1)
        assert small_experiment(trials=1, seed=0).seed == 0

    def test_every_point_checked_on_construction(self):
        small_experiment(powers=1e-300)
        # 1e-300 at 200 dB is a noise variance of 1e-320: N / sigma2 overflows
        with pytest.raises(ConfigurationError, match="sigma2 1e-320 is too small"):
            small_experiment(powers=1e-300, snr_db_list=[0.0, 200.0])
        with pytest.raises(ConfigurationError, match="dimensions must be positive"):
            small_experiment(n_list=[2, 0])
        # checked before the powers are expanded to one value per user
        with pytest.raises(ConfigurationError, match="^dimensions are too large"):
            small_experiment(users=10**300)
        # a user count below one is the point's to reject, by the same message
        for users in (0, -1):
            with pytest.raises(ConfigurationError, match="^dimensions must be positive, got "
                               f"antennas=4, users={users}, pilot_len=2$"):
                small_experiment(users=users)

    def test_sigma2_is_the_mean_of_the_per_user_powers(self):
        # the mean of ten copies of 2.6 is not 2.6: the point takes it over the
        # per-user array it holds, as a SystemConfig built from those values does
        ecfg = small_experiment(users=10, powers=2.6)
        cfg = ecfg.point(0.0, 2)
        sigma2 = sigma2_from_snr(0.0, np.full(10, 2.6))
        assert sigma2 != sigma2_from_snr(0.0, 2.6)
        assert np.float64(cfg.sigma2).tobytes() == np.float64(sigma2).tobytes()
        direct = SystemConfig(antennas=4, users=10, pilot_len=2, sigma2=sigma2, powers=2.6)
        assert point_bits(cfg) == point_bits(direct)

    def test_drivers_resolve_the_same_point(self):
        # sweep_snr, convergence_trace and the single-point commands all build
        # their SystemConfig by ExperimentConfig.point, one per (SNR, N)
        ecfg = ExperimentConfig(antennas=8, users=4, gains=DESK_GAINS[:4], snr_db_list=[3.0],
                                n_list=[2], trials=20, seed=8)
        snr_db, cfg = ecfg.single_point()
        assert (snr_db, cfg.pilot_len) == (3.0, 2)
        assert cfg.sigma2 == sigma2_from_snr(3.0, np.ones(4))
        assert point_bits(ecfg.point(3.0, 2)) == point_bits(cfg)

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
        assert small_experiment(snr_db_list=[1.0]).single_point()[1].pilot_len == 2
        with pytest.raises(ConfigurationError, match="one SNR point, got 2"):
            small_experiment(snr_db_list=[1.0, 2.0]).single_point()
        with pytest.raises(ConfigurationError, match="one pilot length, got 2"):
            small_experiment(snr_db_list=[1.0], n_list=[1, 2]).single_point()

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("seed", 1.5), ("max_sweeps", 2.5), ("n_list", [2.6]),
        ("trials", 3.0), ("n_list", [2, 4.0]), ("users", 2.5), ("antennas", 2.5),
    ])
    def test_integer_fields(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            small_experiment(**{field: value})

    def test_trials_stop_at_two_to_the_32(self):
        assert small_experiment(trials=2**32).trials == 2**32
        with pytest.raises(ConfigurationError, match="^trials must be <= 4294967296, got "):
            small_experiment(trials=2**32 + 1)

    def test_integer_fields_accept_numpy_integers(self):
        ecfg = small_experiment(trials=np.int64(3), seed=np.uint32(7),
                                n_list=[np.int64(1), 2])
        assert (ecfg.trials, ecfg.seed, ecfg.n_list) == (3, 7, [1, 2])
        assert all(type(v) is int for v in (ecfg.trials, ecfg.seed, *ecfg.n_list))

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_rejected_before_any_design(self, snr_db):
        with pytest.raises(ConfigurationError, match="snr_db must be finite"):
            small_experiment(snr_db_list=[0.0, snr_db])


def test_pilot_memory_layout_leaves_the_bits():
    # the desk K = N = 8 reuse frame at -2 dB, whose conventional rows moved
    # with the layout while the frame came Fortran-ordered from fancy indexing
    cfg = SystemConfig(antennas=32, users=8, pilot_len=8, powers=1.0, gains=1.0,
                       sigma2=sigma2_from_snr(-2.0, 1.0))
    frame = init_pilots("dft-reuse", cfg)
    assert frame.flags.c_contiguous
    seen = []
    for x in (np.asfortranarray(frame), np.ascontiguousarray(frame)):
        b = conventional_estimator(x, cfg)
        report = run_monte_carlo(cfg, x, np.asfortranarray(b), 50, 1)
        seen.append((b.tobytes(), analytic_wsmse(x, b, cfg).wsmse,
                     report.wsmse, report.stderr))
    assert seen[0] == seen[1]
