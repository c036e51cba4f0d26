import re

import numpy as np
import pytest

from pilotopt import (
    ConfigurationError,
    ContractViolation,
    RandomStream,
    SystemConfig,
    analytic_wsmse,
    conventional_estimator,
    design_reuse_pilots,
    draw_cn,
    reference_gains,
    run_monte_carlo,
    sigma2_from_snr,
)
from pilotopt.conventional import conventional_estimate


def reuse_cfg(users, pilot_len, powers=1.0, sigma2=1.0, gains=1.0):
    return SystemConfig(antennas=4, users=users, pilot_len=pilot_len,
                        sigma2=sigma2, powers=powers, gains=gains)


def baseline_wsmse(cfg):
    x = design_reuse_pilots(cfg)
    return analytic_wsmse(x, conventional_estimator(x, cfg), cfg)


def clash_oracle(cfg):
    """Per-user normalized MSE of the baseline on its reuse pilots, in closed form.

    ``m_k = |c P - 1|^2 g_k + |c|^2 (P^2 sum_{j in C_k} g_j + sigma2 P)``
    with ``c = g_k / (P g_k + sigma2)`` and the clash set ``C_k`` of the
    other users of ``range(k % N, K, N)``; it knows nothing of the
    estimator matrix.
    """
    p, g = cfg.powers[0], cfg.gains
    n, users = cfg.pilot_len, cfg.users
    c = g / (p * g + cfg.sigma2)
    clash = np.array(
        [sum(g[j] for j in range(k % n, users, n) if j != k) for k in range(users)]
    )
    m = np.abs(c * p - 1.0) ** 2 * g + np.abs(c) ** 2 * (
        p**2 * clash + cfg.sigma2 * p
    )
    return m / g


class TestDesignReusePilots:
    def test_orthogonal_when_enough_symbols(self):
        x = design_reuse_pilots(reuse_cfg(4, 4))
        assert np.max(np.abs(x.conj().T @ x - np.eye(4))) < 1e-12

    def test_columns_repeat_under_reuse(self):
        x = design_reuse_pilots(reuse_cfg(4, 2))
        assert np.array_equal(x[:, 2], x[:, 0])
        assert np.array_equal(x[:, 3], x[:, 1])

    def test_entry_magnitude_and_column_energy(self):
        p = 2.5
        x = design_reuse_pilots(reuse_cfg(7, 5, powers=p))
        assert np.allclose(np.abs(x), np.sqrt(p / 5))
        assert np.allclose(np.sum(np.abs(x) ** 2, axis=0), p)

    def test_unequal_powers_rejected(self):
        with pytest.raises(ConfigurationError):
            design_reuse_pilots(reuse_cfg(4, 2, powers=[1.0, 1.0, 2.0, 1.0]))


class TestConventionalEstimate:
    def test_noiseless_orthogonal_recovery(self):
        cfg = SystemConfig(antennas=8, users=4, pilot_len=4, sigma2=0.0)
        x = design_reuse_pilots(cfg)
        h = draw_cn(RandomStream(1, 0), 8, 4)
        h_hat = conventional_estimate(h @ x.conj().T, x, cfg)
        assert np.max(np.abs(h_hat - h)) < 1e-12

    def test_unit_case_scalar(self):
        # g = 1, sigma2 = 1, P = 1: shrinkage by exactly 1/2
        cfg = SystemConfig(antennas=3, users=1, pilot_len=1, sigma2=1.0)
        y = np.ones((3, 1), dtype=complex)
        h_hat = conventional_estimate(y, np.ones((1, 1)), cfg)
        assert np.allclose(h_hat, 0.5 * np.ones((3, 1)))

    def test_generalized_scalar(self):
        # g = 0.5, sigma2 = 0.5, P = 2 gives c = 1/3
        cfg = SystemConfig(antennas=2, users=1, pilot_len=1, sigma2=0.5,
                           powers=2.0, gains=0.5)
        x = np.array([[np.sqrt(2.0)]])
        y = np.ones((2, 1), dtype=complex)
        h_hat = conventional_estimate(y, x, cfg)
        assert np.allclose(h_hat, np.sqrt(2.0) / 3.0 * np.ones((2, 1)))

    def test_rejects_uneven_column_energy(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=2, sigma2=1.0)
        x = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(Exception):
            conventional_estimate(np.zeros((2, 2)), x, cfg)


class TestConventionalEstimator:
    def test_rejects_pilots_of_the_wrong_shape_by_dimensions(self):
        cfg = SystemConfig(antennas=2, users=3, pilot_len=2, sigma2=1.0)
        message = "x shape (3, 2) does not match (pilot_len, users) = (2, 3)"
        with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
            conventional_estimator(np.ones((3, 2)), cfg)

    def test_uniform_energy_check_scales_with_power(self):
        # energies 1e-300 and 9e-300 differ by 8 budgets, which an absolute
        # 1e-9 tolerance let through
        cfg = SystemConfig(antennas=2, users=2, pilot_len=2, sigma2=1e-300,
                           powers=1e-300)
        x = np.array([[1e-150, 0.0], [0.0, 3e-150]])
        with pytest.raises(ContractViolation, match="uniform"):
            conventional_estimator(x, cfg)
        b = conventional_estimator(design_reuse_pilots(cfg), cfg)
        assert np.all(np.isfinite(b))


class TestConventionalAnalyticWsmse:
    def test_no_contamination_unit_case(self):
        cfg = SystemConfig(antennas=4, users=1, pilot_len=1, sigma2=1.0)
        rep = baseline_wsmse(cfg)
        assert rep.wsmse == pytest.approx(0.5, abs=1e-12)

    def test_single_contaminator_unit_case(self):
        cfg = SystemConfig(antennas=4, users=2, pilot_len=1, sigma2=1.0)
        rep = baseline_wsmse(cfg)
        assert rep.wsmse == pytest.approx(0.75, abs=1e-12)
        assert np.allclose(rep.per_user, [0.75, 0.75])

    def test_high_noise_limit(self):
        cfg = SystemConfig(antennas=4, users=2, pilot_len=1, sigma2=1e8)
        rep = baseline_wsmse(cfg)
        assert np.all(np.abs(rep.per_user - 1.0) < 1e-6)

    def test_monte_carlo_agreement(self):
        # one contaminated and one clean configuration
        for users, pilot_len in [(4, 2), (4, 4)]:
            cfg = SystemConfig(antennas=16, users=users, pilot_len=pilot_len,
                               sigma2=0.8, gains=[0.9, 0.4, 0.6, 0.2])
            x = design_reuse_pilots(cfg)
            analytic = baseline_wsmse(cfg)
            b = conventional_estimator(x, cfg)
            empirical = run_monte_carlo(cfg, x, b, 10000, seed=202)
            assert empirical.wsmse == pytest.approx(analytic.wsmse, rel=0.02)

    def test_decreasing_in_snr_without_contamination(self):
        gains = [0.9, 0.4, 0.6, 0.2]
        vals = []
        for snr in range(-10, 21, 2):
            s2 = sigma2_from_snr(snr, np.ones(4))
            cfg = SystemConfig(antennas=4, users=4, pilot_len=4, sigma2=s2,
                               gains=gains)
            vals.append(baseline_wsmse(cfg).wsmse)
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("users,pilot_len,gains", [
        *[(k, n, "unit") for k, n in [(1, 1), (2, 1), (8, 4), (7, 3), (32, 16), (5, 8)]],
        (32, 16, "paper"),
    ])
    def test_matches_general_overlap_formula(self, users, pilot_len, gains):
        g = reference_gains() if gains == "paper" else 1.0
        cfg = reuse_cfg(users, pilot_len, powers=1.7, sigma2=0.3, gains=g)
        rep = baseline_wsmse(cfg)
        expect = clash_oracle(cfg)
        assert np.allclose(rep.per_user, expect, rtol=1e-12, atol=0.0)
        assert rep.wsmse == pytest.approx(np.mean(expect), rel=1e-12)


class TestDecoupledStatistic:
    def test_noiseless_reuse_superposition(self):
        # with zero noise the statistic is exactly P times the clash sum
        cfg = SystemConfig(antennas=8, users=4, pilot_len=2, sigma2=0.0,
                           powers=2.0)
        x = design_reuse_pilots(cfg)
        h = draw_cn(RandomStream(4, 0), 8, 4)
        z = (h @ x.conj().T) @ x
        for k in range(4):
            # user k and its clash partners share column k mod 2
            expect = 2.0 * sum(h[:, j] for j in range(k % 2, 4, 2))
            assert np.max(np.abs(z[:, k] - expect)) < 1e-12

    def test_zero_mean(self):
        cfg = SystemConfig(antennas=1, users=2, pilot_len=1, sigma2=1.0)
        x = design_reuse_pilots(cfg)
        acc = np.zeros(2, dtype=complex)
        trials = 10000
        for t in range(trials):
            h = draw_cn(RandomStream(88, t), 1, 2)
            noise = np.sqrt(cfg.sigma2) * draw_cn(RandomStream(88, 2**32 + t), 1, 1)
            y = h @ x.conj().T + noise
            acc += (y @ x).ravel()
        assert np.all(np.abs(acc / trials) < 0.05)
