from dataclasses import replace

import numpy as np
import pytest

import pilotopt.optimizer as optimizer
from pilotopt import (
    ConfigurationError,
    ContractViolation,
    NumericalError,
    RandomStream,
    SingularMatrixError,
    SystemConfig,
    analytic_wsmse,
    combiner,
    construct_pilots,
    draw_cn,
    gram_matrix,
    hermitian_eig,
    init_pilots,
    leave_one_out,
    objective,
    optimality_bound,
    optimize_pilots,
    proposed_estimate,
    proposed_estimator,
    rayleigh_update,
    received_pilot_signal,
    receiver_scalar,
    reference_gains,
    save_pilots,
    sigma2_from_snr,
)


def proposed_wsmse(x, cfg):
    return analytic_wsmse(x, proposed_estimator(x, cfg), cfg)


def random_cfg(seed, max_users=12, min_users=2, noise=(0.05, 2.0)):
    rng = np.random.default_rng(seed)
    users = int(rng.integers(min_users, max_users + 1))
    pilot_len = int(rng.integers(1, users + 1))
    return SystemConfig(
        antennas=4,
        users=users,
        pilot_len=pilot_len,
        sigma2=float(rng.uniform(*noise)),
        powers=rng.uniform(0.5, 2.0, users),
        gains=rng.uniform(0.05, 1.0, users),
    )


class TestGramMatrix:
    def test_zero_pilots(self):
        cfg = SystemConfig(antennas=2, users=3, pilot_len=4, sigma2=0.7)
        a = gram_matrix(np.zeros((4, 3)), cfg)
        assert np.allclose(a, 0.7 * np.eye(4))

    def test_scalar_case(self):
        cfg = SystemConfig(antennas=2, users=1, pilot_len=1, sigma2=1.0)
        a = gram_matrix(np.ones((1, 1)), cfg)
        assert a[0, 0] == pytest.approx(2.0)

    def test_orthogonal_eigenvalues(self):
        cfg = SystemConfig(antennas=2, users=4, pilot_len=4, sigma2=0.3,
                           powers=[1.0, 2.0, 0.5, 1.5],
                           gains=[0.9, 0.3, 0.6, 0.2])
        x = init_pilots("dft-reuse", cfg)
        w, _ = hermitian_eig(gram_matrix(x, cfg))
        expected = np.sort(cfg.gains * cfg.powers + cfg.sigma2)
        assert np.allclose(w, expected, atol=1e-12)


class TestObjective:
    def test_zero_pilots(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=3, sigma2=0.5)
        assert objective(np.zeros((3, 2)), cfg) == pytest.approx(3 / 0.5)

    def test_scalar_case(self):
        cfg = SystemConfig(antennas=2, users=1, pilot_len=1, sigma2=1.0)
        assert objective(np.ones((1, 1)), cfg) == pytest.approx(0.5)

    def test_two_user_orthogonal(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=2, sigma2=1.0,
                           gains=[1.0, 0.5])
        x = init_pilots("dft-reuse", cfg)
        assert objective(x, cfg) == pytest.approx(7.0 / 6.0, abs=1e-12)

    def test_matches_explicit_inverse_trace(self):
        for seed in range(6):
            cfg = random_cfg(seed)
            x = init_pilots("random", cfg, stream=RandomStream(seed, 9))
            a = gram_matrix(x, cfg)
            direct = float(np.trace(np.linalg.inv(a)).real)
            assert objective(x, cfg) == pytest.approx(direct, rel=1e-10)

    def test_singular_without_noise(self):
        cfg = SystemConfig(antennas=2, users=1, pilot_len=2, sigma2=0.0)
        with pytest.raises(SingularMatrixError):
            objective(np.array([[1.0], [0.0]]), cfg)


class TestLeaveOneOut:
    def test_single_user(self):
        cfg = SystemConfig(antennas=2, users=1, pilot_len=3, sigma2=0.4)
        q = leave_one_out(np.ones((3, 1)), 0, cfg)
        assert np.allclose(q, 0.4 * np.eye(3))

    def test_diagonal_construction(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=2, sigma2=0.1)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        q = leave_one_out(x, 0, cfg)
        assert np.allclose(q, np.diag([1.1, 0.1]))

    def test_rank_one_difference(self):
        for seed in range(5):
            cfg = random_cfg(seed + 50, min_users=3)
            x = init_pilots("random", cfg, stream=RandomStream(seed, 3))
            k = seed % cfg.users
            a = gram_matrix(x, cfg)
            q = leave_one_out(x, k, cfg)
            outer = cfg.gains[k] * np.outer(x[:, k], x[:, k].conj())
            assert np.max(np.abs(a - q - outer)) < 1e-12 * max(1.0, np.abs(a).max())


def _whitened_update(x, k, cfg):
    """User k's update by the paper's route, kept as an oracle.

    Whitens the generalized Rayleigh quotient by ``F^{-1/2}`` with
    ``F = g_k Q_k^{-1} + I / P_k``, takes the top eigenvector of
    ``g_k F^{-1/2} Q_k^{-2} F^{-1/2}``, maps it back through
    ``F^{-1/2}`` and rescales it to full power.
    """
    g_k, p_k = cfg.gains[k], cfg.powers[k]
    qw, qv = np.linalg.eigh(leave_one_out(x, k, cfg))
    q_inv = (qv / qw) @ qv.conj().T
    fw, fv = np.linalg.eigh(g_k * q_inv + np.eye(cfg.pilot_len) / p_k)
    f_inv_sqrt = (fv / np.sqrt(fw)) @ fv.conj().T
    quotient = g_k * f_inv_sqrt @ q_inv @ q_inv @ f_inv_sqrt
    _, mv = hermitian_eig(0.5 * (quotient + quotient.conj().T))
    col = f_inv_sqrt @ mv[:, -1]
    return col * (np.sqrt(p_k) / np.linalg.norm(col))


class TestRayleighUpdate:
    def test_avoids_occupied_direction(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=2, sigma2=0.1)
        x = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        col, degenerate, _ = rayleigh_update(x, 0, cfg)
        assert not degenerate
        assert abs(col[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(col[0]) < 1e-12

    def test_single_user_fully_degenerate(self):
        cfg = SystemConfig(antennas=2, users=1, pilot_len=3, sigma2=0.5,
                           powers=2.0)
        x0 = np.array([[0.6], [0.8j], [0.0]], dtype=complex)
        col, degenerate, obj = rayleigh_update(x0, 0, cfg)
        assert degenerate
        assert np.vdot(col, col).real == pytest.approx(2.0, rel=1e-12)
        direction = x0[:, 0] / np.linalg.norm(x0[:, 0])
        assert abs(np.vdot(direction, col / np.linalg.norm(col))) > 1 - 1e-12
        assert obj == pytest.approx(objective(col[:, np.newaxis], cfg), rel=1e-12)
        assert np.array_equal(x0[:, 0], [0.6, 0.8j, 0.0])

    def test_zero_incumbent_fallback(self):
        # Q_0 = g_1 x_1 x_1^H + sigma2 I: its least-loaded eigenspace is the
        # plane orthogonal to x_1, and a zero incumbent takes a direction in it
        cfg = SystemConfig(antennas=2, users=2, pilot_len=3, sigma2=0.5)
        other = np.array([0.6, 0.48j, 0.64])
        x = np.stack([np.zeros(3), other], axis=1)
        col, degenerate, obj = rayleigh_update(x, 0, cfg)
        assert degenerate
        assert np.vdot(col, col).real == pytest.approx(1.0, rel=1e-12)
        assert abs(np.vdot(other, col)) < 1e-12
        assert obj == pytest.approx(optimality_bound(cfg), rel=1e-12)

        cfg = SystemConfig(antennas=2, users=1, pilot_len=2, sigma2=0.5)
        col, degenerate, _ = rayleigh_update(np.zeros((2, 1)), 0, cfg)
        assert degenerate
        assert np.vdot(col, col).real == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_update_leaves_an_occupied_direction(self):
        # at pilot_len > users every Q_k has a repeated least eigenvalue; an
        # incumbent partly along another user's pilot keeps only its part in
        # the least-loaded eigenspace
        cfg = SystemConfig(antennas=2, users=2, pilot_len=3, sigma2=0.5)
        x = np.array([[0.8, 1.0], [0.6, 0.0], [0.0, 0.0]], dtype=complex)
        col, degenerate, obj = rayleigh_update(x, 0, cfg)
        assert degenerate
        assert np.allclose(col, [0.0, 1.0, 0.0], rtol=0.0, atol=1e-12)
        assert obj == pytest.approx(optimality_bound(cfg), rel=1e-12)

    def test_full_power_contract(self):
        for seed in range(10):
            cfg = random_cfg(seed + 100, min_users=3)
            x = init_pilots("random", cfg, stream=RandomStream(seed, 4))
            k = seed % cfg.users
            col, _, _ = rayleigh_update(x, k, cfg)
            assert np.vdot(col, col).real == pytest.approx(
                cfg.powers[k], rel=1e-12
            )

    def test_matches_min_eigenvector_oracle(self):
        matched = 0
        for seed in range(60):
            rng = np.random.default_rng(900 + seed)
            pilot_len = int(rng.integers(2, 7))
            users = int(rng.integers(pilot_len + 2, pilot_len + 8))
            cfg = SystemConfig(
                antennas=2, users=users, pilot_len=pilot_len,
                sigma2=float(rng.uniform(0.05, 1.5)),
                powers=rng.uniform(0.5, 2.0, users),
                gains=rng.uniform(0.05, 1.0, users),
            )
            x = init_pilots("random", cfg, stream=RandomStream(31, seed))
            k = int(rng.integers(0, users))
            col, degenerate, _ = rayleigh_update(x, k, cfg)
            assert not degenerate
            w, v = hermitian_eig(leave_one_out(x, k, cfg))
            overlap = abs(np.vdot(v[:, 0], col)) / np.linalg.norm(col)
            assert overlap > 1 - 1e-8
            assert np.max(np.abs(col - _whitened_update(x, k, cfg))) < 1e-10
            matched += 1
        assert matched == 60

    @pytest.mark.parametrize("kind", ["dft-reuse", "dft-k"])
    def test_matches_whitened_update_from_dft_starts(self, kind):
        # DFT directions have tied magnitudes, so this also pins the
        # phase convention of the returned column
        cfg = SystemConfig(
            antennas=128, users=32, pilot_len=16,
            sigma2=sigma2_from_snr(0.0, np.ones(32)), gains=reference_gains(),
        )
        x = init_pilots(kind, cfg)
        for k in range(cfg.users):
            col, degenerate, obj = rayleigh_update(x, k, cfg)
            assert not degenerate
            assert np.max(np.abs(col - _whitened_update(x, k, cfg))) < 1e-10
            x[:, k] = col
            assert obj == pytest.approx(objective(x, cfg), rel=1e-12)

    def test_never_increases_objective(self):
        for seed in range(10):
            cfg = random_cfg(seed + 300, min_users=3)
            x = init_pilots("random", cfg, stream=RandomStream(seed, 8))
            before = objective(x, cfg)
            for k in range(cfg.users):
                col, _, carried = rayleigh_update(x, k, cfg)
                x[:, k] = col
                after = objective(x, cfg)
                assert after <= before + 1e-12
                assert carried == pytest.approx(after, rel=1e-12)
                before = after


class TestOptimizePilots:
    def test_orthogonal_initialization_is_fixed_point(self):
        cfg = SystemConfig(antennas=2, users=4, pilot_len=4, sigma2=0.5,
                           gains=[0.9, 0.2, 0.5, 0.7])
        x0 = init_pilots("dft-reuse", cfg)
        start = objective(x0, cfg)
        x, trace = optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=20)
        assert trace.converged
        assert trace.sweeps_completed == 1
        assert objective(x, cfg) == pytest.approx(start, abs=1e-10 * start)
        # columns unchanged up to per-column phase
        overlaps = np.abs(np.sum(x0.conj() * x, axis=0)) / cfg.powers
        assert np.all(overlaps > 1 - 1e-10)

    def test_trace_monotone_and_recorded_per_update(self):
        cfg = random_cfg(7, min_users=4)
        x0 = init_pilots("dft-reuse", cfg)
        _, trace = optimize_pilots(cfg, x0, tol=1e-10, max_sweeps=30)
        objs = trace.objective_per_update
        assert len(objs) == trace.sweeps_completed * cfg.users
        full = np.concatenate([[trace.initial_objective], objs])
        assert np.all(np.diff(full) <= 1e-12)

    def test_single_symbol_matches_closed_form(self):
        cfg = SystemConfig(antennas=2, users=3, pilot_len=1, sigma2=0.7,
                           powers=[1.0, 2.0, 0.5], gains=[0.9, 0.3, 0.6])
        best = objective(init_pilots("dft-reuse", cfg), cfg)
        for kind in ("dft-reuse", "random"):
            x0 = init_pilots(kind, cfg, stream=RandomStream(5, 1))
            x, trace = optimize_pilots(cfg, x0, tol=1e-12, max_sweeps=50)
            assert trace.converged
            assert objective(x, cfg) == pytest.approx(best, abs=1e-10)

    def test_rejects_zero_noise(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=2, sigma2=0.0)
        with pytest.raises(ContractViolation):
            optimize_pilots(cfg, np.eye(2), tol=1e-8, max_sweeps=5)

    def test_rejects_over_budget_initialization(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=2, sigma2=0.5)
        x0 = 2.0 * np.eye(2, dtype=complex)
        with pytest.raises(ContractViolation):
            optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=5)

    def test_over_budget_check_scales_with_budget(self):
        # a 1e-12 column is 1e288 times a 1e-300 budget
        cfg = SystemConfig(antennas=2, users=2, pilot_len=2, sigma2=1e-300,
                           powers=1e-300)
        x0 = np.array([[1e-6, 0.0], [0.0, 1e-150]], dtype=complex)
        with pytest.raises(ContractViolation, match="power budget"):
            optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=5)

    def test_under_budget_initialization_allowed(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=2, sigma2=0.5)
        x, trace = optimize_pilots(cfg, 0.1 * np.eye(2), tol=1e-8, max_sweeps=20)
        assert trace.converged
        assert np.allclose(np.sum(np.abs(x) ** 2, axis=0), cfg.powers)

    def test_sweep_budget_exhaustion_reported(self):
        cfg = SystemConfig(antennas=2, users=6, pilot_len=3, sigma2=0.3,
                           gains=[0.9, 0.1, 0.5, 0.7, 0.2, 0.4])
        x0 = init_pilots("random", cfg, stream=RandomStream(2, 0))
        _, trace = optimize_pilots(cfg, x0, tol=1e-14, max_sweeps=1)
        assert not trace.converged
        assert trace.sweeps_completed == 1
        assert len(trace.objective_per_update) == cfg.users

    def test_non_finite_objective_is_a_numerical_error(self, monkeypatch):
        cfg = SystemConfig(antennas=2, users=3, pilot_len=2, sigma2=0.5)
        update = optimizer.rayleigh_update

        def overflowing(x, k, cfg):
            col, degenerate, _ = update(x, k, cfg)
            return col, degenerate, float("inf")

        monkeypatch.setattr(optimizer, "rayleigh_update", overflowing)
        with pytest.raises(NumericalError, match="^objective became non-finite at user 0, sweep 1$"):
            optimize_pilots(cfg, init_pilots("dft-k", cfg))


class TestClosedForms:
    """The optima at N = 1 and N = K are the reuse-DFT frame."""

    def test_single_symbol_values(self):
        cfg1 = SystemConfig(antennas=2, users=1, pilot_len=1, sigma2=1.0)
        assert objective(init_pilots("dft-reuse", cfg1), cfg1) == pytest.approx(0.5)
        cfg2 = SystemConfig(antennas=2, users=2, pilot_len=1, sigma2=1.0)
        assert objective(init_pilots("dft-reuse", cfg2), cfg2) == pytest.approx(
            1.0 / 3.0, abs=1e-14
        )

    def test_orthogonal_gram_is_power_diagonal(self):
        cfg = SystemConfig(antennas=2, users=3, pilot_len=3, sigma2=0.5,
                           powers=[1.0, 2.0, 0.5])
        x = init_pilots("dft-reuse", cfg)
        assert np.max(np.abs(x.conj().T @ x - np.diag(cfg.powers))) < 1e-12

    @pytest.mark.parametrize("users", [1, 2, 7, 32])
    def test_reuse_frame_meets_both_closed_forms(self, users):
        rng = np.random.default_rng(users)
        gains = rng.uniform(0.05, 1.0, users)
        powers = rng.uniform(0.5, 2.0, users)
        energy = gains * powers
        for pilot_len, expected in [
            (1, 1.0 / (energy.sum() + 0.3)),
            (users, np.sum(1.0 / (energy + 0.3))),
        ]:
            cfg = SystemConfig(antennas=2, users=users, pilot_len=pilot_len,
                               sigma2=0.3, powers=powers, gains=gains)
            got = objective(init_pilots("dft-reuse", cfg), cfg)
            assert got == pytest.approx(expected, rel=1e-12)


class TestConstructPilots:
    """The optimum at every pilot length, built once for all noise variances."""

    @pytest.mark.parametrize("users, pilot_len, gains", [
        (5, 1, [0.9, 0.3, 0.6, 0.2, 0.7]),
        (4, 4, [0.9, 0.3, 0.6, 0.2]),
        (3, 5, [0.9, 0.3, 0.6]),
        (8, 4, 1.0),
    ])
    def test_reuse_frame_where_it_is_optimal(self, users, pilot_len, gains):
        cfg = SystemConfig(antennas=2, users=users, pilot_len=pilot_len, sigma2=0.3,
                           gains=gains)
        assert np.array_equal(construct_pilots(cfg), init_pilots("dft-reuse", cfg))

    def test_paper_point_is_real_full_power_and_free_of_sigma2(self):
        cfg = SystemConfig(antennas=2, users=32, pilot_len=16, sigma2=1.0,
                           gains=reference_gains())
        x = construct_pilots(cfg)
        assert not np.any(x.imag)
        assert np.allclose(np.sum(np.abs(x) ** 2, axis=0), 1.0, rtol=1e-14, atol=0.0)
        assert np.array_equal(construct_pilots(replace(cfg, sigma2=1e-3)), x)
        # the reuse frame's cyclic optimum stops 3.8e-3 above this at 0 dB
        assert objective(x, cfg) == pytest.approx(8.2791630284, rel=1e-10)
        assert objective(x, cfg) == pytest.approx(optimality_bound(cfg), rel=1e-14)

    def test_bound_is_infinite_without_noise_and_spare_dimensions(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=3, sigma2=0.0)
        assert optimality_bound(cfg) == np.inf
        assert optimality_bound(replace(cfg, pilot_len=2)) == 2.0

    def test_trace_gap_is_relative_to_the_bound(self):
        # the gap is read from the returned pilots. In the second run gains
        # span six decades, and the last update's closed-form objective
        # ended 1.9e-14 relative below the bound while the pilots evaluate
        # a rounding above it
        cfg = random_cfg(5)
        rng = np.random.default_rng(230)
        spread = SystemConfig(antennas=4, users=10, pilot_len=10, sigma2=3.8e-3,
                              gains=10 ** rng.uniform(-6, 0, 10))
        runs = [(cfg, init_pilots("random", cfg, stream=RandomStream(5, 0)), 3),
                (spread, init_pilots("dft-k", spread), 100)]
        for cfg, x0, max_sweeps in runs:
            x, trace = optimize_pilots(cfg, x0, tol=1e-8, max_sweeps=max_sweeps)
            bound = optimality_bound(cfg)
            assert trace.gap == (objective(x, cfg) - bound) / bound
            assert trace.gap > -1e-15


class TestCombiner:
    def test_scalar_case(self):
        cfg = SystemConfig(antennas=2, users=1, pilot_len=1, sigma2=1.0)
        u = combiner(np.ones((1, 1)), 0, cfg)
        assert u[0] == pytest.approx(0.5)

    def test_collinear_for_orthogonal_pilots(self):
        cfg = SystemConfig(antennas=2, users=3, pilot_len=3, sigma2=0.4,
                           gains=[0.8, 0.5, 0.3])
        x = init_pilots("dft-reuse", cfg)
        for k in range(3):
            u = combiner(x, k, cfg)
            expect = cfg.gains[k] * x[:, k] / (cfg.gains[k] * cfg.powers[k] + 0.4)
            assert np.max(np.abs(u - expect)) < 1e-12

    def test_maximizes_signal_ratio(self):
        cfg = random_cfg(77, min_users=4)
        x = init_pilots("random", cfg, stream=RandomStream(6, 2))
        a = gram_matrix(x, cfg)
        k = 1

        def ratio(u):
            num = cfg.gains[k] ** 2 * abs(np.vdot(x[:, k], u)) ** 2
            return num / np.vdot(u, a @ u).real

        u_star = combiner(x, k, cfg)
        best = ratio(u_star)
        rng = np.random.default_rng(123)
        for _ in range(100):
            d = rng.standard_normal(cfg.pilot_len) + 1j * rng.standard_normal(
                cfg.pilot_len
            )
            probe = u_star + 1e-3 * np.linalg.norm(u_star) * d / np.linalg.norm(d)
            assert ratio(probe) <= best * (1 + 1e-10)


class TestReceiverScalar:
    def test_unity_at_optimal_combiner(self):
        for seed in range(10):
            cfg = random_cfg(seed + 500, min_users=3)
            x = init_pilots("random", cfg, stream=RandomStream(seed, 6))
            k = seed % cfg.users
            c = receiver_scalar(x, combiner(x, k, cfg), k, cfg)
            assert abs(c - 1.0) < 1e-12

    def test_identity_combiner_halves(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=2, sigma2=1.0)
        x = init_pilots("dft-reuse", cfg)
        c = receiver_scalar(x, x[:, 0], 0, cfg)
        assert c == pytest.approx(0.5, abs=1e-12)

    def test_scaling_invariance(self):
        cfg = random_cfg(31, min_users=3)
        x = init_pilots("random", cfg, stream=RandomStream(3, 1))
        u = x[:, 0] + 0.3 * x[:, min(1, cfg.users - 1)]
        base = receiver_scalar(x, u, 0, cfg) * u
        for alpha in (2.0, -0.5, 1.3j, 0.7 - 1.1j):
            scaled = receiver_scalar(x, alpha * u, 0, cfg) * (alpha * u)
            assert np.max(np.abs(scaled - base)) < 1e-12 * np.max(np.abs(base))

    def test_zero_combiner_rejected(self):
        cfg = SystemConfig(antennas=2, users=1, pilot_len=2, sigma2=1.0)
        with pytest.raises(ContractViolation):
            receiver_scalar(np.ones((2, 1)), np.zeros(2), 0, cfg)


class TestProposedEstimate:
    def test_near_noiseless_recovery(self):
        cfg = SystemConfig(antennas=16, users=4, pilot_len=4, sigma2=1e-9)
        x = init_pilots("dft-reuse", cfg)
        h = draw_cn(RandomStream(14, 0), 16, 4)
        y = received_pilot_signal(h, x, np.zeros((16, 4)))
        h_hat = proposed_estimate(y, x, cfg)
        assert np.linalg.norm(h_hat - h) < 1e-6

    def test_scalar_shrinkage(self):
        cfg = SystemConfig(antennas=8, users=1, pilot_len=1, sigma2=1.0)
        h = draw_cn(RandomStream(15, 0), 8, 1)
        y = received_pilot_signal(h, np.ones((1, 1)), np.zeros((8, 1)))
        h_hat = proposed_estimate(y, np.ones((1, 1)), cfg)
        assert np.max(np.abs(h_hat - 0.5 * h)) < 1e-12

    def test_equals_combiner_composition(self):
        cfg = random_cfg(41, min_users=3)
        x = init_pilots("random", cfg, stream=RandomStream(8, 0))
        h = draw_cn(RandomStream(16, 0), cfg.antennas, cfg.users)
        noise = draw_cn(RandomStream(16, 1), cfg.antennas, cfg.pilot_len)
        y = received_pilot_signal(h, x, noise)
        h_hat = proposed_estimate(y, x, cfg)
        for k in range(cfg.users):
            u = combiner(x, k, cfg)
            c = receiver_scalar(x, u, k, cfg)
            assert np.max(np.abs(h_hat[:, k] - c * (y @ u))) < 1e-10


class TestAnalyticWsmse:
    def test_scalar_reference(self):
        cfg = SystemConfig(antennas=2, users=1, pilot_len=1, sigma2=1.0)
        rep = proposed_wsmse(np.ones((1, 1)), cfg)
        assert rep.wsmse == pytest.approx(0.5, abs=1e-12)

    def test_two_users_single_symbol(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=1, sigma2=1.0)
        rep = proposed_wsmse(init_pilots("dft-reuse", cfg), cfg)
        assert rep.wsmse == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_high_noise_limit(self):
        cfg = SystemConfig(antennas=2, users=1, pilot_len=1, sigma2=1e6)
        rep = proposed_wsmse(np.ones((1, 1)), cfg)
        assert rep.wsmse == pytest.approx(1.0 - 1.0 / (1.0 + 1e6), abs=1e-12)

    def test_trace_identity(self):
        for seed in range(8):
            cfg = random_cfg(seed + 700, min_users=2)
            x = init_pilots("random", cfg, stream=RandomStream(seed, 7))
            rep = proposed_wsmse(x, cfg)
            identity = (
                1.0
                - cfg.pilot_len / cfg.users
                + cfg.sigma2 / cfg.users * objective(x, cfg)
            )
            assert rep.wsmse == pytest.approx(identity, abs=1e-12)

    @pytest.mark.parametrize("users", [16, 32])
    @pytest.mark.parametrize("snr_db", [40.0, 60.0, 80.0])
    def test_orthogonal_high_snr_accuracy(self, users, snr_db):
        # the difference 1 - g_k x_k^H A^{-1} x_k cancels here: at 80 dB it
        # is off by up to 3.3e-8 relative
        cfg = SystemConfig(antennas=4, users=users, pilot_len=users,
                           sigma2=sigma2_from_snr(snr_db, np.ones(users)),
                           gains=reference_gains()[:users])
        rep = proposed_wsmse(init_pilots("dft-reuse", cfg), cfg)
        exact = cfg.sigma2 / (cfg.gains * cfg.powers + cfg.sigma2)
        assert np.allclose(rep.per_user, exact, rtol=1e-13, atol=0.0)

    def test_bounds(self):
        for seed in range(8):
            cfg = random_cfg(seed + 800, min_users=2)
            x = init_pilots("random", cfg, stream=RandomStream(seed, 11))
            rep = proposed_wsmse(x, cfg)
            assert np.all(rep.per_user >= 0.0)
            assert np.all(rep.per_user <= 1.0)

    def test_per_user_phase_invariance(self):
        cfg = random_cfg(55, min_users=3)
        x = init_pilots("random", cfg, stream=RandomStream(9, 0))
        rep = proposed_wsmse(x, cfg)
        x2 = x.copy()
        x2[:, 1] *= np.exp(1j * 0.83)
        rep2 = proposed_wsmse(x2, cfg)
        assert rep2.wsmse == pytest.approx(rep.wsmse, abs=1e-12)
        assert objective(x2, cfg) == pytest.approx(objective(x, cfg), abs=1e-12)

    def test_unitary_invariance(self):
        cfg = random_cfg(66, min_users=3)
        x = init_pilots("random", cfg, stream=RandomStream(10, 0))
        z = draw_cn(RandomStream(10, 1), cfg.pilot_len, cfg.pilot_len)
        unitary, _ = np.linalg.qr(z)
        before = objective(x, cfg)
        after = objective(unitary @ x, cfg)
        assert after == pytest.approx(before, rel=1e-10)

    def test_monotone_in_gain_power_product(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            cfg = random_cfg(seed + 900, min_users=3)
            x = init_pilots("random", cfg, stream=RandomStream(seed, 13))
            base = proposed_wsmse(x, cfg).wsmse
            k = int(rng.integers(0, cfg.users))
            gains = cfg.gains.copy()
            gains[k] *= 1.01
            bumped = SystemConfig(
                antennas=cfg.antennas, users=cfg.users, pilot_len=cfg.pilot_len,
                sigma2=cfg.sigma2, powers=cfg.powers, gains=gains,
            )
            assert proposed_wsmse(x, bumped).wsmse <= base + 1e-12


class TestInitPilots:
    def test_dft_reuse_column_energy(self):
        cfg = SystemConfig(antennas=2, users=5, pilot_len=3, sigma2=1.0,
                           powers=[1.0, 2.0, 0.5, 1.5, 1.0])
        x = init_pilots("dft-reuse", cfg)
        assert np.allclose(np.sum(np.abs(x) ** 2, axis=0), cfg.powers)
        assert np.allclose(x[:, 3] / np.sqrt(1.5), x[:, 0] / np.sqrt(1.0))

    def test_dft_k_truncation(self):
        cfg = SystemConfig(antennas=2, users=6, pilot_len=3, sigma2=1.0)
        x = init_pilots("dft-k", cfg)
        assert x.shape == (3, 6)
        assert np.allclose(np.sum(np.abs(x) ** 2, axis=0), 1.0)
        with pytest.raises(ConfigurationError):
            init_pilots("dft-k-truncated", cfg)

    def test_dft_k_needs_enough_users(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=3, sigma2=1.0)
        with pytest.raises(ConfigurationError):
            init_pilots("dft-k", cfg)

    def test_random_exact_energy(self):
        cfg = SystemConfig(antennas=2, users=4, pilot_len=3, sigma2=1.0,
                           powers=[1.0, 2.0, 0.5, 1.0])
        x = init_pilots("random", cfg, stream=RandomStream(12, 0))
        assert np.allclose(np.sum(np.abs(x) ** 2, axis=0), cfg.powers, rtol=1e-12)

    def test_random_requires_stream(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=2, sigma2=1.0)
        with pytest.raises(ConfigurationError):
            init_pilots("random", cfg)

    def test_unknown_kind(self):
        cfg = SystemConfig(antennas=2, users=2, pilot_len=2, sigma2=1.0)
        with pytest.raises(ConfigurationError):
            init_pilots("hadamard", cfg)


class TestPilotFileFormat:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "pilots.txt"
        x = draw_cn(RandomStream(18, 0), 3, 5) * 1.7
        save_pilots(path, x)
        entries = np.loadtxt(path, skiprows=1)
        assert np.array_equal((entries[:, 0] + 1j * entries[:, 1]).reshape(5, 3).T, x)
        header = path.read_text().splitlines()[0]
        assert header == "3 5"

    def test_column_major_order(self, tmp_path):
        path = tmp_path / "pilots.txt"
        x = np.array([[1 + 2j, 5 + 6j], [3 + 4j, 7 + 8j]])
        save_pilots(path, x)
        lines = path.read_text().splitlines()
        assert lines[1].split() == ["1", "2"]
        assert lines[2].split() == ["3", "4"]
        assert lines[3].split() == ["5", "6"]
