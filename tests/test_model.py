import math
from fractions import Fraction

import numpy as np
import pytest

from pilotopt import (
    ConfigurationError,
    ContractViolation,
    RandomStream,
    SystemConfig,
    draw_cn,
    load_gains,
    reference_gains,
    sigma2_from_snr,
)
from pilotopt.model import _error_law, generate_channel, received_pilot_signal


class TestReferenceGains:
    def test_selected_entries(self):
        g = reference_gains()
        assert g[0] == pytest.approx(0.0450)
        assert g[1] == pytest.approx(0.7040)
        assert g[7] == pytest.approx(0.6327)
        # first entry of the second column of the 8x4 table
        assert g[8] == pytest.approx(0.7400)

    def test_shape_and_range(self):
        g = reference_gains()
        assert len(g) == 32
        assert np.all(g > 0) and np.all(g < 1)


class TestGainsFile:
    def test_round_trip(self, tmp_path):
        # 17 significant digits name every double exactly
        path = tmp_path / "gains.txt"
        g = np.array([0.25, 0.1, 1 / 3, 2.0**-1074 * 3, 0.7040000000000001])
        path.write_text("".join(f"{v:.17g}\n" for v in g))
        assert np.array_equal(load_gains(path), g)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "gains.txt"
        path.write_text("# header\n0.5\n\n0.25  # trailing note\n")
        assert np.array_equal(load_gains(path), [0.5, 0.25])

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "gains.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ConfigurationError):
            load_gains(path)


class TestSystemConfig:
    def test_broadcasts_scalars(self):
        cfg = SystemConfig(antennas=4, users=3, pilot_len=2, sigma2=1.0,
                           powers=2.0, gains=0.5)
        assert np.array_equal(cfg.powers, [2.0, 2.0, 2.0])
        assert np.array_equal(cfg.gains, [0.5, 0.5, 0.5])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(antennas=0, users=1, pilot_len=1, sigma2=1.0),
            dict(antennas=1, users=1, pilot_len=0, sigma2=1.0),
            dict(antennas=1, users=1, pilot_len=1, sigma2=-0.5),
            dict(antennas=1, users=1, pilot_len=1, sigma2=1.0, powers=0.0),
            dict(antennas=1, users=1, pilot_len=1, sigma2=1.0, gains=-0.1),
            dict(antennas=1, users=2, pilot_len=1, sigma2=1.0, gains=[0.5]),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("field", ["antennas", "users", "pilot_len"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2"])
    def test_dimensions_must_be_integers(self, field, value):
        kwargs = dict(antennas=4, users=2, pilot_len=2, sigma2=1.0)
        kwargs[field] = value
        with pytest.raises(ConfigurationError, match=field):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("field", ["antennas", "users", "pilot_len"])
    def test_dimensions_beyond_the_address_space_rejected(self, field):
        kwargs = dict(antennas=4, users=2, pilot_len=2, sigma2=1.0) | {field: 10**300}
        with pytest.raises(ConfigurationError, match="^dimensions are too large"):
            SystemConfig(**kwargs)

    def test_numpy_integer_dimensions_become_ints(self):
        cfg = SystemConfig(antennas=np.int64(4), users=np.int32(2), pilot_len=2,
                           sigma2=1.0)
        assert (cfg.antennas, cfg.users) == (4, 2)
        assert type(cfg.antennas) is int and type(cfg.users) is int

    def test_pilot_len_may_exceed_users(self):
        SystemConfig(antennas=2, users=2, pilot_len=5, sigma2=0.1)

    @pytest.mark.parametrize("kwargs, message", [
        # 2 (sum_k g_k P_k + sigma2) bounds the symmetrized Gram matrix entries
        (dict(users=1, powers=1e308, sigma2=1e308), "powers and gains are too large"),
        (dict(powers=1.0, gains=1e308), "powers and gains are too large"),
        (dict(powers=[8e307, 8e307], sigma2=1.0), "powers and gains are too large"),
        # tr(A^-1) <= pilot_len / sigma2
        (dict(powers=1e-320, sigma2=1e-320), "sigma2 1e-320 is too small"),
        (dict(pilot_len=4, sigma2=2e-308), "sigma2 2e-308 is too small"),
        # the WSMSE weight 1 / (users * antennas * g_k)
        (dict(gains=[5e-324, 1.0]), "gains are too small"),
        (dict(antennas=1024, gains=[1e-312, 1.0]), "gains are too small"),
        # the reference power of the SNR
        (dict(users=3, powers=1e308), "powers are too large: their mean overflows"),
    ])
    def test_float_range_bounds_rejected_by_name(self, kwargs, message):
        full = dict(antennas=4, users=2, pilot_len=1, sigma2=1.0) | kwargs
        with pytest.raises(ConfigurationError, match=f"^{message}"):
            SystemConfig(**full)

    @pytest.mark.parametrize("kwargs", [
        dict(users=1, powers=4e307, sigma2=4e307),
        dict(pilot_len=1, sigma2=1e-308),
        dict(antennas=1, gains=[1e-308, 1.0]),
    ])
    def test_float_range_bounds_admit_their_edge(self, kwargs):
        SystemConfig(**(dict(antennas=4, users=2, pilot_len=1, sigma2=1.0) | kwargs))


class TestGenerateChannel:
    def test_per_user_power(self):
        gains = np.array([0.7, 0.2, 0.05])
        cfg = SystemConfig(antennas=100000, users=3, pilot_len=1, sigma2=1.0,
                           gains=gains)
        h = generate_channel(cfg, RandomStream(5, 0))
        power = np.mean(np.abs(h) ** 2, axis=0)
        assert np.all(np.abs(power - gains) / gains < 0.02)

    def test_power_ratio(self):
        cfg = SystemConfig(antennas=200000, users=2, pilot_len=1, sigma2=1.0,
                           gains=[1.0, 0.25])
        h = generate_channel(cfg, RandomStream(6, 0))
        power = np.mean(np.abs(h) ** 2, axis=0)
        assert power[0] / power[1] == pytest.approx(4.0, rel=0.03)

    def test_reproducible(self):
        cfg = SystemConfig(antennas=16, users=4, pilot_len=2, sigma2=1.0)
        a = generate_channel(cfg, RandomStream(9, 2))
        b = generate_channel(cfg, RandomStream(9, 2))
        assert np.array_equal(a, b)

    def test_independent_of_noise_stream(self):
        # channel and noise substreams must be uncorrelated
        n = 100000
        cfg = SystemConfig(antennas=n, users=1, pilot_len=1, sigma2=1.0)
        h = generate_channel(cfg, RandomStream(13, 0)).ravel()
        w = draw_cn(RandomStream(13, 2**32), n, 1).ravel()
        assert np.abs(np.vdot(h, w)) / n < 0.01


class TestReceivedPilotSignal:
    def test_identity_pilots_noiseless(self):
        h = draw_cn(RandomStream(1, 0), 6, 3)
        x = np.eye(3, dtype=complex)
        y = received_pilot_signal(h, x, np.zeros((6, 3)))
        assert np.allclose(y, h)

    def test_zero_channel(self):
        noise = draw_cn(RandomStream(2, 0), 4, 2)
        y = received_pilot_signal(np.zeros((4, 3)), np.ones((2, 3)), noise)
        assert np.array_equal(y, noise)

    def test_linearity(self):
        h1 = draw_cn(RandomStream(3, 0), 5, 2)
        h2 = draw_cn(RandomStream(3, 1), 5, 2)
        x = draw_cn(RandomStream(3, 2), 3, 2)
        zero = np.zeros((5, 3))
        lhs = received_pilot_signal(h1 + h2, x, zero)
        rhs = received_pilot_signal(h1, x, zero) + received_pilot_signal(h2, x, zero)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            received_pilot_signal(np.zeros((4, 3)), np.ones((2, 2)), np.zeros((4, 2)))
        with pytest.raises(ContractViolation):
            received_pilot_signal(np.zeros((4, 3)), np.ones((2, 3)), np.zeros((3, 2)))


class TestSigma2FromSnr:
    def test_zero_db(self):
        assert sigma2_from_snr(0.0, [1.0, 1.0]) == pytest.approx(1.0)

    def test_ten_db(self):
        assert sigma2_from_snr(10.0, [1.0]) == pytest.approx(0.1)

    def test_mixed_powers(self):
        expected = 2.0 / 10.0**0.3
        assert sigma2_from_snr(3.0, [1.0, 3.0]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.00237, abs=5e-5)

    def test_invalid_powers(self):
        with pytest.raises(ConfigurationError):
            sigma2_from_snr(0.0, [])
        with pytest.raises(ConfigurationError):
            sigma2_from_snr(0.0, [1.0, 0.0])
        with pytest.raises(ConfigurationError, match="powers"):
            sigma2_from_snr(0.0, [1.0, float("nan")])

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_rejected_by_name(self, snr_db):
        # checked before any arithmetic, so no RuntimeWarning escapes
        with pytest.raises(ConfigurationError, match="snr_db must be finite"):
            sigma2_from_snr(snr_db, [1.0, 1.0])

    @pytest.mark.parametrize("snr_db, power", [
        (4000.0, 1.0),      # 10**400 overflows
        (-4000.0, 1.0),     # 10**-400 is 0
        (-100.0, 1e300),    # the quotient overflows
        (300.0, 1e-300),    # the quotient underflows to 0
        (np.float64(4000.0), 1.0),   # numpy scalars take the same checks
        (np.float64(-4000.0), 1.0),
    ])
    def test_noise_variance_beyond_float_range_rejected_by_name(self, snr_db, power):
        with pytest.raises(ConfigurationError, match="snr_db"):
            sigma2_from_snr(snr_db, [power])

    def test_numpy_scalar_snr_gives_a_float(self):
        sigma2 = sigma2_from_snr(np.float64(10.0), [2.0])
        assert type(sigma2) is float and sigma2 == pytest.approx(0.2, rel=1e-15)

    def test_powers_whose_mean_overflows_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="powers"):
            sigma2_from_snr(0.0, np.full(8, 1e308))
        assert sigma2_from_snr(0.0, [1e308]) == 1e308


def _exact(value):
    """A float or long double as the exact rational it stores."""
    return Fraction(*np.longdouble(value).as_integer_ratio())


def _gamma(n, unit):
    """Higham's ``gamma_n``: ``n`` roundings of unit ``unit`` lie within it, relatively."""
    return n * unit / (1 - n * unit)


class TestErrorLaw:
    def test_matches_exact_arithmetic(self):
        # random long-double maps G, scaled by D^(1/2) at gains spread over six
        # decades, against H = G^H G, H_kk / g_k and M ||W^(1/2) H W^(1/2)||_F^2
        # in exact rationals; u and v are float64's and long double's unit
        # roundoff, and a long-double entry of H sums R products in at most
        # R + 2 roundings, so it is within gamma_(R+2)(v) of its exact value
        users, rows, points, antennas = 4, 7, 32, 16
        rng = np.random.default_rng(11)
        gains = 10.0 ** rng.uniform(-6.0, 0.0, users)
        cfg = SystemConfig(antennas, users, rows - users, 0.1, gains=gains)
        draws = rng.standard_normal((2, 2, points, rows, users)).astype(np.longdouble)
        # below float64's last digit, so the maps use long double's width
        parts = draws[0] + draws[1] * np.longdouble(2.0**-40)
        root = np.sqrt(np.concatenate([gains, np.ones(rows - users)])).astype(np.longdouble)
        maps = (parts[0] + 1j * parts[1]) * root[:, None]
        per_user, sd = _error_law(maps, cfg)

        u, v = Fraction(1, 2**53), _exact(np.finfo(np.longdouble).eps) / 2
        in_h = _gamma(rows + 2, v)
        # per_user: H_kk, a sum of non-negative terms, rounded once and divided once
        user_bound = (1 + u) ** 2 * (1 + in_h) - 1
        # sd: each of the 2 K^2 parts of W^(1/2) H W^(1/2) takes nine roundings
        # (H's, two per-user roots of three, two products) and one in the scaling
        # by the largest part, all doubled by the square; the square adds one and
        # the sum at most 2 K^2 - 1, so 2 K^2 + 20 reach the sum of squares. Four
        # more act on sd (its root, the product with the largest part, sqrt(M)
        # and the product with it). |H~_jk - H_jk| <= sqrt(2) gamma_(R+2)(v)
        # sqrt(H_jj H_kk) moves ||W^(1/2) H W^(1/2)||_F by at most sqrt(2 K)
        # gamma_(R+2)(v) of it, since tr(X) <= sqrt(K) ||X||_F
        in_norm = (math.isqrt(2 * users) + 1) * in_h
        in_sum, out = _gamma(2 * users**2 + 20, u), _gamma(4, u)
        sd_high = (1 + in_norm) ** 2 * (1 + in_sum) * (1 + out) ** 2
        sd_low = (1 - in_norm) ** 2 * (1 - in_sum) * (1 - out) ** 2
        g = [_exact(gain) for gain in gains]
        for point, got_per_user, got_sd in zip(maps, per_user, sd):
            z = [[(_exact(e.real), _exact(e.imag)) for e in row] for row in point]
            h = [[(sum(a[j][0] * a[k][0] + a[j][1] * a[k][1] for a in z),
                   sum(a[j][0] * a[k][1] - a[j][1] * a[k][0] for a in z))
                  for k in range(users)] for j in range(users)]
            for k in range(users):
                want = h[k][k][0] / g[k]
                assert abs(_exact(got_per_user[k]) - want) <= user_bound * want
            want = antennas * sum(
                (h[j][k][0] ** 2 + h[j][k][1] ** 2) / (users * antennas) ** 2 / (g[j] * g[k])
                for j in range(users) for k in range(users))
            assert sd_low * want <= _exact(got_sd) ** 2 <= sd_high * want
