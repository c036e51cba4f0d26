"""Baseline training: orthogonal pilots with reuse and per-user MMSE scaling.

With ``pilot_len >= users`` the pilots are mutually orthogonal scaled
DFT columns and each user's training statistic decouples cleanly. With
``pilot_len < users`` the DFT columns are reused cyclically, so users j
and k with ``j = k mod pilot_len`` share a column and contaminate each
other's statistic: the decoupled observation for user k becomes the sum
of k's channel and every clashing user's channel. The estimator keeps
the contamination-ignorant MMSE scalar.
"""

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .model import WsmseReport, check_received, linear_estimate
from .optimizer import init_pilots


def _common_power(cfg):
    powers = cfg.powers
    if np.any(powers != powers[0]):
        raise ConfigurationError(
            "reuse pilot design requires equal per-user powers; got "
            f"min={powers.min()} max={powers.max()}"
        )
    return powers[0]


def design_reuse_pilots(cfg):
    """Baseline pilot matrix: cyclically reused unitary DFT columns.

    Column k is ``sqrt(P)`` times column ``k mod pilot_len`` of the
    unitary ``pilot_len``-point DFT matrix (the ``dft-reuse`` start of
    :func:`~pilotopt.optimizer.init_pilots`), so every column has squared
    norm exactly P and columns are orthogonal whenever they are not
    identical. Requires a uniform power budget: with unequal budgets the
    clashing users' pilots would no longer be collinear and
    :func:`conventional_analytic_wsmse` would not describe the
    contamination.

    Returns ``x`` of shape ``(pilot_len, users)``.
    """
    _common_power(cfg)
    return init_pilots("dft-reuse", cfg)


def _uniform_power(x):
    norms = np.sum(np.abs(x) ** 2, axis=0)
    p = norms[0]
    if p <= 0 or np.max(np.abs(norms - p)) > 1e-9 * max(p, 1.0):
        raise ContractViolation(
            "conventional estimation expects uniform pilot column energy"
        )
    return p


def _mmse_scalars(cfg, power):
    return cfg.gains / (power * cfg.gains + cfg.sigma2)


def conventional_estimator(x, cfg):
    """Estimator of the baseline receiver for pilots ``x``.

    Returns ``(x, c)`` for :func:`~pilotopt.model.linear_estimate`:
    user k's statistic is ``y @ x[:, k]`` and its estimate scales that by
    ``c_k = g_k / (P g_k + sigma2)``, where P is the common pilot
    energy. For P = 1 this is the classical ``g_k / (g_k + sigma2)``
    shrinkage. The scalar ignores contamination.
    """
    x = np.asarray(x)
    if x.shape != (cfg.pilot_len, cfg.users):
        raise ContractViolation(f"x shape {x.shape} does not match (pilot_len, users)")
    return x, _mmse_scalars(cfg, _uniform_power(x))


def conventional_estimate(y, x, cfg):
    """Per-user MMSE channel estimate from the decoupled statistic.

    Returns the ``(antennas, users)`` estimate of
    :func:`conventional_estimator` applied to one training block ``y``.
    """
    return linear_estimate(check_received(y, cfg), *conventional_estimator(x, cfg))


def conventional_analytic_wsmse(cfg):
    """Exact normalized WSMSE of the baseline on its reuse pilots.

    For user k with scalar c and common pilot energy P, the per
    coefficient MSE is

        m_k = |c P - 1|^2 g_k + |c|^2 (P^2 * sum of clashing gains + sigma2 P)

    where user k clashes with every other user j of ``range(k % N, K, N)``.
    The normalized WSMSE is the mean over users of ``m_k / g_k`` (every
    one of the M coefficients contributes identically, so the result does
    not depend on the antenna count).
    """
    p = _common_power(cfg)
    g = cfg.gains
    n, users = cfg.pilot_len, cfg.users
    c = _mmse_scalars(cfg, p)
    clash_power = np.array(
        [sum(g[j] for j in range(k % n, users, n) if j != k) for k in range(users)]
    )
    m = np.abs(c * p - 1.0) ** 2 * g + np.abs(c) ** 2 * (
        p**2 * clash_power + cfg.sigma2 * p
    )
    per_user = m / g
    return WsmseReport(wsmse=float(np.mean(per_user)), per_user=per_user)
