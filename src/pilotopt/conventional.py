"""Baseline training: orthogonal pilots with reuse and per-user MMSE scaling.

With ``pilot_len >= users`` the pilots are mutually orthogonal scaled
DFT columns and each user's training statistic decouples cleanly. With
``pilot_len < users`` the DFT columns are reused cyclically, so users
sharing a column contaminate each other's statistic: the decoupled
observation for user k becomes the sum of k's channel and every clashing
user's channel. The estimator here keeps the contamination-ignorant
MMSE scalar; an optional contamination-aware variant is provided for
sensitivity studies.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .model import WsmseReport, check_received, linear_estimate
from .numerics import unitary_dft


@dataclass(frozen=True)
class ReuseMap:
    """For each user, the set of other users assigned the same pilot column."""

    clash_sets: tuple

    def clashing(self, k):
        return self.clash_sets[k]


def reuse_map(pilot_len, users):
    """Clash structure of cyclic column reuse: i and j clash iff i == j mod pilot_len."""
    sets = tuple(
        frozenset(j for j in range(users) if j != k and j % pilot_len == k % pilot_len)
        for k in range(users)
    )
    return ReuseMap(sets)


def design_reuse_pilots(pilot_len, users, powers):
    """Baseline pilot matrix: cyclically reused unitary DFT columns.

    Column k is ``sqrt(P)`` times column ``k mod pilot_len`` of the
    unitary ``pilot_len``-point DFT matrix, so every column has squared
    norm exactly P and columns are orthogonal whenever they are not
    identical. Requires a uniform power budget: with unequal budgets the
    clashing users' pilots would no longer be collinear and the clash
    bookkeeping below would not describe the contamination.

    Returns ``(x, ReuseMap)`` with ``x`` of shape ``(pilot_len, users)``.
    """
    if pilot_len < 1 or users < 1:
        raise ConfigurationError("pilot_len and users must be >= 1")
    powers = np.asarray(powers, dtype=np.float64)
    if powers.ndim == 0:
        powers = np.full(users, float(powers))
    if powers.shape != (users,):
        raise ConfigurationError(f"powers must have length {users}")
    if np.any(powers != powers[0]):
        raise ConfigurationError(
            "reuse pilot design requires equal per-user powers; got "
            f"min={powers.min()} max={powers.max()}"
        )
    cols = unitary_dft(pilot_len)[:, np.arange(users) % pilot_len]
    return np.sqrt(powers[0]) * cols, reuse_map(pilot_len, users)


def _uniform_power(x):
    norms = np.sum(np.abs(x) ** 2, axis=0)
    p = norms[0]
    if p <= 0 or np.max(np.abs(norms - p)) > 1e-9 * max(p, 1.0):
        raise ContractViolation(
            "conventional estimation expects uniform pilot column energy"
        )
    return p


def _mmse_scalars(cfg, power, reuse, contamination_aware):
    g = cfg.gains
    if contamination_aware:
        clash_power = np.array(
            [sum(g[i] for i in reuse.clashing(k)) for k in range(cfg.users)]
        )
        return g / (power * (g + clash_power) + cfg.sigma2)
    return g / (power * g + cfg.sigma2)


def conventional_estimator(x, cfg, contamination_aware=False):
    """Estimator of the baseline receiver for pilots ``x``.

    Returns ``(x, c)`` for :func:`~pilotopt.model.linear_estimate`:
    user k's statistic is ``y @ x[:, k]`` and its estimate scales that by
    ``c_k = g_k / (P g_k + sigma2)``, where P is the common pilot
    energy. For P = 1 this is the classical ``g_k / (g_k + sigma2)``
    shrinkage. The scalar ignores contamination by default; pass
    ``contamination_aware=True`` to include the clashing users' received
    power in the denominator (a sensitivity-study variant, not the
    baseline).
    """
    x = np.asarray(x)
    if x.shape != (cfg.pilot_len, cfg.users):
        raise ContractViolation(f"x shape {x.shape} does not match (pilot_len, users)")
    power = _uniform_power(x)
    rmap = reuse_map(cfg.pilot_len, cfg.users) if contamination_aware else None
    return x, _mmse_scalars(cfg, power, rmap, contamination_aware)


def conventional_estimate(y, x, cfg, contamination_aware=False):
    """Per-user MMSE channel estimate from the decoupled statistic.

    Returns the ``(antennas, users)`` estimate of
    :func:`conventional_estimator` applied to one training block ``y``.
    """
    return linear_estimate(check_received(y, cfg), *conventional_estimator(x, cfg, contamination_aware))


def conventional_analytic_wsmse(cfg, reuse, contamination_aware=False):
    """Exact normalized WSMSE of the baseline estimator, contamination included.

    For user k with scalar c and common pilot energy P, the per
    coefficient MSE is

        m_k = |c P - 1|^2 g_k + |c|^2 (P^2 * sum of clashing gains + sigma2 P)

    and the normalized WSMSE is the mean over users of ``m_k / g_k``
    (every one of the M coefficients contributes identically, so the
    result does not depend on the antenna count).
    """
    powers = cfg.powers
    if np.any(powers != powers[0]):
        raise ConfigurationError("analytic baseline WSMSE requires equal powers")
    p = powers[0]
    g = cfg.gains
    c = _mmse_scalars(cfg, p, reuse, contamination_aware)
    clash_power = np.array(
        [sum(g[i] for i in reuse.clashing(k)) for k in range(cfg.users)]
    )
    m = np.abs(c * p - 1.0) ** 2 * g + np.abs(c) ** 2 * (
        p**2 * clash_power + cfg.sigma2 * p
    )
    per_user = m / g
    return WsmseReport(wsmse=float(np.mean(per_user)), per_user=per_user)
