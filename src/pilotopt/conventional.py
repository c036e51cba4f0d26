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

from .closedform import init_pilots
from .errors import ConfigurationError, ContractViolation
from .model import _check_pilots, check_received


def design_reuse_pilots(cfg):
    """Baseline pilot matrix: cyclically reused unitary DFT columns.

    Column k is ``sqrt(P)`` times column ``k mod pilot_len`` of the
    unitary ``pilot_len``-point DFT matrix (the ``dft-reuse`` start of
    :func:`~pilotopt.closedform.init_pilots`), so every column has squared
    norm exactly P and columns are orthogonal whenever they are not
    identical. Requires a uniform power budget: the baseline's scalar
    assumes one common pilot energy P for every user.

    Returns ``x`` of shape ``(pilot_len, users)``.
    """
    powers = cfg.powers
    if np.any(powers != powers[0]):
        raise ConfigurationError(
            "reuse pilot design requires equal per-user powers; got "
            f"min={powers.min()} max={powers.max()}"
        )
    return init_pilots("dft-reuse", cfg)


def _uniform_power(x):
    norms = np.sum(np.abs(x) ** 2, axis=0)
    p = norms[0]
    if p <= 0 or np.max(np.abs(norms - p)) > 1e-9 * p:
        raise ContractViolation(
            "conventional estimation expects uniform pilot column energy"
        )
    return p


def conventional_estimator(x, cfg):
    """Estimator matrix of the baseline receiver for pilots ``x``.

    User k's statistic is ``y @ x[:, k]`` and its estimate scales that by
    the MMSE scalar ``c_k = g_k / (P g_k + sigma2)``, where P is the
    common pilot energy; the ``(pilot_len, users)`` result is
    ``b = x diag(c)``, so the estimate is ``y @ b``. For P = 1 this is
    the classical ``g_k / (g_k + sigma2)`` shrinkage. The scalar ignores
    contamination; :func:`~pilotopt.optimizer.analytic_wsmse` of ``b``
    counts it.
    """
    return _conventional_estimators(_check_pilots(x, cfg), cfg, cfg.sigma2)


def _conventional_estimators(x, cfg, sigma2):
    """:func:`conventional_estimator` at a column of noise variances, one per point."""
    return x * (cfg.gains / (_uniform_power(x) * cfg.gains + sigma2))[..., None, :]


def conventional_estimate(y, x, cfg):
    """Per-user MMSE channel estimate from the decoupled statistic.

    Returns the ``(antennas, users)`` estimate ``y @ b`` of
    :func:`conventional_estimator` for one training block ``y``.
    """
    return check_received(y, cfg) @ conventional_estimator(x, cfg)
