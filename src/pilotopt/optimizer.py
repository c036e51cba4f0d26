"""The paper's cyclic pilot optimizer and its solve-based estimators; loaded on first use.

The design target is the weighted sum MSE of per-user MMSE channel
estimates, with weights 1/g_k so every user is estimated to comparable
relative accuracy. After optimizing the per-user combiner and receiver
scalar in closed form, minimizing that WSMSE over the pilots reduces to

    minimize  tr(A^{-1}),   A = sum_k g_k x_k x_k^H + sigma2 * I

subject to per-user energy budgets ``||x_k||^2 <= P_k``. The iterative
solver sweeps the users in order; with everyone else's pilot held fixed,
user k's subproblem is a generalized Rayleigh quotient built from the
leave-one-out matrix Q_k. Every matrix in that quotient is a function of
Q_k, so its optimum is the least-loaded direction: the eigenvector of
Q_k with the smallest eigenvalue at full power. One Hermitian
eigendecomposition of Q_k gives both the update and the new objective,
since tr(A^{-1}) depends on the eigenvalues only. Each single-user
update can only decrease tr(A^{-1}), so the sweep objective is monotone
and the iteration always converges.

The optimum itself has a closed form at every pilot length, built by
:mod:`pilotopt.closedform`; the default design of every sweep is that
construction, so a constructed sweep never imports this module.
"""

from dataclasses import dataclass

import numpy as np

from .closedform import optimality_bound
from .errors import ContractViolation, NumericalError
from .model import WsmseReport, _check_pilots, _error_law, _error_maps, check_received
from .numerics import hermitian_eig, require_nonsingular, solve_hermitian

# Relative gap between the two smallest eigenvalues of Q_k below which
# the least-loaded direction is treated as non-unique.
DEGENERACY_GAP = 1e-10


def _covariance(x, gains, sigma2):
    """``x diag(gains) x^H + sigma2 * I``, made exactly Hermitian; per row of a column sigma2."""
    a = (x * gains) @ x.conj().swapaxes(-1, -2)
    a = a + np.asarray(sigma2)[..., None] * np.eye(a.shape[-1])
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def gram_matrix(x, cfg):
    """Pilot-domain covariance ``A = sum_k g_k x_k x_k^H + sigma2 * I``."""
    return _covariance(_check_pilots(x, cfg), cfg.gains, cfg.sigma2)


def objective(x, cfg):
    """Design objective ``tr(A^{-1})``, evaluated as the sum of 1/eigenvalue.

    ``A``'s eigenvalues are ``s_i^2 + sigma2`` over the singular values
    ``s`` of ``x diag(sqrt(g))``, padded with zeros to ``pilot_len``:
    that keeps their relative accuracy where ``sigma2`` is far below the
    pilot energy, which an eigensolve of the formed ``A`` loses.
    """
    s = np.linalg.svd(_check_pilots(x, cfg) * np.sqrt(cfg.gains), compute_uv=False)
    w = np.concatenate([np.zeros(cfg.pilot_len - s.size), s[::-1] ** 2]) + cfg.sigma2
    require_nonsingular(w, "objective Gram matrix")
    return float(np.sum(1.0 / w))


def leave_one_out(x, k, cfg):
    """Covariance with user k removed: ``Q_k = A - g_k x_k x_k^H``."""
    others = np.delete(np.arange(cfg.users), k)
    return _covariance(_check_pilots(x, cfg)[:, others], cfg.gains[others], cfg.sigma2)


def rayleigh_update(x, k, cfg):
    """Optimal pilot for user k with all other pilots held fixed.

    The paper whitens the single-user quotient by ``F_k^{-1/2}`` with
    ``F_k = g_k Q_k^{-1} + I / P_k`` and takes the top eigenvector of
    ``g_k F_k^{-1/2} Q_k^{-2} F_k^{-1/2}``. Every factor is a function of
    ``Q_k``, so that matrix has the eigenvectors of ``Q_k``, with
    eigenvalues ``g_k P_k / (q_i (q_i + g_k P_k))`` decreasing in ``q_i``,
    and ``F_k^{-1/2}`` only rescales them: the update is the eigenvector
    of ``Q_k`` with the smallest eigenvalue ``q_0`` at full power. ``A``
    then has the eigenvalues of ``Q_k`` with ``q_0 + g_k P_k`` for ``q_0``.

    Returns ``(column, degenerate, objective)``, ``objective`` being
    ``tr(A^{-1})`` after the update. When ``q_0`` is not isolated
    (relative gap to ``q_1`` below ``1e-10``, e.g. a single user against
    isotropic interference, or every user at ``pilot_len > users``) any
    unit vector of its eigenspace, the eigenvectors within that gap of
    ``q_0``, is optimal. The incumbent's projection onto that space is
    taken at full power, or the first eigenvector when the projection is
    zero; the update is flagged and the objective evaluated on the
    updated pilots.
    """
    x = _check_pilots(x, cfg)
    if not 0 <= k < cfg.users:
        raise ContractViolation(f"user index {k} out of range")
    g_k = cfg.gains[k]
    p_k = cfg.powers[k]

    q = leave_one_out(x, k, cfg)
    qw, qv = hermitian_eig(q)
    require_nonsingular(qw, f"leave-one-out matrix for user {k}")

    if cfg.pilot_len > 1 and (qw[1] - qw[0]) / qw[0] < DEGENERACY_GAP:
        least = qv[:, (qw - qw[0]) / qw[0] < DEGENERACY_GAP]
        direction = least @ (least.conj().T @ x[:, k])
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            direction, norm = qv[:, 0], 1.0
        col = direction * (np.sqrt(p_k) / norm)
        updated = x.copy()
        updated[:, k] = col
        return col, True, objective(updated, cfg)

    col = np.sqrt(p_k) * qv[:, 0]
    return col, False, float(np.sum(1.0 / qw[1:]) + 1.0 / (qw[0] + g_k * p_k))


@dataclass(eq=False)
class OptimizerTrace:
    """Objective history of one pilot optimization run.

    ``objective_per_update`` holds ``tr(A^{-1})`` after every
    single-user update (``users`` entries per sweep); it is non
    increasing. ``sweeps_completed`` counts full passes over the users.
    ``gap`` is the returned pilots' relative distance above
    :func:`~pilotopt.closedform.optimality_bound`, ``(objective(x, cfg)
    - bound) / bound``: one evaluation of :func:`objective` on the pilots
    themselves, not the last update's closed-form value, which can sit a
    few roundings below the bound.
    """

    objective_per_update: np.ndarray
    sweeps_completed: int
    converged: bool
    initial_objective: float
    gap: float = float("nan")


def optimize_pilots(cfg, init, tol=1e-8, max_sweeps=100):
    """Cyclic per-user pilot optimization from a feasible starting matrix.

    Sweeps users ``0..K-1`` in order, replacing each pilot with its
    single-user optimum, until the relative objective decrease over one
    full sweep falls below ``tol`` or ``max_sweeps`` is reached. Returns
    ``(pilots, OptimizerTrace)``.

    The noise variance must be positive: mid-iteration the pilot Gram
    matrix can lose rank, and ``sigma2 > 0`` keeps it invertible.
    """
    if cfg.sigma2 <= 0:
        raise ContractViolation("optimize_pilots requires sigma2 > 0")
    x = _check_pilots(init, cfg, name="init").copy()
    norms = np.sum(np.abs(x) ** 2, axis=0)
    if np.any(norms > cfg.powers * (1 + 1e-9)):
        worst = int(np.argmax(norms - cfg.powers))
        raise ContractViolation(
            f"initial pilot {worst} exceeds its power budget: "
            f"{norms[worst]:.12g} > {cfg.powers[worst]:.12g}"
        )

    history = []
    bound = optimality_bound(cfg)
    initial = objective(x, cfg)
    current = initial
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        sweep_start = current
        for k in range(cfg.users):
            x[:, k], _, current = rayleigh_update(x, k, cfg)
            history.append(current)
            if not np.isfinite(current):
                raise NumericalError(
                    f"objective became non-finite at user {k}, sweep {sweeps + 1}"
                )
        sweeps += 1
        if (sweep_start - current) < tol * sweep_start:
            converged = True
            break

    trace = OptimizerTrace(
        objective_per_update=np.asarray(history),
        sweeps_completed=sweeps,
        converged=converged,
        initial_objective=initial,
        gap=(objective(x, cfg) - bound) / bound,
    )
    return x, trace


def combiner(x, k, cfg):
    """Pilot-domain combining vector for user k: ``g_k A^{-1} x_k``.

    Maximizes the ratio of user k's signal energy to total received
    energy over all length-N combiners (a generalized Rayleigh quotient
    whose optimum is available in closed form). This is the paper's
    introduced variable u_k, kept as documented API: the package itself
    applies :func:`proposed_estimator`, which folds u_k and c_k into one
    matrix and is tested against them.
    """
    x = _check_pilots(x, cfg)
    a = gram_matrix(x, cfg)
    return cfg.gains[k] * solve_hermitian(a, x[:, k])


def receiver_scalar(x, u_k, k, cfg):
    """MMSE scalar applied to the combined observation ``y @ u_k``.

    Returns ``c_k = g_k (u_k^H x_k) / (u_k^H A u_k)``, the minimizer of
    the per-user MSE for a fixed combiner. The product ``c_k * u_k`` is
    invariant under rescaling of ``u_k`` by any nonzero complex factor,
    and at the optimal combiner ``c_k == 1`` exactly, so the estimate
    collapses to ``g_k * y @ A^{-1} x_k``. This is the paper's introduced
    variable c_k, kept as documented API next to :func:`combiner`.
    """
    x = _check_pilots(x, cfg)
    u_k = np.asarray(u_k, dtype=np.complex128)
    if u_k.shape != (cfg.pilot_len,):
        raise ContractViolation(f"u_k must have shape ({cfg.pilot_len},)")
    a = gram_matrix(x, cfg)
    denom = np.vdot(u_k, a @ u_k).real
    if denom <= 0.0:
        raise ContractViolation("receiver scalar undefined for zero combiner")
    return cfg.gains[k] * np.vdot(u_k, x[:, k]) / denom


def proposed_estimator(x, cfg):
    """Estimator matrix of the combined-observation receiver for pilots ``x``.

    Column k of the ``(pilot_len, users)`` result ``b`` is
    ``g_k A^{-1} x_k``, the per-user combiner with its (identically 1)
    MMSE output scalar folded in, so the estimate from a training block
    ``y`` is ``y @ b``. It depends on the pilots only, so one design
    needs one solve for all its trials.
    """
    return _proposed_estimators(_check_pilots(x, cfg), cfg, cfg.sigma2)


def _proposed_estimators(x, cfg, sigma2):
    """:func:`proposed_estimator` at a column of noise variances, in one stacked solve.

    For any pilots, one matrix or one per point; the sweeps take it for the
    optimizer's, as :func:`~pilotopt.closedform._constructed_estimators`
    needs no solve.
    """
    return solve_hermitian(_covariance(x, cfg.gains, sigma2), x) * cfg.gains


def proposed_estimate(y, x, cfg):
    """Channel estimate from combined observations, all users at once.

    Column k is ``g_k * y @ A^{-1} x_k`` (see :func:`proposed_estimator`).
    Returns an ``(antennas, users)`` matrix.
    """
    return check_received(y, cfg) @ proposed_estimator(x, cfg)


def analytic_wsmse(x, b, cfg):
    """Exact normalized WSMSE of the linear estimator ``y @ b`` on pilots ``x``.

    With ``y = h x^H + w`` the estimation error is ``h (x^H b - I) + w b``,
    so user k's per coefficient MSE is

        m_k = sum_j g_j |(x^H b - I)_jk|^2 + sigma2 ||b_k||^2

    for any ``(pilot_len, users)`` estimator matrix ``b``. The normalized
    WSMSE is the mean over users of ``m_k / g_k`` (every one of the M
    coefficients contributes identically, so the result does not depend
    on the antenna count). For :func:`proposed_estimator` the terms are
    ``1 - g_k x_k^H A^{-1} x_k`` and their mean is
    ``1 - N/K + (sigma2 / K) tr(A^{-1})``, which ties the estimation error
    directly to the design objective; summing nonnegative terms instead
    of subtracting from 1 keeps full relative accuracy at high SNR.
    """
    x, b = _check_pilots(x, cfg), _check_pilots(b, cfg, name="b")
    per_user = _error_law(_error_maps([(x, b[None])], cfg, np.array([[cfg.sigma2]])), cfg)[0][0]
    return WsmseReport(wsmse=float(np.mean(per_user)), per_user=per_user)
