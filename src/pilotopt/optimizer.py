"""Pilot sequence optimization by cyclic per-user interference avoidance.

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

The two boundary regimes have closed-form optima, and both are the
reuse-DFT frame ``init_pilots("dft-reuse", cfg)``: at a single pilot
symbol every full-power pilot is optimal, with objective
``1 / (sum_k g_k P_k + sigma2)``, and at pilot length equal to the user
count the orthogonal full-power DFT columns are, with objective
``sum_k 1 / (g_k P_k + sigma2)``. The iteration started from that frame
stops after one sweep at both.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, NumericalError
from .model import WsmseReport, _open_out, check_received
from .numerics import (
    draw_cn,
    hermitian_eig,
    require_nonsingular,
    solve_hermitian,
    unitary_dft,
)

# Relative gap between the two smallest eigenvalues of Q_k below which
# the least-loaded direction is treated as non-unique.
DEGENERACY_GAP = 1e-10


def _check_pilots(x, cfg, name="x"):
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (cfg.pilot_len, cfg.users):
        raise ContractViolation(
            f"{name} shape {x.shape} does not match (pilot_len, users) = "
            f"({cfg.pilot_len}, {cfg.users})"
        )
    return x


def _hermitize(a):
    return 0.5 * (a + a.conj().T)


def gram_matrix(x, cfg):
    """Pilot-domain covariance ``A = sum_k g_k x_k x_k^H + sigma2 * I``."""
    x = _check_pilots(x, cfg)
    a = (x * cfg.gains[np.newaxis, :]) @ x.conj().T
    a[np.diag_indices_from(a)] += cfg.sigma2
    return _hermitize(a)


def objective(x, cfg):
    """Design objective ``tr(A^{-1})``, evaluated as the sum of 1/eigenvalue."""
    w = np.linalg.eigvalsh(gram_matrix(x, cfg))
    require_nonsingular(w, "objective Gram matrix")
    return float(np.sum(1.0 / w))


def leave_one_out(x, k, cfg):
    """Covariance with user k removed: ``Q_k = A - g_k x_k x_k^H``."""
    x = _check_pilots(x, cfg)
    others = np.delete(np.arange(cfg.users), k)
    q = (x[:, others] * cfg.gains[others]) @ x[:, others].conj().T
    q[np.diag_indices_from(q)] += cfg.sigma2
    return _hermitize(q)


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
    isotropic interference) the incumbent direction is kept at full
    power, flagged, and the objective evaluated on the updated pilots.
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
        incumbent = x[:, k].copy()
        norm = np.linalg.norm(incumbent)
        if norm == 0.0:
            # a zero incumbent gives no direction to keep; any unit
            # direction is optimal, pick the first basis vector
            incumbent = np.zeros(cfg.pilot_len, dtype=np.complex128)
            incumbent[0] = 1.0
            norm = 1.0
        col = incumbent * (np.sqrt(p_k) / norm)
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
    """

    objective_per_update: np.ndarray
    sweeps_completed: int
    converged: bool
    initial_objective: float
    degenerate_updates: int = 0


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
    degenerate = 0
    initial = objective(x, cfg)
    current = initial
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        sweep_start = current
        for k in range(cfg.users):
            col, was_degenerate, current = rayleigh_update(x, k, cfg)
            x[:, k] = col
            history.append(current)
            degenerate += int(was_degenerate)
            if not np.isfinite(current):
                trace = OptimizerTrace(
                    np.asarray(history), sweeps, False, initial, degenerate
                )
                err = NumericalError(
                    f"objective became non-finite at user {k}, sweep {sweeps + 1}"
                )
                err.trace = trace
                raise err
        sweeps += 1
        if (sweep_start - current) < tol * sweep_start:
            converged = True
            break

    trace = OptimizerTrace(
        objective_per_update=np.asarray(history),
        sweeps_completed=sweeps,
        converged=converged,
        initial_objective=initial,
        degenerate_updates=degenerate,
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
    x = _check_pilots(x, cfg)
    return solve_hermitian(gram_matrix(x, cfg), x) * cfg.gains


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
    x = _check_pilots(x, cfg)
    b = _check_pilots(b, cfg, name="b")
    bias = x.conj().T @ b - np.eye(cfg.users)
    noise = cfg.sigma2 * np.sum(np.abs(b) ** 2, axis=0)
    per_user = (cfg.gains @ np.abs(bias) ** 2 + noise) / cfg.gains
    return WsmseReport(wsmse=float(np.mean(per_user)), per_user=per_user)


# --- starting points -----------------------------------------------------

INIT_KINDS = ("dft-reuse", "dft-k", "random")


def init_pilots(kind, cfg, stream=None):
    """Feasible starting pilot matrix for the iterative optimizer.

    ``dft-reuse``
        Cyclically reused columns of the unitary ``pilot_len``-point DFT
        (the baseline construction), column k scaled to ``sqrt(P_k)``.
    ``dft-k``
        The unitary ``users``-point DFT truncated to the first
        ``pilot_len`` rows, columns rescaled to ``sqrt(P_k)``; requires
        ``pilot_len <= users``.
    ``random``
        I.i.d. complex Gaussian columns rescaled to exactly
        ``sqrt(P_k)``; requires ``stream``.
    """
    scale = np.sqrt(cfg.powers)[np.newaxis, :]
    if kind == "dft-reuse":
        return unitary_dft(cfg.pilot_len)[:, np.arange(cfg.users) % cfg.pilot_len] * scale
    if kind == "dft-k":
        if cfg.pilot_len > cfg.users:
            raise ConfigurationError(
                "dft-k initialization requires pilot_len <= users"
            )
        truncated = unitary_dft(cfg.users)[: cfg.pilot_len, :]
        return truncated / np.linalg.norm(truncated, axis=0)[np.newaxis, :] * scale
    if kind == "random":
        if stream is None:
            raise ConfigurationError("random initialization requires a RandomStream")
        raw = draw_cn(stream, cfg.pilot_len, cfg.users)
        return raw / np.linalg.norm(raw, axis=0)[np.newaxis, :] * scale
    raise ConfigurationError(f"unknown init kind {kind!r}; expected one of {INIT_KINDS}")


# --- pilot matrix text format --------------------------------------------


def save_pilots(path, x):
    """Write a pilot matrix as text: header ``N K``, then ``re im`` lines.

    Entries are listed column by column at 17 significant digits, which
    round-trips IEEE doubles exactly. A ``path`` of ``"-"`` writes to
    standard output.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2:
        raise ContractViolation("pilot matrix must be 2-D")
    with _open_out(path) as fh:
        fh.write(f"{x.shape[0]} {x.shape[1]}\n")
        for col in range(x.shape[1]):
            for row in range(x.shape[0]):
                v = x[row, col]
                fh.write(f"{v.real:.17g} {v.imag:.17g}\n")


def load_pilots(path):
    """Read a pilot matrix written by :func:`save_pilots`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ConfigurationError(f"{path}: malformed pilot file header")
        n, k = int(header[0]), int(header[1])
        values = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            re_part, im_part = line.split()
            values.append(complex(float(re_part), float(im_part)))
    if len(values) != n * k:
        raise ConfigurationError(
            f"{path}: expected {n * k} entries, found {len(values)}"
        )
    return np.asarray(values, dtype=np.complex128).reshape((k, n)).T
