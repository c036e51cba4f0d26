"""Pilot sequence design: the closed-form optimum and the paper's cyclic updates.

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

The optimum itself has a closed form at every pilot length.
``tr(A^{-1})`` depends only on the spectrum of ``S = sum_k g_k x_k
x_k^H``, the spectra that full-power pilots can give ``S`` are those
that majorize the energies ``e_k = g_k P_k`` (Schur-Horn), and the most
uniform of them minimizes every Schur-convex function of the spectrum
(Viswanath & Anantharam, IEEE T-IT 1999). So one spectrum, free of
``sigma2``, attains :func:`optimality_bound` at every noise variance,
and :func:`construct_pilots` builds pilots with it in ``K`` Givens
steps (Chan & Li, J. Math. Anal. Appl. 1983). Where the reuse-DFT frame
``init_pilots("dft-reuse", cfg)`` already has that spectrum (a single
pilot symbol, ``pilot_len >= users``, equal energies on every reused
column) it is the construction. The cyclic iteration is the paper's
algorithm; from the reuse-DFT frame at unequal gains it stops on a
saddle above the bound, since the per-user update keeps every pilot on
one of the frame's directions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation, NumericalError
from .model import WsmseReport, _error_law, _error_maps, check_received
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
    x = np.ascontiguousarray(x, dtype=np.complex128)
    if x.shape != (cfg.pilot_len, cfg.users):
        raise ContractViolation(
            f"{name} shape {x.shape} does not match (pilot_len, users) = "
            f"({cfg.pilot_len}, {cfg.users})"
        )
    if not np.all(np.isfinite(x)):
        raise ContractViolation(f"{name} has an entry that is not finite")
    return x


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
    :func:`optimality_bound`, ``(objective(x, cfg) - bound) / bound``:
    one evaluation of :func:`objective` on the pilots themselves, not the
    last update's closed-form value, which can sit a few roundings below
    the bound.
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
    optimizer's, as :func:`_constructed_estimators` needs no solve.
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


# --- starting points -----------------------------------------------------

INIT_KINDS = ("dft-reuse", "dft-k", "random")


def init_pilots(kind, cfg, stream=None):
    """Feasible starting pilot matrix for the iterative optimizer.

    ``dft-reuse``
        Cyclically reused columns of the unitary ``pilot_len``-point DFT
        (the baseline construction), column k scaled to ``sqrt(P_k)``.
    ``dft-k``
        The first ``min(pilot_len, users)`` rows of the unitary
        ``users``-point DFT, with zero rows below past ``users``, columns
        rescaled to ``sqrt(P_k)``; past ``users`` the columns are
        orthogonal.
    ``random``
        I.i.d. complex Gaussian columns rescaled to exactly
        ``sqrt(P_k)``; requires ``stream``.
    """
    scale = np.sqrt(cfg.powers)[np.newaxis, :]
    if kind == "dft-reuse":
        frame = unitary_dft(cfg.pilot_len)[:, np.arange(cfg.users) % cfg.pilot_len]
        return np.ascontiguousarray(frame) * scale
    if kind == "dft-k":
        rows = np.eye(cfg.pilot_len, cfg.users) @ unitary_dft(cfg.users)
        return rows / np.linalg.norm(rows, axis=0)[np.newaxis, :] * scale
    if kind == "random":
        if stream is None:
            raise ConfigurationError("random initialization requires a RandomStream")
        raw = draw_cn(stream, cfg.pilot_len, cfg.users)
        return raw / np.linalg.norm(raw, axis=0)[np.newaxis, :] * scale
    raise ConfigurationError(f"unknown init kind {kind!r}; expected one of {INIT_KINDS}")


# --- the optimum in closed form ------------------------------------------


def _optimal_spectrum(cfg):
    """The most uniform spectrum of ``S = sum_k g_k x_k x_k^H``, non-increasing.

    Full-power pilots can give ``S`` any spectrum (padded with zeros to
    ``users`` entries) that majorizes the energies ``e_k = g_k P_k``.
    The most uniform one gives each oversized user, one whose energy
    exceeds the mean of the energies left over the dimensions left, a
    dimension of its own and spreads the others evenly over the rest.
    Returns ``pilot_len`` values; past ``users`` they are zero.
    """
    energies = sorted((cfg.gains * cfg.powers).tolist(), reverse=True)
    # numpy sums the energies left pairwise; a Python sum would round them otherwise
    tail = np.array(energies)
    dims, top = cfg.pilot_len, 0
    while dims > 1 and top < len(energies) and (
            energies[top] > tail[top + 1:].sum().item() / (dims - 1)):
        top += 1
        dims -= 1
    return np.concatenate([energies[:top], np.full(dims, tail[top:].sum().item() / dims)])


def optimality_bound(cfg):
    """Global lower bound on ``tr(A^{-1})`` over all pilots within budget.

    ``sum_i 1 / (lambda*_i + sigma2)`` for the most uniform spectrum
    ``lambda*`` that the energies ``g_k P_k`` allow (Schur-Horn and
    Viswanath & Anantharam, IEEE T-IT 1999). :func:`construct_pilots`
    attains it; it is infinite when ``sigma2 = 0`` and
    ``pilot_len > users``.
    """
    with np.errstate(divide="ignore"):
        return float(np.sum(1.0 / (_optimal_spectrum(cfg) + cfg.sigma2)))


def _construction_spectra(cfg):
    """``(lambda*, frame)`` of :func:`construct_pilots`.

    ``lambda*`` is :func:`_optimal_spectrum`. ``frame`` holds the reuse
    frame's bin energies, the sums of ``e_k = g_k P_k`` over the users of
    each DFT column, when they match ``lambda*`` to ``1e-12`` relative per
    eigenvalue, so that the frame is the construction; otherwise it is
    ``None``.
    """
    spectrum = _optimal_spectrum(cfg)
    frame = np.bincount(np.arange(cfg.users) % cfg.pilot_len, weights=cfg.gains * cfg.powers,
                        minlength=cfg.pilot_len)
    if all(abs(f - l) <= 1e-12 * l
           for f, l in zip(sorted(frame.tolist(), reverse=True), spectrum.tolist())):
        return spectrum, frame
    return spectrum, None


def construct_pilots(cfg):
    """Full-power pilots that attain :func:`optimality_bound` at every ``sigma2``.

    ``S = sum_k g_k x_k x_k^H`` gets the spectrum ``lambda*`` of
    :func:`optimality_bound` and column k the energy ``P_k``. When the
    reuse-DFT frame ``init_pilots("dft-reuse", cfg)`` already has that
    spectrum to ``1e-12`` relative per eigenvalue (one pilot symbol,
    ``pilot_len >= users``, equal energies on every reused column) it is
    returned. Otherwise the pilots are real and built as
    ``V = diag(sqrt(l)) W``, whose Gram matrix ``W^T diag(l) W`` has
    ``l = (lambda*, 0, ...)`` as its spectrum and needs ``e_k = g_k P_k``
    on its diagonal (Chan & Li, J. Math. Anal. Appl. 1983). The users
    take a coordinate each in decreasing ``e_k``, tied users in index
    order: a Givens rotation of the free coordinates ``i`` with the
    smallest ``l_i >= e_k`` and ``j`` with the largest ``l_j <= e_k``, the
    lowest coordinate among tied values, gives user k the value ``e_k``,
    and ``j`` stays free with ``l_i + l_j - e_k``. Where rounding leaves
    no free value on one side of ``e_k`` the nearest one is taken as it
    is. Then ``x_k = V[:pilot_len, k] / sqrt(g_k)``, rescaled to the
    energy ``P_k`` exactly, which keeps full relative accuracy for
    energies far below the others. Depends on the gains, powers and
    pilot length only. Either way each entry of ``x`` sees one known
    eigenvalue of ``S``, so :func:`_constructed_estimators` forms its
    estimators without a solve.
    """
    spectrum, frame = _construction_spectra(cfg)
    if frame is not None:
        return init_pilots("dft-reuse", cfg)

    # the frame's spectrum is the energies themselves when pilot_len >= users,
    # so here pilot_len < users
    energies = (cfg.gains * cfg.powers).tolist()
    level = spectrum.tolist() + [0.0] * (cfg.users - cfg.pilot_len)
    basis = np.eye(cfg.users)
    free = list(range(cfg.users))
    w = np.empty((cfg.users, cfg.users))
    for k in sorted(range(cfg.users), key=energies.__getitem__, reverse=True):
        e = energies[k]
        above = [f for f in free if level[f] >= e]
        below = [f for f in free if level[f] <= e]
        if above and below:
            # min and max return the first of tied values, as argmin and argmax do
            i = min(above, key=level.__getitem__)
            j = max(below, key=level.__getitem__)
        else:
            i = j = min(free, key=lambda f: abs(level[f] - e))
        span = level[i] - level[j]
        if span > 0:
            c, s = math.sqrt((e - level[j]) / span), math.sqrt((level[i] - e) / span)
            w[:, k] = c * basis[:, i] + s * basis[:, j]
            basis[:, j] = c * basis[:, j] - s * basis[:, i]
            level[j] = level[i] + level[j] - e
        else:
            w[:, k] = basis[:, i]
        free.remove(i)
    x = np.sqrt(spectrum)[:, np.newaxis] * w[: cfg.pilot_len] / np.sqrt(cfg.gains)
    # an energy below the rounding of the others' can be left without a
    # direction; at full power any one leaves the spectrum as it is
    x[0, ~np.any(x, axis=0)] = 1.0
    x *= np.sqrt(cfg.powers) / np.linalg.norm(x, axis=0)
    return x.astype(np.complex128)


def _constructed_estimators(x, cfg, sigma2):
    """:func:`proposed_estimator` of ``x = construct_pilots(cfg)`` at a column of noise variances.

    The construction knows the eigenvalue of ``S = x diag(g) x^H`` that
    each entry of ``x`` sees. Column ``k`` of the reuse frame is an
    eigenvector of ``S`` with its bin's energy, and the Givens pilots make
    ``S = diag(lambda*)``, so row ``i`` sees ``lambda*_i``. Hence ``A^{-1}
    x = x / (lam + sigma2)``, one broadcast division with no Gram matrix
    formed and no solve. The singularity floor is checked on ``A``'s
    spectrum ``lambda* + sigma2``, as :func:`solve_hermitian` checks it,
    with the same error.
    """
    spectrum, frame = _construction_spectra(cfg)
    lam = spectrum[:, np.newaxis] if frame is None else frame[np.arange(cfg.users) % cfg.pilot_len]
    require_nonsingular(spectrum[::-1] + sigma2, "a")
    return x * cfg.gains / (lam + sigma2[..., np.newaxis])
