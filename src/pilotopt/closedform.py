"""Pilot sequence design in closed form: the optimum and the optimizer's starts.

The design target is ``tr(A^{-1})``, ``A = sum_k g_k x_k x_k^H + sigma2
* I``, under per-user energy budgets ``||x_k||^2 <= P_k`` (see
:mod:`pilotopt.optimizer`, which runs the paper's cyclic updates on it).
The optimum has a closed form at every pilot length. ``tr(A^{-1})``
depends only on the spectrum of ``S = sum_k g_k x_k x_k^H``, the spectra
that full-power pilots can give ``S`` are those that majorize the
energies ``e_k = g_k P_k`` (Schur-Horn), and the most uniform of them
minimizes every Schur-convex function of the spectrum (Viswanath &
Anantharam, IEEE T-IT 1999). So one spectrum, free of ``sigma2``,
attains :func:`optimality_bound` at every noise variance, and
:func:`construct_pilots` builds pilots with it in ``K`` Givens steps
(Chan & Li, J. Math. Anal. Appl. 1983). Where the reuse-DFT frame
``init_pilots("dft-reuse", cfg)`` already has that spectrum (a single
pilot symbol, ``pilot_len >= users``, equal energies on every reused
column) it is the construction. The cyclic iteration is the paper's
algorithm; from the reuse-DFT frame at unequal gains it stops on a
saddle above the bound, since the per-user update keeps every pilot on
one of the frame's directions.
"""

import math

import numpy as np

from .errors import ConfigurationError
from .numerics import draw_cn, require_nonsingular, unitary_dft

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
    """The proposed estimators of ``x = construct_pilots(cfg)`` at a column of noise variances.

    Each is :func:`~pilotopt.optimizer.proposed_estimator` at its point.
    The construction knows the eigenvalue of ``S = x diag(g) x^H`` that
    each entry of ``x`` sees. Column ``k`` of the reuse frame is an
    eigenvector of ``S`` with its bin's energy, and the Givens pilots make
    ``S = diag(lambda*)``, so row ``i`` sees ``lambda*_i``. Hence ``A^{-1}
    x = x / (lam + sigma2)``, one broadcast division with no Gram matrix
    formed and no solve. The singularity floor is checked on ``A``'s
    spectrum ``lambda* + sigma2``, as
    :func:`~pilotopt.numerics.solve_hermitian` checks it, with the same
    error.
    """
    spectrum, frame = _construction_spectra(cfg)
    lam = spectrum[:, np.newaxis] if frame is None else frame[np.arange(cfg.users) % cfg.pilot_len]
    require_nonsingular(spectrum[::-1] + sigma2, "a")
    return x * cfg.gains / (lam + sigma2[..., np.newaxis])
