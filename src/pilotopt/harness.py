"""Monte Carlo experiment drivers: pilot design, trials, sweeps, traces.

:class:`ExperimentConfig` names a scenario once and :func:`sweep_snr`
runs its grid; :func:`design_pilots` and :func:`run_monte_carlo` are the
sweep's code at one point. The default proposed design is
:func:`~pilotopt.closedform.construct_pilots`, the optimum at every noise
variance; ``ExperimentConfig.init`` names a start for the paper's cyclic
optimizer instead, which :mod:`pilotopt.optimizer` runs, imported by the
functions that call it. The SNR points of one pilot length differ only in
the noise variance and the estimator ``b`` (and the pilots, when the
optimizer runs), so the sweep takes them in one pass along a leading
point axis. The constructed design's estimators are one broadcast
division by its known spectrum; the optimizer's pilots take one stacked
Hermitian solve.

A design's estimator ``b`` is fixed by its pilots, so it is built once.
Its error on a trial is linear in the draws: with ``Z = [h, white]``
(the channel beside the unit-variance noise) and ``F = [x^H b - I;
sqrt(sigma2) b]``, the estimate minus the channel is ``Z F``, and user
``k``'s squared error is that block's column ``k`` squared. Summed over
``T`` trials, those column sums depend on the stacked ``Z`` only
through its Gram matrix ``S = sum_t Z_t^H Z_t``, which holds no design
and no noise variance, so within one pilot length every SNR point and
both algorithms share it.

``Z``'s rows are ``antennas`` independent ``CN(0, D)`` vectors with
``D = diag(g, 1_N)``, so a trial's Gram matrix is complex Wishart
``CW(antennas, D)`` and ``S``, a sum of ``T`` independent ones, is
``CW(T antennas, D)`` (Goodman 1963). It is drawn from a Bartlett
factor (Edelman 1989): ``D^(1/2) L L^H D^(1/2)`` with ``L`` ``(K + N) x
r`` lower trapezoidal for ``dof`` degrees of freedom, ``r = min(K + N,
dof)``, ``L_ii = sqrt(Gamma(dof - i, 1))`` for ``i < r`` and i.i.d.
``CN(0, 1)`` entries below the diagonal. The ``r`` rows of ``L^H
D^(1/2)`` have the Gram matrix ``S``, so they stand in for all ``T
antennas`` rows: a point's error block is ``E = L^H D^(1/2) F``, user
``k``'s mean is ``||E[:, k]||^2 / (T antennas g_k)`` and the row's
WSMSE is the mean of those; the points' maps ``D^(1/2) F`` side by
side make one product. Every factor is drawn from stream id 0: a
run of ``T`` trials draws its one ``L`` with ``dof = T antennas``,
whatever ``T`` is, so a row costs one factor and one product, and one
seeded trial is a run at ``T = 1``. The optimizer's random
initialization, when requested, draws from stream id ``2**33``. The
error block and its column norms are formed in ``np.clongdouble`` and
rounded to float64 once, so where long double is wider than float64 a
result is within about one rounding of the exact value on the drawn
factor.

A trial's mean and sd are read off the same maps by
:func:`pilotopt.model._error_law`; :func:`sweep_snr` gates each row on
the exact standard error ``sd / sqrt(T)``, so a defect that inflates
the variance cannot widen its own gate.
"""

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .closedform import INIT_KINDS, _constructed_estimators, construct_pilots, init_pilots
from .conventional import _conventional_estimators, design_reuse_pilots
from .errors import ConfigurationError, NumericalError
from .model import SystemConfig, WsmseReport, sigma2_from_snr
from .model import _as_dimensions, _as_index, _as_per_user, _check_pilots, _error_law, _error_maps
from .numerics import RandomStream, complex_normals

# Trial counts stop at 2**32; Monte Carlo draws from stream 0 and the
# optimizer's random start from stream 2**33.
MAX_TRIALS = 2**32
INIT_STREAM_ID = 2**33

ALGORITHMS = ("proposed", "conventional")
MODES = (*ALGORITHMS, "both")

# Relative distance to a run's final objective at which
# ``updates_to_converge`` counts the run as settled.
FINAL_OBJECTIVE_RTOL = 1e-6


@dataclass(eq=False)
class ExperimentConfig:
    """One experiment: a scenario, its sweep axes and run options.

    The scenario, ``antennas``, ``users``, ``powers`` and ``gains``, is
    shared by every point, as :class:`SystemConfig` takes it. A point is
    one SNR of ``snr_db_list`` and one pilot length of ``n_list``, both
    non-empty; :meth:`point` is where every driver turns one into a
    :class:`SystemConfig`, and each point is checked on construction.
    ``init`` ``None`` designs the proposed pilots by
    :func:`~pilotopt.closedform.construct_pilots`; a kind of
    :data:`~pilotopt.closedform.INIT_KINDS` runs the cyclic optimizer from
    that start.
    """

    antennas: int
    users: int
    snr_db_list: list
    n_list: list
    powers: np.ndarray = 1.0
    gains: np.ndarray = 1.0
    trials: int = 1000
    seed: int = 12345
    mode: str = "both"
    init: str | None = None
    tol: float = 1e-8
    max_sweeps: int = 100

    def __post_init__(self):
        self.trials = _as_index(self.trials, "trials", 1, MAX_TRIALS)
        self.seed = _as_index(self.seed, "seed", 0)
        self.max_sweeps = _as_index(self.max_sweeps, "max_sweeps", 1)
        self.n_list = [_as_index(n, "n_list entries") for n in self.n_list]
        for values, name in ((self.snr_db_list, "snr_db_list"), (self.n_list, "n_list")):
            if not values:
                raise ConfigurationError(f"{name} must be non-empty")
        for snr_db in self.snr_db_list:
            for n in self.n_list:
                self.point(snr_db, n)
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not np.isfinite(self.tol) or self.tol < 0:
            raise ConfigurationError(f"tol must be finite and >= 0, got {self.tol}")

    @property
    def algorithms(self):
        """The algorithms ``mode`` runs: both for ``"both"``, else the one named."""
        return ALGORITHMS if self.mode == "both" else (self.mode,)

    def point(self, snr_db, n):
        """The :class:`SystemConfig` of pilot length ``n`` at ``snr_db``.

        ``sigma2`` is :func:`sigma2_from_snr` of the per-user powers array,
        expanded only once the dimensions are checked.
        """
        antennas, users, n = _as_dimensions(self.antennas, self.users, n)
        powers = _as_per_user(self.powers, users, "powers")
        return SystemConfig(antennas, users, n, sigma2_from_snr(snr_db, powers),
                            powers, self.gains)

    def single_point(self):
        """``(snr_db, cfg)`` of an experiment that names exactly one point.

        Raises :class:`ConfigurationError` unless there is exactly one
        SNR and exactly one pilot length.
        """
        for values, name in ((self.snr_db_list, "SNR point"), (self.n_list, "pilot length")):
            if len(values) != 1:
                raise ConfigurationError(
                    f"this run needs exactly one {name}, got {len(values)}"
                )
        snr_db = self.snr_db_list[0]
        return snr_db, self.point(snr_db, self.n_list[0])


@dataclass(eq=False)
class SweepRow:
    """One (SNR, pilot length, algorithm) result of a sweep."""

    snr_db: float
    n: int
    algorithm: str
    wsmse_analytic: float
    wsmse_empirical: float
    stderr: float
    trials: int
    sweeps: int | None = None


@dataclass(eq=False)
class ConvergenceResult:
    """Objective trace of one optimizer run from a named initialization."""

    init: str
    snr_db: float
    trace: object
    final_objective: float
    updates_to_converge: int


def _factor(cfg, seed, dof):
    """Bartlett factor ``L`` of ``CW(dof, I)``, ``(K + N, r)`` with ``r = min(K + N, dof)``.

    Draws from stream ``(seed, 0)``: first ``rng.gammavariate(dof - i,
    1)`` for ``i < r``, whose square roots fill the diagonal, then the
    entries strictly below the diagonal row by row, as
    :func:`~pilotopt.numerics.complex_normals` draws them. ``L L^H`` then
    has the law of the Gram matrix of ``dof`` white rows of ``K + N``
    entries.
    """
    width = cfg.users + cfg.pilot_len
    r = min(width, dof)
    rng = RandomStream(seed, 0).generator()
    low = np.zeros((width, r), dtype=np.complex128)
    np.fill_diagonal(low, np.sqrt([rng.gammavariate(float(dof - i), 1.0) for i in range(r)]))
    rows, cols = np.tril_indices(width, -1, r)
    low[rows, cols] = complex_normals(rng, rows.size)
    return low


def _monte_carlo(cfg, maps, trials, seed):
    """Empirical ``(per_user, wsmse)`` of each of :func:`~pilotopt.model._error_maps`' maps.

    One factor ``L`` of trials ``0 .. trials - 1``, ``trials * antennas``
    degrees of freedom, gives every point's error block ``E`` (module
    docstring), so a point's values do not depend on the others. The
    per-user means, ``E``'s squared column norms over ``trials antennas
    g_k``, are rounded to float64 once.
    """
    low_h = _factor(cfg, seed, trials * cfg.antennas).conj().T.astype(np.clongdouble)
    # numpy's np.dot loop is faster than its matmul on long double; over the
    # points' maps side by side it gives every error block, (r, points, K)
    err = np.abs(np.dot(low_h, maps))
    err = np.sum(np.square(err, out=err), axis=0) / (trials * (cfg.antennas * cfg.gains))
    per_user = err.astype(np.float64)
    return per_user, per_user.mean(axis=1)


def run_monte_carlo(cfg, x, b, trials, seed):
    """Empirical normalized WSMSE of the estimator ``y @ b`` on pilots ``x``.

    Draws one Bartlett factor for all ``trials`` trials, with ``trials *
    antennas`` degrees of freedom (module docstring), so the cost does
    not grow with ``trials``; ``trials=1`` is one seeded trial, as the
    ``estimate`` command reports it. The returned :class:`WsmseReport`
    carries the per-user means over trials, their mean, and its exact
    standard error. Results depend only on ``(cfg, x, b, trials,
    seed)``; ``trials`` must be an integer in ``[1, 2**32]`` and ``seed``
    one >= 0.
    """
    trials = _as_index(trials, "trials", 1, MAX_TRIALS)
    seed = _as_index(seed, "seed", 0)
    x, b = _check_pilots(x, cfg), _check_pilots(b, cfg, name="b")
    maps = _error_maps([(x, b[None])], cfg, np.array([[cfg.sigma2]]))
    (per_user,), (wsmse,) = _monte_carlo(cfg, maps, trials, seed)
    (sd,) = _error_law(maps, cfg)[1]
    return WsmseReport(float(wsmse), per_user, float(sd / np.sqrt(trials)))


def design_pilots(algorithm, cfg, ecfg):
    """Pilots of one algorithm at one scenario, with estimator and analytic WSMSE.

    Returns ``(x, b, analytic, trace)``: the pilots, the algorithm's
    ``(pilot_len, users)`` estimator matrix, its
    :func:`~pilotopt.optimizer.analytic_wsmse` and the optimizer trace.
    ``proposed`` constructs the optimum when ``ecfg.init`` is ``None``
    and otherwise runs the cyclic optimizer from ``ecfg.init``;
    ``conventional`` reuses the DFT columns. The trace is ``None`` unless
    the optimizer ran.
    """
    from .optimizer import analytic_wsmse

    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    x, b, traces = _design(algorithm, cfg, np.array([[cfg.sigma2]]), ecfg)
    x, b = x.reshape(b.shape[1:]), b[0]
    return x, b, analytic_wsmse(x, b, cfg), traces[0]


def _design(algorithm, cfg, sigma2, ecfg):
    """``(x, b, traces)`` of :func:`design_pilots` at a column of noise variances.

    ``cfg`` gives the scenario and pilot length, not the noise variance.
    ``b`` and ``traces`` have one entry per point. Pilots free of the
    noise variance are designed once and shared, with ``None`` for a
    trace; the cyclic optimizer runs once per point.
    """
    traces = [None] * len(sigma2)
    if algorithm == "conventional":
        x, estimators = design_reuse_pilots(cfg), _conventional_estimators
    elif ecfg.init is None:
        x, estimators = construct_pilots(cfg), _constructed_estimators
    else:
        from .optimizer import _proposed_estimators

        x, traces = zip(*[_optimize_from(ecfg.init, replace(cfg, sigma2=s), ecfg)
                          for s in sigma2[:, 0].tolist()])
        x, estimators = np.stack(x), _proposed_estimators
    return x, estimators(x, cfg, sigma2), traces


def _optimize_from(kind, cfg, ecfg):
    """Optimize from the ``kind`` start; a random one draws from stream ``2**33``."""
    from .optimizer import optimize_pilots

    x0 = init_pilots(kind, cfg, stream=RandomStream(ecfg.seed, INIT_STREAM_ID))
    return optimize_pilots(cfg, x0, tol=ecfg.tol, max_sweeps=ecfg.max_sweeps)


def _consistency_gate(label, analytic, empirical, stderr):
    if not (np.isfinite(analytic) and np.isfinite(empirical)):
        raise NumericalError(
            f"{label}: WSMSE is not finite (analytic {analytic:.6g}, "
            f"empirical {empirical:.6g})"
        )
    if abs(empirical - analytic) > 4.0 * stderr:
        raise NumericalError(
            f"{label}: empirical WSMSE {empirical:.6g} deviates from analytic "
            f"{analytic:.6g} by more than 4 standard errors ({stderr:.3g})"
        )


def sweep_snr(ecfg):
    """Sweep pilot length, SNR and algorithm.

    Returns one :class:`SweepRow` per (pilot length, SNR, algorithm),
    proposed first when both run; at ``n == users`` both algorithms
    reach the same analytic WSMSE. A pilot length is one stacked pass:
    one :class:`SystemConfig`, each SNR's noise variance from
    :func:`sigma2_from_snr`, each algorithm's pilots designed once (once
    per noise variance by the cyclic optimizer) with all its estimators
    at once (a broadcast, or one stacked solve for the optimizer's
    pilots), and every row on one summed Monte Carlo draw.
    Each row equals its own :func:`design_pilots` and
    :func:`run_monte_carlo` bit for bit. A row more than 4 exact standard
    errors from its analytic WSMSE, or not finite, raises
    :class:`NumericalError`.
    """
    rows = []
    for n in ecfg.n_list:
        cfg = ecfg.point(ecfg.snr_db_list[0], n)
        sigma2 = np.array([[sigma2_from_snr(snr_db, cfg.powers)] for snr_db in ecfg.snr_db_list])
        # the baseline first: its equal-power check fails before any proposed work
        designs = {alg: _design(alg, cfg, sigma2, ecfg) for alg in reversed(ecfg.algorithms)}
        x, b, traces = zip(*map(designs.get, ecfg.algorithms))
        # the points SNR by SNR and the algorithms within, as the rows run
        maps = _error_maps(list(zip(x, b)), cfg, sigma2)
        per_user, sd = _error_law(maps, cfg)
        _, empirical = _monte_carlo(cfg, maps, ecfg.trials, ecfg.seed)
        for (snr_db, algorithm), *values, trace in zip(
                product(ecfg.snr_db_list, ecfg.algorithms), per_user.mean(axis=1).tolist(),
                empirical.tolist(), (sd / np.sqrt(ecfg.trials)).tolist(),
                np.concatenate(np.stack(traces, 1))):
            _consistency_gate(f"{algorithm} @ {snr_db} dB", *values)
            rows.append(SweepRow(snr_db, cfg.pilot_len, algorithm, *values, ecfg.trials,
                                 trace and trace.sweeps_completed))
    return rows


def _updates_to_converge(trace):
    objs = trace.objective_per_update
    close = np.abs(objs - objs[-1]) <= FINAL_OBJECTIVE_RTOL * objs[-1]
    return int(np.argmax(close)) + 1


def convergence_trace(ecfg):
    """Optimizer objective traces from all three starting points.

    Runs the pilot optimization at the single point of ``ecfg``
    (:meth:`ExperimentConfig.single_point`) from the DFT-reuse,
    truncated-DFT, and seeded-random initializations and returns one
    :class:`ConvergenceResult` per run.

    The search is non-convex for ``1 < pilot_len < users``, so different
    starting points may stop at different objectives. The DFT-reuse
    start keeps every pilot inside the original orthogonal direction set
    (an invariant of the per-user update) and stops on a saddle, a
    slightly higher value than off-frame starts reach; any perturbation
    off that set descends further. The returned ``final_objective``
    fields let callers compare.
    """
    snr_db, cfg = ecfg.single_point()
    results = []
    for kind in INIT_KINDS:
        _, trace = _optimize_from(kind, cfg, ecfg)
        results.append(ConvergenceResult(
            init=kind, snr_db=snr_db, trace=trace,
            final_objective=float(trace.objective_per_update[-1]),
            updates_to_converge=_updates_to_converge(trace),
        ))
    return results
