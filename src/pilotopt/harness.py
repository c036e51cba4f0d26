"""Monte Carlo experiment drivers: pilot design, trials, sweeps, traces.

Each step has one home: :meth:`ExperimentConfig.point` resolves a
scenario point, :func:`design_pilots` maps an algorithm name to pilots
``x`` and estimator matrix ``b``, the evaluators take that ``(x, b)``
pair and :func:`sweep_snr` is the grid driver.

The default proposed design is :func:`~pilotopt.optimizer.construct_pilots`,
the optimum at every noise variance; ``ExperimentConfig.init`` names a
start for the paper's cyclic optimizer instead. The constructed and the
baseline pilots depend on the gains, powers and pilot length only, so
:func:`sweep_snr` builds them once per pilot length and each SNR point
forms only its estimator.

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
WSMSE is the mean of those. Every factor is drawn from stream id 0: a
run of ``T`` trials draws its one ``L`` with ``dof = T antennas``,
whatever ``T`` is, so a row costs one factor and one product, and one
seeded trial is a run at ``T = 1``. The optimizer's random
initialization, when requested, draws from stream id ``2**33``. The
error block and its column norms are formed in ``np.clongdouble`` and
rounded to float64 once, so where long double is wider than float64 a
result is within about one rounding of the exact value on the drawn
factor.

A row of ``Z`` is ``u D^(1/2)``, ``u ~ CN(0, I)``, so a trial's WSMSE is
``sum_m u_m C u_m^H`` with ``C = D^(1/2) F diag(1 / (K M g)) F^H
D^(1/2)``: mean ``antennas tr(C)``, the analytic WSMSE, and variance
``antennas ||C||_F^2``. A row's standard error is the exact
``sqrt(antennas ||C||_F^2 / T)``, and :func:`sweep_snr` gates each row
on it, so a defect that inflates the variance cannot widen its own gate.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .conventional import conventional_estimator, design_reuse_pilots
from .errors import ConfigurationError, NumericalError
from .model import SystemConfig, WsmseReport, _as_index, sigma2_from_snr
from .numerics import RandomStream, complex_normals
from .optimizer import (
    INIT_KINDS,
    _check_pilots,
    analytic_wsmse,
    construct_pilots,
    init_pilots,
    optimize_pilots,
    proposed_estimator,
)

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
    """One experiment: a base scenario plus sweep axes and run options.

    A scenario point is one SNR of ``snr_db_list`` and one pilot length
    of :attr:`pilot_lens`. :meth:`point` is where every driver turns one
    into a :class:`SystemConfig`, so ``base.sigma2`` is never read; each
    point is checked on construction. ``init`` ``None`` designs the
    proposed pilots by :func:`~pilotopt.optimizer.construct_pilots`; a
    kind of :data:`~pilotopt.optimizer.INIT_KINDS` runs the cyclic
    optimizer from that start.
    """

    base: SystemConfig
    snr_db_list: list
    n_list: list = field(default_factory=list)
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
        if not self.snr_db_list:
            raise ConfigurationError("snr_db_list must be non-empty")
        for snr_db in self.snr_db_list:
            for n in self.pilot_lens:
                self.point(snr_db, n)
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not np.isfinite(self.tol) or self.tol < 0:
            raise ConfigurationError(f"tol must be finite and >= 0, got {self.tol}")

    @property
    def algorithms(self):
        """The algorithms ``mode`` runs: both for ``"both"``, else the one named."""
        return ALGORITHMS if self.mode == "both" else (self.mode,)

    @property
    def pilot_lens(self):
        """The pilot lengths: ``n_list``, or ``base.pilot_len`` when it is empty."""
        return self.n_list or [self.base.pilot_len]

    def point(self, snr_db, n):
        """The :class:`SystemConfig` of pilot length ``n`` at ``snr_db``."""
        base = self.base
        return replace(base, pilot_len=n, sigma2=sigma2_from_snr(snr_db, base.powers))

    def single_point(self):
        """``(snr_db, cfg)`` of an experiment that names exactly one point.

        Raises :class:`ConfigurationError` unless there is exactly one
        SNR and exactly one pilot length.
        """
        for values, name in ((self.snr_db_list, "SNR point"),
                             (self.pilot_lens, "pilot length")):
            if len(values) != 1:
                raise ConfigurationError(
                    f"this run needs exactly one {name}, got {len(values)}"
                )
        snr_db = self.snr_db_list[0]
        return snr_db, self.point(snr_db, self.pilot_lens[0])


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


def _error_map(cfg, x, b, dtype):
    """``D^(1/2) F``, ``F = [x^H b - I; sqrt(sigma2) b]``, evaluated in ``dtype``."""
    x, b = x.astype(dtype), b.astype(dtype)
    f = np.concatenate([x.conj().T @ b - np.eye(cfg.users), np.sqrt(cfg.sigma2) * b])
    root = np.sqrt(np.concatenate([cfg.gains, np.ones(cfg.pilot_len)]))  # D = diag(g, 1_N)
    return root[:, None] * f


def _monte_carlo(points, trials, seed):
    """Empirical :class:`WsmseReport` of each ``(cfg, x, b)`` point on one shared draw.

    Every point must have the dimensions and gains of the first; they
    may differ in noise variance, pilots and estimator matrix ``b``. The
    Bartlett factor ``L`` of trials ``0 .. trials - 1`` is drawn once,
    with ``trials * antennas`` degrees of freedom, and each point maps it
    through its own ``D^(1/2) F`` into the error block ``E`` (module
    docstring), so a point's values do not depend on the other points.
    The per-user means are ``E``'s squared column norms over ``trials
    antennas g_k``, evaluated in ``np.clongdouble`` and rounded to float64
    once, and the WSMSE is their mean. The standard error is the exact
    one, ``||C||_F sqrt(antennas / trials)``, with ``||C||_F`` taken in
    float64 over the largest real or imaginary part of ``C`` so that it
    cannot underflow.
    """
    shape = points[0][0]
    low_h = _factor(shape, seed, trials * shape.antennas).conj().T.astype(np.clongdouble)
    reports = []
    for cfg, x, b in points:
        # numpy's np.dot loop is faster than its matmul on long double
        err = np.sum(np.abs(np.dot(low_h, _error_map(cfg, x, b, np.clongdouble))) ** 2, axis=0)
        per_user = (err / (trials * (cfg.antennas * cfg.gains))).astype(np.float64)
        f = _error_map(cfg, x, b, np.complex128)
        c = (f / (cfg.users * cfg.antennas * cfg.gains)) @ f.conj().T
        parts = c.view(np.float64)
        top = np.abs(parts).max()
        stderr = top * np.linalg.norm(parts / top) * np.sqrt(cfg.antennas / trials)
        reports.append(WsmseReport(wsmse=float(np.mean(per_user)), per_user=per_user,
                                   stderr=float(stderr)))
    return reports


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
    return _monte_carlo([(cfg, x, b)], trials, seed)[0]


def design_pilots(algorithm, cfg, ecfg, x=None):
    """Pilots of one algorithm at one scenario, with estimator and analytic WSMSE.

    Returns ``(x, b, analytic, trace)``: the pilots, the algorithm's
    ``(pilot_len, users)`` estimator matrix, its
    :func:`~pilotopt.optimizer.analytic_wsmse` and the optimizer trace.
    ``proposed`` constructs the optimum when ``ecfg.init`` is ``None``
    and otherwise runs the cyclic optimizer from ``ecfg.init``;
    ``conventional`` reuses the DFT columns. The trace is ``None`` unless
    the optimizer ran. Pilots with no trace do not depend on the noise
    variance: given back as ``x`` at another SNR of the same pilot
    length, they skip the design and only the estimator is built.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}"
        )
    trace = None
    if x is None:
        if algorithm == "conventional":
            x = design_reuse_pilots(cfg)
        elif ecfg.init is None:
            x = construct_pilots(cfg)
        else:
            x, trace = _optimize_from(ecfg.init, cfg, ecfg)
    if algorithm == "proposed":
        b = proposed_estimator(x, cfg)
    else:
        b = conventional_estimator(x, cfg)
    return x, b, analytic_wsmse(x, b, cfg), trace


def _optimize_from(kind, cfg, ecfg):
    """Optimize from the ``kind`` start; a random one draws from stream ``2**33``."""
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

    Runs every point of ``ecfg`` (:meth:`ExperimentConfig.point`), and
    at each one every algorithm designs its own pilots. Returns one
    :class:`SweepRow` per (pilot length, SNR, algorithm), proposed first
    when both run; at ``n == users`` both algorithms reduce to
    orthogonal pilots and reach the same analytic WSMSE.

    All points of one pilot length are designed first, each row built
    with its analytic WSMSE and optimizer sweeps, then evaluated on the
    pilot length's one summed Monte Carlo draw with the estimator
    matrices the designs built, which fills in each row's empirical WSMSE
    and exact standard error; each row equals its own
    :func:`run_monte_carlo`. A row more than 4 of those standard errors
    (module docstring) from its analytic WSMSE, or not finite, raises
    :class:`NumericalError`. Pilots that do not depend on the noise
    variance are designed once per pilot length, at its first SNR point.
    """
    rows = []
    for n in ecfg.pilot_lens:
        points, designed, shared = [], [], {}
        for snr_db in ecfg.snr_db_list:
            cfg = ecfg.point(snr_db, n)
            for algorithm in ecfg.algorithms:
                x, b, ana, trace = design_pilots(algorithm, cfg, ecfg, shared.get(algorithm))
                if trace is None:  # no optimizer ran, no sigma2 in the pilots
                    shared[algorithm] = x
                points.append((cfg, x, b))
                designed.append(SweepRow(
                    snr_db=snr_db,
                    n=cfg.pilot_len,
                    algorithm=algorithm,
                    wsmse_analytic=ana.wsmse,
                    wsmse_empirical=float("nan"),
                    stderr=float("nan"),
                    trials=ecfg.trials,
                    sweeps=None if trace is None else trace.sweeps_completed,
                ))
        for row, emp in zip(designed, _monte_carlo(points, ecfg.trials, ecfg.seed)):
            label = f"{row.algorithm} @ {row.snr_db} dB"
            _consistency_gate(label, row.wsmse_analytic, emp.wsmse, emp.stderr)
            row.wsmse_empirical, row.stderr = emp.wsmse, emp.stderr
        rows += designed
    return rows


def _updates_to_converge(trace):
    objs = trace.objective_per_update
    final = objs[-1]
    close = np.abs(objs - final) <= FINAL_OBJECTIVE_RTOL * final
    first = int(np.argmax(close))
    return first + 1


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
        results.append(
            ConvergenceResult(
                init=kind,
                snr_db=snr_db,
                trace=trace,
                final_objective=float(trace.objective_per_update[-1]),
                updates_to_converge=_updates_to_converge(trace),
            )
        )
    return results
