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
sqrt(sigma2) b]``, the estimate minus the channel is ``Z F``. A trial's
WSMSE is therefore the inner product of its Gram matrix ``R = Z^H Z``
with ``G = F diag(1 / (K M g)) F^H``. ``R`` holds no design and no noise
variance, so within one pilot length every SNR point and both
algorithms share it, and each point adds one inner product per trial.

``Z``'s rows are ``antennas`` independent ``CN(0, D)`` vectors with
``D = diag(g, 1_N)``, so ``R`` is complex Wishart and is drawn from its
Bartlett factor, ``R = D^(1/2) L L^H D^(1/2)`` (Goodman 1963), at a cost
that does not grow with the antenna count. ``L`` is ``(K + N) x r``
lower trapezoidal, ``r = min(K + N, antennas)``: ``L_ii =
sqrt(Gamma(antennas - i, 1))`` for ``i < r`` and i.i.d. ``CN(0, 1)``
entries below the diagonal. Trial ``t < 2**32`` draws its ``L`` from
stream id ``t`` alone, so every trial's draws and WSMSE are reproducible
bit for bit and independent of how trials are grouped into chunks; the
optimizer's random initialization, when requested, draws from stream id
``2**33``. ``D^(1/2)`` is folded into each point's weight and into the
trials' summed ``L L^H``, never applied to a trial. :func:`trial_errors`
builds ``Z = L^H D^(1/2)``, whose Gram matrix is ``R``, and stays on the
direct route (received block, ``y @ b - h``) as the independent check of
that algebra.

A row of ``Z`` is ``u D^(1/2)``, ``u ~ CN(0, I)``, so a trial's WSMSE is
``sum_m u_m C u_m^H`` with ``C = D^(1/2) G D^(1/2)``: mean ``antennas
tr(C)``, the analytic WSMSE, and variance ``antennas ||C||_F^2``.
:func:`sweep_snr` gates each row on that exact standard error, so a
defect that inflates the variance cannot widen its own gate.
"""

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .conventional import conventional_estimator, design_reuse_pilots
from .errors import ConfigurationError, NumericalError
from .model import (
    SystemConfig,
    WsmseReport,
    _as_index,
    received_pilot_signal,
    sigma2_from_snr,
)
from .numerics import RandomStream
from .optimizer import (
    INIT_KINDS,
    _check_pilots,
    analytic_wsmse,
    construct_pilots,
    init_pilots,
    optimize_pilots,
    proposed_estimator,
)

# Trial ids lie in [0, 2**32), below the random start's stream id.
MAX_TRIALS = 2**32
INIT_STREAM_ID = 2**33

ALGORITHMS = ("proposed", "conventional")
MODES = (*ALGORITHMS, "both")

# Relative distance to a run's final objective at which
# ``updates_to_converge`` counts the run as settled.
FINAL_OBJECTIVE_RTOL = 1e-6

# Bytes of one chunk's factors ``L`` and Gram matrices ``L L^H`` together,
# budgeted as ``2 (K + N)^2`` complex entries a trial: 56 trials at the
# desk profile (K=8, N=4), 3 at the paper profile (K=32, N=16), whatever
# the antenna count.
CHUNK_BYTES = 256 * 1024


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


def _draws(cfg, seed, start, stop):
    """Bartlett factors ``L`` of trials ``start .. stop - 1``, ``(trials, K + N, r)``.

    ``r = min(K + N, antennas)``. Trial ``t`` draws from stream ``t``:
    first ``Gamma(antennas - i, 1)`` for ``i < r``, whose square roots
    fill the diagonal, then the entries strictly below the diagonal row
    by row, each a pair of standard normals (real, imaginary) times
    ``1/sqrt(2)``, as :func:`~pilotopt.numerics.draw_cn` scales them.
    ``L L^H`` then has the law of the Gram matrix of ``antennas`` white
    rows of ``K + N`` entries.
    """
    width = cfg.users + cfg.pilot_len
    r = min(width, cfg.antennas)
    rows, cols = _below_diagonal(width, r)
    shapes = cfg.antennas - np.arange(r, dtype=np.float64)
    gammas = np.empty((stop - start, r))
    normals = np.empty((stop - start, 2 * rows.size))
    for i, t in enumerate(range(start, stop)):
        rng = RandomStream(seed, t).generator()
        rng.standard_gamma(shapes, out=gammas[i])
        rng.standard_normal(out=normals[i])
    normals *= 1.0 / np.sqrt(2.0)
    low = np.zeros((stop - start, width, r), dtype=np.complex128)
    low[:, np.arange(r), np.arange(r)] = np.sqrt(gammas)
    low[:, rows, cols] = normals.view(np.complex128)
    return low


@lru_cache(maxsize=8)
def _below_diagonal(width, r):
    """Row and column indices of a ``width x r`` matrix's strictly lower part, row by row.

    Cached, so every caller shares the arrays: they are read-only.
    """
    rows, cols = np.tril_indices(width, -1, r)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _trials_per_chunk(cfg):
    """Trials whose factors ``L`` and Gram matrices ``L L^H`` fit in ``CHUNK_BYTES``."""
    width = cfg.users + cfg.pilot_len
    return max(1, CHUNK_BYTES // (32 * width * width))


def _root_scale(cfg):
    """The diagonal of ``D^(1/2) = diag(sqrt(g), 1_N)``: ``R = D^(1/2) L L^H D^(1/2)``."""
    return np.sqrt(np.concatenate([cfg.gains, np.ones(cfg.pilot_len)]))


def trial_errors(cfg, x, b, seed, t):
    """Per-user normalized squared error of one seeded trial.

    Trial ``t`` draws its Bartlett factor ``L`` from stream ``t`` and
    builds the channel and the unit-variance noise as the columns of
    ``Z = L^H D^(1/2)`` (module docstring), ``min(K + N, antennas)`` rows
    whose Gram matrix is that of all ``antennas``. It forms the received
    training block on pilots ``x``, estimates the channel as ``y @ b``
    and returns each user's squared error divided by ``antennas * g_k``.
    It sees the same draws as trial ``t`` of :func:`run_monte_carlo` but
    shares none of its algebra, so it is the direct check of that
    engine. ``seed`` must be an integer >= 0 and ``t`` one in ``[0,
    2**32)``, so that no trial draws from the optimizer's random start.
    """
    x, b = _check_pilots(x, cfg), _check_pilots(b, cfg, name="b")
    seed = _as_index(seed, "seed", 0)
    t = _as_index(t, "t", 0, MAX_TRIALS - 1)
    z = _draws(cfg, seed, t, t + 1)[0].conj().T * _root_scale(cfg)
    h, white = z[:, : cfg.users], z[:, cfg.users :]
    y = received_pilot_signal(h, x, np.sqrt(cfg.sigma2) * white)
    err = np.sum(np.abs(y @ b - h) ** 2, axis=0)
    return err / (cfg.antennas * cfg.gains)


def _error_map(cfg, x, b):
    """``F = [x^H b - I; sqrt(sigma2) b]``: a trial's estimate minus its channel is ``Z F``."""
    return np.concatenate([x.conj().T @ b - np.eye(cfg.users), np.sqrt(cfg.sigma2) * b])


def _trial_weight(cfg, f):
    """``G = F diag(1 / (K M g)) F^H`` as the float64 view of its entries.

    ``R`` and ``G`` are Hermitian, so a trial's WSMSE ``Re tr(R G)`` is
    ``sum Re R_ij Re G_ij + Im R_ij Im G_ij``: the dot product of the
    float64 view of ``R``'s entries with this vector.
    """
    g = (f / (cfg.users * cfg.antennas * cfg.gains)) @ f.conj().T
    return g.view(np.float64).ravel()


def _point_weight(cfg, x, b):
    """``(D^(1/2) F, w)``: a point's scaled error map and the weight of ``C = D^(1/2) G D^(1/2)``.

    A trial's WSMSE is the dot product of ``w`` with the float64 view of
    its ``L L^H`` (:func:`_trial_weight`).
    """
    f = _root_scale(cfg)[:, None] * _error_map(cfg, x, b)
    return f, _trial_weight(cfg, f)


def _evaluate(points, trials, seed):
    """Per-trial WSMSE ``(points, trials)`` and per-user means ``(points, users)``.

    Every point must have the dimensions and gains of the first; they
    may differ in noise variance, pilots and estimator matrix ``b``.
    Trials ``0 .. trials - 1`` are drawn chunk by chunk and each forms
    ``L L^H`` once. ``D^(1/2)`` scales each point's ``F`` instead, so a
    trial's WSMSE is the inner product of ``L L^H`` with ``D^(1/2) G
    D^(1/2)``. One ``einsum`` takes every point's product on a chunk; it
    reduces each output along its own row without BLAS, so the values do
    not depend on the other points or on the chunk a trial falls in. The
    per-user means are quadratic forms ``F_k^H D^(1/2) (sum_t L_t L_t^H)
    D^(1/2) F_k``.
    """
    shape = points[0][0]
    step = _trials_per_chunk(shape)
    maps, weights = zip(*(_point_weight(*point) for point in points))
    weights = np.stack(weights)
    per_trial = np.empty((len(points), trials))
    total = 0.0
    for start in range(0, trials, step):
        stop = min(start + step, trials)
        low = _draws(shape, seed, start, stop)
        gram = low @ low.conj().transpose(0, 2, 1)
        total = total + gram.sum(axis=0)
        flat = gram.reshape(stop - start, -1).view(np.float64)
        per_trial[:, start:stop] = np.einsum("tl,pl->pt", flat, weights)

    scale = trials * shape.antennas * shape.gains
    per_user = np.array([np.sum(f.conj() * (total @ f), axis=0).real for f in maps]) / scale
    return per_trial, per_user


def _monte_carlo(points, trials, seed):
    """Empirical :class:`WsmseReport` of each ``(cfg, x, b)`` point on shared draws."""
    reports = []
    for wsmse, per_user in zip(*_evaluate(points, trials, seed)):
        if trials > 1:
            stderr = float(wsmse.std(ddof=1) / np.sqrt(trials))
        else:
            stderr = float("nan")
        reports.append(WsmseReport(wsmse=float(wsmse.mean()), per_user=per_user, stderr=stderr))
    return reports


def run_monte_carlo(cfg, x, b, trials, seed):
    """Empirical normalized WSMSE of the estimator ``y @ b`` on pilots ``x``.

    Evaluates trials ``t = 0 .. trials - 1``, the draws of
    :func:`trial_errors`, each trial's error taken from its Gram matrix
    (module docstring). The returned :class:`WsmseReport` carries the
    mean over trials, its standard error, and the per-user means.
    Results depend only on ``(cfg, x, b, trials, seed)``; ``trials``
    must be an integer in ``[1, 2**32]`` and ``seed`` one >= 0.
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
    same Monte Carlo draws with the estimator matrices the designs built,
    which fills in each row's empirical WSMSE and standard error; each
    row equals its own :func:`run_monte_carlo`. A row more than 4 exact
    standard errors (module docstring) from its analytic WSMSE, or not
    finite, raises :class:`NumericalError`. Pilots that do not depend on
    the noise variance are designed once per pilot length, at its first
    SNR point.
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
        for row, point, emp in zip(designed, points,
                                   _monte_carlo(points, ecfg.trials, ecfg.seed)):
            label = f"{row.algorithm} @ {row.snr_db} dB"
            # the exact standard error (module docstring): ||C||_F is the norm of
            # the weight, taken over its largest entry so that it cannot underflow
            w = _point_weight(*point)[1]
            top = np.abs(w).max()
            se = top * np.linalg.norm(w / top) * np.sqrt(point[0].antennas / ecfg.trials)
            _consistency_gate(label, row.wsmse_analytic, emp.wsmse, se)
            row.wsmse_empirical, row.stderr = emp.wsmse, emp.stderr
        rows += designed
    return rows


def _updates_to_converge(trace, rtol=FINAL_OBJECTIVE_RTOL):
    objs = trace.objective_per_update
    final = objs[-1]
    close = np.abs(objs - final) <= rtol * final
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
