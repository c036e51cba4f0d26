"""Monte Carlo experiment drivers: pilot design, trials, sweeps, traces.

Each step has one home: :meth:`ExperimentConfig.point` resolves a
scenario point, :func:`design_pilots` maps an algorithm name to pilots
``x`` and estimator matrix ``b``, the evaluators take that ``(x, b)``
pair and :func:`sweep_snr` is the grid driver. Trial ``t < 2**32``
draws its channel from stream id ``t`` and its noise from ``t + 2**32``,
so every trial's draws and WSMSE are reproducible bit for bit and
independent of how trials are grouped into chunks; the optimizer's
random initialization, when requested, draws from stream id ``2**33``.

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
algorithms share it: :func:`sweep_snr` draws each trial and forms its
``R`` once per pilot length, and each point adds one inner product per
trial. :func:`trial_errors` stays on the direct route (received block,
``y @ b - h``) as the independent check of that algebra.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .conventional import conventional_estimator, design_reuse_pilots
from .errors import ConfigurationError, NumericalError
from .model import (
    SystemConfig,
    WsmseReport,
    _as_index,
    generate_channel,
    received_pilot_signal,
    sigma2_from_snr,
)
from .numerics import RandomStream, draw_cn
from .optimizer import (
    INIT_KINDS,
    _check_pilots,
    analytic_wsmse,
    construct_pilots,
    init_pilots,
    optimize_pilots,
    proposed_estimator,
)

NOISE_STREAM_OFFSET = 2**32
INIT_STREAM_ID = 2**33

ALGORITHMS = ("proposed", "conventional")
MODES = (*ALGORITHMS, "both")

# Relative distance to a run's final objective at which
# ``updates_to_converge`` counts the run as settled.
FINAL_OBJECTIVE_RTOL = 1e-6

# Bytes of one chunk's draws ``Z`` and Gram matrices ``R`` together: 31
# trials at the desk profile (M=32, K=8, N=4), 1 at M=128, K=32, N=16.
# 1 MiB chunks (124 and 7 trials) were no faster on a 2-core box and
# raised a run's peak RSS by 1.1 MB (desk) and 1.9 MB (paper).
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
        self.trials = _as_index(self.trials, "trials", 1, NOISE_STREAM_OFFSET)
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
    """``Z = [h, white]`` of trials ``start .. stop - 1``, ``(trials, antennas, K + N)``.

    Each trial's channel fills its first ``users`` columns and its
    unit-variance noise the last ``pilot_len``.
    """
    k = cfg.users
    z = np.empty((stop - start, cfg.antennas, k + cfg.pilot_len), dtype=np.complex128)
    for i, t in enumerate(range(start, stop)):
        z[i, :, :k] = generate_channel(cfg, RandomStream(seed, t))
        z[i, :, k:] = draw_cn(
            RandomStream(seed, NOISE_STREAM_OFFSET + t), cfg.antennas, cfg.pilot_len
        )
    return z


def _trials_per_chunk(cfg):
    """Trials whose draws ``Z`` and Gram matrices ``R`` fit in ``CHUNK_BYTES``."""
    width = cfg.users + cfg.pilot_len
    return max(1, CHUNK_BYTES // (16 * width * (cfg.antennas + width)))


def trial_errors(cfg, x, b, seed, t):
    """Per-user normalized squared error of one seeded trial.

    Trial ``t`` draws the channel from stream ``t`` and the noise from
    stream ``t + 2**32``, forms the received training block on pilots
    ``x``, estimates the channel as ``y @ b`` and returns each user's
    squared error divided by ``antennas * g_k``. It sees the same draws
    as trial ``t`` of :func:`run_monte_carlo` but shares none of its
    algebra, so it is the direct check of that engine. ``seed`` must be
    an integer >= 0 and ``t`` one in ``[0, 2**32)``, so that no trial
    draws from another's noise stream.
    """
    x, b = _check_pilots(x, cfg), _check_pilots(b, cfg, name="b")
    seed = _as_index(seed, "seed", 0)
    t = _as_index(t, "t", 0, NOISE_STREAM_OFFSET - 1)
    z = _draws(cfg, seed, t, t + 1)[0]
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


def _evaluate(points, trials, seed):
    """Per-trial WSMSE ``(points, trials)`` and per-user means ``(points, users)``.

    Every point must have the dimensions and gains of the first; they
    may differ in noise variance, pilots and estimator matrix ``b``.
    Trials ``0 .. trials - 1`` are drawn chunk by chunk and each forms
    its Gram matrix ``R = Z^H Z`` once. Every point then takes one dot
    product per trial, each reduced along its own row, so its values do
    not depend on the other points or on the chunk a trial falls in. The
    per-user means are quadratic forms ``F_k^H (sum_t R_t) F_k``.
    """
    shape = points[0][0]
    step = _trials_per_chunk(shape)
    maps = [_error_map(cfg, x, b) for cfg, x, b in points]
    weights = [_trial_weight(cfg, f) for (cfg, _, _), f in zip(points, maps)]
    per_trial = np.empty((len(points), trials))
    total = 0.0
    for start in range(0, trials, step):
        stop = min(start + step, trials)
        z = _draws(shape, seed, start, stop)
        gram = z.conj().transpose(0, 2, 1) @ z
        total = total + gram.sum(axis=0)
        flat = gram.reshape(stop - start, -1).view(np.float64)
        for p, w in enumerate(weights):
            per_trial[p, start:stop] = (flat * w).sum(axis=1)

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
        reports.append(
            WsmseReport(
                wsmse=float(wsmse.mean()),
                per_user=per_user,
                stderr=stderr,
                trials=trials,
            )
        )
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
    trials = _as_index(trials, "trials", 1, NOISE_STREAM_OFFSET)
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
    if not np.isfinite(stderr) or stderr == 0.0:
        return
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

    All points of one pilot length are designed first, then evaluated
    on the same Monte Carlo draws with the estimator matrices the
    designs built; each row equals its own :func:`run_monte_carlo`.
    Pilots that do not depend on the noise variance are designed once
    per pilot length, at its first SNR point.
    """
    rows = []
    for n in ecfg.pilot_lens:
        points = []
        shared = {}
        for snr_db in ecfg.snr_db_list:
            cfg = ecfg.point(snr_db, n)
            for algorithm in ecfg.algorithms:
                design = design_pilots(algorithm, cfg, ecfg, shared.get(algorithm))
                if design[3] is None:  # no optimizer ran, no sigma2 in the pilots
                    shared[algorithm] = design[0]
                points.append((snr_db, cfg, algorithm, *design))
        reports = _monte_carlo(
            [(cfg, x, b) for _, cfg, _, x, b, _, _ in points], ecfg.trials, ecfg.seed
        )
        for (snr_db, cfg, algorithm, _, _, ana, trace), emp in zip(points, reports):
            label = f"{algorithm} @ {snr_db} dB"
            _consistency_gate(label, ana.wsmse, emp.wsmse, emp.stderr)
            rows.append(
                SweepRow(
                    snr_db=snr_db,
                    n=cfg.pilot_len,
                    algorithm=algorithm,
                    wsmse_analytic=ana.wsmse,
                    wsmse_empirical=emp.wsmse,
                    stderr=emp.stderr,
                    trials=ecfg.trials,
                    sweeps=None if trace is None else trace.sweeps_completed,
                )
            )
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
