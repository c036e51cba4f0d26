"""Monte Carlo experiment drivers: pilot design, trials, sweeps, traces.

Each step has one home: :func:`design_pilots`, the trial kernel
:func:`trial_errors` and the grid driver :func:`sweep_snr`. Trial ``t``
draws its channel from stream id ``t`` and its noise from ``t + 2**32``,
so results are reproducible bit for bit and independent of how trials
are grouped into chunks; the optimizer's random initialization, when
requested, draws from stream id ``2**33``.

A design's estimator is fixed by its pilots, so it is built once and
trials run in chunks, stacked into two matrix products. The noise of a
trial is ``sqrt(sigma2)`` times a white draw, so within one pilot length
every SNR point and both algorithms evaluate the same stacked draws:
:func:`sweep_snr` draws each trial once per pilot length.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .conventional import conventional_estimator, design_reuse_pilots
from .errors import ConfigurationError, NumericalError
from .model import (
    SystemConfig,
    WsmseReport,
    generate_channel,
    received_pilot_signal,
    sigma2_from_snr,
)
from .numerics import RandomStream, draw_cn
from .optimizer import analytic_wsmse, init_pilots, optimize_pilots, proposed_estimator

NOISE_STREAM_OFFSET = 2**32
INIT_STREAM_ID = 2**33

ALGORITHMS = ("proposed", "conventional")

# Relative distance to a run's final objective at which
# ``updates_to_converge`` counts the run as settled.
FINAL_OBJECTIVE_RTOL = 1e-6

# Bytes of stacked channel and noise draws per trial chunk (2 trials at
# M=128, K=32, N=16). 1 MiB chunks were no faster there and raised a
# run's peak RSS by 3.5 MB.
CHUNK_BYTES = 256 * 1024


@dataclass(eq=False)
class ExperimentConfig:
    """One experiment: a base scenario plus sweep axes and run options.

    ``base.sigma2`` is a placeholder; the drivers recompute the noise
    variance from each SNR point. :func:`sweep_snr` sweeps the pilot
    lengths in ``n_list``, or ``base.pilot_len`` alone when it is empty;
    the single-point drivers use ``base.pilot_len``.
    """

    base: SystemConfig
    snr_db_list: list
    n_list: list = field(default_factory=list)
    trials: int = 1000
    seed: int = 12345
    mode: str = "both"
    init: str = "dft-reuse"
    tol: float = 1e-8
    max_sweeps: int = 100

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if not self.snr_db_list:
            raise ConfigurationError("snr_db_list must be non-empty")
        if self.mode != "both" and self.mode not in ALGORITHMS:
            raise ConfigurationError(
                f"mode must be 'both' or one of {ALGORITHMS}, got {self.mode!r}"
            )
        if not np.isfinite(self.tol) or self.tol < 0:
            raise ConfigurationError(f"tol must be finite and >= 0, got {self.tol}")
        if self.max_sweeps < 1:
            raise ConfigurationError("max_sweeps must be >= 1")

    @property
    def algorithms(self):
        """The algorithms ``mode`` runs: both for ``"both"``, else the one named."""
        return ALGORITHMS if self.mode == "both" else (self.mode,)


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


def _check_algorithm(algorithm):
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}"
        )


def _estimator(algorithm, x, cfg):
    """The ``(pilot_len, users)`` estimator matrix of ``algorithm`` on pilots ``x``."""
    _check_algorithm(algorithm)
    if algorithm == "proposed":
        return proposed_estimator(x, cfg)
    return conventional_estimator(x, cfg)


def _draws(cfg, seed, start, stop):
    """Channels and white noise of trials ``start .. stop - 1``, stacked by rows."""
    trials = range(start, stop)
    h = [generate_channel(cfg, RandomStream(seed, t)) for t in trials]
    white = [
        draw_cn(RandomStream(seed, NOISE_STREAM_OFFSET + t), cfg.antennas, cfg.pilot_len)
        for t in trials
    ]
    return np.concatenate(h), np.concatenate(white)


def _trials_per_chunk(cfg):
    """Trials whose stacked complex channel and noise fit in ``CHUNK_BYTES``."""
    return max(1, CHUNK_BYTES // (16 * cfg.antennas * (cfg.users + cfg.pilot_len)))


def _errors(cfg, x, b, h, white):
    """Per-user normalized squared errors of stacked trials, ``(trials, users)``."""
    y = received_pilot_signal(h, x, np.sqrt(cfg.sigma2) * white)
    err = np.abs(y @ b - h) ** 2
    err = err.reshape(-1, cfg.antennas, cfg.users).sum(axis=1)
    return err / (cfg.antennas * cfg.gains)


def trial_errors(cfg, x, algorithm, seed, t):
    """Per-user normalized squared error of one seeded trial.

    Trial ``t`` draws the channel from stream ``t`` and the noise from
    stream ``t + 2**32``, forms the received training block, runs the
    ``algorithm`` estimator and returns each user's squared error
    divided by ``antennas * g_k``. It is the one-trial case of the
    chunked kernel that :func:`run_monte_carlo` and :func:`sweep_snr` run.
    """
    b = _estimator(algorithm, x, cfg)
    return _errors(cfg, x, b, *_draws(cfg, seed, t, t + 1))[0]


def _monte_carlo(points, trials, seed):
    """Empirical WSMSE of each ``(cfg, x, b)`` point on shared draws.

    Every point must have the dimensions and gains of the first; they may
    differ in noise variance, pilots and estimator matrix ``b``. Trials
    ``0 .. trials - 1`` are drawn chunk by chunk, every point is evaluated
    on each chunk, and the errors are folded in trial order.
    """
    shape = points[0][0]
    step = _trials_per_chunk(shape)
    per_trial = np.empty((len(points), trials))
    sums = np.zeros((len(points), shape.users))
    for start in range(0, trials, step):
        stop = min(start + step, trials)
        h, white = _draws(shape, seed, start, stop)
        for p, (cfg, x, b) in enumerate(points):
            err = _errors(cfg, x, b, h, white)
            per_trial[p, start:stop] = err.mean(axis=1)
            sums[p] += err.sum(axis=0)

    reports = []
    for wsmse, total in zip(per_trial, sums):
        if trials > 1:
            stderr = float(wsmse.std(ddof=1) / np.sqrt(trials))
        else:
            stderr = float("nan")
        reports.append(
            WsmseReport(
                wsmse=float(wsmse.mean()),
                per_user=total / trials,
                stderr=stderr,
                trials=trials,
            )
        )
    return reports


def run_monte_carlo(cfg, x, algorithm, trials, seed):
    """Empirical normalized WSMSE of one estimator over seeded trials.

    Runs :func:`trial_errors` for ``t = 0 .. trials - 1``, in chunks of
    stacked trials with the estimator built once. The returned
    :class:`WsmseReport` carries the mean over trials, its standard
    error, and the per-user means. Results depend only on
    ``(cfg, x, algorithm, trials, seed)``.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    return _monte_carlo([(cfg, x, _estimator(algorithm, x, cfg))], trials, seed)[0]


def design_pilots(algorithm, cfg, ecfg):
    """Pilots of one algorithm at one scenario, with estimator and analytic WSMSE.

    Returns ``(x, b, analytic, trace)``: the pilots, the algorithm's
    ``(pilot_len, users)`` estimator matrix, its
    :func:`~pilotopt.optimizer.analytic_wsmse` and the optimizer trace.
    ``proposed`` optimizes from ``ecfg.init`` (random starts draw from
    stream ``2**33``); ``conventional`` reuses the DFT columns and has
    ``None`` for its trace.
    """
    _check_algorithm(algorithm)
    if algorithm == "proposed":
        stream = RandomStream(ecfg.seed, INIT_STREAM_ID)
        x0 = init_pilots(ecfg.init, cfg, stream=stream)
        x, trace = optimize_pilots(cfg, x0, tol=ecfg.tol, max_sweeps=ecfg.max_sweeps)
    else:
        x, trace = design_reuse_pilots(cfg), None
    b = _estimator(algorithm, x, cfg)
    return x, b, analytic_wsmse(x, b, cfg), trace


def _consistency_gate(label, analytic, empirical, stderr):
    if not np.isfinite(stderr) or stderr == 0.0:
        return
    if abs(empirical - analytic) > 4.0 * stderr:
        raise NumericalError(
            f"{label}: empirical WSMSE {empirical:.6g} deviates from analytic "
            f"{analytic:.6g} by more than 4 standard errors ({stderr:.3g})"
        )


def sweep_snr(ecfg):
    """Sweep pilot length, SNR and algorithm.

    Pilot lengths come from ``ecfg.n_list``, or ``base.pilot_len`` when
    it is empty. At every point the noise variance is recomputed from
    the power budgets and each algorithm designs its own pilots. Returns
    one :class:`SweepRow` per (pilot length, SNR, algorithm), proposed
    first when both run; at ``n == users`` both algorithms reduce to
    orthogonal pilots and reach the same analytic WSMSE.

    All points of one pilot length are designed first, then evaluated
    on the same Monte Carlo draws with the estimator matrices the
    designs built; each row equals its own :func:`run_monte_carlo`.
    """
    base = ecfg.base
    rows = []
    for n in ecfg.n_list or [base.pilot_len]:
        points = []
        for snr_db in ecfg.snr_db_list:
            sigma2 = sigma2_from_snr(snr_db, base.powers)
            cfg = replace(base, pilot_len=int(n), sigma2=sigma2)
            for algorithm in ecfg.algorithms:
                design = design_pilots(algorithm, cfg, ecfg)
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

    Runs the pilot optimization at a single SNR from the DFT-reuse,
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
    if len(ecfg.snr_db_list) != 1:
        raise ConfigurationError(
            "convergence_trace expects exactly one SNR point, got "
            f"{len(ecfg.snr_db_list)}"
        )
    snr_db = ecfg.snr_db_list[0]
    cfg = replace(ecfg.base, sigma2=sigma2_from_snr(snr_db, ecfg.base.powers))
    results = []
    for kind in ("dft-reuse", "dft-k", "random"):
        stream = RandomStream(ecfg.seed, INIT_STREAM_ID)
        x0 = init_pilots(kind, cfg, stream=stream)
        _, trace = optimize_pilots(cfg, x0, tol=ecfg.tol, max_sweeps=ecfg.max_sweeps)
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
