"""System configuration, channel statistics, the uplink pilot signal and input files.

The physical setup: a base station with ``antennas`` receive antennas
serves ``users`` single-antenna terminals. During training, every user
transmits a known pilot sequence of ``pilot_len`` symbols; the base
station observes the superposition of all users' pilots through their
channels plus additive noise and estimates the per-user channel vectors.
The error map of a linear estimate ``y @ b`` is formed here once per point,
and the analytic WSMSE, the Monte Carlo engine and its standard error read it.
"""

import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .numerics import draw_cn


def _as_index(value, name, low=None, high=None):
    """``value`` as a Python int in ``[low, high]``; a float, even a whole one, is rejected."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ConfigurationError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ConfigurationError(f"{name} must be <= {high}, got {value}")
    return value


def _as_per_user(value, count, name):
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(count, float(arr))
    if arr.shape != (count,):
        raise ConfigurationError(
            f"{name} must be a scalar or a length-{count} sequence, got shape {arr.shape}"
        )
    return arr


def _as_dimensions(antennas, users, pilot_len):
    """``(antennas, users, pilot_len)`` as positive ints whose arrays fit the address space."""
    antennas = _as_index(antennas, "antennas")
    users = _as_index(users, "users")
    pilot_len = _as_index(pilot_len, "pilot_len")
    if antennas < 1 or users < 1 or pilot_len < 1:
        raise ConfigurationError(
            f"dimensions must be positive, got antennas={antennas}, "
            f"users={users}, pilot_len={pilot_len}"
        )
    # the largest arrays, the Monte Carlo engine's square Bartlett factor
    # and a channel draw or received block of antennas rows, have at most
    # users + pilot_len columns of complex entries
    side = users + pilot_len
    if 16 * side * max(side, antennas) > np.iinfo(np.intp).max:
        raise ConfigurationError(
            f"dimensions are too large: {max(side, antennas)} x {side} "
            "complex arrays exceed the address space"
        )
    return antennas, users, pilot_len


@dataclass(eq=False)
class SystemConfig:
    """Dimensions and statistics of one training scenario.

    Parameters
    ----------
    antennas : int
        Base station antenna count (M).
    users : int
        Number of single-antenna users (K).
    pilot_len : int
        Pilot sequence length in symbol periods (N); may be smaller,
        equal to, or larger than ``users``.
    sigma2 : float
        Noise variance per received sample, linear scale.
    powers : float or array_like
        Per-user total pilot energy budget across the whole sequence
        (the constraint is on the squared norm of the length-N pilot
        vector, not on per-symbol power). Scalars broadcast to all users.
    gains : float or array_like
        Per-user average path-loss gains, all positive. Scalars broadcast.

    Raises
    ------
    ConfigurationError
        For invalid values, and for a scenario whose algebra would leave
        the float range: ``2 (sum_k g_k P_k + sigma2)``, ``pilot_len /
        sigma2`` and ``1 / (users * antennas * g_k)`` must be finite. The
        dimensions must leave the largest arrays, ``max(antennas, users +
        pilot_len) x (users + pilot_len)`` complex, in the address space.
    """

    antennas: int
    users: int
    pilot_len: int
    sigma2: float
    powers: np.ndarray = field(default=1.0)
    gains: np.ndarray = field(default=1.0)

    def __post_init__(self):
        dims = _as_dimensions(self.antennas, self.users, self.pilot_len)
        self.antennas, self.users, self.pilot_len = dims
        self.sigma2 = float(self.sigma2)
        if not np.isfinite(self.sigma2) or self.sigma2 < 0:
            raise ConfigurationError(f"sigma2 must be finite and >= 0, got {self.sigma2}")
        self.powers = _as_per_user(self.powers, self.users, "powers")
        self.gains = _as_per_user(self.gains, self.users, "gains")
        if not np.all(np.isfinite(self.powers)) or np.any(self.powers <= 0):
            raise ConfigurationError("all per-user powers must be finite and > 0")
        if not np.all(np.isfinite(self.gains)) or np.any(self.gains <= 0):
            raise ConfigurationError("all path-loss gains must be finite and > 0")
        # the algebra stays in the float range: every entry of the pilot Gram
        # matrix A is at most sum_k g_k P_k + sigma2 and its symmetrization
        # adds two of them, tr(A^-1) <= pilot_len / sigma2, and the WSMSE
        # weighs user k by 1 / (users * antennas * g_k)
        with np.errstate(over="ignore"):
            entry_bound = float(np.sum(self.gains * self.powers)) + self.sigma2
        if math.isinf(2.0 * entry_bound):
            _mean_power(self.powers)  # powers whose mean overflows say so first
            raise ConfigurationError(
                "powers and gains are too large: 2 * (sum_k g_k P_k + sigma2) "
                "overflows in the pilot Gram matrix"
            )
        if self.sigma2 > 0 and math.isinf(self.pilot_len / self.sigma2):
            raise ConfigurationError(
                f"sigma2 {self.sigma2} is too small: pilot_len / sigma2 overflows"
            )
        weight = 1.0 / (self.users * self.antennas * float(self.gains.min()))
        if math.isinf(weight):
            raise ConfigurationError(
                "gains are too small: the WSMSE weight 1 / (users * antennas * g_k) "
                "overflows"
            )


@dataclass(eq=False)
class WsmseReport:
    """Normalized weighted-sum MSE and its per-user terms.

    ``wsmse`` is the weighted sum MSE divided by (users * antennas), so
    ``per_user`` holds each user's MSE per channel coefficient divided
    by that user's gain and ``wsmse`` is their mean, exactly
    ``float(np.mean(per_user))``. ``stderr`` is ``None`` on analytic
    evaluations; on ``T`` Monte Carlo trials it is the exact standard
    error of the mean, :func:`_error_law`'s ``sd / sqrt(T)``.
    """

    wsmse: float
    per_user: np.ndarray
    stderr: float | None = None


def reference_gains():
    """Return the bundled 32-user path-loss gain table.

    The values come from an 8x4 gain matrix vectorized column by column
    (column 1 top to bottom, then column 2, and so on); all entries lie
    strictly between 0 and 1. The table is the gains file
    ``pilotopt/data/gains32.txt`` next to this module, read by
    :func:`load_gains`, so the package must be installed as a directory
    (a checkout, an editable install or a wheel), not imported from a zip.
    """
    return load_gains(os.path.join(os.path.dirname(__file__), "data", "gains32.txt"))


def load_gains(path):
    """Read a gains or power file: one decimal value per line, '#' comments allowed.

    Raises :class:`ConfigurationError` naming the file and the line of an
    entry that is not one number, or the file when it is not UTF-8 text or
    holds no values.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise ConfigurationError(f"{path}: file is not UTF-8 text") from None
    for number, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise ConfigurationError(
                f"{path} line {number}: expected one number, got {text!r}"
            ) from None
    if not values:
        raise ConfigurationError(f"{path}: file contains no values")
    return np.asarray(values, dtype=np.float64)


def generate_channel(cfg, stream):
    """Draw one channel realization, shape ``(antennas, users)``.

    Column k is ``sqrt(gains[k])`` times an i.i.d. CN(0, 1) vector, so
    each coefficient has average power ``gains[k]``; columns are
    independent. Deterministic given ``(cfg, stream)``.
    """
    white = draw_cn(stream, cfg.antennas, cfg.users)
    return white * np.sqrt(cfg.gains)[np.newaxis, :]


def received_pilot_signal(h, x, noise):
    """Received training block: channel times conjugated pilots plus noise.

    ``h`` is ``(antennas, users)``, ``x`` is ``(pilot_len, users)`` with
    one pilot sequence per column, ``noise`` is ``(antennas, pilot_len)``.
    Returns ``h @ x.conj().T + noise``.
    """
    h = np.asarray(h)
    x = np.asarray(x)
    noise = np.asarray(noise)
    if h.ndim != 2 or x.ndim != 2 or noise.ndim != 2:
        raise ContractViolation("h, x, noise must all be 2-D arrays")
    if h.shape[1] != x.shape[1]:
        raise ContractViolation(
            f"h has {h.shape[1]} users but x has {x.shape[1]} pilot columns"
        )
    if noise.shape != (h.shape[0], x.shape[0]):
        raise ContractViolation(
            f"noise shape {noise.shape} does not match (antennas, pilot_len) = "
            f"({h.shape[0]}, {x.shape[0]})"
        )
    return h @ x.conj().T + noise


def check_received(y, cfg):
    """Return ``y`` as an array after checking it is one training block.

    Raises :class:`ContractViolation` unless its shape is
    ``(antennas, pilot_len)``.
    """
    y = np.asarray(y)
    if y.shape != (cfg.antennas, cfg.pilot_len):
        raise ContractViolation(
            f"y shape {y.shape} does not match (antennas, pilot_len)"
        )
    return y


def _error_maps(designs, cfg, sigma2):
    """``D^(1/2) F``, ``F = [x^H b - I; sqrt(sigma2) b]``, of each point, in long double.

    With ``D = diag(g, 1_N)``, rows ``Z = [h, white]`` have the error ``Z F``
    under the estimate ``y @ b``. Each ``(x, b)`` design has a ``b`` per row
    of the column ``sigma2`` and ``x`` shared or one per row; the maps run
    row by row, the designs within.
    """
    root = np.sqrt(np.concatenate([cfg.gains, np.ones(cfg.pilot_len)]))[:, None]
    maps = []
    for x, b in designs:
        x, b = x.astype(np.clongdouble), b.astype(np.clongdouble)
        maps.append(root * np.concatenate([x.conj().swapaxes(-1, -2) @ b - np.eye(cfg.users),
                                           np.sqrt(sigma2)[..., None] * b], axis=-2))
    return np.stack(maps, 1).reshape((-1,) + maps[0].shape[1:])


def _error_law(maps, cfg):
    """``(per_user, sd)``, the analytic terms and one trial's sd, of each point's map ``G``.

    A trial's WSMSE is ``sum_m u_m C u_m^H``, ``u_m ~ CN(0, I)``, with ``C = G W
    G^H``, ``W = diag(1 / (K M g))``. ``W^(1/2) H W^(1/2)``, ``H = G^H G`` summed in
    long double and rounded to complex128 once, has ``C``'s nonzero eigenvalues:
    user ``k``'s term is ``H_kk / g_k`` and the sd ``sqrt(M ||C||_F^2)``, taken over
    the largest real or imaginary part of ``W^(1/2) H W^(1/2)`` so that it cannot
    underflow.
    """
    # numpy's long-double np.dot loop, as in the Monte Carlo block, calls no BLAS
    h = np.stack([np.dot(g.conj().T, g) for g in maps]).astype(np.complex128)
    root = np.sqrt(1.0 / (cfg.users * cfg.antennas * cfg.gains))
    parts = (root[:, None] * h * root).reshape(len(h), -1).view(np.float64)
    top = np.abs(parts).max(axis=1)
    scaled = np.divide(parts, top[:, None], out=parts)
    norms = np.sqrt(np.square(scaled, out=scaled).sum(axis=1))
    return h.diagonal(0, -2, -1).real / cfg.gains, top * norms * np.sqrt(cfg.antennas)


def _mean_power(powers):
    """The mean of ``powers``, the reference power of every SNR.

    Raises :class:`ConfigurationError` for powers that are empty, not
    finite or not positive, and for powers whose mean overflows.
    """
    powers = np.asarray(powers, dtype=np.float64)
    if powers.size == 0 or not np.all(np.isfinite(powers)) or np.any(powers <= 0):
        raise ConfigurationError("powers must be non-empty, finite and positive")
    with np.errstate(over="ignore"):
        mean = float(np.mean(powers))
    if math.isinf(mean):
        raise ConfigurationError("powers are too large: their mean overflows")
    return mean


def sigma2_from_snr(snr_db, powers):
    """Noise variance realizing a target SNR in dB.

    SNR is defined as the average per-user power budget divided by the
    noise variance, so ``sigma2 = mean(powers) / 10**(snr_db / 10)``.
    Raises :class:`ConfigurationError` for an SNR that is not finite,
    powers whose mean overflows, and an SNR whose noise variance falls
    outside the positive float range.
    """
    snr_db = float(snr_db)
    if not math.isfinite(snr_db):
        raise ConfigurationError(f"snr_db must be finite, got {snr_db}")
    mean = _mean_power(powers)
    try:
        sigma2 = mean / 10.0 ** (snr_db / 10.0)
    except OverflowError:
        sigma2 = 0.0
    except ZeroDivisionError:
        sigma2 = math.inf
    if not 0.0 < sigma2 < math.inf:
        raise ConfigurationError(
            f"snr_db {snr_db} puts the noise variance outside the float range"
        )
    return sigma2
