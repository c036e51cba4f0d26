"""Dense complex Hermitian kernels and reproducible Gaussian streams.

Everything downstream of this module manipulates small complex matrices
(dimensions of at most a few hundred), so the routines here favor exact
contracts and determinism over large-scale performance:

* eigenvectors carry a fixed phase convention so repeated runs are
  bit-identical,
* Hermitian solves go through a factorization (numpy's LU solve) rather
  than explicit inverse entries, and check the singularity floor with
  Gershgorin's discs first: only a stack whose discs reach near the floor
  runs the eigensolve, which the Gram matrices of the constructed design
  and of the equal-gain reuse frame never do,
* random draws are pure functions of a ``(seed, stream_id)`` pair, so a
  Monte Carlo run's draws do not depend on which other runs came before
  it. They come from the standard library's ``random.Random``, which
  keeps ``numpy.random`` and the ``hashlib``/OpenSSL modules it loads
  out of the process: a run needs only a few thousand normals and
  gammas.
"""

import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericalError, SingularMatrixError

# Hermitian inputs are built as X*diag*X^H + sigma^2*I, so any asymmetry
# beyond rounding, relative to the largest entry, indicates caller error.
HERMITIAN_TOL = 1e-10

# Relative eigenvalue floor below which a matrix is treated as singular.
SINGULARITY_FLOOR = 1e-12


@dataclass(frozen=True)
class RandomStream:
    """Named substream of a deterministic random source.

    :meth:`generator` returns a fresh standard-library ``random.Random``
    (MT19937) seeded with the string ``"seed/stream_id"``, which the
    standard library expands with SHA-512 into the generator's key. The
    string is injective in the pair, so distinct pairs, such as ``(1,
    23)`` and ``(12, 3)``, key distinct streams, and identical pairs
    produce identical draw sequences on every run and in any call order.
    Both fields are stored as Python ints (``operator.index``), so equal
    instances key the same stream; a float raises ``TypeError`` and a
    negative value :class:`~pilotopt.errors.ContractViolation`.
    Instances are immutable.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = operator.index(getattr(self, name))
            if value < 0:
                raise ContractViolation(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, value)

    def generator(self):
        return random.Random(f"{self.seed}/{self.stream_id}")


def complex_normals(rng, count):
    """``count`` i.i.d. CN(0, 1) entries drawn from the ``random.Random`` ``rng``.

    Entry ``i`` is ``(a + ib)/sqrt(2)`` with ``a`` and ``b`` the standard
    normals ``rng.gauss`` gives as draws ``2i`` and ``2i + 1``, so the
    complex variance is exactly 1. The draws are ``gauss``'s Box-Muller
    pairs in vector form, bit for bit: each pair takes two ``random()``
    values, made here from the 32-bit words of one ``getrandbits`` call
    in the order ``random()`` consumes them, and ``log``, ``cos`` and
    ``sin`` come from :mod:`math`, as in ``gauss``. A pending
    ``rng.gauss_next`` is the first draw, and ``rng`` is left in the state
    ``2 * count`` calls of ``gauss`` leave it in.
    """
    # getrandbits fills its integer from the least significant word up, so
    # the little-endian words are the generator's outputs in order: two per
    # random(), as (a >> 5) * 2**26 + (b >> 6) over 2**53
    words = np.frombuffer(rng.getrandbits(128 * count).to_bytes(16 * count, "little"),
                          "<u4").reshape(count, 2, 2)
    uniforms = ((words[..., 0] >> 5) * 67108864.0 + (words[..., 1] >> 6)) / 9007199254740992.0
    x2pi = (uniforms[:, 0] * (2.0 * math.pi)).tolist()
    radius = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - uniforms[:, 1]).tolist()),
                                        np.float64, count))
    parts = np.empty((count, 2))
    parts[:, 0] = np.fromiter(map(math.cos, x2pi), np.float64, count) * radius
    parts[:, 1] = np.fromiter(map(math.sin, x2pi), np.float64, count) * radius
    parts = parts.ravel()
    if rng.gauss_next is not None:
        # the pending draw comes first and the last pair's second is left over
        parts = np.concatenate(([rng.gauss_next], parts))
        rng.gauss_next = float(parts[-1])
        parts = parts[:-1]
    # gauss returns mu + z * sigma: + 0.0 turns a -0.0 into 0.0
    parts += 0.0
    # numpy divides a complex by a real as a product with the reciprocal,
    # so scaling by 1/sqrt(2) gives the bits of (a + ib)/sqrt(2)
    parts *= 1.0 / np.sqrt(2.0)
    return parts.view(np.complex128)


def draw_cn(stream, rows, cols):
    """Draw a ``rows x cols`` matrix of i.i.d. CN(0, 1) entries.

    The entries are :func:`complex_normals` of ``stream.generator()``,
    row by row, so the result is a pure function of ``(stream.seed,
    stream.stream_id)``.
    """
    return complex_normals(stream.generator(), rows * cols).reshape(rows, cols)


def _require_hermitian(h, name):
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise ContractViolation(f"{name} must be square, got shape {h.shape}")
    h = h.astype(np.complex128, copy=False)
    asym = np.max(np.abs(h - h.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
    mags = np.abs(h)
    scale = np.max(mags, axis=(-2, -1), initial=0.0)
    for asym, scale in zip(np.ravel(asym).tolist(), np.ravel(scale).tolist()):
        if asym > HERMITIAN_TOL * scale:
            raise ContractViolation(
                f"{name} is not Hermitian: max |h - h^H| = {asym:.3e} "
                f"exceeds {HERMITIAN_TOL:.0e} times max |h| = {scale:.3e}"
            )
    return h, mags


def unitary_dft(n):
    """Unitary ``n``-point DFT matrix, ``exp(-2 pi i j l / n) / sqrt(n)`` at ``(j, l)``."""
    omegas = np.exp(-2j * np.pi * np.arange(n) / n).reshape(-1, 1)
    return omegas ** np.arange(n) / np.sqrt(n)


def _normalize_phases(vectors):
    """Rotate each column so its pivot entry is real positive.

    The pivot is the first entry within 1e-9 relative of the column's
    largest magnitude, so rounding cannot pick it among tied entries.
    """
    v = vectors.copy()
    mags = np.abs(v)
    idx = np.argmax(mags >= (1.0 - 1e-9) * mags.max(axis=0), axis=0)
    cols = np.arange(v.shape[1])
    # unit eigenvectors always have a nonzero pivot
    phases = v[idx, cols] / mags[idx, cols]
    v *= phases.conj()[np.newaxis, :]
    return v


def hermitian_eig(h):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending
    and column ``j`` of ``eigenvectors`` the unit eigenvector paired
    with eigenvalue ``j``. Each eigenvector is phase-rotated so that its
    pivot, the first component within 1e-9 relative of the column's
    largest magnitude, is real positive (see ``_normalize_phases``).
    This pins the otherwise arbitrary phase, also when components tie
    in magnitude, and makes outputs reproducible.
    """
    h, _ = _require_hermitian(h, "h")
    if h.ndim != 2:
        raise ContractViolation(f"h must be one matrix, got shape {h.shape}")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise NumericalError(f"Hermitian eigendecomposition failed: {exc}") from exc
    return w, _normalize_phases(v)


def require_nonsingular(w, name):
    """Check the ascending eigenvalues ``w`` of the matrix called ``name``.

    Raises :class:`SingularMatrixError` unless ``w[-1] > 0`` and
    ``w[0] > 1e-12 * w[-1]``, each ``w[..., :]`` of a stack's in turn.
    """
    for low, high in zip(np.ravel(w[..., 0]).tolist(), np.ravel(w[..., -1]).tolist()):
        if high <= 0 or low <= SINGULARITY_FLOOR * high:
            raise SingularMatrixError(
                f"{name} is singular or not positive definite: smallest eigenvalue "
                f"{low:.6e} vs largest {high:.6e}"
            )


def inv_sqrt_psd(h):
    """Inverse principal square root of a Hermitian positive definite matrix.

    The result ``r`` satisfies ``r @ h @ r == I`` and is itself
    Hermitian. Raises :class:`SingularMatrixError` when the smallest
    eigenvalue falls below ``1e-12`` times the largest.
    """
    w, v = hermitian_eig(h)
    require_nonsingular(w, "h")
    r = (v / np.sqrt(w)) @ v.conj().T
    return 0.5 * (r + r.conj().T)


def solve_hermitian(a, b):
    """Solve ``a @ x = b`` for Hermitian positive definite ``a``.

    Raises :class:`SingularMatrixError` when the smallest eigenvalue of
    ``a`` falls below ``1e-12`` times the largest, then solves by LU
    factorization (``numpy.linalg.solve``): on this package's Gram
    matrices its residual is as small as a Cholesky solve's (< 4e-16).
    A stack ``a`` is solved matrix by matrix, each with its own bits.

    The eigenvalues are computed only when Gershgorin's discs cannot
    prove the floor. Each matrix's eigenvalues lie in ``[lo, hi]``, the
    least and greatest ``Re a_ii -/+ sum_{j != i} |a_ij|``, read from the
    lower triangle as ``eigvalsh`` reads it; when every matrix of the
    stack has ``lo > 1e-10 * hi`` the check is skipped, and otherwise
    (NaN and inf entries included) ``eigvalsh`` runs on the whole stack.
    """
    a, mags = _require_hermitian(a, "a")
    b = np.asarray(b, dtype=np.complex128)
    rows = b.shape[0] if b.ndim == 1 else b.shape[-2]
    if rows != a.shape[-2]:
        raise ContractViolation(f"b has {rows} rows but a is {a.shape[-2]}x{a.shape[-1]}")
    # eigvalsh is backward stable: its eigenvalues are within a small multiple
    # of n * eps * hi of the true ones, far inside the 99e-12 * hi that the
    # 100-fold margin over the floor leaves; a NaN or overflowed bound fails
    # the comparison, and the eigensolve runs
    lower = np.tril(mags, -1)
    centers = a.diagonal(0, -2, -1).real
    with np.errstate(all="ignore"):
        radii = lower.sum(-1) + lower.sum(-2)
        lo = np.min(centers - radii, axis=-1, initial=np.inf)
        hi = np.max(centers + radii, axis=-1, initial=-np.inf)
    # an empty a takes the eigensolve too, and fares as it always has
    if not (a.size and np.all(lo > 100 * SINGULARITY_FLOOR * hi)):
        require_nonsingular(np.linalg.eigvalsh(a), "a")
    if b.ndim > 1:  # numpy < 2 reads a matrix b beside a stack a as vectors
        b = np.broadcast_to(b, np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + b.shape[-2:])
    return np.linalg.solve(a, b)
