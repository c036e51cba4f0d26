import random
import re

import numpy as np
import pytest

from pilotopt import (
    ContractViolation,
    RandomStream,
    SingularMatrixError,
    draw_cn,
    hermitian_eig,
    inv_sqrt_psd,
    solve_hermitian,
)
from pilotopt.harness import INIT_STREAM_ID, MAX_TRIALS
from pilotopt.numerics import complex_normals, require_nonsingular, unitary_dft


def random_hermitian(n, seed):
    z = draw_cn(RandomStream(seed, 0), n, n)
    return 0.5 * (z + z.conj().T)


def random_hpd(n, seed, floor=0.1):
    z = draw_cn(RandomStream(seed, 1), n, n)
    return z @ z.conj().T + floor * np.eye(n)


def outcome(solve, a, b):
    """The bytes ``solve(a, b)`` returns, or the type and message of what it raises."""
    try:
        return solve(a, b).tobytes()
    except (SingularMatrixError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def eigensolve_route(a, b):
    """The floor checked on every matrix's eigenvalues, then the LU solve."""
    require_nonsingular(np.linalg.eigvalsh(a), "a")
    return np.linalg.solve(a, b)


@pytest.fixture
def eigensolves(monkeypatch):
    """The shapes ``numpy.linalg.eigvalsh`` is called with, in order."""
    calls = []
    inner = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v @ v.conj().T, np.eye(3))

    def test_real_symmetric_2x2(self):
        w, v = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [1.0, 3.0])
        lo = np.array([1.0, -1.0]) / np.sqrt(2.0)
        hi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(np.vdot(v[:, 0], lo)) > 1 - 1e-12
        assert abs(np.vdot(v[:, 1], hi)) > 1 - 1e-12

    def test_reconstruction_random_4x4(self):
        h = random_hermitian(4, seed=11)
        w, v = hermitian_eig(h)
        rebuilt = (v * w) @ v.conj().T
        rel = np.linalg.norm(rebuilt - h) / np.linalg.norm(h)
        assert rel < 1e-9

    def test_eigenpairs_and_orthonormality(self):
        for seed in range(8):
            n = 2 + seed
            h = random_hermitian(n, seed=100 + seed)
            w, v = hermitian_eig(h)
            assert np.all(np.diff(w) >= 0)
            scale = max(np.abs(w).max(), 1.0)
            assert np.max(np.abs(h @ v - v * w)) / scale < 1e-9
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-9

    def test_phase_convention(self):
        h = random_hermitian(5, seed=3)
        _, v = hermitian_eig(h)
        for j in range(5):
            pivot = v[np.argmax(np.abs(v[:, j])), j]
            assert pivot.imag == pytest.approx(0.0, abs=1e-14)
            assert pivot.real > 0
        # a circulant Hermitian matrix has DFT columns as eigenvectors,
        # whose entries all have magnitude 1/sqrt(n): the first one is
        # the pivot, not whichever rounding makes largest
        n = 16
        row = draw_cn(RandomStream(4, 0), 1, n)[0]
        row = 0.5 * (row + np.roll(row[::-1], 1).conj())
        circulant = np.array([np.roll(row, j) for j in range(n)])
        _, v = hermitian_eig(circulant)
        assert np.allclose(np.abs(v), 1 / np.sqrt(n), atol=1e-12)
        assert np.max(np.abs(v[0].imag)) < 1e-14
        assert np.all(v[0].real > 0)

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ContractViolation):
            hermitian_eig(bad)

    def test_rejects_non_square(self):
        with pytest.raises(ContractViolation):
            hermitian_eig(np.ones((2, 3)))

    def test_hermitian_check_scales_with_the_matrix(self):
        # Hermitian to rounding, but its asymmetry (about 1e-9) exceeded the
        # former absolute 1e-10
        x = draw_cn(RandomStream(4, 0), 16, 32)
        h = 1e6 * (x * np.linspace(0.1, 1.0, 32)) @ x.conj().T + np.eye(16)
        assert np.max(np.abs(h - h.conj().T)) > 1e-10
        w, _ = hermitian_eig(h)
        assert np.all(w > 0)
        assert np.linalg.norm(h @ solve_hermitian(h, np.ones(16)) - 1.0) < 1e-9 * 16

    def test_rejects_small_non_hermitian(self):
        # its whole asymmetry lies below the former absolute 1e-10, and the
        # singularity check reads only the lower triangle
        bad = np.array([[1e-12, 5e-11], [0.0, 1e-12]])
        with pytest.raises(ContractViolation, match="not Hermitian"):
            hermitian_eig(bad)
        with pytest.raises(ContractViolation, match="not Hermitian"):
            solve_hermitian(bad, np.ones(2))


class TestUnitaryDft:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 32, 33])
    def test_matches_fft_frame(self, n):
        frame = np.fft.fft(np.eye(n)) / np.sqrt(n)
        assert np.max(np.abs(unitary_dft(n) - frame)) < 1e-14


class TestInvSqrtPsd:
    def test_identity(self):
        assert np.allclose(inv_sqrt_psd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        r = inv_sqrt_psd(np.diag([1.0, 4.0]))
        assert np.allclose(r, np.diag([1.0, 0.5]))

    def test_random_pd_inverts_after_squaring(self):
        h = random_hpd(6, seed=21)
        r = inv_sqrt_psd(h)
        assert np.max(np.abs(r @ h @ r - np.eye(6))) < 1e-8
        assert np.max(np.abs(r @ r @ h - np.eye(6))) < 1e-8
        assert np.max(np.abs(r - r.conj().T)) < 1e-12

    def test_commutes_with_input(self):
        for seed in range(5):
            h = random_hpd(4, seed=40 + seed)
            r = inv_sqrt_psd(h)
            assert np.max(np.abs(r @ h - h @ r)) < 1e-8

    def test_singular_raises_with_eigenvalue(self):
        h = np.diag([1.0, 1e-14])
        with pytest.raises(SingularMatrixError, match=r"smallest eigenvalue 1\.000000e-14 "):
            inv_sqrt_psd(h)


class TestSolveHermitian:
    def test_identity(self):
        b = draw_cn(RandomStream(1, 0), 4, 2)
        assert np.allclose(solve_hermitian(np.eye(4), b), b)

    def test_diagonal(self):
        x = solve_hermitian(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_residual_random(self):
        for seed in range(5):
            a = random_hpd(8, seed=60 + seed)
            b = draw_cn(RandomStream(seed, 5), 8, 3)
            x = solve_hermitian(a, b)
            assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-9

    def test_singular_raises(self, eigensolves):
        # the discs cannot prove the floor: the eigensolve runs and raises
        for low in (0.0, 1e-13):
            message = (f"a is singular or not positive definite: smallest eigenvalue {low:.6e} "
                       "vs largest 1.000000e+00")
            with pytest.raises(SingularMatrixError, match=f"^{re.escape(message)}$"):
                solve_hermitian(np.diag([1.0, low]), np.ones(2))
        assert eigensolves == [(2, 2)] * 2

    @pytest.mark.parametrize("low, calls", [(1e-11, 1), (1e-9, 0)])
    def test_discs_above_the_margin_skip_the_eigensolve(self, low, calls, eigensolves):
        # 1e-11 clears the floor but not the discs' 1e-10 margin; 1e-9 clears both
        a, b = np.diag([1.0, low]), np.ones(2)
        assert solve_hermitian(a, b).tobytes() == np.linalg.solve(a, b + 0j).tobytes()
        assert len(eigensolves) == calls

    def test_stack_names_its_singular_member(self, eigensolves):
        # one member's discs prove the floor, the other's cannot: the whole
        # stack takes the eigensolve, which names the singular member
        a = np.stack([2.0 * np.eye(2), np.diag([1.0, 1e-14])])
        with pytest.raises(SingularMatrixError, match=r"smallest eigenvalue 1\.000000e-14 "
                                                      r"vs largest 1\.000000e\+00$"):
            solve_hermitian(a, np.ones((2, 2, 1)))
        assert eigensolves == [(2, 2, 2)]

    @pytest.mark.parametrize("entry", [(1, 1), (1, 0)], ids=["diagonal", "off-diagonal"])
    def test_nan_entry_takes_the_eigensolve(self, entry, eigensolves):
        a, b = np.eye(3, dtype=complex), np.ones(3, dtype=complex)
        a[entry] = a[entry[::-1]] = np.nan
        assert outcome(solve_hermitian, a, b) == outcome(eigensolve_route, a, b)
        assert len(eigensolves) == 2

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            solve_hermitian(np.eye(3), np.ones(4))

    def test_stack_equals_single_solves(self):
        # against one b or a stack of them, each solution is that matrix's
        # own solve bit for bit
        a = np.stack([random_hpd(8, seed=70 + i) for i in range(3)])
        b = draw_cn(RandomStream(7, 5), 8, 3)
        bs = np.stack([draw_cn(RandomStream(7, 6 + i), 8, 3) for i in range(3)])
        shared, own = solve_hermitian(a, b), solve_hermitian(a, bs)
        for i in range(3):
            assert shared[i].tobytes() == solve_hermitian(a[i], b).tobytes()
            assert own[i].tobytes() == solve_hermitian(a[i], bs[i]).tobytes()
        a[1] = np.diag([1.0] * 7 + [1e-14])
        with pytest.raises(SingularMatrixError, match=r"smallest eigenvalue 1\.000000e-14 "):
            solve_hermitian(a, b)

    def test_stack_members_checked_one_by_one(self):
        # the small member's asymmetry is far below the large member's
        # entries, but not below its own
        bad = np.array([[1e-12, 5e-11], [0.0, 1e-12]])
        with pytest.raises(ContractViolation, match="not Hermitian"):
            solve_hermitian(np.stack([1e6 * np.eye(2), bad]), np.ones((2, 1)))
        with pytest.raises(ContractViolation, match="one matrix"):
            hermitian_eig(np.stack([np.eye(2), np.eye(2)]))


class TestDrawCn:
    def test_moments(self):
        z = draw_cn(RandomStream(7, 0), 1000, 1000)
        assert abs(z.mean()) < 0.005
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.01)
        # real and imaginary parts carry half the variance each
        assert np.var(z.real) == pytest.approx(0.5, rel=0.01)
        assert np.var(z.imag) == pytest.approx(0.5, rel=0.01)

    def test_deterministic(self):
        a = draw_cn(RandomStream(7, 3), 50, 20)
        b = draw_cn(RandomStream(7, 3), 50, 20)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = draw_cn(RandomStream(7, 3), 50, 20)
        b = draw_cn(RandomStream(7, 4), 50, 20)
        assert not np.array_equal(a, b)

    def test_cross_stream_correlation(self):
        # stream 0 feeds the Monte Carlo factor, INIT_STREAM_ID the optimizer's
        # random start; |<a, b>| / n of independent CN(0, 1) draws exceeds
        # 0.01 with probability exp(-n 1e-4) = 5e-5
        for seed, one, other in [(11, 0, 1), (1, 0, INIT_STREAM_ID)]:
            a = draw_cn(RandomStream(seed, one), 100000, 1).ravel()
            b = draw_cn(RandomStream(seed, other), 100000, 1).ravel()
            corr = np.abs(np.vdot(a, b)) / len(a)
            assert corr < 0.01

    @pytest.mark.parametrize("seed, stream_id, rows, cols", [
        (1, 0, 128, 32),
        (1, 2**32 + 1, 128, 16),
        (12345, 7, 33, 5),
        (0, 2**33, 1, 1),
        (9, 4, 0, 3),
    ])
    def test_bits_of_the_complex_formula(self, seed, stream_id, rows, cols):
        # the in-place kernel must keep every bit of (a + ib)/sqrt(2), with
        # a and b the stream's normals taken in pairs, entry by entry
        stream = RandomStream(seed, stream_id)
        rng = stream.generator()
        re, im = np.zeros((rows, cols)), np.zeros((rows, cols))
        for i in range(rows):
            for j in range(cols):
                re[i, j] = rng.gauss(0.0, 1.0)
                im[i, j] = rng.gauss(0.0, 1.0)
        expected = (re + 1j * im) / np.sqrt(2.0)
        z = draw_cn(stream, rows, cols)
        assert z.dtype == np.complex128 and z.shape == (rows, cols)
        assert z.view(np.float64).tobytes() == expected.view(np.float64).tobytes()

    def test_stream_is_value_like(self):
        s = RandomStream(5, 2)
        with pytest.raises(AttributeError):
            s.seed = 6


def _gauss_once(rng):
    rng.gauss(0.0, 1.0)


def _gamma_once(rng):
    rng.gammavariate(7.5, 1.0)


def _pending_negative_zero(rng):
    rng.gauss_next = -0.0


class TestComplexNormals:
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 66, 1128])
    @pytest.mark.parametrize("before", [None, _gauss_once, _gamma_once,
                                        _pending_negative_zero])
    def test_bits_and_state_of_the_gauss_loop(self, count, before):
        # the vector draws are rng.gauss's pairs, bit for bit, and leave the
        # generator where 2 * count gauss calls leave it, pending draw included
        for seed in range(4):
            rng, ref = (RandomStream(seed, 5).generator() for _ in range(2))
            if before is not None:
                before(rng)
                before(ref)
            re, im = np.zeros(count), np.zeros(count)
            for i in range(count):
                re[i] = ref.gauss(0.0, 1.0)
                im[i] = ref.gauss(0.0, 1.0)
            expected = (re + 1j * im) / np.sqrt(2.0)
            z = complex_normals(rng, count)
            assert z.dtype == np.complex128 and z.shape == (count,)
            assert z.view(np.float64).tobytes() == expected.view(np.float64).tobytes()
            assert rng.getstate() == ref.getstate()
            assert type(rng.gauss_next) is type(ref.gauss_next)


class TestRandomStream:
    def test_generator_is_a_fresh_stdlib_generator(self):
        stream = RandomStream(3, 1)
        a = stream.generator()
        assert isinstance(a, random.Random) and a is not stream.generator()

    def test_fields_are_python_ints(self):
        # equal instances key the same stream: "1/1", not "1/True"
        stream = RandomStream(np.int64(1), True)
        assert stream == RandomStream(1, 1) and type(stream.seed) is int
        assert stream.generator().random() == RandomStream(1, 1).generator().random()

    @pytest.mark.parametrize("seed, stream_id, error", [
        (1.0, 0, TypeError),
        (1, 2.0, TypeError),
        (-1, 0, ContractViolation),
        (0, -1, ContractViolation),
    ])
    def test_rejects_non_integer_or_negative_fields(self, seed, stream_id, error):
        with pytest.raises(error):
            RandomStream(seed, stream_id)

    @pytest.mark.parametrize("one, other", [
        ((1, 23), (12, 3)),
        ((0, 1), (1, 0)),
        ((1, 0), (10, 0)),
        ((2, 2**33), (22, 2**32)),
    ])
    def test_key_is_injective(self, one, other):
        # the key is the string "seed/stream_id": pairs that concatenate to
        # the same digits still key different streams
        draws = [RandomStream(*pair).generator().random() for pair in (one, other)]
        assert draws[0] != draws[1]

    def test_gamma_law_at_the_trial_limit(self):
        # the summed factor's first diagonal entry squared is Gamma(T M, 1);
        # at T = 2**32 and the paper's M = 128 the shape is 5.5e11, where
        # the standardized draw has mean 0 and variance 1 (sample variance
        # standard error sqrt(2 / draws))
        shape = float(MAX_TRIALS * 128)
        rng = RandomStream(1, 0).generator()
        draws = 40000
        z = (np.array([rng.gammavariate(shape, 1.0) for _ in range(draws)]) - shape)
        z /= np.sqrt(shape)
        assert abs(z.mean()) <= 5 / np.sqrt(draws)
        assert abs(z.var() - 1.0) <= 5 * np.sqrt(2.0 / draws)
