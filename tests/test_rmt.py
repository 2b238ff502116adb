import functools
import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

import mfe.rmt as rmt
from mfe.brauer import (
    ColouredBrauerDiagram,
    DimensionFunction,
    Pairing,
    Word,
    WordLetter,
    encode_word,
    square_df,
)
from mfe.evaltrace import STAT_CHUNK, block_slices, m_stat, sample_chunks, \
    total_dim
from mfe.moments import finite_evaluator
from mfe.reference import (
    LieBasis,
    casimir_constant,
    casimir_scalar_check,
    evolve_finite,
    expm,
    identity_diagram,
    inner_product,
    lie_basis,
    sample_terminals,
    unitarity_defect,
)
from mfe.rmt import (
    BETA,
    DEFAULT_STEPS,
    MAX_STEPS,
    SAMPLE_BLOCK,
    estimate_stat,
    estimate_stats,
    kappa,
)
from mfe.rmt import _CHUNK, _REAL_SIDES, _TAYLOR, _chunk_len, _degree, \
    _frobenius, _gaussian_lie, _lie_layout, _mul, _right_factor, \
    _shrink_traceless, _step_layout


def quaternionic_defect(u):
    """Largest entry of J conj(u) J^T - u, J = I_N (x) [[0, 1], [-1, 0]]:
    zero exactly on the complex embeddings of quaternion matrices."""
    j = np.kron(np.eye(u.shape[-1] // 2), [[0.0, 1.0], [-1.0, 0.0]])
    return float(np.abs(j @ u.conj() @ j.T - u).max())


class TestLieBasis:
    def test_cardinalities(self):
        assert len(lie_basis(2, "R")) == 1
        assert len(lie_basis(2, "C")) == 4
        assert len(lie_basis(1, "H")) == 3
        for field in "RCH":
            beta = BETA[field]
            for n in (1, 2, 3, 5):
                want = n * (n - 1) // 2 + (beta - 1) * n * (n + 1) // 2
                assert len(lie_basis(n, field)) == want

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            lie_basis(0, "C")
        with pytest.raises(ValueError):
            lie_basis(2, "Q")

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_orthonormal(self, field):
        for n in (1, 2, 4):
            assert lie_basis(n, field).gram_defect() <= 1e-12

    def test_elements_anti_hermitian(self):
        for h in lie_basis(3, "C"):
            assert np.allclose(h + h.conj().T, 0.0)
        for h in lie_basis(3, "R"):
            assert np.allclose(h + h.T, 0.0)
        for h in lie_basis(2, "H"):
            assert h.shape == (4, 4)
            assert np.allclose(h + h.conj().T, 0.0)
            assert quaternionic_defect(h) == 0.0


class TestCasimir:
    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_scalar_defect(self, field):
        for n in range(1, 9):
            assert casimir_scalar_check(lie_basis(n, field)) <= 1e-12

    def test_complex_constant_is_minus_one(self):
        assert casimir_constant("C", 3) == -1.0

    def test_real_constant(self):
        assert np.isclose(casimir_constant("R", 4), -1.0 + 1.0 / 4)

    def test_quaternion_constant(self):
        assert np.isclose(casimir_constant("H", 2), -1.0 - 1.0 / 4)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_kappa_from_structure_constants(self, field):
        # sum_jk f_ijk^2 over the structure constants
        # f_ijk = <[H_i, H_j], H_k> of lie_basis is kappa times the
        # squared norm of H_i's semisimple part: all of H_i over R and H,
        # its traceless part over C, whose diagonal elements i E_jj
        # carry the centre.  The empty so(1) has kappa 0
        for N in range(1, 6):
            basis = lie_basis(N, field)
            if not len(basis):
                continue
            h = np.array(basis.elements)
            comm = h[:, None] @ h[None] - h[None] @ h[:, None]
            f = lie_coordinates(basis, comm.reshape((-1,) + h.shape[1:]))
            got = (f ** 2).reshape(len(h), -1).sum(axis=1)
            if field == "C":
                h = h - np.trace(h, axis1=1, axis2=2)[:, None, None] / N \
                    * np.eye(N)
            want = [kappa(field, N) * inner_product(field, N, x, x)
                    for x in h]
            assert np.abs(got - want).max() <= 1e-12, (field, N)
        assert kappa("R", 1) == 0.0 and kappa("R", 2) == 0.0
        assert len(lie_basis(1, "R")) == 0


def draw(rng, N, field, samples, scale=1.0):
    """`samples` Gaussian Lie elements times `scale`, drawn as the sampler
    draws them."""
    n = 2 * N if field == "H" else N
    dim, idx, w = _lie_layout(N, field)
    out = np.empty((samples, n, n), dtype=float if field == "R" else complex)
    return _gaussian_lie(rng, (dim, idx, w * scale), out)


def draw_step(rng, N, field, samples, dt):
    """`samples` increments of step dt, drawn as the walk draws them."""
    n = 2 * N if field == "H" else N
    layout, s = _step_layout(N, field, dt)
    out = np.empty((samples, n, n), dtype=float if field == "R" else complex)
    _gaussian_lie(rng, layout, out)
    if s != 1.0:
        _shrink_traceless(out, s)
    return out


def lie_batch(field, N, samples, scale, seed=0):
    return draw(np.random.default_rng(seed), N, field, samples, scale)


def lie_coordinates(basis, x):
    """Coordinates <H_k, X>_N = (beta N / 2) Re Tr(H_k* X) of a batch of
    Lie elements in an orthonormal basis, shape (samples, len(basis));
    the quaternion trace is half the complex one, as in inner_product."""
    h = np.array(basis.elements).reshape((len(basis),) + x.shape[1:])
    c = BETA[basis.field] * basis.N / (4.0 if basis.field == "H" else 2.0)
    return c * np.real(np.einsum("kij,sij->sk", np.conj(h), x))


def norm1(a):
    """1-norm of each matrix of a batch: the largest column sum of
    absolute values, the column sums taken column-major."""
    return functools.reduce(np.maximum, np.einsum("...ij->j...", np.abs(a)))


def powers(a):
    """Frobenius norms, cube and fourth power of a batch, as _degree takes
    them."""
    a2 = a @ a
    return _frobenius(a), a2 @ a, a2 @ a2


def norm_degree(norm):
    """The degree and squarings a test of the norms `norm` alone gives."""
    top = float(norm.max())
    for m, theta in _TAYLOR:
        if top <= theta:
            return m, 0
    return _TAYLOR[-1][0], math.ceil(math.log2(top / _TAYLOR[-1][1]))


def non_normal(dtype, n, norm, samples=40, seed=0):
    """Strictly upper-triangular batches of largest 1-norm `norm` plus a
    diagonal of size 1e-3: alpha is far below the 1-norm."""
    rng = np.random.default_rng(seed)
    a = np.triu(rng.standard_normal((samples, n, n)), 1).astype(dtype)
    if dtype is complex:
        a += 1j * np.triu(rng.standard_normal((samples, n, n)), 1)
    a *= norm / norm1(a).max()
    diag = 1e-3 * rng.standard_normal((samples, n))
    idx = np.arange(n)
    a[:, idx, idx] = 1j * diag if dtype is complex else diag
    return a


class TestExpm:
    # every Taylor degree, the scaling and squaring regime, and batches
    # that span several chunks
    @pytest.mark.parametrize("field", ["R", "C", "H"])
    @pytest.mark.parametrize("scale", [0.0, 1e-3, 0.05, 0.2, 0.5, 1.0, 8.0])
    def test_matches_scipy(self, field, scale):
        for N in (1, 2, 3, 8, 16):
            a = lie_batch(field, N, 40, scale, seed=N)
            want = scipy_expm(a)
            got = expm(a)
            assert got.dtype == a.dtype and got.shape == a.shape
            tol = 1e-14 * max(1.0, float(np.abs(a).sum(axis=-2).max()))
            assert np.abs(got - want).max() <= tol, (field, N, scale)

    def test_chunks_and_single_matrix(self):
        # 16x16 batches are cut into several chunks
        a = lie_batch("C", 16, 600, 0.3)
        assert 600 > 2 * _CHUNK // 16 ** 2
        got = expm(a)
        assert np.abs(got - scipy_expm(a)).max() <= 1e-14
        one = expm(a[500:501])
        assert np.abs(one - got[500:501]).max() <= 1e-14

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("norm", [0.5, 2.0, 8.0])
    def test_non_normal_matches_scipy(self, dtype, norm):
        for n in (2, 3, 4, 8):
            a = non_normal(dtype, n, norm, seed=n)
            got = expm(a)
            tol = 1e-14 * max(1.0, float(norm1(a).max()))
            assert np.abs(got - scipy_expm(a)).max() <= tol, (dtype, n, norm)

    def test_alpha_takes_fewer_squarings(self):
        # at 1-norm 8 the 1-norm test asks for 3 squarings; on sides up
        # to 4 alpha needs none
        for dtype in (float, complex):
            for n in (2, 3, 4):
                a = non_normal(dtype, n, 8.0, seed=n)
                assert norm_degree(norm1(a)) == (20, 3)
                assert _degree(*powers(a))[1] == 0

    def test_degree_8_needs_alpha_3(self):
        # a^4 = 0 makes alpha_4 vanish, but degree 8 needs
        # alpha_3 = max(d_3, d_4), which is past theta_8 here
        rng = np.random.default_rng(5)
        a = np.triu(rng.standard_normal((20, 4, 4)), 1) * 0.5
        norm, a3, a4 = powers(a)
        assert np.abs(a4).max() == 0.0
        assert norm1(a3).max() ** (1 / 3) > _TAYLOR[0][1]
        assert _frobenius(a3).max() ** (1 / 3) > _TAYLOR[0][1]
        assert _degree(norm, a3, a4) == (12, 0)
        assert np.abs(expm(a) - scipy_expm(a)).max() <= 1e-14 * max(
            1.0, float(norm1(a).max()))

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_diagonal_reaches_every_chunk(self, n):
        # e^0 is the identity only if the diagonal term lands in every
        # matrix of every chunk
        samples = 2 * (_CHUNK // n ** 2) + 3
        for dtype in (float, complex):
            got = expm(np.zeros((samples, n, n), dtype=dtype))
            assert np.array_equal(got, np.broadcast_to(np.eye(n), got.shape))

    def test_too_large_norm_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (1e20, np.inf, np.nan):
                a = lie_batch("C", 3, 4, 1.0)
                a[2, 0, 1] = bad
                with pytest.raises(ValueError, match="Frobenius norm"):
                    expm(a)

    # the largest Frobenius norm of a chunk, or its alpha, a relative
    # 1e-6 below and above each theta_m
    @pytest.mark.parametrize("field", ["R", "C", "H"])
    @pytest.mark.parametrize("target", ["norm", "alpha"])
    def test_theta_edges_match_scipy(self, field, target):
        for N in (2, 4):
            a = lie_batch(field, N, 40, 1.0, seed=N)
            assert len(a) <= _chunk_len(a.shape[-1])
            x = _frobenius(a).max() if target == "norm" else alpha(a)
            for i, (m, theta) in enumerate(_TAYLOR):
                got = []
                for side in (1 - 1e-6, 1 + 1e-6):
                    b = a * (theta * side / x)
                    tol = 1e-14 * max(1.0, float(np.abs(b).sum(axis=-2).max()))
                    assert np.abs(expm(b) - scipy_expm(b)).max() <= tol, (
                        field, N, m, side)
                    got.append(_degree(*powers(b)))
                if target == "alpha" and m > 8:
                    # alpha decides from degree 12 on: below theta_m the
                    # chunk takes degree m, above it the next degree, or
                    # past theta_20 one squaring, which halves alpha to
                    # 0.752, within theta_16
                    above = (_TAYLOR[i + 1][0], 0) if m < 20 else (16, 1)
                    assert got == [(m, 0), above], (field, N, m)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_unitary(self, field):
        for scale in (0.1, 0.7, 3.0):
            e = expm(lie_batch(field, 8, 200, scale))
            gram = np.conj(np.swapaxes(e, -1, -2)) @ e
            assert np.abs(gram - np.eye(e.shape[-1])).max() <= 1e-13


def alpha(a):
    """max(d_4, bound on d_5) of a batch, capped by the Frobenius norm, as
    _degree reads it from degree 12 on."""
    norm, _, a4 = powers(a)
    n4 = _frobenius(a4)
    return min(norm.max(), max(n4.max() ** 0.25, (n4 * norm).max() ** 0.2))


class TestDegree:
    def test_theta_table(self):
        # theta_m is the largest x with x^(m+1) / (m+1)! / (1 - x/(m+2))
        # <= 2^-53, found by bisection, and the table holds it cut down,
        # never rounded up, to four digits
        for m, theta in _TAYLOR:
            def bound(x):
                return x ** (m + 1) / math.factorial(m + 1) / (
                    1 - x / (m + 2))
            lo, hi = 0.0, 2.0
            assert bound(hi) > 2.0 ** -53
            while hi - lo > 1e-15:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if bound(mid) <= 2.0 ** -53 else (lo, mid)
            assert round(lo, 6) == {8: 0.069933, 12: 0.335213,
                                    16: 0.824597, 20: 1.504131}[m]
            assert theta <= lo < theta * (1 + 1e-3), (m, theta, lo)
            assert float("%.4g" % theta) == theta

    def test_dt_1_200_step(self):
        # C, N=8 at dt = 1/200, the default step before the extrapolated
        # estimate: the chunk, as expm cuts the
        # batch, that holds the largest 1-norm of 20000 draws, a tail
        # draw past theta_12 that the 1-norm test alone would take to
        # degree 16
        a = lie_batch("C", 8, 20000, math.sqrt(1 / 200), seed=1)
        step = _chunk_len(8)
        i = int(norm1(a).argmax()) // step * step
        a = a[i:i + step]
        assert _degree(*powers(a)) == (12, 0)
        assert norm_degree(norm1(a)) == (16, 0)

    @pytest.mark.parametrize("field,N", [("C", 8), ("R", 8), ("H", 4)])
    def test_default_step(self, field, N):
        # the increments of the default step 1/DEFAULT_STEPS, as the walk
        # draws them: every chunk of 20000 draws takes degree 16, no
        # squaring, so every step costs the same
        dt = 1 / DEFAULT_STEPS
        a = draw_step(np.random.default_rng(1), N, field, 20000, dt)
        step = _chunk_len(a.shape[-1])
        assert {_degree(*powers(a[i:i + step]))
                for i in range(0, len(a), step)} == {(16, 0)}

    def test_criterion_10_step(self):
        # C, N=32 at dt = 0.01, in chunks of 64 matrices, as large as
        # expm cuts them at any chunk size up to 2^16 entries
        a = lie_batch("C", 32, 256, 0.1, seed=2)
        for i in range(0, 256, 64):
            assert _degree(*powers(a[i:i + 64])) == (12, 0)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_never_above_norm_choice(self, field):
        assert_never_above(field, norm1)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_never_above_frobenius_choice(self, field):
        # the Frobenius norm caps alpha, so this holds on any batch
        assert_never_above(field, _frobenius)


def assert_never_above(field, norm):
    """alpha asks for no more degree or squarings than a test of the
    norms `norm` alone, on random Lie batches and perturbed ones."""
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(1, 7))
        scale = 10 ** rng.uniform(-3, 1)
        a = lie_batch(field, n, 8, scale, seed=trial)
        if trial % 2:
            a = a + rng.standard_normal(a.shape) * scale
        m, s = _degree(*powers(a))
        m1, s1 = norm_degree(norm(a))
        assert m <= m1 and s <= s1, (field, n, scale, (m, s), (m1, s1))


def complex_batches(n, samples=300):
    rng = np.random.default_rng(n)
    return rng.standard_normal((2, samples, n, n)) + \
        1j * rng.standard_normal((2, samples, n, n))


def assert_product(got, a, b):
    """got is a @ b up to the rounding of sums of products added in
    another order."""
    bound = 4 * np.finfo(float).eps * (np.abs(a) @ np.abs(b))
    assert got.dtype == np.complex128 and got.shape == a.shape
    assert (np.abs(got - a @ b) <= bound).all()


# every side with a real form, and one past each end of the range
PRODUCT_SIDES = sorted({1, *_REAL_SIDES, _REAL_SIDES[-1] + 1})


class TestSmallProduct:
    @pytest.mark.parametrize("n", PRODUCT_SIDES)
    def test_matches_matmul(self, n):
        a, b = complex_batches(n)
        assert_product(_mul(a, _right_factor(b)), a, b)
        assert (_right_factor(b) is b) == (n not in _REAL_SIDES)

    @pytest.mark.parametrize("n", PRODUCT_SIDES)
    def test_out(self, n):
        # into a given array, and in place into x, as the sampler
        # multiplies its paths
        a, b = complex_batches(n)
        out = np.empty_like(a)
        assert _mul(a, _right_factor(b), out=out) is out
        assert_product(out, a, b)
        x = a.copy()
        assert _mul(x, _right_factor(b), out=x) is x
        assert_product(x, a, b)

    def test_real_batches_use_matmul(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 50, 3, 3))
        assert _right_factor(b) is b
        assert np.array_equal(_mul(a, b), a @ b)
        want = a @ b
        assert _mul(a, b, out=a) is a
        assert np.array_equal(a, want)


class TestGaussianLie:
    @pytest.mark.parametrize("field", ["R", "C", "H"])
    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_one_normal_per_degree_of_freedom(self, field, N):
        # the generator moves on by exactly dim g normals per sample,
        # and the coordinates of the draws in lie_basis are those
        # normals, in the basis order
        basis = lie_basis(N, field)
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        x = draw(rng, N, field, 7, 0.5)
        g = twin.standard_normal((7, len(basis)))
        assert rng.bit_generator.state == twin.bit_generator.state
        coords = lie_coordinates(basis, x)
        assert np.abs(coords - 0.5 * g).max(initial=0.0) <= 1e-15
        assert np.abs(x + np.conj(np.swapaxes(x, -1, -2))).max() == 0.0

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_identity_covariance(self, field):
        # 20000 draws: each entry of the sample mean and covariance has a
        # standard deviation of at most sqrt(2 / 20000) = 0.01; the
        # tolerance is six of those
        basis = lie_basis(3, field)
        coords = lie_coordinates(
            basis, draw(np.random.default_rng(11), 3, field, 20000))
        cov = coords.T @ coords / len(coords)
        assert np.abs(coords.mean(axis=0)).max() <= 0.06
        assert np.abs(cov - np.eye(len(basis))).max() <= 0.06

    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_quaternion_draws_are_quaternionic(self, N):
        x = draw(np.random.default_rng(N), N, "H", 50, 0.3)
        assert x.shape == (50, 2 * N, 2 * N)
        assert max(quaternionic_defect(m) for m in x) == 0.0


class TestSampling:
    def test_time_zero_is_identity(self):
        p = sample_terminals(4, "C", 0.0, 1, seed=0)
        assert np.allclose(p[0], np.eye(4))
        q = sample_terminals(3, "H", 0.0, 1, seed=0)
        assert np.allclose(q[0], np.eye(6))
        assert quaternionic_defect(q) == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_terminals(4, "C", -1.0, 1)
        with pytest.raises(ValueError):
            sample_terminals(4, "C", 1.0, 1, steps=0)
        with pytest.raises(ValueError):
            sample_terminals(4, "C", 1.0, 0)
        with pytest.raises(ValueError, match="not a number"):
            sample_terminals(4, "C", math.nan, 1)

    @pytest.mark.parametrize("t,steps", [
        (1e6, None), (1e300, None), (1.0, MAX_STEPS + 1),
        ((MAX_STEPS + 1) / DEFAULT_STEPS, None)])
    def test_step_count_bounded(self, t, steps):
        with pytest.raises(ValueError, match=re.escape("t = %g takes" % t)):
            sample_terminals(2, "C", t, 3, steps=steps)

    def test_default_steps(self):
        # DEFAULT_STEPS per unit time, rounded, at least one; MAX_STEPS
        # is allowed
        for field, t, steps in [("C", 0.3, 5), ("C", 0.02, 1),
                                ("R", 1e-4, 1), ("H", 0.5, 8),
                                ("H", 1.0, DEFAULT_STEPS)]:
            assert np.array_equal(sample_terminals(2, field, t, 3, seed=5),
                                  sample_terminals(2, field, t, 3, steps,
                                                   seed=5))
        sample_terminals(1, "R", 0.0, 1, steps=MAX_STEPS)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_unitarity_defect(self, field):
        for seed in range(3):
            u = sample_terminals(5, field, 1.3, 1, steps=40, seed=seed)
            assert unitarity_defect(u, field) <= 1e-10
        u = sample_terminals(5, field, 1.3, 6, steps=40, seed=3)
        batched = unitarity_defect(u, field)
        assert batched <= 1e-10
        # entries are rounding errors, so a reordered sum moves them by eps
        assert np.isclose(batched, max(unitarity_defect(x, field) for x in u),
                          rtol=0, atol=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_unitarity_defect_in_chunks(self, field):
        # the max of the chunks' maxima is the one-shot max exactly, at
        # every chunk edge, and with no or two leading axes; the last
        # sample, scaled off the group, holds the largest entry
        def one_shot(u):
            prod = u @ np.conj(np.swapaxes(u, -1, -2)) - np.eye(u.shape[-1])
            return float(np.abs(prod).max())

        n = 2 * 3 if field == "H" else 3
        c = STAT_CHUNK // n ** 2
        u = sample_terminals(3, field, 0.4, 2 * c + 3, steps=3, seed=2)
        for samples, chunks in [(1, 1), (c - 1, 1), (c, 1), (c + 1, 2),
                                (2 * c + 3, 3)]:
            assert len(sample_chunks(samples, n * n)) == chunks
            x = u[:samples].copy()
            x[-1] *= 1.0 + 1e-6
            assert unitarity_defect(x, field) == one_shot(x) > 1e-6
        for x in (u[c], u[:2 * c + 2].reshape(2, c + 1, n, n)):
            assert unitarity_defect(x, field) == one_shot(x)

    def test_overflowing_step_names_step_size(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step size t/steps = 1e"
                                                 r"\+300"):
                sample_terminals(2, "C", 1e300, 3, steps=1)

    @pytest.mark.parametrize("field,N,edge", [("C", 2, 12.0), ("R", 3, 36.0),
                                              ("H", 1, 6.0)])
    def test_step_needs_positive_variance(self, field, N, edge):
        # the semisimple variance dt (1 - kappa dt/24) vanishes at
        # kappa dt = 24, which is refused; a step just short of it walks
        assert math.isclose(kappa(field, N) * edge, 24.0)
        with pytest.raises(ValueError, match="step size t/steps = %g is too "
                                             "large" % edge):
            sample_terminals(N, field, edge, 3, steps=1)
        u = sample_terminals(N, field, edge * (1 - 1e-9), 3, steps=1)
        assert unitarity_defect(u, field) <= 1e-12
        # abelian so(2) has kappa 0, so any step keeps its variance
        assert np.isfinite(sample_terminals(2, "R", 1e3, 3, steps=1)).all()

    def test_so1_is_the_identity(self, monkeypatch):
        # SO(1) has no degree of freedom: every draw is the 1x1 zero, and
        # every path stays at 1 exactly.  New buffers start as NaN, so
        # the draw must write its zeros into the reused power buffer
        monkeypatch.setattr(np, "empty", lambda shape, dtype=float: np.full(
            shape, np.nan, dtype))
        u = sample_terminals(1, "R", 1.0, 5)
        assert u.shape == (5, 1, 1) and np.array_equal(u, np.ones((5, 1, 1)))

    @pytest.mark.parametrize("field,N", [("R", 3), ("C", 5), ("H", 2),
                                         ("H", 9)])
    def test_walk_reads_only_what_it_writes(self, monkeypatch, field, N):
        # every slot of the step's buffer is written before it is read,
        # and every chunk of the evaluator's result: NaN-filled new arrays
        # leave the walks and their statistics bit for bit the same
        b, w = encode_word([(1, 1, True), (1, 1, False)])
        df = square_df(1, N)
        n = 2 * N if field == "H" else N
        # a pool of three chunks of the evaluator
        pool = np.resize(sample_terminals(N, field, 0.3, 70, 6, seed=1),
                         (2 * (STAT_CHUNK // n ** 2) + 3, n, n))

        def walks():
            paths = (sample_terminals(N, field, 0.3, 70, 6, seed=1),
                     sample_terminals(N, field, 0.3, 70, seed=1))
            return paths + tuple(m_stat(b, [u, u], df, field,
                                        bars=[l.bar for l in w])
                                 for u in paths + (pool,))

        want = walks()
        monkeypatch.setattr(np, "empty", lambda shape, dtype=float: np.full(
            shape, np.nan, dtype))
        assert all(np.array_equal(g, x) for g, x in zip(walks(), want))

    def test_real_stays_in_identity_component(self):
        for seed in range(3):
            u = sample_terminals(5, "R", 2.0, 1, steps=40, seed=seed)
            assert np.isclose(np.linalg.det(u[0]), 1.0)

    def test_reproducible(self):
        a = sample_terminals(3, "C", 0.5, 4, steps=20, seed=7)
        b = sample_terminals(3, "C", 0.5, 4, steps=20, seed=7)
        assert np.array_equal(a, b)
        c = sample_terminals(3, "C", 0.5, 4, steps=20, seed=8)
        assert not np.allclose(a, c)

    def test_batch_shapes(self):
        assert sample_terminals(3, "R", 0.1, 5, steps=2).shape == (5, 3, 3)
        h = sample_terminals(3, "H", 0.1, 5, steps=2)
        assert h.shape == (5, 6, 6) and h.dtype == complex
        assert quaternionic_defect(h) <= 1e-14

    @pytest.mark.parametrize("field,rate", [
        ("C", -0.5),
        ("R", -3.0 / 8.0),
        ("H", -9.0 / 16.0),
    ])
    def test_mean_trace_matches_exact(self, field, rate):
        # first moment of the normalized trace at N=4
        u = sample_terminals(4, field, 1.0, 4000, steps=100, seed=11)
        # Re Tr over H is half the complex trace of the embedding
        vals = np.real(u.trace(axis1=1, axis2=2)) / u.shape[-1]
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - math.exp(rate)) <= 4 * se


class TestBlocks:
    def test_extract_and_reassemble(self):
        # the block layout that the Monte-Carlo statistic reads
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8))
        df = DimensionFunction([1, 3, 1, 3])
        assert total_dim(df) == 8

        def blk(i, j):
            return a[block_slices(df)[i], block_slices(df)[j]]

        assert blk(2, 2).shape == (3, 3)
        assert blk(1, 4).shape == (1, 3)
        assert np.array_equal(blk(2, 4), a[1:4, 5:8])
        assert np.array_equal(
            np.block([[blk(i, j) for j in range(1, 5)] for i in range(1, 5)]),
            a)


class TestEstimateStat:
    @pytest.mark.parametrize("samples", [0, 1])
    def test_zero_samples(self, samples):
        b = identity_diagram(1, [1])
        with pytest.raises(ValueError, match="samples >= 2"):
            estimate_stat(b, Word([WordLetter(1)]), "C", square_df(1, 4),
                          1.0, samples)

    def test_values_bounded(self, monkeypatch):
        # samples x times may reach MAX_VALUES, and not pass it
        monkeypatch.setattr(rmt, "MAX_VALUES", 10)
        b, w = identity_diagram(1, [1]), Word([WordLetter(1)])
        assert len(estimate_stats(b, w, "R", square_df(1, 1), [0.5, 1.0],
                                  5, steps=1)) == 2
        with pytest.raises(ValueError, match="6 samples at 2 times"):
            estimate_stats(b, w, "R", square_df(1, 1), [0.5, 1.0], 6)

    def test_refused_step_fails_before_any_walk(self, monkeypatch):
        # kappa dt = 24 at t = 12 over C at N = 2 is refused before the
        # paths of the first letter at t = 0.5 are walked
        def walk(*args):
            raise AssertionError("a path was walked")

        monkeypatch.setattr(rmt, "_walk", walk)
        b = identity_diagram(2, [1, 1])
        w = Word([WordLetter(1), WordLetter(2)])
        with pytest.raises(ValueError,
                           match="step size t/steps = 12 is too large"):
            estimate_stats(b, w, "C", square_df(1, 2), [0.5, 12.0], 10,
                           steps=1)

    def test_step_check_builds_no_layout(self, monkeypatch):
        # the up-front check of kappa dt reads kappa alone: the layout of
        # the Lie coordinates, O(N^2) entries, is built only by the walk
        def layout(*args):
            raise AssertionError("a layout was built")

        monkeypatch.setattr(rmt, "_lie_layout", layout)
        b = identity_diagram(2, [1, 1])
        w = Word([WordLetter(1), WordLetter(2)])
        with pytest.raises(ValueError,
                           match="step size t/steps = 12 is too large"):
            estimate_stats(b, w, "C", square_df(1, 2), [0.5, 12.0], 10,
                           steps=1)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_matches_samplewise_reference(self, field):
        # the batched estimate against a per-sample loop over the same
        # pools: two letters, one barred twice, unequal blocks
        df = DimensionFunction([1, 2])
        tokens = [(1, 2, True), (1, 1, False), (1, 2, False), (2, 2, True),
                  (2, 2, False)]
        b, w = encode_word(tokens, letters=[1, 2, 1, 1, 2])
        samples, seed, steps, t = 40, 21, 5, 0.7
        mean, se = estimate_stat(b, w, field, df, t, samples, seed=seed,
                                 steps=steps)
        letters = sorted({l.letter for l in w})
        children = np.random.SeedSequence(seed).spawn(len(letters))
        pools = {c: sample_terminals(total_dim(df), field, t, samples,
                                     steps, child)
                 for c, child in zip(letters, children)}
        # a barred slot evaluates U*: the slot takes the sampled matrix,
        # and m_stat, told the word's bars, takes its adjoint
        bars = [l.bar for l in w]
        values = []
        for s in range(samples):
            mats = [pools[l.letter][s] for l in w]
            values.append(np.real(m_stat(b, mats, df, field, bars=bars)))
        assert np.isclose(mean, np.mean(values), rtol=1e-12, atol=1e-14)
        assert np.isclose(se, np.std(values, ddof=1) / math.sqrt(samples),
                          rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_default_matches_samplewise_reference(self, field):
        # the default estimate walks DEFAULT_STEPS * t steps, rounded:
        # 0.7 * 16 = 11.2 gives the bytes of 11 explicit steps, the mean
        # and standard error of the statistic per sample of those paths.
        # Two letters, one barred twice, unequal blocks
        df = DimensionFunction([1, 2])
        tokens = [(1, 2, True), (1, 1, False), (1, 2, False), (2, 2, True),
                  (2, 2, False)]
        b, w = encode_word(tokens, letters=[1, 2, 1, 1, 2])
        samples, seed, t = 40, 21, 0.7
        assert DEFAULT_STEPS == 16
        got = estimate_stat(b, w, field, df, t, samples, seed=seed)
        assert got == estimate_stat(b, w, field, df, t, samples, seed=seed,
                                    steps=11)
        letters = sorted({l.letter for l in w})
        children = np.random.SeedSequence(seed).spawn(len(letters))
        pools = {c: sample_terminals(total_dim(df), field, t, samples,
                                     seed=child)
                 for c, child in zip(letters, children)}
        bars = [l.bar for l in w]
        values = [np.real(m_stat(b, [pools[l.letter][s] for l in w], df,
                                 field, bars=bars))
                  for s in range(samples)]
        mean, se = got
        assert np.isclose(mean, np.mean(values), rtol=1e-12, atol=1e-14)
        assert np.isclose(se, np.std(values, ddof=1) / math.sqrt(samples),
                          rtol=1e-12, atol=1e-14)

    def test_u1_increments_commute(self, monkeypatch):
        # on U(1) the algebra is its centre: the increments commute, the
        # plain step has no bias to cancel, and the correction leaves
        # the walk bit for bit as it is.  On U(2) it moves the paths
        u1 = sample_terminals(1, "C", 1.0, 300, seed=3)
        u2 = sample_terminals(2, "C", 1.0, 30, seed=3)
        monkeypatch.setattr(rmt, "kappa", lambda field, N: 0.0)
        assert np.array_equal(sample_terminals(1, "C", 1.0, 300, seed=3), u1)
        assert not np.allclose(sample_terminals(2, "C", 1.0, 30, seed=3), u2)

    @pytest.mark.parametrize("field,samples", [("C", 4 * 10 ** 5),
                                               ("H", 10 ** 5)])
    def test_correction_cancels_bias(self, monkeypatch, field, samples):
        # tr(u11 u11) at N = 2, t = 1, in 4 steps: the corrected scheme
        # lies within 4 se of the exact value, and the plain one, kappa
        # patched to 0, 8 se or more off it.  Its bias is about -0.0070
        # over C and -0.0117 over H (CHANGES.md), 11 and 13 se at these
        # sample counts
        b, w = encode_word([(1, 1, False), (1, 1, False)])
        df = square_df(1, 2)
        exact = finite_evaluator(b, w, df, field)(1.0)
        mean, se = estimate_stat(b, w, field, df, 1.0, samples, seed=41,
                                 steps=4)
        assert abs(mean - exact) <= 4 * se, (mean, exact, se)
        monkeypatch.setattr(rmt, "kappa", lambda field, N: 0.0)
        mean, se = estimate_stat(b, w, field, df, 1.0, samples, seed=41,
                                 steps=4)
        assert abs(mean - exact) >= 8 * se, (mean, exact, se)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_default_at_time_zero_is_exact(self, field):
        b, w = encode_word([(1, 1, False), (1, 1, True), (2, 2, False)])
        df = square_df(2, 2)
        # the paths stay at the identity, where every sample is equal
        mean, se = estimate_stat(b, w, field, df, 0.0, 30, seed=2)
        exact = finite_evaluator(b, w, df, field)(0.0)
        assert se == 0.0 and abs(mean - exact) <= 1e-15

    @pytest.mark.parametrize("field,seed", [("R", 31), ("C", 32), ("H", 33)])
    def test_default_near_exact(self, field, seed):
        # tr(u11 u11) at N = 2, t = 1, by the default 16 steps
        b, w = encode_word([(1, 1, False), (1, 1, False)])
        df = square_df(1, 2)
        mean, se = estimate_stat(b, w, field, df, 1.0, 20000, seed=seed)
        exact = finite_evaluator(b, w, df, field)(1.0)
        assert abs(mean - exact) <= 4 * se, (mean, exact, se)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    @pytest.mark.parametrize("steps", [4, None])
    def test_blocks_match_their_documented_streams(self, monkeypatch,
                                                   field, steps):
        # three blocks, the last one short: block 0 of a letter draws
        # from its child of SeedSequence(seed).spawn(L), block i >= 1
        # from that child's (i-1)-th spawned child.  The reference walks
        # each block on its own from those streams, one run per letter
        # and time, and evaluates it with m_stat; letter 1 is barred and
        # has two times on one step with the default steps, letter 2 one
        # time twice.  New arrays start as NaN, so every value of every
        # block must be written
        monkeypatch.setattr(np, "empty", lambda shape, dtype=float: np.full(
            shape, np.nan, dtype))
        df = DimensionFunction([1, 1])
        b, w = encode_word([(1, 2, True), (2, 1, False), (1, 1, False)],
                           letters=[1, 2, 1])
        times = [{1: 0.25, 2: 0.5}, 0.5]
        samples, seed = 2 * SAMPLE_BLOCK + 5, 17
        got = estimate_stats(b, w, field, df, times, samples, seed=seed,
                             steps=steps)
        children = np.random.SeedSequence(seed).spawn(2)
        streams = {c: [child, *child.spawn(2)]
                   for c, child in zip((1, 2), children)}
        sizes = [SAMPLE_BLOCK, SAMPLE_BLOCK, 5]

        for t, (mean, se) in zip(times, got):
            at = t if isinstance(t, dict) else {1: t, 2: t}
            values = []
            for i in range(3):
                pool = {c: sample_terminals(2, field, at[c], sizes[i], steps,
                                            streams[c][i]) for c in (1, 2)}
                values.append(np.real(m_stat(
                    b, [pool[l.letter] for l in w], df, field,
                    bars=[l.bar for l in w])))
            values = np.concatenate(values)
            assert len(values) == samples
            assert np.isclose(mean, values.mean(), rtol=1e-12, atol=1e-14)
            assert np.isclose(se, values.std(ddof=1) / math.sqrt(samples),
                              rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("field,tokens", [
        ("H", [(1, 1, False), (1, 1, False)]),
        ("C", [(1, 1, True), (1, 1, False)]),
    ])
    def test_memory_does_not_grow_with_samples(self, field, tokens):
        # a run holds one block of paths: from 4 to 16 blocks of samples
        # at N = 2 the peak grows by the value array alone, 8 bytes a
        # sample
        b, w = encode_word(tokens)
        df = square_df(1, 2)
        estimate_stat(b, w, field, df, 1.0, 4, seed=3, steps=20)

        def peak(samples):
            tracemalloc.start()
            try:
                estimate_stat(b, w, field, df, 1.0, samples, seed=3,
                              steps=20)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        grown = peak(16 * SAMPLE_BLOCK) - peak(4 * SAMPLE_BLOCK)
        assert grown <= 8 * 12 * SAMPLE_BLOCK + 2 ** 16, grown

    def test_barred_letter_copies_no_paths(self):
        # over C a barred letter costs what a plain one does: m_stat
        # conjugates chunk-sized blocks, not a copy of the block's paths,
        # which at N = 8 held 1 MiB more
        df = square_df(1, 8)

        def peak(tokens):
            b, w = encode_word(tokens)
            estimate_stat(b, w, "C", df, 1.0, 4, seed=3, steps=20)
            tracemalloc.start()
            try:
                estimate_stat(b, w, "C", df, 1.0, 4096, seed=3, steps=20)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        plain = peak([(1, 1, False), (1, 1, False)])
        barred = peak([(1, 1, True), (1, 1, False)])
        assert barred <= plain + 2 ** 16, (barred, plain)

    def test_no_times(self):
        b, w = encode_word([(1, 1, False)])
        with pytest.raises(ValueError, match="at least one time"):
            estimate_stats(b, w, "C", square_df(1, 2), [], 10)

    def test_diagonal_block_complex(self):
        b = identity_diagram(1, [1])
        mean, se = estimate_stat(b, Word([WordLetter(1)]), "C",
                                 square_df(1, 8), 1.0, 2000, seed=5,
                                 steps=100)
        assert se > 0
        assert abs(mean - math.exp(-0.5)) <= 4 * se

    def test_mixed_colour_block_vanishes(self):
        b, w = encode_word([(1, 2, False)])
        mean, se = estimate_stat(b, w, "C", square_df(2, 4), 1.0, 500,
                                 seed=6, steps=50)
        assert abs(mean) <= 4 * se + 1e-12

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_starred_pair_is_exactly_unitary(self, field):
        b, w = encode_word([(1, 1, True), (1, 1, False)])
        mean, se = estimate_stat(b, w, field, square_df(1, 4), 1.0, 50,
                                 seed=7, steps=20)
        assert np.isclose(mean, 1.0, atol=1e-10)
        assert se <= 1e-10

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_matches_evolve_finite(self, field):
        # random small diagram statistics against the exact semigroup
        rng = random.Random(8)
        df = square_df(2, 3)
        for trial in range(3):
            k = rng.randrange(1, 3)
            pts = list(range(1, 2 * k + 1))
            rng.shuffle(pts)
            pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
            cols = [rng.randrange(1, 3) for _ in range(2 * k)]
            b = ColouredBrauerDiagram(Pairing(k, pairs), cols)
            w = Word(WordLetter(1, bar=rng.random() < 0.5)
                     for _ in range(k))
            t = 0.5
            exact = evolve_finite(b, w, t, df, field)
            mean, se = estimate_stat(b, w, field, df, t, 1500,
                                     seed=100 + trial, steps=60)
            assert abs(mean - exact) <= 4 * se + 1e-12, \
                (field, trial, mean, exact, se)

    def test_independent_letters_at_different_times(self):
        # u at time s times an independent v at time r: expectation of
        # tr(uv) is e^(-s/2) e^(-r/2) by freeness of independent copies
        b, w = encode_word([(1, 1, False), (1, 1, False)], letters=[1, 2])
        times = {1: 0.5, 2: 1.0}
        mean, se = estimate_stat(b, w, "C", square_df(1, 8), times, 2000,
                                 seed=9, steps=60)
        want = math.exp(-0.25) * math.exp(-0.5)
        assert abs(mean - want) <= 4 * se
