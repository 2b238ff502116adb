"""Monte-Carlo Brownian motion on the orthogonal, unitary and symplectic
groups.

The integrator is multiplicative: each step right-multiplies by the
exponential of a Gaussian element of the Lie algebra, so every sample
stays exactly in the group.  Quaternion matrices are complex matrices of
side 2N throughout, their embedding by `quat_embed`, from the Gaussian
draw to the trace.

The step kernel, `expm` and the product u e^A, takes its Taylor degree
from ||A^4||_1^(1/4) and a bound on ||A^5||_1^(1/5), near the spectral
radius of these normal increments, and multiplies complex matrices of
side 2 to 5 as one float64 product.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .evaltrace import m_stat, quat_embed, total_dim

BETA = {"R": 1, "C": 2, "H": 4}

DEFAULT_STEPS_PER_UNIT_TIME = 200

# resource limit on the steps of one sampling run, given or default
MAX_STEPS = 10 ** 6


def _check_field(field):
    if field not in BETA:
        raise ValueError("unknown field tag %r" % (field,))


def _side(field, N):
    """Side of the matrices of U(N, K): 2N for H, in its complex
    embedding, N otherwise."""
    return 2 * N if field == "H" else N


def inner_product(field, N, x, y):
    """<X, Y>_N = (beta N / 2) Re Tr(X* Y), the quaternion trace being
    half the complex trace of the embedding."""
    beta = BETA[field]
    tr = float(np.trace(x.conj().T @ y).real)
    return beta * N / 2.0 * (tr / 2.0 if field == "H" else tr)


class LieBasis:
    """Orthonormal basis of the anti-Hermitian matrices over one of the
    three fields, under the inner product (beta N / 2) Re Tr(X* Y)."""

    def __init__(self, N, field, elements):
        self.N = N
        self.field = field
        self.elements = list(elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def expected_count(self):
        beta = BETA[self.field]
        n = self.N
        return n * (n - 1) // 2 + (beta - 1) * n * (n + 1) // 2

    def gram_defect(self):
        """Largest deviation of the Gram matrix from the identity."""
        worst = 0.0
        for a, x in enumerate(self.elements):
            for b, y in enumerate(self.elements):
                got = inner_product(self.field, self.N, x, y)
                worst = max(worst, abs(got - (1.0 if a == b else 0.0)))
        return worst


def lie_basis(N, field) -> LieBasis:
    """Orthonormal anti-Hermitian basis: antisymmetric pairs, symmetric
    pairs times each imaginary unit, and imaginary diagonal elements."""
    _check_field(field)
    if N < 1:
        raise ValueError("N must be positive")
    out = []
    if field == "R":
        a = 1.0 / math.sqrt(N)
        for i in range(N):
            for j in range(i + 1, N):
                m = np.zeros((N, N))
                m[i, j], m[j, i] = a, -a
                out.append(m)
    elif field == "C":
        a = 1.0 / math.sqrt(2 * N)
        for i in range(N):
            for j in range(i + 1, N):
                m = np.zeros((N, N), dtype=complex)
                m[i, j], m[j, i] = a, -a
                out.append(m)
                m = np.zeros((N, N), dtype=complex)
                m[i, j] = m[j, i] = 1j * a
                out.append(m)
        for j in range(N):
            m = np.zeros((N, N), dtype=complex)
            m[j, j] = 1j / math.sqrt(N)
            out.append(m)
    else:
        a = 1.0 / (2.0 * math.sqrt(N))
        for i in range(N):
            for j in range(i + 1, N):
                m = np.zeros((N, N, 4))
                m[i, j, 0], m[j, i, 0] = a, -a
                out.append(m)
                for unit in (1, 2, 3):
                    m = np.zeros((N, N, 4))
                    m[i, j, unit] = m[j, i, unit] = a
                    out.append(m)
        for j in range(N):
            for unit in (1, 2, 3):
                m = np.zeros((N, N, 4))
                m[j, j, unit] = 1.0 / math.sqrt(2 * N)
                out.append(m)
        out = [quat_embed(m) for m in out]
    basis = LieBasis(N, field, out)
    assert len(basis) == basis.expected_count()
    return basis


def casimir_constant(field, N):
    """Scalar c with sum_k H_k^2 = c I: c = -1 + (2 - beta)/(beta N)."""
    beta = BETA[field]
    return -1.0 + (2.0 - beta) / (beta * N)


def casimir_scalar_check(basis: LieBasis):
    """Max-norm deviation of sum_k H_k^2 from its scalar value."""
    N, field = basis.N, basis.field
    total = sum(h @ h for h in basis)
    want = casimir_constant(field, N) * np.eye(_side(field, N))
    return float(np.abs(total - want).max())


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# Taylor degrees m = 4k with the largest x for which the remainder bound
# x^(m+1) / (m+1)! / (1 - x/(m+2)) stays below 2^-53.  x bounds the
# remainder where it is the 1-norm, or alpha_p = max(d_p, d_(p+1)) with
# d_p = ||a^p||_1^(1/p) for p(p-1) <= m+1 (Al-Mohy & Higham 2009)
_TAYLOR = ((8, 0.0699), (12, 0.3352), (16, 0.8245), (20, 1.504))

# past this 1-norm the squarings would amplify the rounding of the Taylor
# sum by more than 2^52, which leaves no correct digit
_NORM_MAX = 2.0 ** 52 * _TAYLOR[-1][1]

# entries per chunk of a batch, so that the dozen arrays of a chunk's
# products and sums stay in a core's cache: on a Xeon with 2 MiB of L2,
# chunks of 2^14 to 2^16 entries made a step up to a fifth slower
_CHUNK = 2 ** 13

# complex sides whose products run faster as one float64 product: the
# batched complex product costs about 0.4 us per matrix above side 1
_REAL_SIDES = range(2, 6)


def expm(a):
    """e^a for every matrix of a batch of shape (samples, n, n), float64
    or complex128.

    Scaling and squaring with a truncated Taylor series of one degree
    per chunk of _CHUNK entries.  The degree and the number of squarings
    come from alpha = max(||a^4||_1^(1/4), ||a^5||_1^(1/5)), the fifth
    root bounded by (||a^4||_1 ||a||_1)^(1/5), the largest over the
    chunk.  alpha is at most the 1-norm and near the spectral radius for
    the normal matrices of a Lie algebra, so the degree is never higher
    than the 1-norm would give.  Complex matrices of side 2 to 5 are
    multiplied as one float64 product (see `_mul`).

    Raises ValueError for a 1-norm above 2^52 * 1.504, or one that is not
    finite, where the squarings would leave no correct digit.
    """
    a = np.ascontiguousarray(a)
    out = np.empty_like(a)
    step = max(1, _CHUNK // a.shape[-1] ** 2)
    for i in range(0, len(a), step):
        out[i:i + step] = _expm_chunk(a[i:i + step])
    return out


def _norm1(a):
    """1-norm of each matrix of a batch.

    The column sums come out column-major, so that the maximum runs over
    n long rows: numpy's reductions over a short last axis cost several
    times more on small sides.
    """
    return functools.reduce(np.maximum, np.einsum("...ij->j...", np.abs(a)))


def _degree(norm, a3, a4):
    """Taylor degree m and squaring count s for a chunk whose matrices
    have 1-norms `norm` and cubes and fourth powers a3 and a4.

    p(p-1) <= m+1 admits alpha_4 from m = 12 on; degree 8 needs
    alpha_3 = max(d_3, d_4).  Each alpha is capped by the 1-norm, which
    also bounds the remainder.
    """
    theta8, theta_top = _TAYLOR[0][1], _TAYLOR[-1][1]
    top = float(norm.max())
    n4 = _norm1(a4)
    d4 = float(n4.max()) ** 0.25
    if top <= theta8 or (
            d4 <= theta8 and float(_norm1(a3).max()) ** (1 / 3) <= theta8):
        return 8, 0
    alpha = min(top, max(d4, float((n4 * norm).max()) ** 0.2))
    s = math.ceil(math.log2(alpha / theta_top)) if alpha > theta_top else 0
    for m, theta in _TAYLOR[1:]:
        if alpha <= theta * 2.0 ** s:
            break
    return m, s


def _right_factor(y):
    """y as the right factor of `_mul`: for complex sides in _REAL_SIDES
    its 2n x 2n real form, rows 2k and 2k+1 holding row k of y and of
    i*y as interleaved (re, im) pairs; otherwise y itself."""
    n = y.shape[-1]
    if y.dtype != np.complex128 or n not in _REAL_SIDES:
        return y
    yr = np.empty(y.shape[:-2] + (n, 2, 2 * n))
    yr[..., 0, :] = y.view(np.float64)
    np.multiply(y, 1j, out=yr[..., 1, :].view(np.complex128))
    return yr.reshape(y.shape[:-2] + (2 * n, 2 * n))


def _mul(x, yr):
    """x @ y over a batch, for yr = _right_factor(y).

    A real form yr takes the interleaved float64 view of x, whose row k
    times yr is row k of x @ y as (re, im) pairs: the same sums of
    products, one float64 product in place of a complex one whose batched
    call costs more on small sides.
    """
    if yr.dtype == x.dtype:
        return x @ yr
    return np.matmul(x.view(np.float64), yr).view(np.complex128)


def _expm_chunk(a):
    """Paterson-Stockmeyer in powers of a^4, summed in place: at most
    seven batched products before the squarings, and no solve.  The
    scaling by 2^-s is folded into the coefficients and a^4, exact in
    binary.
    """
    norm = _norm1(a)
    if not norm.max() <= _NORM_MAX:
        raise ValueError("a matrix exponent of 1-norm %.3g is past %.3g, "
                         "where the squarings leave no correct digit"
                         % (norm.max(), _NORM_MAX))
    ar = _right_factor(a)
    a2 = _mul(a, ar)
    a3 = _mul(a2, ar)
    a4 = _mul(a2, _right_factor(a2))
    m, s = _degree(norm, a3, a4)
    if s:
        a4 *= 2.0 ** (-4 * s)
    a4r = _right_factor(a4)
    r = a4 * (1.0 / math.factorial(m))
    for j in range(m // 4 - 1, -1, -1):
        if j < m // 4 - 1:
            r = _mul(r, a4r)
        for i, x in enumerate((a, a2, a3), start=1):
            r += x * (2.0 ** (-s * i) / math.factorial(4 * j + i))
        # r is C-contiguous, so the reshape is a view of its diagonals
        r.reshape(len(r), -1)[:, ::a.shape[-1] + 1] += \
            1.0 / math.factorial(4 * j)
    for _ in range(s):
        r = _mul(r, _right_factor(r))
    return r


def _gaussian_lie(rng, N, field, samples):
    """Standard Gaussian elements of the Lie algebra, sampled entrywise.

    The law equals sum_k g_k H_k over the orthonormal basis, but costs
    O(N^2) per sample instead of the O(N^4) basis contraction.  H
    elements come as their complex embedding, of side 2N.
    """
    if field == "R":
        g = rng.standard_normal((samples, N, N))
        return (g - np.swapaxes(g, -1, -2)) / math.sqrt(2 * N)
    if field == "C":
        # (z - z^*) / (2 sqrt N) for z = x + iy, bit for bit, built part
        # by part without complex temporaries
        x = rng.standard_normal((samples, N, N))
        y = rng.standard_normal((samples, N, N))
        z = np.empty((samples, N, N), dtype=complex)
        np.subtract(x, np.swapaxes(x, -1, -2), out=z.real)
        np.add(y, np.swapaxes(y, -1, -2), out=z.imag)
        z *= 1.0 / (2.0 * math.sqrt(N))
        return z
    q = rng.standard_normal((samples, N, N, 4))
    qt = np.swapaxes(q, 1, 2)
    a = 1.0 / (2.0 * math.sqrt(2.0 * N))
    x = np.empty_like(q)
    # real unit antisymmetric, imaginary units symmetric
    x[..., 0] = (q[..., 0] - qt[..., 0]) * a
    x[..., 1:] = (q[..., 1:] + qt[..., 1:]) * a
    idx = np.arange(N)
    x[:, idx, idx, 0] = 0.0
    x[:, idx, idx, 1:] = q[:, idx, idx, 1:] / math.sqrt(2.0 * N)
    return quat_embed(x)


def sample_terminals(N, field, t, samples, steps=None, seed=0):
    """Terminal matrices of `samples` independent Brownian paths.

    Returns an array of shape (samples, N, N) for R and C, and the
    complex embedding, of shape (samples, 2N, 2N), for H.  Without
    `steps`, takes DEFAULT_STEPS_PER_UNIT_TIME * t steps, rounded, at
    least one.  Raises ValueError past MAX_STEPS steps.
    """
    _check_field(field)
    if t < 0:
        raise ValueError("negative time")
    if samples < 1:
        raise ValueError("need at least one sample")
    if steps is None:
        # rounded only below the bound, as 200 t may overflow to inf
        steps = max(1.0, DEFAULT_STEPS_PER_UNIT_TIME * t)
    if steps < 1:
        raise ValueError("need at least one step")
    if steps > MAX_STEPS:
        raise ValueError("t = %g takes %.7g steps, more than the %d allowed"
                         % (t, steps, MAX_STEPS))
    steps = int(round(steps))
    rng = np.random.default_rng(seed)
    n = _side(field, N)
    dt = float if field == "R" else complex
    u = np.broadcast_to(np.eye(n, dtype=dt), (samples, n, n)).copy()
    if t > 0:
        scale = math.sqrt(t / steps)
        for _ in range(steps):
            incr = _gaussian_lie(rng, N, field, samples)
            incr *= scale
            try:
                e = expm(incr)
            except ValueError as exc:
                raise ValueError("step size t/steps = %g is too large: %s"
                                 % (t / steps, exc)) from None
            u = _mul(u, _right_factor(e))
    return u


def unitarity_defect(u, field):
    """Largest entry of U U* - 1 over a batch of shape (..., n, n), the
    same for every field: H matrices come as their complex embedding."""
    prod = u @ np.conj(np.swapaxes(u, -1, -2)) - np.eye(u.shape[-1])
    return float(np.abs(prod).max())


# ---------------------------------------------------------------------------
# empirical statistics
# ---------------------------------------------------------------------------

def estimate_stat(b, word, field, df, t, samples, seed=0, steps=None):
    """Monte-Carlo mean and standard error of the block trace statistic.

    Each distinct word letter gets an independent family of sample
    paths; t may be a scalar or a map letter -> time.  A barred letter
    reads the adjoint of its sampled matrix: the diagram's twist at the
    slot transposes it, and for C the slot gets the entry-wise conjugate;
    for H the evaluator conjugates the transposed block itself, and R
    needs no conjugate.
    """
    _check_field(field)
    if samples < 2:
        raise ValueError("a standard error needs samples >= 2")
    n = total_dim(df)
    letters = sorted({l.letter for l in word})
    times = {l: (t[l] if isinstance(t, dict) else float(t))
             for l in letters}
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(letters))
    pools = {}
    for letter, child in zip(letters, children):
        pools[letter] = sample_terminals(
            n, field, times[letter], samples, steps, child)
    if field == "C":
        barred = {c: np.conj(pools[c])
                  for c in {l.letter for l in word if l.bar}}
    else:
        barred = pools
    mats = [barred[l.letter] if l.bar else pools[l.letter] for l in word]
    # samplewise statistics are complex; their expectation is real
    values = np.real(m_stat(b, mats, df, field))
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples))
    return mean, stderr
