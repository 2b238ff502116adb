"""Monte-Carlo Brownian motion on the orthogonal, unitary and symplectic
groups.

The integrator is multiplicative: each step right-multiplies by the
exponential of a Gaussian element of the Lie algebra, so every sample
stays exactly in the group.  Quaternion matrices are complex matrices of
side 2N throughout, their embedding by `quat_embed`, from the Gaussian
draw to the trace.

The scheme is weak order 1.  An explicit step count walks one plain path
per sample.  The default estimate extrapolates instead (Talay & Tubaro
1990): each sample walks a fine path of M = DEFAULT_FINE * t steps and a
coarse path of M/2 steps coupled to it, whose increments are the fine
ones summed in pairs, and contributes 2F - C of their statistics.  That
cancels the first-order bias for one more exponential per pair of fine
steps and no more normals.

The step kernel draws each increment from one normal per real degree of
freedom, N(N-1)/2 for R, N^2 for C and N(2N+1) for H, and runs one chunk
of samples at a time: the draw straight into the buffer of powers of A,
the exponential, and the product u e^A into u's rows.  The exponential
takes its Taylor degree from the Frobenius norms ||A^4||_F^(1/4) and a
bound on ||A^5||_F^(1/5), near the spectral radius of these normal
increments, sums each Paterson-Stockmeyer block in one coefficient
product, and multiplies complex matrices of side 2 to 16 as one float64
product.
Times measured on a 2-core Xeon VM with one BLAS thread are beside
_CHUNK and _REAL_SIDES.

The estimator walks and evaluates the samples in blocks of SAMPLE_BLOCK,
one block at a time, so whatever the sample count a run holds one
block's paths, twice for the default estimate's coupled pair, plus
chunk-sized temporaries and 8 bytes per sample and time for the values:
the step works one chunk of samples at a time, and the statistics and
the unitarity defect are evaluated in the chunks of `sample_chunks`.
Over C, a barred letter adds one conjugate copy of its block's paths.
Each block of a letter draws from a SeedSequence of its own (see
`estimate_stats`), so a run of at most SAMPLE_BLOCK samples draws what
one pool per letter drew, and a larger run draws other paths, from the
same law, than a single pool would.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .evaltrace import m_stat, quat_embed, sample_chunks, total_dim

BETA = {"R": 1, "C": 2, "H": 4}

# fine steps per unit time of the default estimate, which extrapolates a
# fine path and a coarse one of half its steps (see estimate_stats)
DEFAULT_FINE = 32

# resource limit on the steps of one sampling run, given or default
MAX_STEPS = 10 ** 6

# resource limit on samples x times of one estimate, the length of its
# 8-byte value arrays: 10^8 values take 0.8 GB
MAX_VALUES = 10 ** 8

# samples per block of the estimator, which walks and evaluates one
# block at a time, each from its own stream (see estimate_stats).  A
# power of two and at least _chunk_len(2): a block then holds at least
# one whole chunk of the step at every side >= 2, and a whole number of
# chunks at sides 2, 4, 8 and 16.  Max-RSS medians of 7 runs of
# `simulate --field H --N 2 --word "u11 u11" --samples 10000 --steps 20`
# on a 2-core Xeon VM, one BLAS thread, in 10^6 bytes: 39.8 at 2^11,
# 40.2 at 2^12 and 41.0 at 2^13, against 41.3 for one pool of all the
# samples, all in 0.34 s of CPU time; the same job over C read 39.3 at
# each size, against 39.2
SAMPLE_BLOCK = 2 ** 11


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
# x^(m+1) / (m+1)! / (1 - x/(m+2)) stays below 2^-53.  In any
# submultiplicative norm, x bounds the remainder where it is the norm, or
# alpha_p = max(d_p, d_(p+1)) with d_p = ||a^p||^(1/p) for p(p-1) <= m+1
# (Al-Mohy & Higham 2009).  The Frobenius norm is submultiplicative,
# costs one sum of squares and bounds every entry, so with it the
# remainder stays below 2^-53 entrywise
_TAYLOR = ((8, 0.0699), (12, 0.3352), (16, 0.8245), (20, 1.504))

# past this Frobenius norm the squarings would amplify the rounding of
# the Taylor sum by more than 2^52, which leaves no correct digit
_NORM_MAX = 2.0 ** 52 * _TAYLOR[-1][1]

# entries per chunk of a batch, so that a chunk's arrays stay in a
# core's cache: on a Xeon with 2 MiB of L2 per core, chunks of 2^12
# entries made whole steps 4-30% slower at sides 2 to 8, and 2^14 moved
# them by -18% to +8%, within the run-to-run spread on most sides
_CHUNK = 2 ** 13

# complex sides whose products run faster as one float64 product.  On
# the same Xeon, per matrix at side 8, the batched complex product costs
# 0.42 us, the float64 product 0.11 us and building the real form
# 0.19 us; a chunk builds three real forms for six products.  Whole steps
# at 10^4 samples took 0.84-0.88 of the complex time at sides 12 and 16,
# and 0.95-0.97 at sides 20 to 32, which is within the spread
_REAL_SIDES = range(2, 17)

# slots of the buffer of `_expm_chunk`, each one chunk: a to a^4, then
# the real form of a and after it the Paterson-Stockmeyer blocks of the
# top degree
_SLOTS = 4 + _TAYLOR[-1][0] // 4


def expm(a):
    """e^a for every matrix of a batch of shape (samples, n, n), float64
    or complex128.

    Scaling and squaring with a truncated Taylor series of one degree
    per chunk of _CHUNK entries.  The degree and the number of squarings
    come from alpha = max(||a^4||_F^(1/4), ||a^5||_F^(1/5)) in the
    Frobenius norm, the fifth root bounded by (||a^4||_F ||a||_F)^(1/5),
    the largest over the chunk.  alpha is at most the Frobenius norm, and
    for the normal matrices of a Lie algebra at least the spectral radius
    and near it, so the degree is never higher than the Frobenius norm
    would give.  Complex matrices of the sides in _REAL_SIDES are
    multiplied as one float64 product (see `_mul`).

    Raises ValueError for a Frobenius norm above 2^52 * 1.504, or one
    that is not finite, where the squarings would leave no correct digit.
    """
    a = np.asarray(a)
    step = _chunk_len(a.shape[-1])
    out = np.empty_like(a)
    for i in range(0, len(a), step):
        c = a[i:i + step]
        p = np.empty((_SLOTS,) + c.shape, a.dtype)
        p[0] = c
        out[i:i + step] = _expm_chunk(p)
    return out


def _chunk_len(n):
    """Matrices of side n per chunk."""
    return max(1, _CHUNK // n ** 2)


def _frobenius(x):
    """Frobenius norm of each matrix of a C-contiguous batch: one sum of
    squares over its float64 view, which holds a complex entry as its
    real and imaginary parts."""
    f = x.view(np.float64).reshape(len(x), -1)
    return np.sqrt(np.einsum("ij,ij->i", f, f))


def _degree(norm, a3, a4):
    """Taylor degree m and squaring count s for a chunk whose matrices
    have Frobenius norms `norm` and cubes and fourth powers a3 and a4.

    p(p-1) <= m+1 admits alpha_4 from m = 12 on; degree 8 needs
    alpha_3 = max(d_3, d_4).  Each alpha is capped by the Frobenius norm,
    which also bounds the remainder.
    """
    theta8, theta_top = _TAYLOR[0][1], _TAYLOR[-1][1]
    top = float(norm.max())
    n4 = _frobenius(a4)
    d4 = float(n4.max()) ** 0.25
    if top <= theta8 or (
            d4 <= theta8 and float(_frobenius(a3).max()) ** (1 / 3) <= theta8):
        return 8, 0
    alpha = min(top, max(d4, float((n4 * norm).max()) ** 0.2))
    s = math.ceil(math.log2(alpha / theta_top)) if alpha > theta_top else 0
    for m, theta in _TAYLOR[1:]:
        if alpha <= theta * 2.0 ** s:
            break
    return m, s


def _right_factor(y, out=None):
    """y as the right factor of `_mul`: for complex sides in _REAL_SIDES
    its 2n x 2n real form, rows 2k and 2k+1 holding row k of y and of
    i*y as interleaved (re, im) pairs, written into the C-contiguous
    `out` of twice y's size if given; otherwise y itself."""
    n = y.shape[-1]
    if y.dtype != np.complex128 or n not in _REAL_SIDES:
        return y
    shape = y.shape[:-2] + (n, 2, 2 * n)
    yr = np.empty(shape) if out is None else \
        out.view(np.float64).reshape(shape)
    yr[..., 0, :] = y.view(np.float64)
    np.multiply(y, 1j, out=yr[..., 1, :].view(np.complex128))
    return yr.reshape(y.shape[:-2] + (2 * n, 2 * n))


def _mul(x, yr, out=None):
    """x @ y over a batch, for yr = _right_factor(y), into `out` if given
    (which may be x).

    A real form yr takes the interleaved float64 view of x, whose row k
    times yr is row k of x @ y as (re, im) pairs: the same sums of
    products, one float64 product in place of a complex one whose batched
    call costs more on small sides.
    """
    if yr.dtype == x.dtype:
        return np.matmul(x, yr, out=out)
    if out is None:
        out = np.empty_like(x)
    np.matmul(x.view(np.float64), yr, out=out.view(np.float64))
    return out


def _expm_chunk(p):
    """e^a for the chunk a = p[0] of a C-contiguous buffer p of shape
    (_SLOTS, c, n, n), whose other slots it overwrites: slots 1 to 3
    with a^2, a^3 and a^4, then the real form of a^4 and the Horner sums,
    and the rest with the real form of a, then the blocks.  Slots 1 and 2
    are free when it returns, and without squarings e^a is one of the
    others.

    Paterson-Stockmeyer in powers of a^4: three batched products for
    a^2, a^3 and a^4, one coefficient product for all the blocks,
    m/4 - 1 Horner products, and no solve.  The scaling by 2^-s is
    folded into the coefficients and a^4, exact in binary.  Without
    squarings it allocates no array of the chunk's size.
    """
    a = p[0]
    norm = _frobenius(a)
    if not norm.max() <= _NORM_MAX:
        raise ValueError("a matrix exponent of Frobenius norm %.3g is past "
                         "%.3g, where the squarings leave no correct digit"
                         % (norm.max(), _NORM_MAX))
    # each product reuses the real form of a
    ar = _right_factor(a, out=p[4:6])
    for i in (1, 2, 3):
        _mul(p[i - 1], ar, out=p[i])
    m, s = _degree(norm, p[2], p[3])
    if s:
        p[3] *= 2.0 ** (-4 * s)
    coef = _taylor_blocks(m, s)
    k = len(coef)
    blocks = p[4:4 + k]
    np.matmul(coef, p[:4].view(np.float64).reshape(4, -1),
              out=blocks.view(np.float64).reshape(k, -1))
    # a^2 and a^3 are spent: the real form of a^4 takes their slots, and
    # Horner's rule alternates between a free slot and the top block
    a4 = p[3]
    a4r = _right_factor(a4, out=p[1:3])
    r = blocks[k - 1]
    free = (p[1] if a4r is a4 else a4, r)
    for j in range(k - 2, -1, -1):
        r = _mul(r, a4r, out=free[(k - j) % 2])
        r += blocks[j]
    # r is C-contiguous, so the reshape is a view of its diagonals
    r.reshape(len(r), -1)[:, ::a.shape[-1] + 1] += 1.0
    for _ in range(s):
        r = _mul(r, _right_factor(r))
    return r


@functools.lru_cache(maxsize=None)
def _taylor_blocks(m, s):
    """Coefficients that take a, a^2, a^3 and b^4 to the m/4
    Paterson-Stockmeyer blocks of degree m for b = 2^-s a.

    Block j is sum_i b^i / (4j+i)! for i = 1..4.  Its b^4 term is the
    identity term of block j+1 times b^4, or b^m / m! in the top block,
    so Horner's rule on the blocks lacks only the identity of block 0.
    """
    coef = np.array([[2.0 ** (-s * i) / math.factorial(4 * j + i)
                      for i in (1, 2, 3)] + [1.0 / math.factorial(4 * j + 4)]
                     for j in range(m // 4)])
    coef.setflags(write=False)
    return coef


@functools.lru_cache(maxsize=None)
def _lie_layout(N, field):
    """Where the coordinates of a Gaussian Lie element go.

    Returns (dim, idx, w): the float64 view of sum_k g_k H_k over the
    orthonormal basis of `lie_basis`, flattened, is g[idx] * w, one
    coordinate g_k or 0 per float.  Off-diagonal entries have weight
    1/sqrt(beta N) per real coordinate, with X_ji = -conj(X_ij); the
    diagonal is imaginary, of weight sqrt(2/(beta N)).
    """
    beta = BETA[field]
    iu, ju = np.triu_indices(N, 1)
    pairs = len(iu) * beta
    idx = np.zeros((N, N, beta), dtype=np.intp)
    w = np.zeros((N, N, beta))
    idx[iu, ju] = idx[ju, iu] = np.arange(pairs).reshape(-1, beta)
    w[iu, ju] = w[ju, iu] = 1.0 / math.sqrt(beta * N)
    w[ju, iu, 0] *= -1.0
    d = np.arange(N)
    idx[d, d, 1:] = pairs + np.arange(N * (beta - 1)).reshape(N, -1)
    w[d, d, 1:] = math.sqrt(2.0 / (beta * N))
    if field == "H":
        # carry each float's component, with its sign, through the
        # embedding: code c + 1 marks component c of the (N, N, 4) array
        code = quat_embed(np.arange(1.0, 4 * N * N + 1).reshape(N, N, 4))
        code = code.view(np.float64).ravel()
        comp = np.abs(code).astype(np.intp) - 1
        idx, w = idx.ravel()[comp], np.sign(code) * w.ravel()[comp]
    idx, w = idx.ravel(), w.ravel()
    for x in (idx, w):
        x.setflags(write=False)
    return pairs + N * (beta - 1), idx, w


def _gaussian_lie(rng, layout, out):
    """Gaussian elements of the Lie algebra into `out`, a C-contiguous
    batch of shape (samples, n, n), which it returns.

    `layout` is the (dim, idx, w) of `_lie_layout`, its weights w times a
    scale: out gets sum_k g_k H_k over the orthonormal basis times that
    scale, from one normal g_k per real degree of freedom.  H elements
    come as their complex embedding, of side 2N.
    """
    dim, idx, w = layout
    flat = out.view(np.float64).reshape(len(out), -1)
    if not dim:
        flat.fill(0.0)
        return out
    # mode "raise" writes through a temporary; every index is in range
    np.take(rng.standard_normal((len(out), dim)), idx, axis=1, out=flat,
            mode="clip")
    flat *= w
    return out


def _step_count(t, steps):
    """The steps of a sampling run to time t: `steps`, or by default the
    fine steps of the extrapolated estimate, DEFAULT_FINE * t rounded to
    an even count, at least two."""
    if not t >= 0:
        raise ValueError("negative time" if t < 0 else "time is not a number")
    pairs = None
    if steps is None:
        # rounded only below the bound, as DEFAULT_FINE t may overflow
        pairs = max(1.0, DEFAULT_FINE * t / 2)
        steps = 2 * pairs
    if steps < 1:
        raise ValueError("need at least one step")
    if steps > MAX_STEPS:
        raise ValueError("t = %g takes %.7g steps, more than the %d allowed"
                         % (t, steps, MAX_STEPS))
    return int(round(steps)) if pairs is None else 2 * int(round(pairs))


def sample_terminals(N, field, t, samples, steps=None, seed=0):
    """Terminal matrices of `samples` independent Brownian paths.

    Returns an array of shape (samples, N, N) for R and C, and the
    complex embedding, of shape (samples, 2N, 2N), for H.  Without
    `steps`, takes the default estimate's fine steps, DEFAULT_FINE * t
    rounded to an even count, at least two.  Raises ValueError past
    MAX_STEPS steps.
    """
    return _terminals(N, field, [t], samples, steps, seed)[0][0]


def _terminals(N, field, times, samples, steps, seed, coupled=False):
    """The paths of `sample_terminals` at each of `times`, as a list of
    tuples: (fine,) or, `coupled`, (fine, coarse) as `_walk` gives them.

    Times whose runs have the same float step t/steps share one family
    of paths, read off at each one's step count: the draws depend only
    on the seed and the step, so each terminal is bit for bit what its
    own run gives.
    """
    _check_field(field)
    if samples < 1:
        raise ValueError("need at least one sample")
    runs = [(t / k, k) for t, k in zip(
        times, [_step_count(t, steps) for t in times])]
    paths = {dt: _walk(N, field, dt, {k for d, k in runs if d == dt},
                       samples, seed, coupled)
             for dt in {d for d, _ in runs}}
    return [paths[dt][k] for dt, k in runs]


def _walk(N, field, dt, stops, samples, seed, coupled=False):
    """Paths of step dt from the identity, as a map from each step count
    in `stops` to the tuple (paths after that many steps,).  `coupled`
    walks in pairs of steps, to even stops, and adds a coarse path of
    step 2 dt to the tuple: where the fine path multiplies by e^a and
    then by e^b, the coarse one multiplies by e^(a + b), which has the
    law of its step, so it draws no normals of its own.

    A step draws and exponentiates one chunk of increments at a time and
    multiplies it into its rows of u in place, so that no batch-sized
    temporary lives beside the paths.  Each chunk's increments are drawn
    into the buffer of `_expm_chunk`, allocated once and cut to the
    chunk's length, which holds every array of the step; a coupled pair
    is drawn back to back into slots 0 and 1 of a buffer of one more
    slot, so a is still in slot 0 for the sum.
    """
    rng = np.random.default_rng(seed)
    n = _side(field, N)
    u = np.broadcast_to(np.eye(n, dtype=float if field == "R" else complex),
                        (samples, n, n)).copy()
    walks = (u, u.copy()) if coupled else (u,)
    chunk = _chunk_len(n)
    rows = [slice(i, i + chunk) for i in range(0, samples, chunk)]
    per = len(walks)
    slots = _SLOTS + per - 1
    powers = np.empty(slots * n * n * min(chunk, samples), u.dtype)
    dim, idx, w = _lie_layout(N, field)
    layout = dim, idx, w * math.sqrt(dt)
    last = max(stops)
    out = {}
    for k in range(per, last + 1, per):
        if dt > 0:
            for r in rows:
                uc = u[r]
                p = powers[:slots * uc.size].reshape((slots,) + uc.shape)
                for j in range(per):
                    _gaussian_lie(rng, layout, p[j])
                    _step(uc, p[j:j + _SLOTS], dt)
                if coupled:
                    p[0] += p[1]
                    _step(walks[1][r], p[:_SLOTS], 2 * dt)
        if k in stops:
            out[k] = walks if k == last else tuple(x.copy() for x in walks)
    return out


def _step(u, p, dt):
    """u e^a into u in place, for the increments a = p[0] of step dt and
    the power buffer p of `_expm_chunk`."""
    try:
        e = _expm_chunk(p)
    except ValueError as exc:
        raise ValueError("step size t/steps = %g is too large: %s"
                         % (dt, exc)) from None
    _mul(u, _right_factor(e, out=p[1:3]), out=u)


def unitarity_defect(u, field):
    """Largest entry of U U* - 1 over a batch of shape (..., n, n), the
    same for every field: H matrices come as their complex embedding.
    The batch is taken in the chunks of `sample_chunks`."""
    n = u.shape[-1]
    u = u.reshape((-1, n, n))
    eye = np.eye(n)
    return float(np.max([
        np.abs(c @ np.conj(np.swapaxes(c, -1, -2)) - eye).max()
        for c in (u[r] for r in sample_chunks(len(u), n * n))]))


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
    return estimate_stats(b, word, field, df, [t], samples, seed, steps)[0]


def estimate_stats(b, word, field, df, times, samples, seed=0, steps=None):
    """`estimate_stat` at each t of `times`, as a list of (mean, stderr).

    With `steps`, each sample's value is the statistic F of its paths.
    Without, it is 2 F - C: F on the fine paths of the default even step
    count M, C on coarse paths of M/2 steps coupled to them (see
    `_walk`).  The scheme is weak order 1, E F = exact + c/M + O(1/M^2),
    so the extrapolation cancels the first-order bias (Talay & Tubaro
    1990), and the coupling keeps its variance near that of F alone.

    The samples are taken in blocks of SAMPLE_BLOCK, one block at a time:
    its paths are walked, its values at every time written into one
    array per time, and its paths dropped before the next block.  So a
    run holds one block's paths (twice for the coupled pair) and
    block-sized temporaries, whatever the sample count, besides 8 bytes
    per sample and time for the values, of which there may be at most
    MAX_VALUES.  Letter l draws from the l-th child of
    SeedSequence(seed).spawn(L), L the number of letters: block 0 from
    that child itself, block i >= 1 from the child's (i-1)-th spawned
    child.  A block's draws thus do not depend on the sample count, and
    a run of at most SAMPLE_BLOCK samples gives the bytes that one pool
    per letter gave; a larger run gives other paths, from the same law.

    Within a block, a letter's paths are sampled once for all the times
    whose runs have the same float step t/steps, as the default steps
    give t = 0.5 and t = 1, and read off at each one's step count: each
    pair is bit for bit what its own `estimate_stat` call gives.
    """
    _check_field(field)
    if samples < 2:
        raise ValueError("a standard error needs samples >= 2")
    if not times:
        raise ValueError("need at least one time")
    n = total_dim(df)
    letters = sorted({l.letter for l in word})
    at = [[t[c] if isinstance(t, dict) else float(t) for t in times]
          for c in letters]
    # every time, and the values' size, is checked before the values are
    # allocated
    for t in (t for ts in at for t in ts):
        _step_count(t, steps)
    if samples * len(times) > MAX_VALUES:
        raise ValueError("%d samples at %d times take more than the %d "
                         "values allowed"
                         % (samples, len(times), MAX_VALUES))
    streams = [_block_seeds(child) for child in
               np.random.SeedSequence(seed).spawn(len(letters))]
    coupled = steps is None
    values = [np.empty(samples) for _ in times]
    for start in range(0, samples, SAMPLE_BLOCK):
        size = min(SAMPLE_BLOCK, samples - start)
        pools = [{} for _ in times]
        for letter, ts, stream in zip(letters, at, streams):
            us = _terminals(n, field, ts, size, steps, next(stream), coupled)
            for pool, u in zip(pools, us):
                pool[letter] = u
        # only the pools hold the paths now, so each time's paths are
        # released once its values are written
        del us, u, pool
        for value in values:
            _write_values(b, word, field, df, pools.pop(0),
                          value[start:start + size])
    return [(float(v.mean()), float(v.std(ddof=1) / math.sqrt(samples)))
            for v in values]


def _block_seeds(seq):
    """The SeedSequence of each block of one letter's samples in turn:
    `seq` itself, then the children that it spawns, in order."""
    yield seq
    while True:
        yield seq.spawn(1)[0]


def _write_values(b, word, field, df, pool, out):
    """The values of one time on a block into `out`: F on the paths of
    each letter in `pool`, or 2 F - C where each letter has a coupled
    (fine, coarse) pair."""
    fine = _values(b, word, field, df, {c: u[0] for c, u in pool.items()})
    if len(next(iter(pool.values()))) == 1:
        out[:] = fine
    else:
        # the coarse statistic after the fine one, not stacked with it,
        # which would copy both pools
        np.subtract(2.0 * fine, _values(
            b, word, field, df, {c: u[1] for c, u in pool.items()}),
            out=out)


def _values(b, word, field, df, pool):
    """Real part of the statistic, sample by sample, on the terminals of
    each letter in `pool`."""
    if field == "C":
        barred = {c: np.conj(pool[c])
                  for c in {l.letter for l in word if l.bar}}
    else:
        barred = pool
    mats = [barred[l.letter] if l.bar else pool[l.letter] for l in word]
    # samplewise statistics are complex; their expectation is real
    return np.real(m_stat(b, mats, df, field))
