"""Monte-Carlo Brownian motion on the orthogonal, unitary and symplectic
groups.

The integrator is multiplicative: each step right-multiplies by the
exponential of a Gaussian element of the Lie algebra, so every sample
stays exactly in the group.  Quaternion matrices are complex matrices of
side 2N throughout, their embedding by `quat_embed`, from the Gaussian
draw to the trace.

The plain step is weak order 1.  Over one step X = sqrt(dt) sum_i g_i H_i,
with the H_i an orthonormal basis and Delta = sum_i H_i^2 the Laplacian,
the fourth moments of the g_i give

    E f(u e^X) = f + (dt/2) Delta f + (dt^2/8) Delta^2 f
                 + (kappa dt^2/48) Delta_s f + O(dt^3),

because sum_ij H_i [H_j, H_i] H_j = (kappa/2) Delta_s, where Delta_s sums
over the semisimple part of the algebra, orthogonal to its centre.  The
first three terms are those of e^(dt Delta/2); the last is the bias of
the step, which runs the semisimple part fast.  `kappa` is the Casimir
value of the adjoint action, sum_jk f_ijk^2 for the structure constants
f_ijk of the basis: for the metric (beta N/2) Re Tr(X* Y) it is
2 + 4 (beta - 2)/(beta N), that is 2 - 4/N over R (0 on the abelian
so(1) and so(2)), 2 over C and 2 + 2/N over H.  So each step draws the
semisimple part with variance dt (1 - kappa dt/24) instead of dt, which
cancels the last term and makes the scheme weak order 2 (cf. Malham &
Wiese, Stochastic Lie group integrators, 2008) at the cost of a scale.
That part is all of so(N) and sp(N), where the factor
s = sqrt(1 - kappa dt/24) sits in the weights of the draw, and the
traceless part of u(N): over C the centre is the multiples of the
identity, so the off-diagonal weights carry s and the diagonal of each
increment X becomes P X + s (X - P X), P X = (tr X / N) I.  A step with
kappa dt >= 24 has no such variance and is refused.  The default
estimate walks DEFAULT_STEPS * t steps, and `--steps` the same scheme.

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
block's paths plus chunk-sized temporaries and 8 bytes per sample and
time for the values: the step works one chunk of samples at a time, and
the statistics are evaluated in the chunks of `evaltrace.sample_chunks`.
Each block of a letter draws from a SeedSequence of its own (see
`estimate_stats`), so a run of at most SAMPLE_BLOCK samples draws what
one pool per letter drew, and a larger run draws other paths, from the
same law, than a single pool would.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .evaltrace import m_stat, quat_embed, total_dim

BETA = {"R": 1, "C": 2, "H": 4}

# steps per unit time of the default estimate: the smallest M of
# 8, 12, 16, 24 and 32 whose bias, the 4-step bias b_4 of tr(u11 u11) at
# t = 1 scaled by the weak order 2 as (|b_4| + 2 se) (4/M)^2, is below
# that of 200 plain first-order steps for C and H at N = 2 and R at
# N = 3 (4 * 10^6 samples each; table in CHANGES.md)
DEFAULT_STEPS = 16

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


def kappa(field, N):
    """The constant of the plain step's bias (see the module docstring):
    2 + 4 (beta - 2)/(beta N), and 0 on the abelian so(1) and so(2)."""
    if field == "R" and N <= 2:
        return 0.0
    beta = BETA[field]
    return 2.0 + 4.0 * (beta - 2) / (beta * N)


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
    orthonormal basis of `reference.lie_basis`, flattened, is g[idx] * w, one
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


def _step_layout(N, field, dt):
    """The layout of `_gaussian_lie` for the increments of step dt: the
    weights of `_lie_layout` times sqrt(dt), and times
    s = sqrt(1 - kappa dt/24) on the semisimple coordinates, all over R
    and H and all but the diagonal's N over C.  Returned with the factor
    for `_shrink_traceless`: s over C at N >= 2, else 1."""
    s = _semisimple_scale(N, field, dt)
    dim, idx, w = _lie_layout(N, field)
    semisimple = dim - N if field == "C" else dim
    w = np.where(idx < semisimple, s, 1.0) * (w * math.sqrt(dt))
    return (dim, idx, w), (s if field == "C" and N > 1 else 1.0)


def _semisimple_scale(N, field, dt):
    """s = sqrt(1 - kappa dt/24), the scale of the semisimple part of the
    increments of step dt, from kappa alone; a ValueError where
    kappa dt >= 24."""
    shrink = kappa(field, N) * dt / 24.0
    if not shrink < 1.0:
        raise ValueError("step size t/steps = %g is too large: the "
                         "semisimple variance factor 1 - kappa dt/24 = %.3g "
                         "is not positive" % (dt, 1.0 - shrink))
    return math.sqrt(1.0 - shrink)


def _shrink_traceless(x, s):
    """The diagonal of each matrix X of the C-contiguous batch x to that
    of P X + s (X - P X), P X = (tr X / N) I, in place."""
    d = x.reshape(len(x), -1)[:, ::x.shape[-1] + 1].imag
    c = d.mean(axis=1, keepdims=True)
    d -= c
    d *= s
    d += c


def _step_count(t, steps):
    """The steps of a sampling run to time t: `steps`, or by default
    DEFAULT_STEPS * t rounded, at least one."""
    if not t >= 0:
        raise ValueError("negative time" if t < 0 else "time is not a number")
    if steps is None:
        # rounded only below the bound, as DEFAULT_STEPS t may overflow
        steps = max(1.0, DEFAULT_STEPS * t)
    if steps < 1:
        raise ValueError("need at least one step")
    if steps > MAX_STEPS:
        raise ValueError("t = %g takes %.7g steps, more than the %d allowed"
                         % (t, steps, MAX_STEPS))
    return int(round(steps))


def _terminals(N, field, times, samples, steps, seed):
    """Terminal matrices of `samples` independent Brownian paths at each
    of `times`, as a list: arrays of shape (samples, N, N) for R and C,
    and the complex embedding, of shape (samples, 2N, 2N), for H.  Each
    time t takes `steps` steps, or by default DEFAULT_STEPS * t rounded,
    at least one (`_step_count`).

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
                       samples, seed)
             for dt in {d for d, _ in runs}}
    return [paths[dt][k] for dt, k in runs]


def _walk(N, field, dt, stops, samples, seed):
    """Paths of step dt from the identity, as a map from each step count
    in `stops` to the paths after that many steps.

    A step draws and exponentiates one chunk of increments at a time and
    multiplies it into its rows of u in place, so that no batch-sized
    temporary lives beside the paths.  Each chunk's increments are drawn
    into the buffer of `_expm_chunk`, allocated once and cut to the
    chunk's length, which holds every array of the step.
    """
    rng = np.random.default_rng(seed)
    n = _side(field, N)
    u = np.broadcast_to(np.eye(n, dtype=float if field == "R" else complex),
                        (samples, n, n)).copy()
    chunk = _chunk_len(n)
    rows = [slice(i, i + chunk) for i in range(0, samples, chunk)]
    powers = np.empty(_SLOTS * n * n * min(chunk, samples), u.dtype)
    layout, s = _step_layout(N, field, dt)
    last = max(stops)
    out = {}
    for k in range(1, last + 1):
        if dt > 0:
            for r in rows:
                uc = u[r]
                p = powers[:_SLOTS * uc.size].reshape((_SLOTS,) + uc.shape)
                _gaussian_lie(rng, layout, p[0])
                if s != 1.0:
                    _shrink_traceless(p[0], s)
                _step(uc, p, dt)
        if k in stops:
            out[k] = u if k == last else u.copy()
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


# ---------------------------------------------------------------------------
# empirical statistics
# ---------------------------------------------------------------------------

def estimate_stat(b, word, field, df, t, samples, seed=0, steps=None):
    """Monte-Carlo mean and standard error of the block trace statistic.

    Each distinct word letter gets an independent family of sample
    paths; t may be a scalar or a map letter -> time.  A barred letter
    reads the adjoint of its sampled matrix, which `m_stat` takes from
    the matrix as sampled and the word's bars.
    """
    return estimate_stats(b, word, field, df, [t], samples, seed, steps)[0]


def estimate_stats(b, word, field, df, times, samples, seed=0, steps=None):
    """`estimate_stat` at each t of `times`, as a list of (mean, stderr).

    Each sample's value is the statistic of its paths, walked with
    `steps` steps, or by default DEFAULT_STEPS * t rounded (see
    `_terminals`).

    The samples are taken in blocks of SAMPLE_BLOCK, one block at a time:
    its paths are walked, its values at every time written into one
    array per time, and its paths dropped before the next block.  So a
    run holds one block's paths and block-sized temporaries, whatever
    the sample count, besides 8 bytes per sample and time for the
    values, of which there may be at most MAX_VALUES.  Letter l draws
    from the l-th child of SeedSequence(seed).spawn(L), L the number of
    letters: block 0 from that child itself, block i >= 1 from the
    child's (i-1)-th spawned child.  A block's draws thus do not depend
    on the sample count, and a run of at most SAMPLE_BLOCK samples gives
    the bytes that one pool per letter gave; a larger run gives other
    paths, from the same law.

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
    # every time, its step size and the values' size are checked before
    # the values are allocated or any path is walked
    for t in (t for ts in at for t in ts):
        _semisimple_scale(n, field, t / _step_count(t, steps))
    if samples * len(times) > MAX_VALUES:
        raise ValueError("%d samples at %d times take more than the %d "
                         "values allowed"
                         % (samples, len(times), MAX_VALUES))
    streams = [_block_seeds(child) for child in
               np.random.SeedSequence(seed).spawn(len(letters))]
    values = [np.empty(samples) for _ in times]
    for start in range(0, samples, SAMPLE_BLOCK):
        size = min(SAMPLE_BLOCK, samples - start)
        pools = [{} for _ in times]
        for letter, ts, stream in zip(letters, at, streams):
            us = _terminals(n, field, ts, size, steps, next(stream))
            for pool, u in zip(pools, us):
                pool[letter] = u
        # only the pools hold the paths now, so each time's paths are
        # released once its values are written
        del us, u, pool
        for value in values:
            # samplewise statistics are complex; their expectation is real
            value[start:start + size] = np.real(m_stat(
                b, [pools[0][l.letter] for l in word], df, field,
                bars=[l.bar for l in word]))
            del pools[0]
    return [(float(v.mean()), float(v.std(ddof=1) / math.sqrt(samples)))
            for v in values]


def _block_seeds(seq):
    """The SeedSequence of each block of one letter's samples in turn:
    `seq` itself, then the children that it spawns, in order."""
    yield seq
    while True:
        yield seq.spawn(1)[0]
