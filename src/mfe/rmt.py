"""Monte-Carlo Brownian motion on the orthogonal, unitary and symplectic
groups.

The integrator is multiplicative: each step right-multiplies by the
exponential of a Gaussian element of the Lie algebra, so every sample
stays exactly in the group.  Quaternionic matrices are kept in the
native (N, N, 4) layout; they pass through the complex 2N-dimensional
representation only inside the exponential kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .evaltrace import (
    complex_to_quat,
    m_stat,
    q_re_trace,
    qadjoint,
    qconj,
    qmatmul,
    quat_eye,
    quat_to_complex,
    total_dim,
)

BETA = {"R": 1, "C": 2, "H": 4}

DEFAULT_STEPS_PER_UNIT_TIME = 200


def _check_field(field):
    if field not in BETA:
        raise ValueError("unknown field tag %r" % (field,))


def inner_product(field, N, x, y):
    """<X, Y>_N = (beta N / 2) Re Tr(X* Y)."""
    beta = BETA[field]
    if field == "H":
        prod = qmatmul(qadjoint(x), y)
        return beta * N / 2.0 * q_re_trace(prod)
    return beta * N / 2.0 * float(np.trace(x.conj().T @ y).real)


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

    def stacked(self):
        return np.stack(self.elements)


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
    if field == "H":
        total = np.zeros((N, N, 4))
        for h in basis:
            total += qmatmul(h, h)
        want = casimir_constant(field, N) * quat_eye(N)
    else:
        total = sum(h @ h for h in basis)
        want = casimir_constant(field, N) * np.eye(N)
    return float(np.abs(total - want).max())


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

# Taylor degrees m = 4k with the largest 1-norm x for which the remainder
# bound x^(m+1) / (m+1)! / (1 - x/(m+2)) stays below 2^-53
_TAYLOR = ((8, 0.0699), (12, 0.3352), (16, 0.8245), (20, 1.504))


def expm(a):
    """e^a for every matrix of a batch of shape (samples, n, n).

    The batch is cut into chunks of 2^16 entries, so that the products
    and sums of a chunk stay in cache.
    """
    out = np.empty_like(a)
    step = max(1, 2 ** 16 // a.shape[-1] ** 2)
    for i in range(0, len(a), step):
        out[i:i + step] = _expm_chunk(a[i:i + step])
    return out


def _expm_chunk(a):
    """Scaling and squaring with a truncated Taylor series of one degree
    for the whole chunk, picked from its largest 1-norm, and evaluated by
    Paterson-Stockmeyer in powers of a^4: at most seven batched products
    before the squarings, and no solve.
    """
    norm = float(np.abs(a).sum(axis=-2).max())
    for m, theta in _TAYLOR:
        if norm <= theta:
            break
    squarings = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    a = a / 2.0 ** squarings
    k = m // 4
    a2 = a @ a
    a3 = a2 @ a
    a4 = a2 @ a2
    # block j holds the terms of degree 4j .. 4j+3 without a^(4j)
    coef = np.array([[1.0 / math.factorial(4 * j + i) for i in (1, 2, 3)]
                     for j in range(k)], dtype=a.dtype)
    blocks = np.tensordot(coef, np.stack((a, a2, a3)), axes=1)
    diag = np.arange(a.shape[-1])
    for j in range(k):
        blocks[j][..., diag, diag] += 1.0 / math.factorial(4 * j)
    r = blocks[k - 1] + a4 / math.factorial(m)
    for j in range(k - 2, -1, -1):
        r = r @ a4
        r += blocks[j]
    for _ in range(squarings):
        r = r @ r
    return r


def _default_steps(t):
    return max(1, int(round(DEFAULT_STEPS_PER_UNIT_TIME * t)))


def _gaussian_lie(rng, N, field, samples):
    """Standard Gaussian elements of the Lie algebra, sampled entrywise.

    The law equals sum_k g_k H_k over the orthonormal basis, but costs
    O(N^2) per sample instead of the O(N^4) basis contraction.
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
    return x


def sample_terminals(N, field, t, samples, steps=None, seed=0):
    """Terminal matrices of `samples` independent Brownian paths.

    Returns an array of shape (samples, N, N) for R and C, and
    (samples, N, N, 4) for H.
    """
    _check_field(field)
    if t < 0:
        raise ValueError("negative time")
    if samples < 1:
        raise ValueError("need at least one sample")
    if steps is None:
        steps = _default_steps(t)
    if steps < 1:
        raise ValueError("need at least one step")
    rng = np.random.default_rng(seed)
    if field == "H":
        u = np.broadcast_to(np.eye(2 * N, dtype=complex),
                            (samples, 2 * N, 2 * N)).copy()
    else:
        dt = complex if field == "C" else float
        u = np.broadcast_to(np.eye(N, dtype=dt), (samples, N, N)).copy()
    if t > 0:
        scale = math.sqrt(t / steps)
        for _ in range(steps):
            incr = _gaussian_lie(rng, N, field, samples)
            if field == "H":
                incr = quat_to_complex(incr)
            u = u @ expm(incr * scale)
    if field == "H":
        return complex_to_quat(u)
    return u


class SamplePath:
    """One sampled path, holding only its terminal matrix."""

    def __init__(self, N, field, t, steps, seed, matrix):
        self.N = N
        self.field = field
        self.t = t
        self.steps = steps
        self.seed = seed
        self.matrix = matrix

    def unitarity_defect(self):
        return unitarity_defect(self.matrix, self.field)


def unitarity_defect(u, field):
    """Largest entry of U U* - 1 over a batch of shape (..., N, N), or
    (..., N, N, 4) for H."""
    if field == "H":
        prod = qmatmul(u, qadjoint(u)) - quat_eye(u.shape[-2])
    else:
        prod = u @ np.conj(np.swapaxes(u, -1, -2)) - np.eye(u.shape[-1])
    return float(np.abs(prod).max())


def sample_bm(N, field, t, steps=None, seed=0) -> SamplePath:
    """One Brownian sample on U(N, K) via the multiplicative scheme."""
    if steps is None:
        steps = _default_steps(t)
    mat = sample_terminals(N, field, t, 1, steps, seed)[0]
    return SamplePath(N, field, t, steps, seed, mat)


# ---------------------------------------------------------------------------
# block bookkeeping
# ---------------------------------------------------------------------------

def _dims_list(dims):
    out = [int(d) for d in dims]
    if not out or any(d < 1 for d in out):
        raise ValueError("dims must be positive integers")
    return out


def extract_blocks(a, dims):
    """Map (i, j) -> d_i x d_j sub-block, blocks indexed from 1."""
    dims = _dims_list(dims)
    if sum(dims) != a.shape[0] or sum(dims) != a.shape[1]:
        raise ValueError("dims do not tile the matrix")
    starts = np.concatenate([[0], np.cumsum(dims)])
    out = {}
    for i in range(len(dims)):
        for j in range(len(dims)):
            out[(i + 1, j + 1)] = a[starts[i]:starts[i + 1],
                                    starts[j]:starts[j + 1]]
    return out


def cluster_map(a, dims, pi):
    """Regroup the blocks of `a` by the classes of the partition `pi` of
    the block indices; classes must hold blocks of one common dimension.
    The result is the same matrix with rows and columns permuted so each
    class becomes one contiguous square block."""
    dims = _dims_list(dims)
    if sum(dims) != a.shape[0] or sum(dims) != a.shape[1]:
        raise ValueError("dims do not tile the matrix")
    blocks = [tuple(sorted(c)) for c in pi]
    flat = sorted(x for c in blocks for x in c)
    if flat != list(range(1, len(dims) + 1)):
        raise ValueError("pi is not a partition of the block indices")
    for c in blocks:
        if len({dims[x - 1] for x in c}) != 1:
            raise ValueError("class %s mixes block dimensions" % (c,))
    starts = np.concatenate([[0], np.cumsum(dims)])
    order = []
    for c in sorted(blocks):
        for x in c:
            order.extend(range(starts[x - 1], starts[x]))
    order = np.array(order)
    return a[order][:, order]


# ---------------------------------------------------------------------------
# empirical statistics
# ---------------------------------------------------------------------------

def estimate_stat(b, word, field, df, t, samples, seed=0, steps=None):
    """Monte-Carlo mean and standard error of the block trace statistic.

    Each distinct word letter gets an independent family of sample
    paths; t may be a scalar or a map letter -> time.  Barred letters
    evaluate on the entry-wise conjugate of the sampled matrix.
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
    conj = qconj if field == "H" else np.conj
    barred = {c: conj(pools[c]) for c in {l.letter for l in word if l.bar}}
    mats = [barred[l.letter] if l.bar else pools[l.letter] for l in word]
    # samplewise statistics are complex; their expectation is real
    values = np.real(m_stat(b, mats, df, field))
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples))
    return mean, stderr
