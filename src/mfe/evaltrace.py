"""Evaluation of coloured diagrams on tuples of block matrices.

The statistic attached to an oriented coloured diagram factorizes over the
loops of the diagram graph: each loop contributes the trace of an ordered
product of sub-blocks (transposed where the orientation sign is -1), and a
per-class normalizer d^(-fnc) (or (-2d)^(-fnc) in the quaternion case)
makes the value dimension free.

A quaternion n x m matrix is stored as its complex embedding of shape
(2n, 2m), made by quat_embed, so that one layout serves the three fields.
Evaluation is batched: slot matrices may carry any leading sample axes,
and the statistic then has those axes.

The conditional expectation onto the block projectors keeps one
normalized trace per diagonal block; nesting it along a non-crossing
partition and applying a Moebius transformation gives the amalgamated
cumulants of a tuple of matrices.
"""

from __future__ import annotations

import numpy as np

from .brauer import canonical_orientation, fnc, oriented_cycles
from .ncpart import NonCrossingPartition, as_set_partition, enumerate_nc, \
    mobius_nc


# ---------------------------------------------------------------------------
# quaternion matrices
# ---------------------------------------------------------------------------

def quat_embed(a):
    """Complex embedding of quaternion matrices, batched over leading axes.

    a holds the 1, i, j, k components of n x m quaternion matrices in its
    last axis, shape (..., n, m, 4).  The result has shape (..., 2n, 2m):
    entry a+bi+cj+dk becomes the 2x2 block [[a+bi, c+di], [-c+di, a-bi]].
    The map is a *-homomorphism, so products are matrix products, the
    quaternion adjoint is the conjugate transpose, and the real part of
    the quaternion trace is half that of the complex one.
    """
    n, m = a.shape[-3:-1]
    x = a[..., 0] + 1j * a[..., 1]
    y = a[..., 2] + 1j * a[..., 3]
    out = np.empty(a.shape[:-3] + (n, 2, m, 2), dtype=complex)
    out[..., 0, :, 0] = x
    out[..., 0, :, 1] = y
    out[..., 1, :, 0] = -y.conj()
    out[..., 1, :, 1] = x.conj()
    return out.reshape(a.shape[:-3] + (2 * n, 2 * m))


# ---------------------------------------------------------------------------
# block layout induced by a dimension function
# ---------------------------------------------------------------------------

def block_offsets(df):
    """Start index of each colour block; colours sit in increasing order."""
    off, pos = {}, 0
    for c in sorted(df.dims):
        off[c] = pos
        pos += int(df.value(c))
    return off, pos


def total_dim(df):
    return block_offsets(df)[1]


def block_slice(df, c, scale=1):
    """Indices of colour block c; scale 2 gives its rows or columns in
    the complex embedding of a quaternion matrix."""
    off, _ = block_offsets(df)
    d = int(df.value(c))
    return slice(scale * off[c], scale * (off[c] + d))


# ---------------------------------------------------------------------------
# trace evaluation
# ---------------------------------------------------------------------------

# entries of one sample's slot matrix per chunk of samples that m_stat
# evaluates at once, so that a pool costs its own memory plus chunk-sized
# temporaries.  On a Xeon with 2 MiB of L2 per core, one BLAS thread, the
# 584 words of criterion 6 on 10^4 complex samples of sides 8 and 16
# took 0.90-0.93 and 0.92-0.97 of the one-shot time at 2^13 entries,
# 0.85-0.87 and 0.84-0.88 at 2^14, and 0.83-0.85 and 0.80-0.84 at 2^15
# (two runs, interleaved word by word).  The H statistic of `simulate
# --N 2 --word "u11 u11"` on 10^4 samples, whose three temporaries are
# chunk-sized, peaked at 0.9 MB at 2^14 and 1.7 MB at 2^15 beside its
# 2.6 MB pool (tracemalloc)
STAT_CHUNK = 2 ** 14


def sample_chunks(samples, entries):
    """Slices that cut a leading axis of `samples` samples of `entries`
    entries each into chunks of at most STAT_CHUNK entries, or of one
    sample where one sample holds more."""
    step = max(1, STAT_CHUNK // entries)
    return [slice(i, i + step) for i in range(0, samples, step)]


def _loop_factors(cycle, signs, b, df, scale):
    """The factors of the trace read off one loop of the diagram, in
    traversal order, as (slot, index, adjoint): the block
    mats[slot][index], or its adjoint.

    cycle and signs are one entry of oriented_cycles.  Crossing the
    vertical edge of slot l upward (signs[l] = -1) contributes the
    (c(l), c(l')) block of mats[l-1], crossing it downward
    (signs[l] = +1) the transpose (adjoint for H) of that block.  A walk
    that leaves its start slot through the pairing edge crosses that
    slot last.
    """
    k = b.k
    if signs[cycle[0]] == 1:
        cycle = cycle[1:] + cycle[:1]
    return [(l - 1, (Ellipsis, block_slice(df, b.colour(l), scale),
                     block_slice(df, b.colour(k + l), scale)), signs[l] == 1)
            for l in cycle]


def _loop_trace(factors, mats, quat):
    """Trace of the product of one loop's factors (see _loop_factors).
    The quaternion value is -2 times the real part of the quaternion
    trace, which is minus the real part of the trace of the complex
    embedding.  Leading sample axes of the matrices carry through."""
    prod = None
    for slot, index, adjoint in factors:
        f = mats[slot][index]
        if adjoint:
            f = np.swapaxes(f, -1, -2)
            if quat:
                f = f.conj()
        prod = f if prod is None else prod @ f
    tr = np.trace(prod, axis1=-2, axis2=-1)
    return -tr.real if quat else tr


def m_stat(b, mats, df, field="C", orientation=None):
    """Normalized trace statistic of a coloured diagram on slot matrices.

    mats[l] is the full matrix for tensor slot l+1, of shape (..., N, N),
    or (..., 2N, 2N) for H, its complex embedding (see quat_embed); the
    statistic has the leading axes, so one call evaluates a whole pool
    of samples.  The pool is cut along its first axis by sample_chunks
    and each chunk's values are written into one result, so the call
    holds the pool plus chunk-sized temporaries.  The value does not
    depend on the orientation.  Loop variables, when present, contribute
    their class dimension (-2 times it for H) -- they cancel against the
    extra normalizer.
    """
    s = orientation if orientation is not None else canonical_orientation(
        b.pairing)
    if not b.is_valid(df):
        raise ValueError("diagram invalid under the dimension function")
    quat = field == "H"
    loops = [_loop_factors(cycle, sg, b, df, 2 if quat else 1)
             for cycle, sg in oriented_cycles(b.pairing, s)]
    # a removed loop of class d is worth d (-2d for H) in the numerator and
    # raises fnc_d by one, so extended diagrams evaluate like bare ones.
    ext = (b, s)
    norms = [((-2.0 if quat else 1.0) * float(df.value(cls)))
             ** (-fnc(ext, df, cls)) for cls in df.classes()]

    def value(mats):
        total = 1.0 + 0.0j if field == "C" else 1.0
        for factors in loops:
            total = total * _loop_trace(factors, mats, quat)
        for norm in norms:
            total = total * norm
        return total

    mats = np.broadcast_arrays(*mats)
    lead = mats[0].shape[:-2]
    if not lead:
        return value(mats)
    out = None
    for r in sample_chunks(lead[0], mats[0][0].size):
        chunk = value([m[r] for m in mats])
        if out is None:
            out = np.empty(lead, chunk.dtype)
        out[r] = chunk
    return out


def materialize_rho(b, df):
    """Explicit matrix of the diagram operator on the k-fold tensor space.

    Row multi-index runs over the top points, column multi-index over the
    bottom ones.  An entry is 1 when, for every pair of the diagram, the
    two incident indices lie in the paired colour blocks with equal
    offsets.  Intended for small N and k only.
    """
    import itertools

    k = b.k
    off, n = block_offsets(df)
    size = n ** k
    rho = np.zeros((size, size))

    def in_block(idx, c):
        return off[c] <= idx < off[c] + int(df.value(c))

    for col in itertools.product(range(n), repeat=k):
        for row in itertools.product(range(n), repeat=k):
            idx = {}
            for i in range(1, k + 1):
                idx[i] = col[i - 1]
                idx[k + i] = row[i - 1]
            ok = True
            for x, y in b.pairing.pairs:
                cx, cy = b.colour(x), b.colour(y)
                if not (in_block(idx[x], cx) and in_block(idx[y], cy)):
                    ok = False
                    break
                if idx[x] - off[cx] != idx[y] - off[cy]:
                    ok = False
                    break
            if ok:
                r = sum(v * n ** (k - 1 - i) for i, v in enumerate(row))
                c = sum(v * n ** (k - 1 - i) for i, v in enumerate(col))
                rho[r, c] = 1.0
    return rho


def rho_contract(b, mats, df):
    """Tr(rho(b) . A_1 (x) ... (x) A_k), the unnormalized statistic."""
    rho = materialize_rho(b, df)
    tensor = mats[0]
    for a in mats[1:]:
        tensor = np.kron(tensor, a)
    # Tr(rho . M) with M[col, row] products: rho rows are top indices
    return np.trace(rho @ tensor)


# ---------------------------------------------------------------------------
# conditional expectation onto the block projectors
# ---------------------------------------------------------------------------

class DiagonalElement:
    """Element of the commutative algebra spanned by the block
    projectors: one scalar per block, componentwise operations."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(values)

    @classmethod
    def one(cls, n):
        return cls([1.0] * n)

    @classmethod
    def zero(cls, n):
        return cls([0.0] * n)

    @property
    def n(self):
        return len(self.values)

    def __add__(self, other):
        return DiagonalElement(a + b
                               for a, b in zip(self.values, other.values))

    def __sub__(self, other):
        return DiagonalElement(a - b
                               for a, b in zip(self.values, other.values))

    def __mul__(self, other):
        if isinstance(other, DiagonalElement):
            return DiagonalElement(
                a * b for a, b in zip(self.values, other.values))
        return DiagonalElement(other * a for a in self.values)

    __rmul__ = __mul__

    def star(self):
        return DiagonalElement(v.conjugate() for v in self.values)

    def isclose(self, other, tol=1e-10):
        return all(abs(a - b) <= tol
                   for a, b in zip(self.values, other.values))

    def to_matrix(self, df, field="C"):
        """The block-diagonal matrix sum_i v_i p_i, of side 2n in the
        complex embedding for H."""
        scale = 2 if field == "H" else 1
        n = scale * total_dim(df)
        out = np.zeros((n, n), dtype=complex)
        for i, c in enumerate(sorted(df.dims)):
            s = block_slice(df, c, scale)
            out[s, s] = np.eye(s.stop - s.start) * self.values[i]
        return out

    def __repr__(self):
        return "DiagonalElement(%s)" % (list(self.values),)


def cond_expectation(a, df) -> DiagonalElement:
    """E[A] = sum_i (1/d_i) Tr(p_i A p_i) p_i, with Re Tr over H.

    A matrix of side 2n, twice that of the dimension function, is a
    quaternion matrix in its complex embedding, whose block traces are
    twice the quaternion ones in their real part.
    """
    n = total_dim(df)
    if a.shape not in ((n, n), (2 * n, 2 * n)):
        raise ValueError("matrix does not match the dimension function")
    scale = a.shape[0] // n
    vals = []
    for c in sorted(df.dims):
        s = block_slice(df, c, scale)
        v = np.trace(a[s, s]) / (s.stop - s.start)
        vals.append(float(v.real) if scale == 2 else v)
    return DiagonalElement(vals)


def _mat_product(mats):
    out = mats[0]
    for m in mats[1:]:
        out = out @ m
    return out


def e_pi(pi, mats, df) -> DiagonalElement:
    """Nested conditional expectation along a non-crossing partition.

    Innermost interval blocks are evaluated first and their diagonal
    results multiplied back in place of the subproduct they replace.
    Matrices of side twice total_dim(df) are H matrices in their complex
    embedding, as for cond_expectation.
    """
    mats = list(mats)
    k = len(mats)
    field = "H" if len(mats[0]) == 2 * total_dim(df) else "C"
    part = as_set_partition(pi, k)
    if len(part.blocks) == 0 or \
            sorted(x for b in part.blocks for x in b) != list(range(1, k + 1)):
        raise ValueError("partition does not cover the factors")
    positions = list(range(1, k + 1))
    work = {p: mats[p - 1] for p in positions}
    blocks = [sorted(b) for b in part.blocks]
    while len(blocks) > 1:
        # find an interval block in the current position order
        for bi, blk in enumerate(blocks):
            idx = [positions.index(p) for p in blk]
            if idx != list(range(min(idx), min(idx) + len(blk))):
                continue
            d = cond_expectation(
                _mat_product([work[p] for p in blk]), df)
            dm = d.to_matrix(df, field)
            lo = min(idx)
            if lo > 0:
                left = positions[lo - 1]
                work[left] = work[left] @ dm
            else:
                right = positions[lo + len(blk)]
                work[right] = dm @ work[right]
            for p in blk:
                positions.remove(p)
            blocks.pop(bi)
            break
        else:
            raise ValueError("no interval block: partition is crossing")
    last = blocks[0]
    return cond_expectation(
        _mat_product([work[p] for p in sorted(last)]), df)


def amalgamated_cumulant(pi, mats, df) -> DiagonalElement:
    """c_pi = sum_{gamma <= pi} mu(gamma, pi) E_gamma."""
    k = len(mats)
    part = as_set_partition(pi, k)
    top = NonCrossingPartition(part.blocks)
    n = len(df.dims)
    out = DiagonalElement.zero(n)
    for gamma in enumerate_nc(k):
        if not gamma.leq(top):
            continue
        w = float(mobius_nc(gamma, top))
        out = out + w * e_pi(gamma, mats, df)
    return out
