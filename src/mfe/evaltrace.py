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
normalized trace per diagonal block.  Their algebra D is commutative, so
an element of D is held as a plain array of its block values, colours in
increasing order on the last axis, after any leading sample axes; a
product with it scales the rows or columns of each block.  Nesting the
expectation along a non-crossing partition and applying a Moebius
transformation gives the amalgamated cumulants of a tuple of matrices.
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

def block_slices(df, scale=1):
    """Indices of every colour block, from one sorted pass, as a dict
    whose keys run in increasing colour order; scale 2 gives their rows
    or columns in the complex embedding of a quaternion matrix."""
    out, pos = {}, 0
    for c in sorted(df.dims):
        width = scale * int(df.value(c))
        out[c] = slice(pos, pos + width)
        pos += width
    return out


def total_dim(df):
    return sum(s.stop - s.start for s in block_slices(df).values())


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


def _loop_factors(cycle, signs, b, slices, field, bars):
    """The factors of the trace read off one loop of the diagram, in
    traversal order, as (slot, index, transpose, conjugate): the block
    mats[slot][index], transposed and entrywise conjugated as flagged.

    cycle and signs are one entry of oriented_cycles, slices the
    block_slices of the matrices and bars those of m_stat.  Crossing the
    vertical edge of slot l upward (signs[l] = -1) contributes the
    (c(l), c(l')) block of mats[l-1], crossing it downward
    (signs[l] = +1) the transpose of that block.  A factor is conjugated
    where the field is H and it is transposed, or where the field is C
    and its slot is barred.  A walk that leaves its start slot through
    the pairing edge crosses that slot last.
    """
    k = b.k
    if signs[cycle[0]] == 1:
        cycle = cycle[1:] + cycle[:1]
    return [(l - 1, (Ellipsis, slices[b.colour(l)], slices[b.colour(k + l)]),
             signs[l] == 1,
             signs[l] == 1 if field == "H" else field == "C" and bars[l - 1])
            for l in cycle]


def _loop_trace(factors, mats, quat):
    """Trace of the product of one loop's factors (see _loop_factors).
    The quaternion value is -2 times the real part of the quaternion
    trace, which is minus the real part of the trace of the complex
    embedding.  Leading sample axes of the matrices carry through.

    The product stops one factor early: tr(P F) is the sum of P_ij F_ji,
    O(n^2) per sample where the last product would cost O(n^3).  The sum
    is taken elementwise, not by einsum, whose rounding depends on the
    operands' memory layout."""
    def read(slot, index, transpose, conj):
        f = mats[slot][index]
        if transpose:
            f = np.swapaxes(f, -1, -2)
        return f.conj() if conj else f

    *head, (slot, index, transpose, conj) = factors
    prod = None
    for factor in head:
        f = read(*factor)
        prod = f if prod is None else prod @ f
    # the last factor F read transposed: tr(P F) = sum_ij P_ij (F^T)_ij
    last_t = read(slot, index, not transpose, conj)
    if prod is None:
        tr = np.trace(last_t, axis1=-2, axis2=-1)
    else:
        # the products land in one C-ordered array, so the sum does not
        # depend on how the factors are laid out: a barred C slot gives
        # the bytes of its conjugated matrix
        tr = np.multiply(prod, last_t, order="C").sum(axis=(-2, -1))
    return -tr.real if quat else tr


def m_stat(b, mats, df, field="C", orientation=None, bars=None):
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

    bars flags the barred slots, none by default.  A barred slot reads
    the adjoint of its matrix, as given: the diagram's twist transposes
    its blocks, the adjoint over R, and over C m_stat conjugates them
    one chunk at a time, as it conjugates every transposed block over H.
    """
    s = orientation if orientation is not None else canonical_orientation(
        b.pairing)
    if not b.is_valid(df):
        raise ValueError("diagram invalid under the dimension function")
    bars = [False] * b.k if bars is None else bars
    if len(bars) != b.k:
        raise ValueError("%d bars for %d slots" % (len(bars), b.k))
    quat = field == "H"
    slices = block_slices(df, 2 if quat else 1)
    loops = [_loop_factors(cycle, sg, b, slices, field, bars)
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
    # the colour block of each index, and the index's offset in that block
    where = [(c, i) for c, s in block_slices(df).items()
             for i in range(s.stop - s.start)]
    tuples = list(itertools.product(range(len(where)), repeat=k))
    rho = np.zeros((len(tuples), len(tuples)))
    for c, col in enumerate(tuples):
        for r, row in enumerate(tuples):
            # point i reads col[i-1], point k+i reads row[i-1]
            at = [None] + [where[i] for i in col + row]
            if all((at[x][0], at[y][0], at[x][1]) ==
                   (b.colour(x), b.colour(y), at[y][1])
                   for x, y in b.pairing.pairs):
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

def cond_expectation(a, df):
    """E[A] = sum_i (1/d_i) Tr(p_i A p_i) p_i, with Re Tr over H.

    Returns the values 1/d_i Tr(p_i A p_i) as an array whose last axis
    runs over the colour blocks in increasing colour order; leading
    sample axes of `a` carry through.  A matrix of side 2n, twice that
    of the dimension function, is a quaternion matrix in its complex
    embedding, whose block traces are twice the quaternion ones in
    their real part; its values are real.
    """
    n = total_dim(df)
    if a.shape[-2:] not in ((n, n), (2 * n, 2 * n)):
        raise ValueError("matrix does not match the dimension function")
    scale = a.shape[-1] // n
    vals = np.stack([np.trace(a[..., s, s], axis1=-2, axis2=-1)
                     / (s.stop - s.start)
                     for s in block_slices(df, scale).values()], axis=-1)
    return vals.real if scale == 2 else vals


def _mat_product(mats):
    out = mats[0]
    for m in mats[1:]:
        out = out @ m
    return out


def e_pi(pi, mats, df):
    """Nested conditional expectation along a non-crossing partition, as
    an array of block values like that of cond_expectation.

    Innermost interval blocks are evaluated first.  Each value is
    repeated over its colour block's width (twice that for H), and these
    scale the columns of the factor left of the interval, or the rows of
    the factor right of it, which is the product with the block-diagonal
    matrix sum_i v_i p_i.  Matrices of side twice total_dim(df) are H
    matrices in their complex embedding, as for cond_expectation.
    Leading sample axes of the matrices carry through.
    """
    mats = list(mats)
    k = len(mats)
    scale = mats[0].shape[-1] // total_dim(df)
    widths = [s.stop - s.start for s in block_slices(df, scale).values()]
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
            diag = np.repeat(cond_expectation(
                _mat_product([work[p] for p in blk]), df), widths, axis=-1)
            lo = min(idx)
            if lo > 0:
                left = positions[lo - 1]
                work[left] = work[left] * diag[..., None, :]
            else:
                right = positions[lo + len(blk)]
                work[right] = diag[..., None] * work[right]
            for p in blk:
                positions.remove(p)
            blocks.pop(bi)
            break
        else:
            raise ValueError("no interval block: partition is crossing")
    last = blocks[0]
    return cond_expectation(
        _mat_product([work[p] for p in sorted(last)]), df)


def amalgamated_cumulant(pi, mats, df):
    """c_pi = sum_{gamma <= pi} mu(gamma, pi) E_gamma, as an array of
    block values like that of e_pi."""
    top = NonCrossingPartition(as_set_partition(pi, len(mats)).blocks)
    return sum(float(mobius_nc(gamma, top)) * e_pi(gamma, mats, df)
               for gamma in enumerate_nc(len(mats)) if gamma.leq(top))
