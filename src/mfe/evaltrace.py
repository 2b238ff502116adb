"""Evaluation of coloured diagrams on tuples of block matrices.

The statistic attached to an oriented coloured diagram factorizes over the
loops of the diagram graph: each loop contributes the trace of an ordered
product of sub-blocks (transposed where the orientation sign is +1, see
_loop_factors), and a per-class normalizer d^(-fnc) (or (-2d)^(-fnc) in
the quaternion case) makes the value dimension free.  The value does not
depend on the orientation, so every diagram is oriented one way: by the
canonical walk of brauer.cycle_walk, which starts each loop at its least
slot with sign +1.  The oriented cycles, the canonical orientation and
fnc read that walk, and m_stat walks a diagram once per call.
"""

from __future__ import annotations

import numpy as np

from .brauer import DimensionFunction, Pairing, cycle_walk


# ---------------------------------------------------------------------------
# oriented cycles of a diagram
# ---------------------------------------------------------------------------

class Orientation:
    """Signs on {1..k}, one direction per loop of the graph: those of the
    canonical walk (canonical_orientation)."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        self.signs = tuple(signs)

    def sign(self, i):
        return self.signs[i - 1]

    def __repr__(self):
        return "Orientation(%s)" % (self.signs,)


def oriented_cycles(b: Pairing):
    """The cycles of b in the canonical walk of brauer.cycle_walk, with
    the signs it induces: per cycle its slots in visit order, least slot
    first, and their signs by slot, the least slot's +1."""
    walk = cycle_walk([b.match(x) - 1 for x in range(1, 2 * b.k + 1)], b.k)
    return [(tuple(x + 1 for x in slots),
             {x + 1: g for x, g in zip(slots, signs)})
            for slots, signs in walk]


def _fnc_exponents(b, cycles, df):
    """Per dimension class, the number of the oriented cycles of the
    diagram b that it normalizes: each counts for the class of the
    colour at its least slot (see fnc)."""
    exps = dict.fromkeys(df.classes(), 0)
    for cycle, _ in cycles:
        exps[df.class_of(b.colour(cycle[0]))] += 1
    return exps


def canonical_orientation(b: Pairing) -> Orientation:
    """The signs of the canonical walk: each loop starts at its least
    bottom point and leaves it through the pairing edge."""
    signs = {}
    for _, sg in oriented_cycles(b):
        signs.update(sg)
    return Orientation(signs[x] for x in range(1, b.k + 1))


def fnc(b, df: DimensionFunction, cls) -> int:
    """The number of cycles of the coloured diagram b that the class
    normalizes: a cycle counts for the class of the colour c(m) at its
    least slot m, where the canonical sign is +1."""
    if cls not in df.dims or df.class_of(cls) != cls:
        raise ValueError("unknown dimension class %r" % (cls,))
    return _fnc_exponents(b, oriented_cycles(b.pairing), df)[cls]


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
    and its slot is barred.  The walk leaves its least slot through the
    pairing edge, so it crosses that slot last.
    """
    k = b.k
    return [(l - 1, (Ellipsis, slices[b.colour(l)], slices[b.colour(k + l)]),
             signs[l] == 1,
             signs[l] == 1 if field == "H" else field == "C" and bars[l - 1])
            for l in cycle[1:] + cycle[:1]]


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


def m_stat(b, mats, df, field="C", bars=None):
    """Normalized trace statistic of a coloured diagram on slot matrices.

    mats[l] is the full matrix for tensor slot l+1, of shape (..., N, N),
    or (..., 2N, 2N) for H, its complex embedding (see quat_embed); the
    statistic has the leading axes, so one call evaluates a whole pool
    of samples.  The pool is cut along its first axis by sample_chunks
    and each chunk's values are written into one result, so the call
    holds the pool plus chunk-sized temporaries.  The diagram is read in
    its canonical orientation (oriented_cycles), which the value does not
    depend on.  Loop variables, when present, contribute their class
    dimension (-2 times it for H) -- they cancel against the extra
    normalizer.

    bars flags the barred slots, none by default.  A barred slot reads
    the adjoint of its matrix, as given: the diagram's twist transposes
    its blocks, the adjoint over R, and over C m_stat conjugates them
    one chunk at a time, as it conjugates every transposed block over H.
    """
    if not b.is_valid(df):
        raise ValueError("diagram invalid under the dimension function")
    bars = [False] * b.k if bars is None else bars
    if len(bars) != b.k:
        raise ValueError("%d bars for %d slots" % (len(bars), b.k))
    quat = field == "H"
    slices = block_slices(df, 2 if quat else 1)
    cycles = oriented_cycles(b.pairing)
    loops = [_loop_factors(cycle, sg, b, slices, field, bars)
             for cycle, sg in cycles]
    # a removed loop of class d is worth d (-2d for H) in the numerator and
    # raises fnc_d by one, so extended diagrams evaluate like bare ones.
    exps = _fnc_exponents(b, cycles, df)
    norms = [((-2.0 if quat else 1.0) * float(df.value(cls))) ** (-exps[cls])
             for cls in df.classes()]

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
