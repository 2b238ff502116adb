"""Evaluation of coloured diagrams on tuples of block matrices.

The statistic attached to an oriented coloured diagram factorizes over the
loops of the diagram graph: each loop contributes the trace of an ordered
product of sub-blocks (transposed where the orientation sign is -1), and a
per-class normalizer d^(-fnc) (or (-2d)^(-fnc) in the quaternion case)
makes the value dimension free.

Quaternionic matrices are stored as real arrays of shape (n, m, 4) holding
the 1, i, j, k components.  Evaluation is batched: slot matrices may carry
any leading sample axes, and the statistic then has those axes.
"""

from __future__ import annotations

import numpy as np

from .brauer import canonical_orientation, fnc, oriented_cycles


# ---------------------------------------------------------------------------
# quaternion arrays
# ---------------------------------------------------------------------------

def quat_eye(n):
    q = np.zeros((n, n, 4))
    q[..., 0] = np.eye(n)
    return q


def quat_from_real(a):
    q = np.zeros(a.shape + (4,))
    q[..., 0] = a
    return q


def qmatmul(a, b):
    a0, a1, a2, a3 = (a[..., i] for i in range(4))
    b0, b1, b2, b3 = (b[..., i] for i in range(4))
    return np.stack(
        [
            a0 @ b0 - a1 @ b1 - a2 @ b2 - a3 @ b3,
            a0 @ b1 + a1 @ b0 + a2 @ b3 - a3 @ b2,
            a0 @ b2 - a1 @ b3 + a2 @ b0 + a3 @ b1,
            a0 @ b3 + a1 @ b2 - a2 @ b1 + a3 @ b0,
        ],
        axis=-1,
    )


def qconj(a):
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def qadjoint(a):
    return np.swapaxes(qconj(a), -3, -2)


def q_re_trace(a):
    """Real part of the trace, batched over leading axes."""
    return np.trace(a[..., 0], axis1=-2, axis2=-1)


def quat_to_complex(a):
    """Standard embedding of H^(n x m) into C^(2n x 2m), batched over
    leading axes."""
    x = a[..., 0] + 1j * a[..., 1]
    y = a[..., 2] + 1j * a[..., 3]
    return np.block([[x, y], [-y.conj(), x.conj()]])


def complex_to_quat(c):
    n, m = c.shape[-2] // 2, c.shape[-1] // 2
    x, y = c[..., :n, :m], c[..., :n, m:]
    return np.stack([x.real, x.imag, y.real, y.imag], axis=-1)


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


def block_slice(df, c):
    off, _ = block_offsets(df)
    d = int(df.value(c))
    return slice(off[c], off[c] + d)


# ---------------------------------------------------------------------------
# trace evaluation
# ---------------------------------------------------------------------------

def eval_cycle_trace(cycle, signs, b, mats, df, field):
    """Trace of the block product read off one loop of the diagram.

    cycle and signs are one entry of oriented_cycles.  The factors
    appear in traversal order: crossing the vertical edge of slot l
    upward (signs[l] = -1) contributes the (c(l), c(l')) block of
    mats[l-1], crossing it downward (signs[l] = +1) the transpose
    (adjoint for H) of that block.  A walk that leaves its start slot
    through the pairing edge crosses that slot last.  The quaternion
    value carries the real part of the trace and a factor -2.  Leading
    sample axes of the matrices carry through.
    """
    k = b.k
    if signs[cycle[0]] == 1:
        cycle = cycle[1:] + cycle[:1]
    prod = None
    for l in cycle:
        rows = block_slice(df, b.colour(l))
        cols = block_slice(df, b.colour(k + l))
        if field == "H":
            f = mats[l - 1][..., rows, cols, :]
            if signs[l] == 1:
                f = qadjoint(f)
        else:
            f = mats[l - 1][..., rows, cols]
            if signs[l] == 1:
                f = np.swapaxes(f, -1, -2)
        if prod is None:
            prod = f
        elif field == "H":
            prod = qmatmul(prod, f)
        else:
            prod = prod @ f
    if field == "H":
        return -2.0 * q_re_trace(prod)
    return np.trace(prod, axis1=-2, axis2=-1)


def m_stat(b, mats, df, field="C", orientation=None):
    """Normalized trace statistic of a coloured diagram on slot matrices.

    mats[l] is the full matrix for tensor slot l+1, of shape (..., N, N),
    or (..., N, N, 4) for H; the statistic has the leading axes, so one
    call evaluates a whole pool of samples.  The value does not depend
    on the orientation.  Loop variables, when present, contribute their
    class dimension (-2 times it for H) -- they cancel against the extra
    normalizer.
    """
    s = orientation if orientation is not None else canonical_orientation(
        b.pairing)
    if not b.is_valid(df):
        raise ValueError("diagram invalid under the dimension function")
    total = 1.0 + 0.0j if field == "C" else 1.0
    for cycle, sg in oriented_cycles(b.pairing, s):
        total = total * eval_cycle_trace(cycle, sg, b, mats, df, field)
    # a removed loop of class d is worth d (-2d for H) in the numerator and
    # raises fnc_d by one, so extended diagrams evaluate like bare ones.
    ext = (b, s)
    for cls in df.classes():
        base = float(df.value(cls))
        if field == "H":
            base = -2.0 * base
        total = total * base ** (-fnc(ext, df, cls))
    return total


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
