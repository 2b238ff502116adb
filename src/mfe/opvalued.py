"""Amalgamated probability over the algebra of block projectors.

The conditional expectation keeps one normalized trace per diagonal
block; nesting it along a non-crossing partition and applying a Moebius
transformation gives amalgamated cumulants.  On the limit side, the
cumulant coefficients are sums over paths of cycle- or loop-creating
elementary diagrams, split by the partition the path's steps generate.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .brauer import (
    ColouredBrauerDiagram,
    Pairing,
    Word,
    WordLetter,
    compose,
    twist,
)
from .evaltrace import block_slice, qmatmul, total_dim
from .generators import (
    GeneratorMatrix,
    _ratio_factor,
    _weight,
    admissible_moves,
    delta_diag,
)
from .moments import MomentFunction, solve_semigroup_row
from .ncpart import (
    NonCrossingPartition,
    SetPartition,
    enumerate_nc,
    mobius_nc,
    nc_to_permutation,
    partition_join,
)


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
        return DiagonalElement(np.conjugate(v) for v in self.values)

    def isclose(self, other, tol=1e-10):
        return all(abs(a - b) <= tol
                   for a, b in zip(self.values, other.values))

    def to_matrix(self, df, field="C"):
        """The block-diagonal matrix sum_i v_i p_i."""
        n = total_dim(df)
        if field == "H":
            out = np.zeros((n, n, 4))
            for i, c in enumerate(sorted(df.dims)):
                s = block_slice(df, c)
                out[s, s, 0] = np.eye(s.stop - s.start) * self.values[i]
            return out
        out = np.zeros((n, n), dtype=complex)
        for i, c in enumerate(sorted(df.dims)):
            s = block_slice(df, c)
            out[s, s] = np.eye(s.stop - s.start) * self.values[i]
        return out

    def __repr__(self):
        return "DiagonalElement(%s)" % (list(self.values),)


def _is_quat(a):
    return a.ndim == 3 and a.shape[-1] == 4


def cond_expectation(a, df) -> DiagonalElement:
    """E[A] = sum_i (1/d_i) Tr(p_i A p_i) p_i, with Re Tr over H."""
    n = total_dim(df)
    if a.shape[0] != n or a.shape[1] != n:
        raise ValueError("matrix does not match the dimension function")
    vals = []
    for c in sorted(df.dims):
        s = block_slice(df, c)
        d = s.stop - s.start
        if _is_quat(a):
            vals.append(float(np.trace(a[s, s, 0])) / d)
        else:
            vals.append(np.trace(a[s, s]) / d)
    return DiagonalElement(vals)


def _mat_product(mats, field):
    out = mats[0]
    for m in mats[1:]:
        out = qmatmul(out, m) if field == "H" else out @ m
    return out


def _as_set_partition(pi, k):
    if isinstance(pi, NonCrossingPartition):
        return SetPartition(pi.blocks, ground=range(1, k + 1))
    if isinstance(pi, SetPartition):
        return pi
    return SetPartition(pi, ground=range(1, k + 1))


def e_pi(pi, mats, df, field=None) -> DiagonalElement:
    """Nested conditional expectation along a non-crossing partition.

    Innermost interval blocks are evaluated first and their diagonal
    results multiplied back in place of the subproduct they replace.
    """
    mats = list(mats)
    k = len(mats)
    if field is None:
        field = "H" if _is_quat(mats[0]) else "C"
    part = _as_set_partition(pi, k)
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
                _mat_product([work[p] for p in blk], field), df)
            dm = d.to_matrix(df, field)
            lo = min(idx)
            if lo > 0:
                left = positions[lo - 1]
                work[left] = qmatmul(work[left], dm) if field == "H" \
                    else work[left] @ dm
            else:
                right = positions[lo + len(blk)]
                work[right] = qmatmul(dm, work[right]) if field == "H" \
                    else dm @ work[right]
            for p in blk:
                positions.remove(p)
            blocks.pop(bi)
            break
        else:
            raise ValueError("no interval block: partition is crossing")
    last = blocks[0]
    return cond_expectation(
        _mat_product([work[p] for p in sorted(last)], field), df)


def amalgamated_cumulant(pi, mats, df, field=None) -> DiagonalElement:
    """c_pi = sum_{gamma <= pi} mu(gamma, pi) E_gamma."""
    k = len(mats)
    part = _as_set_partition(pi, k)
    top = NonCrossingPartition(part.blocks)
    n = len(df.dims)
    out = DiagonalElement.zero(n)
    for gamma in enumerate_nc(k):
        if not gamma.leq(top):
            continue
        w = float(mobius_nc(gamma, top))
        out = out + w * e_pi(gamma, mats, df, field)
    return out


# ---------------------------------------------------------------------------
# limit-side path sums
# ---------------------------------------------------------------------------

class PathTuple:
    """A chain of elementary coloured diagrams, each cycle- or
    loop-creating for the running composition; steps are stored in
    application order (the first step multiplies the seed first)."""

    __slots__ = ("steps", "endpoint", "partition")

    def __init__(self, steps, endpoint, partition):
        self.steps = tuple(steps)
        self.endpoint = endpoint
        self.partition = partition

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return "PathTuple(len=%d, partition=%s)" % (
            len(self.steps), sorted(map(sorted, self.partition.blocks)))


def _discrete(k):
    return SetPartition([(i,) for i in range(1, k + 1)],
                        ground=range(1, k + 1))


def _pair_partition(k, i, j):
    blocks = [(i, j)] + [(x,) for x in range(1, k + 1) if x not in (i, j)]
    return SetPartition(blocks, ground=range(1, k + 1))


def enumerate_paths(b, word, s, df, beta=None):
    """All length-s creating chains on top of b that the word admits.

    With beta given, keep only the paths whose step pairs generate that
    partition of the slots.
    """
    if s < 0:
        raise ValueError("negative path length")
    want = None if beta is None else _as_set_partition(beta, b.k)
    out = []

    def rec(cur, part, steps):
        if len(steps) == s:
            if want is None or part == want:
                out.append(PathTuple(steps, cur, part))
            return
        for (i, j), r, kind in admissible_moves(
                cur, word, df, "real", creating_only=True):
            res = compose(r, cur, df)
            rec(res.diagram, partition_join(part, _pair_partition(
                cur.k, i, j)), steps + [((i, j), kind, r)])

    rec(b, _discrete(b.k), [])
    return out


def diagram_admissible(b, df):
    """Whether every strand of the diagram joins blocks of one common
    dimension (the colouring is admissible for the dimension function)."""
    return all(df.value(b.colour(x)) == df.value(b.colour(y))
               for x, y in b.pairing.pairs)


def seed_diagram(pi, alpha, eps):
    """The partition's cycle diagram, twisted at the starred slots and
    coloured by the boundary tuple alpha = (a_0, ..., a_k)."""
    k = len(eps)
    if len(alpha) != k + 1:
        raise ValueError("boundary tuple must have length k + 1")
    part = _as_set_partition(pi, k)
    sigma = nc_to_permutation(NonCrossingPartition(part.blocks))
    pairing = Pairing.from_permutation(sigma.inverse())
    for l in range(1, k + 1):
        if eps[l - 1]:
            pairing = twist(pairing, l)
    cols = [0] * (2 * k)
    for l in range(1, k + 1):
        cols[l - 1], cols[k + l - 1] = alpha[l - 1], alpha[l]
    return ColouredBrauerDiagram(pairing, cols)


def limit_cumulant_coefficient(beta, alpha, word, ratios, weights=None,
                               pi=None):
    """Exact limit coefficient c_beta(alpha, w, eps) as a MomentFunction.

    The seed is the cycle diagram of a partition pi >= beta (beta itself
    by default), twisted at the barred slots of the word and coloured by
    the boundary tuple; the coefficient collects the creating paths
    whose steps generate exactly beta, weighted like the limit
    generator, and contracted against the diagonal-colour indicator.
    """
    word = word if isinstance(word, Word) else \
        Word(WordLetter(l) for l in word)
    k = len(word)
    beta_p = _as_set_partition(beta, k)
    eps = [l.bar for l in word.letters]
    seed = seed_diagram(beta_p if pi is None else pi, alpha, eps)
    if not diagram_admissible(seed, ratios):
        return MomentFunction.zero()
    drift = Fraction(-1, 2) * sum(
        _weight(weights, l.letter) for l in word.letters)
    # states pair a reachable diagram with the partition generated by
    # the step pairs used so far
    start = (seed, _discrete(k))
    states, index = [start], {start: 0}
    queue = [start]
    rows = [dict()]
    while queue:
        cur = queue.pop(0)
        b, part = cur
        i = index[cur]
        row = rows[i]
        row[i] = row.get(i, Fraction(0)) + drift
        for (si, sj), r, kind in admissible_moves(
                b, word, ratios, "real", creating_only=True):
            res = compose(r, b, ratios)
            nxt = (res.diagram,
                   partition_join(part, _pair_partition(k, si, sj)))
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                queue.append(nxt)
                rows.append(dict())
            j = index[nxt]
            sign = Fraction(-1 if kind == "tau" else 1)
            wt = _weight(weights, word[si - 1].letter)
            val = sign * wt * _ratio_factor(b, res, ratios, False)
            row[j] = row.get(j, Fraction(0)) + val
    dvec = [Fraction(delta_diag(b)) if part == beta_p else Fraction(0)
            for b, part in states]
    return solve_semigroup_row(GeneratorMatrix(states, word, rows), 0, dvec)


def limit_statistic(pi, alpha, word, ratios, weights=None):
    """The limit moment of the partition's seed diagram, summed over all
    cumulant coefficients below the partition."""
    from .moments import evolve_limit

    word = word if isinstance(word, Word) else \
        Word(WordLetter(l) for l in word)
    eps = [l.bar for l in word.letters]
    seed = seed_diagram(pi, alpha, eps)
    if not diagram_admissible(seed, ratios):
        return MomentFunction.zero()
    return evolve_limit(seed, word, ratios, "real", weights)
