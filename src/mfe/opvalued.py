"""Amalgamated probability over the algebra of block projectors.

The conditional expectation keeps one normalized trace per diagonal
block; nesting it along a non-crossing partition and applying a Moebius
transformation gives amalgamated cumulants.  On the limit side, the
cumulant coefficients are sums over paths of cycle- or loop-creating
elementary diagrams, split by the partition the path's steps generate:
the generator pass closes (diagram, partition) states, checking the
seed's validity once, and the semigroup solve reads them off.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .brauer import Word, WordLetter, twisted_cycle_diagram
from .evaltrace import block_slice, total_dim
from .generators import (
    GeneratorMatrix,
    _limit_rates,
    _sweep,
    delta_diag,
)
from .moments import MomentFunction, evolve_limit, solve_semigroup_row
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


def _as_set_partition(pi, k):
    if isinstance(pi, NonCrossingPartition):
        return SetPartition(pi.blocks, ground=range(1, k + 1))
    if isinstance(pi, SetPartition):
        return pi
    return SetPartition(pi, ground=range(1, k + 1))


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
    part = _as_set_partition(pi, k)
    top = NonCrossingPartition(part.blocks)
    n = len(df.dims)
    out = DiagonalElement.zero(n)
    for gamma in enumerate_nc(k):
        if not gamma.leq(top):
            continue
        w = float(mobius_nc(gamma, top))
        out = out + w * e_pi(gamma, mats, df)
    return out


# ---------------------------------------------------------------------------
# limit cumulant coefficients
# ---------------------------------------------------------------------------

def _discrete(k):
    return SetPartition([(i,) for i in range(1, k + 1)],
                        ground=range(1, k + 1))


def _pair_partition(k, i, j):
    blocks = [(i, j)] + [(x,) for x in range(1, k + 1) if x not in (i, j)]
    return SetPartition(blocks, ground=range(1, k + 1))


def _coefficient_walk(seed, word, ratios, weights=None):
    """States and limit generator rows of the creating walk from the
    seed: a state pairs a reachable diagram with the partition generated
    by the step pairs used so far, starting from the discrete one."""
    k = seed.k
    return _sweep(
        [(seed, _discrete(k))], word, ratios, "real", _limit_rates(ratios),
        creating_only=True, weights=weights,
        join=lambda part, i, j: partition_join(part, _pair_partition(k, i, j)))


def seed_diagram(pi, alpha, eps):
    """The partition's cycle diagram, twisted at the starred slots and
    coloured by the boundary tuple alpha = (a_0, ..., a_k)."""
    k = len(eps)
    if len(alpha) != k + 1:
        raise ValueError("boundary tuple must have length k + 1")
    part = _as_set_partition(pi, k)
    return twisted_cycle_diagram(
        nc_to_permutation(NonCrossingPartition(part.blocks)), eps,
        alpha[:-1], alpha[1:])


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
    if not seed.is_valid(ratios):
        return MomentFunction.zero()
    states, rows = _coefficient_walk(seed, word, ratios, weights)
    dvec = [Fraction(delta_diag(b)) if part == beta_p else Fraction(0)
            for b, part in states]
    return solve_semigroup_row(GeneratorMatrix(states, word, rows), 0, dvec)


def limit_statistic(pi, alpha, word, ratios, weights=None):
    """The limit moment of the partition's seed diagram, summed over all
    cumulant coefficients below the partition."""
    word = word if isinstance(word, Word) else \
        Word(WordLetter(l) for l in word)
    eps = [l.bar for l in word.letters]
    seed = seed_diagram(pi, alpha, eps)
    if not seed.is_valid(ratios):
        return MomentFunction.zero()
    return evolve_limit(seed, word, ratios, "real", weights)
