"""Free cumulants of the large-dimension limit of block Brownian motion.

Three routes to the same numbers live here: the Taylor-coefficient
recursion over geodesic transpositions, the Moebius inversion of moments
over non-crossing partitions, and the closed form of the top cumulant.
Keeping all of them lets the tests confront one against the other.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .moments import MomentFunction
from .ncpart import (
    NonCrossingPartition,
    Permutation,
    all_transpositions,
    count_minimal_factorizations,
    enumerate_nc,
    geodesic_distance,
    mobius_nc,
    nc_to_permutation,
    one_nc,
)


class Colourization:
    """A pair of colour rows (i, j) labelling the legs of a word of
    block entries u_{i_1 j_1} ... u_{i_p j_p}."""

    __slots__ = ("i", "j")

    def __init__(self, i, j, n=None):
        i, j = tuple(int(x) for x in i), tuple(int(x) for x in j)
        if len(i) != len(j):
            raise ValueError("colour rows of unequal length")
        if not i:
            raise ValueError("empty colourization")
        for x in i + j:
            if x < 1 or (n is not None and x > n):
                raise ValueError("colour out of range: %s" % x)
        self.i, self.j = i, j

    @classmethod
    def constant(cls, p, colour=1):
        return cls((colour,) * p, (colour,) * p)

    @property
    def p(self):
        return len(self.i)

    def relabel(self, sigma: Permutation) -> "Colourization":
        """Relabel colour values by a permutation of the blocks."""
        return Colourization(tuple(sigma(x) for x in self.i),
                             tuple(sigma(x) for x in self.j))

    def tokens(self):
        """The word u_{i_1 j_1} ... u_{i_p j_p} as letter tokens."""
        return [(a, b, False) for a, b in zip(self.i, self.j)]

    def __eq__(self, other):
        return isinstance(other, Colourization) and \
            (self.i, self.j) == (other.i, other.j)

    def __hash__(self):
        return hash((self.i, self.j))

    def __repr__(self):
        return "Colourization(%s, %s)" % (self.i, self.j)


def colour_act(seq, sigma: Permutation):
    """(sigma . s)_l = s_{sigma(l)}."""
    return tuple(seq[sigma(l) - 1] for l in range(1, len(seq) + 1))


def increasing_transpositions(sigma: Permutation):
    """Transpositions whose right multiplication splits a cycle of sigma."""
    base = sigma.num_cycles()
    out = []
    for tau in all_transpositions(sigma.k):
        if (sigma * tau).num_cycles() == base + 1:
            out.append(tau)
    return out


def _as_permutation(pi):
    if isinstance(pi, Permutation):
        return pi
    if isinstance(pi, NonCrossingPartition):
        return nc_to_permutation(pi)
    return nc_to_permutation(NonCrossingPartition(pi))


def taylor_coeff(pi, kdx, col: Colourization, n) -> Fraction:
    """Taylor coefficient P^{pi,k}_{i,j} of the moment of a colourized
    word, through the splitting-transposition recursion."""
    sigma = _as_permutation(pi)
    p = col.p
    if sigma.k != p:
        raise ValueError("partition size does not match colourization")
    if not 0 <= kdx <= p - 1:
        raise ValueError("order out of range")
    return _taylor_rec(sigma, kdx, col.i, col.j, n)


def _taylor_rec(sigma, k, i, j, n):
    if k == 0:
        return Fraction(int(i == j))
    if k > geodesic_distance(sigma):
        return Fraction(0)
    total = Fraction(0)
    for tau in increasing_transpositions(sigma):
        total += _taylor_rec(sigma * tau, k - 1, i, colour_act(j, tau), n)
    return total / n


def taylor_coeff_geodesic(pi, kdx, col: Colourization, n) -> Fraction:
    """Same coefficient, summed over non-crossing refinements gamma of pi
    at geodesic distance kdx, weighted by minimal-factorization counts."""
    if isinstance(pi, Permutation):
        raise ValueError("the refinement route needs the partition itself")
    pi = pi if isinstance(pi, NonCrossingPartition) else \
        NonCrossingPartition(pi)
    p = col.p
    if pi.k != p:
        raise ValueError("partition size does not match colourization")
    if not 0 <= kdx <= p - 1:
        raise ValueError("order out of range")
    if kdx == 0:
        return Fraction(int(col.i == col.j))
    total = 0
    for gamma in enumerate_nc(p):
        if not gamma.leq(pi):
            continue
        sg = nc_to_permutation(gamma)
        if geodesic_distance(sg) != kdx:
            continue
        if colour_act(col.i, sg) == col.j:
            total += count_minimal_factorizations(sg)
    return Fraction(total, n ** kdx)


def kappa_closed_form(p, n, col: Colourization):
    """Closed form of the p-th free cumulant of a word of block entries:
    e^(-pt/2) (-t/n)^(p-1) p^(p-2)/(p-1)! when the colours chain along
    the full cycle, zero otherwise."""
    if p < 1:
        raise ValueError("p must be positive")
    if col.p != p:
        raise ValueError("colourization length does not match p")
    cp = Permutation.from_cycles(p, [list(range(1, p + 1))])
    delta = int(colour_act(col.i, cp) == col.j)
    top = p ** (p - 2) if p >= 2 else 1
    coeff = delta * Fraction(-1, n) ** (p - 1) * \
        Fraction(top, math.factorial(p - 1))
    return MomentFunction({Fraction(-p, 2): [0] * (p - 1) + [coeff]})


def _block_functional(moments, p):
    if callable(moments):
        return moments
    moments = list(moments)
    if len(moments) < p:
        raise ValueError("insufficient moment data: need %d values" % p)

    def phi(block):
        return moments[len(block) - 1]

    return phi


def _product(values):
    out = None
    for v in values:
        out = v if out is None else out * v
    return out


def cumulants_from_moments(moments, p, orders=None):
    """Cumulants k_1..k_p by Moebius inversion over non-crossing
    partitions, or k_q for each q of `orders` alone, a sequence of
    orders in 1..p.

    moments is either a sequence (m_1, ..., m_p) for a single variable,
    or a callable sending a tuple of positions to the moment of the
    corresponding subword.  Values may be numbers or MomentFunctions.
    """
    phi = _block_functional(moments, p)
    # NC(p) is the largest lattice of the sweep: past the enumeration bound
    # this fails before the smaller ones are swept
    enumerate_nc(p)
    return [_cumulant(phi, q)
            for q in (range(1, p + 1) if orders is None else orders)]


def _cumulant(phi, q):
    """k_q = sum over NC(q) of mu(pi, 1_q) times the moments of the
    blocks of pi."""
    top = one_nc(q)
    acc = None
    for pi in enumerate_nc(q):
        term = mobius_nc(pi, top) * \
            _product(phi(tuple(sorted(v))) for v in pi.blocks)
        acc = term if acc is None else acc + term
    return acc


def moments_from_cumulants(cumulants, p):
    """Inverse relation: m_q = sum over NC(q) of products of cumulants."""
    kap = _block_functional(cumulants, p)
    out = []
    for q in range(1, p + 1):
        acc = None
        for pi in enumerate_nc(q):
            term = _product(kap(tuple(sorted(v))) for v in pi.blocks)
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


BIANE_BOUND = 6


def biane_moment(p):
    """Moment of the p-th power in the single-block limit,
    e^(-pt/2) sum_k (-t)^k/k! P_k, with P_k the number of k-step
    cycle-splitting transposition chains started at the full cycle."""
    if not 1 <= p <= BIANE_BOUND:
        raise ValueError("p out of the enumeration bound 1..%d"
                         % BIANE_BOUND)
    cp = Permutation.from_cycles(p, [list(range(1, p + 1))])
    counts = [0] * p

    def walk(sigma, k):
        counts[k] += 1
        if k + 1 < p:
            for tau in increasing_transpositions(sigma):
                walk(sigma * tau, k + 1)

    walk(cp, 0)
    coeffs = [Fraction((-1) ** k * counts[k], math.factorial(k))
              for k in range(p)]
    return MomentFunction({Fraction(-p, 2): coeffs})
