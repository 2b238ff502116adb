"""Free cumulants of the large-dimension limit of block Brownian motion.

Two routes to the same numbers live here: the Moebius inversion of
moments over non-crossing partitions, and the closed form of the top
cumulant.  The Taylor-coefficient recursion over geodesic
transpositions, the inverse relation and the single-block moments
(mfe.reference) are the third route the tests confront them with.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .brauer import Permutation
from .moments import MomentFunction
from .ncpart import enumerate_nc, mobius_nc, one_nc


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
