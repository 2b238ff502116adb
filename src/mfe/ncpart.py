"""Set partitions, non-crossing partitions and the Moebius function.

Partitions are immutable; blocks are kept sorted by minimum so equality is
structural.  The Moebius function of NC(k) is the product form of the
Kreweras factorisation of its intervals.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .brauer import Permutation

NC_ENUM_BOUND = 12


def _canon_blocks(blocks):
    bs = [tuple(sorted(b)) for b in blocks if b]
    bs.sort(key=lambda b: b[0])
    return tuple(bs)


class SetPartition:
    """A partition of a finite ground set of integers."""

    __slots__ = ("blocks", "ground")

    def __init__(self, blocks, ground=None):
        self.blocks = _canon_blocks(blocks)
        elems = [x for b in self.blocks for x in b]
        if len(elems) != len(set(elems)):
            raise ValueError("blocks are not disjoint")
        self.ground = frozenset(elems) if ground is None else frozenset(ground)
        if frozenset(elems) != self.ground:
            raise ValueError("blocks do not cover the ground set")

    @classmethod
    def full(cls, ground):
        return cls([list(ground)])

    def __eq__(self, other):
        return isinstance(other, SetPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return "SetPartition(%s)" % (list(map(list, self.blocks)),)

    def __len__(self):
        return len(self.blocks)

    def index_map(self):
        """Map element -> block index."""
        out = {}
        for i, b in enumerate(self.blocks):
            for x in b:
                out[x] = i
        return out

    def leq(self, other):
        """Refinement order: every block of self sits inside a block of other."""
        if self.ground != other.ground:
            raise ValueError("mismatched ground sets")
        idx = other.index_map()
        return all(len({idx[x] for x in b}) == 1 for b in self.blocks)


def is_noncrossing(p: SetPartition) -> bool:
    """No a < b < c < d with a, c in one block and b, d in another."""
    for b1, b2 in itertools.combinations(p.blocks, 2):
        for a, c in itertools.combinations(b1, 2):
            for b, d in itertools.combinations(b2, 2):
                if a < b < c < d or b < a < d < c:
                    return False
    return True


class NonCrossingPartition:
    """A non-crossing partition of {1..k}."""

    __slots__ = ("p",)

    def __init__(self, blocks_or_partition):
        if isinstance(blocks_or_partition, SetPartition):
            p = blocks_or_partition
        else:
            p = SetPartition(blocks_or_partition)
        if p.ground != frozenset(range(1, len(p.ground) + 1)):
            raise ValueError("ground set must be {1..k}")
        if not is_noncrossing(p):
            raise ValueError("partition has a crossing")
        self.p = p

    @property
    def blocks(self):
        return self.p.blocks

    @property
    def k(self):
        return len(self.p.ground)

    def __eq__(self, other):
        return isinstance(other, NonCrossingPartition) and self.p == other.p

    def __hash__(self):
        return hash((NonCrossingPartition, self.p))

    def __repr__(self):
        return "NC(%s)" % (list(map(list, self.blocks)),)

    def leq(self, other: "NonCrossingPartition") -> bool:
        return self.p.leq(other.p)


def as_set_partition(pi, k):
    """pi, a partition of either kind or a list of blocks, as a
    SetPartition of {1..k}."""
    if isinstance(pi, NonCrossingPartition):
        return SetPartition(pi.blocks, ground=range(1, k + 1))
    if isinstance(pi, SetPartition):
        return pi
    return SetPartition(pi, ground=range(1, k + 1))


def one_nc(k):
    return NonCrossingPartition([list(range(1, k + 1))])


@lru_cache(maxsize=None)
def enumerate_nc(k: int):
    """All of NC(k), Catalan(k) of them, in a deterministic order."""
    if k > NC_ENUM_BOUND:
        raise ValueError("k=%d over enumeration bound %d" % (k, NC_ENUM_BOUND))
    if k == 0:
        return tuple()
    # grow point by point, each set partition once, in the order of the
    # full growth; j joins block B only if no other block C has
    # min C < max B < max C, so no crossing partial partition is grown
    results = []

    def rec(j, blocks):
        if j > k:
            results.append(NonCrossingPartition([list(b) for b in blocks]))
            return
        for i, b in enumerate(blocks):
            if not any(c[0] < b[-1] < c[-1] for c in blocks):
                rec(j + 1, blocks[:i] + [b + (j,)] + blocks[i + 1:])
        rec(j + 1, blocks + [(j,)])

    rec(1, [])
    return tuple(results)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def mobius_nc(pi: NonCrossingPartition, rho: NonCrossingPartition) -> Fraction:
    """Moebius function of the interval [pi, rho] in NC(k).

    The interval is isomorphic to the product of NC(|c|) over the cycles
    c of P_pi^-1 P_rho (Nica & Speicher, Lectures on the Combinatorics
    of Free Probability, Lectures 9-10), so mu is the product of the
    closed forms mu(0_|c|, 1_|c|).
    """
    if not pi.leq(rho):
        raise ValueError("pi is not below rho")
    cycles = (nc_to_permutation(pi).inverse()
              * nc_to_permutation(rho)).cycles()
    # mu(0_l, 1_l) = (-1)^(l-1) Catalan(l-1) for a cycle of length l
    return math.prod(Fraction((-1) ** (len(c) - 1) * catalan(len(c) - 1))
                     for c in cycles)


def nc_to_permutation(pi: NonCrossingPartition) -> Permutation:
    """sigma_pi: each block becomes a cycle traversed in increasing order."""
    return Permutation.from_cycles(pi.k, [list(b) for b in pi.blocks])
