"""Set partitions, non-crossing partitions, Moebius function, permutations.

Partitions are immutable; blocks are kept sorted by minimum so equality is
structural.  The Moebius function of NC(k) is the product form of the
Kreweras factorisation of its intervals.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

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


def partition_join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Smallest partition above both: transitive closure of the union."""
    if p.ground != q.ground:
        raise ValueError("mismatched ground sets")
    parent = {x: x for x in p.ground}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for part in (p, q):
        for b in part.blocks:
            for x in b[1:]:
                union(b[0], x)
    groups = {}
    for x in p.ground:
        groups.setdefault(find(x), []).append(x)
    return SetPartition(groups.values())


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


def zero_nc(k):
    return NonCrossingPartition([[i] for i in range(1, k + 1)])


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
    return math.prod(mobius_zero_one(len(c)) for c in cycles)


def mobius_zero_one(k):
    """Closed form mu(0_k, 1_k) = (-1)^(k-1) Catalan(k-1)."""
    return Fraction((-1) ** (k - 1) * catalan(k - 1))


class Permutation:
    """A bijection of {1..k} stored through its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("not a bijection of {1..k}")
        self.images = images

    @classmethod
    def identity(cls, k):
        return cls(range(1, k + 1))

    @classmethod
    def from_cycles(cls, k, cycles):
        images = list(range(1, k + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return cls(images)

    @property
    def k(self):
        return len(self.images)

    def __call__(self, x):
        return self.images[x - 1]

    def __mul__(self, other):
        """Composition self after other."""
        return Permutation(self.images[other.images[i] - 1] for i in range(self.k))

    def inverse(self):
        inv = [0] * self.k
        for i, y in enumerate(self.images):
            inv[y - 1] = i + 1
        return Permutation(inv)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%s)" % (self.images,)

    def cycles(self):
        seen, out = set(), []
        for start in range(1, self.k + 1):
            if start in seen:
                continue
            cyc, x = [], start
            while x not in seen:
                seen.add(x)
                cyc.append(x)
                x = self(x)
            out.append(tuple(cyc))
        return out

    def cycle_type(self):
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def num_cycles(self):
        return len(self.cycles())


def nc_to_permutation(pi: NonCrossingPartition) -> Permutation:
    """sigma_pi: each block becomes a cycle traversed in increasing order."""
    return Permutation.from_cycles(pi.k, [list(b) for b in pi.blocks])


def geodesic_distance(sigma: Permutation) -> int:
    """Minimal transposition-factorization length: k minus the cycle count."""
    return sigma.k - sigma.num_cycles()


def count_minimal_factorizations(sigma: Permutation) -> int:
    """Number of minimal-length ordered transposition factorizations.

    A cycle of length l contributes l^(l-2) factorizations of length l-1;
    independent cycles shuffle, giving the multinomial d!/prod (l_j - 1)!.
    """
    lengths = [l for l in sigma.cycle_type() if l >= 2]
    d = sum(l - 1 for l in lengths)
    count = math.factorial(d)
    for l in lengths:
        count //= math.factorial(l - 1)
        count *= l ** (l - 2)
    return count


def all_transpositions(k):
    return [Permutation.from_cycles(k, [[i, j]])
            for i, j in itertools.combinations(range(1, k + 1), 2)]
