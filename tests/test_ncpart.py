import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mfe.brauer import Permutation
from mfe.ncpart import (
    NonCrossingPartition,
    SetPartition,
    catalan,
    enumerate_nc,
    is_noncrossing,
    mobius_nc,
    nc_to_permutation,
    one_nc,
)
from mfe.reference import (
    all_transpositions,
    count_minimal_factorizations,
    geodesic_distance,
    partition_join,
    zero_nc,
)


def random_partition(rng, k):
    labels = [rng.randrange(k) for _ in range(k)]
    groups = {}
    for x, l in zip(range(1, k + 1), labels):
        groups.setdefault(l, []).append(x)
    return SetPartition(groups.values())


partitions_st = st.integers(3, 7).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), min_size=k, max_size=k).map(
        lambda labels: SetPartition(
            [
                [i + 1 for i, l in enumerate(labels) if l == g]
                for g in set(labels)
            ]
        )
    )
)


class TestJoinMeet:
    def test_join_idempotent(self):
        p = SetPartition([[1, 2], [3]])
        assert partition_join(p, p) == p

    def test_join_absorbing_top(self):
        p = SetPartition([[1], [2]])
        q = SetPartition([[1, 2]])
        assert partition_join(p, q) == q

    def test_join_transitive_closure(self):
        p = SetPartition([[1, 2], [3, 4]])
        q = SetPartition([[2, 3], [1], [4]])
        assert partition_join(p, q) == SetPartition([[1, 2, 3, 4]])

    def test_mismatched_ground_rejected(self):
        with pytest.raises(ValueError):
            partition_join(SetPartition([[1]]), SetPartition([[1, 2]]))

    @given(partitions_st, partitions_st)
    @settings(max_examples=60, deadline=None)
    def test_lattice_laws(self, p, q):
        if p.ground != q.ground:
            return
        j = partition_join(p, q)
        assert j == partition_join(q, p)
        # an upper bound of both that absorbs them
        assert p.leq(j) and q.leq(j)
        assert partition_join(p, j) == j

    def test_lattice_associativity_random(self):
        rng = random.Random(7)
        for _ in range(40):
            k = rng.randrange(2, 8)
            p, q, r = (random_partition(rng, k) for _ in range(3))
            assert partition_join(p, partition_join(q, r)) == partition_join(
                partition_join(p, q), r
            )


class TestEnumerateNC:
    def test_k1(self):
        assert list(enumerate_nc(1)) == [NonCrossingPartition([[1]])]

    @pytest.mark.parametrize("k,count", [(3, 5), (4, 14)])
    def test_small_counts_against_brute_force(self, k, count):
        # oracle: filter all set partitions by the crossing test
        def all_partitions(ground):
            if not ground:
                yield []
                return
            x, rest = ground[0], ground[1:]
            for part in all_partitions(rest):
                for i in range(len(part)):
                    yield part[:i] + [part[i] + [x]] + part[i + 1:]
                yield part + [[x]]

        brute = {
            SetPartition(bs)
            for bs in all_partitions(list(range(1, k + 1)))
            if is_noncrossing(SetPartition(bs))
        }
        got = {p.p for p in enumerate_nc(k)}
        assert got == brute
        assert len(got) == count

    @pytest.mark.parametrize("k", range(1, 8))
    def test_order_of_filtered_full_growth(self, k):
        # the amalgamated output follows this order: every set partition
        # grown point by point, the crossing ones dropped
        def grow(j, blocks):
            if j > k:
                part = SetPartition(blocks)
                if is_noncrossing(part):
                    yield part
                return
            for i in range(len(blocks)):
                yield from grow(j + 1, blocks[:i] + [blocks[i] + [j]]
                                + blocks[i + 1:])
            yield from grow(j + 1, blocks + [[j]])

        assert [p.p for p in enumerate_nc(k)] == list(grow(1, []))

    @pytest.mark.parametrize("k", range(1, 11))
    def test_catalan_counts(self, k):
        assert len(enumerate_nc(k)) == catalan(k)

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            enumerate_nc(13)


class TestMobius:
    def test_reflexive(self):
        pi = NonCrossingPartition([[1, 2], [3]])
        assert mobius_nc(pi, pi) == 1

    def test_zero_one_small(self):
        assert mobius_nc(zero_nc(2), one_nc(2)) == -1
        assert mobius_nc(zero_nc(3), one_nc(3)) == 2

    @pytest.mark.parametrize("k", range(1, 7))
    def test_zeta_matrix_inversion(self, k):
        # invert the full zeta matrix of NC(k) and compare entrywise
        ncs = enumerate_nc(k)
        n = len(ncs)
        zeta = [
            [Fraction(1 if ncs[i].leq(ncs[j]) else 0) for j in range(n)]
            for i in range(n)
        ]
        # Gauss-Jordan over Fractions
        aug = [row[:] + [Fraction(int(i == j)) for j in range(n)]
               for i, row in enumerate(zeta)]
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        mu = [row[n:] for row in aug]
        for i in range(n):
            for j in range(n):
                if ncs[i].leq(ncs[j]):
                    assert mobius_nc(ncs[i], ncs[j]) == mu[i][j]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_mobius_roundtrip(self, k):
        for rho in enumerate_nc(k):
            total = sum(
                mobius_nc(g, rho) for g in enumerate_nc(k) if g.leq(rho)
            )
            assert total == (1 if rho == zero_nc(k) else 0)

    def test_incomparable_rejected(self):
        with pytest.raises(ValueError):
            mobius_nc(one_nc(2), zero_nc(2))


class TestPermutations:
    def test_nc_to_permutation_zero(self):
        assert nc_to_permutation(zero_nc(4)) == Permutation.identity(4)

    def test_nc_to_permutation_full(self):
        assert nc_to_permutation(one_nc(3)) == Permutation.from_cycles(3, [[1, 2, 3]])

    def test_nc_to_permutation_transposition(self):
        pi = NonCrossingPartition([[1, 3], [2]])
        assert nc_to_permutation(pi) == Permutation.from_cycles(3, [[1, 3]])

    def test_geodesic_identity(self):
        assert geodesic_distance(Permutation.identity(5)) == 0

    def test_geodesic_cycle(self):
        for k in range(2, 7):
            assert geodesic_distance(Permutation.from_cycles(k, [list(range(1, k + 1))])) == k - 1

    def test_geodesic_matches_bfs(self):
        # BFS over the transposition Cayley graph of S_4
        k = 4
        trans = all_transpositions(k)
        dist = {Permutation.identity(k): 0}
        frontier = [Permutation.identity(k)]
        while frontier:
            nxt = []
            for s in frontier:
                for t in trans:
                    u = s * t
                    if u not in dist:
                        dist[u] = dist[s] + 1
                        nxt.append(u)
            frontier = nxt
        for sigma, d in dist.items():
            assert geodesic_distance(sigma) == d
        assert geodesic_distance(Permutation.from_cycles(4, [[1, 2], [3, 4]])) == 2

    @pytest.mark.parametrize("k", range(1, 9))
    def test_geodesic_blocks_identity(self, k):
        for pi in enumerate_nc(k):
            assert geodesic_distance(nc_to_permutation(pi)) + len(pi.blocks) == k


def brute_minimal_factorizations(sigma):
    k = sigma.k
    d = geodesic_distance(sigma)
    trans = all_transpositions(k)

    def rec(remaining, current):
        if remaining == 0:
            return 1 if current == sigma else 0
        total = 0
        for t in trans:
            nxt = current * t
            if geodesic_distance(nxt.inverse() * sigma) == remaining - 1:
                total += rec(remaining - 1, nxt)
        return total

    return rec(d, Permutation.identity(k))


class TestMinimalFactorizations:
    def test_identity(self):
        assert count_minimal_factorizations(Permutation.identity(3)) == 1

    def test_three_cycle_denes(self):
        assert count_minimal_factorizations(Permutation.from_cycles(3, [[1, 2, 3]])) == 3

    def test_two_transpositions(self):
        sigma = Permutation.from_cycles(4, [[1, 2], [3, 4]])
        assert count_minimal_factorizations(sigma) == 2
        assert brute_minimal_factorizations(sigma) == 2

    @pytest.mark.parametrize("k", range(2, 6))
    def test_against_brute_force_all_of_Sk(self, k):
        for images in itertools.permutations(range(1, k + 1)):
            sigma = Permutation(images)
            assert count_minimal_factorizations(sigma) == brute_minimal_factorizations(sigma)

    def test_against_brute_force_samples_S6(self):
        rng = random.Random(3)
        perms = list(itertools.permutations(range(1, 7)))
        for images in rng.sample(perms, 12):
            sigma = Permutation(images)
            assert count_minimal_factorizations(sigma) == brute_minimal_factorizations(sigma)

    @pytest.mark.parametrize("l", range(2, 7))
    def test_denes_single_cycle(self, l):
        sigma = Permutation.from_cycles(l, [list(range(1, l + 1))])
        assert count_minimal_factorizations(sigma) == l ** (l - 2)
