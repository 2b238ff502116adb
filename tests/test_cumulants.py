import itertools
import math
import random
from fractions import Fraction

import pytest

from mfe.brauer import Permutation
from mfe.cumulants import (
    Colourization,
    colour_act,
    cumulants_from_moments,
    kappa_closed_form,
)
from mfe.moments import MomentFunction, moment_of_word
from mfe.ncpart import (
    NonCrossingPartition,
    enumerate_nc,
    nc_to_permutation,
    one_nc,
)
from mfe.reference import (
    BIANE_BOUND,
    all_transpositions,
    biane_moment,
    increasing_transpositions,
    moments_from_cumulants,
    taylor_coeff,
    taylor_coeff_geodesic,
    zero_nc,
)


def brute_taylor(pi, k, col, n):
    """Independent oracle: raw enumeration of all transposition tuples
    whose product splits k cycles off sigma_pi."""
    sigma = nc_to_permutation(pi)
    p = sigma.k
    taus = all_transpositions(p)
    total = 0
    for tup in itertools.product(taus, repeat=k):
        prod = Permutation.identity(p)
        for t in tup:
            prod = prod * t
        if (sigma * prod).num_cycles() != sigma.num_cycles() + k:
            continue
        if col.i == colour_act(col.j, prod):
            total += 1
    return Fraction(total, n ** k)


def random_col(rng, p, n):
    return Colourization([rng.randrange(1, n + 1) for _ in range(p)],
                         [rng.randrange(1, n + 1) for _ in range(p)])


class TestColourization:
    def test_validation(self):
        with pytest.raises(ValueError):
            Colourization((1, 2), (1,))
        with pytest.raises(ValueError):
            Colourization((0,), (1,))
        with pytest.raises(ValueError):
            Colourization((3,), (1,), n=2)
        with pytest.raises(ValueError):
            Colourization((), ())

    def test_constant(self):
        c = Colourization.constant(3, 2)
        assert c.i == c.j == (2, 2, 2) and c.p == 3

    def test_position_action_composes(self):
        rng = random.Random(40)
        for _ in range(10):
            p = rng.randrange(2, 6)
            c = random_col(rng, p, 3)
            imgs = list(range(1, p + 1))
            rng.shuffle(imgs)
            a = Permutation(imgs)
            rng.shuffle(imgs)
            b = Permutation(imgs)
            for row in (c.i, c.j):
                assert colour_act(colour_act(row, a), b) == \
                    colour_act(row, a * b)

    def test_relabel(self):
        c = Colourization((1, 2), (2, 1))
        swap = Permutation((2, 1))
        assert c.relabel(swap) == Colourization((2, 1), (1, 2))


class TestTaylorCoeff:
    def test_order_zero_is_diagonal_indicator(self):
        c = Colourization((1, 2, 1), (1, 2, 1))
        assert taylor_coeff(one_nc(3), 0, c, 2) == 1
        assert taylor_coeff(one_nc(3), 0,
                            Colourization((1, 2, 1), (1, 1, 1)), 2) == 0

    def test_vanishes_past_geodesic_distance(self):
        c = Colourization.constant(3)
        assert taylor_coeff(zero_nc(3), 1, c, 2) == 0
        assert taylor_coeff(one_nc(3), 2, c, 1) != 0

    def test_full_cycle_order_two(self):
        # the three minimal factorizations of a 3-cycle
        assert taylor_coeff(one_nc(3), 2, Colourization.constant(3), 1) == 3

    def test_order_out_of_range(self):
        c = Colourization.constant(3)
        with pytest.raises(ValueError):
            taylor_coeff(one_nc(3), 3, c, 1)
        with pytest.raises(ValueError):
            taylor_coeff(one_nc(3), -1, c, 1)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            taylor_coeff(one_nc(3), 1, Colourization.constant(2), 1)

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(41)
        for _ in range(30):
            p = rng.randrange(1, 5)
            n = rng.randrange(1, 4)
            pi = rng.choice(list(enumerate_nc(p)))
            k = rng.randrange(0, p)
            c = random_col(rng, p, n)
            assert taylor_coeff(pi, k, c, n) == brute_taylor(pi, k, c, n)

    def test_matches_geodesic_refinement_sum(self):
        rng = random.Random(42)
        for _ in range(30):
            p = rng.randrange(1, 6)
            n = rng.randrange(1, 4)
            pi = rng.choice(list(enumerate_nc(p)))
            k = rng.randrange(0, p)
            c = random_col(rng, p, n)
            assert taylor_coeff(pi, k, c, n) == \
                taylor_coeff_geodesic(pi, k, c, n)

    def test_block_permutation_invariance(self):
        rng = random.Random(43)
        for _ in range(15):
            p = rng.randrange(1, 6)
            n = rng.randrange(2, 4)
            pi = rng.choice(list(enumerate_nc(p)))
            k = rng.randrange(0, p)
            c = random_col(rng, p, n)
            imgs = list(range(1, n + 1))
            rng.shuffle(imgs)
            sigma = Permutation(imgs)
            assert taylor_coeff(pi, k, c.relabel(sigma), n) == \
                taylor_coeff(pi, k, c, n)

    def test_expands_the_moment_function(self):
        # e^(pt/2) * moment has Taylor coefficients (-1)^k/k! P^{1_p,k}
        rng = random.Random(44)
        for _ in range(15):
            p = rng.randrange(1, 5)
            n = rng.randrange(1, 4)
            c = random_col(rng, p, n)
            direct = moment_of_word(c.tokens(), n)
            coeffs = [Fraction((-1) ** k, math.factorial(k))
                      * taylor_coeff(one_nc(p), k, c, n)
                      for k in range(p)]
            assert direct == MomentFunction({Fraction(-p, 2): coeffs})

    def test_multiplicative_over_blocks(self):
        # a two-block partition factorizes into its blocks' full cycles
        pi = NonCrossingPartition([(1, 2, 3), (4, 5)])
        n = 2
        rng = random.Random(45)
        for _ in range(10):
            c = random_col(rng, 5, n)
            for k in range(5):
                split = sum(
                    taylor_coeff(one_nc(3), k1,
                                 Colourization(c.i[:3], c.j[:3]), n)
                    * taylor_coeff(one_nc(2), k - k1,
                                   Colourization(c.i[3:], c.j[3:]), n)
                    * math.comb(k, k1)
                    for k1 in range(max(0, k - 1), min(k, 2) + 1))
                assert taylor_coeff(pi, k, c, n) == split


class TestDenesCounts:
    def test_top_order_counts_minimal_factorizations(self):
        # number of (p-1)-tuples splitting the full cycle is p^(p-2),
        # checked against raw enumeration
        for p in range(1, 7):
            cp = Permutation.from_cycles(p, [list(range(1, p + 1))])

            def walk(sigma, k):
                if k == 0:
                    return 1
                return sum(walk(sigma * tau, k - 1)
                           for tau in increasing_transpositions(sigma))

            assert walk(cp, p - 1) == p ** max(p - 2, 0)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_small_cases_by_raw_product(self, p):
        c = Colourization.constant(p)
        got = taylor_coeff(one_nc(p), p - 1, c, 1)
        assert got == brute_taylor(one_nc(p), p - 1, c, 1)
        assert got == p ** max(p - 2, 0)


class TestKappaClosedForm:
    def test_p_one(self):
        f = kappa_closed_form(1, 1, Colourization.constant(1))
        assert f == MomentFunction({Fraction(-1, 2): [1]})

    def test_p_two_cyclic_colours(self):
        f = kappa_closed_form(2, 2, Colourization((1, 2), (2, 1)))
        assert f == MomentFunction({Fraction(-1): [0, Fraction(-1, 2)]})

    def test_mismatched_colours_vanish(self):
        assert kappa_closed_form(2, 2, Colourization((1, 2), (1, 2))) == \
            MomentFunction.zero()

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            kappa_closed_form(0, 1, Colourization.constant(1))
        with pytest.raises(ValueError):
            kappa_closed_form(2, 1, Colourization.constant(3))

    def test_evaluation_at_time(self):
        got = kappa_closed_form(2, 1, Colourization.constant(2)).value(1.0)
        assert math.isclose(got, -math.exp(-1.0))

    def test_single_block_matches_nica(self):
        # kappa_q(u..u) = e^(-qt/2) (-qt)^(q-1) / q!
        for q in range(1, 6):
            got = kappa_closed_form(q, 1, Colourization.constant(q))
            coeff = Fraction((-q) ** (q - 1), math.factorial(q))
            assert got == MomentFunction(
                {Fraction(-q, 2): [0] * (q - 1) + [coeff]})

    def test_matches_moebius_inversion_of_moments(self):
        rng = random.Random(46)
        cases = [(p, n) for p in range(1, 5) for n in range(1, 4)]
        for p, n in cases:
            for _ in range(2):
                c = random_col(rng, p, n)

                def phi(block):
                    toks = [c.tokens()[v - 1] for v in block]
                    return moment_of_word(toks, n)

                got = cumulants_from_moments(phi, p)[p - 1]
                assert got == kappa_closed_form(p, n, c), (p, n, c)

    def test_matches_inversion_p_five(self):
        # the chaining colourization at p = 5, n = 2 keeps the check exact
        n = 2
        i = (1, 2, 1, 2, 2)
        j = i[1:] + i[:1]
        c = Colourization(i, j)

        def phi(block):
            return moment_of_word([c.tokens()[v - 1] for v in block], n)

        assert cumulants_from_moments(phi, 5)[4] == \
            kappa_closed_form(5, n, c)


class TestMomentCumulantInversion:
    def test_dirac_at_one(self):
        assert cumulants_from_moments([1] * 5, 5) == \
            [1, 0, 0, 0, 0]

    def test_semicircle_moments(self):
        got = cumulants_from_moments([0, 1, 0, 2, 0, 5], 6)
        assert got == [0, 1, 0, 0, 0, 0]

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            cumulants_from_moments([1, 1], 3)

    def test_roundtrip_is_identity(self):
        rng = random.Random(47)
        for _ in range(6):
            ms = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
                  for _ in range(6)]
            ks = cumulants_from_moments(ms, 6)
            assert moments_from_cumulants(ks, 6) == ms

    def test_selected_orders(self):
        # each order alone is the entry of the full sweep
        ms = [moment_of_word([(1, 1, False)] * q, 1) for q in range(1, 6)]
        ks = cumulants_from_moments(ms, 5)
        assert cumulants_from_moments(ms, 5, orders=[5, 2]) == [ks[4], ks[1]]

    def test_roundtrip_on_moment_functions(self):
        ms = [moment_of_word([(1, 1, False)] * q, 1) for q in range(1, 5)]
        ks = cumulants_from_moments(ms, 4)
        back = moments_from_cumulants(ks, 4)
        assert back == ms


class TestBianeMoment:
    def test_small_powers(self):
        assert biane_moment(1) == MomentFunction({Fraction(-1, 2): [1]})
        assert biane_moment(2) == MomentFunction({Fraction(-1): [1, -1]})
        assert biane_moment(3) == MomentFunction(
            {Fraction(-3, 2): [1, -3, Fraction(3, 2)]})

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            biane_moment(0)
        with pytest.raises(ValueError):
            biane_moment(BIANE_BOUND + 1)

    def test_matches_limit_evolution(self):
        for p in range(1, 6):
            assert biane_moment(p) == \
                moment_of_word([(1, 1, False)] * p, 1)

    def test_evaluation_at_time(self):
        assert math.isclose(biane_moment(2).value(1.0), 0.0, abs_tol=1e-15)

    def test_value_at_zero_is_one(self):
        for p in range(1, BIANE_BOUND + 1):
            assert biane_moment(p).value(0.0) == 1.0
