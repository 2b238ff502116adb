import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from mfe.brauer import (
    DimensionFunction,
    Word,
    WordLetter,
    encode_word,
    square_df,
)
from mfe.cumulants import Colourization, kappa_closed_form
from mfe.evaltrace import (
    amalgamated_cumulant,
    block_slice,
    cond_expectation,
    e_pi,
    quat_embed,
    total_dim,
)
from mfe.generators import GeneratorMatrix, delta_diag
from mfe.moments import MomentFunction, solve_semigroup_row
from mfe.ncpart import (
    SetPartition,
    enumerate_nc,
    is_noncrossing,
    one_nc,
)
from mfe.opvalued import (
    limit_cumulant_coefficient,
    limit_statistic,
    seed_diagram,
)
from mfe.opvalued import _block_product, _coefficient_walk

DF = DimensionFunction({1: 2, 2: 3})

RECT = DimensionFunction({1: Fraction(1, 4), 2: Fraction(3, 4)})


def random_complex(rng, n=5):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_quat(rng, n=5):
    """Components (n, n, 4) of a random quaternion matrix and its
    complex embedding."""
    q = rng.standard_normal((n, n, 4))
    return q, quat_embed(q)


def block_diagonal(values, df, field="C"):
    """The dense block-diagonal matrix sum_i v_i p_i of block values, of
    side 2n in the complex embedding for H: the reference for the block
    scaling of e_pi."""
    scale = 2 if field == "H" else 1
    n = scale * total_dim(df)
    out = np.zeros((n, n), dtype=complex)
    for v, c in zip(values, sorted(df.dims)):
        s = block_slice(df, c, scale)
        out[s, s] = np.eye(s.stop - s.start) * v
    return out


def close(a, b, tol=1e-10):
    """Equal shapes, and every entry within the absolute tolerance."""
    return np.shape(a) == np.shape(b) and np.all(np.abs(a - b) <= tol)


class TestBlockDiagonal:
    def test_is_block_diagonal(self):
        m = block_diagonal([2.0, -1.0], DF)
        assert np.array_equal(m[:2, :2], 2.0 * np.eye(2))
        assert np.array_equal(m[2:, 2:], -1.0 * np.eye(3))
        assert np.array_equal(m[:2, 2:], np.zeros((2, 3)))

    def test_quaternion(self):
        m = block_diagonal([2.0, -1.0], DF, "H")
        assert np.array_equal(m, np.diag([2.0] * 4 + [-1.0] * 6))


class TestCondExpectation:
    def test_identity_maps_to_ones(self):
        got = cond_expectation(np.eye(5, dtype=complex), DF)
        assert close(got, np.ones(2))

    def test_off_diagonal_blocks_vanish(self):
        a = np.zeros((5, 5), dtype=complex)
        a[:2, 2:] = 1.0
        a[2:, :2] = -2.0
        assert close(cond_expectation(a, DF), np.zeros(2))

    def test_block_trace_normalization(self):
        a = np.zeros((5, 5), dtype=complex)
        a[2:, 2:] = np.diag([1.0, 2.0, 3.0])
        assert close(cond_expectation(a, DF), np.array([0.0, 2.0]))

    def test_conditional_property(self):
        # E(d1 A d2) = d1 E(A) d2 for diagonal d1, d2
        rng = np.random.default_rng(0)
        a = random_complex(rng)
        d1 = np.array([2.0, -1.0])
        d2 = np.array([0.5, 3.0])
        lhs = cond_expectation(
            block_diagonal(d1, DF) @ a @ block_diagonal(d2, DF), DF)
        rhs = d1 * cond_expectation(a, DF) * d2
        assert close(lhs, rhs)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cond_expectation(np.eye(4), DF)

    def test_quaternion_real_part(self):
        rng = np.random.default_rng(1)
        q, a = random_quat(rng)
        got = cond_expectation(a, DF)
        assert got.dtype == float
        assert got[0] == pytest.approx(np.trace(q[:2, :2, 0]) / 2)
        assert got[1] == pytest.approx(np.trace(q[2:, 2:, 0]) / 3)


class TestEPi:
    def test_full_partition_is_plain_expectation(self):
        rng = np.random.default_rng(2)
        a, b = random_complex(rng), random_complex(rng)
        got = e_pi(one_nc(2), [a, b], DF)
        assert close(got, cond_expectation(a @ b, DF))

    def test_singletons_multiply(self):
        rng = np.random.default_rng(3)
        a, b = random_complex(rng), random_complex(rng)
        got = e_pi([(1,), (2,)], [a, b], DF)
        assert close(got, cond_expectation(a, DF) * cond_expectation(b, DF))

    def test_nested_interval(self):
        # {{1,3},{2}} evaluates E(A E(B) C)
        rng = np.random.default_rng(4)
        a, b, c = (random_complex(rng) for _ in range(3))
        got = e_pi([(1, 3), (2,)], [a, b, c], DF)
        inner = block_diagonal(cond_expectation(b, DF), DF)
        assert close(got, cond_expectation(a @ inner @ c, DF))

    def test_leading_block_scales_rows(self):
        # {{1},{2,3}} evaluates E(E(A) B C): E(A) multiplies B from the
        # left, which differs from B E(A) inside the trace with C
        rng = np.random.default_rng(18)
        a, b, c = (random_complex(rng) for _ in range(3))
        got = e_pi([(1,), (2, 3)], [a, b, c], DF)
        inner = block_diagonal(cond_expectation(a, DF), DF)
        assert close(got, cond_expectation(inner @ b @ c, DF))
        assert not close(got, cond_expectation(b @ inner @ c, DF))

    def test_two_nested_levels(self):
        rng = np.random.default_rng(5)
        a, b, c, d = (random_complex(rng) for _ in range(4))
        got = e_pi([(1, 4), (2, 3)], [a, b, c, d], DF)
        inner = block_diagonal(cond_expectation(b @ c, DF), DF)
        assert close(got, cond_expectation(a @ inner @ d, DF))

    def test_crossing_partition_rejected(self):
        rng = np.random.default_rng(6)
        mats = [random_complex(rng) for _ in range(4)]
        with pytest.raises(ValueError):
            e_pi([(1, 3), (2, 4)], mats, DF)

    def test_partition_must_cover(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            e_pi([(1,)], [random_complex(rng)] * 2, DF)

    def test_quaternion_nesting(self):
        rng = np.random.default_rng(8)
        a, b, c = (random_quat(rng)[1] for _ in range(3))
        got = e_pi([(1, 3), (2,)], [a, b, c], DF)
        inner = block_diagonal(cond_expectation(b, DF), DF, "H")
        want = cond_expectation(a @ inner @ c, DF)
        assert close(got, want)


class TestAmalgamatedCumulant:
    def test_first_cumulant_is_expectation(self):
        rng = np.random.default_rng(9)
        a = random_complex(rng)
        got = amalgamated_cumulant(one_nc(1), [a], DF)
        assert close(got, cond_expectation(a, DF))

    def test_second_cumulant_of_scalar_vanishes(self):
        # one argument a multiple of the identity kills the cumulant
        rng = np.random.default_rng(10)
        a = random_complex(rng)
        got = amalgamated_cumulant(one_nc(2), [a, 2.0 * np.eye(5)], DF)
        assert close(got, np.zeros(2), 1e-8)

    def test_second_cumulant_is_covariance_form(self):
        rng = np.random.default_rng(11)
        a, b = random_complex(rng), random_complex(rng)
        got = amalgamated_cumulant(one_nc(2), [a, b], DF)
        want = cond_expectation(a @ b, DF) - \
            cond_expectation(a, DF) * cond_expectation(b, DF)
        assert close(got, want, 1e-8)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_moebius_roundtrip(self, k):
        rng = np.random.default_rng(12 + k)
        mats = [random_complex(rng) for _ in range(k)]
        for pi in enumerate_nc(k):
            tot = np.zeros(2)
            for gamma in enumerate_nc(k):
                if gamma.leq(pi):
                    tot = tot + amalgamated_cumulant(gamma, mats, DF)
            assert close(tot, e_pi(pi, mats, DF), 1e-8), pi

    def test_moebius_roundtrip_quaternion(self):
        rng = np.random.default_rng(16)
        mats = [random_quat(rng)[1] for _ in range(3)]
        for pi in enumerate_nc(3):
            tot = np.zeros(2)
            for gamma in enumerate_nc(3):
                if gamma.leq(pi):
                    tot = tot + amalgamated_cumulant(gamma, mats, DF)
            assert close(tot, e_pi(pi, mats, DF), 1e-8), pi


class TestLeadingAxes:
    """Pools with two leading sample axes give, sample by sample, the
    bytes of the per-sample calls."""

    @pytest.mark.parametrize("field", ["C", "H"])
    def test_pool_equals_per_sample_calls(self, field):
        rng = np.random.default_rng(17)
        lead = (2, 3)
        if field == "C":
            pool = rng.standard_normal(lead + (4, 5, 5)) \
                + 1j * rng.standard_normal(lead + (4, 5, 5))
        else:
            pool = quat_embed(rng.standard_normal(lead + (4, 5, 5, 4)))
        mats = list(np.moveaxis(pool, 2, 0))
        samples = list(np.ndindex(lead))
        got = cond_expectation(pool, DF)
        assert got.shape == lead + (4, 2)
        for i in samples:
            assert np.array_equal(got[i], np.stack(
                [cond_expectation(m, DF) for m in pool[i]]))
        for f in (e_pi, amalgamated_cumulant):
            for k in range(1, 5):
                for pi in enumerate_nc(k):
                    got = f(pi, mats[:k], DF)
                    assert got.shape == lead + (2,)
                    assert got.dtype == (float if field == "H" else complex)
                    for i in samples:
                        one = f(pi, [m[i] for m in mats[:k]], DF)
                        assert np.array_equal(got[i], one), (f, pi, i)


class TestSeedDiagram:
    def test_full_partition_matches_word_encoding(self):
        alpha = (1, 2, 2, 1)
        eps = [False, True, False]
        got = seed_diagram(one_nc(3), alpha, eps)
        tokens = [(alpha[l], alpha[l + 1], eps[l]) for l in range(3)]
        want, _ = encode_word(tokens)
        assert got == want

    def test_boundary_length_checked(self):
        with pytest.raises(ValueError):
            seed_diagram(one_nc(2), (1, 1), [False, False])
        w = Word([WordLetter(1)] * 2)
        for alpha in ((1, 1), (1, 1, 1, 1)):
            with pytest.raises(ValueError, match="boundary tuple"):
                limit_cumulant_coefficient(one_nc(2), alpha, w, RECT)

    def test_admissibility_sees_rectangular_strands(self):
        ok = seed_diagram(one_nc(2), (1, 2, 1), [False, False])
        assert ok.is_valid(RECT)
        bad = seed_diagram(one_nc(2), (1, 2, 2), [False, False])
        assert not bad.is_valid(RECT)


def least_mates(pi, k):
    """The walk's label of a partition: each slot's least block-mate."""
    return tuple(min(b) for s in range(1, k + 1) for b in pi.blocks
                 if s in b)


class TestEnumeratePaths:
    """Creating paths on top of a seed, enumerated by the (diagram,
    label) states of the coefficient walk: a path's endpoint and the
    partition of the slots its step pairs generate, given as each slot's
    least block-mate."""

    def test_zero_length_is_the_empty_path(self):
        b = seed_diagram(one_nc(2), (1, 1, 1), [False, False])
        w = Word([WordLetter(1)] * 2)
        states, _ = _coefficient_walk(b, w, square_df(1))
        assert states[0] == (b, (1, 2))

    def test_single_step_of_a_squared_letter(self):
        b = seed_diagram(one_nc(2), (1, 1, 1), [False, False])
        w = Word([WordLetter(1)] * 2)
        states, rows = _coefficient_walk(b, w, square_df(1))
        assert [lab for _, lab in states] == [(1, 2), (1, 1)]
        # the one step is a tau at slots (1, 2), entered with a minus sign
        assert rows[0][1] < 0

    def test_mixed_letters_cannot_join(self):
        b = seed_diagram(one_nc(2), (1, 1, 1), [False, False])
        w = Word([WordLetter(1), WordLetter(2)])
        states, _ = _coefficient_walk(b, w, square_df(1))
        assert [lab for _, lab in states] == [(1, 2)]

    def test_endpoint_partitions_noncrossing_below_seed(self):
        w = Word([WordLetter(1)] * 3)
        joined = 0
        for pi in enumerate_nc(3):
            seed = seed_diagram(pi, (1, 1, 1, 1), [False] * 3)
            top = SetPartition(pi.blocks, ground=range(1, 4))
            states, _ = _coefficient_walk(seed, w, square_df(1))
            for _, lab in states:
                part = SetPartition(
                    [[s for s in range(1, 4) if lab[s - 1] == m]
                     for m in set(lab)])
                assert least_mates(part, 3) == lab
                assert is_noncrossing(part)
                assert part.leq(top)
                joined += lab != (1, 2, 3)
        assert joined


class TestLimitCumulantCoefficient:
    def test_single_slot(self):
        w = Word([WordLetter(1)])
        got = limit_cumulant_coefficient(one_nc(1), (1, 1), w, square_df(1))
        assert got == MomentFunction({Fraction(-1, 2): [1]})

    def test_single_slot_off_diagonal_vanishes(self):
        w = Word([WordLetter(1)])
        got = limit_cumulant_coefficient(one_nc(1), (1, 2), w, RECT)
        assert got == MomentFunction.zero()

    def test_squared_letter_split(self):
        w = Word([WordLetter(1)] * 2)
        c0 = limit_cumulant_coefficient([(1,), (2,)], (1, 1, 1), w,
                                        square_df(1))
        c1 = limit_cumulant_coefficient([(1, 2)], (1, 1, 1), w, square_df(1))
        assert c0 == MomentFunction({Fraction(-1): [1]})
        assert c1 == MomentFunction({Fraction(-1): [0, -1]})

    def test_mixed_letters_kill_the_joined_coefficient(self):
        w = Word([WordLetter(1), WordLetter(2)])
        got = limit_cumulant_coefficient(one_nc(2), (1, 1, 1), w, RECT)
        assert got == MomentFunction.zero()
        w3 = Word([WordLetter(1), WordLetter(2), WordLetter(1)])
        got = limit_cumulant_coefficient(one_nc(3), (1,) * 4, w3, RECT)
        assert got == MomentFunction.zero()

    def test_letter_weight_scales_drift(self):
        w = Word([WordLetter(1)])
        got = limit_cumulant_coefficient(one_nc(1), (1, 1), w, square_df(1),
                                         weights={1: 2})
        assert got == MomentFunction({Fraction(-1): [1]})

    def test_sum_below_partition_recovers_the_statistic(self):
        rng = random.Random(20)
        for trial in range(6):
            k = rng.choice([2, 3])
            alpha = tuple(rng.randrange(1, 3) for _ in range(k + 1))
            eps = [rng.random() < 0.4 for _ in range(k)]
            letters = [rng.choice([1, 1, 2]) for _ in range(k)]
            w = Word(WordLetter(l, b) for l, b in zip(letters, eps))
            for pi in enumerate_nc(k):
                want = limit_statistic(pi, alpha, w, RECT)
                got = MomentFunction.zero()
                for beta in enumerate_nc(k):
                    if beta.leq(pi):
                        got = got + limit_cumulant_coefficient(
                            beta, alpha, w, RECT)
                assert got == want, (alpha, eps, letters, pi)

    @staticmethod
    def whole_seed(beta, alpha, w, ratios, weights=None):
        """One walk of beta's whole seed, read on beta's label."""
        seed = seed_diagram(beta, alpha, [l.bar for l in w.letters])
        if not seed.is_valid(ratios):
            return MomentFunction.zero()
        states, rows = _coefficient_walk(seed, w, ratios, weights)
        label = least_mates(beta, len(w))
        dvec = [Fraction(delta_diag(b)) if lab == label else Fraction(0)
                for b, lab in states]
        return solve_semigroup_row(GeneratorMatrix(states, w, rows), 0, dvec)

    def test_product_over_blocks_is_the_whole_seed_walk(self):
        cases = 0
        for k in (1, 2, 3):
            for alpha, eps, letters in itertools.product(
                    itertools.product((1, 2), repeat=k + 1),
                    itertools.product((False, True), repeat=k),
                    ([1] * k, [1 + s % 2 for s in range(k)])):
                w = Word(WordLetter(l, b) for l, b in zip(letters, eps))
                for beta in enumerate_nc(k):
                    want = self.whole_seed(beta, alpha, w, RECT)
                    assert limit_cumulant_coefficient(
                        beta, alpha, w, RECT) == want, (beta, alpha, w)
                    cases += want != MomentFunction.zero()
        rng = random.Random(21)
        three = DimensionFunction(
            {1: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 2)})
        weights = {1: Fraction(3, 2), 2: Fraction(1, 3)}
        for trial in range(12):
            k = 4 + trial % 2
            ratios = three if trial % 4 < 2 else RECT
            # most random boundaries kill every coefficient: redraw
            # until at least k of them are nonzero
            nonzero = 0
            while nonzero < k:
                alpha = tuple(rng.randrange(1, ratios.n + 1)
                              for _ in range(k + 1))
                w = Word(WordLetter(rng.choice([1, 1, 2]),
                                    rng.random() < 0.4) for _ in range(k))
                wants = [self.whole_seed(beta, alpha, w, ratios, weights)
                         for beta in enumerate_nc(k)]
                nonzero = sum(c != MomentFunction.zero() for c in wants)
            for beta, want in zip(enumerate_nc(k), wants):
                assert limit_cumulant_coefficient(
                    beta, alpha, w, ratios, weights) == want, (beta, alpha, w)
            cases += nonzero
        assert cases > 300

    def test_one_product_per_block_multiset(self):
        # with one colour and one letter a block's key is its size, so
        # the 132 beta of NC(6) share 11 products, one per partition of 6
        _block_product.cache_clear()
        w = Word([WordLetter(1)] * 6)
        for beta in enumerate_nc(6):
            limit_cumulant_coefficient(beta, (1,) * 7, w, RECT)
        assert _block_product.cache_info().currsize == 11

    def test_square_top_coefficient_is_the_free_cumulant(self):
        # with n equal blocks of ratio 1/n the fully-joined coefficient
        # reduces to the scalar free cumulant of the block entries
        rng = random.Random(22)
        for trial in range(8):
            p = rng.randrange(1, 5)
            n = rng.randrange(1, 4)
            ratios = DimensionFunction(
                {c: Fraction(1, n) for c in range(1, n + 1)})
            alpha = tuple(rng.randrange(1, n + 1) for _ in range(p + 1))
            w = Word([WordLetter(1)] * p)
            got = limit_cumulant_coefficient(one_nc(p), alpha, w, ratios)
            want = kappa_closed_form(p, n,
                                     Colourization(alpha[:-1], alpha[1:]))
            assert got == want, (p, n, alpha)

    def test_inadmissible_boundary_is_zero(self):
        w = Word([WordLetter(1)] * 2)
        got = limit_cumulant_coefficient(one_nc(2), (1, 2, 2), w, RECT)
        assert got == MomentFunction.zero()
