import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from mfe.brauer import (
    ColouredBrauerDiagram,
    DimensionFunction,
    Pairing,
    Word,
    WordLetter,
    encode_word,
    square_df,
)
from mfe.generators import (
    build_generator_finite,
    build_generator_limit,
    delta_diag,
    square_ratios,
)
from mfe.moments import (
    MomentFunction,
    evolve_limit,
    finite_evaluator,
    moment_of_word,
    solve_semigroup_row,
)
from mfe.moments import _rational_roots
from mfe.reference import (
    compatible_words,
    evolve_finite,
    factorized_moment,
    identity_diagram,
    reachable_basis,
)


def from_records(records):
    """The MomentFunction that term_records wrote."""
    return MomentFunction({Fraction(r["rate"]): r["coeffs"] for r in records})


def plain_word(k):
    return Word(WordLetter(1) for _ in range(k))


def random_valid_diagram(rng, k, df):
    n = df.n
    pts = list(range(1, 2 * k + 1))
    rng.shuffle(pts)
    pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
    cols = [0] * (2 * k)
    for x, y in pairs:
        c = rng.randrange(1, n + 1)
        c2 = rng.choice([d for d in range(1, n + 1)
                         if df.value(d) == df.value(c)])
        cols[x - 1], cols[y - 1] = c, c2
    return ColouredBrauerDiagram(Pairing(k, pairs), cols)


class TestMomentFunction:
    def test_value_single_rate(self):
        f = MomentFunction.exponential(Fraction(-1, 2))
        assert np.isclose(f.value(2.0), math.exp(-1.0))
        assert f(0) == 1.0

    def test_polynomial_part(self):
        f = MomentFunction({Fraction(-1): [1, -1]})
        assert np.isclose(f.value(1.0), 0.0)
        assert np.isclose(f.value(2.0), -math.exp(-2.0))

    def test_algebra(self):
        f = MomentFunction.exponential(Fraction(-1, 2))
        g = f * f
        assert g.terms == {Fraction(-1): [Fraction(1)]}
        h = f + f
        assert h.terms == {Fraction(-1, 2): [Fraction(2)]}
        assert (f - f) == MomentFunction.zero()
        assert (2 * f).value(0) == 2.0

    def test_trailing_zero_coeffs_dropped(self):
        f = MomentFunction({Fraction(-1): [1, 0, 0]})
        assert f.terms[Fraction(-1)] == [Fraction(1)]
        assert MomentFunction({0: [0]}) == MomentFunction.zero()

    def test_rate_accessors(self):
        f = MomentFunction({Fraction(-1): [1, -1]})
        assert f.rate == -1 and f.coeffs == [1, -1]
        mixed = MomentFunction({0: [1], -1: [1]})
        with pytest.raises(ValueError):
            mixed.rate
        with pytest.raises(ValueError):
            mixed.coeffs

    def test_taylor_and_derivative(self):
        f = MomentFunction({Fraction(-1): [Fraction(1), Fraction(-1)]})
        # e^-t (1 - t) = 1 - 2t + 3t^2/2 - ...
        assert f.taylor_coeff(0) == 1
        assert f.taylor_coeff(1) == -2
        assert f.taylor_coeff(2) == Fraction(3, 2)
        # the first coefficient is the slope of value at 0 (a one-sided
        # second-order difference, as negative times are rejected)
        h = 1e-4
        slope = (4 * f.value(h) - 3 * f.value(0) - f.value(2 * h)) / (2 * h)
        assert math.isclose(slope, f.taylor_coeff(1), abs_tol=1e-6)

    # the JSON output carries term_records; its strings are exact

    def test_json_roundtrip_single(self):
        f = MomentFunction({Fraction(-3, 2): [1, -3, Fraction(3, 2)]})
        text = json.dumps(f.term_records())
        assert '"rate": "-3/2"' in text
        assert from_records(json.loads(text)) == f

    def test_json_roundtrip_multi(self):
        f = MomentFunction({0: [Fraction(1, 2)], -1: [Fraction(1, 2)]})
        assert from_records(json.loads(json.dumps(f.term_records()))) == f

    def test_degree(self):
        assert MomentFunction({Fraction(-1): [1, -3, 2]}).degree() == 2

    def test_value_at_large_t(self):
        # e^(rate t) underflows to 0 while the polynomial overflows: the
        # term is 0, not 0 * inf = nan
        f = MomentFunction({Fraction(-3, 2): [1, -3, Fraction(3, 2)]})
        assert f.value(1e300) == 0.0
        with pytest.raises(ValueError, match="t=1e"):
            MomentFunction({0: [0, 0, 1]}).value(1e300)
        with pytest.raises(ValueError, match="t=1e"):
            MomentFunction.exponential(1).value(1e300)


class TestEvolveFinite:
    def test_complex_single_slot(self):
        b = identity_diagram(1, [1])
        for d in (2, 5):
            got = evolve_finite(b, plain_word(1), 1.3, square_df(1, d), "C")
            assert np.isclose(got, math.exp(-0.65))

    def test_real_single_slot(self):
        b = identity_diagram(1, [1])
        for n in (3, 6):
            got = evolve_finite(b, plain_word(1), 1.0, square_df(1, n), "R")
            assert np.isclose(got, math.exp(-(n - 1) / (2 * n)))

    def test_quaternion_single_slot(self):
        b = identity_diagram(1, [1])
        for n in (2, 4):
            got = evolve_finite(b, plain_word(1), 1.0, square_df(1, n), "H")
            assert np.isclose(got, math.exp(-(2 * n + 1) / (4 * n)))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolve_finite(identity_diagram(1, [1]), plain_word(1),
                          -1.0, square_df(1, 2), "C")

    def test_large_time_exact(self):
        # the generator has eigenvalues up to +2/3, which float rounding
        # excites at large t; the exact closed form has no growing mode
        seed, word = encode_word([(1, 1, False)] * 4)
        df = square_df(1, 3)
        mf = finite_evaluator(seed, word, df, "R")
        assert mf == MomentFunction({Fraction(-10, 3): [3],
                                     Fraction(-2): [Fraction(-7, 3)],
                                     0: [Fraction(1, 3)]})
        assert abs(evolve_finite(seed, word, 60, df, "R") - 1 / 3) <= 1e-12

    def test_initial_condition(self):
        rng = random.Random(30)
        df = square_df(2, 2)
        for _ in range(5):
            b = random_valid_diagram(rng, 2, df)
            got = evolve_finite(b, plain_word(2), 0.0, df, "R")
            from mfe.generators import delta_diag
            assert np.isclose(got, delta_diag(b))


class TestEvolveLimit:
    def test_power_one(self):
        f = evolve_limit(identity_diagram(1, [1]), plain_word(1),
                         square_ratios(1))
        assert f == MomentFunction({Fraction(-1, 2): [1]})

    def test_power_two(self):
        b, w = encode_word([(1, 1, False)] * 2)
        f = evolve_limit(b, w, square_ratios(1), "complex")
        assert f == MomentFunction({Fraction(-1): [1, -1]})

    def test_power_three(self):
        b, w = encode_word([(1, 1, False)] * 3)
        f = evolve_limit(b, w, square_ratios(1), "complex")
        assert f == MomentFunction(
            {Fraction(-3, 2): [1, -3, Fraction(3, 2)]})

    def test_mixed_rate_starred_word(self):
        # tr(u*_11 u_11) over 2 blocks relaxes to the stationary value 1/2
        b, w = encode_word([(1, 1, True), (1, 1, False)])
        f = evolve_limit(b, w, square_ratios(2), "complex")
        assert f == MomentFunction({0: [Fraction(1, 2)],
                                    Fraction(-1): [Fraction(1, 2)]})

    def test_degree_bound(self):
        rng = random.Random(31)
        for _ in range(10):
            k = rng.randrange(1, 5)
            b = random_valid_diagram(rng, k, square_df(1))
            f = evolve_limit(b, plain_word(k), square_ratios(1))
            assert f.degree() < k

    def test_word_bar_flip_invariant(self):
        rng = random.Random(32)
        for _ in range(10):
            n = rng.randrange(1, 3)
            k = rng.randrange(1, 4)
            tokens = [(rng.randrange(1, n + 1), rng.randrange(1, n + 1),
                       rng.random() < 0.5) for _ in range(k)]
            flipped = [(i, j, not s) for i, j, s in tokens]
            b1, w1 = encode_word(tokens)
            b2, w2 = encode_word(flipped)
            f1 = evolve_limit(b1, w1, square_ratios(n), "complex")
            f2 = evolve_limit(b2, w2, square_ratios(n), "complex")
            assert f1 == f2

    def test_compatible_pair_complex_equals_real(self):
        rng = random.Random(33)
        ratios = DimensionFunction({1: Fraction(1, 3)})
        for _ in range(8):
            k = rng.randrange(1, 4)
            b = random_valid_diagram(rng, k, ratios)
            real = evolve_limit(b, plain_word(k), ratios, "real")
            for w in compatible_words(b):
                assert evolve_limit(b, w, ratios, "complex") == real


def recurrence_of(poly):
    """a_0..a_{m-1} with x^m - sum a_i x^i equal to the monic poly,
    given lowest power first."""
    return [-Fraction(c) for c in poly[:-1]]


def poly_with_roots(roots):
    poly = [Fraction(1)]
    for r in roots:
        poly = [b - r * a for a, b in zip(poly + [0], [0] + poly)]
    return poly


def poly_times(a, b):
    """Product of two polynomials given lowest power first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def many_rates(draw):
    """20 to 40 distinct roots over one denominator in 8..72, as the
    rates of one generator are, each up to three times, degree <= 60."""
    den = draw(st.integers(8, 72))
    nums = draw(st.sets(st.integers(-8 * den, den), min_size=20,
                        max_size=40))
    spare, roots = 60 - len(nums), {}
    for num in sorted(nums):
        extra = draw(st.integers(0, min(2, spare)))
        spare -= extra
        roots[Fraction(num, den)] = 1 + extra
    return roots


class TestRationalRoots:
    @pytest.mark.parametrize("roots", [
        {Fraction(-4): 8},
        {Fraction(-7, 2): 7},
        {Fraction(-4): 8, Fraction(-7, 2): 7},
        {Fraction(-3, 7): 3, Fraction(5, 9): 1},
        {Fraction(0): 2, Fraction(-1, 2): 1},
        {Fraction(0): 1},
    ], ids=["-4^8", "-7/2^7", "-4^8,-7/2^7", "-3/7^3,5/9", "0^2,-1/2",
            "0"])
    def test_exact_roots_with_multiplicity(self, roots):
        flat = [r for r, mult in roots.items() for _ in range(mult)]
        assert _rational_roots(recurrence_of(poly_with_roots(flat))) \
            == roots

    @seed(13)
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(
        st.builds(Fraction, st.integers(-200, 200), st.integers(1, 64)),
        st.integers(1, 6), min_size=1, max_size=5)
        .filter(lambda roots: sum(roots.values()) <= 14))
    def test_random_rational_multisets(self, roots):
        flat = [r for r, mult in roots.items() for _ in range(mult)]
        assert _rational_roots(recurrence_of(poly_with_roots(flat))) \
            == roots

    @pytest.mark.parametrize("m", [20, 26, 30, 40])
    def test_many_clustered_roots(self, m):
        # -1/8, -3/8, ..., -(2m-1)/8: at m = 26 the coefficients reach
        # 1.7e14 while the roots lie 1/4 apart
        roots = {Fraction(1 - 2 * j, 8): 1 for j in range(1, m + 1)}
        assert _rational_roots(recurrence_of(poly_with_roots(roots))) \
            == roots

    @seed(17)
    @settings(max_examples=50, deadline=None)
    @given(many_rates())
    def test_random_many_rate_multisets(self, roots):
        flat = [r for r, mult in roots.items() for _ in range(mult)]
        assert _rational_roots(recurrence_of(poly_with_roots(flat))) \
            == roots

    @pytest.mark.parametrize("factor", [
        [-2, 0, 1],
        [4, 0, -4, 0, 1],
        [10001, -200, 1],
        [Fraction(4000001, 1000000), 4, 1],
    ], ids=["x^2-2", "(x^2-2)^2", "(x-100)^2+1", "(x+2)^2+1e-6"])
    def test_irrational_factor_beside_many_roots_raises(self, factor):
        poly = poly_times(
            poly_with_roots([Fraction(-j, 8) for j in range(1, 31)]), factor)
        with pytest.raises(ValueError,
                           match="does not factor over the rationals"):
            _rational_roots(recurrence_of(poly))

    @pytest.mark.parametrize("poly", [
        [-2, 0, 1],
        [1, 0, 1],
        [Fraction(4, 3), 0, 0, 1],
        [-2, -2, 1, 1],
        [2, -2, -1, 1],
        [-26, 36, -11, 1],
    ], ids=["x^2-2", "x^2+1", "x^3+4/3", "(x+1)(x^2-2)", "(x-1)(x^2-2)",
            "(x-1)((x-5)^2+1)"])
    def test_no_rational_factorisation_raises(self, poly):
        with pytest.raises(ValueError,
                           match="does not factor over the rationals"):
            _rational_roots(recurrence_of(poly))


def n_of(tokens):
    return max(max(i, j) for i, j, _ in tokens)


def dense_expm(gen, t):
    """scipy's dense e^(tL) of the exact generator.  It drifts past t = 2
    where L has eigenvalues with positive real part, by 6.6e-12 at t = 2
    and 5.6e-9 at t = 3 on R u11^4 at n = d = 1, so later times are
    refused."""
    if t > 2:
        raise ValueError("the dense expm reference drifts past t = 2")
    a = np.zeros((len(gen.rows), len(gen.rows)))
    for i, row in enumerate(gen.rows):
        for j, v in row.items():
            a[i, j] = float(v)
    return expm(t * a)


def seed_row_reference(gen, t):
    """The float seed row of e^(tL) applied to delta_diag, from scipy's
    sparse expm_multiply, and the sum of the absolute products, which
    scales the rounding error of that reference."""
    i, j, v = zip(*[(i, j, float(v)) for i, row in enumerate(gen.rows)
                    for j, v in row.items()])
    a = csr_matrix((v, (i, j)), shape=(len(gen.rows), len(gen.rows)))
    e0 = np.zeros(len(gen.rows))
    e0[0] = 1.0
    row = expm_multiply(t * a.T, e0)
    dvec = np.array([float(delta_diag(b)) for b in gen.basis])
    return row @ dvec, np.abs(row) @ np.abs(dvec)


class TestManyRates:
    # exact finite moments whose annihilators have 20 or more distinct
    # rates, against the float action of e^(tL) on the seed row; the
    # dense expm of the 6,312-state H generator takes minutes, the action
    # a hundredth of a second
    def test_quaternion_twenty_rates(self):
        tokens = [(2, 2, False), (2, 1, True), (2, 1, False), (2, 1, False),
                  (2, 2, False), (1, 2, True), (2, 2, False)]
        seed, word = encode_word(tokens)
        df = square_df(2, 3)
        value = finite_evaluator(seed, word, df, "H")
        assert len(value.terms) == 20
        gen = build_generator_finite([seed], word, df, "H")
        # the reference drifts at t >= 2 (eigenvalues with positive real
        # part), so it is read at t <= 1 only
        for t in (0.25, 0.5, 1.0):
            want, _ = seed_row_reference(gen, t)
            assert abs(value(t) - want) <= 1e-12, t

    def test_real_u11_power_11_at_d4(self, monkeypatch):
        # 1,021 orbits, past the default BASIS_BOUND; the annihilator has
        # 30 distinct rates over 8, of which the moment keeps 3
        monkeypatch.setattr("mfe.generators.BASIS_BOUND", 400_000)
        seed, word = encode_word([(1, 1, False)] * 11)
        df = square_df(1, 4)
        value = finite_evaluator(seed, word, df, "R")
        assert value == MomentFunction({Fraction(-143, 8): [36],
                                        Fraction(-121, 8): [-60],
                                        Fraction(-99, 8): [25]})
        gen = build_generator_finite([seed], word, df, "R")
        # L has an eigenvalue near +9.6: the seed row of e^L sums to 1.3e6
        # in absolute value against values of 1e-4, so the reference is
        # good to a multiple of 1e-16 of that sum, not to 1e-12
        for t in (0.25, 0.5, 1.0):
            want, scale = seed_row_reference(gen, t)
            assert abs(value(t) - want) <= 1e-14 * scale, t


class TestSparseFiniteSolve:
    # the exact finite solve against the float dense matrix exponential
    # of the generator from the public builders
    CASES = [
        ("R", [(1, 1, False)] * 4, 3),
        ("R", [(1, 1, False), (1, 1, True)] + [(1, 1, False)] * 3, 3),
        ("C", [(1, 2, False), (2, 1, False)] * 2, 2),
        ("C", [(1, 2, False), (2, 1, True), (1, 1, False), (1, 2, True),
               (2, 1, False)], 2),
        ("H", [(1, 2, False), (2, 1, False)] * 2, 2),
        ("H", [(1, 1, False), (1, 1, True)] + [(1, 1, False)] * 3, 2),
    ]

    @pytest.mark.parametrize("field,tokens,d", CASES)
    def test_matches_dense_expm(self, field, tokens, d):
        seed, word = encode_word(tokens)
        df = square_df(n_of(tokens), d)
        basis = reachable_basis(seed, word, df,
                                "complex" if field == "C" else "real")
        gen = build_generator_finite(basis, word, df, field)
        dvec = np.array([float(delta_diag(b)) for b in basis])
        value = finite_evaluator(seed, word, df, field)
        for t in (0.0, 0.25, 1.0, 2.0):
            want = (dense_expm(gen, t) @ dvec)[gen.basis.index(seed)]
            assert abs(value(t) - want) <= 1e-12, (field, t)
            assert evolve_finite(seed, word, t, df, field) == value(t)

    def test_negative_time(self):
        value = finite_evaluator(identity_diagram(1, [1]), plain_word(1),
                                 square_df(1, 2), "C")
        with pytest.raises(ValueError):
            value(-0.5)


class TestCreatingClosure:
    # evolve_limit closes under creating moves only; the full reachable
    # basis with the public limit builder must give the same function
    def full_route(self, seed, word, ratios, fclass):
        basis = reachable_basis(seed, word, ratios, fclass)
        gen = build_generator_limit(basis, word, ratios, fclass)
        dvec = [Fraction(delta_diag(b)) for b in basis]
        return solve_semigroup_row(gen.rows, gen.basis.index(seed), dvec)

    @pytest.mark.parametrize("tokens", [
        [(1, 1, False)] * k for k in range(1, 7)] + [
        [(1, 2, False), (2, 1, False), (1, 1, False), (1, 2, False),
         (2, 1, False)],
        [(1, 1, False), (1, 2, True), (1, 2, False), (1, 1, True)],
    ])
    def test_equals_full_basis(self, tokens):
        seed, word = encode_word(tokens)
        ratios = square_ratios(n_of(tokens))
        got = evolve_limit(seed, word, ratios, "complex")
        assert got != MomentFunction.zero()
        assert got == self.full_route(seed, word, ratios, "complex")


class TestMomentOfWord:
    def test_limit_examples(self):
        assert moment_of_word([(1, 1, False)], 1) == \
            MomentFunction({Fraction(-1, 2): [1]})
        for t in (0.0, 0.5, 2.0):
            assert moment_of_word([(1, 2, False)], 2).value(t) == 0.0

    def test_biane_power_moments(self):
        # the moments of the free unitary Brownian motion (Biane):
        # tr(u^p) = e^(-pt/2) sum_{k<p} (-t)^k / k! p^(k-1) C(p, k+1);
        # p = 11 and 12 close only on slot-permutation orbits
        for p in range(1, 13):
            want = MomentFunction({Fraction(-p, 2): [
                Fraction((-1) ** k * p ** k * math.comb(p, k + 1),
                         p * math.factorial(k)) for k in range(p)]})
            assert moment_of_word([(1, 1, False)] * p, 1) == want, p

    def test_two_block_cycle_value(self):
        f = moment_of_word([(1, 2, False), (2, 1, False)], 2)
        assert f == MomentFunction({Fraction(-1): [0, Fraction(-1, 2)]})

    def test_block_decomposition_of_full_trace(self):
        # (1/n) sum_ij tr(u_ij u_ji) is the full second moment e^-t (1-t)
        for n in (1, 2, 3):
            total = MomentFunction.zero()
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    total = total + moment_of_word(
                        [(i, j, False), (j, i, False)], n)
            assert total * Fraction(1, n) == \
                MomentFunction({Fraction(-1): [1, -1]})

    # finite block dimensions go through finite_evaluator

    def test_finite_evaluation(self):
        seed, word = encode_word([(1, 1, False)])
        got = finite_evaluator(seed, word, square_df(1, 3), "C").value(1.0)
        assert np.isclose(got, math.exp(-0.5))

    def test_empty_word(self):
        with pytest.raises(ValueError):
            moment_of_word([], 1)

    def test_finite_approaches_limit(self):
        tokens = [(1, 2, False), (2, 1, False)]
        lim = moment_of_word(tokens, 2).value(1.0)
        seed, word = encode_word(tokens)
        errs = []
        for d in (2, 4, 8):
            fin = finite_evaluator(seed, word, square_df(2, d), "C")
            errs.append(abs(fin.value(1.0) - lim))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 0.02


class TestFactorizedMoment:
    def test_two_disjoint_fixed_slots(self):
        b = identity_diagram(2, [1, 1])
        f = factorized_moment(b, plain_word(2), square_ratios(1))
        assert f == MomentFunction({Fraction(-1): [1]})

    def test_cycle_plus_fixed_slot(self):
        pairs = [(1, 5), (2, 4), (3, 6)]
        b = ColouredBrauerDiagram(Pairing(3, pairs), [1] * 6)
        f = factorized_moment(b, plain_word(3), square_ratios(1))
        assert f == MomentFunction({Fraction(-3, 2): [1, -1]})

    def test_t_zero_is_diagonal_indicator(self):
        rng = random.Random(34)
        df = square_df(2)
        from mfe.generators import delta_diag
        for _ in range(6):
            b = random_valid_diagram(rng, 3, df)
            got = factorized_moment(b, plain_word(3), df).value(0.0)
            assert np.isclose(got, delta_diag(b))

    def test_matches_whole_diagram_evolution(self):
        rng = random.Random(35)
        for trial in range(12):
            k = rng.randrange(2, 6) if trial else 5
            b = random_valid_diagram(rng, k, square_df(1))
            w = plain_word(k)
            whole = evolve_limit(b, w, square_ratios(1))
            split = factorized_moment(b, w, square_ratios(1))
            assert whole == split, (k, b)
