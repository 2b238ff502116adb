import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from scipy.linalg import expm

from mfe.brauer import (
    ColouredBrauerDiagram,
    DimensionFunction,
    Pairing,
    Word,
    WordLetter,
    cycle_walk,
    encode_word,
    square_df,
    twist,
)
from mfe.evaltrace import fnc, total_dim
from mfe.generators import (
    _orbit_key,
    build_generator_finite,
    build_generator_limit,
    casimir_drift,
    delta_diag,
    slot_allows,
    square_ratios,
)
from mfe.moments import solve_semigroup_row
from mfe.ncpart import SetPartition, enumerate_nc
from mfe.opvalued import _coefficient_walk, seed_diagram
from mfe.reference import (
    _ratio_factor,
    admissible_moves,
    compatible_words,
    compose,
    cycle_partition,
    generator_free_process,
    identity_diagram,
    is_compatible,
    materialize_rho,
    nc,
    partition_join,
    reachable_basis,
    schurmann_L,
    schurmann_eta,
)


def plain_word(k, letter=1):
    return Word(WordLetter(letter) for _ in range(k))


def c2_seed(n=1):
    b, w = encode_word([(1, 1, False), (1, 1, False)])
    return b, w


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


# ---------------------------------------------------------------------------
# independent oracle: the generator of the matrix-valued process on the
# k-fold tensor space, built from an orthonormal basis of the Lie algebra
# ---------------------------------------------------------------------------

def lie_basis(field, n):
    mats = []
    if field == "R":
        s = 1.0 / math.sqrt(n)
        for i in range(n):
            for j in range(i + 1, n):
                m = np.zeros((n, n), complex)
                m[i, j], m[j, i] = s, -s
                mats.append(m)
        return mats
    s = 1.0 / math.sqrt(2 * n)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), complex)
            m[i, j], m[j, i] = s, -s
            mats.append(m)
            m2 = np.zeros((n, n), complex)
            m2[i, j] = m2[j, i] = 1j * s
            mats.append(m2)
    for j in range(n):
        m = np.zeros((n, n), complex)
        m[j, j] = 1j / math.sqrt(n)
        mats.append(m)
    return mats


def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def tensor_generator(word, n, field):
    """Ito generator of t -> (x)_l U_t^(l), conjugated at barred slots,
    with independent motions for distinct letters."""
    k = len(word)
    basis = lie_basis(field, n)
    eye = np.eye(n, dtype=complex)
    cas = sum(a @ a for a in basis) / 2.0
    g = np.zeros((n ** k, n ** k), complex)
    for l in range(k):
        m = cas.conj() if word[l].bar else cas
        g += kron_chain([m if p == l else eye for p in range(k)])
    for l in range(k):
        for p in range(l + 1, k):
            if word[l].letter != word[p].letter:
                continue
            for a in basis:
                al = a.conj() if word[l].bar else a
                ap = a.conj() if word[p].bar else a
                g += kron_chain(
                    [al if q == l else ap if q == p else eye
                     for q in range(k)])
    return g


def dense(gen):
    """The exact generator as a float matrix."""
    a = np.zeros((len(gen.rows), len(gen.rows)))
    for i, row in enumerate(gen.rows):
        for j, v in row.items():
            a[i, j] = float(v)
    return a


def moment_prediction(gen, t):
    """Expected statistics at time t for every basis element, from the
    diagram-side generator: rows of exp(tG) against the diagonal indicator.

    scipy's dense expm drifts past t = 2 where G has eigenvalues with
    positive real part, by 6.6e-12 at t = 2 and 5.6e-9 at t = 3 on R
    u11^4 at n = d = 1, so later times are refused."""
    if t > 2:
        raise ValueError("the dense expm reference drifts past t = 2")
    dvec = np.array([float(delta_diag(b)) for b in gen.basis])
    return expm(t * dense(gen)) @ dvec


def oracle_value(b, df, e_t):
    norm = 1.0
    for cls in df.classes():
        norm *= float(df.value(cls)) ** (-fnc(b, df, cls))
    return norm * np.trace(materialize_rho(b, df) @ e_t)


class TestFilters:
    def test_real_needs_same_letter_only(self):
        w = Word([WordLetter(1), WordLetter(2, bar=True)])
        assert not slot_allows(w, 1, 2, "tau", "real")
        w2 = Word([WordLetter(1), WordLetter(1, bar=True)])
        assert slot_allows(w2, 1, 2, "tau", "real")
        assert slot_allows(w2, 1, 2, "e", "real")

    def test_complex_bar_rules(self):
        same = Word([WordLetter(1), WordLetter(1)])
        opp = Word([WordLetter(1), WordLetter(1, bar=True)])
        assert slot_allows(same, 1, 2, "tau", "complex")
        assert not slot_allows(same, 1, 2, "e", "complex")
        assert not slot_allows(opp, 1, 2, "tau", "complex")
        assert slot_allows(opp, 1, 2, "e", "complex")


class TestClosure:
    def test_single_point_identity(self):
        b = identity_diagram(1, [1])
        w = plain_word(1)
        for fclass in ("real", "complex"):
            assert reachable_basis(b, w, square_df(1), fclass) == [b]

    def test_cycle_two_complex(self):
        b, w = c2_seed()
        basis = reachable_basis(b, w, square_df(1), "complex")
        assert len(basis) == 2
        assert identity_diagram(2, [1, 1]) in basis

    def test_cycle_two_real(self):
        b, w = c2_seed()
        basis = reachable_basis(b, w, square_df(1), "real")
        assert len(basis) == 3

    def test_word_length_mismatch(self):
        with pytest.raises(ValueError):
            reachable_basis(identity_diagram(2, [1, 1]), plain_word(1),
                            square_df(1), "real")

    def test_bound(self, monkeypatch):
        b, w = c2_seed()
        monkeypatch.setattr("mfe.generators.BASIS_BOUND", 2)
        with pytest.raises(ValueError, match="exceeds 2"):
            reachable_basis(b, w, square_df(1), "real")

    def test_bound_counts_the_diagrams_met(self, monkeypatch):
        # u11^40 has 37,338 orbits, one per partition of 40, but each
        # distinct product costs a cycle walk, which gives its orbit key,
        # before its orbit is known: the bound caps those, so the closure
        # stops after as many walks
        walks = []

        def counted(*args):
            walks.append(args)
            return cycle_walk(*args)
        monkeypatch.setattr("mfe.generators.cycle_walk", counted)
        monkeypatch.setattr("mfe.generators.BASIS_BOUND", 500)
        seed, word = encode_word([(1, 1, False)] * 40)
        with pytest.raises(ValueError, match="exceeds 500"):
            build_generator_limit([seed], word, square_ratios(1), "complex")
        # one walk per given state, then one per product met
        assert len(walks) == 500

    def test_partial_states_are_closed_given_states_first(self):
        seed, word = encode_word([(1, 2, False), (2, 1, False),
                                  (1, 1, False)])
        df = square_df(2, 2)
        basis = reachable_basis(seed, word, df, "real")
        ref = (basis, build_generator_finite(basis, word, df, "R").rows)
        orbit = slot_orbits(word)
        last = basis[-1]
        # a given state keeps its own state, also beside an orbit mate
        mate = next(b for b in basis[1:] if orbit(b) == orbit(seed))
        for given in ([last, seed], [seed, mate, last]):
            gen = build_generator_finite(given, word, df, "R")
            held = assert_lumped(gen, given, ref, word, df, class_bases(df))
            assert held == {orbit(b) for b in basis}
            assert len(gen.rows) == len(held) + len(given) - len(
                {orbit(b) for b in given})
        alone = build_generator_finite([last], word, df, "R")
        held = assert_lumped(alone, [last], ref, word, df, class_bases(df))
        assert held == {orbit(b)
                        for b in reachable_basis(last, word, df, "real")}


RECT_DF = DimensionFunction({1: 2, 2: 3})


class TestValidity:
    def test_invalid_seed_rejected_by_every_builder(self):
        # strand {2, 1'} joins a block of dimension 2 to one of dimension 3
        seed, word = encode_word([(1, 2, False), (1, 1, False)])
        assert not seed.is_valid(RECT_DF)
        ratios = DimensionFunction({1: Fraction(2, 5), 2: Fraction(3, 5)})
        for build in (lambda: build_generator_finite([seed], word, RECT_DF,
                                                     "C"),
                      lambda: build_generator_limit([seed], word, ratios,
                                                    "complex"),
                      lambda: reachable_basis(seed, word, RECT_DF,
                                              "complex")):
            with pytest.raises(ValueError, match="invalid"):
                build()

    def test_closure_of_a_valid_seed_stays_valid(self):
        # the invariant that lets compose skip re-validating its operands
        rng = random.Random(20)
        for _ in range(150):
            k = rng.randint(1, 4)
            seed = random_valid_diagram(rng, k, RECT_DF)
            word = Word(WordLetter(rng.choice((1, 1, 1, 2)),
                                   rng.random() < 0.5) for _ in range(k))
            field = rng.choice("RCH")
            basis = build_generator_finite([seed], word, RECT_DF,
                                           field).basis
            assert all(b.is_valid(RECT_DF) for b in basis)


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def partition_count(k, most=None):
    """Partitions of k into parts of at most `most`."""
    most = k if most is None else most
    if k == 0:
        return 1
    return sum(partition_count(k - m, m) for m in range(1, min(k, most) + 1))


def cycle_type(b):
    return tuple(sorted(len(blk) // 2
                        for blk in cycle_partition(b.pairing).blocks))


# (field, word, block dimension) with n read off the word
ONE_PASS_CASES = [
    ("R", [(1, 1, False)] * 4, 3),
    ("R", [(1, 2, False), (2, 1, False), (1, 1, False), (1, 1, False)], 2),
    ("C", [(1, 2, False), (2, 1, True), (1, 1, False), (1, 2, True),
           (2, 1, False)], 2),
    ("H", [(1, 2, False), (2, 1, False)] * 2, 2),
    ("H", [(1, 1, False), (1, 1, True)] + [(1, 1, False)] * 3, 2),
]


class TestOnePass:
    @pytest.mark.parametrize("field,tokens,d", ONE_PASS_CASES)
    def test_finite_generator_equals_public_builders(self, field, tokens,
                                                     d):
        seed, word = encode_word(tokens)
        df = square_df(max(max(i, j) for i, j, _ in tokens), d)
        fclass = "complex" if field == "C" else "real"
        gen = build_generator_finite([seed], word, df, field)
        basis = reachable_basis(seed, word, df, fclass)
        full = build_generator_finite(basis, word, df, field)
        assert full.basis == basis
        held = assert_lumped(gen, [seed], (basis, full.rows), word, df,
                             class_bases(df, field == "H"))
        assert held == {slot_orbits(word)(b) for b in basis}

    def test_weights_and_word_length(self):
        seed, word = c2_seed()
        df = square_df(1, 3)
        basis = reachable_basis(seed, word, df, "complex")
        wts = {1: Fraction(2)}
        assert build_generator_finite([seed], word, df, "C", wts).rows == \
            build_generator_finite(basis, word, df, "C", wts).rows
        with pytest.raises(ValueError):
            build_generator_limit([identity_diagram(2, [1, 1])],
                                  plain_word(1), square_ratios(1))

    def test_limit_closure_is_catalan(self):
        # u11^k admits taus only: all k! permutations are reachable,
        # the creating taus close on the Catalan(k) non-crossing ones,
        # and slot permutations lump those by cycle type, one state per
        # partition of k
        ratios = square_ratios(1)
        for k in range(1, 13):
            seed, word = encode_word([(1, 1, False)] * k)
            gen = build_generator_limit([seed], word, ratios, "complex")
            assert len(gen.rows) == partition_count(k)
            assert len({cycle_type(b) for b in gen.basis}) == len(gen.rows)
            assert gen.basis[0] == seed
            if k <= 6:
                ref = composed_closure(
                    [seed], word, ratios, "complex", Fraction(-1, 2),
                    Fraction(1), False, creating_only=True)
                assert len(ref[0]) == catalan(k)
                assert_lumped(gen, [seed], ref, word, ratios,
                              class_bases(ratios))

    def test_limit_rows_are_public_rows_on_the_closure(self):
        for tokens, n in (([(1, 1, False)] * 5, 1),
                          ([(1, 2, False), (2, 1, False), (1, 1, True),
                            (1, 1, True)], 2)):
            seed, word = encode_word(tokens)
            ratios = square_ratios(n)
            small = build_generator_limit([seed], word, ratios, "complex")
            full = build_generator_limit(
                reachable_basis(seed, word, ratios, "complex"), word,
                ratios, "complex")
            assert_lumped(small, [seed], (full.basis, full.rows), word,
                          ratios, class_bases(ratios))


class TestDrifts:
    def test_single_letter_rates(self):
        b = identity_diagram(1, [1])
        w = plain_word(1)
        for df in (DimensionFunction([5]), DimensionFunction([2, 3])):
            n = total_dim(df)
            for field, want in (
                    ("C", Fraction(-1, 2)),
                    ("R", Fraction(-(n - 1), 2 * n)),
                    ("H", Fraction(-(2 * n + 1), 4 * n))):
                basis = [identity_diagram(1, [1])]
                gen = build_generator_finite(basis, w, df, field)
                assert len(gen.rows) == 1
                assert gen.rows[0].get(0, 0) == want
        assert casimir_drift("C", 7) == Fraction(-1, 2)

    def test_limit_rate(self):
        basis = [identity_diagram(1, [1])]
        gen = build_generator_limit(basis, plain_word(1), square_ratios(1))
        assert gen.rows[0].get(0, 0) == Fraction(-1, 2)

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            casimir_drift("Q", 3)


class TestFiniteAgainstTensorOperator:
    # E[(x)_l U_t^(l)] = exp(t G_tensor); every diagram statistic read from
    # it must match the diagram-side semigroup.

    def check(self, seed, word, df, field, t=0.7):
        n = total_dim(df)
        basis = reachable_basis(seed, word, df,
                                "complex" if field == "C" else "real")
        gen = build_generator_finite(basis, word, df, field)
        pred = moment_prediction(gen, t)
        e_t = expm(t * tensor_generator(word, n, field))
        for i, b in enumerate(basis):
            assert np.isclose(pred[i], oracle_value(b, df, e_t), atol=1e-8), \
                (field, df.dims, i)

    def test_casimir_normalization(self):
        for field in ("R", "C"):
            for n in (2, 3, 4):
                cas = sum(a @ a for a in lie_basis(field, n)) / 2.0
                want = float(casimir_drift(field, n)) * np.eye(n)
                assert np.allclose(cas, want)

    @pytest.mark.parametrize("field", ["R", "C"])
    def test_square_one_colour(self, field):
        seed, word = c2_seed()
        self.check(seed, word, square_df(1, 3), field)

    @pytest.mark.parametrize("field", ["R", "C"])
    def test_square_two_colours(self, field):
        seed, word = encode_word([(1, 2, False), (2, 1, False)])
        self.check(seed, word, square_df(2, 2), field)

    def test_barred_word_complex(self):
        seed, word = encode_word([(1, 1, True), (1, 1, False)])
        self.check(seed, word, square_df(1, 3), "C")

    def test_barred_word_rectangular(self):
        seed, word = encode_word([(1, 2, False), (1, 2, True)])
        self.check(seed, word, DimensionFunction([2, 1]), "C")

    @pytest.mark.parametrize("field", ["R", "C"])
    def test_rectangular_real_word(self, field):
        seed, word = encode_word([(1, 2, False), (2, 1, False)])
        self.check(seed, word, DimensionFunction([2, 1]), field)

    def test_three_slots(self):
        seed, word = encode_word(
            [(1, 2, False), (2, 2, False), (2, 1, False)])
        self.check(seed, word, square_df(2, 2), "C", t=0.4)

    def test_two_independent_letters(self):
        seed, word = encode_word([(1, 1, False), (1, 1, False)],
                                 letters=[1, 2])
        self.check(seed, word, square_df(1, 3), "C")

    def test_weights_scale_time(self):
        # doubling a letter's weight doubles its contribution to the rows
        seed, word = c2_seed()
        df = square_df(1, 3)
        basis = reachable_basis(seed, word, df, "complex")
        g1 = build_generator_finite(basis, word, df, "C")
        g2 = build_generator_finite(basis, word, df, "C",
                                    weights={1: Fraction(2)})
        for i in range(len(g1.rows)):
            for j in range(len(g1.rows)):
                assert g2.rows[i].get(j, 0) == 2 * g1.rows[i].get(j, 0)


class TestQuaternionEntries:
    def test_square_rows(self):
        # single colour of dimension d: the move to the identity keeps the
        # entry -1 for both R and H, while non-creating entries differ
        seed, word = c2_seed()
        for d in (2, 5):
            df = square_df(1, d)
            basis = reachable_basis(seed, word, df, "real")
            gr = build_generator_finite(basis, word, df, "R")
            gh = build_generator_finite(basis, word, df, "H")
            i = gr.basis.index(seed)
            j = gr.basis.index(identity_diagram(2, [1, 1]))
            assert gr.rows[i].get(j, 0) == -1
            assert gh.rows[i].get(j, 0) == -1
            e_diag = next(b for b in basis
                          if b not in (seed, identity_diagram(2, [1, 1])))
            je = gr.basis.index(e_diag)
            assert gr.rows[i].get(je, 0) == Fraction(1, d)
            assert gh.rows[i].get(je, 0) == Fraction(-1, 2 * d)


class TestLimitGenerator:
    def test_square_rows_k2(self):
        seed, word = c2_seed()
        ratios = square_ratios(1)
        basis = reachable_basis(seed, word, ratios, "real")
        gen = build_generator_limit(basis, word, ratios)
        ident = identity_diagram(2, [1, 1])
        e_diag = next(b for b in basis if b not in (seed, ident))
        i, j, je = (gen.basis.index(b) for b in (seed, ident, e_diag))
        assert gen.rows[i].get(i, 0) == -1 and gen.rows[i].get(j, 0) == -1
        assert gen.rows[i].get(je, 0) == 0
        assert gen.rows[j].get(j, 0) == -1 and gen.rows[j].get(i, 0) == 0
        # the projection feeds itself a loop: +1 against drift -1
        assert gen.rows[je].get(je, 0) == 0

    def test_square_entries_are_inverse_block_counts(self):
        # with equal ratios 1/n every creating entry is +-(1/n)^(power)
        seed, word = encode_word([(1, 2, False), (2, 1, False)])
        ratios = square_ratios(2)
        basis = reachable_basis(seed, word, ratios, "complex")
        gen = build_generator_limit(basis, word, ratios, "complex")
        seen = set()
        for i in range(len(gen.rows)):
            for j, v in gen.rows[i].items():
                if i != j and v:
                    assert abs(v).denominator in (1, 2, 4)
                    seen.add(v)
        assert Fraction(-1, 2) in seen

    def test_creating_exponent_homogeneity(self):
        # a move survives the limit iff its total dimension exponent is 1
        rng = random.Random(20)
        for df in (square_df(1), square_df(2), DimensionFunction([2, 1])):
            for _ in range(20):
                k = rng.randrange(2, 5)
                b = random_valid_diagram(rng, k, df)
                w = plain_word(k)
                for _, r, kind in admissible_moves(b, w, df, "real"):
                    out = compose(r, b, df)
                    total = sum(
                        out.loops.get(cls, 0)
                        + fnc(out.diagram, df, cls) - fnc(b, df, cls)
                        for cls in df.classes())
                    from mfe.reference import creates_cycle
                    if creates_cycle(r.pairing, b.pairing):
                        assert total == 1
                    else:
                        assert total <= 0

    def test_finite_entries_converge_at_rate_one_over_d(self):
        seed, word = c2_seed()
        ratios = square_ratios(1)
        basis = reachable_basis(seed, word, ratios, "real")
        glim = build_generator_limit(basis, word, ratios)
        last = None
        for d in (10, 100, 1000):
            df = square_df(1, d)
            err = Fraction(0)
            for field in ("R", "H"):
                gfin = build_generator_finite(basis, word, df, field)
                for i in range(len(glim.rows)):
                    for j in range(len(glim.rows)):
                        err = max(err, abs(gfin.rows[i].get(j, 0)
                                           - glim.rows[i].get(j, 0)))
            assert err <= Fraction(4, d)
            if last is not None:
                assert err < last
            last = err

    @pytest.mark.parametrize("weights", [None, {1: Fraction(3, 2),
                                                2: Fraction(1, 3)}],
                             ids=["plain", "weighted"])
    @pytest.mark.parametrize("ratios", ["1/4,3/4", "1/4,1/4,1/2"])
    def test_same_generator_over_every_field(self, ratios, weights):
        # on a seed compatible with its word, the complex filter admits
        # exactly the creating moves that the real one does, so the limit
        # generator does not depend on the field: moment_of_word (complex)
        # and mfe.opvalued (real) solve one generator
        ratios = DimensionFunction([Fraction(r) for r in ratios.split(",")])
        rng = random.Random(28)
        cases = []
        for _ in range(30):
            # a word whose blocks chain: letter l maps colour c[l] to
            # c[l - 1], read as the block (i, j) or the adjoint of (j, i)
            k = rng.randint(3, 6)
            c = [rng.randint(1, ratios.n) for _ in range(k)]
            tokens = [(j, i, True) if rng.random() < 0.4 else (i, j, False)
                      for i, j in zip(c[-1:] + c[:-1], c)]
            cases.append(encode_word(
                tokens, [rng.randint(1, 2) for _ in range(k)]))
        while len(cases) < 60:
            k = rng.randint(3, 5)
            eps = [rng.random() < 0.5 for _ in range(k)]
            seed = seed_diagram(rng.choice(enumerate_nc(k)),
                                [rng.randint(1, ratios.n)
                                 for _ in range(k + 1)], eps)
            if seed.is_valid(ratios):
                cases.append((seed, Word(WordLetter(rng.randint(1, 2), bar)
                                         for bar in eps)))
        for seed, word in cases:
            assert is_compatible(seed, word)
            real = build_generator_limit([seed], word, ratios, "real",
                                         weights)
            assert real == build_generator_limit([seed], word, ratios,
                                                 "complex", weights)

    def test_zero_ratio_rejected(self):
        with pytest.raises((ValueError, ZeroDivisionError)):
            build_generator_limit(
                [identity_diagram(1, [1])], plain_word(1),
                DimensionFunction({1: Fraction(0)}))


class TestFreeProcess:
    def test_diagonal_generator(self):
        for n in (1, 2, 3):
            assert generator_free_process([(1, 1, False)], n) == \
                Fraction(-1, 2)
            assert generator_free_process([(n, n, True)], n) == \
                Fraction(-1, 2)

    def test_off_diagonal_vanishes(self):
        assert generator_free_process([(1, 2, False)], 2) == 0
        assert generator_free_process([(2, 1, True)], 3) == 0

    def test_square_of_generator(self):
        assert generator_free_process(
            [(1, 1, False), (1, 1, False)], 1) == -2

    def test_mixed_cycle(self):
        assert generator_free_process(
            [(1, 2, False), (2, 1, False)], 2) == Fraction(-1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generator_free_process([], 1)

    def test_unitarity_sums_are_constant(self):
        # sum_r u*_ri u_rj and sum_r u_ir u*_jr are delta_ij, so the
        # generator must vanish on them
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert sum(generator_free_process(
                        [(r, i, True), (r, j, False)], n)
                        for r in range(1, n + 1)) == 0
                    assert sum(generator_free_process(
                        [(i, r, False), (j, r, True)], n)
                        for r in range(1, n + 1)) == 0


class TestSchurmann:
    def test_eta_on_generators(self):
        e = schurmann_eta([(1, 2, False)], 2)
        assert e[0][1] == 1 and sum(map(abs, e[0] + e[1])) == 1
        es = schurmann_eta([(1, 2, True)], 2)
        assert es[1][0] == -1

    def test_eta_cocycle_on_product(self):
        # eta(u11 u12) = eta(u11) eps(u12) + eps(u11) eta(u12) = E12
        e = schurmann_eta([(1, 1, False), (1, 2, False)], 2)
        assert e[0][1] == 1 and e[0][0] == 0

    def test_L_on_generators(self):
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    want = Fraction(-1, 2) if i == j else 0
                    assert schurmann_L([(i, j, False)], n) == want
                    assert schurmann_L([(i, j, True)], n) == want

    def test_unitarity_relations_killed(self):
        # L vanishes on sum_r u*_ri u_rj - delta_ij
        for n in (1, 2, 3):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    total = sum(
                        schurmann_L([(r, i, True), (r, j, False)], n)
                        for r in range(1, n + 1))
                    assert total == 0

    def test_square_word(self):
        assert schurmann_L([(1, 1, False), (1, 1, False)], 1) == -2

    def test_matches_diagram_generator_on_random_words(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randrange(1, 4)
            k = rng.randrange(1, 5)
            tokens = [(rng.randrange(1, n + 1), rng.randrange(1, n + 1),
                       rng.random() < 0.5) for _ in range(k)]
            assert schurmann_L(tokens, n) == \
                generator_free_process(tokens, n), (tokens, n)


def limit_row(b, word, ratios, fclass):
    row = {}
    for (si, _), r, kind in admissible_moves(
            b, word, ratios, fclass, creating_only=True):
        out = compose(r, b, ratios)
        sign = Fraction(-1 if kind == "tau" else 1)
        val = sign * _ratio_factor(b, out, ratios, False)
        key = out.diagram
        row[key] = row.get(key, Fraction(0)) + val
    return row


class TestCompatiblePairs:
    def test_word_count_is_two_per_cycle(self):
        rng = random.Random(22)
        for _ in range(10):
            k = rng.randrange(1, 5)
            b = random_valid_diagram(rng, k, square_df(1))
            words = compatible_words(b)
            assert len(words) == 2 ** nc(b.pairing)
            assert len(set(words)) == len(words)
            for w in words:
                assert is_compatible(b, w)

    def test_incompatible_detected(self):
        b, _ = c2_seed()  # single cycle through both slots
        w = Word([WordLetter(1), WordLetter(1, bar=True)])
        # the 2-cycle's canonical signs are (+, +): one bar breaks it
        assert not is_compatible(b, w)

    def test_complex_row_equals_real_row_on_compatible_pairs(self):
        # on a compatible pair the bar filters select exactly the creating
        # moves, so the letter-blind generator row is reproduced
        rng = random.Random(23)
        ratios = DimensionFunction({1: Fraction(1, 2)})
        for _ in range(25):
            k = rng.randrange(1, 5)
            b = random_valid_diagram(rng, k, ratios)
            plain = plain_word(k)
            real_row = limit_row(b, plain, ratios, "real")
            for w in compatible_words(b):
                assert limit_row(b, w, ratios, "complex") == real_row
                for target in real_row:
                    assert is_compatible(target, w)


# ---------------------------------------------------------------------------
# the sweep's local moves against the composed closure
# ---------------------------------------------------------------------------

def composed_closure(seeds, word, df, fclass, drift, scale, quat,
                     creating_only=False, weights=None, join=None,
                     kinds=None):
    """Reference closure and rows: breadth-first over admissible_moves,
    each move composed with its elementary diagram and weighted by
    _ratio_factor, in the sweep's discovery order.  kinds collects the
    sorts of move met on the way."""
    def weight(letter):
        return Fraction(1) if weights is None else \
            Fraction(weights[letter.letter])

    states = list(seeds)
    index = {s: n for n, s in enumerate(states)}
    diag = drift * sum(weight(l) for l in word.letters)
    rows = []
    while len(rows) < len(states):
        b = states[len(rows)] if join is None else states[len(rows)][0]
        row = {len(rows): diag}
        for (i, j), r, kind in admissible_moves(b, word, df, fclass,
                                                creating_only):
            out = compose(r, b, df)
            if kinds is not None:
                ci, cj = b.colour(b.k + i), b.colour(b.k + j)
                if kind == "e":
                    kinds.add("e loop" if out.loops else "e merge")
                elif b.pairing.match(b.k + i) == b.k + j:
                    kinds.add("tau on a paired i', j'")
                else:
                    kinds.add("tau rewire")
                if kind == "tau" and ci != cj and \
                        df.class_of(ci) == df.class_of(cj):
                    kinds.add("tau swap within a class")
            nxt = out.diagram if join is None else \
                (out.diagram, join(states[len(rows)][1], i, j))
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            val = scale * weight(word[i - 1]) * _ratio_factor(b, out, df,
                                                              quat)
            col = index[nxt]
            row[col] = row.get(col, 0) + (-val if kind == "tau" else val)
        rows.append(row)
    return states, rows


def slot_orbits(word):
    """Orbit of a diagram under the slot permutations that keep each
    slot's letter and bar, by brute force over all permutations: a
    frozenset of diagrams, computed once per orbit."""
    k = len(word)
    perms = [p for p in itertools.permutations(range(k))
             if all(word[s] == word[p[s]] for s in range(k))]
    known = {}

    def conjugate(b, p):
        def move(x):
            return p[x - 1] + 1 if x <= k else k + p[x - k - 1] + 1
        cols = [0] * (2 * k)
        for x in range(1, 2 * k + 1):
            cols[move(x) - 1] = b.colour(x)
        return ColouredBrauerDiagram(
            Pairing(k, [(move(x), move(y)) for x, y in b.pairing.pairs]),
            cols)

    def orbit(b):
        if b not in known:
            members = frozenset(conjugate(b, p) for p in perms)
            known.update(dict.fromkeys(members, members))
        return known[b]
    return orbit


def class_bases(df, quat=False):
    return [(cls, -2 * df.value(cls) if quat else df.value(cls))
            for cls in df.classes()]


def assert_lumped(gen, given, ref, word, df, bases, seen=None):
    """gen is the lumped generator of the given states and ref = (states,
    rows) an unlumped reference holding them.  Checks that gen keeps
    each given state as its own state first and holds every other orbit
    once, by its first member met; then, for every reference diagram x
    whose orbit gen holds, that x's reference row summed by the state
    each target lands on (itself if given, else its orbit's), each
    target weighted by f_y / f_state = prod base^(fnc(state) - fnc(y)),
    is f_x / f_state times the row of x's state.  Conjugate diagrams
    share one trace, so that ratio is all that tells their statistics
    apart.  seen collects "lumped" when an orbit has several reference
    members and "rescaled" when a weight is not 1.  Returns the orbits
    gen holds."""
    orbit = slot_orbits(word)
    assert gen.basis[:len(given)] == list(given)
    held = {}
    for j, b in enumerate(gen.basis):
        if j >= len(given):
            assert orbit(b) not in held
        held.setdefault(orbit(b), j)
    own = {b: j for j, b in enumerate(given)}
    weights = {}

    def land(y):
        j = own[y] if y in own else held[orbit(y)]
        if (y, j) not in weights:
            w = Fraction(1)
            for cls, base in bases:
                w *= Fraction(base) ** (fnc(gen.basis[j], df, cls)
                                        - fnc(y, df, cls))
            weights[y, j] = w
        return j, weights[y, j]

    states, rows = ref
    for x, row in zip(states, rows):
        if orbit(x) not in held:
            continue
        i, wx = land(x)
        want = {}
        for y, v in row.items():
            j, w = land(states[y])
            want[j] = want.get(j, 0) + v * w
        got = {j: wx * v for j, v in gen.rows[i].items()}
        assert {j: v for j, v in want.items() if v} == \
            {j: v for j, v in got.items() if v}
    if seen is not None:
        if len({orbit(x) for x in states}) < len(set(states)):
            seen.add("lumped")
        if any(w != 1 for w in weights.values()):
            seen.add("rescaled")
    return set(held)


def random_word(rng, k):
    return Word(WordLetter(1 if rng.random() < 0.8 else 2,
                           rng.random() < 0.3) for _ in range(k))


def assert_same_closure(got, want):
    """Equal states in the same order, and equal rows in the same order."""
    assert got[0] == want[0]
    assert [list(r.items()) for r in got[1]] == \
        [list(r.items()) for r in want[1]]


SHARED_CLASS_DF = DimensionFunction({1: 2, 2: 2, 3: 1})


class TestLocalMoves:
    @pytest.mark.parametrize("df", [square_df(1, 3), square_df(2, 2),
                                    DimensionFunction([2, 6]),
                                    SHARED_CLASS_DF],
                             ids=["1x3", "2x2", "2-6", "shared-class"])
    def test_finite_equals_composed_closure(self, df):
        rng = random.Random(31)
        total = sum(int(v) for v in df.dims.values())
        kinds, seen = set(), set()
        for case in range(40):
            k = rng.randint(2, 6 - df.n)
            seed = random_valid_diagram(rng, k, df)
            word = random_word(rng, k)
            field = "RCH"[case % 3]
            weights = {1: Fraction(3, 2), 2: Fraction(1, 3)} \
                if case % 4 == 0 else None
            quat = field == "H"
            fclass = "complex" if field == "C" else "real"
            ref = composed_closure(
                [seed], word, df, fclass, casimir_drift(field, total),
                Fraction(1, -2 * total if quat else total), quat,
                weights=weights, kinds=kinds)
            # unlumped: the sweep's own closure, and its rows with every
            # state given
            assert reachable_basis(seed, word, df, fclass) == ref[0]
            full = build_generator_finite(ref[0], word, df, field, weights)
            assert_same_closure((full.basis, full.rows), ref)
            gen = build_generator_finite([seed], word, df, field, weights)
            held = assert_lumped(gen, [seed], ref, word, df,
                                 class_bases(df, quat), seen)
            assert held == {slot_orbits(word)(b) for b in ref[0]}
        assert kinds >= {"tau on a paired i', j'", "tau rewire", "e loop",
                         "e merge"}
        if df is SHARED_CLASS_DF:
            assert "tau swap within a class" in kinds
        assert "lumped" in seen
        # a cycle through blocks of two dimension classes counts for the
        # class at its least slot, which a slot permutation can change;
        # with one class conjugate diagrams have equal fnc
        if len(df.classes()) == 1:
            assert "rescaled" not in seen
        elif df is not SHARED_CLASS_DF:
            assert "rescaled" in seen

    @pytest.mark.parametrize("fclass", ["real", "complex"])
    def test_limit_equals_composed_closure(self, fclass):
        rng = random.Random(32)
        ratios = DimensionFunction({1: Fraction(1, 4), 2: Fraction(3, 4)})
        kinds, seen = set(), set()
        for case in range(40):
            k = rng.randint(2, 5)
            seed = random_valid_diagram(rng, k, ratios)
            word = random_word(rng, k)
            weights = {1: Fraction(2), 2: Fraction(1, 5)} \
                if case % 2 else None
            ref = composed_closure(
                [seed], word, ratios, fclass, Fraction(-1, 2), Fraction(1),
                False, creating_only=True, weights=weights, kinds=kinds)
            # unlumped: the sweep's rows with every state given
            full = build_generator_limit(ref[0], word, ratios, fclass,
                                         weights)
            assert_same_closure((full.basis, full.rows), ref)
            gen = build_generator_limit([seed], word, ratios, fclass, weights)
            held = assert_lumped(gen, [seed], ref, word, ratios,
                                 class_bases(ratios), seen)
            assert held == {slot_orbits(word)(b) for b in ref[0]}
        # tau on a paired i', j' leaves the pairing as it is: never creating
        assert kinds >= {"tau rewire", "e loop", "e merge"}
        assert seen == {"lumped", "rescaled"}

    def test_coefficient_walk_equals_composed_closure(self):
        rng = random.Random(33)
        ratios = DimensionFunction({1: Fraction(1, 4), 2: Fraction(3, 4)})
        for case in range(30):
            k = rng.randint(2, 5)
            seed = random_valid_diagram(rng, k, ratios)
            word = random_word(rng, k)
            weights = {1: Fraction(3), 2: Fraction(1, 2)} \
                if case % 2 else None
            # reference labels: partitions joined by partition_join,
            # then read as each slot's least block-mate
            states, rows = composed_closure(
                [(seed, SetPartition([(x,) for x in range(1, k + 1)]))],
                word, ratios, "real", Fraction(-1, 2), Fraction(1), False,
                creating_only=True, weights=weights,
                join=lambda part, i, j: partition_join(part, SetPartition(
                    [(i, j)] + [(x,) for x in part.ground
                                if x not in (i, j)])))
            assert_same_closure(
                _coefficient_walk(seed, word, ratios, weights),
                ([(b, tuple(min(blk) for x in range(1, k + 1)
                            for blk in part.blocks if x in blk))
                  for b, part in states], rows))


def random_encoded_word(rng, df, most):
    """An encoded word of at most `most` letters over df's colours, with
    stars and two letters, whose diagram is valid under df."""
    while True:
        k = rng.randint(1, most)
        tokens = [(rng.randint(1, df.n), rng.randint(1, df.n),
                   rng.random() < 0.3) for _ in range(k)]
        seed, word = encode_word(
            tokens, [1 if rng.random() < 0.7 else 2 for _ in range(k)])
        if seed.is_valid(df):
            return seed, word


def seed_moment(gen):
    return solve_semigroup_row(gen.rows, 0,
                               [delta_diag(b) for b in gen.basis])


class TestLumping:
    # the builders lump by the slot permutations that fix the word; the
    # same builders given the whole closure keep every diagram, and are
    # tied to the composed closure by TestLocalMoves
    @pytest.mark.parametrize("df", [square_df(1, 3), square_df(2, 2),
                                    DimensionFunction([2, 6]),
                                    SHARED_CLASS_DF],
                             ids=["1x3", "2x2", "2-6", "shared-class"])
    def test_orbit_sums_and_moments(self, df):
        rng = random.Random(34)
        total = sum(df.dims.values())
        ratios = DimensionFunction({c: v / total for c, v in df.dims.items()})
        seen = set()
        for case in range(24):
            seed, word = random_encoded_word(rng, df, 7 - df.n)
            field = "RCH"[case % 3]
            fclass = "complex" if field == "C" else "real"
            weights = {1: Fraction(3, 2), 2: Fraction(1, 3)} \
                if case % 4 == 0 else None
            basis = reachable_basis(seed, word, df, fclass)
            full = build_generator_finite(basis, word, df, field, weights)
            gen = build_generator_finite([seed], word, df, field, weights)
            assert_lumped(gen, [seed], (basis, full.rows), word, df,
                          class_bases(df, field == "H"), seen)
            assert seed_moment(gen) == seed_moment(full)
            basis = reachable_basis(seed, word, ratios, fclass)
            full = build_generator_limit(basis, word, ratios, fclass, weights)
            gen = build_generator_limit([seed], word, ratios, fclass, weights)
            assert_lumped(gen, [seed], (basis, full.rows), word, ratios,
                          class_bases(ratios), seen)
            assert seed_moment(gen) == seed_moment(full)
        assert "lumped" in seen

    def test_conjugate_statistics_differ_by_fnc(self):
        # u12 u21 and its slot swap share one trace, but the 2-cycle
        # counts for the class at its least slot: dimension 2 in the
        # seed, 6 in the swap, so the swap's statistic is a third of it
        seed, word = encode_word([(1, 2, False), (2, 1, False)])
        mate = ColouredBrauerDiagram(Pairing(2, [(1, 4), (2, 3)]),
                                     (2, 1, 1, 2))
        assert slot_orbits(word)(mate) == slot_orbits(word)(seed)
        df = DimensionFunction([2, 6])
        for field in "RCH":
            fclass = "complex" if field == "C" else "real"
            basis = reachable_basis(seed, word, df, fclass)
            basis += [b for b in reachable_basis(mate, word, df, fclass)
                      if b not in basis]
            full = build_generator_finite(basis, word, df, field)
            want = seed_moment(full)
            assert want != 0
            dvec = [delta_diag(b) for b in basis]
            assert solve_semigroup_row(
                full.rows, full.basis.index(mate), dvec) == \
                want * Fraction(1, 3)


@seed(27)
@given(st.integers(1, 4), st.lists(st.integers(1, 2), min_size=4, max_size=4),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_orbit_keys_are_kind_preserving_slot_orbits(k, letters, rng):
    """Two states have equal orbit keys exactly when a slot permutation
    that keeps each slot's letter maps one onto the other, by brute force
    over all slot permutations.  Candidates: every slot permutation of a
    diagram on two colours, with any of its slots twisted and with its
    colours exchanged, and an independent diagram."""
    word = Word(WordLetter(letter) for letter in letters[:k])
    kinds = [letter - 1 for letter in letters[:k]]
    b, other = (random_valid_diagram(rng, k, square_df(2)) for _ in range(2))

    def key(d):
        flat = tuple(d.pairing.match(x) - 1 for x in range(1, 2 * k + 1)) \
            + d.colours
        return _orbit_key(flat, cycle_walk(flat, k), k, kinds, 3)
    orbit = slot_orbits(word)(b)
    assert {key(d) for d in orbit} == {key(b)}
    candidates = [other]
    for moved in slot_orbits(plain_word(k))(b):
        for flips in itertools.product((False, True), repeat=k):
            d = moved
            for i in range(1, k + 1):
                d = twist(d, i) if flips[i - 1] else d
            candidates += [d, ColouredBrauerDiagram(
                d.pairing, [3 - c for c in d.colours])]
    for d in candidates:
        assert (key(d) == key(b)) == (d in orbit)
