import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from mfe.brauer import (
    ColouredBrauerDiagram,
    DimensionFunction,
    Orientation,
    Pairing,
    Zero,
    all_nonmixing_elementaries,
    canonical_orientation,
    compose,
    creates_cycle,
    creates_cycle_sign,
    cycle_partition,
    diamond,
    elementary_sets,
    encode_word,
    fnc,
    format_diagram,
    identity_diagram,
    join_count,
    stack_components,
    matching_es,
    matching_tau,
    nc,
    oriented_cycles,
    parse_diagram,
    sigma_of,
    square_df,
    transpose_diagram,
    twist,
    WordLetter,
)
from mfe.generators import _ratio_factor
from mfe.ncpart import Permutation, SetPartition, partition_join


def random_pairing(rng, k):
    pts = list(range(1, 2 * k + 1))
    rng.shuffle(pts)
    return Pairing(k, [(pts[2 * i], pts[2 * i + 1]) for i in range(k)])


def random_coloured(rng, k, n, df):
    """Random valid coloured diagram (colours constant on pairs of a class)."""
    p = random_pairing(rng, k)
    cols = [0] * (2 * k)
    for x, y in p.pairs:
        # same dimension class on both legs; with square df any pair works
        c = rng.randrange(1, n + 1)
        c2 = rng.choice([d for d in range(1, n + 1)
                         if df.value(d) == df.value(c)])
        cols[x - 1], cols[y - 1] = c, c2
    return ColouredBrauerDiagram(p, cols)


class TestPairing:
    def test_identity(self):
        p = Pairing.identity(3)
        assert p.match(1) == 4 and p.match(5) == 2

    def test_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            Pairing(1, [(1, 1), (2, 2)])

    def test_coverage_rejected(self):
        with pytest.raises(ValueError):
            Pairing(2, [(1, 2), (1, 3)])

    def test_tau_e(self):
        t = Pairing.tau(3, 1, 3)
        assert t.match(1) == 6 and t.match(3) == 4 and t.match(2) == 5
        e = Pairing.e(3, 1, 3)
        assert e.match(1) == 3 and e.match(4) == 6

    def test_from_permutation(self):
        sigma = Permutation.from_cycles(3, [[1, 2, 3]])
        p = Pairing.from_permutation(sigma)
        assert p.match(1) == 3 + 2

    def test_cycle_partition_counts(self):
        assert nc(Pairing.identity(3)) == 3
        assert nc(Pairing.tau(2, 1, 2)) == 1
        assert nc(Pairing.e(2, 1, 2)) == 1


class TestLiterals:
    def test_roundtrip_examples(self):
        for text in [
            "(1,1')@1",
            "(1,2')@1 (2,1')@2",
            "(1,2)@1 (1',2')@2",
            "(1,2')@1:2 (2,1')@2:1",
        ]:
            assert format_diagram(parse_diagram(text)) == text

    def test_roundtrip_random(self):
        rng = random.Random(11)
        df = square_df(3)
        for _ in range(25):
            b = random_coloured(rng, rng.randrange(1, 5), 3, df)
            assert parse_diagram(format_diagram(b)) == b

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_diagram("1,2@1")


class TestValidity:
    def test_mixed_pair_needs_equal_dims(self):
        b = parse_diagram("(1,1')@1:2")
        assert b.is_valid(square_df(2))
        assert not b.is_valid(DimensionFunction([2, 3]))

    def test_nonmixing_always_valid(self):
        b = parse_diagram("(1,2)@1 (1',2')@2")
        assert b.is_valid(DimensionFunction([2, 5]))


class TestCompose:
    def test_identity_neutral(self):
        rng = random.Random(5)
        df = square_df(2)
        for _ in range(20):
            b = random_coloured(rng, 3, 2, df)
            ident = identity_diagram(3, [b.colour(3 + l) for l in range(1, 4)])
            left = compose(ident, b, df)
            assert left.diagram == b and not left.loops
            ident2 = identity_diagram(3, [b.colour(l) for l in range(1, 4)])
            right = compose(b, ident2, df)
            assert right.diagram == b and not right.loops

    def test_colour_clash_vanishes(self):
        df = square_df(2)
        a = parse_diagram("(1,1')@1")
        b = parse_diagram("(1,1')@2")
        assert compose(a, b, df) is Zero

    def test_e_squared_makes_loop(self):
        df = square_df(1)
        e = parse_diagram("(1,2)@1 (1',2')@1")
        out = compose(e, e, df)
        assert out.diagram == e
        assert out.loops == {1: 1}

    def test_tau_squared_is_identity(self):
        df = square_df(1)
        t = parse_diagram("(1,2')@1 (2,1')@1")
        out = compose(t, t, df)
        assert out.diagram == identity_diagram(2, [1, 1])
        assert out.loops == {}

    def test_loop_class_keying(self):
        # loop picks up the dimension class of the colours it traverses
        df = DimensionFunction([2, 3, 2])
        e = parse_diagram("(1,2)@3 (1',2')@1")
        e2 = parse_diagram("(1,2)@1 (1',2')@3")
        out = compose(e2, e, df)
        assert out.loops == {df.class_of(3): 1}
        assert df.class_of(3) == 1

    def test_glue_recolours_top(self):
        df = square_df(2)
        b = parse_diagram("(1,2)@1 (1',2')@1")
        e_up = parse_diagram("(1,2)@1 (1',2')@2")
        out = compose(e_up, b, df)
        assert out.diagram == parse_diagram("(1,2)@1 (1',2')@2")
        assert out.loops == {1: 1}

    def test_fundamental_loop_count(self):
        # loops removed = stacked component count - nc(b1 o b2 v 1)
        rng = random.Random(23)
        df = square_df(1)
        for _ in range(60):
            k = rng.randrange(1, 6)
            p1, p2 = random_pairing(rng, k), random_pairing(rng, k)
            b1 = ColouredBrauerDiagram(p1, [1] * (2 * k))
            b2 = ColouredBrauerDiagram(p2, [1] * (2 * k))
            out = compose(b1, b2, df)
            removed = sum(out.loops.values())
            assert stack_components(p1, p2) == nc(out.diagram.pairing) + removed

    def test_associativity(self):
        rng = random.Random(31)
        df = square_df(2)
        for _ in range(40):
            k = rng.randrange(1, 5)
            a, b, c = (random_coloured(rng, k, 2, df) for _ in range(3))
            left = _compose3(a, b, c, df, left_first=True)
            right = _compose3(a, b, c, df, left_first=False)
            assert left == right

    def test_colour_relabel_equivariance(self):
        rng = random.Random(47)
        df = square_df(3)
        relabel = {1: 2, 2: 3, 3: 1}
        for _ in range(30):
            k = rng.randrange(1, 5)
            a, b = (random_coloured(rng, k, 3, df) for _ in range(2))

            def rl(d):
                return ColouredBrauerDiagram(
                    d.pairing, [relabel[c] for c in d.colours])

            out = compose(a, b, df)
            out2 = compose(rl(a), rl(b), df)
            if out is Zero:
                assert out2 is Zero
            else:
                assert out2.diagram == rl(out.diagram)
                assert sum(out2.loops.values()) == sum(out.loops.values())

    def test_project_loops(self):
        # the generator's loop factor specializes each loop to its
        # class dimension
        df = DimensionFunction([3])
        e = parse_diagram("(1,2)@1 (1',2')@1")
        out = compose(e, e, df)
        assert out.diagram == e
        assert _ratio_factor(e, out, df, False) == 3


def _compose3(a, b, c, df, left_first):
    if left_first:
        ab = compose(a, b, df)
        if ab is Zero:
            return Zero
        out = compose(ab.diagram, c, df)
        if out is Zero:
            return Zero
        loops = dict(ab.loops)
    else:
        bc = compose(b, c, df)
        if bc is Zero:
            return Zero
        out = compose(a, bc.diagram, df)
        if out is Zero:
            return Zero
        loops = dict(bc.loops)
    for cls, m in out.loops.items():
        loops[cls] = loops.get(cls, 0) + m
    return out.diagram, tuple(sorted(loops.items()))


class TestTwistTranspose:
    def test_twist_involution(self):
        rng = random.Random(3)
        for _ in range(20):
            k = rng.randrange(1, 5)
            p = random_pairing(rng, k)
            i = rng.randrange(1, k + 1)
            assert twist(twist(p, i), i) == p

    def test_twists_commute(self):
        rng = random.Random(9)
        for _ in range(20):
            p = random_pairing(rng, 4)
            assert twist(twist(p, 1), 3) == twist(twist(p, 3), 1)

    def test_twist_of_cycle_is_e(self):
        c2 = Pairing.from_permutation(Permutation.from_cycles(2, [[1, 2]]))
        assert twist(c2, 1) == Pairing.e(2, 1, 2)

    def test_twist_moves_colours(self):
        b = parse_diagram("(1,2')@1 (2,1')@2")
        tb = twist(b, 1)
        assert tb.pairing == Pairing.e(2, 1, 2)
        assert tb.colour(1) == 2 and tb.colour(3) == 1

    def test_transpose_involution(self):
        rng = random.Random(13)
        df = square_df(2)
        for _ in range(20):
            b = random_coloured(rng, 3, 2, df)
            assert transpose_diagram(transpose_diagram(b)) == b

    def test_transpose_antihomomorphism(self):
        rng = random.Random(17)
        df = square_df(2)
        for _ in range(40):
            k = rng.randrange(1, 5)
            a, b = (random_coloured(rng, k, 2, df) for _ in range(2))
            out = compose(a, b, df)
            out_t = compose(transpose_diagram(b), transpose_diagram(a), df)
            if out is Zero:
                assert out_t is Zero
            else:
                assert out_t.diagram == transpose_diagram(out.diagram)
                assert sum(out_t.loops.values()) == sum(out.loops.values())

    def test_transpose_is_all_twists_on_permutation_diagrams(self):
        sigma = Permutation.from_cycles(3, [[1, 2, 3]])
        p = Pairing.from_permutation(sigma)
        q = p
        for i in range(1, 4):
            q = twist(q, i)
        assert q == transpose_diagram(p)
        assert q == Pairing.from_permutation(sigma.inverse())


class TestOrientation:
    def test_identity_all_plus(self):
        s = canonical_orientation(Pairing.identity(3))
        assert s.signs == (1, 1, 1)
        assert sigma_of(Pairing.identity(3), s) == Permutation.identity(3)

    def test_tau_all_plus_cycle(self):
        p = Pairing.tau(2, 1, 2)
        s = canonical_orientation(p)
        assert s.signs == (1, 1)
        assert sigma_of(p, s) == Permutation.from_cycles(2, [[1, 2]])

    def test_e_mixed_signs(self):
        p = Pairing.e(2, 1, 2)
        s = canonical_orientation(p)
        assert s.signs == (1, -1)
        assert sigma_of(p, s) == Permutation.from_cycles(2, [[1, 2]])

    def test_permutation_diagram_recovers_sigma(self):
        for images in itertools.permutations(range(1, 5)):
            sigma = Permutation(images)
            p = Pairing.from_permutation(sigma)
            s = canonical_orientation(p)
            assert all(x == 1 for x in s.signs)
            assert sigma_of(p, s) == sigma

    def test_reversed_loop_is_valid(self):
        p = Pairing.tau(2, 1, 2)
        rev = Orientation((-1, -1))
        assert sigma_of(p, rev) == Permutation.from_cycles(2, [[1, 2]])

    def test_partial_flip_rejected(self):
        p = Pairing.tau(2, 1, 2)
        with pytest.raises(ValueError):
            oriented_cycles(p, Orientation((1, -1)))

    def test_reversal_inverts_cycles(self):
        p = Pairing.from_permutation(Permutation.from_cycles(3, [[1, 2, 3]]))
        rev = Orientation((-1, -1, -1))
        assert sigma_of(p, rev) == Permutation.from_cycles(3, [[1, 3, 2]])

    def test_every_point_signed_once(self):
        rng = random.Random(29)
        for _ in range(30):
            k = rng.randrange(1, 6)
            p = random_pairing(rng, k)
            s = canonical_orientation(p)
            assert len(s.signs) == k
            # loops of the orientation graph partition the bottom points
            cyc = [c for c, _ in oriented_cycles(p, s)]
            assert sorted(x for c in cyc for x in c) == list(range(1, k + 1))


class TestCreatesCycle:
    def test_tau_on_identity_merges(self):
        assert not creates_cycle(Pairing.tau(2, 1, 2), Pairing.identity(2))

    def test_tau_on_tau_creates(self):
        assert creates_cycle(Pairing.tau(2, 1, 2), Pairing.tau(2, 1, 2))

    def test_e_on_identity_merges(self):
        assert not creates_cycle(Pairing.e(2, 1, 2), Pairing.identity(2))

    def test_e_on_e_creates(self):
        assert creates_cycle(Pairing.e(2, 1, 2), Pairing.e(2, 1, 2))

    def test_sign_characterization_exhaustive(self):
        # same cycle: e creates iff signs differ, tau creates iff signs agree;
        # distinct cycles never create.
        rng = random.Random(41)
        for _ in range(80):
            k = rng.randrange(2, 6)
            b = random_pairing(rng, k)
            for i, j in itertools.combinations(range(1, k + 1), 2):
                for kind in ("tau", "e"):
                    r = (Pairing.tau if kind == "tau" else Pairing.e)(k, i, j)
                    assert creates_cycle(r, b) == creates_cycle_sign(
                        kind, i, j, b)

    def test_never_creates_across_cycles(self):
        b = Pairing.identity(3)
        for i, j in itertools.combinations(range(1, 4), 2):
            assert not creates_cycle(Pairing.tau(3, i, j), b)
            assert not creates_cycle(Pairing.e(3, i, j), b)


class TestDimensionClasses:
    def test_classes_follow_the_definition(self):
        # colours out of order, several dimensions repeated
        rng = random.Random(31)
        for trial in range(20):
            colours = rng.sample(range(1, 40), rng.randrange(1, 12))
            dims = {c: Fraction(rng.randrange(1, 4), rng.randrange(1, 3))
                    for c in colours}
            df = DimensionFunction(dims)
            for c in colours:
                assert df.class_of(c) == min(
                    x for x in colours if dims[x] == dims[c])
            assert df.classes() == sorted({df.class_of(c) for c in colours})

    def test_equality_and_hash_by_dims(self):
        a = DimensionFunction({3: 2, 1: 5, 2: 2})
        b = DimensionFunction({1: 5, 2: 2, 3: 2})
        assert a == b and hash(a) == hash(b)
        assert a.classes() == [1, 2]
        assert a != DimensionFunction({1: 5, 2: 2, 3: 3})

    def test_fnc_takes_class_representatives_only(self):
        df = DimensionFunction([2, 3, 2])
        b = identity_diagram(2, [1, 3])
        assert fnc(b, df, 1) == 2
        for cls in (3, 4):
            with pytest.raises(ValueError, match="unknown dimension class"):
                fnc(b, df, cls)


class TestFnc:
    def test_identity_counts_cycles(self):
        df = square_df(1)
        b = identity_diagram(3, [1, 1, 1])
        assert fnc(b, df, 1) == 3

    def test_square_df_single_class(self):
        # equal dimensions collapse to one class that counts every cycle
        df = square_df(2)
        b = identity_diagram(2, [1, 2])
        assert df.classes() == [1]
        assert fnc(b, df, 1) == 2

    def test_two_colour_split(self):
        df = DimensionFunction([2, 3])
        b = identity_diagram(2, [1, 2])
        assert fnc(b, df, 1) == 1 and fnc(b, df, 2) == 1

    def test_negative_sign_reads_top_colour(self):
        df = DimensionFunction([2, 3])
        b = parse_diagram("(1,2)@1 (1',2')@2")
        s = canonical_orientation(b.pairing)
        assert s.signs == (1, -1)
        # single cycle, min 1 has sign +1: counts for colour of point 1
        assert fnc((b, s), df, 1) == 1 and fnc((b, s), df, 2) == 0
        rev = Orientation((-1, 1))
        # reversed: min 1 has sign -1: counts for colour of point 1'
        assert fnc((b, rev), df, 1) == 0 and fnc((b, rev), df, 2) == 1

    def test_loops_add(self):
        df = square_df(1)
        e = parse_diagram("(1,2)@1 (1',2')@1")
        out = compose(e, e, df)
        s = canonical_orientation(out.diagram.pairing)
        ext = diamond(e, e, s, df)
        assert fnc(ext, df, 1) == 2  # one cycle plus one loop

    def test_unknown_class_rejected(self):
        df = square_df(1)
        with pytest.raises(ValueError):
            fnc(identity_diagram(1, [1]), df, 7)


class TestDiamond:
    def test_diagram_matches_compose(self):
        rng = random.Random(53)
        df = square_df(2)
        for _ in range(30):
            k = rng.randrange(1, 5)
            b = random_coloured(rng, k, 2, df)
            r = rng.choice(all_nonmixing_elementaries(k, 2, rng.choice(
                ["tau", "e"]))) if k >= 2 else identity_diagram(1, [1])
            out = diamond(r, b, canonical_orientation(b.pairing), df)
            comp = compose(r, b, df)
            if comp is Zero:
                assert out is Zero
            else:
                assert out.diagram == comp.diagram
                assert out.loops == comp.loops

    def test_inherits_old_sign_at_minimum(self):
        df = square_df(1)
        b = identity_diagram(2, [1, 1])
        r = parse_diagram("(1,2')@1 (2,1')@1")
        flipped = Orientation((-1, -1))
        out = diamond(r, b, flipped, df)
        # result is the tau diagram, one cycle with min 1; old sign was -1
        assert out.orientation.sign(1) == -1

    def test_orientation_valid_and_inherited(self):
        rng = random.Random(59)
        df = square_df(1)
        for _ in range(30):
            k = rng.randrange(2, 5)
            b = ColouredBrauerDiagram(random_pairing(rng, k), [1] * (2 * k))
            s = canonical_orientation(b.pairing)
            if rng.random() < 0.5:  # flip a random loop of b
                cyc = rng.choice([c for c, _ in oriented_cycles(
                    b.pairing, s)])
                signs = list(s.signs)
                for i in cyc:
                    signs[i - 1] = -signs[i - 1]
                s = Orientation(signs)
            r = rng.choice(all_nonmixing_elementaries(k, 1, rng.choice(
                ["tau", "e"])))
            out = diamond(r, b, s, df)
            if out is Zero:
                continue
            # must be a genuine orientation (whole-loop flips of canonical)
            cycles = oriented_cycles(out.diagram.pairing, out.orientation)
            # and carry the old sign at each new cycle's minimum
            for cyc, sg in cycles:
                m = min(cyc)
                assert sg[m] == s.sign(m)


class TestElementarySets:
    def test_creating_taus_of_identity_empty(self):
        df = square_df(1)
        b = identity_diagram(2, [1, 1])
        assert elementary_sets(b, "T+", df) == []

    def test_creating_taus_of_tau(self):
        df = square_df(1)
        b = parse_diagram("(1,2')@1 (2,1')@1")
        out = elementary_sets(b, "T+", df)
        assert [slot for slot, _ in out] == [(1, 2)]

    def test_creating_es_of_e(self):
        df = square_df(2)
        b = parse_diagram("(1,2)@1 (1',2')@1")
        out = elementary_sets(b, "W+", df)
        # top colour of the creating e ranges over the two colours
        assert len(out) == 2
        tops = sorted(r.colour(3) for _, r in out)
        assert tops == [1, 2]

    def test_e_needs_equal_top_colours(self):
        df = square_df(2)
        b = identity_diagram(2, [1, 2])
        assert matching_es(b, 1, 2, 2) == []
        assert elementary_sets(b, "W", df) == []

    def test_tau_glues_by_swapping(self):
        df = square_df(2)
        b = identity_diagram(2, [1, 2])
        t = matching_tau(b, 1, 2)
        out = compose(t, b, df)
        assert out.diagram.colour(3) == 2 and out.diagram.colour(4) == 1

    def test_suffix_filters(self):
        df = square_df(2)
        b = parse_diagram("(1,2)@1 (1',2')@1")
        eq = elementary_sets(b, "W+=", df)
        ne = elementary_sets(b, "W+!=", df)
        assert len(eq) == 1 and eq[0][1].colour(3) == 1
        assert len(ne) == 1 and ne[0][1].colour(3) == 2

    def test_counts_all_gluable(self):
        df = square_df(2)
        b = identity_diagram(3, [1, 1, 2])
        # every (i, j) has exactly one gluable tau
        assert len(elementary_sets(b, "T", df)) == 3
        # only the slot with equal top colours admits an e, with 2 tops
        assert len(elementary_sets(b, "W", df)) == 2


class TestEncodeWord:
    def test_plain_product_is_cycle_diagram(self):
        b, w = encode_word([(1, 2, False), (2, 1, False)])
        cyc = Pairing.from_permutation(Permutation.from_cycles(2, [[1, 2]]))
        assert b.pairing == cyc
        assert b.colours == (1, 2, 2, 1)
        assert not any(l.bar for l in w.letters)

    def test_star_twists_and_swaps(self):
        b, w = encode_word([(1, 1, True), (1, 1, False)])
        assert b.pairing == Pairing.e(2, 1, 2)
        assert b.colours == (1, 1, 1, 1)
        assert [l.bar for l in w.letters] == [True, False]

    def test_star_keeps_block_colours(self):
        # the twist carries the adjoint; colours still name the block (i, j)
        b, _ = encode_word([(2, 1, True), (2, 1, False)])
        assert b.pairing == Pairing(2, [(1, 2), (3, 4)])
        assert b.colours == (2, 2, 1, 1)

    def test_letters_carried_through(self):
        _, w = encode_word([(1, 1, False), (1, 1, True)], letters=[1, 2])
        assert w.letters == (WordLetter(1), WordLetter(2, bar=True))

    def test_single_generator(self):
        b, _ = encode_word([(1, 2, False)])
        assert b.pairing == Pairing.identity(1)
        assert b.colours == (1, 2)

    def test_valid_under_square_df(self):
        rng = random.Random(61)
        for _ in range(20):
            k = rng.randrange(1, 5)
            toks = [(rng.randrange(1, 3), rng.randrange(1, 3),
                     rng.random() < 0.5) for _ in range(k)]
            b, w = encode_word(toks)
            assert b.is_valid(square_df(2))
            assert len(w) == k

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            encode_word([])


pairing_st = st.integers(2, 5).flatmap(
    lambda k: st.permutations(list(range(1, 2 * k + 1))).map(
        lambda pts: Pairing(k, [(pts[2 * i], pts[2 * i + 1])
                                for i in range(k)])
    )
)


@given(pairing_st, pairing_st)
@settings(max_examples=80, deadline=None)
def test_fundamental_relation_property(p1, p2):
    if p1.k != p2.k:
        return
    k = p1.k
    df = square_df(1)
    b1 = ColouredBrauerDiagram(p1, [1] * (2 * k))
    b2 = ColouredBrauerDiagram(p2, [1] * (2 * k))
    out = compose(b1, b2, df)
    removed = sum(out.loops.values())
    assert stack_components(p1, p2) == nc(out.diagram.pairing) + removed


@given(pairing_st)
@settings(max_examples=60, deadline=None)
def test_creates_cycle_changes_count_by_one(p):
    k = p.k
    for kind in (Pairing.tau, Pairing.e):
        r = kind(k, 1, 2)
        before, after = nc(p), join_count(p, r)
        # multiplying by an elementary can create, merge, or be neutral
        assert after in (before - 1, before, before + 1)
        assert creates_cycle(r, p) == (after == before + 1)


pairing_upto7_st = st.integers(1, 7).flatmap(
    lambda k: st.tuples(st.permutations(list(range(1, 2 * k + 1))),
                        st.permutations(list(range(1, 2 * k + 1)))).map(
        lambda pts: tuple(Pairing(k, [(p[2 * i], p[2 * i + 1])
                                      for i in range(k)]) for p in pts)
    )
)


@seed(20201)
@given(pairing_upto7_st)
@settings(max_examples=200, deadline=None)
def test_join_count_matches_partition_join(pair):
    """The matching walk counts the blocks of the set-partition join."""
    b, r = pair
    ground = range(1, 2 * b.k + 1)

    def blocks(x, y):
        return len(partition_join(SetPartition(x.pairs, ground=ground),
                                  SetPartition(y.pairs, ground=ground)))

    assert join_count(b, r) == blocks(b, r)
    assert nc(b) == blocks(b, Pairing.identity(b.k))
