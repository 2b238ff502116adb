import random

import numpy as np
import pytest

from mfe.brauer import (
    ColouredBrauerDiagram,
    DimensionFunction,
    Orientation,
    Pairing,
    canonical_orientation,
    encode_word,
    identity_diagram,
    oriented_cycles,
    parse_diagram,
    square_df,
)
from mfe.evaltrace import (
    block_projector,
    block_slice,
    complex_to_quat,
    extract_block,
    m_stat,
    materialize_rho,
    q_re_trace,
    qadjoint,
    qconj,
    qmatmul,
    quat_eye,
    quat_from_real,
    quat_to_complex,
    rho_contract,
    total_dim,
)
from mfe.ncpart import Permutation


def rand_mat(rng, n, m=None, field="C"):
    m = n if m is None else m
    r = np.array([[rng.gauss(0, 1) for _ in range(m)] for _ in range(n)])
    if field == "R":
        return r
    if field == "C":
        i = np.array([[rng.gauss(0, 1) for _ in range(m)] for _ in range(n)])
        return r + 1j * i
    comps = [np.array([[rng.gauss(0, 1) for _ in range(m)]
                       for _ in range(n)]) for _ in range(4)]
    return np.stack(comps, axis=-1)


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


class TestQuaternions:
    def test_eye_embeds_to_eye(self):
        assert np.allclose(quat_to_complex(quat_eye(3)), np.eye(6))

    def test_embedding_multiplicative(self):
        rng = random.Random(1)
        a, b = rand_mat(rng, 3, 3, "H"), rand_mat(rng, 3, 3, "H")
        left = quat_to_complex(qmatmul(a, b))
        right = quat_to_complex(a) @ quat_to_complex(b)
        assert np.allclose(left, right)

    def test_embedding_roundtrip(self):
        rng = random.Random(2)
        a = rand_mat(rng, 2, 4, "H")
        assert np.allclose(complex_to_quat(quat_to_complex(a)), a)

    def test_adjoint_embeds_to_adjoint(self):
        rng = random.Random(3)
        a = rand_mat(rng, 3, 2, "H")
        assert np.allclose(quat_to_complex(qadjoint(a)),
                           quat_to_complex(a).conj().T)

    def test_conj_fixes_reals(self):
        a = quat_from_real(np.arange(6.0).reshape(2, 3))
        assert np.allclose(qconj(a), a)

    def test_re_trace_halves_complex_trace(self):
        rng = random.Random(4)
        a = rand_mat(rng, 3, 3, "H")
        assert np.isclose(
            q_re_trace(a), np.trace(quat_to_complex(a)).real / 2)

    def test_nonreal_trace_parts_drop(self):
        q = quat_eye(1)
        q[0, 0] = [2.0, 5.0, -1.0, 7.0]
        assert q_re_trace(q) == 2.0


class TestBlocks:
    def test_layout(self):
        df = DimensionFunction([2, 3])
        assert total_dim(df) == 5
        assert block_slice(df, 1) == slice(0, 2)
        assert block_slice(df, 2) == slice(2, 5)

    def test_extract(self):
        df = DimensionFunction([1, 2])
        a = np.arange(9.0).reshape(3, 3)
        assert np.allclose(extract_block(a, df, 1, 2), [[1.0, 2.0]])

    def test_projector(self):
        df = DimensionFunction([2, 1])
        p = block_projector(df, 2)
        assert np.allclose(p, np.diag([0.0, 0.0, 1.0]))


class TestAgainstTensorOperator:
    # the independent oracle: materialize the diagram operator on the
    # k-fold tensor space and contract against a Kronecker product.

    @pytest.mark.parametrize("field", ["R", "C"])
    def test_identity_diagram(self, field):
        rng = random.Random(5)
        df = DimensionFunction([2, 1])
        n = total_dim(df)
        mats = [rand_mat(rng, n, n, field) for _ in range(2)]
        b = identity_diagram(2, [1, 2])
        raw = rho_contract(b, mats, df)
        want = (np.trace(extract_block(mats[0], df, 1, 1))
                * np.trace(extract_block(mats[1], df, 2, 2)))
        assert np.isclose(raw, want)
        assert np.isclose(m_stat(b, mats, df, field), want / 2.0)

    @pytest.mark.parametrize("field", ["R", "C"])
    def test_random_diagrams(self, field):
        rng = random.Random(6)
        # the batch draws from its own generator, so the diagrams and the
        # first sample stay those of the unbatched check
        extra = random.Random(60)
        for df in (square_df(1, 2), square_df(2, 2), DimensionFunction([1, 2])):
            n = total_dim(df)
            for _ in range(12):
                k = rng.randrange(1, 4)
                b = random_valid_diagram(rng, k, df)
                mats = [rand_mat(rng, n, n, field) for _ in range(k)]
                got = m_stat(b, mats, df, field)
                s = canonical_orientation(b.pairing)
                norm = 1.0
                for cls in df.classes():
                    from mfe.brauer import fnc
                    norm *= float(df.value(cls)) ** fnc((b, s), df, cls)
                assert np.isclose(got, rho_contract(b, mats, df) / norm)
                pool = [mats] + [[rand_mat(extra, n, n, field)
                                  for _ in range(k)] for _ in range(2)]
                batched = m_stat(b, [np.stack(slot) for slot in zip(*pool)],
                                 df, field)
                assert batched.shape == (3,)
                for value, sample in zip(batched, pool):
                    assert np.isclose(value, m_stat(b, sample, df, field),
                                      rtol=1e-12, atol=1e-12)

    def test_mixed_colour_pair_is_partial_isometry(self):
        # a mixed pair identifies offsets across two equal-dimension blocks
        df = DimensionFunction([2, 2])
        b = parse_diagram("(1,1')@1:2")
        rho = materialize_rho(b, df)
        n = total_dim(df)
        want = np.zeros((n, n))
        want[2, 0] = want[3, 1] = 1.0  # block (2,1) identity
        assert np.allclose(rho, want)


class TestWordStatistics:
    def test_plain_word_complex(self):
        rng = random.Random(7)
        df = DimensionFunction([2, 3])
        n = total_dim(df)
        u = rand_mat(rng, n, n, "C")
        b, _ = encode_word([(1, 2, False), (2, 1, False)])
        got = m_stat(b, [u, u], df, "C")
        blocks = extract_block(u, df, 1, 2) @ extract_block(u, df, 2, 1)
        assert np.isclose(got, np.trace(blocks) / 2.0)

    def test_starred_word_complex(self):
        # a starred slot carries the conjugated matrix; the diagram's twist
        # supplies the transpose, so together they evaluate the adjoint
        rng = random.Random(8)
        df = DimensionFunction([2, 3])
        n = total_dim(df)
        u = rand_mat(rng, n, n, "C")
        b, _ = encode_word([(1, 1, True), (1, 1, False)])
        got = m_stat(b, [u.conj(), u], df, "C")
        ustar = u.conj().T
        blocks = extract_block(ustar, df, 1, 1) @ extract_block(u, df, 1, 1)
        assert np.isclose(got, np.trace(blocks) / 2.0)

    def test_starred_word_real(self):
        rng = random.Random(9)
        df = DimensionFunction([3, 2])
        n = total_dim(df)
        u = rand_mat(rng, n, n, "R")
        b, _ = encode_word([(2, 1, True), (2, 1, False)])
        got = m_stat(b, [u, u], df, "R")
        blk = extract_block(u, df, 2, 1)
        # the statistic is cyclically invariant, so it is normalized by the
        # block dimension at the cycle minimum (colour 2, dim 2)
        assert np.isclose(got, np.trace(blk.T @ blk) / 2.0)

    def test_longer_cycle(self):
        rng = random.Random(10)
        df = square_df(2, 2)
        n = total_dim(df)
        us = [rand_mat(rng, n, n, "C") for _ in range(3)]
        b, _ = encode_word([(1, 2, False), (2, 2, False), (2, 1, False)])
        got = m_stat(b, us, df, "C")
        prod = (extract_block(us[0], df, 1, 2)
                @ extract_block(us[1], df, 2, 2)
                @ extract_block(us[2], df, 2, 1))
        assert np.isclose(got, np.trace(prod) / 2.0)

    def test_quaternion_word(self):
        rng = random.Random(11)
        df = DimensionFunction([2, 3])
        n = total_dim(df)
        u = rand_mat(rng, n, n, "H")
        b, _ = encode_word([(1, 1, True), (1, 1, False)])
        got = m_stat(b, [u, u], df, "H")
        blk = extract_block(u, df, 1, 1)
        prod = qmatmul(qadjoint(blk), blk)
        # single loop: value -2 Re Tr over H, normalized by -2 d_1
        assert np.isclose(got, -2.0 * q_re_trace(prod) / (-2.0 * 2.0))


class TestOrientationIndependence:
    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_reversed_loops_agree(self, field):
        rng = random.Random(12)
        df = DimensionFunction([2, 2])
        n = total_dim(df)
        for _ in range(10):
            k = rng.randrange(1, 4)
            b = random_valid_diagram(rng, k, df)
            mats = [rand_mat(rng, n, n, field) for _ in range(k)]
            s = canonical_orientation(b.pairing)
            base = m_stat(b, mats, df, field, orientation=s)
            # flip each loop in turn
            for cyc, _ in oriented_cycles(b.pairing, s):
                signs = list(s.signs)
                for i in cyc:
                    signs[i - 1] = -signs[i - 1]
                flipped = Orientation(signs)
                got = m_stat(b, mats, df, field, orientation=flipped)
                assert np.isclose(got, base)


class TestBatchedQuaternion:
    def test_batch_matches_samplewise(self):
        # unequal blocks, and conjugated slots as the Monte-Carlo estimator
        # passes them for barred letters
        rng = random.Random(15)
        df = DimensionFunction([2, 3])
        n = total_dim(df)
        pool = np.stack([rand_mat(rng, n, n, "H") for _ in range(4)])
        cases = [encode_word([(1, 2, True), (1, 2, False), (2, 2, False)]),
                 encode_word([(2, 1, True), (2, 1, False), (1, 1, True)])]
        for _ in range(6):
            k = rng.randrange(1, 4)
            cases.append((random_valid_diagram(rng, k, df), None))
        for b, w in cases:
            bars = [l.bar for l in w] if w is not None else [
                rng.random() < 0.5 for _ in range(b.k)]
            mats = [qconj(pool) if bar else pool for bar in bars]
            batched = m_stat(b, mats, df, "H")
            assert batched.shape == (4,)
            for s, value in enumerate(batched):
                want = m_stat(b, [m[s] for m in mats], df, "H")
                assert np.isclose(value, want, rtol=1e-12, atol=1e-12)


class TestQuaternionNormalization:
    def test_unit_at_identity(self):
        # evaluating the identity diagram at the identity matrix gives 1
        for d in (1, 2, 3):
            df = DimensionFunction([d])
            b = identity_diagram(1, [1])
            assert np.isclose(m_stat(b, [quat_eye(d)], df, "H"), 1.0)

    def test_real_embedded_in_quaternions(self):
        rng = random.Random(13)
        df = DimensionFunction([2, 1])
        n = total_dim(df)
        a = rand_mat(rng, n, n, "R")
        b = identity_diagram(2, [1, 1])
        got_r = m_stat(b, [a, a], df, "R")
        got_h = m_stat(b, [quat_from_real(a), quat_from_real(a)], df, "H")
        # a real matrix seen in H: each loop gains the -2, the normalizer
        # removes it, so values agree
        assert np.isclose(got_h, got_r)


class TestMultiplicativity:
    def test_rho_is_multiplicative(self):
        # rho(b1) rho(b2) = prod(d^loops) rho(b1 o b2); this pins down the
        # exact-colour vanishing rule of composition
        from mfe.brauer import Zero, compose

        rng = random.Random(14)
        for df in (square_df(2, 2), DimensionFunction([1, 2])):
            for _ in range(15):
                k = rng.randrange(1, 4)
                b1 = random_valid_diagram(rng, k, df)
                b2 = random_valid_diagram(rng, k, df)
                prod = materialize_rho(b1, df) @ materialize_rho(b2, df)
                out = compose(b1, b2, df)
                if out is Zero:
                    assert np.allclose(prod, 0.0)
                else:
                    scale = 1.0
                    for cls, mult in out.loops.items():
                        scale *= float(df.value(cls)) ** mult
                    assert np.allclose(
                        prod, scale * materialize_rho(out.diagram, df))
