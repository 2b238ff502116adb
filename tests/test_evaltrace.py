import random
import tracemalloc

import numpy as np
import pytest

from mfe.brauer import (
    ColouredBrauerDiagram,
    DimensionFunction,
    Orientation,
    Pairing,
    canonical_orientation,
    encode_word,
    fnc,
    identity_diagram,
    oriented_cycles,
    parse_diagram,
    square_df,
)
from mfe import evaltrace
from mfe.evaltrace import (
    STAT_CHUNK,
    block_slice,
    m_stat,
    materialize_rho,
    quat_embed,
    rho_contract,
    sample_chunks,
    total_dim,
)
from mfe.ncpart import Permutation


def block(a, df, c, cp):
    """Rows in colour block c, columns in colour block cp."""
    return a[block_slice(df, c), block_slice(df, cp)]


# quaternion matrices as (n, m, 4) arrays of their 1, i, j, k components,
# with the Hamilton product written out: the reference that the complex
# embedding is checked against

def hamilton(a, b):
    a0, a1, a2, a3 = (a[..., i] for i in range(4))
    b0, b1, b2, b3 = (b[..., i] for i in range(4))
    return np.stack(
        [
            a0 @ b0 - a1 @ b1 - a2 @ b2 - a3 @ b3,
            a0 @ b1 + a1 @ b0 + a2 @ b3 - a3 @ b2,
            a0 @ b2 - a1 @ b3 + a2 @ b0 + a3 @ b1,
            a0 @ b3 + a1 @ b2 - a2 @ b1 + a3 @ b0,
        ],
        axis=-1,
    )


def q_conj(a):
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def q_adjoint(a):
    return np.swapaxes(q_conj(a), -3, -2)


def q_re_trace(a):
    return np.trace(a[..., 0], axis1=-2, axis2=-1)


def q_eye(n):
    return q_from_real(np.eye(n))


def q_from_real(a):
    q = np.zeros(a.shape + (4,))
    q[..., 0] = a
    return q


def rand_quat(rng, n, m):
    return np.stack([np.array([[rng.gauss(0, 1) for _ in range(m)]
                               for _ in range(n)]) for _ in range(4)],
                    axis=-1)


def rand_mat(rng, n, m=None, field="C"):
    """A random matrix over the field; H in its complex embedding."""
    m = n if m is None else m
    if field == "H":
        return quat_embed(rand_quat(rng, n, m))
    r = np.array([[rng.gauss(0, 1) for _ in range(m)] for _ in range(n)])
    if field == "R":
        return r
    i = np.array([[rng.gauss(0, 1) for _ in range(m)] for _ in range(n)])
    return r + 1j * i


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
        assert np.array_equal(quat_embed(q_eye(3)), np.eye(6))

    def test_embedding_multiplicative(self):
        rng = random.Random(1)
        a, b = rand_quat(rng, 3, 2), rand_quat(rng, 2, 4)
        got = quat_embed(a) @ quat_embed(b)
        assert got.shape == (6, 8)
        assert np.allclose(quat_embed(hamilton(a, b)), got,
                           rtol=0, atol=1e-14)

    def test_embedding_roundtrip(self):
        # the 2x2 block of each entry is [[a+bi, c+di], [-c+di, a-bi]]:
        # its first row gives the components back, its second follows
        rng = random.Random(2)
        a = rand_quat(rng, 2, 4)
        e = quat_embed(a)
        x, y = e[::2, ::2], e[::2, 1::2]
        assert np.array_equal(np.stack([x.real, x.imag, y.real, y.imag],
                                       axis=-1), a)
        assert np.array_equal(e[1::2, ::2], -y.conj())
        assert np.array_equal(e[1::2, 1::2], x.conj())

    def test_batched(self):
        rng = random.Random(5)
        a = np.stack([rand_quat(rng, 2, 3) for _ in range(4)])
        assert np.array_equal(quat_embed(a),
                              np.stack([quat_embed(x) for x in a]))

    def test_adjoint_embeds_to_adjoint(self):
        rng = random.Random(3)
        a = rand_quat(rng, 3, 2)
        assert np.array_equal(quat_embed(q_adjoint(a)),
                              quat_embed(a).conj().T)

    def test_conj_fixes_reals(self):
        # the entrywise quaternion conjugate is the adjoint of each 2x2
        # block; a real matrix is fixed by it and embeds as a (x) I_2
        a = q_from_real(np.arange(6.0).reshape(2, 3))
        e = quat_embed(a)
        assert np.array_equal(quat_embed(q_conj(a)), e)
        assert np.array_equal(e, np.kron(a[..., 0], np.eye(2)))

    def test_re_trace_halves_complex_trace(self):
        rng = random.Random(4)
        a = rand_quat(rng, 3, 3)
        assert np.isclose(q_re_trace(a), np.trace(quat_embed(a)).real / 2,
                          rtol=1e-15, atol=0)

    def test_nonreal_trace_parts_drop(self):
        q = q_eye(1)
        q[0, 0] = [2.0, 5.0, -1.0, 7.0]
        assert np.trace(quat_embed(q)) == 4.0


class TestBlocks:
    def test_layout(self):
        df = DimensionFunction([2, 3])
        assert total_dim(df) == 5
        assert block_slice(df, 1) == slice(0, 2)
        assert block_slice(df, 2) == slice(2, 5)

    def test_extract(self):
        df = DimensionFunction([1, 2])
        a = np.arange(9.0).reshape(3, 3)
        assert np.allclose(block(a, df, 1, 2), [[1.0, 2.0]])


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
        want = (np.trace(block(mats[0], df, 1, 1))
                * np.trace(block(mats[1], df, 2, 2)))
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
        blocks = block(u, df, 1, 2) @ block(u, df, 2, 1)
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
        blocks = block(ustar, df, 1, 1) @ block(u, df, 1, 1)
        assert np.isclose(got, np.trace(blocks) / 2.0)

    def test_starred_word_real(self):
        rng = random.Random(9)
        df = DimensionFunction([3, 2])
        n = total_dim(df)
        u = rand_mat(rng, n, n, "R")
        b, _ = encode_word([(2, 1, True), (2, 1, False)])
        got = m_stat(b, [u, u], df, "R")
        blk = block(u, df, 2, 1)
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
        prod = (block(us[0], df, 1, 2)
                @ block(us[1], df, 2, 2)
                @ block(us[2], df, 2, 1))
        assert np.isclose(got, np.trace(prod) / 2.0)

    def test_quaternion_word(self):
        rng = random.Random(11)
        df = DimensionFunction([2, 3])
        n = total_dim(df)
        q = rand_quat(rng, n, n)
        b, _ = encode_word([(1, 1, True), (1, 1, False)])
        got = m_stat(b, [quat_embed(q), quat_embed(q)], df, "H")
        blk = block(q, df, 1, 1)
        prod = hamilton(q_adjoint(blk), blk)
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
        # unequal blocks, and starred slots, whose twist makes the
        # evaluator take the adjoint of the block
        rng = random.Random(15)
        df = DimensionFunction([2, 3])
        n = total_dim(df)
        pool = np.stack([rand_mat(rng, n, n, "H") for _ in range(4)])
        cases = [encode_word([(1, 2, True), (1, 2, False), (2, 2, False)]),
                 encode_word([(2, 1, True), (2, 1, False), (1, 1, True)])]
        for _ in range(6):
            k = rng.randrange(1, 4)
            cases.append((random_valid_diagram(rng, k, df), None))
        for b, _ in cases:
            mats = [pool] * b.k
            batched = m_stat(b, mats, df, "H")
            assert batched.shape == (4,)
            for s, value in enumerate(batched):
                want = m_stat(b, [m[s] for m in mats], df, "H")
                assert np.isclose(value, want, rtol=1e-12, atol=1e-12)


def normal_pool(rng, shape, field):
    """Gaussian matrices of the given shape over the field; H matrices
    come as their complex embedding, of twice the side."""
    if field == "H":
        n, m = shape[-2:]
        return quat_embed(rng.standard_normal(shape[:-2] + (n, m, 4)))
    x = rng.standard_normal(shape)
    return x if field == "R" else x + 1j * rng.standard_normal(shape)


class TestChunkedEvaluation:
    # m_stat cuts a leading sample axis into chunks of STAT_CHUNK entries;
    # the reference is the same call with a budget that takes the whole
    # pool in one chunk, which is the evaluation before chunking
    df = DimensionFunction([1, 2])
    WORDS = [
        ([(1, 1, False)], None),
        ([(1, 2, True), (2, 1, True)], None),
        ([(2, 2, True), (2, 1, False), (2, 1, True)], [1, 2, 1]),
        ([(1, 2, False), (2, 2, True), (2, 1, False), (1, 1, True)],
         [2, 1, 1, 2]),
    ]

    def cases(self):
        """(diagram, slot letters, orientation) for plain and barred
        words of one and two letters, an identity diagram of two loops,
        and each word's first loop reversed."""
        out = []
        for tokens, letters in self.WORDS:
            b, _ = encode_word(tokens, letters=letters)
            out.append((b, letters or [1] * b.k, None))
            s = canonical_orientation(b.pairing)
            cyc, _ = oriented_cycles(b.pairing, s)[0]
            signs = [-x if i + 1 in cyc else x for i, x in enumerate(s.signs)]
            out.append((b, letters or [1] * b.k, Orientation(signs)))
        b = identity_diagram(2, [1, 2])
        assert len(oriented_cycles(b.pairing,
                                   canonical_orientation(b.pairing))) == 2
        out.append((b, [1, 2], None))
        return out

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_bit_identical_to_one_shot(self, monkeypatch, field):
        rng = np.random.default_rng(30)
        side = total_dim(self.df)
        n = 2 * side if field == "H" else side
        c = STAT_CHUNK // n ** 2
        for samples, chunks in [(1, 1), (c - 1, 1), (c, 1), (c + 1, 2),
                                (2 * c + 3, 3)]:
            assert len(sample_chunks(samples, n * n)) == chunks
            pools = {x: normal_pool(rng, (samples, side, side), field)
                     for x in (1, 2)}

            def values():
                return [m_stat(b, [pools[x] for x in letters], self.df,
                               field, orientation=s)
                        for b, letters, s in self.cases()]

            chunked = values()
            with monkeypatch.context() as m:
                m.setattr(evaltrace, "STAT_CHUNK", samples * n * n)
                one_shot = values()
            for got, want in zip(chunked, one_shot):
                assert got.shape == (samples,)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        # unbatched slot matrices give a scalar, of the batched value
        sample = {x: u[-1] for x, u in pools.items()}
        for (b, letters, s), batched in zip(self.cases(), chunked):
            value = m_stat(b, [sample[x] for x in letters], self.df, field,
                           orientation=s)
            assert np.ndim(value) == 0
            assert np.isclose(value, batched[-1], rtol=1e-12, atol=1e-12)

    def test_more_axes_and_broadcast_slots(self, monkeypatch):
        # chunks run along the first axis and hold STAT_CHUNK entries of
        # one sample's slot matrices; a slot without the sample axes is
        # broadcast against every chunk
        rng = np.random.default_rng(31)
        n, extra = total_dim(self.df), 3
        c = STAT_CHUNK // (extra * n * n)
        pool = normal_pool(rng, (2 * c + 3, extra, n, n), "C")
        fixed = normal_pool(rng, (n, n), "C")
        b, _ = encode_word([(1, 2, True), (1, 2, False)], letters=[1, 2])
        assert len(sample_chunks(len(pool), pool[0].size)) == 3
        chunked = m_stat(b, [pool, fixed], self.df, "C")
        monkeypatch.setattr(evaltrace, "STAT_CHUNK", pool.size)
        assert chunked.shape == (2 * c + 3, extra)
        assert np.array_equal(chunked, m_stat(b, [pool, fixed], self.df, "C"))

    def test_pool_memory_stays_chunk_sized(self):
        # simulate --field H --N 2 --word "u11 u11" --samples 10000: one
        # 2x2 quaternion block, whose statistic conjugates both factors.
        # Evaluated in one shot, it held three temporaries of the pool's
        # size, 7.3 MiB beside the 2.4 MiB pool
        rng = np.random.default_rng(32)
        pool = normal_pool(rng, (10 ** 4, 2, 2), "H")
        b, _ = encode_word([(1, 1, False), (1, 1, False)])
        tracemalloc.start()
        try:
            m_stat(b, [pool, pool], square_df(1, 2), "H")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def component_stat(b, qs, df):
    """The H statistic in the component layout, loop by loop with the
    Hamilton product, as m_stat defines it."""
    s = canonical_orientation(b.pairing)
    total = 1.0
    for cycle, sg in oriented_cycles(b.pairing, s):
        if sg[cycle[0]] == 1:
            cycle = cycle[1:] + cycle[:1]
        prod = None
        for l in cycle:
            f = block(qs[l - 1], df, b.colour(l), b.colour(b.k + l))
            if sg[l] == 1:
                f = q_adjoint(f)
            prod = f if prod is None else hamilton(prod, f)
        total *= -2.0 * q_re_trace(prod)
    for cls in df.classes():
        total *= (-2.0 * float(df.value(cls))) ** (-fnc((b, s), df, cls))
    return total


class TestQuaternionNormalization:
    def test_matches_component_reference(self):
        rng = random.Random(16)
        for df in (square_df(2, 2), DimensionFunction([1, 2])):
            n = total_dim(df)
            for _ in range(12):
                k = rng.randrange(1, 4)
                b = random_valid_diagram(rng, k, df)
                qs = [rand_quat(rng, n, n) for _ in range(k)]
                got = m_stat(b, [quat_embed(q) for q in qs], df, "H")
                assert np.isclose(got, component_stat(b, qs, df),
                                  rtol=1e-12, atol=1e-12)

    def test_unit_at_identity(self):
        # evaluating the identity diagram at the identity matrix gives 1
        for d in (1, 2, 3):
            df = DimensionFunction([d])
            b = identity_diagram(1, [1])
            assert np.isclose(m_stat(b, [np.eye(2 * d)], df, "H"), 1.0)

    def test_real_embedded_in_quaternions(self):
        rng = random.Random(13)
        df = DimensionFunction([2, 1])
        n = total_dim(df)
        a = rand_mat(rng, n, n, "R")
        b = identity_diagram(2, [1, 1])
        got_r = m_stat(b, [a, a], df, "R")
        h = quat_embed(q_from_real(a))
        got_h = m_stat(b, [h, h], df, "H")
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
