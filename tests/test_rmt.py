import math
import random

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from mfe.brauer import (
    ColouredBrauerDiagram,
    DimensionFunction,
    Pairing,
    Word,
    WordLetter,
    encode_word,
    identity_diagram,
    square_df,
)
from mfe.evaltrace import m_stat, qconj, qmatmul, quat_eye, \
    quat_to_complex, total_dim
from mfe.moments import evolve_finite
from mfe.rmt import (
    BETA,
    LieBasis,
    assemble_blocks,
    casimir_constant,
    casimir_scalar_check,
    cluster_map,
    estimate_stat,
    expm,
    extract_blocks,
    inner_product,
    lie_basis,
    sample_bm,
    sample_terminals,
    unitarity_defect,
)
from mfe.rmt import _gaussian_lie


class TestLieBasis:
    def test_cardinalities(self):
        assert len(lie_basis(2, "R")) == 1
        assert len(lie_basis(2, "C")) == 4
        assert len(lie_basis(1, "H")) == 3
        for field in "RCH":
            beta = BETA[field]
            for n in (1, 2, 3, 5):
                want = n * (n - 1) // 2 + (beta - 1) * n * (n + 1) // 2
                assert len(lie_basis(n, field)) == want

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            lie_basis(0, "C")
        with pytest.raises(ValueError):
            lie_basis(2, "Q")

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_orthonormal(self, field):
        for n in (1, 2, 4):
            assert lie_basis(n, field).gram_defect() <= 1e-12

    def test_elements_anti_hermitian(self):
        for h in lie_basis(3, "C"):
            assert np.allclose(h + h.conj().T, 0.0)
        for h in lie_basis(3, "R"):
            assert np.allclose(h + h.T, 0.0)
        for h in lie_basis(2, "H"):
            assert np.allclose(h + qconj(np.swapaxes(h, 0, 1)), 0.0)


class TestCasimir:
    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_scalar_defect(self, field):
        for n in range(1, 9):
            assert casimir_scalar_check(lie_basis(n, field)) <= 1e-12

    def test_complex_constant_is_minus_one(self):
        assert casimir_constant("C", 3) == -1.0

    def test_real_constant(self):
        assert np.isclose(casimir_constant("R", 4), -1.0 + 1.0 / 4)

    def test_quaternion_constant(self):
        assert np.isclose(casimir_constant("H", 2), -1.0 - 1.0 / 4)


def lie_batch(field, N, samples, scale, seed=0):
    a = _gaussian_lie(np.random.default_rng(seed), N, field, samples)
    if field == "H":
        a = quat_to_complex(a)
    return a * scale


class TestExpm:
    # every Taylor degree, the scaling and squaring regime, and batches
    # that span several chunks
    @pytest.mark.parametrize("field", ["R", "C", "H"])
    @pytest.mark.parametrize("scale", [0.0, 1e-3, 0.05, 0.2, 0.5, 1.0, 8.0])
    def test_matches_scipy(self, field, scale):
        for N in (1, 2, 3, 8, 16):
            a = lie_batch(field, N, 40, scale, seed=N)
            want = scipy_expm(a)
            got = expm(a)
            assert got.dtype == a.dtype and got.shape == a.shape
            tol = 1e-14 * max(1.0, float(np.abs(a).sum(axis=-2).max()))
            assert np.abs(got - want).max() <= tol, (field, N, scale)

    def test_chunks_and_single_matrix(self):
        # 16x16 batches are cut every 256 matrices
        a = lie_batch("C", 16, 600, 0.3)
        got = expm(a)
        assert np.abs(got - scipy_expm(a)).max() <= 1e-14
        one = expm(a[500:501])
        assert np.abs(one - got[500:501]).max() <= 1e-14

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_unitary(self, field):
        for scale in (0.1, 0.7, 3.0):
            e = expm(lie_batch(field, 8, 200, scale))
            gram = np.conj(np.swapaxes(e, -1, -2)) @ e
            assert np.abs(gram - np.eye(e.shape[-1])).max() <= 1e-13


class TestSampling:
    def test_time_zero_is_identity(self):
        p = sample_bm(4, "C", 0.0, seed=0)
        assert np.allclose(p.matrix, np.eye(4))
        q = sample_bm(3, "H", 0.0, seed=0)
        assert np.allclose(q.matrix, quat_eye(3))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_bm(4, "C", -1.0)
        with pytest.raises(ValueError):
            sample_bm(4, "C", 1.0, steps=0)
        with pytest.raises(ValueError):
            sample_terminals(4, "C", 1.0, 0)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_unitarity_defect(self, field):
        for seed in range(3):
            p = sample_bm(5, field, 1.3, steps=40, seed=seed)
            assert p.unitarity_defect() <= 1e-10
        u = sample_terminals(5, field, 1.3, 6, steps=40, seed=3)
        batched = unitarity_defect(u, field)
        assert batched <= 1e-10
        # entries are rounding errors, so a reordered sum moves them by eps
        assert np.isclose(batched, max(unitarity_defect(x, field) for x in u),
                          rtol=0, atol=4 * np.finfo(float).eps)

    def test_real_stays_in_identity_component(self):
        for seed in range(3):
            p = sample_bm(5, "R", 2.0, steps=40, seed=seed)
            assert np.isclose(np.linalg.det(p.matrix), 1.0)

    def test_reproducible(self):
        a = sample_terminals(3, "C", 0.5, 4, steps=20, seed=7)
        b = sample_terminals(3, "C", 0.5, 4, steps=20, seed=7)
        assert np.array_equal(a, b)
        c = sample_terminals(3, "C", 0.5, 4, steps=20, seed=8)
        assert not np.allclose(a, c)

    def test_batch_shapes(self):
        assert sample_terminals(3, "R", 0.1, 5, steps=2).shape == (5, 3, 3)
        assert sample_terminals(3, "H", 0.1, 5, steps=2).shape == \
            (5, 3, 3, 4)

    @pytest.mark.parametrize("field,rate", [
        ("C", -0.5),
        ("R", -3.0 / 8.0),
        ("H", -9.0 / 16.0),
    ])
    def test_mean_trace_matches_exact(self, field, rate):
        # first moment of the normalized trace at N=4
        u = sample_terminals(4, field, 1.0, 4000, steps=100, seed=11)
        if field == "H":
            vals = u[..., 0].trace(axis1=1, axis2=2) / 4.0
        else:
            vals = np.real(u.trace(axis1=1, axis2=2)) / 4.0
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - math.exp(rate)) <= 4 * se


class TestBlocks:
    def test_extract_and_reassemble(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8))
        dims = (1, 3, 1, 3)
        blocks = extract_blocks(a, dims)
        assert blocks[(2, 2)].shape == (3, 3)
        assert blocks[(1, 4)].shape == (1, 3)
        assert np.array_equal(assemble_blocks(blocks, dims), a)

    def test_dims_must_tile(self):
        with pytest.raises(ValueError):
            extract_blocks(np.eye(5), (2, 2))

    def test_cluster_map_rearrangement(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 8))
        dims = (1, 3, 1, 3)
        c = cluster_map(a, dims, [{1, 3}, {2, 4}])
        blocks = extract_blocks(a, dims)
        # the two 1x1 blocks form the leading 2x2 corner
        assert np.array_equal(c[:2, :2], np.block(
            [[blocks[(1, 1)], blocks[(1, 3)]],
             [blocks[(3, 1)], blocks[(3, 3)]]]))
        # the two 3x3 blocks form the trailing 6x6 corner
        assert np.array_equal(c[2:, 2:], np.block(
            [[blocks[(2, 2)], blocks[(2, 4)]],
             [blocks[(4, 2)], blocks[(4, 4)]]]))
        # cross shapes sit off the diagonal
        assert np.array_equal(c[:2, 2:], np.block(
            [[blocks[(1, 2)], blocks[(1, 4)]],
             [blocks[(3, 2)], blocks[(3, 4)]]]))

    def test_cluster_map_is_permutation_similarity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8))
        c = cluster_map(a, (1, 3, 1, 3), [{1, 3}, {2, 4}])
        assert np.isclose(np.trace(c), np.trace(a))
        assert sorted(np.linalg.eigvals(c).real.round(8)) == \
            sorted(np.linalg.eigvals(a).real.round(8))

    def test_equal_dims_identity_relabeling(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        assert np.array_equal(
            cluster_map(a, (2, 2), [{1}, {2}]), a)

    def test_mixed_dimension_class_rejected(self):
        with pytest.raises(ValueError):
            cluster_map(np.eye(4), (1, 3), [{1, 2}])

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            cluster_map(np.eye(2), (1, 1), [{1}])


class TestEstimateStat:
    @pytest.mark.parametrize("samples", [0, 1])
    def test_zero_samples(self, samples):
        b = identity_diagram(1, [1])
        with pytest.raises(ValueError, match="samples >= 2"):
            estimate_stat(b, Word([WordLetter(1)]), "C", square_df(1, 4),
                          1.0, samples)

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_matches_samplewise_reference(self, field):
        # the batched estimate against a per-sample loop over the same
        # pools: two letters, one barred twice, unequal blocks
        df = DimensionFunction([1, 2])
        tokens = [(1, 2, True), (1, 1, False), (1, 2, False), (2, 2, True),
                  (2, 2, False)]
        b, w = encode_word(tokens, letters=[1, 2, 1, 1, 2])
        samples, seed, steps, t = 40, 21, 5, 0.7
        mean, se = estimate_stat(b, w, field, df, t, samples, seed=seed,
                                 steps=steps)
        letters = sorted({l.letter for l in w})
        children = np.random.SeedSequence(seed).spawn(len(letters))
        pools = {c: sample_terminals(total_dim(df), field, t, samples,
                                     steps, child)
                 for c, child in zip(letters, children)}
        conj = qconj if field == "H" else np.conj
        values = []
        for s in range(samples):
            mats = [conj(pools[l.letter][s]) if l.bar else pools[l.letter][s]
                    for l in w]
            values.append(np.real(m_stat(b, mats, df, field)))
        assert np.isclose(mean, np.mean(values), rtol=1e-12, atol=1e-14)
        assert np.isclose(se, np.std(values, ddof=1) / math.sqrt(samples),
                          rtol=1e-12, atol=1e-14)

    def test_diagonal_block_complex(self):
        b = identity_diagram(1, [1])
        mean, se = estimate_stat(b, Word([WordLetter(1)]), "C",
                                 square_df(1, 8), 1.0, 2000, seed=5,
                                 steps=100)
        assert se > 0
        assert abs(mean - math.exp(-0.5)) <= 4 * se

    def test_mixed_colour_block_vanishes(self):
        b, w = encode_word([(1, 2, False)])
        mean, se = estimate_stat(b, w, "C", square_df(2, 4), 1.0, 500,
                                 seed=6, steps=50)
        assert abs(mean) <= 4 * se + 1e-12

    def test_starred_pair_is_exactly_unitary(self):
        b, w = encode_word([(1, 1, True), (1, 1, False)])
        mean, se = estimate_stat(b, w, "C", square_df(1, 4), 1.0, 50,
                                 seed=7, steps=20)
        assert np.isclose(mean, 1.0, atol=1e-10)
        assert se <= 1e-10

    @pytest.mark.parametrize("field", ["R", "C", "H"])
    def test_matches_evolve_finite(self, field):
        # random small diagram statistics against the exact semigroup
        rng = random.Random(8)
        df = square_df(2, 3)
        for trial in range(3):
            k = rng.randrange(1, 3)
            pts = list(range(1, 2 * k + 1))
            rng.shuffle(pts)
            pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
            cols = [rng.randrange(1, 3) for _ in range(2 * k)]
            b = ColouredBrauerDiagram(Pairing(k, pairs), cols)
            w = Word(WordLetter(1) for _ in range(k))
            t = 0.5
            exact = evolve_finite(b, w, t, df, field)
            mean, se = estimate_stat(b, w, field, df, t, 1500,
                                     seed=100 + trial, steps=60)
            assert abs(mean - exact) <= 4 * se + 1e-12, \
                (field, trial, mean, exact, se)

    def test_independent_letters_at_different_times(self):
        # u at time s times an independent v at time r: expectation of
        # tr(uv) is e^(-s/2) e^(-r/2) by freeness of independent copies
        b, w = encode_word([(1, 1, False), (1, 1, False)], letters=[1, 2])
        times = {1: 0.5, 2: 1.0}
        mean, se = estimate_stat(b, w, "C", square_df(1, 8), times, 2000,
                                 seed=9, steps=60)
        want = math.exp(-0.25) * math.exp(-0.5)
        assert abs(mean - want) <= 4 * se
