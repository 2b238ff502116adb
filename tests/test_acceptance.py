"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
machine-greppable PASS/FAIL line (visible with pytest -s, or in the
captured output on failure).  Tolerances are pinned in the assertions.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from mfe.brauer import (
    ColouredBrauerDiagram,
    DimensionFunction,
    Pairing,
    Word,
    WordLetter,
    canonical_orientation,
    compose,
    creates_cycle,
    creates_cycle_sign,
    cycle_partition,
    encode_word,
    nc,
    square_df,
    stack_components,
    twist,
)
from mfe.cumulants import (
    Colourization,
    biane_moment,
    cumulants_from_moments,
    kappa_closed_form,
)
from mfe.evaltrace import (
    amalgamated_cumulant,
    e_pi,
    m_stat,
)
from mfe.generators import (
    _ratio_factor,
    admissible_moves,
    build_generator_finite,
    build_generator_limit,
    compatible_words,
    is_compatible,
    reachable_basis,
    square_ratios,
)
from mfe.moments import MomentFunction, evolve_finite, moment_of_word
from mfe.ncpart import enumerate_nc, one_nc
from mfe.opvalued import (
    limit_cumulant_coefficient,
    limit_statistic,
)
from mfe.rmt import (
    casimir_scalar_check,
    lie_basis,
    sample_terminals,
    unitarity_defect,
)


def _criterion(num, ok, detail):
    print("\n[criterion %d] %s — %s" % (num, "PASS" if ok else "FAIL",
                                        detail), flush=True)
    assert ok, "[criterion %d] %s" % (num, detail)


# ---------------------------------------------------------------------------
# 1. closed-form cumulants vs Moebius inversion, exact, p <= 5, n <= 3
# ---------------------------------------------------------------------------

def test_criterion_01_closed_form_cumulants():
    start = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for p in range(1, 6):
        for n in range(1, 4):
            cols = []
            chain = [rng.randrange(1, n + 1) for _ in range(p)]
            cols.append(Colourization(chain, chain[1:] + chain[:1]))
            for _ in range(3):
                cols.append(Colourization(
                    [rng.randrange(1, n + 1) for _ in range(p)],
                    [rng.randrange(1, n + 1) for _ in range(p)]))
            for col in cols:
                cache = {}

                def phi(block, col=col, n=n, cache=cache):
                    if block not in cache:
                        toks = [col.tokens()[v - 1] for v in block]
                        cache[block] = moment_of_word(toks, n)
                    return cache[block]

                inverted = cumulants_from_moments(phi, p)[p - 1]
                assert inverted == kappa_closed_form(p, n, col), (p, n, col)
                checked += 1
    elapsed = time.monotonic() - start
    _criterion(1, elapsed < 10.0,
               "%d (p,n,colour) cases exactly equal in %.1fs (< 10s)"
               % (checked, elapsed))


# ---------------------------------------------------------------------------
# 2. Biane moments and the Denes count of minimal factorizations
# ---------------------------------------------------------------------------

def _brute_splitting_tuples(p):
    """Raw count of (p-1)-tuples of transpositions whose product splits
    the full p-cycle into p fixed points."""
    taus = []
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            im = list(range(1, p + 1))
            im[i - 1], im[j - 1] = j, i
            taus.append(tuple(im))
    cp = tuple(list(range(2, p + 1)) + [1])

    def num_cycles(perm):
        seen = [False] * p
        c = 0
        for s0 in range(p):
            if not seen[s0]:
                c += 1
                x = s0
                while not seen[x]:
                    seen[x] = True
                    x = perm[x] - 1
        return c

    count = 0
    for tup in itertools.product(taus, repeat=p - 1):
        perm = cp
        for t in tup:
            perm = tuple(perm[t[x] - 1] for x in range(p))
        if num_cycles(perm) == p:
            count += 1
    return count


def test_criterion_02_biane_moments_and_denes_counts():
    start = time.monotonic()
    for p in range(1, 6):
        assert biane_moment(p) == moment_of_word([(1, 1, False)] * p, 1), p
    for p in range(2, 7):
        assert _brute_splitting_tuples(p) == p ** (p - 2), p
    elapsed = time.monotonic() - start
    _criterion(2, elapsed < 30.0,
               "moments exact p<=5; brute-force tuple counts equal "
               "p^(p-2) up to p=6 in %.1fs (< 30s)" % elapsed)


# ---------------------------------------------------------------------------
# 3. finite generators converge to one exact limit with error <= C/d
# ---------------------------------------------------------------------------

GENERATOR_SEEDS = [
    ([(1, 1, False)], 1),
    ([(1, 1, False), (1, 1, False)], 1),
    ([(1, 1, True), (1, 1, False), (1, 1, False)], 1),
    ([(1, 2, False), (2, 1, False)], 2),
    ([(1, 1, False), (1, 2, False), (2, 2, True)], 2),
    ([(1, 1, False), (1, 2, False), (2, 2, False), (2, 1, False)], 2),
]


def _max_entry_gap(a, b):
    worst = Fraction(0)
    for ra, rb in zip(a.rows, b.rows):
        for j in set(ra) | set(rb):
            gap = abs(ra.get(j, Fraction(0)) - rb.get(j, Fraction(0)))
            worst = max(worst, gap)
    return worst


def test_criterion_03_generator_limits():
    C = Fraction(8)
    worst_scaled = Fraction(0)
    for tokens, n in GENERATOR_SEEDS:
        b, w = encode_word(tokens)
        ratios = square_ratios(n)
        basis = reachable_basis(b, w, ratios, "real")
        # one exact limit matrix serves the real and quaternionic
        # families alike; both finite generators must approach it
        limit = build_generator_limit(basis, w, ratios, "real")
        for d in (10 ** 2, 10 ** 3, 10 ** 4):
            for field in ("R", "H"):
                fin = build_generator_finite(basis, w, square_df(n, d),
                                             field)
                gap = _max_entry_gap(fin, limit)
                assert gap <= C / d, (tokens, d, field, float(gap))
                worst_scaled = max(worst_scaled, gap * d)
    _criterion(3, True,
               "R and H generators within C/d (C=8) of the common exact "
               "limit at d=1e2,1e3,1e4; worst d*err = %s" % worst_scaled)


# ---------------------------------------------------------------------------
# 4. compatible pairs: complex-limit rows equal real-limit rows, exact
# ---------------------------------------------------------------------------

def _limit_row(b, word, ratios, fclass):
    row = {}
    for _, r, kind in admissible_moves(b, word, ratios, fclass,
                                       creating_only=True):
        out = compose(r, b, ratios)
        val = Fraction(-1 if kind == "tau" else 1) * \
            _ratio_factor(b, out, ratios, False)
        row[out.diagram] = row.get(out.diagram, Fraction(0)) + val
    return row


def _random_single_colour_diagram(rng, k):
    pts = list(range(1, 2 * k + 1))
    rng.shuffle(pts)
    pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
    return ColouredBrauerDiagram(Pairing(k, pairs), [1] * (2 * k))


def test_criterion_04_compatible_pair_identity():
    rng = random.Random(104)
    ratios = DimensionFunction({1: Fraction(1, 2)})
    pairs_checked = 0
    for k in range(1, 5):
        for _ in range(12):
            b = _random_single_colour_diagram(rng, k)
            real_row = _limit_row(b, Word([WordLetter(1)] * k), ratios,
                                  "real")
            for w in compatible_words(b):
                assert is_compatible(b, w)
                assert _limit_row(b, w, ratios, "complex") == real_row, \
                    (b, w)
                for target in real_row:
                    assert is_compatible(target, w)
                pairs_checked += 1
    _criterion(4, True,
               "%d compatible pairs up to k=4: complex rows equal the "
               "word-blind real rows exactly" % pairs_checked)


# ---------------------------------------------------------------------------
# 5. Casimir element is the pinned scalar for every field, N <= 8
# ---------------------------------------------------------------------------

def test_criterion_05_casimir_scalar():
    worst = 0.0
    for field in ("R", "C", "H"):
        for N in range(1, 9):
            worst = max(worst, casimir_scalar_check(lie_basis(N, field)))
    _criterion(5, worst <= 1e-12,
               "sum H_k^2 within %.2e of (-1+(2-beta)/(beta N)) I "
               "(tolerance 1e-12)" % worst)


# ---------------------------------------------------------------------------
# 6. Monte-Carlo estimates match the exact finite-d semigroup
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_06_monte_carlo_vs_exact():
    samples, steps = 10 ** 4, 150
    letters = [(i, j, s) for i in (1, 2) for j in (1, 2)
               for s in (False, True)]
    words = []
    for k in (1, 2, 3):
        words += [list(t) for t in itertools.product(letters, repeat=k)]
    worst_z, worst_defect, n_checked = 0.0, 0.0, 0
    for cfg, (d, t) in enumerate(itertools.product((4, 8), (0.5, 1.0))):
        df = square_df(2, d)
        u = sample_terminals(2 * d, "C", t, samples, steps=steps,
                             seed=600 + cfg)
        worst_defect = max(worst_defect, unitarity_defect(u, "C"))
        uc = np.conj(u)
        for tokens in words:
            b, w = encode_word(tokens)
            vals = np.real(m_stat(
                b, [uc if star else u for _, _, star in tokens], df, "C"))
            mean = float(vals.mean())
            se = float(vals.std(ddof=1)) / math.sqrt(samples)
            exact = evolve_finite(b, w, t, df, "C")
            gap = abs(mean - exact)
            assert gap <= 4 * se + 1e-9, (tokens, d, t, mean, exact, se)
            if se > 0:
                worst_z = max(worst_z, gap / se)
            n_checked += 1
    _criterion(6, worst_defect <= 1e-10,
               "%d statistics (every k<=3 word, d in {4,8}, t in "
               "{0.5,1}) within 4se of exact; worst z=%.2f; unitarity "
               "defect %.1e <= 1e-10" % (n_checked, worst_z, worst_defect))


# ---------------------------------------------------------------------------
# 7. finite-d statistics converge monotonically to the limit at t = 1
# ---------------------------------------------------------------------------

CONVERGENCE_FAMILY = [
    [(1, 1, False)],
    [(1, 1, True), (1, 1, False)],
    [(1, 1, False)] * 3,
    [(1, 1, False)] * 4,
    [(1, 2, False), (2, 1, False)],
    [(1, 2, False), (2, 1, False), (1, 2, False), (2, 1, False)],
    [(1, 1, True), (1, 2, False), (2, 2, False), (2, 1, True)],
    [(1, 1, False), (1, 2, False), (2, 1, False)],
]


def test_criterion_07_square_extraction_convergence():
    worst_final = 0.0
    for tokens in CONVERGENCE_FAMILY:
        n = max(max(i, j) for i, j, _ in tokens)
        b, w = encode_word(tokens)
        lim = moment_of_word(tokens, n).value(1.0)
        for field in ("R", "C", "H"):
            deltas = [abs(evolve_finite(b, w, 1.0, square_df(n, d), field)
                          - lim) for d in (4, 8, 16, 32)]
            for a, b2 in zip(deltas, deltas[1:]):
                assert b2 <= a + 1e-12, (tokens, field, deltas)
            assert deltas[-1] <= 0.05, (tokens, field, deltas)
            worst_final = max(worst_final, deltas[-1])
    _criterion(7, True,
               "|finite - limit| non-increasing over d=4,8,16,32 for "
               "all fields; worst value at d=32 is %.4f (<= 0.05)"
               % worst_final)


# ---------------------------------------------------------------------------
# 8. diagram algebra: composition, twists, cycle-creation signs
# ---------------------------------------------------------------------------

def _all_pairings(k):
    def rec(rem):
        if not rem:
            yield []
            return
        a = rem[0]
        for idx in range(1, len(rem)):
            for tail in rec(rem[1:idx] + rem[idx + 1:]):
                yield [(a, rem[idx])] + tail
    for prs in rec(list(range(1, 2 * k + 1))):
        yield Pairing(k, prs)


def _is_permutation_diagram(p):
    return all((x <= p.k) != (y <= p.k) for x, y in p.pairs)


def _check_brauer_properties(pairings, k, df):
    ones = [1] * (2 * k)
    coloured = [ColouredBrauerDiagram(p, ones) for p in pairings]
    for p, b in zip(pairings, coloured):
        s = canonical_orientation(p)
        # twists: involutive, commuting, cycle-partition preserving;
        # the negative-sign twist set reaches a permutation diagram
        q = p
        for i in range(1, k + 1):
            assert twist(twist(p, i), i) == p
            assert cycle_partition(twist(p, i)) == cycle_partition(p)
            if s.sign(i) == -1:
                q = twist(q, i)
        assert _is_permutation_diagram(q), p
        for i, j in itertools.combinations(range(1, k + 1), 2):
            assert twist(twist(p, i), j) == twist(twist(p, j), i)
            # sign characterization of cycle creation
            for kind, r in (("tau", Pairing.tau(k, i, j)),
                            ("e", Pairing.e(k, i, j))):
                assert creates_cycle(r, p) == \
                    creates_cycle_sign(kind, i, j, p), (p, i, j, kind)
    # fundamental composition relation: stacked components split into
    # cycles of the product plus removed loops
    for b1, b2 in itertools.product(coloured, repeat=2):
        out = compose(b1, b2, df)
        removed = sum(out.loops.values())
        assert stack_components(b1.pairing, b2.pairing) == \
            nc(out.diagram.pairing) + removed, (b1, b2)


def test_criterion_08_brauer_algebra_properties():
    df = square_df(1)
    counts = []
    for k in range(1, 5):
        pairings = list(_all_pairings(k))
        counts.append(len(pairings))
        _check_brauer_properties(pairings, k, df)
    # k = 5 property-based on a seeded sample
    rng = random.Random(108)
    k = 5
    sample = []
    for _ in range(60):
        pts = list(range(1, 2 * k + 1))
        rng.shuffle(pts)
        sample.append(Pairing(k, [(pts[2 * i], pts[2 * i + 1])
                                  for i in range(k)]))
    _check_brauer_properties(sample, k, df)
    _criterion(8, True,
               "composition/twist/sign properties exhaustive on %s "
               "pairings (k<=4) and 60 random pairings at k=5, zero "
               "failures" % counts)


# ---------------------------------------------------------------------------
# 9. amalgamated layer: roundtrip, mixed-letter vanishing, rectangular sum
# ---------------------------------------------------------------------------

def test_criterion_09_amalgamated_layer():
    df = DimensionFunction({1: 2, 2: 3})
    rng_np = np.random.default_rng(109)
    mats = [rng_np.standard_normal((5, 5))
            + 1j * rng_np.standard_normal((5, 5)) for _ in range(4)]
    for k in range(1, 5):
        for pi in enumerate_nc(k):
            tot = np.zeros(2)
            for gamma in enumerate_nc(k):
                if gamma.leq(pi):
                    tot = tot + amalgamated_cumulant(gamma, mats[:k], df)
            assert np.all(np.abs(tot - e_pi(pi, mats[:k], df)) <= 1e-8), \
                (k, pi)
    ratios = DimensionFunction({1: Fraction(1, 4), 2: Fraction(3, 4)})
    for word in (Word([WordLetter(1), WordLetter(2)]),
                 Word([WordLetter(1), WordLetter(2), WordLetter(1)])):
        got = limit_cumulant_coefficient(
            one_nc(len(word)), (1,) * (len(word) + 1), word, ratios)
        assert got == MomentFunction.zero(), word
    rng = random.Random(109)
    sums_checked = 0
    for _ in range(5):
        k = rng.choice([2, 3])
        alpha = tuple(rng.randrange(1, 3) for _ in range(k + 1))
        eps = [rng.random() < 0.4 for _ in range(k)]
        w = Word(WordLetter(1, e) for e in eps)
        for pi in enumerate_nc(k):
            want = limit_statistic(pi, alpha, w, ratios)
            got = MomentFunction.zero()
            for beta in enumerate_nc(k):
                if beta.leq(pi):
                    got = got + limit_cumulant_coefficient(
                        beta, alpha, w, ratios)
            assert got == want, (alpha, eps, pi)
            sums_checked += 1
    _criterion(9, True,
               "Moebius roundtrip exact (1e-8) k<=4; mixed-letter "
               "c_(1_k) = 0; %d rectangular (1/4,3/4) sum identities "
               "exact" % sums_checked)


# ---------------------------------------------------------------------------
# 10. asymptotic freeness probe: mixed cumulants of disjoint increments
# ---------------------------------------------------------------------------

def _block_means(u, d):
    """Componentwise normalized block traces over the sample axis for
    two equal diagonal blocks of size d."""
    out = []
    for i in range(2):
        s = slice(i * d, (i + 1) * d)
        out.append(np.real(np.trace(u[:, s, s], axis1=-2, axis2=-1)) / d)
    return out


@pytest.mark.slow
def test_criterion_10_asymptotic_freeness_probe():
    samples, t1, t2 = 10 ** 4, 0.5, 0.5
    results = {}
    for N in (16, 32):
        d = N // 2
        v = sample_terminals(N, "C", t1, samples, steps=50, seed=1000 + N)
        w = sample_terminals(N, "C", t2, samples, steps=50, seed=2000 + N)
        vw = _block_means(v @ w, d)
        vm = _block_means(v, d)
        wm = _block_means(w, d)
        comps, ses = [], []
        for i in range(2):
            c2 = vw[i].mean() - vm[i].mean() * wm[i].mean()
            # delta-method standard error of the three-mean combination
            se = math.sqrt(
                vw[i].var(ddof=1)
                + (wm[i].mean() ** 2) * vm[i].var(ddof=1)
                + (vm[i].mean() ** 2) * wm[i].var(ddof=1)) \
                / math.sqrt(samples)
            comps.append(c2)
            ses.append(se)
        results[N] = (comps, ses)
    mag16 = max(abs(c) for c in results[16][0])
    mag32 = max(abs(c) for c in results[32][0])
    assert mag32 < mag16, (results[16][0], results[32][0])
    for c2, se in zip(*results[32]):
        assert abs(c2) <= 4 * se, (c2, se)
    _criterion(10, True,
               "mixed second amalgamated cumulants of disjoint "
               "increments shrink %.2e (N=16) -> %.2e (N=32), final "
               "within 4se of zero" % (mag16, mag32))
