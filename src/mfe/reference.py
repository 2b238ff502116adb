"""The paper's definitions and the cross-check routes, which only the
tests call.

Each runtime route is checked against a definition here: the closure
pass of mfe.generators, which applies each elementary move as a local
rewiring of a state's partners, against compose of matching_tau or
matching_es onto the state; the limit generator against the Schuermann
triple; the Moebius inversion of mfe.cumulants against the geodesic
Taylor coefficients and the closed forms; m_stat against the tensor
contraction rho_contract; the sampler's kernel against scipy through
expm.  Composition stacks the left factor over the right one, removes
closed loops and records them per dimension class.  Products vanish
unless the colours on every fused link agree exactly -- this is what
makes the representation b -> rho_d(b) multiplicative.  Oriented
diagrams are read in the one orientation that mfe.evaltrace gives them,
the canonical walk: sigma_of, creates_cycle_sign and the compatible
words read its cycles and signs.

No subcommand of mfe.cli imports this module, so a job that compiles
the package from source does not compile it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .brauer import (
    ColouredBrauerDiagram,
    DimensionFunction,
    Pairing,
    Permutation,
    Word,
    WordLetter,
    encode_word,
)
from .cumulants import Colourization, _block_functional, _product, \
    colour_act
from .evaltrace import (
    block_slices,
    canonical_orientation,
    fnc,
    oriented_cycles,
    quat_embed,
    sample_chunks,
    total_dim,
)
from .generators import (
    _class_bases,
    _limit_rates,
    _sweep,
    build_generator_limit,
    delta_diag,
    slot_allows,
    square_ratios,
)
from .moments import MomentFunction, evolve_limit, finite_evaluator
from .ncpart import (
    NonCrossingPartition,
    SetPartition,
    as_set_partition,
    enumerate_nc,
    mobius_nc,
    nc_to_permutation,
)
from .rmt import BETA, _SLOTS, _check_field, _chunk_len, _expm_chunk, \
    _side, _terminals


# ---------------------------------------------------------------------------
# the Brauer diagram algebra
# ---------------------------------------------------------------------------

class ZeroDiagram:
    """Sentinel for a vanishing product; absorbs further composition."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Zero"

    def __bool__(self):
        return False


Zero = ZeroDiagram()


def cycle_partition(b: Pairing) -> SetPartition:
    """b v 1 on the full 2k ground set; its blocks are the cycles of b."""
    ground = range(1, 2 * b.k + 1)
    as_partition = SetPartition(b.pairs, ground=ground)
    ident = SetPartition([(i, b.k + i) for i in range(1, b.k + 1)], ground=ground)
    return partition_join(as_partition, ident)


def join_count(b: Pairing, r: Pairing) -> int:
    """Number of blocks of the join b v r of the two pairings: the cycles
    of one walk that alternates between the two matchings."""
    mb, mr = b._match, r._match
    seen, count = set(), 0
    for x in range(1, 2 * b.k + 1):
        if x not in seen:
            count += 1
            while x not in seen:
                y = mb[x]
                seen.update((x, y))
                x = mr[y]
    return count


def nc(b: Pairing) -> int:
    """Number of cycles of b: the blocks of b v 1."""
    return join_count(b, Pairing.identity(b.k))


def stack_components(b1: Pairing, b2: Pairing) -> int:
    """Components of b1 stacked over b2 with the outer boundary closed up.

    Three rows of k points: bottom (of b2), middle (b2's top glued to b1's
    bottom) and top (of b1), plus vertical edges joining bottom i to top i.
    Satisfies stack_components = nc(b1 o b2) + number of removed loops.
    """
    k = b1.k
    ground = range(3 * k)  # 0..k-1 bottom, k..2k-1 middle, 2k..3k-1 top
    edges = []
    for x, y in b2.pairs:  # bottom/middle rows
        edges.append((x - 1, y - 1))
    for x, y in b1.pairs:  # middle/top rows
        edges.append((x - 1 + k, y - 1 + k))
    edges += [(i, 2 * k + i) for i in range(k)]
    parent = {x: x for x in ground}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(x) for x in ground})


def identity_diagram(k, colours_bottom):
    """Identity pairing with c(i) = c(i') = colours_bottom[i-1]."""
    cols = tuple(colours_bottom)
    return ColouredBrauerDiagram(Pairing.identity(k), cols + cols)


def parse_diagram(text: str) -> ColouredBrauerDiagram:
    toks = text.split()
    raw = []
    for tok in toks:
        body, _, col = tok.partition("@")
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError("bad pair token %r" % tok)
        a, b = body[1:-1].split(",")
        raw.append((a.strip(), b.strip(), col.strip()))
    k = len(raw)  # k pairs over 2k points

    def point(name, k):
        if name.endswith("'"):
            return k + int(name[:-1])
        return int(name)

    pairs, colmap = [], {}
    for a, b, col in raw:
        x, y = point(a, k), point(b, k)
        if ":" in col:
            ca, cb = (int(c) for c in col.split(":"))
        else:
            ca = cb = int(col)
        pairs.append((x, y))
        colmap[x], colmap[y] = ca, cb
    pairing = Pairing(k, pairs)
    return ColouredBrauerDiagram(pairing, [colmap[x] for x in range(1, 2 * k + 1)])


class ExtendedDiagram:
    """Diagram plus the multiset of removed loops, keyed by dimension class."""

    __slots__ = ("diagram", "loops")

    def __init__(self, diagram: ColouredBrauerDiagram, loops=None):
        self.diagram = diagram
        self.loops = dict(loops or {})
        if any(v < 0 for v in self.loops.values()):
            raise ValueError("negative loop multiplicity")

    def __eq__(self, other):
        return (
            isinstance(other, ExtendedDiagram)
            and self.diagram == other.diagram
            and self.loops == other.loops
        )

    def __hash__(self):
        return hash((self.diagram, tuple(sorted(self.loops.items()))))

    def __repr__(self):
        return "ExtendedDiagram(%r, loops=%s)" % (self.diagram, self.loops)


def compose(b1, b2, df: DimensionFunction):
    """Concatenation b1 o b2 (b1 stacked over b2) with loop extraction.

    Bottom slot i of b1 is fused to top slot i' of b2.  Each strand is
    walked on the two matchings, crossing a fused slot whenever it meets
    one, from a free end (a bottom point of b2 or a top point of b1) to
    the other; both ends keep their labels in the product.  The fused
    slots no strand crossed lie on closed loops, which are walked the
    same way and counted per dimension class of df.  Both operands must
    be valid under df; the caller checks that, as the product of valid
    diagrams glued on equal colours is valid again.  Returns an
    ExtendedDiagram, or Zero when a fused slot carries two different
    colours.
    """
    if b1 is Zero or b2 is Zero:
        return Zero
    if b1.k != b2.k:
        raise ValueError("size mismatch")
    k = b1.k
    if b1.colours[:k] != b2.colours[k:]:
        return Zero
    m1, m2 = b1.pairing._match, b2.pairing._match
    crossed = set()

    def walk(x, top):
        """Follow the strand from point x of b1 (top) or of b2 to its
        free end, or back to a crossed slot when it is a closed loop."""
        while True:
            y = m1[x] if top else m2[x]
            if (y > k) == top:
                return y
            slot = y if top else y - k
            if slot in crossed:
                return None
            crossed.add(slot)
            x, top = (y + k, False) if top else (slot, True)

    pairs, ends = [], set()
    for x in range(1, 2 * k + 1):
        if x not in ends:
            y = walk(x, x > k)
            ends.update((x, y))
            pairs.append((x, y))
    loops = {}
    for i in range(1, k + 1):
        if i not in crossed:
            crossed.add(i)
            walk(i, True)
            cls = df.class_of(b1.colours[i - 1])
            loops[cls] = loops.get(cls, 0) + 1
    result = ColouredBrauerDiagram(Pairing(k, pairs),
                                   b2.colours[:k] + b1.colours[k:])
    return ExtendedDiagram(result, loops)


def transpose_diagram(b):
    """b^t: every point replaced by its star."""
    if isinstance(b, Pairing):
        k = b.k
        st = lambda x: x + k if x <= k else x - k
        return Pairing(k, [(st(x), st(y)) for x, y in b.pairs])
    k = b.k
    p = transpose_diagram(b.pairing)
    cols = list(b.colours)
    cols = cols[k:] + cols[:k]
    return ColouredBrauerDiagram(p, cols)


def sigma_of(b: Pairing) -> Permutation:
    """The paper's permutation of b in its canonical orientation: each
    cycle of b, in the order the canonical walk visits its slots."""
    cycles = [list(c) for c, _ in oriented_cycles(b)]
    return Permutation.from_cycles(b.k, cycles)


def creates_cycle(r: Pairing, b: Pairing) -> bool:
    """True iff multiplying by the elementary diagram r gains a cycle/loop,
    i.e. nc(b v r) = nc(b v 1) + 1."""
    return join_count(b, r) == nc(b) + 1


def creates_cycle_sign(r_kind, i, j, b: Pairing) -> bool:
    """Sign characterization: valid when i and j share a cycle of b.

    For points in distinct cycles the elementary merges them instead.
    """
    cp = cycle_partition(b)
    if cp.index_map()[i] != cp.index_map()[j]:
        return False
    s = canonical_orientation(b)
    prod = s.sign(i) * s.sign(j)
    return prod == (-1 if r_kind == "e" else 1)


def matching_tau(b: ColouredBrauerDiagram, i, j):
    """The unique coloured tau_ij whose bottom glues onto b's top exactly."""
    k = b.k
    a, c = b.colour(k + i), b.colour(k + j)
    cols = [0] * (2 * k)
    for l in range(1, k + 1):
        if l not in (i, j):
            cols[l - 1] = cols[k + l - 1] = b.colour(k + l)
    cols[i - 1] = a
    cols[k + j - 1] = a  # pair {i, j'}
    cols[j - 1] = c
    cols[k + i - 1] = c  # pair {j, i'}
    return ColouredBrauerDiagram(Pairing.tau(k, i, j), cols)


def matching_es(b: ColouredBrauerDiagram, i, j, n):
    """All coloured e_ij gluing onto b's top: bottom colour is forced equal
    on both legs, the top colour ranges over the n colours."""
    k = b.k
    if b.colour(k + i) != b.colour(k + j):
        return []
    a = b.colour(k + i)
    out = []
    for t in range(1, n + 1):
        cols = [0] * (2 * k)
        for l in range(1, k + 1):
            if l not in (i, j):
                cols[l - 1] = cols[k + l - 1] = b.colour(k + l)
        cols[i - 1] = cols[j - 1] = a
        cols[k + i - 1] = cols[k + j - 1] = t
        out.append(ColouredBrauerDiagram(Pairing.e(k, i, j), cols))
    return out


# ---------------------------------------------------------------------------
# set partitions and permutations
# ---------------------------------------------------------------------------

def partition_join(p: SetPartition, q: SetPartition) -> SetPartition:
    """Smallest partition above both: transitive closure of the union."""
    if p.ground != q.ground:
        raise ValueError("mismatched ground sets")
    parent = {x: x for x in p.ground}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for part in (p, q):
        for b in part.blocks:
            for x in b[1:]:
                union(b[0], x)
    groups = {}
    for x in p.ground:
        groups.setdefault(find(x), []).append(x)
    return SetPartition(groups.values())


def zero_nc(k):
    return NonCrossingPartition([[i] for i in range(1, k + 1)])


def geodesic_distance(sigma: Permutation) -> int:
    """Minimal transposition-factorization length: k minus the cycle count."""
    return sigma.k - sigma.num_cycles()


def count_minimal_factorizations(sigma: Permutation) -> int:
    """Number of minimal-length ordered transposition factorizations.

    A cycle of length l contributes l^(l-2) factorizations of length l-1;
    independent cycles shuffle, giving the multinomial d!/prod (l_j - 1)!.
    """
    lengths = [l for l in sigma.cycle_type() if l >= 2]
    d = sum(l - 1 for l in lengths)
    count = math.factorial(d)
    for l in lengths:
        count //= math.factorial(l - 1)
        count *= l ** (l - 2)
    return count


def all_transpositions(k):
    return [Permutation.from_cycles(k, [[i, j]])
            for i, j in itertools.combinations(range(1, k + 1), 2)]


# ---------------------------------------------------------------------------
# elementary moves, the Schuermann triple and compatible words
# ---------------------------------------------------------------------------

def admissible_moves(b, word, df, fclass, creating_only=False):
    """All (slots, elementary, kind) gluable onto b that the word admits."""
    out = []
    for i in range(1, b.k + 1):
        for j in range(i + 1, b.k + 1):
            if slot_allows(word, i, j, "tau", fclass):
                r = matching_tau(b, i, j)
                if not creating_only or creates_cycle(r.pairing, b.pairing):
                    out.append(((i, j), r, "tau"))
            if slot_allows(word, i, j, "e", fclass):
                for r in matching_es(b, i, j, df.n):
                    if not creating_only or creates_cycle(
                            r.pairing, b.pairing):
                        out.append(((i, j), r, "e"))
    return out


def _ratio_factor(b, out, df, sign_scale):
    """Loop factor of the single move b -> out: the product over classes
    of base^(loops + fnc(b') - fnc(b)), recomputed from both diagrams as
    a per-move reference for the generator rows."""
    val = Fraction(1)
    for cls, base in _class_bases(df, sign_scale):
        val *= base ** (out.loops.get(cls, 0) + fnc(out.diagram, df, cls)
                        - fnc(b, df, cls))
    return val


def reachable_basis(seed, word, df, fclass):
    """BFS closure of the seed under admissible left multiplications."""
    return _sweep([seed], word, df, fclass, _limit_rates(df))[0]


def generator_free_process(tokens, n):
    """Limit generator evaluated on a word of the n x n unitary dual group.

    The value is the t-derivative at 0 of the word's limit moment:
    delta_diag contracted against the limit-generator row of the encoded
    seed diagram.
    """
    tokens = list(tokens)
    if not tokens:
        raise ValueError("empty word")
    seed, word = encode_word(tokens)
    gen = build_generator_limit([seed], word, square_ratios(n), "complex")
    return sum(v * delta_diag(gen.basis[j]) for j, v in gen.rows[0].items())


def _counit(tokens):
    """epsilon(u_ij^eps) = delta_ij, multiplicative on words."""
    val = Fraction(1)
    for i, j, _ in tokens:
        if i != j:
            return Fraction(0)
    return val


def _star_word(tokens):
    return [(i, j, not star) for i, j, star in reversed(tokens)]


def schurmann_eta(tokens, n):
    """Cocycle eta as an n x n rational matrix.

    On generators eta(u_ij) is the matrix unit E_ij and eta(u*_ij) is
    -E_ji; since the representation part is the counit times identity,
    eta(w) = sum_l eta(w_l) prod_{m != l} eps(w_m).
    """
    tokens = list(tokens)
    eta = [[Fraction(0)] * n for _ in range(n)]
    for l, (i, j, star) in enumerate(tokens):
        scale = Fraction(1)
        for m, tok in enumerate(tokens):
            if m != l:
                scale *= _counit([tok])
        if scale == 0:
            continue
        if star:
            eta[j - 1][i - 1] -= scale
        else:
            eta[i - 1][j - 1] += scale
    return eta


def _eta_inner(x, y, n):
    """<X, Y> = (1/n) Tr(X* Y) on real rational matrices."""
    total = Fraction(0)
    for a in range(n):
        for b in range(n):
            total += x[a][b] * y[a][b]
    return total / n


def schurmann_L(tokens, n):
    """Generator of the free unitary Brownian motion on a word.

    Extends L(u_ij^eps) = -delta_ij / 2 through
    L(a w) = L(a) eps(w) + eps(a) L(w) + <eta(a*), eta(w)>.
    """
    tokens = list(tokens)
    if not tokens:
        return Fraction(0)
    i, j, _ = tokens[0]
    head, rest = tokens[:1], tokens[1:]
    val = Fraction(-1, 2) if i == j else Fraction(0)
    if not rest:
        return val
    return (val * _counit(rest)
            + _counit(head) * schurmann_L(rest, n)
            + _eta_inner(schurmann_eta(_star_word(head), n),
                         schurmann_eta(rest, n), n))


def is_compatible(b, word):
    """Whether the word's bar pattern matches the diagram's orientation.

    Reading a bar as sign -1, the pattern must agree with the canonical
    orientation up to a global flip on each cycle of the diagram.
    """
    signs = [-1 if l.bar else 1 for l in word.letters]
    for cyc, canon in oriented_cycles(b.pairing):
        rel = {signs[i - 1] * canon[i] for i in cyc}
        if len(rel) > 1:
            return False
    return True


def compatible_words(b, letter=1):
    """All single-letter bar words compatible with the diagram.

    A sign vector s is admissible when on every cycle of the diagram it
    equals the canonical orientation or its negation; the word puts a bar
    exactly at the negative slots.
    """
    cycles = oriented_cycles(b.pairing)
    words = []
    for flips in itertools.product((1, -1), repeat=len(cycles)):
        signs = {i: fl * g for (_, sg), fl in zip(cycles, flips)
                 for i, g in sg.items()}
        words.append(Word(WordLetter(letter, bar=signs[i] == -1)
                          for i in range(1, b.k + 1)))
    return words


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def evolve_finite(seed, word, t, df, field, weights=None):
    """Expected statistic of the seed diagram at time t, dimension df."""
    return finite_evaluator(seed, word, df, field, weights).value(t)


def _restrict_to_cycle(b, word, slots):
    """Sub-diagram and sub-word on one union of cycles, slots re-indexed."""
    slots = sorted(slots)
    pos = {s: i + 1 for i, s in enumerate(slots)}
    k_new, k = len(slots), b.k
    pairs = []
    for x, y in b.pairing.pairs:
        bx = x if x <= k else x - k
        if bx not in pos:
            continue

        def conv(p):
            return pos[p] if p <= k else k_new + pos[p - k]

        pairs.append((conv(x), conv(y)))
    cols = [0] * (2 * k_new)
    for s in slots:
        cols[pos[s] - 1] = b.colour(s)
        cols[k_new + pos[s] - 1] = b.colour(k + s)
    sub = ColouredBrauerDiagram(Pairing(k_new, pairs), cols)
    sub_word = Word(word[s - 1] for s in slots)
    return sub, sub_word


def factorized_moment(b, word, ratios, fclass="real"):
    """Limit moment computed as a product over the diagram's cycles."""
    cp = cycle_partition(b.pairing)
    out = MomentFunction.constant(1)
    for block in cp.blocks:
        slots = sorted(p for p in block if p <= b.k)
        sub, sub_word = _restrict_to_cycle(b, word, slots)
        out = out * evolve_limit(sub, sub_word, ratios, fclass)
    return out


# ---------------------------------------------------------------------------
# cumulants
# ---------------------------------------------------------------------------

def increasing_transpositions(sigma: Permutation):
    """Transpositions whose right multiplication splits a cycle of sigma."""
    base = sigma.num_cycles()
    out = []
    for tau in all_transpositions(sigma.k):
        if (sigma * tau).num_cycles() == base + 1:
            out.append(tau)
    return out


def _as_permutation(pi):
    if isinstance(pi, Permutation):
        return pi
    if isinstance(pi, NonCrossingPartition):
        return nc_to_permutation(pi)
    return nc_to_permutation(NonCrossingPartition(pi))


def taylor_coeff(pi, kdx, col: Colourization, n) -> Fraction:
    """Taylor coefficient P^{pi,k}_{i,j} of the moment of a colourized
    word, through the splitting-transposition recursion."""
    sigma = _as_permutation(pi)
    p = col.p
    if sigma.k != p:
        raise ValueError("partition size does not match colourization")
    if not 0 <= kdx <= p - 1:
        raise ValueError("order out of range")
    return _taylor_rec(sigma, kdx, col.i, col.j, n)


def _taylor_rec(sigma, k, i, j, n):
    if k == 0:
        return Fraction(int(i == j))
    if k > geodesic_distance(sigma):
        return Fraction(0)
    total = Fraction(0)
    for tau in increasing_transpositions(sigma):
        total += _taylor_rec(sigma * tau, k - 1, i, colour_act(j, tau), n)
    return total / n


def taylor_coeff_geodesic(pi, kdx, col: Colourization, n) -> Fraction:
    """Same coefficient, summed over non-crossing refinements gamma of pi
    at geodesic distance kdx, weighted by minimal-factorization counts."""
    if isinstance(pi, Permutation):
        raise ValueError("the refinement route needs the partition itself")
    pi = pi if isinstance(pi, NonCrossingPartition) else \
        NonCrossingPartition(pi)
    p = col.p
    if pi.k != p:
        raise ValueError("partition size does not match colourization")
    if not 0 <= kdx <= p - 1:
        raise ValueError("order out of range")
    if kdx == 0:
        return Fraction(int(col.i == col.j))
    total = 0
    for gamma in enumerate_nc(p):
        if not gamma.leq(pi):
            continue
        sg = nc_to_permutation(gamma)
        if geodesic_distance(sg) != kdx:
            continue
        if colour_act(col.i, sg) == col.j:
            total += count_minimal_factorizations(sg)
    return Fraction(total, n ** kdx)


def moments_from_cumulants(cumulants, p):
    """Inverse relation: m_q = sum over NC(q) of products of cumulants."""
    kap = _block_functional(cumulants, p)
    out = []
    for q in range(1, p + 1):
        acc = None
        for pi in enumerate_nc(q):
            term = _product(kap(tuple(sorted(v))) for v in pi.blocks)
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


BIANE_BOUND = 6


def biane_moment(p):
    """Moment of the p-th power in the single-block limit,
    e^(-pt/2) sum_k (-t)^k/k! P_k, with P_k the number of k-step
    cycle-splitting transposition chains started at the full cycle."""
    if not 1 <= p <= BIANE_BOUND:
        raise ValueError("p out of the enumeration bound 1..%d"
                         % BIANE_BOUND)
    cp = Permutation.from_cycles(p, [list(range(1, p + 1))])
    counts = [0] * p

    def walk(sigma, k):
        counts[k] += 1
        if k + 1 < p:
            for tau in increasing_transpositions(sigma):
                walk(sigma * tau, k + 1)

    walk(cp, 0)
    coeffs = [Fraction((-1) ** k * counts[k], math.factorial(k))
              for k in range(p)]
    return MomentFunction({Fraction(-p, 2): coeffs})


# ---------------------------------------------------------------------------
# diagram operators and block projectors on explicit matrices
# ---------------------------------------------------------------------------

# The conditional expectation onto the block projectors keeps one
# normalized trace per diagonal block.  Their algebra D is commutative, so
# an element of D is held as a plain array of its block values, colours in
# increasing order on the last axis, after any leading sample axes; a
# product with it scales the rows or columns of each block.  Nesting the
# expectation along a non-crossing partition and applying a Moebius
# transformation gives the amalgamated cumulants of a tuple of matrices.

def materialize_rho(b, df):
    """Explicit matrix of the diagram operator on the k-fold tensor space.

    Row multi-index runs over the top points, column multi-index over the
    bottom ones.  An entry is 1 when, for every pair of the diagram, the
    two incident indices lie in the paired colour blocks with equal
    offsets.  Intended for small N and k only.
    """
    k = b.k
    # the colour block of each index, and the index's offset in that block
    where = [(c, i) for c, s in block_slices(df).items()
             for i in range(s.stop - s.start)]
    tuples = list(itertools.product(range(len(where)), repeat=k))
    rho = np.zeros((len(tuples), len(tuples)))
    for c, col in enumerate(tuples):
        for r, row in enumerate(tuples):
            # point i reads col[i-1], point k+i reads row[i-1]
            at = [None] + [where[i] for i in col + row]
            if all((at[x][0], at[y][0], at[x][1]) ==
                   (b.colour(x), b.colour(y), at[y][1])
                   for x, y in b.pairing.pairs):
                rho[r, c] = 1.0
    return rho


def rho_contract(b, mats, df):
    """Tr(rho(b) . A_1 (x) ... (x) A_k), the unnormalized statistic."""
    rho = materialize_rho(b, df)
    tensor = mats[0]
    for a in mats[1:]:
        tensor = np.kron(tensor, a)
    # Tr(rho . M) with M[col, row] products: rho rows are top indices
    return np.trace(rho @ tensor)


def cond_expectation(a, df):
    """E[A] = sum_i (1/d_i) Tr(p_i A p_i) p_i, with Re Tr over H.

    Returns the values 1/d_i Tr(p_i A p_i) as an array whose last axis
    runs over the colour blocks in increasing colour order; leading
    sample axes of `a` carry through.  A matrix of side 2n, twice that
    of the dimension function, is a quaternion matrix in its complex
    embedding, whose block traces are twice the quaternion ones in
    their real part; its values are real.
    """
    n = total_dim(df)
    if a.shape[-2:] not in ((n, n), (2 * n, 2 * n)):
        raise ValueError("matrix does not match the dimension function")
    scale = a.shape[-1] // n
    vals = np.stack([np.trace(a[..., s, s], axis1=-2, axis2=-1)
                     / (s.stop - s.start)
                     for s in block_slices(df, scale).values()], axis=-1)
    return vals.real if scale == 2 else vals


def _mat_product(mats):
    out = mats[0]
    for m in mats[1:]:
        out = out @ m
    return out


def e_pi(pi, mats, df):
    """Nested conditional expectation along a non-crossing partition, as
    an array of block values like that of cond_expectation.

    Innermost interval blocks are evaluated first.  Each value is
    repeated over its colour block's width (twice that for H), and these
    scale the columns of the factor left of the interval, or the rows of
    the factor right of it, which is the product with the block-diagonal
    matrix sum_i v_i p_i.  Matrices of side twice total_dim(df) are H
    matrices in their complex embedding, as for cond_expectation.
    Leading sample axes of the matrices carry through.
    """
    mats = list(mats)
    k = len(mats)
    scale = mats[0].shape[-1] // total_dim(df)
    widths = [s.stop - s.start for s in block_slices(df, scale).values()]
    part = as_set_partition(pi, k)
    if len(part.blocks) == 0 or \
            sorted(x for b in part.blocks for x in b) != list(range(1, k + 1)):
        raise ValueError("partition does not cover the factors")
    positions = list(range(1, k + 1))
    work = {p: mats[p - 1] for p in positions}
    blocks = [sorted(b) for b in part.blocks]
    while len(blocks) > 1:
        # find an interval block in the current position order
        for bi, blk in enumerate(blocks):
            idx = [positions.index(p) for p in blk]
            if idx != list(range(min(idx), min(idx) + len(blk))):
                continue
            diag = np.repeat(cond_expectation(
                _mat_product([work[p] for p in blk]), df), widths, axis=-1)
            lo = min(idx)
            if lo > 0:
                left = positions[lo - 1]
                work[left] = work[left] * diag[..., None, :]
            else:
                right = positions[lo + len(blk)]
                work[right] = diag[..., None] * work[right]
            for p in blk:
                positions.remove(p)
            blocks.pop(bi)
            break
        else:
            raise ValueError("no interval block: partition is crossing")
    last = blocks[0]
    return cond_expectation(
        _mat_product([work[p] for p in sorted(last)]), df)


def amalgamated_cumulant(pi, mats, df):
    """c_pi = sum_{gamma <= pi} mu(gamma, pi) E_gamma, as an array of
    block values like that of e_pi."""
    top = NonCrossingPartition(as_set_partition(pi, len(mats)).blocks)
    return sum(float(mobius_nc(gamma, top)) * e_pi(gamma, mats, df)
               for gamma in enumerate_nc(len(mats)) if gamma.leq(top))


# ---------------------------------------------------------------------------
# Lie algebra bases and sampled paths
# ---------------------------------------------------------------------------

def inner_product(field, N, x, y):
    """<X, Y>_N = (beta N / 2) Re Tr(X* Y), the quaternion trace being
    half the complex trace of the embedding."""
    beta = BETA[field]
    tr = float(np.trace(x.conj().T @ y).real)
    return beta * N / 2.0 * (tr / 2.0 if field == "H" else tr)


class LieBasis:
    """Orthonormal basis of the anti-Hermitian matrices over one of the
    three fields, under the inner product (beta N / 2) Re Tr(X* Y)."""

    def __init__(self, N, field, elements):
        self.N = N
        self.field = field
        self.elements = list(elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def expected_count(self):
        beta = BETA[self.field]
        n = self.N
        return n * (n - 1) // 2 + (beta - 1) * n * (n + 1) // 2

    def gram_defect(self):
        """Largest deviation of the Gram matrix from the identity."""
        worst = 0.0
        for a, x in enumerate(self.elements):
            for b, y in enumerate(self.elements):
                got = inner_product(self.field, self.N, x, y)
                worst = max(worst, abs(got - (1.0 if a == b else 0.0)))
        return worst


def lie_basis(N, field) -> LieBasis:
    """Orthonormal anti-Hermitian basis: antisymmetric pairs, symmetric
    pairs times each imaginary unit, and imaginary diagonal elements."""
    _check_field(field)
    if N < 1:
        raise ValueError("N must be positive")
    out = []
    if field == "R":
        a = 1.0 / math.sqrt(N)
        for i in range(N):
            for j in range(i + 1, N):
                m = np.zeros((N, N))
                m[i, j], m[j, i] = a, -a
                out.append(m)
    elif field == "C":
        a = 1.0 / math.sqrt(2 * N)
        for i in range(N):
            for j in range(i + 1, N):
                m = np.zeros((N, N), dtype=complex)
                m[i, j], m[j, i] = a, -a
                out.append(m)
                m = np.zeros((N, N), dtype=complex)
                m[i, j] = m[j, i] = 1j * a
                out.append(m)
        for j in range(N):
            m = np.zeros((N, N), dtype=complex)
            m[j, j] = 1j / math.sqrt(N)
            out.append(m)
    else:
        a = 1.0 / (2.0 * math.sqrt(N))
        for i in range(N):
            for j in range(i + 1, N):
                m = np.zeros((N, N, 4))
                m[i, j, 0], m[j, i, 0] = a, -a
                out.append(m)
                for unit in (1, 2, 3):
                    m = np.zeros((N, N, 4))
                    m[i, j, unit] = m[j, i, unit] = a
                    out.append(m)
        for j in range(N):
            for unit in (1, 2, 3):
                m = np.zeros((N, N, 4))
                m[j, j, unit] = 1.0 / math.sqrt(2 * N)
                out.append(m)
        out = [quat_embed(m) for m in out]
    basis = LieBasis(N, field, out)
    assert len(basis) == basis.expected_count()
    return basis


def casimir_constant(field, N):
    """Scalar c with sum_k H_k^2 = c I: c = -1 + (2 - beta)/(beta N)."""
    beta = BETA[field]
    return -1.0 + (2.0 - beta) / (beta * N)


def casimir_scalar_check(basis: LieBasis):
    """Max-norm deviation of sum_k H_k^2 from its scalar value."""
    N, field = basis.N, basis.field
    total = sum(h @ h for h in basis)
    want = casimir_constant(field, N) * np.eye(_side(field, N))
    return float(np.abs(total - want).max())


def expm(a):
    """e^a for every matrix of a batch of shape (samples, n, n), float64
    or complex128.

    Scaling and squaring with a truncated Taylor series of one degree
    per chunk of _CHUNK entries.  The degree and the number of squarings
    come from alpha = max(||a^4||_F^(1/4), ||a^5||_F^(1/5)) in the
    Frobenius norm, the fifth root bounded by (||a^4||_F ||a||_F)^(1/5),
    the largest over the chunk.  alpha is at most the Frobenius norm, and
    for the normal matrices of a Lie algebra at least the spectral radius
    and near it, so the degree is never higher than the Frobenius norm
    would give.  Complex matrices of the sides in _REAL_SIDES are
    multiplied as one float64 product (see `_mul`).

    Raises ValueError for a Frobenius norm above 2^52 * 1.504, or one
    that is not finite, where the squarings would leave no correct digit.
    """
    a = np.asarray(a)
    step = _chunk_len(a.shape[-1])
    out = np.empty_like(a)
    for i in range(0, len(a), step):
        c = a[i:i + step]
        p = np.empty((_SLOTS,) + c.shape, a.dtype)
        p[0] = c
        out[i:i + step] = _expm_chunk(p)
    return out


def sample_terminals(N, field, t, samples, steps=None, seed=0):
    """Terminal matrices of `samples` independent Brownian paths.

    Returns an array of shape (samples, N, N) for R and C, and the
    complex embedding, of shape (samples, 2N, 2N), for H.  Without
    `steps`, takes DEFAULT_STEPS * t steps, rounded, at least one.
    Raises ValueError past MAX_STEPS steps.
    """
    return _terminals(N, field, [t], samples, steps, seed)[0]


def unitarity_defect(u, field):
    """Largest entry of U U* - 1 over a batch of shape (..., n, n), the
    same for every field: H matrices come as their complex embedding.
    The batch is taken in the chunks of `sample_chunks`."""
    n = u.shape[-1]
    u = u.reshape((-1, n, n))
    eye = np.eye(n)
    return float(np.max([
        np.abs(c @ np.conj(np.swapaxes(c, -1, -2)) - eye).max()
        for c in (u[r] for r in sample_chunks(len(u), n * n))]))
