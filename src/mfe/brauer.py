"""Coloured Brauer diagrams and their algebra.

A diagram of size k lives on the 2k points {1..k} (bottom row) and
{1'..k'} (top row); internally the primed point i' is stored as k+i.
Composition stacks the left factor over the right one, removes closed
loops and records them per dimension class.  Products vanish unless the
colours on every fused link agree exactly -- this is what makes the
representation b -> rho_d(b) multiplicative.

Every walk of a diagram graph reads the point-to-partner matchings of
the pairings directly: compose follows each strand across the fused
slots, join_count and nc follow the cycles that alternate between two
matchings, and the oriented cycles give the route of each loop.

The closure pass of mfe.generators does not call compose: it applies
each elementary move as a local rewiring of a state's partners.  compose
of matching_tau/matching_es onto the state is the reference that
rewiring is checked against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .ncpart import Permutation, SetPartition, partition_join


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


class Pairing:
    """Fixed-point-free involution of {1..k, 1'..k'}."""

    __slots__ = ("k", "pairs", "_match")

    def __init__(self, k, pairs):
        pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
        match = {}
        for x, y in pairs:
            if x == y:
                raise ValueError("fixed point %d" % x)
            match[x] = y
            match[y] = x
        if set(match) != set(range(1, 2 * k + 1)):
            raise ValueError("pairs do not cover the 2k points")
        self.k = k
        self.pairs = pairs
        self._match = match

    def match(self, x):
        return self._match[x]

    @classmethod
    @lru_cache(maxsize=None)
    def identity(cls, k):
        return cls(k, [(i, k + i) for i in range(1, k + 1)])

    @classmethod
    def from_permutation(cls, sigma: Permutation):
        """Permutation diagram: bottom i joined to top sigma(i)'."""
        k = sigma.k
        return cls(k, [(i, k + sigma(i)) for i in range(1, k + 1)])

    @classmethod
    @lru_cache(maxsize=None)
    def tau(cls, k, i, j):
        """Transposition diagram {i,j'},{j,i'}, identity elsewhere."""
        pairs = [(i, k + j), (j, k + i)]
        pairs += [(l, k + l) for l in range(1, k + 1) if l not in (i, j)]
        return cls(k, pairs)

    @classmethod
    @lru_cache(maxsize=None)
    def e(cls, k, i, j):
        """Projector diagram {i,j},{i',j'}, identity elsewhere."""
        pairs = [(i, j), (k + i, k + j)]
        pairs += [(l, k + l) for l in range(1, k + 1) if l not in (i, j)]
        return cls(k, pairs)

    def __eq__(self, other):
        return isinstance(other, Pairing) and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.k, self.pairs))

    def __repr__(self):
        return "Pairing(%d, %s)" % (self.k, list(self.pairs))


def _point_name(x, k):
    return str(x) if x <= k else "%d'" % (x - k)


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


class DimensionFunction:
    """Positive dimension (or limit-ratio) per colour 1..n."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        if isinstance(dims, dict):
            vals = dims
        else:
            vals = {i + 1: v for i, v in enumerate(dims)}
        self.dims = {c: Fraction(v) for c, v in vals.items()}
        if any(v <= 0 for v in self.dims.values()):
            raise ValueError("dimensions must be positive")

    @property
    def n(self):
        return len(self.dims)

    def value(self, colour):
        return self.dims[colour]

    def class_of(self, colour):
        """Canonical kernel-class representative: least colour of equal dim."""
        v = self.dims[colour]
        return min(c for c, w in self.dims.items() if w == v)

    def classes(self):
        return sorted({self.class_of(c) for c in self.dims})

    def __eq__(self, other):
        return isinstance(other, DimensionFunction) and self.dims == other.dims

    def __hash__(self):
        return hash(tuple(sorted(self.dims.items())))

    def __repr__(self):
        return "DimensionFunction(%s)" % (self.dims,)


def square_df(n, d=1):
    """n colours, all of dimension d (ratios with d=Fraction(1, n))."""
    return DimensionFunction({c: d for c in range(1, n + 1)})


class ColouredBrauerDiagram:
    __slots__ = ("pairing", "colours")

    def __init__(self, pairing: Pairing, colours):
        colours = tuple(colours)
        if len(colours) != 2 * pairing.k:
            raise ValueError("colouring has wrong length")
        self.pairing = pairing
        self.colours = colours

    @property
    def k(self):
        return self.pairing.k

    def colour(self, x):
        return self.colours[x - 1]

    def is_valid(self, df: DimensionFunction) -> bool:
        """Matched points must carry colours of equal dimension."""
        cols = self.colours
        return all(
            cols[x - 1] == cols[y - 1]
            or df.value(cols[x - 1]) == df.value(cols[y - 1])
            for x, y in self.pairing.pairs
        )

    def __eq__(self, other):
        return (
            isinstance(other, ColouredBrauerDiagram)
            and self.pairing == other.pairing
            and self.colours == other.colours
        )

    def __hash__(self):
        return hash((self.pairing, self.colours))

    def __repr__(self):
        return "parse(%r)" % format_diagram(self)


def identity_diagram(k, colours_bottom):
    """Identity pairing with c(i) = c(i') = colours_bottom[i-1]."""
    cols = tuple(colours_bottom)
    return ColouredBrauerDiagram(Pairing.identity(k), cols + cols)


def format_diagram(b: ColouredBrauerDiagram) -> str:
    k = b.k
    toks = []
    for x, y in b.pairing.pairs:
        cx, cy = b.colour(x), b.colour(y)
        col = "@%d" % cx if cx == cy else "@%d:%d" % (cx, cy)
        toks.append("(%s,%s)%s" % (_point_name(x, k), _point_name(y, k), col))
    return " ".join(toks)


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


def twist(b, i):
    """Tw_i: exchange i and i' inside their blocks (colours follow)."""
    if isinstance(b, Pairing):
        k = b.k
        swap = {i: k + i, k + i: i}
        pairs = [
            (swap.get(x, x), swap.get(y, y)) for x, y in b.pairs
        ]
        return Pairing(k, pairs)
    k = b.k
    p = twist(b.pairing, i)
    cols = list(b.colours)
    cols[i - 1], cols[k + i - 1] = cols[k + i - 1], cols[i - 1]
    return ColouredBrauerDiagram(p, cols)


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


class Orientation:
    """Signs on {1..k}, one consistent direction per loop of the graph."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        signs = tuple(signs)
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +-1")
        self.signs = signs

    def sign(self, i):
        return self.signs[i - 1]

    def __eq__(self, other):
        return isinstance(other, Orientation) and self.signs == other.signs

    def __hash__(self):
        return hash(self.signs)

    def __repr__(self):
        return "Orientation(%s)" % (self.signs,)


def _traverse(b: Pairing):
    """Canonical loop traversal.

    Per loop, starting at its least bottom point and leaving through the
    pairing edge, returns (cycle, signs) where cycle lists the bottom points
    in visit order and signs[i] = +1 iff the walk leaves bottom point i
    through its pairing edge.
    """
    k = b.k
    visited = set()
    out = []
    for m in range(1, k + 1):
        if m in visited:
            continue
        cycle, signs = [], {}
        pt, use_b = m, True
        while True:
            if pt <= k and pt not in signs:
                cycle.append(pt)
                signs[pt] = 1 if use_b else -1
                visited.add(pt)
            nxt = b.match(pt) if use_b else (pt + k if pt <= k else pt - k)
            use_b = not use_b
            pt = nxt
            if pt == m and use_b:
                break
        out.append((tuple(cycle), signs))
    return out


def canonical_orientation(b: Pairing) -> Orientation:
    signs = [0] * b.k
    for cycle, sg in _traverse(b):
        for i in cycle:
            signs[i - 1] = sg[i]
    return Orientation(signs)


def oriented_cycles(b: Pairing, s: Orientation):
    """Cycles of sigma_(b,s) with the signs the orientation induces.

    The orientation must agree with the canonical one up to reversing
    whole loops; reversing a loop reverses its cycle and flips its signs.
    """
    out = []
    for cycle, sg in _traverse(b):
        canon = [sg[i] for i in cycle]
        given = [s.sign(i) for i in cycle]
        if given == canon:
            out.append((tuple(cycle), {i: sg[i] for i in cycle}))
        elif given == [-x for x in canon]:
            rev = (cycle[0],) + tuple(reversed(cycle[1:]))
            out.append((rev, {i: -sg[i] for i in cycle}))
        else:
            raise ValueError("not an orientation of this diagram")
    return out


def sigma_of(b: Pairing, s: Orientation) -> Permutation:
    cycles = [list(c) for c, _ in oriented_cycles(b, s)]
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


class OrientedExtended:
    """Oriented extended diagram (the value of the diamond operation)."""

    __slots__ = ("diagram", "orientation", "loops")

    def __init__(self, diagram, orientation, loops=None):
        self.diagram = diagram
        self.orientation = orientation
        self.loops = dict(loops or {})

    def __repr__(self):
        return "OrientedExtended(%r, %r, %s)" % (
            self.diagram, self.orientation, self.loops)


def diamond(r: ColouredBrauerDiagram, b: ColouredBrauerDiagram,
            s: Orientation, df: DimensionFunction):
    """r diamond (b, s): compose and re-orient, inheriting the old sign at
    the minimum of each new cycle; loop variables are carried along."""
    comp = compose(r, b, df)
    if comp is Zero:
        return Zero
    result = comp.diagram
    canon = canonical_orientation(result.pairing)
    signs = list(canon.signs)
    for cycle, _ in _traverse(result.pairing):
        m = min(cycle)
        if s.sign(m) == -1:
            for i in cycle:
                signs[i - 1] = -signs[i - 1]
    return OrientedExtended(result, Orientation(signs), comp.loops)


def fnc(x, df: DimensionFunction, cls) -> int:
    """Loop count of the class plus the cycles it normalizes.

    A cycle counts for the class of c(m) when the orientation sign at its
    minimum m is +1, and for the class of c(m') when it is -1.
    """
    if isinstance(x, OrientedExtended):
        diagram, orient, loops = x.diagram, x.orientation, x.loops
    elif isinstance(x, tuple):
        diagram, orient = x
        loops = {}
    else:
        diagram, orient, loops = x, canonical_orientation(x.pairing), {}
    if cls not in df.classes():
        raise ValueError("unknown dimension class %r" % (cls,))
    total = loops.get(cls, 0)
    k = diagram.k
    for cycle, _ in _traverse(diagram.pairing):
        m = min(cycle)
        point = m if orient.sign(m) == 1 else m + k
        if df.class_of(diagram.colour(point)) == cls:
            total += 1
    return total


# ---------------------------------------------------------------------------
# elementary diagrams matched against a target, and the T/W subsets
# ---------------------------------------------------------------------------

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


def all_nonmixing_elementaries(k, n, kind):
    """Every non-mixing coloured tau_ij / e_ij of size k over n colours."""
    out = []
    for i, j in itertools.combinations(range(1, k + 1), 2):
        pairing = Pairing.tau(k, i, j) if kind == "tau" else Pairing.e(k, i, j)
        slots = [(i, j) if kind == "e" else (i, k + j),
                 (k + i, k + j) if kind == "e" else (j, k + i)]
        others = [l for l in range(1, k + 1) if l not in (i, j)]
        for cab in itertools.product(range(1, n + 1), repeat=2):
            for rest in itertools.product(range(1, n + 1), repeat=len(others)):
                cols = [0] * (2 * k)
                for (x, y), c in zip(slots, cab):
                    cols[x - 1] = cols[y - 1] = c
                for l, c in zip(others, rest):
                    cols[l - 1] = cols[k + l - 1] = c
                out.append(ColouredBrauerDiagram(pairing, cols))
    return out


def elementary_sets(b: ColouredBrauerDiagram, kind, df: DimensionFunction):
    """Subsets of elementary diagrams relative to b.

    kind: 'T+' / 'W+' (cycle-or-loop creating, gluable onto b),
          'T', 'W' (all gluable), with suffix '=' (diagonal colours),
          '!=' (exclusive colours).
    """
    n = df.n
    base = kind.rstrip("=!")
    suffix = kind[len(base):]
    out = []
    for i, j in itertools.combinations(range(1, b.k + 1), 2):
        if base.startswith("T"):
            cands = [matching_tau(b, i, j)]
        else:
            cands = matching_es(b, i, j, n)
        for r in cands:
            if base.endswith("+") and not creates_cycle(r.pairing, b.pairing):
                continue
            if base.startswith("T"):
                ca, cb = r.colour(i), r.colour(j)
            else:
                ca, cb = r.colour(i), r.colour(b.k + i)
            if suffix == "=" and ca != cb:
                continue
            if suffix in ("!", "!=") and ca == cb:
                continue
            out.append(((i, j), r))
    return out


# ---------------------------------------------------------------------------
# words on the generators u_ij^eps and their diagram encoding
# ---------------------------------------------------------------------------

class WordLetter:
    """One tensor slot: an independent-copy label and a conjugation bar."""

    __slots__ = ("letter", "bar")

    def __init__(self, letter=1, bar=False):
        self.letter = letter
        self.bar = bool(bar)

    def __eq__(self, other):
        return (isinstance(other, WordLetter)
                and (self.letter, self.bar) == (other.letter, other.bar))

    def __hash__(self):
        return hash((self.letter, self.bar))

    def __repr__(self):
        return "x%d%s" % (self.letter, "~" if self.bar else "")


class Word:
    __slots__ = ("letters",)

    def __init__(self, letters):
        self.letters = tuple(letters)

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "Word(%s)" % (list(self.letters),)


def twisted_cycle_diagram(sigma, stars, bottom, top):
    """The cycle diagram of the permutation sigma, twisted at the starred
    slots, with c(l) = bottom[l-1] and c(l') = top[l-1]."""
    pairing = Pairing.from_permutation(sigma.inverse())
    for l, star in enumerate(stars, start=1):
        if star:
            pairing = twist(pairing, l)
    return ColouredBrauerDiagram(pairing, list(bottom) + list(top))


def encode_word(tokens, letters=None):
    """Encode a word on the generators u_ij^eps as (diagram, word).

    tokens: sequence of (i, j, star) triples, the generator indices and
    conjugation flags in product order.  letters: optional per-slot
    independent-copy labels (defaults to a single copy).  The diagram is
    the cycle diagram twisted at the starred slots with c(l)=i_l,
    c(l')=j_l; the twist, not the colouring, accounts for the adjoint,
    so the colours always name the underlying block.  The word carries a
    bar per star.
    """
    tokens = list(tokens)
    if not tokens:
        raise ValueError("empty word")
    k = len(tokens)
    # bottom l is paired with top (l-1)': the column index of letter l-1
    # is identified with the row index of letter l, cyclically
    diagram = twisted_cycle_diagram(
        Permutation.from_cycles(k, [list(range(1, k + 1))]),
        [star for _, _, star in tokens], [i for i, _, _ in tokens],
        [j for _, j, _ in tokens])
    if letters is None:
        letters = [1] * k
    word = Word(WordLetter(letter, bool(star))
                for letter, (_, _, star) in zip(letters, tokens))
    return diagram, word
