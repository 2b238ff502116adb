"""Coloured Brauer diagrams, permutations and the word encoding.

A diagram of size k lives on the 2k points {1..k} (bottom row) and
{1'..k'} (top row); internally the primed point i' is stored as k+i.
The pairings read the point-to-partner matchings directly.  A word of
block entries is encoded as the cycle diagram of the full cycle, twisted
at its starred slots, with the block indices as colours.

Composition, loop counting and the other definitions of the diagram
algebra that the tests check the runtime routes against are in
mfe.reference; the oriented cycles of a diagram, which route each loop
of a trace, are in mfe.evaltrace.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class Permutation:
    """A bijection of {1..k} stored through its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("not a bijection of {1..k}")
        self.images = images

    @classmethod
    def identity(cls, k):
        return cls(range(1, k + 1))

    @classmethod
    def from_cycles(cls, k, cycles):
        images = list(range(1, k + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return cls(images)

    @property
    def k(self):
        return len(self.images)

    def __call__(self, x):
        return self.images[x - 1]

    def __mul__(self, other):
        """Composition self after other."""
        return Permutation(self.images[other.images[i] - 1] for i in range(self.k))

    def inverse(self):
        inv = [0] * self.k
        for i, y in enumerate(self.images):
            inv[y - 1] = i + 1
        return Permutation(inv)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%s)" % (self.images,)

    def cycles(self):
        seen, out = set(), []
        for start in range(1, self.k + 1):
            if start in seen:
                continue
            cyc, x = [], start
            while x not in seen:
                seen.add(x)
                cyc.append(x)
                x = self(x)
            out.append(tuple(cyc))
        return out

    def cycle_type(self):
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def num_cycles(self):
        return len(self.cycles())


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


class DimensionFunction:
    """Positive dimension (or limit-ratio) per colour 1..n."""

    __slots__ = ("dims", "_class")

    def __init__(self, dims):
        if isinstance(dims, dict):
            vals = dims
        else:
            vals = {i + 1: v for i, v in enumerate(dims)}
        self.dims = {c: Fraction(v) for c, v in vals.items()}
        if any(v <= 0 for v in self.dims.values()):
            raise ValueError("dimensions must be positive")
        # each colour's class, made once: a scan per colour would make
        # the classes quadratic in the number of colours
        least = {}
        for c in sorted(self.dims):
            least.setdefault(self.dims[c], c)
        self._class = {c: least[v] for c, v in self.dims.items()}

    @property
    def n(self):
        return len(self.dims)

    def value(self, colour):
        return self.dims[colour]

    def class_of(self, colour):
        """Canonical kernel-class representative: least colour of equal dim."""
        return self._class[colour]

    def classes(self):
        return sorted(set(self._class.values()))

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


def format_diagram(b: ColouredBrauerDiagram) -> str:
    k = b.k
    toks = []
    for x, y in b.pairing.pairs:
        cx, cy = b.colour(x), b.colour(y)
        col = "@%d" % cx if cx == cy else "@%d:%d" % (cx, cy)
        toks.append("(%s,%s)%s" % (_point_name(x, k), _point_name(y, k), col))
    return " ".join(toks)


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
