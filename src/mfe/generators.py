"""Moment generators on (diagram, word) bases.

A basis is the closure of a seed diagram under left multiplication by the
elementary diagrams the word admits.  On it the finite-dimension
generator has drift c_N^K per letter and off-diagonal entries given by
loop counts and fnc differences; the limit generator keeps only the
cycle- or loop-creating moves, with dimension ratios in place of
dimensions.  The Schuermann triple gives an independent closed form for
the limit generator evaluated on words.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .brauer import (
    ColouredBrauerDiagram,
    DimensionFunction,
    canonical_orientation,
    creates_cycle,
    encode_word,
    fnc,
    matching_es,
    matching_tau,
    oriented_cycles,
    Pairing,
    Word,
    WordLetter,
)

BASIS_BOUND = 20000


def field_class(field):
    return "complex" if field in ("C", "complex") else "real"


def slot_allows(word, i, j, kind, fclass):
    """Word filter for an elementary move joining slots i and j.

    Real-like processes need the same letter on both slots; the complex
    process additionally needs equal bars for transpositions and opposite
    bars for projections.
    """
    wi, wj = word[i - 1], word[j - 1]
    if wi.letter != wj.letter:
        return False
    if fclass == "real":
        return True
    if kind == "tau":
        return wi.bar == wj.bar
    return wi.bar != wj.bar


def delta_diag(b: ColouredBrauerDiagram) -> int:
    """Indicator of diagonally coloured diagrams: c(i) = c(i') for all i."""
    k = b.k
    return int(all(b.colour(i) == b.colour(k + i) for i in range(1, k + 1)))


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


class GeneratorMatrix:
    """Generator as sparse rows of exact rationals over an ordered basis.

    rows[i][j] is the coefficient of basis[j] in L(basis[i]); from the
    builders, basis[j] stands for its orbit's state, and index finds a
    diagram only where it holds a state.
    """

    def __init__(self, basis, word, rows):
        self.basis = list(basis)
        self.word = word
        self.rows = [dict(r) for r in rows]
        self._index = {b: i for i, b in enumerate(self.basis)}

    def index(self, b):
        return self._index[b]

    def entry(self, i, j):
        return self.rows[i].get(j, Fraction(0))

    @property
    def size(self):
        return len(self.basis)

    def __repr__(self):
        return "GeneratorMatrix(size=%d, word=%r)" % (self.size, self.word)


def casimir_drift(field, total_n):
    """Drift scalar c_N^K, half the Casimir eigenvalue on K^N."""
    n = Fraction(total_n)
    if field == "C":
        return Fraction(-1, 2)
    if field == "R":
        return -(n - 1) / (2 * n)
    if field == "H":
        return -(2 * n + 1) / (4 * n)
    raise ValueError("unknown field %r" % (field,))


def _weight(weights, letter):
    if weights is None:
        return Fraction(1)
    return Fraction(weights[letter])


def _class_bases(df, quat):
    """(class, base) per dimension class: the class dimension (or ratio),
    negated and doubled for the quaternionic scale."""
    return [(cls, -2 * df.value(cls) if quat else df.value(cls))
            for cls in df.classes()]


def _ratio_factor(b, out, df, sign_scale):
    """Loop factor of the single move b -> out: the product over classes
    of base^(loops + fnc(b') - fnc(b)), recomputed from both diagrams as
    a per-move reference for the generator rows."""
    val = Fraction(1)
    for cls, base in _class_bases(df, sign_scale):
        val *= base ** (out.loops.get(cls, 0) + fnc(out.diagram, df, cls)
                        - fnc(b, df, cls))
    return val


def _finite_rates(df, field):
    """Drift c_N^K, class bases and the 1/base_N scale of the finite
    generator, base = dims (R, C) or -2 dims (H)."""
    total_n = sum(int(v) for v in df.dims.values())
    quat = field == "H"
    base_n = Fraction(-2 * total_n if quat else total_n)
    return casimir_drift(field, total_n), _class_bases(df, quat), 1 / base_n


def _limit_rates(ratios):
    """Drift -1/2 and the ratio bases of the limit generator."""
    return Fraction(-1, 2), _class_bases(ratios, False), Fraction(1)


def _cycle_walk(st, k, class_pos, nclasses):
    """One walk of the cycles of b v 1, read off the flat state st (the
    partners of the 2k points, top point i' at k + i - 1, then their
    colours).  Returns a code per slot, 2m + 1 where its canonical sign is
    +1 and 2m where it is -1, m the least slot of its cycle (0-based), and
    the fnc exponent of each class: a cycle counts for the class of the
    colour at its least slot, whose sign is +1."""
    code = [-1] * k
    exps = [0] * nclasses
    for s in range(k):
        if code[s] < 0:
            exps[class_pos[st[2 * k + s]]] += 1
            x = s
            while True:
                if x < k:
                    code[x] = 2 * s + 1
                y = st[x]
                if y < k:
                    code[y] = 2 * s
                    x = y + k
                else:
                    x = y - k
                if x == s:
                    break
    return code, tuple(exps)


def _orbit_code(st, k, kinds, m):
    """Key of the flat state st up to the slot permutations that keep
    each slot's kind, kinds[s] = its (letter, bar) class.

    A cycle of b v 1 is read as the cyclic sequence of its slot visits,
    each visit one int of (kind, entered at bottom or top, colour in,
    colour out) with colours below m; its code is the least rotation of
    the sequence or of its reversal, which flips every visit.  The key
    is the sorted tuple of the cycle codes: equal keys are exactly the
    states that a kind-preserving slot permutation maps onto each other.
    """
    k2 = 2 * k
    seen = [False] * k
    codes = []
    for s in range(k):
        if seen[s]:
            continue
        fwd, rev = [], []
        x = s
        while True:
            if x < k:
                slot, out, d = x, x + k, 0
            else:
                slot, out, d = x - k, x - k, 1
            seen[slot] = True
            a, b = st[k2 + x], st[k2 + out]
            fwd.append(((2 * kinds[slot] + d) * m + a) * m + b)
            rev.append(((2 * kinds[slot] + 1 - d) * m + b) * m + a)
            x = st[out]
            if x == s:
                break
        rev.reverse()
        lo = min(min(fwd), min(rev))
        codes.append(min(tuple(c[i:] + c[:i])
                         for c in (fwd, rev)
                         for i in range(len(c)) if c[i] == lo))
    codes.sort()
    return tuple(codes)


def _sweep(states, word, df, fclass, rates, creating_only=False,
           weights=None, join=None, lump=False):
    """The closure-and-generator pass behind every exact route.

    Walks `states` in order and applies each admissible move to each
    state once; a new product is appended, so the walk is the
    breadth-first closure of the given states in discovery order.
    Meeting more than BASIS_BOUND distinct diagrams, given or produced,
    is an error: each lies in the reachable basis.  Each given state is
    checked valid under df once; products of valid states glued on equal
    colours stay valid, so the states found are not re-checked.

    With lump, a state is an orbit of diagrams under the slot
    permutations that keep each slot's letter and bar (_orbit_code).
    These commute with the tensor power of the motion, so the diagrams
    of an orbit share one trace, and their statistics differ only by
    the normalisation prod_cls base^fnc.  The first diagram met in an
    orbit represents it: its row is summed by target orbit, and each
    entry takes the fnc of the target's representative, which makes the
    lumped rows exact for any representative.  Every given state keeps
    its own state, and a product equal to a given state lands on it;
    the orbit code is computed once per other distinct product.

    A state is held as its flat tuple: the partners of the 2k points,
    top point i' at k + i - 1, then their colours.  A move is a local
    rewiring of it, equal to composing the elementary diagram of
    matching_tau/matching_es onto the state.  With p and q the partners
    of i' and j', tau_ij pairs j' with p and i' with q unless p = j',
    and swaps the colours of i' and j'.  e_ij needs equal colours on i'
    and j' and is made once per top colour t: it removes one loop of
    their class when p = j', else it pairs p with q; then it pairs i'
    with j', both coloured t.  A diagram is built once per new state.
    The creating moves come from one walk of the state's cycles: i and j
    lie on one cycle, with equal canonical signs for tau and opposite
    ones for e (the rule of creates_cycle_sign).

    From rates = (drift, bases, scale) the pass fills the generator
    rows: drift times the total letter weight on the diagonal, and per
    move sign * weight * scale * prod_cls base^(loops + fnc(b') - fnc(b)),
    looked up by the integer fnc exponents of both states.  With join, a
    state is a (diagram, label) pair and the move at slots (i, j) leads
    to (product, join(label, i, j)).  Returns (states, rows).
    """
    diagrams = states if join is None else [b for b, _ in states]
    k = diagrams[0].k
    if len(word) != k:
        raise ValueError("word length does not match diagram size")
    if not all(b.is_valid(df) for b in diagrams):
        raise ValueError("diagram invalid under the dimension function")
    drift, bases, scale = rates
    pos = {cls: i for i, (cls, _) in enumerate(bases)}
    class_pos = {c: pos[df.class_of(c)] for c in df.dims}
    diag = drift * sum(_weight(weights, l.letter) for l in word.letters)
    slot = [scale * _weight(weights, l.letter) for l in word.letters]
    moves = [(si, sj, slot_allows(word, si + 1, sj + 1, "tau", fclass),
              slot_allows(word, si + 1, sj + 1, "e", fclass))
             for si in range(k) for sj in range(si + 1, k)]
    k2 = 2 * k
    flats = [tuple(b.pairing.match(x) - 1 for x in range(1, k2 + 1))
             + b.colours for b in diagrams]
    labels = None if join is None else [lab for _, lab in states]
    index = {key: n for n, key in enumerate(
        flats if join is None else zip(flats, labels))}
    fncs = [_cycle_walk(st, k, class_pos, len(bases))[1] for st in flats]
    orbits = index
    if lump:
        kind = {}
        kinds = [kind.setdefault((l.letter, l.bar), len(kind))
                 for l in word.letters]
        ncol = df.n + 1
        orbits = {}
        for n, st in enumerate(flats):
            orbits.setdefault(_orbit_code(st, k, kinds, ncol), n)
    values = {}
    rows = []
    i = 0
    while i < len(states):
        st = flats[i]
        row = {i: diag}
        rows.append(row)
        if creating_only:
            code = _cycle_walk(st, k, class_pos, len(bases))[0]
        out = []
        for si, sj, tau_ok, e_ok in moves:
            if creating_only:
                tau_ok = tau_ok and code[si] == code[sj]
                e_ok = e_ok and code[si] ^ 1 == code[sj]
            ti, tj = k + si, k + sj
            p, q = st[ti], st[tj]
            if tau_ok:
                n = list(st)
                if p != tj:
                    n[p], n[tj], n[q], n[ti] = tj, p, ti, q
                n[k2 + ti], n[k2 + tj] = st[k2 + tj], st[k2 + ti]
                out.append((tuple(n), si, sj, -1, True))
            if e_ok and st[k2 + ti] == st[k2 + tj]:
                n = list(st)
                loop = -1
                if p == tj:
                    loop = class_pos[st[k2 + ti]]
                else:
                    n[p], n[q], n[ti], n[tj] = q, p, tj, ti
                for t in range(1, df.n + 1):
                    n[k2 + ti] = n[k2 + tj] = t
                    out.append((tuple(n), si, sj, loop, False))
        fi = fncs[i]
        for nxt, si, sj, loop, tau in out:
            if join is None:
                key = nxt
            else:
                lab = join(labels[i], si + 1, sj + 1)
                key = (nxt, lab)
            j = index.get(key)
            if j is None:
                if len(index) >= BASIS_BOUND:
                    raise ValueError(
                        "reachable basis exceeds %d" % BASIS_BOUND)
                okey = _orbit_code(nxt, k, kinds, ncol) if lump else key
                j = orbits.get(okey)
                if j is None:
                    j = orbits[okey] = len(states)
                    flats.append(nxt)
                    fncs.append(
                        _cycle_walk(nxt, k, class_pos, len(bases))[1])
                    d = ColouredBrauerDiagram(
                        Pairing(k, [(x + 1, y + 1) for x, y in
                                    enumerate(nxt[:k2]) if x < y]),
                        nxt[k2:])
                    if join is None:
                        states.append(d)
                    else:
                        labels.append(lab)
                        states.append((d, lab))
                index[key] = j
            vkey = (fncs[j], fi, loop, si, tau)
            val = values.get(vkey)
            if val is None:
                val = slot[si]
                for c, (x, y) in enumerate(zip(fncs[j], fi)):
                    m = x - y + (c == loop)
                    if m:
                        val *= bases[c][1] ** m
                val = values[vkey] = -val if tau else val
            if j in row:
                row[j] += val
            else:
                row[j] = val
        i += 1
    return states, rows


def reachable_basis(seed, word, df, fclass):
    """BFS closure of the seed under admissible left multiplications."""
    return _sweep([seed], word, df, fclass, _limit_rates(df))[0]


def build_generator_finite(states, word, df, field, weights=None):
    """Finite-dimension generator on the closure of the given states
    under every admissible move, the given states first; exact rationals.
    Its states are orbits under the slot permutations that keep each
    slot's letter and bar, each held by its first diagram met, and each
    given state is a state of its own (see _sweep).

    Entry for a move r at slots (i, j):
      sign(r) * t_letter * (1/base_N) * prod_cls base_cls^(loops + dfnc)
    with base = dims (R, C) or -2 dims (H), base_N the matching total,
    summed over the moves into one orbit.
    """
    states, rows = _sweep(list(states), word, df, field_class(field),
                          _finite_rates(df, field), weights=weights,
                          lump=True)
    return GeneratorMatrix(states, word, rows)


def build_generator_limit(states, word, ratios, fclass="real",
                          weights=None):
    """Large-dimension limit generator on the closure of the given
    states under the creating moves, the given states first: drift -1/2
    per weighted letter and only the cycle- or loop-creating moves,
    weighted by ratio factors.

    The limit generator has no other moves, so a seed's row orbit never
    leaves this closure: it has Catalan rather than factorial size in
    the word length, and the limit moment on it is the one on the full
    reachable basis.  Its states are orbits of diagrams, as in
    build_generator_finite: the closure of u11^k has one per partition
    of k.  Built identically for the limits of the real and
    quaternionic processes; the complex variant differs only through the
    word filters.
    """
    states, rows = _sweep(list(states), word, ratios, fclass,
                          _limit_rates(ratios), creating_only=True,
                          weights=weights, lump=True)
    return GeneratorMatrix(states, word, rows)


def square_ratios(n):
    """Equal block ratios 1/n for the square n-block limit."""
    return DimensionFunction({c: Fraction(1, n) for c in range(1, n + 1)})


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


# ---------------------------------------------------------------------------
# Schuermann triple of the free unitary Brownian motion
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# compatible (diagram, word) pairs
# ---------------------------------------------------------------------------

def is_compatible(b, word):
    """Whether the word's bar pattern matches the diagram's orientation.

    Reading a bar as sign -1, the pattern must agree with the canonical
    orientation up to a global flip on each cycle of the diagram.
    """
    signs = [-1 if l.bar else 1 for l in word.letters]
    canon = canonical_orientation(b.pairing)
    for cyc, _ in oriented_cycles(b.pairing, canon):
        rel = {signs[i - 1] * canon.sign(i) for i in cyc}
        if len(rel) > 1:
            return False
    return True


def compatible_words(b, letter=1):
    """All single-letter bar words compatible with the diagram.

    A sign vector s is admissible when on every cycle of the diagram it
    equals the canonical orientation or its negation; the word puts a bar
    exactly at the negative slots.
    """
    s = canonical_orientation(b.pairing)
    cycles = [c for c, _ in oriented_cycles(b.pairing, s)]
    words = []
    for flips in product((1, -1), repeat=len(cycles)):
        signs = list(s.signs)
        for cyc, fl in zip(cycles, flips):
            if fl == -1:
                for i in cyc:
                    signs[i - 1] = -signs[i - 1]
        words.append(Word(WordLetter(letter, bar=(x == -1)) for x in signs))
    return words
