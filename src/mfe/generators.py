"""Moment generators on (diagram, word) bases.

A basis is the closure of a seed diagram under left multiplication by the
elementary diagrams the word admits.  On it the finite-dimension
generator has drift c_N^K per letter and off-diagonal entries given by
loop counts and fnc differences; the limit generator keeps only the
cycle- or loop-creating moves, with dimension ratios in place of
dimensions.  The Schuermann triple, an independent closed form for the
limit generator evaluated on words, is in mfe.reference.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .brauer import ColouredBrauerDiagram, Pairing, cycle_walk, square_df

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


# rows[i][j] is the coefficient of basis[j] in L(basis[i]); from the
# builders, basis[j] stands for its orbit's state
GeneratorMatrix = namedtuple("GeneratorMatrix", "basis rows")


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


def _state_codes(st, walk, k, class_pos, nclasses):
    """What the closure pass reads off the brauer.cycle_walk of a state
    it keeps, st being the flat state (the partners of the 2k points,
    top point i' at k + i - 1, then their colours): a code per slot,
    2s + 1 where its canonical sign is +1 and 2s where it is -1, s the
    least slot of its cycle; and the fnc exponent of each class, a cycle
    counting for the class of the colour at its least slot, whose sign
    is +1."""
    code = [0] * k
    exps = [0] * nclasses
    for slots, signs in walk:
        s = slots[0]
        exps[class_pos[st[2 * k + s]]] += 1
        for x, g in zip(slots, signs):
            code[x] = 2 * s + (g == 1)
    return code, tuple(exps)


def _orbit_key(st, walk, k, kinds, m):
    """The orbit key of the flat state st, read off its cycle walk: the
    key of st up to the slot permutations that keep each slot's kind,
    kinds[s] = its (letter, bar) class.  A cycle is read as the cyclic
    sequence of its slot visits, each visit one int of (kind, entered at
    bottom or top, colour in, colour out) with colours below m; its code
    is the least rotation of the sequence or of its reversal, which
    flips every visit.  The key is the sorted tuple of the cycle codes:
    equal keys are exactly the states that a kind-preserving slot
    permutation maps onto each other.
    """
    k2, k3 = 2 * k, 3 * k
    key = []
    for slots, signs in walk:
        fwd, rev = [], []
        for x, g in zip(slots, signs):
            bottom, top = st[k2 + x], st[k3 + x]
            up = ((2 * kinds[x]) * m + bottom) * m + top
            down = ((2 * kinds[x] + 1) * m + top) * m + bottom
            # sign +1: the walk enters the slot at its top point
            fwd.append(down if g == 1 else up)
            rev.append(up if g == 1 else down)
        rev.reverse()
        least = min(min(fwd), min(rev))
        key.append(min(tuple(c[i:] + c[:i])
                       for c in (fwd, rev)
                       for i in range(len(c)) if c[i] == least))
    key.sort()
    return tuple(key)


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
    permutations that keep each slot's letter and bar (_orbit_key).
    These commute with the tensor power of the motion, so the diagrams
    of an orbit share one trace, and their statistics differ only by
    the normalisation prod_cls base^fnc.  The first diagram met in an
    orbit represents it: its row is summed by target orbit, and each
    entry takes the fnc of the target's representative, which makes the
    lumped rows exact for any representative.  Every given state keeps
    its own state, and a product equal to a given state lands on it.

    A state is held as its flat tuple: the partners of the 2k points,
    top point i' at k + i - 1, then their colours.  A move is a local
    rewiring of it, equal to composing the elementary diagram of
    reference.matching_tau/matching_es onto the state.  With p and q the
    partners of i' and j', tau_ij pairs j' with p and i' with q unless
    p = j', and swaps the colours of i' and j'.  e_ij needs equal colours on i'
    and j' and is made once per top colour t: it removes one loop of
    their class when p = j', else it pairs p with q; then it pairs i'
    with j', both coloured t.  A diagram is built once per new state.
    Each given state and each other distinct product is walked once,
    by brauer.cycle_walk; with lump, _orbit_key reads its orbit off
    that walk.  Only a state that is kept has _state_codes read its fnc
    exponents and its creating moves off the walk: i and j lie on one
    cycle, with equal canonical signs for tau and opposite ones for e
    (the rule of reference.creates_cycle_sign).

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
    kind = {}
    kinds = [kind.setdefault((l.letter, l.bar), len(kind))
             for l in word.letters] if lump else None
    code_args = (k, class_pos, len(bases))
    key_args = (k, kinds, df.n + 1)
    walks = [cycle_walk(st, k) for st in flats]
    codes = [_state_codes(st, w, *code_args) for st, w in zip(flats, walks)]
    orbits = index
    if lump:
        orbits = {}
        for n, (st, w) in enumerate(zip(flats, walks)):
            orbits.setdefault(_orbit_key(st, w, *key_args), n)
    values = {}
    rows = []
    i = 0
    while i < len(states):
        st = flats[i]
        row = {i: diag}
        rows.append(row)
        code, fi = codes[i]
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
                nwalk = cycle_walk(nxt, k)
                okey = _orbit_key(nxt, nwalk, *key_args) if lump else key
                j = orbits.get(okey)
                if j is None:
                    j = orbits[okey] = len(states)
                    flats.append(nxt)
                    codes.append(_state_codes(nxt, nwalk, *code_args))
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
            fj = codes[j][1]
            vkey = (fj, fi, loop, si, tau)
            val = values.get(vkey)
            if val is None:
                val = slot[si]
                for c, (x, y) in enumerate(zip(fj, fi)):
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


def build_generator_finite(states, word, df, field, weights=None):
    """Finite-dimension generator on the closure of the given states
    under every admissible move, the given states first; exact rationals.
    Its states are orbits under the slot permutations that keep each
    slot's letter and bar, each held by its first diagram met, and each
    given state is a state of its own (see _sweep).

    Entry for a move r at slots (i, j):
      sign(r) * t_letter * (1/base_N) * prod_cls base_cls^(loops + dfnc)
    with base = dims (R, C) or -2 dims (H), base_N the matching total,
    summed over the moves into one orbit.  Returns the (basis, rows)
    pair of _sweep.
    """
    return GeneratorMatrix(*_sweep(
        list(states), word, df, field_class(field), _finite_rates(df, field),
        weights=weights, lump=True))


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
    word filters, and on a seed compatible with its word
    (reference.is_compatible) not at all: there a creating tau joins
    slots of equal bars and a creating e slots of opposite bars, which
    the complex filter admits too.  So the limit does not depend on the
    field.  Returns the (basis, rows) pair of _sweep.
    """
    return GeneratorMatrix(*_sweep(
        list(states), word, ratios, fclass, _limit_rates(ratios),
        creating_only=True, weights=weights, lump=True))


def square_ratios(n):
    """Equal block ratios 1/n for the square n-block limit."""
    return square_df(n, Fraction(1, n))
