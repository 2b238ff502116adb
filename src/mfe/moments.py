"""Moment functions of block trace statistics.

Finite-dimension expectations and large-dimension limits are solved
exactly by one solver: the Krylov orbit of the seed row under the
generator is finite, its annihilator polynomial factors over the
rationals, and matching Taylor coefficients yields a closed form
sum_rate e^(rate t) * polynomial(t) with rational data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .brauer import encode_word
from .generators import (
    build_generator_finite,
    build_generator_limit,
    delta_diag,
    square_ratios,
)


class MomentFunction:
    """Exact function t -> sum over rates of e^(rate t) * poly(t).

    terms maps a rational rate to the list of polynomial coefficients
    c_0..c_m (rationals).  Most moments carry a single rate; starred
    words over several colours can genuinely mix rates.
    """

    def __init__(self, terms):
        clean = {}
        for rate, coeffs in terms.items():
            # Fraction(c) of a Fraction rebuilds it, which products of
            # many moment functions pay for every coefficient
            cs = [c if isinstance(c, Fraction) else Fraction(c)
                  for c in coeffs]
            while cs and cs[-1] == 0:
                cs.pop()
            if cs:
                clean[rate if isinstance(rate, Fraction)
                      else Fraction(rate)] = cs
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        return cls({0: [Fraction(c)]})

    @classmethod
    def exponential(cls, rate, coeffs=(1,)):
        return cls({Fraction(rate): list(coeffs)})

    @property
    def rate(self):
        if not self.terms:
            return Fraction(0)
        if len(self.terms) > 1:
            raise ValueError("moment function mixes several rates")
        return next(iter(self.terms))

    @property
    def coeffs(self):
        if not self.terms:
            return [Fraction(0)]
        if len(self.terms) > 1:
            raise ValueError("moment function mixes several rates")
        return list(next(iter(self.terms.values())))

    def degree(self):
        return max((len(c) - 1 for c in self.terms.values()), default=0)

    def value(self, t):
        if t < 0:
            raise ValueError("negative time")
        t = float(t)
        total = 0.0
        for rate, coeffs in self.terms.items():
            try:
                scale = math.exp(float(rate) * t)
            except OverflowError:
                raise ValueError("moment overflows at t=%r" % t) from None
            if not scale:
                continue
            poly = 0.0
            for c in reversed(coeffs):
                poly = poly * t + float(c)
            total += scale * poly
        if not math.isfinite(total):
            raise ValueError("moment is not finite at t=%r" % t)
        return total

    __call__ = value

    def taylor_coeff(self, i):
        """Exact coefficient of t^i in the series expansion."""
        total = Fraction(0)
        for rate, coeffs in self.terms.items():
            for j, c in enumerate(coeffs):
                if j <= i:
                    total += c * rate ** (i - j) / math.factorial(i - j)
        return total

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MomentFunction.constant(other)
        out = {r: list(c) for r, c in self.terms.items()}
        for rate, coeffs in other.terms.items():
            cur = out.setdefault(rate, [])
            for j, c in enumerate(coeffs):
                if j < len(cur):
                    cur[j] += c
                else:
                    cur.append(c)
        return MomentFunction(out)

    __radd__ = __add__

    def __neg__(self):
        return MomentFunction(
            {r: [-c for c in cs] for r, cs in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MomentFunction.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MomentFunction(
                {r: [c * other for c in cs]
                 for r, cs in self.terms.items()})
        out = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                prod = [Fraction(0)] * (len(c1) + len(c2) - 1)
                for i, a in enumerate(c1):
                    for j, b in enumerate(c2):
                        prod[i + j] += a * b
                cur = out.setdefault(r1 + r2, [])
                for j, c in enumerate(prod):
                    if j < len(cur):
                        cur[j] += c
                    else:
                        cur.append(c)
        return MomentFunction(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MomentFunction.constant(other)
        return isinstance(other, MomentFunction) and \
            self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "MomentFunction(0)"
        bits = []
        for rate in sorted(self.terms):
            bits.append("e^(%st)*%s" % (rate, self.terms[rate]))
        return "MomentFunction(%s)" % " + ".join(bits)

    def term_records(self):
        """One {"rate", "coeffs"} record of strings per rate, by rate."""
        return [{"rate": str(r), "coeffs": [str(c) for c in coeffs]}
                for r, coeffs in sorted(self.terms.items())]


# ---------------------------------------------------------------------------
# exact solution of the semigroup
# ---------------------------------------------------------------------------

def _krylov_annihilator(rows, seed_index):
    """Minimal polynomial of the generator rows on the seed's Krylov row
    space.

    Returns (monic coefficient list a_0..a_{m-1} with x^m = sum a_i x^i,
    list of Krylov rows v_0..v_m as pairs (integer vector, den^i) with
    v_i = vector / den^i).  The orbit runs on the integer matrix den * L,
    den the lcm of the entry denominators, and the dependency is found
    by fraction-free elimination on Python ints.
    """
    n = len(rows)
    den = math.lcm(*(v.denominator for row in rows for v in row.values()))
    rows_g = [[(j, v.numerator * (den // v.denominator))
               for j, v in row.items()] for row in rows]

    def step(vec):
        out = [0] * n
        for i, x in enumerate(vec):
            if x:
                for j, g in rows_g[i]:
                    out[j] += x * g
        return out

    cur = [0] * n
    cur[seed_index] = 1
    orbit = [cur]
    # echelon rows (pivot, row, expr) with row = sum expr[i] * orbit[i];
    # each row is zero at the pivots of the rows before it
    ech = []
    while True:
        k = len(orbit) - 1
        red, expr = list(cur), [0] * k + [1]
        for piv, row, e in ech:
            f = red[piv]
            if f:
                p = row[piv]
                red = [p * x - f * y for x, y in zip(red, row)]
                expr = [p * x - f * y
                        for x, y in zip_longest(expr, e, fillvalue=0)]
                g = math.gcd(*red, *expr)
                red = [x // g for x in red]
                expr = [x // g for x in expr]
        piv = next((c for c, x in enumerate(red) if x), None)
        if piv is None:
            # sum expr[i] * (den L)^i = 0 on the seed row: x^k in terms of
            # lower powers, rescaled from den * L to L
            coeffs = [Fraction(-expr[i], expr[k] * den ** (k - i))
                      for i in range(k)]
            return coeffs, [(v, den ** i) for i, v in enumerate(orbit)]
        ech.append((piv, red, expr))
        cur = step(cur)
        orbit.append(cur)
        if len(orbit) > n + 1:
            raise RuntimeError("krylov iteration failed to terminate")


def _divide_linear(poly, r):
    """Quotient and remainder of poly (highest power first) by x - r."""
    acc = [poly[0]]
    for c in poly[1:]:
        acc.append(acc[-1] * r + c)
    return acc[:-1], acc[-1]


def _rational_roots(rec_coeffs):
    """Roots (with multiplicity) of p(x) = x^m - sum a_i x^i over the
    rationals, found in integers alone.

    The scale s takes, coefficient by coefficient, the denominator left in
    c_i s^i, c_i the coefficient of x^(m-i), so q(y) = s^m p(y / s) is
    monic with integer coefficients; by Gauss's lemma its rational roots
    are integers, and the roots of p are those integers over s.  Integer
    Newton steps y -= max(1, q(y) // q'(y)) start above Fujiwara's bound
    2 max |c_i s^i|^(1/i), taken from bit lengths.  Above its largest root
    a real-rooted q is positive, increasing and convex, so the steps never
    pass that root when it is an integer, even a multiple one; q < 0 or
    q' <= 0 proves that it is not.  Each root is confirmed and divided out
    with its multiplicity by exact division, and the search goes on one
    below it.
    """
    s = 1
    for i, a in enumerate(reversed(rec_coeffs), 1):
        s *= (a * s ** i).denominator
    poly = [1] + [-int(a * s ** i)
                  for i, a in enumerate(reversed(rec_coeffs), 1)]
    y = 2 << max(-(-abs(c).bit_length() // i)
                 for i, c in enumerate(poly[1:], 1))
    out = {}
    while len(poly) > 1:
        q, dq = 1, 0
        for c in poly[1:]:
            dq = dq * y + q
            q = q * y + c
        if q == 0:
            root = Fraction(y, s)
            out[root] = 0
            quot, rem = _divide_linear(poly, y)
            while not rem:
                poly, out[root] = quot, out[root] + 1
                quot, rem = _divide_linear(poly, y)
            y -= 1
        elif q < 0 or dq <= 0:
            raise ValueError("annihilator does not factor over the rationals")
        else:
            y -= max(1, q // dq)
    return out


def _match_exponentials(roots, taylor):
    """Solve for coefficients of t^j e^(rt) matching i! * [t^i] values."""
    cols = []
    for r in sorted(roots):
        for j in range(roots[r]):
            cols.append((r, j))
    m = len(cols)
    aug = []
    for i in range(m):
        row = []
        for r, j in cols:
            if i < j:
                row.append(Fraction(0))
            else:
                row.append(r ** (i - j)
                           * Fraction(math.factorial(i),
                                      math.factorial(i - j)))
        row.append(taylor[i])
        aug.append(row)
    # gaussian elimination over the rationals
    for c in range(m):
        p = next(r for r in range(c, m) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(m):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    sol = [aug[i][m] for i in range(m)]
    terms = {}
    for (r, j), c in zip(cols, sol):
        cur = terms.setdefault(r, [])
        while len(cur) <= j:
            cur.append(Fraction(0))
        cur[j] += c
    return MomentFunction(terms)


def solve_semigroup_row(rows, seed_index, dvec):
    """Exact (dvec o e^(tL)) applied to one basis coordinate, L given by
    its sparse rows (rows[i][j] the coefficient of state j in L(state i)).

    dvec holds one rational per basis state: delta_diag for a moment,
    or any other statistic read off the states.
    """
    rec, krylov = _krylov_annihilator(rows, seed_index)
    m = len(rec)
    if m == 0:
        return MomentFunction.zero()
    roots = _rational_roots(rec)
    taylor = [Fraction(sum(x * d for x, d in zip(v, dvec) if x and d), scale)
              for v, scale in krylov[:m]]
    return _match_exponentials(roots, taylor)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _seed_moment(gen):
    """Exact moment function of state 0, the seed the generator was
    built from."""
    return solve_semigroup_row(gen.rows, 0, [delta_diag(b) for b in gen.basis])


def finite_evaluator(seed, word, df, field, weights=None):
    """Exact moment function of the seed diagram at dimension df."""
    return _seed_moment(
        build_generator_finite([seed], word, df, field, weights))


def evolve_limit(seed, word, ratios, fclass="real", weights=None):
    """Exact limit moment function of the seed diagram."""
    return _seed_moment(
        build_generator_limit([seed], word, ratios, fclass, weights))


def moment_of_word(tokens, n):
    """Exact limit MomentFunction of a word in the block entries u_ij^eps
    over n square blocks."""
    tokens = list(tokens)
    if not tokens:
        raise ValueError("empty word")
    seed, word = encode_word(tokens)
    return evolve_limit(seed, word, square_ratios(n), "complex")
