"""Exact limit of amalgamated probability over the block projectors.

The limit cumulant coefficient of a partition beta is the product, over
its blocks, of the joined coefficient of the block's own cycle: a
creating move joins two slots of one cycle, so no path from beta's seed
mixes blocks.  Each joined coefficient is one walk of (diagram, label)
states, a label giving each slot its least block-mate.  The conditional
expectation and the amalgamated cumulants of sampled matrices, their
finite counterparts, are in mfe.reference.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from .brauer import Word, WordLetter, encode_word, twisted_cycle_diagram
from .generators import _limit_rates, _sweep, delta_diag
from .moments import MomentFunction, evolve_limit, solve_semigroup_row
from .ncpart import (
    NC_ENUM_BOUND,
    NonCrossingPartition,
    as_set_partition,
    nc_to_permutation,
)


def _join(label, i, j):
    lo, hi = sorted((label[i - 1], label[j - 1]))
    return tuple(lo if x == hi else x for x in label)


def _coefficient_walk(seed, word, ratios, weights=None):
    """States and limit generator rows of the creating walk from the
    seed: a state pairs a reachable diagram with the label of the
    partition generated by the step pairs used so far, each slot's least
    block-mate, starting from the discrete one."""
    return _sweep(
        [(seed, tuple(range(1, seed.k + 1)))], word, ratios, "real",
        _limit_rates(ratios), creating_only=True, weights=weights,
        join=_join)


@lru_cache(maxsize=2 ** NC_ENUM_BOUND)
def _joined_coefficient(tokens, letters, ratios, weights):
    """Coefficient of the one-block partition on the tokens' encoded word,
    weights as sorted (letter, weight) pairs; cached for every block of a
    word of NC_ENUM_BOUND slots."""
    seed, word = encode_word(tokens, letters)
    if not seed.is_valid(ratios):
        return MomentFunction.zero()
    states, rows = _coefficient_walk(
        seed, word, ratios, None if weights is None else dict(weights))
    joined = (1,) * len(tokens)
    dvec = [Fraction(delta_diag(b)) if lab == joined else Fraction(0)
            for b, lab in states]
    return solve_semigroup_row(rows, 0, dvec)


def seed_diagram(pi, alpha, eps):
    """The partition's cycle diagram, twisted at the starred slots and
    coloured by the boundary tuple alpha = (a_0, ..., a_k)."""
    part = as_set_partition(pi, len(eps))
    return twisted_cycle_diagram(
        nc_to_permutation(NonCrossingPartition(part.blocks)), eps,
        alpha[:-1], alpha[1:])


def limit_cumulant_coefficient(beta, alpha, word, ratios, weights=None):
    """Exact limit coefficient c_beta(alpha, w, eps) as a MomentFunction.

    The seed is beta's cycle diagram, twisted at the barred slots of the
    word and coloured by the boundary tuple; the coefficient collects
    the creating paths whose steps generate exactly beta, weighted like
    the limit generator, and contracted against the diagonal-colour
    indicator.  It is the product of the blocks' joined coefficients.
    """
    word = word if isinstance(word, Word) else \
        Word(WordLetter(l) for l in word)
    k = len(word)
    if len(alpha) != k + 1:
        raise ValueError("boundary tuple must have length k + 1")
    wkey = None if weights is None else tuple(sorted(weights.items()))
    return _block_product(tuple(sorted(
        (tuple((alpha[s - 1], alpha[s], word[s - 1].bar) for s in blk),
         tuple(word[s - 1].letter for s in blk))
        for blk in as_set_partition(beta, k).blocks)), ratios, wkey)


@lru_cache(maxsize=2 ** NC_ENUM_BOUND)
def _block_product(blocks, ratios, weights):
    """Product of the joined coefficients of the (tokens, letters) blocks,
    sorted: the product is exact and commutes, so every beta with the
    same blocks shares one (4,862 beta of u11^9 have 30 block multisets)."""
    return reduce(mul, (_joined_coefficient(tokens, letters, ratios, weights)
                        for tokens, letters in blocks))


def limit_statistic(pi, alpha, word, ratios, weights=None):
    """The limit moment of the partition's seed diagram, summed over all
    cumulant coefficients below the partition."""
    word = word if isinstance(word, Word) else \
        Word(WordLetter(l) for l in word)
    eps = [l.bar for l in word.letters]
    seed = seed_diagram(pi, alpha, eps)
    if not seed.is_valid(ratios):
        return MomentFunction.zero()
    return evolve_limit(seed, word, ratios, "real", weights)
