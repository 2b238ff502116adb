"""Exact limit of amalgamated probability over the block projectors.

The limit cumulant coefficients are sums over paths of cycle- or
loop-creating elementary diagrams, split by the partition the path's
steps generate: the generator pass closes (diagram, partition) states,
checking the seed's validity once, and the semigroup solve reads them
off.  The conditional expectation and the amalgamated cumulants of
sampled matrices, their finite counterparts, are in evaltrace.
"""

from __future__ import annotations

from fractions import Fraction

from .brauer import Word, WordLetter, twisted_cycle_diagram
from .generators import (
    GeneratorMatrix,
    _limit_rates,
    _sweep,
    delta_diag,
)
from .moments import MomentFunction, evolve_limit, solve_semigroup_row
from .ncpart import (
    NonCrossingPartition,
    SetPartition,
    as_set_partition,
    nc_to_permutation,
    partition_join,
)


def _discrete(k):
    return SetPartition([(i,) for i in range(1, k + 1)],
                        ground=range(1, k + 1))


def _pair_partition(k, i, j):
    blocks = [(i, j)] + [(x,) for x in range(1, k + 1) if x not in (i, j)]
    return SetPartition(blocks, ground=range(1, k + 1))


def _coefficient_walk(seed, word, ratios, weights=None):
    """States and limit generator rows of the creating walk from the
    seed: a state pairs a reachable diagram with the partition generated
    by the step pairs used so far, starting from the discrete one."""
    k = seed.k
    return _sweep(
        [(seed, _discrete(k))], word, ratios, "real", _limit_rates(ratios),
        creating_only=True, weights=weights,
        join=lambda part, i, j: partition_join(part, _pair_partition(k, i, j)))


def seed_diagram(pi, alpha, eps):
    """The partition's cycle diagram, twisted at the starred slots and
    coloured by the boundary tuple alpha = (a_0, ..., a_k)."""
    k = len(eps)
    if len(alpha) != k + 1:
        raise ValueError("boundary tuple must have length k + 1")
    part = as_set_partition(pi, k)
    return twisted_cycle_diagram(
        nc_to_permutation(NonCrossingPartition(part.blocks)), eps,
        alpha[:-1], alpha[1:])


def limit_cumulant_coefficient(beta, alpha, word, ratios, weights=None,
                               pi=None):
    """Exact limit coefficient c_beta(alpha, w, eps) as a MomentFunction.

    The seed is the cycle diagram of a partition pi >= beta (beta itself
    by default), twisted at the barred slots of the word and coloured by
    the boundary tuple; the coefficient collects the creating paths
    whose steps generate exactly beta, weighted like the limit
    generator, and contracted against the diagonal-colour indicator.
    """
    word = word if isinstance(word, Word) else \
        Word(WordLetter(l) for l in word)
    k = len(word)
    beta_p = as_set_partition(beta, k)
    eps = [l.bar for l in word.letters]
    seed = seed_diagram(beta_p if pi is None else pi, alpha, eps)
    if not seed.is_valid(ratios):
        return MomentFunction.zero()
    states, rows = _coefficient_walk(seed, word, ratios, weights)
    dvec = [Fraction(delta_diag(b)) if part == beta_p else Fraction(0)
            for b, part in states]
    return solve_semigroup_row(GeneratorMatrix(states, word, rows), 0, dvec)


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
