"""Brute-force oracles and a shared polynomial cache for the test suite.

The oracles deliberately avoid the library's code paths: containment is
checked over all position subsets, avoidance by filtering the full
symmetric group, and Catalan numbers come from a lattice-path DP rather
than a binomial formula.  The ballot-word walk is the one exception: it
reuses the library's tableau steps (ballot words, reading words, charge)
to assemble the charge polynomial over 321-avoiders one two-row tableau
at a time, but none of the q-binomial arithmetic that it checks.
"""
import functools
import itertools

from permstat import (
    CHARGE,
    StatPolynomial,
    ballot_to_tableau,
    charge,
    enumerate_two_row_syt,
    reading_word,
    stat_polynomial,
    syt_count_two_row_shape,
)


def oracle_contains(p, pattern):
    m = len(pattern)
    if m > len(p):
        return False
    for positions in itertools.combinations(range(len(p)), m):
        values = [p[i] for i in positions]
        if all(
            (values[a] < values[b]) == (pattern[a] < pattern[b])
            for a in range(m)
            for b in range(a + 1, m)
        ):
            return True
    return False


def contained_patterns(p, m):
    """Every length-m pattern in p: the standardization of each length-m subsequence."""
    found = set()
    for values in itertools.combinations(p, m):
        ranks = sorted(values)
        found.add(tuple(ranks.index(x) + 1 for x in values))
    return found


def containment_table(n, targets):
    """The targets that each permutation of size n contains, by one-point deletion.

    A pattern as long as p is contained iff it equals p; a shorter one lies in
    p iff it lies in p with one entry deleted and the rest standardized.  Sizes
    are built up from 0, so S_8 costs 8 deletions per permutation, not the 56
    to 70 subsequences per length that ``contained_patterns`` standardizes.
    """
    level = {(): frozenset(t for t in targets if not t)}
    for size in range(1, n + 1):
        below = level
        level = {}
        for p in itertools.permutations(range(1, size + 1)):
            found = {t for t in targets if t == p}
            for i, x in enumerate(p):
                found |= below[tuple(y - (y > x) for y in p[:i] + p[i + 1:])]
            level[p] = frozenset(found)
    return level


def oracle_avoiders(n, patterns):
    return [
        p
        for p in itertools.permutations(range(1, n + 1))
        if not any(oracle_contains(p, t) for t in patterns)
    ]


def catalan_dp(n):
    """Catalan number by counting +-1 paths of length 2n staying nonnegative."""
    heights = {0: 1}
    for _ in range(2 * n):
        nxt = {}
        for h, count in heights.items():
            nxt[h + 1] = nxt.get(h + 1, 0) + count
            if h > 0:
                nxt[h - 1] = nxt.get(h - 1, 0) + count
        heights = nxt
    return heights.get(0, 0)


def ballot_walk_ch_321(n):
    """
    Charge polynomial over Av_n(321) by walking the two-row ballot words.

    Each word's tableau P contributes the charge of its reading word (charge
    is constant on a Knuth class) with multiplicity the number of recording
    tableaux of its shape; the single-row tableau contributes charge 0.
    """
    counts = [0] * (n * (n - 1) // 2 + 1)
    counts[0] = 1
    for w in enumerate_two_row_syt(n):
        rw = reading_word(ballot_to_tableau(w))
        counts[charge(rw)] += syt_count_two_row_shape(n, w.count(2))
    return StatPolynomial.from_counts(counts, n=n, patterns=[(3, 2, 1)], stat=CHARGE)


@functools.cache
def cached_polynomial(n, patterns, stat):
    """Memoized library polynomial (``stat_polynomial``, the search itself, not
    brute force); several test modules share the big ones."""
    return stat_polynomial(n, patterns, stat)
