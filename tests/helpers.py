"""Brute-force oracles and a shared polynomial cache for the test suite.

The oracles deliberately avoid the library's code paths: containment is
checked over all position subsets, avoidance by filtering the full
symmetric group, and Catalan numbers come from a lattice-path DP rather
than a binomial formula.
"""
import functools
import itertools

from permstat import stat_polynomial


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


@functools.cache
def cached_polynomial(n, patterns, stat):
    """Memoized brute-force polynomial; several test modules share the big ones."""
    return stat_polynomial(n, patterns, stat)
