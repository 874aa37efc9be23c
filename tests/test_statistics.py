import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from permstat import (
    StatPolynomial,
    all_permutations,
    charge,
    charge_values,
    descent_set,
    f_map,
    identity,
    inversions,
    major_index,
    merge_polynomials,
    parse_stat,
    q_factorial,
    stat_polynomial,
)

from helpers import oracle_avoiders

EXAMPLE = (3, 2, 8, 5, 7, 4, 6, 1, 9)


@st.composite
def permutations_up_to(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


def test_descent_set_worked_example():
    assert descent_set(EXAMPLE) == {1, 3, 5, 7}
    assert descent_set((1, 2, 3, 4, 5, 6)) == set()
    assert descent_set((3, 2, 1)) == {1, 2}
    assert descent_set((1,)) == set()
    assert descent_set(()) == set()


def test_major_index_worked_example():
    assert major_index(EXAMPLE) == 16
    assert major_index(identity(7)) == 0
    assert major_index((3, 2, 1)) == 3


def test_charge_values_worked_example():
    assert charge_values(EXAMPLE) == {3: 7, 2: 8, 8: 2, 5: 5, 7: 3, 4: 0, 6: 0, 1: 0, 9: 0}
    assert charge_values(identity(5)) == {1: 0, 2: 0, 3: 0, 4: 0, 5: 0}
    assert charge_values((1, 3, 2)) == {1: 0, 2: 0, 3: 1}
    assert charge_values(()) == {}


def test_charge_worked_example():
    assert charge(EXAMPLE) == 25
    assert charge(identity(9)) == 0
    assert charge((2, 1, 3)) == 2


def test_charge_equals_the_sum_of_charge_values_exhaustively():
    for n in range(8):
        for p in all_permutations(n):
            assert charge(p) == sum(charge_values(p).values()), p


def test_inversions():
    assert inversions(identity(6)) == 0
    assert inversions((3, 2, 1)) == 3
    # count the pairs directly as an oracle
    brute = sum(
        1
        for i, j in itertools.combinations(range(len(EXAMPLE)), 2)
        if EXAMPLE[i] > EXAMPLE[j]
    )
    assert inversions(EXAMPLE) == brute == 15


@given(permutations_up_to())
def test_nonzero_charge_values_are_determined_by_the_value(p):
    n = len(p)
    for value, chv in charge_values(p).items():
        assert chv in (0, n + 1 - value)


def test_charge_vanishes_only_on_the_identity():
    for n in range(9):
        for p in all_permutations(n):
            assert (charge(p) == 0) == (p == identity(n))


def test_major_index_transports_to_charge_under_f():
    for n in range(7):
        for p in all_permutations(n):
            assert major_index(p) == charge(f_map(p))


def test_stat_polynomial_examples():
    assert stat_polynomial(3, [(3, 2, 1)], "charge").coeffs == (1, 2, 2)
    assert stat_polynomial(3, [(3, 2, 1)], "maj").coeffs == (1, 2, 2)
    assert stat_polynomial(0, [(3, 2, 1)], "inv").coeffs == (1,)
    assert stat_polynomial(1, [(1,)], "maj").coeffs == ()  # empty avoidance set


def test_negative_size_is_rejected_before_the_tally_is_allocated():
    # the tally has n(n-1)/2 + 1 slots, about 8 million at n = -4000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="nonnegative"):
            stat_polynomial(-4000, [(3, 2, 1)], "ch")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_stat_polynomial_against_filter_oracle():
    for n in range(7):
        for patterns in ([(3, 2, 1)], [(1, 3, 2), (2, 1, 3)], []):
            poly = stat_polynomial(n, patterns, "ch")
            avoiders = oracle_avoiders(n, patterns)
            counts = {}
            for p in avoiders:
                counts[charge(p)] = counts.get(charge(p), 0) + 1
            expected = tuple(counts.get(i, 0) for i in range(max(counts, default=-1) + 1))
            assert poly.coeffs == expected
            assert poly.total() == len(avoiders)


def test_polynomial_sum_matches_stream_count():
    for n in range(8):
        poly = stat_polynomial(n, [(3, 2, 1)], "maj")
        from permstat import enumerate_avoiders

        assert poly.total() == sum(1 for _ in enumerate_avoiders(n, [(3, 2, 1)]))


def test_all_three_statistics_are_mahonian():
    # distribution over the whole symmetric group equals the q-factorial
    for n in range(8):
        for stat in ("maj", "ch", "inv"):
            assert stat_polynomial(n, [], stat).coeffs == q_factorial(n)


def test_pattern_longer_than_n_gives_the_full_group():
    for n in range(6):
        blocker = [identity(n + 1)]
        assert stat_polynomial(n, blocker, "inv").coeffs == q_factorial(n)


def test_q_factorial_literal_values():
    assert q_factorial(0) == (1,)
    assert q_factorial(1) == (1,)
    assert q_factorial(2) == (1, 1)
    assert q_factorial(3) == (1, 2, 2, 1)
    assert q_factorial(4) == (1, 3, 5, 6, 5, 3, 1)


def test_merge_polynomials_reassembles_shards():
    full = stat_polynomial(6, [(3, 2, 1)], "ch")
    shards = [stat_polynomial(6, [(3, 2, 1)], "ch", first=k) for k in range(1, 7)]
    assert merge_polynomials(shards) == full
    assert merge_polynomials(reversed(shards)) == full  # order cannot matter


def test_merge_polynomials_rejects_mismatches():
    a = stat_polynomial(3, [(3, 2, 1)], "ch")
    b = stat_polynomial(3, [(3, 2, 1)], "maj")
    with pytest.raises(ValueError):
        merge_polynomials([a, b])
    with pytest.raises(ValueError):
        merge_polynomials([])


def test_parse_stat_aliases():
    assert parse_stat("maj") == parse_stat("major_index") == "major_index"
    assert parse_stat("ch") == parse_stat("charge") == "charge"
    assert parse_stat("inv") == parse_stat("INVERSIONS") == "inversions"
    with pytest.raises(ValueError):
        parse_stat("denert")


def test_stat_polynomial_canonical_form():
    with pytest.raises(ValueError):
        StatPolynomial(coeffs=(1, 0), n=2, patterns=frozenset(), stat="charge")
    with pytest.raises(ValueError):
        StatPolynomial(coeffs=(-1,), n=1, patterns=frozenset(), stat="charge")
    with pytest.raises(ValueError, match="unknown statistic 'des'"):
        StatPolynomial(coeffs=(1,), n=0, patterns=frozenset(), stat="des")
    zero = StatPolynomial.from_counts([0, 0], n=1, patterns=[(1,)], stat="ch")
    assert zero.coeffs == ()
    assert zero.total() == 0


def test_gains_sum_to_each_statistic_along_every_permutation():
    from permstat.statistics import _gain

    for n in range(8):
        for stat, fn in (("major_index", major_index), ("charge", charge), ("inversions", inversions)):
            gain = _gain(stat, n)
            for p in all_permutations(n):
                used = total = 0
                for k, v in enumerate(p):
                    total += gain(p, k, used, v)
                    used |= 1 << v
                assert total == fn(p), (stat, p)


def test_walk_tally_equals_filtering_for_every_shard():
    # the 63 nonempty subsets of S_3, the 24 S_4 singletons and the 12
    # length-5 patterns ending in 45 or 21 (those take the head-mask step);
    # the gains are checked on all of S_n above, so each set takes one
    # statistic, in turn
    from helpers import contained_patterns

    s3 = list(itertools.permutations((1, 2, 3)))
    pattern_sets = [c for r in range(1, 7) for c in itertools.combinations(s3, r)]
    pattern_sets += [(t,) for t in itertools.permutations((1, 2, 3, 4))]
    pattern_sets += [(h + (4, 5),) for h in itertools.permutations((1, 2, 3))]
    pattern_sets += [(h + (2, 1),) for h in itertools.permutations((3, 4, 5))]
    assert len(pattern_sets) == 63 + 24 + 12
    stats = (("maj", major_index), ("ch", charge), ("inv", inversions))
    for n in range(8):
        perms = list(all_permutations(n))
        contained = [set().union(*(contained_patterns(p, m) for m in (3, 4, 5))) for p in perms]
        values = [[fn(p) for _, fn in stats] for p in perms]
        for index, patterns in enumerate(pattern_sets):
            s = index % 3
            counts = [[0] * (n * (n - 1) // 2 + 1) for _ in range(n + 1)]  # by first entry; 0: all
            for p, seen, value in zip(perms, contained, values):
                if seen.isdisjoint(patterns):
                    for first in {0, *p[:1]}:
                        counts[first][value[s]] += 1
            for first in range(n + 1):
                expected = StatPolynomial.from_counts(counts[first], n=n, patterns=patterns, stat=stats[s][0])
                got = stat_polynomial(n, patterns, stats[s][0], first=first or None)
                assert got == expected, (n, patterns, first, stats[s][0])
