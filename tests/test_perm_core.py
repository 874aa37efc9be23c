import itertools
from math import factorial

import pytest
from hypothesis import given, strategies as st

from permstat import (
    all_permutations,
    avoids_all,
    charge,
    check_permutation,
    complement,
    contains_pattern,
    enumerate_avoiders,
    f_map,
    identity,
    inverse,
    inversions,
    is_permutation,
    major_index,
    reverse,
    stat_polynomial,
)
from permstat import perm_core
from permstat.perm_core import _forbidden_step

from helpers import catalan_dp, contained_patterns, oracle_avoiders, oracle_contains

S3 = list(itertools.permutations((1, 2, 3)))
S4 = list(itertools.permutations((1, 2, 3, 4)))


@st.composite
def permutations_up_to(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


def test_is_permutation():
    assert is_permutation(())
    assert is_permutation((2, 1, 3))
    assert not is_permutation((2, 2, 3))
    assert not is_permutation((0, 1))
    assert not is_permutation((1, 3))


def test_check_permutation_rejects_bad_input():
    with pytest.raises(ValueError):
        check_permutation((1, 1))
    assert check_permutation([2, 1]) == (2, 1)


def test_check_permutation_names_the_fault():
    with pytest.raises(ValueError, match="value 3 appears more than once"):
        check_permutation((1, 3, 3))
    with pytest.raises(ValueError, match="missing 2"):
        check_permutation((1, 5, 3))
    with pytest.raises(ValueError, match="missing 1"):
        check_permutation((0, 2))


def test_inverse_examples():
    assert inverse((1, 2, 3)) == (1, 2, 3)
    assert inverse((2, 3, 1)) == (3, 1, 2)
    assert inverse((2, 1, 3)) == (2, 1, 3)  # an involution


def test_inverse_definition_holds():
    for p in all_permutations(5):
        q = inverse(p)
        assert all(q[p[i - 1] - 1] == i for i in range(1, 6))


def test_reverse_examples():
    assert reverse((1, 2, 3)) == (3, 2, 1)
    assert reverse((1, 3, 2)) == (2, 3, 1)
    assert reverse(()) == ()


def test_complement_examples():
    assert complement((1, 2, 3)) == (3, 2, 1)
    assert complement((2, 3, 1)) == (2, 1, 3)
    assert complement((3, 2, 8, 5, 7, 4, 6, 1, 9)) == (7, 8, 2, 5, 3, 6, 4, 9, 1)


def test_f_map_examples():
    assert f_map((1, 3, 2)) == (2, 1, 3)
    assert f_map((1, 2, 3)) == (1, 2, 3)
    assert f_map(()) == ()


def test_symmetry_involutions_and_f_bijection_exhaustive():
    # reverse, complement, inverse are involutions; f is injective hence bijective
    for n in range(9):
        images = set()
        for p in all_permutations(n):
            assert reverse(reverse(p)) == p
            assert complement(complement(p)) == p
            assert inverse(inverse(p)) == p
            images.add(f_map(p))
        assert len(images) == factorial(n)


@given(permutations_up_to())
def test_f_map_is_composite_of_the_three_operations(p):
    assert f_map(p) == inverse(complement(reverse(p)))


def test_contains_pattern_examples():
    assert contains_pattern((3, 2, 8, 5, 7, 4, 6, 1, 9), (1, 2, 3))
    assert not contains_pattern((3, 2, 1), (1, 2))
    assert not contains_pattern((1, 2), (1, 2, 3))  # pattern longer than host
    assert contains_pattern((2, 1), ())  # empty pattern sits in everything
    assert contains_pattern((), ())


def test_contains_pattern_rejects_a_non_permutation_pattern():
    for pattern in ((2, 2, 1), (1, 1), (0, 1), (1, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            contains_pattern((1, 2, 3), pattern)


def test_contains_pattern_agrees_with_oracle():
    # every pattern of sizes 3 and 4 in p, found once per permutation
    for n in range(8):
        for p in all_permutations(n):
            contained = contained_patterns(p, 3) | contained_patterns(p, 4)
            for pattern in S3 + S4:
                assert contains_pattern(p, pattern) == (pattern in contained)
                if n <= 6:  # the two oracles stay tied to each other
                    assert oracle_contains(p, pattern) == (pattern in contained)


def test_incremental_check_matches_whole_prefix_containment():
    # v lands on the forbidden mask of the prefix before it iff a copy ends at v
    for p in all_permutations(6):
        for pattern in S3 + S4:
            step = _forbidden_step(pattern, 6)
            forbidden = used = 0
            for k, v in enumerate(p):
                prefix = p[:k]
                created = bool(forbidden >> v & 1)
                ends_at_v = any(
                    oracle_contains(sub + (v,), pattern)
                    for sub in itertools.combinations(prefix, len(pattern) - 1)
                )
                assert created == ends_at_v
                whole = oracle_contains(prefix + (v,), pattern)
                before = oracle_contains(prefix, pattern)
                assert whole == (before or created)
                forbidden |= step(p, k, used, v)
                used |= 1 << v


def test_avoids_all_examples():
    assert avoids_all((2, 1, 4, 3), [(3, 2, 1)])
    assert not avoids_all((3, 2, 1), [(3, 2, 1)])
    assert avoids_all((3, 2, 1), [])


def test_enumerate_avoiders_small_cases():
    assert list(enumerate_avoiders(3, [(3, 2, 1)])) == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
    ]
    assert list(enumerate_avoiders(3, [])) == sorted(all_permutations(3))
    assert list(enumerate_avoiders(0, [(1, 2)])) == [()]
    assert list(enumerate_avoiders(2, [()])) == []  # empty pattern kills everything
    assert list(enumerate_avoiders(0, [()])) == []


def test_enumerate_avoiders_lexicographic_order():
    stream = list(enumerate_avoiders(6, [(1, 3, 2)]))
    assert stream == sorted(stream)


def test_single_length3_patterns_are_counted_by_catalan():
    for n in range(9):
        for pattern in S3:
            count = sum(1 for _ in enumerate_avoiders(n, [pattern]))
            assert count == catalan_dp(n)


def test_pruned_enumeration_equals_filtering():
    for n in range(8):
        for pattern in S3:
            assert list(enumerate_avoiders(n, [pattern])) == oracle_avoiders(n, [pattern])


def test_pruned_enumeration_equals_filtering_multi_and_long_patterns():
    cases = [
        [(1, 3, 2), (2, 1, 3)],
        [(1, 2, 3), (3, 2, 1)],
        [(1, 2, 3, 4)],
        [(2, 1, 4, 3), (3, 1, 2)],
        [(2, 1)],
        [(1,)],
    ]
    for patterns in cases:
        for n in range(7):
            assert list(enumerate_avoiders(n, patterns)) == oracle_avoiders(n, patterns)


def test_every_small_pattern_set_and_its_shards_match_filtering():
    # the 63 nonempty subsets of S_3 and the 24 single S_4 patterns
    pattern_sets = [c for r in range(1, 7) for c in itertools.combinations(S3, r)]
    pattern_sets += [(t,) for t in S4]
    assert len(pattern_sets) == 63 + 24
    for n in range(8):
        perms = list(all_permutations(n))
        contained = [contained_patterns(p, 3) | contained_patterns(p, 4) for p in perms]
        for patterns in pattern_sets:
            expected = [p for p, seen in zip(perms, contained) if seen.isdisjoint(patterns)]
            assert list(enumerate_avoiders(n, patterns)) == expected
            if n:
                shards = [enumerate_avoiders(n, patterns, first=k) for k in range(1, n + 1)]
                assert [p for shard in shards for p in shard] == expected


def test_dead_end_prefixes_are_cut():
    # all 2**60 decreasing prefixes avoid 12, but only one of them completes
    assert list(enumerate_avoiders(60, [(1, 2)])) == [tuple(range(60, 0, -1))]
    # |Av_n(123, 132, 213)| is the Fibonacci number F_(n+1)
    assert sum(1 for _ in enumerate_avoiders(20, [(1, 2, 3), (1, 3, 2), (2, 1, 3)])) == 10946


def test_longer_patterns_are_vacuously_avoided():
    assert avoids_all((2, 1), [(3, 2, 1, 4)])
    assert list(enumerate_avoiders(2, [(1, 2, 3)])) == [(1, 2), (2, 1)]


def test_avoidance_is_antitone_in_the_pattern_set():
    # a larger pattern set can only shrink the avoidance set
    for n in range(7):
        for big in itertools.combinations(S3, 2):
            avoid_big = set(enumerate_avoiders(n, big))
            for small in big:
                assert avoid_big <= set(enumerate_avoiders(n, [small]))


def test_sharding_by_first_entry():
    for patterns in ([(3, 2, 1)], []):
        n = 6
        full = list(enumerate_avoiders(n, patterns))
        shards = [list(enumerate_avoiders(n, patterns, first=k)) for k in range(1, n + 1)]
        assert [p for shard in shards for p in shard] == full
        for k, shard in enumerate(shards, start=1):
            assert all(p[0] == k for p in shard)
            assert shard == sorted(shard)


def test_enumerate_avoiders_input_validation():
    with pytest.raises(ValueError):
        list(enumerate_avoiders(-1, []))
    with pytest.raises(ValueError):
        list(enumerate_avoiders(3, [], first=4))
    with pytest.raises(ValueError):
        list(enumerate_avoiders(3, [(1, 1)]))


def test_identity_helper():
    assert identity(0) == ()
    assert identity(4) == (1, 2, 3, 4)


# length-5 patterns ending in their two largest or two smallest letters
# (the head-mask step) and the monotone length-6 patterns
FIXED_ENDINGS = [h + (4, 5) for h in itertools.permutations((1, 2, 3))]
FIXED_ENDINGS += [h + (2, 1) for h in itertools.permutations((3, 4, 5))]
FIXED_ENDINGS += [(1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1)]


def test_contains_pattern_agrees_with_oracle_on_fixed_endings():
    for n in range(8):
        for p in all_permutations(n):
            contained = contained_patterns(p, 5) | contained_patterns(p, 6)
            for pattern in FIXED_ENDINGS:
                assert contains_pattern(p, pattern) == (pattern in contained), (p, pattern)
                if n <= 6:  # the two oracles stay tied to each other
                    assert oracle_contains(p, pattern) == (pattern in contained)


def test_interleaved_walks_keep_their_own_steps():
    # the head-mask step of 1234 holds per-walk state; two live walks must not share it
    a = enumerate_avoiders(7, [(1, 2, 3, 4)])
    b = enumerate_avoiders(6, [(1, 2, 3, 4)], first=3)
    got_a, got_b = [], []
    for x, y in itertools.zip_longest(a, b):
        if x is not None:
            got_a.append(x)
        if y is not None:
            got_b.append(y)
    assert got_a == [p for p in all_permutations(7) if (1, 2, 3, 4) not in contained_patterns(p, 4)]
    assert got_b == [p for p in oracle_avoiders(6, [(1, 2, 3, 4)]) if p[0] == 3]


@pytest.mark.parametrize("bound", [1, 8])
def test_length3_walks_past_their_table_bound_equal_filtering(monkeypatch, bound):
    # a table of 1 or 8 masks is emptied over and over within one walk; every
    # shard's avoiders and statistics must still be those of filtering S_n
    monkeypatch.setattr(perm_core, "MAX_LIVE_NEXT", bound)
    pattern_sets = [c for r in range(1, 7) for c in itertools.combinations(S3, r)]
    assert len(pattern_sets) == 63
    stats = (("ch", charge), ("maj", major_index), ("inv", inversions))
    for n in range(8):
        perms = list(all_permutations(n))
        contained = [contained_patterns(p, 3) for p in perms]
        values = {p: [fn(p) for _, fn in stats] for p in perms}
        for patterns in pattern_sets:
            avoiders = [p for p, seen in zip(perms, contained) if seen.isdisjoint(patterns)]
            for first in range(n + 1):  # 0: the whole stream
                expected = [p for p in avoiders if not first or p[0] == first]
                assert list(enumerate_avoiders(n, patterns, first=first or None)) == expected
                for s, (name, _) in enumerate(stats):
                    counts = [0] * (n * (n - 1) // 2 + 1)
                    for p in expected:
                        counts[values[p][s]] += 1
                    got = stat_polynomial(n, patterns, name, first=first or None)
                    assert list(got.coeffs) + [0] * (len(counts) - len(got.coeffs)) == counts, (n, patterns, first, name)


def test_a_length3_walk_searches_each_used_mask_once_within_its_bound(monkeypatch):
    searched = []
    live_next = perm_core._live_next

    def recording_live_next(steps, used, free, values):
        searched.append(used)
        return live_next(steps, used, free, values)

    monkeypatch.setattr(perm_core, "_live_next", recording_live_next)
    assert sum(1 for _ in enumerate_avoiders(10, [(3, 2, 1)])) == catalan_dp(10)
    assert len(searched) == len(set(searched)) <= 2**10  # 16 796 avoiders from at most 1024 masks
    searched.clear()
    monkeypatch.setattr(perm_core, "MAX_LIVE_NEXT", 1)
    assert sum(1 for _ in enumerate_avoiders(10, [(3, 2, 1)])) == catalan_dp(10)
    assert len(searched) > 2**10  # past the bound a mask is searched again on a later visit
