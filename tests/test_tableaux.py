import itertools
import time
from math import comb

import pytest
from hypothesis import given, strategies as st

from permstat import (
    ExhaustionError,
    StatPolynomial,
    VerificationError,
    all_permutations,
    avoids_all,
    ballot_rank,
    ballot_to_tableau,
    ballot_unrank,
    charge,
    count_two_row,
    enumerate_two_row_syt,
    fast_ch_321,
    has_parity_pattern,
    identity,
    involution_phi,
    is_ballot_word,
    is_standard_tableau,
    lemma5_count,
    parity_polynomial,
    reading_word,
    rsk_insert,
    rsk_inverse,
    syt_count_two_row_shape,
    tableau_shape,
    tableau_to_ballot,
    two_row_maj_polynomials,
    verify_corollary9,
    verify_involution,
    verify_lemma5,
    verify_theorem8,
)

from permstat import tableaux
from helpers import ballot_walk_ch_321, cached_polynomial, catalan_dp

P321 = ((3, 2, 1),)


@st.composite
def permutations_up_to(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


def test_rsk_insert_examples():
    assert rsk_insert((1, 3, 2)) == (((1, 2), (3,)), ((1, 2), (3,)))
    assert rsk_insert((2, 1, 3)) == (((1, 3), (2,)), ((1, 3), (2,)))
    for n in (0, 1, 5):
        p, q = rsk_insert(identity(n))
        assert p == q == (tuple(range(1, n + 1)),) * (1 if n else 0)


def test_rsk_roundtrip_and_shape_exhaustive():
    for n in range(7):
        seen = set()
        for p in all_permutations(n):
            P, Q = rsk_insert(p)
            assert tableau_shape(P) == tableau_shape(Q)
            assert is_standard_tableau(P) and is_standard_tableau(Q)
            assert rsk_inverse(P, Q) == p
            seen.add((P, Q))
        assert len(seen) == sum(1 for _ in all_permutations(n))  # injective


@given(permutations_up_to())
def test_rsk_roundtrip_property(p):
    P, Q = rsk_insert(p)
    assert rsk_inverse(P, Q) == p


def test_rsk_inverse_examples_and_errors():
    n = 6
    row = (tuple(range(1, n + 1)),)
    assert rsk_inverse(row, row) == identity(n)
    example = (3, 2, 8, 5, 7, 4, 6, 1, 9)
    assert rsk_inverse(*rsk_insert(example)) == example
    # the unique permutation with P = [[1,2],[3]], Q = [[1,3],[2]]
    target = (((1, 2), (3,)), ((1, 3), (2,)))
    matches = [p for p in all_permutations(3) if rsk_insert(p) == target]
    assert matches == [(3, 1, 2)]
    assert rsk_inverse(*target) == (3, 1, 2)
    with pytest.raises(ValueError):
        rsk_inverse(((1, 2), (3,)), ((1, 2, 3),))  # shape mismatch
    with pytest.raises(ValueError):
        rsk_inverse(((2, 1),), ((1, 2),))  # not standard


def test_reading_word_examples():
    assert reading_word(((1, 2), (3,))) == (3, 1, 2)
    assert reading_word(((1, 3), (2,))) == (2, 1, 3)
    assert reading_word((tuple(range(1, 8)),)) == identity(7)
    assert reading_word(()) == ()


def test_reading_word_insertion_fixed_point():
    # over every tableau reachable from permutations of size <= 6 (all shapes)
    for n in range(7):
        for p in all_permutations(n):
            P, _ = rsk_insert(p)
            assert rsk_insert(reading_word(P))[0] == P
    # and over every two-row tableau up to size 12
    for n in range(13):
        for w in enumerate_two_row_syt(n):
            P = ballot_to_tableau(w)
            assert rsk_insert(reading_word(P))[0] == P


def test_avoiding_321_means_at_most_two_rows():
    for n in range(7):
        for p in all_permutations(n):
            P, _ = rsk_insert(p)
            assert avoids_all(p, P321) == (len(P) <= 2)


def test_charge_is_constant_on_knuth_classes():
    for n in range(7):
        by_tableau = {}
        for p in all_permutations(n):
            P, _ = rsk_insert(p)
            by_tableau.setdefault(P, set()).add(charge(p))
        assert all(len(charges) == 1 for charges in by_tableau.values())


def test_ballot_word_predicates():
    assert is_ballot_word(())
    assert is_ballot_word((1, 1, 2, 1, 2))
    assert not is_ballot_word((2,))
    assert not is_ballot_word((1, 2, 2))
    assert not is_ballot_word((1, 3))


def test_ballot_tableau_conversions():
    assert ballot_to_tableau((1, 1, 2)) == ((1, 2), (3,))
    assert ballot_to_tableau((1, 2, 1)) == ((1, 3), (2,))
    assert ballot_to_tableau((1, 1)) == ((1, 2),)
    assert ballot_to_tableau(()) == ()
    for n in range(9):
        for w in enumerate_two_row_syt(n):
            t = ballot_to_tableau(w)
            assert is_standard_tableau(t)
            assert len(t) == 2
            assert tableau_to_ballot(t) == w
    with pytest.raises(ValueError):
        tableau_to_ballot(((1, 4), (2, 5), (3,)))  # three rows


def test_is_standard_tableau_rejections():
    assert not is_standard_tableau(((1, 3), (2, 4, 5)))  # shape not a partition
    assert not is_standard_tableau(((2, 1), (3,)))  # row not increasing
    assert not is_standard_tableau(((1, 2), (1,)))  # repeated entry
    assert not is_standard_tableau(((2, 3), (4,)))  # entries not 1..n
    assert not is_standard_tableau(((2, 3), (1, 4)))  # column not increasing
    assert not is_standard_tableau(((1, 2), (3,), ()))  # empty trailing row


def test_enumerate_two_row_syt_small():
    assert list(enumerate_two_row_syt(0)) == []
    assert list(enumerate_two_row_syt(1)) == []
    assert list(enumerate_two_row_syt(2)) == [(1, 2)]
    assert list(enumerate_two_row_syt(3)) == [(1, 1, 2), (1, 2, 1)]
    assert list(enumerate_two_row_syt(4)) == [
        (1, 1, 1, 2),
        (1, 1, 2, 1),
        (1, 1, 2, 2),
        (1, 2, 1, 1),
        (1, 2, 1, 2),
    ]
    with pytest.raises(ValueError, match="nonnegative"):
        list(enumerate_two_row_syt(-1))


def test_two_row_counts_match_enumeration_and_formula():
    for n in range(13):
        stream = list(enumerate_two_row_syt(n))
        assert stream == [w for w in itertools.product((1, 2), repeat=n) if 2 in w and is_ballot_word(w)]
        assert len(stream) == count_two_row(n)
        assert count_two_row(n) == (comb(n, n // 2) - 1 if n >= 2 else 0)


def test_count_two_row_values_and_parity():
    assert count_two_row(3) == 2
    assert count_two_row(5) == 9
    assert count_two_row(7) == 34
    assert count_two_row(15) == 6434
    for k in range(2, 11):
        assert count_two_row(2**k - 1) % 2 == 0


def test_shape_counts_match_enumeration():
    assert syt_count_two_row_shape(3, 1) == 2
    assert syt_count_two_row_shape(9, 0) == 1
    assert syt_count_two_row_shape(15, 7) == 1430
    for n in range(13):
        tally = {}
        for w in enumerate_two_row_syt(n):
            tally[w.count(2)] = tally.get(w.count(2), 0) + 1
        for r in range(1, n // 2 + 1):
            assert syt_count_two_row_shape(n, r) == tally.get(r, 0)
    with pytest.raises(ValueError):
        syt_count_two_row_shape(5, 3)
    with pytest.raises(ValueError):
        syt_count_two_row_shape(5, -1)


def test_ballot_rank_examples():
    assert ballot_rank((1, 1, 2)) == 0
    assert ballot_rank((1, 2, 1)) == 1
    assert ballot_rank((1, 1, 2, 1)) == 1
    with pytest.raises(ValueError):
        ballot_rank((1, 1, 1))  # single-row word
    with pytest.raises(ValueError):
        ballot_rank((2, 1))


def test_rank_is_the_stream_index_and_unrank_inverts_it():
    for n in range(11):
        for index, w in enumerate(enumerate_two_row_syt(n)):
            assert ballot_rank(w) == index
            assert ballot_unrank(n, index) == w
    with pytest.raises(ValueError):
        ballot_unrank(4, count_two_row(4))
    with pytest.raises(ValueError):
        ballot_unrank(4, -1)


def test_completion_counts_match_a_path_walk():
    from permstat.tableaux import _completions

    # walks[b]: {1,2}-words of the current length that stay >= 0 from balance b
    walks = [1] * 120
    for m in range(60):
        for balance in range(60):
            assert _completions(m, balance) == walks[balance]
        walks = [walks[b + 1] + (walks[b - 1] if b else 0) for b in range(len(walks) - 1)]


def test_ranking_many_long_words_keeps_the_completion_memo_bounded():
    import random

    from permstat.tableaux import _completions

    rng = random.Random(25)
    for _ in range(20):
        word, balance = [], 0
        for _ in range(tableaux.MAX_INVOLUTION_N):
            letter = 2 if balance and rng.random() < 0.5 else 1
            word.append(letter)
            balance += 1 if letter == 1 else -1
        ballot_rank(word)
    assert _completions.cache_info().currsize <= 8192
    assert _completions.cache_info().maxsize == 8192
    assert ballot_unrank(len(word), ballot_rank(word)) == tuple(word)


def test_rank_and_unrank_round_trip_at_size_1023():
    n = 2**10 - 1
    last = count_two_row(n) - 1
    first_word = (1,) * (n - 1) + (2,)
    assert ballot_rank(first_word) == 0
    assert ballot_unrank(n, 0) == first_word
    assert ballot_unrank(n, last) == (1, 2) * (n // 2) + (1,)
    for r in (1, 2, last // 3, last // 2, last - 1, last):
        assert ballot_rank(ballot_unrank(n, r)) == r
    assert involution_phi(involution_phi(first_word)) == first_word


def test_ballot_diagnostics_name_the_fault():
    with pytest.raises(ValueError, match="letter 3 at position 2"):
        ballot_rank((1, 3, 2))
    with pytest.raises(ValueError, match="prefix of length 3 has more 2s than 1s"):
        involution_phi((1, 2, 2, 1))


def test_involution_small_pairing():
    assert involution_phi((1, 1, 2)) == (1, 2, 1)
    assert involution_phi((1, 2, 1)) == (1, 1, 2)
    # the same pairing written as tableaux
    assert ballot_to_tableau((1, 1, 2)) == ((1, 2), (3,))
    assert ballot_to_tableau((1, 2, 1)) == ((1, 3), (2,))


def test_involution_laws():
    for n in (3, 7):
        words = list(enumerate_two_row_syt(n))
        for w in words:
            image = involution_phi(w)
            assert image != w
            assert len(image) == len(w)
            assert involution_phi(image) == w
        assert verify_involution(n)


def test_verify_involution_catches_a_broken_pairing(monkeypatch):
    def shifted(w):  # rank 2t goes to its partner 2t+1, but 2t+1 goes on to 2t+2
        return ballot_unrank(len(w), (ballot_rank(w) + 1) % count_two_row(len(w)))

    for broken, witness in ((lambda w: w, (1, 1, 1, 1, 1, 1, 2)), (shifted, ballot_unrank(7, 1))):
        monkeypatch.setattr(tableaux, "involution_phi", broken)
        with pytest.raises(VerificationError) as caught:
            verify_involution(7)
        assert caught.value.witness == witness


def test_involution_refuses_words_above_its_length_bound():
    longest = (1, 2) * (tableaux.MAX_INVOLUTION_N // 2) + (1,)  # the last word in rank order
    assert involution_phi(involution_phi(longest)) == longest
    for refused in (lambda: involution_phi((1,) * 4094 + (2,)), lambda: verify_involution(4095)):
        with pytest.raises(ExhaustionError, match="MAX_INVOLUTION_N=2047"):
            refused()
    with pytest.raises(ValueError, match="all-1s word"):
        involution_phi((1,) * 4095)


def test_ranking_and_the_q_binomials_refuse_above_their_bounds_at_once():
    # each bound sits in the function that does the work, and is checked before it
    for refused, bound in (
        (lambda: ballot_rank((1, 2) * 2047 + (1,)), "MAX_INVOLUTION_N=2047"),
        (lambda: ballot_unrank(4095, 0), "MAX_INVOLUTION_N=2047"),
        (lambda: ballot_unrank(10**6, 0), "MAX_INVOLUTION_N=2047"),
        (lambda: two_row_maj_polynomials(128), "MAX_FAST_N=127"),
        (lambda: two_row_maj_polynomials(10**4), "MAX_FAST_N=127"),
    ):
        start = time.perf_counter()
        with pytest.raises(ExhaustionError, match=bound):
            refused()
        assert time.perf_counter() - start < 0.1
    # a word's own faults still come before its length
    with pytest.raises(ValueError, match="prefix of length 1"):
        ballot_rank((2,) + (1,) * 4094)
    with pytest.raises(ValueError, match="all-1s word"):
        ballot_rank((1,) * 4095)
    assert ballot_unrank(tableaux.MAX_INVOLUTION_N, 0) == (1,) * 2046 + (2,)
    assert len(two_row_maj_polynomials(tableaux.MAX_FAST_N)) == 64
    with pytest.raises(ValueError, match="nonnegative"):
        two_row_maj_polynomials(-1)


def test_verify_involution_validates_each_word_once(monkeypatch):
    calls = []
    fault = tableaux._ballot_fault

    def counted(word):
        calls.append(len(word))
        return fault(word)

    monkeypatch.setattr(tableaux, "_ballot_fault", counted)
    assert verify_involution(15)
    assert len(calls) == count_two_row(15) == 6434


def test_involution_refuses_odd_counts():
    with pytest.raises(ValueError):
        involution_phi((1, 1, 2, 1, 2))  # n=5 has 9 two-row words
    with pytest.raises(ValueError):
        verify_involution(5)
    with pytest.raises(ValueError):
        involution_phi((1, 1, 1))


def test_counting_identity_for_321_avoiders():
    # 1 + sum of squared shape counts is the avoider count, a Catalan number
    for n in range(11):
        total = 1 + sum(
            syt_count_two_row_shape(n, r) ** 2 for r in range(1, n // 2 + 1)
        )
        assert total == cached_polynomial(n, P321, "ch").total()
    for n in range(21):
        total = 1 + sum(
            syt_count_two_row_shape(n, r) ** 2 for r in range(1, n // 2 + 1)
        )
        assert total == catalan_dp(n)


def test_fast_ch_321_examples():
    assert fast_ch_321(0).coeffs == (1,)
    assert fast_ch_321(1).coeffs == (1,)
    assert fast_ch_321(2).coeffs == (1, 1)
    assert fast_ch_321(3).coeffs == (1, 2, 2)


def test_fast_ch_321_agrees_with_enumeration():
    for n in range(9):
        assert fast_ch_321(n) == cached_polynomial(n, P321, "ch")


def test_fast_ch_321_matches_the_ballot_word_walk():
    for n in range(16):
        assert fast_ch_321(n) == ballot_walk_ch_321(n), n


def test_shape_maj_polynomials_match_a_direct_tableau_walk():
    # maj(T) sums the i with i in row 1 and i+1 in row 2
    for n in range(13):
        walked = {}
        for w in itertools.product((1, 2), repeat=n):
            if not is_ballot_word(w):
                continue
            maj = sum(i for i in range(1, n) if w[i - 1] == 1 and w[i] == 2)
            counts = walked.setdefault(w.count(2), [0] * (n * n + 1))
            counts[maj] += 1
        shapes = two_row_maj_polynomials(n)
        assert len(shapes) == len(walked) == n // 2 + 1
        for r, poly in enumerate(shapes):
            trimmed = walked[r][: max(i for i, c in enumerate(walked[r]) if c) + 1]
            assert poly == trimmed, (n, r)
            assert sum(poly) == syt_count_two_row_shape(n, r)


def test_parity_theorems_beyond_the_ballot_walk():
    for k in (5, 6, 7):
        n = 2**k - 1
        assert verify_theorem8(k)
        assert verify_corollary9(k)
        for stat in ("ch", "maj"):
            poly = parity_polynomial(k, stat)
            assert poly.total() == catalan_dp(n)
            assert poly.coeffs[0] == 1
            assert all(c % 2 == 0 for c in poly.coeffs[1:])
    with pytest.raises(ExhaustionError):
        fast_ch_321(128)


def test_the_closed_form_serves_charge_and_major_index_alike():
    for n in range(tableaux.MAX_FAST_N + 1):
        charge_poly, maj_poly = fast_ch_321(n), fast_ch_321(n, "maj")
        assert (charge_poly.stat, maj_poly.stat) == ("charge", "major_index")
        assert maj_poly.coeffs == charge_poly.coeffs, n
    for refused in (lambda: fast_ch_321(5, "inv"), lambda: parity_polynomial(2, "inv")):
        with pytest.raises(ValueError, match="serves charge and major_index, not inversions"):
            refused()


def test_fast_ch_321_at_size_fifteen():
    poly = fast_ch_321(15)
    assert poly.total() == 9_694_845
    assert poly.coeffs[0] == 1
    assert all(c % 2 == 0 for c in poly.coeffs[1:])


def test_has_parity_pattern_needs_constant_term_one():
    assert has_parity_pattern(StatPolynomial.from_counts([1, 2, 4], n=3, patterns=P321, stat="ch"))
    for counts in ([3, 2], [0, 2], [], [1, 3]):
        assert not has_parity_pattern(StatPolynomial.from_counts(counts, n=3, patterns=P321, stat="ch"))


def test_lemma5_cross_check_failure_is_raised(monkeypatch):
    monkeypatch.setattr(tableaux, "enumerate_avoiders", lambda n, patterns: iter([(1,)] * 5))
    with pytest.raises(VerificationError, match=r"shape-count identity failed at n=7: 429 != 5") as caught:
        lemma5_count(3)
    assert caught.value.witness is None
    assert lemma5_count(4) == 9694845  # above k = 3 nothing is enumerated


def test_parity_polynomial_cross_check_failures_are_raised(monkeypatch):
    # k <= 3: the closed form against enumeration of the named statistic
    def wrong_enumeration(n, patterns, stat):
        return StatPolynomial.from_counts([1, 1], n=n, patterns=patterns, stat=stat)

    with monkeypatch.context() as patch:
        patch.setattr(tableaux, "stat_polynomial", wrong_enumeration)
        with pytest.raises(VerificationError, match="closed-form major_index polynomial disagrees") as caught:
            parity_polynomial(2, "maj")
    assert caught.value.witness == ((1, 2, 2), (1, 1))
    # k > 3: the coefficient sum against the Catalan number
    def wrong_closed_form(n, stat):
        return StatPolynomial.from_counts([1, 2], n=n, patterns=P321, stat=stat)

    monkeypatch.setattr(tableaux, "fast_ch_321", wrong_closed_form)
    with pytest.raises(VerificationError, match="coefficient sum 3 at n=15 is not the Catalan number") as caught:
        parity_polynomial(4, "ch")
    assert caught.value.witness is None


def test_verify_lemma5():
    assert verify_lemma5(1)
    assert verify_lemma5(2)
    assert verify_lemma5(3)
    assert verify_lemma5(4)
    with pytest.raises(ValueError):
        verify_lemma5(0)
    with pytest.raises(ExhaustionError):
        verify_lemma5(11)


def test_lemma5_count_is_the_catalan_number():
    # every k up to the bound: the squares of comb's shape counts and Catalan(n)
    for k in range(1, 11):
        n = 2**k - 1
        squares = sum(syt_count_two_row_shape(n, r) ** 2 for r in range(n // 2 + 1))
        assert lemma5_count(k) == squares == comb(2 * n, n) // (n + 1), k
        if k <= 5:
            assert lemma5_count(k) == catalan_dp(n)
    with pytest.raises(ExhaustionError):
        lemma5_count(11)


def test_verify_theorem8():
    assert verify_theorem8(1)
    assert verify_theorem8(2)
    assert verify_theorem8(3)
    assert verify_theorem8(4)
    with pytest.raises(ValueError):
        verify_theorem8(0)
    with pytest.raises(ExhaustionError):
        verify_theorem8(8)


def test_verify_corollary9():
    assert verify_corollary9(1)
    assert verify_corollary9(2)
    assert verify_corollary9(3)
    assert verify_corollary9(4)
    with pytest.raises(ExhaustionError):
        verify_corollary9(8)


def test_major_index_equals_charge_over_321_avoiders():
    for n in range(9):
        assert (
            cached_polynomial(n, P321, "maj").coeffs
            == cached_polynomial(n, P321, "ch").coeffs
        )


def test_parity_mechanism_every_two_row_multiplier_is_even():
    # at sizes 2**k - 1 every binomial(n, j) is odd, so each two-row shape
    # count is a difference of odd numbers: the per-tableau multipliers in
    # the fast assembly are all even, forcing even coefficients beyond q^0
    for n in (3, 7, 15):
        for r in range(1, n // 2 + 1):
            assert syt_count_two_row_shape(n, r) % 2 == 0
        poly = fast_ch_321(n)
        assert poly.coeffs[0] == 1
        assert all(c % 2 == 0 for c in poly.coeffs[1:])
