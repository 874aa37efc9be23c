import hashlib
import itertools
import json

import pytest

from math import comb

import permstat.cli as cli

from permstat import (
    MAX_DP_NMAX,
    MAX_EXHAUSTIVE,
    ExhaustionError,
    S3,
    StatPolynomial,
    VerificationError,
    all_permutations,
    charge,
    f_image,
    f_map,
    fast_ch_321,
    inversions,
    length3_polynomials,
    major_index,
    st_wilf_classes,
    tableaux,
    verify_lemma1,
    verify_lemma2,
    verify_theorem3,
    verify_theorem4,
    wilf_engine,
)
from permstat.statistics import _length3_set

from helpers import cached_polynomial, catalan_dp, contained_patterns

# Image of each length-3 pattern under f, written out independently of f_map.
F_CORRESPONDENCE = {
    (1, 2, 3): (1, 2, 3),
    (1, 3, 2): (2, 1, 3),
    (2, 1, 3): (1, 3, 2),
    (2, 3, 1): (2, 3, 1),
    (3, 1, 2): (3, 1, 2),
    (3, 2, 1): (3, 2, 1),
}


def _subsets_of_s3():
    out = []
    for size in range(len(S3) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(S3, size))
    return out


def test_f_image_is_elementwise():
    assert f_image([(1, 3, 2), (2, 3, 1)]) == frozenset({(2, 1, 3), (2, 3, 1)})
    assert f_image([]) == frozenset()
    for s in S3:
        assert f_image([s]) == frozenset({F_CORRESPONDENCE[s]})
        assert f_map(s) == F_CORRESPONDENCE[s]


def test_f_transport_identity_for_all_pattern_subsets():
    # the engine behind the class relabelings: the major-index polynomial of a
    # pattern set equals the charge polynomial of its f image, coefficient for
    # coefficient, at every size
    for pi in _subsets_of_s3():
        image = f_image(pi)
        for n in range(9):
            maj = cached_polynomial(n, tuple(sorted(pi)), "maj")
            ch = cached_polynomial(n, tuple(sorted(image)), "ch")
            assert maj.coeffs == ch.coeffs, (sorted(pi), n)


def test_st_wilf_classes_singletons():
    report = st_wilf_classes(([s] for s in S3), "ch", 6)
    classes = {frozenset(c) for c in report.classes}
    assert classes == {
        frozenset({frozenset({(1, 2, 3)})}),
        frozenset({frozenset({(3, 2, 1)})}),
        frozenset({frozenset({(1, 3, 2)}), frozenset({(3, 1, 2)})}),
        frozenset({frozenset({(2, 1, 3)}), frozenset({(2, 3, 1)})}),
    }

    report_maj = st_wilf_classes(([s] for s in S3), "maj", 6)
    classes_maj = {frozenset(c) for c in report_maj.classes}
    assert classes_maj == {
        frozenset({frozenset({(1, 2, 3)})}),
        frozenset({frozenset({(3, 2, 1)})}),
        frozenset({frozenset({(1, 3, 2)}), frozenset({(2, 3, 1)})}),
        frozenset({frozenset({(2, 1, 3)}), frozenset({(3, 1, 2)})}),
    }


def test_charge_and_maj_classes_are_f_relabelings_of_each_other():
    singletons = [frozenset([s]) for s in S3]
    pairs = [frozenset(c) for c in itertools.combinations(S3, 2)]
    for candidates, n_max in ((singletons, 6), (pairs, 5), (singletons + pairs, 4)):
        charge_report = st_wilf_classes(candidates, "ch", n_max)
        maj_report = st_wilf_classes(candidates, "maj", n_max)
        relabeled = {
            frozenset(f_image(member) for member in cls) for cls in maj_report.classes
        }
        assert relabeled == {frozenset(c) for c in charge_report.classes}


def test_report_is_a_partition_with_witnesses():
    candidates = [frozenset([s]) for s in S3] + [frozenset({(1, 3, 2), (2, 1, 3)}), frozenset()]
    report = st_wilf_classes(candidates, "inv", 5)
    members = [m for cls in report.classes for m in cls]
    assert len(members) == len(set(members)) == len(set(candidates))  # disjoint and covering
    assert set(members) == set(candidates)
    assert report.n_range == (0, 5)
    for pi, polys in report.witness_polynomials.items():
        assert len(polys) == 6
        assert all(poly.patterns == pi for poly in polys)
    # members of one class agree on witness polynomials, and class sizes imply
    # plain Wilf equivalence: the coefficient sums agree too
    for cls in report.classes:
        seqs = {tuple(p.coeffs for p in report.witness_polynomials[m]) for m in cls}
        assert len(seqs) == 1
        sums = {tuple(p.total() for p in report.witness_polynomials[m]) for m in cls}
        assert len(sums) == 1


def test_st_wilf_classes_single_candidate_and_validation():
    report = st_wilf_classes([[(1, 3, 2)]], "ch", 4)
    assert len(report.classes) == 1
    assert report.class_of([(1, 3, 2)]) == report.classes[0]
    with pytest.raises(KeyError):
        report.class_of([(3, 2, 1)])
    with pytest.raises(ValueError):
        st_wilf_classes([], "ch", 4)
    with pytest.raises(ValueError):
        st_wilf_classes([[(1, 2, 3)]], "ch", -1)


def test_length3_route_equals_enumeration_for_every_subset_of_s3():
    # every candidate here takes the length-3 route; its witnesses must be the
    # enumerated polynomials, metadata included (patterns are the candidate's own)
    candidates = [pi for pi in _subsets_of_s3() if pi]
    assert len(candidates) == 63
    for stat in ("ch", "maj", "inv"):
        report = st_wilf_classes(candidates, stat, 10)
        for pi in candidates:
            expected = tuple(cached_polynomial(n, tuple(sorted(pi)), stat) for n in range(11))
            assert report.witness_polynomials[pi] == expected, (sorted(pi), stat)


def test_length3_polynomials_of_every_subset_of_s3_equal_filtering_to_7():
    # brute force, sharing no code with the search: the test above compares
    # the sweep with the walk, and both cut dead ends in perm_core._live_next
    stats = {"ch": charge, "maj": major_index, "inv": inversions}
    tables = []  # per n: (length-3 patterns in p, statistics of p) for p in S_n
    for n in range(8):
        tables.append([(contained_patterns(p, 3), {s: fn(p) for s, fn in stats.items()}) for p in all_permutations(n)])
    for r in range(1, 7):
        for patterns in itertools.combinations(S3, r):
            for stat in stats:
                got = length3_polynomials(7, patterns, stat)
                for n, table in enumerate(tables):
                    counts = [0] * (n * (n - 1) // 2 + 1)
                    for seen, values in table:
                        if seen.isdisjoint(patterns):
                            counts[values[stat]] += 1
                    expected = StatPolynomial.from_counts(counts, n=n, patterns=patterns, stat=stat)
                    assert got[n] == expected, (n, patterns, stat)


def test_length3_polynomials_of_every_subset_of_s3_are_unchanged_to_10():
    # the sha256 of every polynomial at n_max 10, for all 63 nonempty subsets
    # of S_3 under ch, maj and inv, as recorded from the sweep when it equaled
    # enumeration (the test above); a change to its moves must keep it
    digest = hashlib.sha256()
    for stat in ("ch", "maj", "inv"):
        for r in range(1, 7):
            for patterns in itertools.combinations(sorted(S3), r):
                for poly in length3_polynomials(10, patterns, stat):
                    digest.update(repr((stat, patterns, poly.n, poly.coeffs)).encode())
    assert digest.hexdigest() == "73f773991a30d43579ec79092bd9371ae6e0a7e02ab690b7d838bc9dc19ebdb3"


def test_st_wilf_classes_enumerates_only_the_other_candidates(monkeypatch):
    enumerated = []

    def recording_stat_polynomial(n, patterns, stat):
        enumerated.append(frozenset(patterns))
        return cached_polynomial(n, tuple(sorted(patterns)), stat)

    monkeypatch.setattr(wilf_engine, "stat_polynomial", recording_stat_polynomial)
    other = [frozenset(), frozenset({(2, 1)}), frozenset({(1, 2, 3), (2, 1, 4, 3)})]
    report = st_wilf_classes([[s] for s in S3] + other, "maj", 6)
    assert set(enumerated) == set(other) and len(enumerated) == 3 * 7
    for s in S3:
        assert report.witness_polynomials[frozenset([s])] == length3_polynomials(6, [s], "maj")


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _inv_catalan(n_max, shift):
    """inv over Av_n(s) by splitting at the entry n + 1:
    C_{n+1}(q) = sum_k q^shift(k, n) C_k(q) C_{n-k}(q), for n = 0..n_max."""
    polys = [[1]]
    for n in range(n_max):
        total = [0] * (n * (n + 1) // 2 + 1)
        for k in range(n + 1):
            for i, c in enumerate(_poly_mul(polys[k], polys[n - k])):
                total[i + shift(k, n)] += c
        polys.append(total)
    return polys


# Simion and Schmidt: |Av_n| of the pairs of S_3 for n >= 1; the ten pairs
# not listed have 2^(n-1) avoiders.
_PAIR_COUNTS = {
    ((1, 2, 3), (2, 3, 1)): lambda n: comb(n, 2) + 1,
    ((1, 2, 3), (3, 1, 2)): lambda n: comb(n, 2) + 1,
    ((1, 3, 2), (3, 2, 1)): lambda n: comb(n, 2) + 1,
    ((2, 1, 3), (3, 2, 1)): lambda n: comb(n, 2) + 1,
    ((1, 2, 3), (3, 2, 1)): lambda n: (1, 2, 4, 4)[n - 1] if n < 5 else 0,  # Erdos-Szekeres
}


def test_length3_route_matches_independent_counts_up_to_16():
    for s in S3:
        polys = length3_polynomials(16, [s], "maj")
        assert [p.total() for p in polys] == [catalan_dp(n) for n in range(17)], s
    for pair in itertools.combinations(S3, 2):
        count = _PAIR_COUNTS.get(pair, lambda n: 2 ** (n - 1))
        polys = length3_polynomials(16, pair, "ch")
        assert [p.total() for p in polys[1:]] == [count(n) for n in range(1, 17)], pair


def test_length3_inversions_follow_the_q_catalan_recurrences_up_to_16():
    # In Av_{n+1}(231) the entry n + 1 splits p into a < b, so it inverts with
    # the n - k entries of b; after k -> n - k that is Carlitz and Riordan's
    # q^k C_k C_{n-k}.  In Av_{n+1}(132), a > b, so n + 1 and all of a invert
    # with b.  Reverse-complement keeps inv and maps 231 to 312, 132 to 213.
    carlitz = _inv_catalan(16, lambda k, n: k)
    shifted = _inv_catalan(16, lambda k, n: (k + 1) * (n - k))
    for patterns, expected in (((2, 3, 1), carlitz), ((3, 1, 2), carlitz), ((1, 3, 2), shifted), ((2, 1, 3), shifted)):
        polys = length3_polynomials(16, [patterns], "inv")
        assert [list(p.coeffs) for p in polys] == expected, patterns


def test_length3_route_matches_the_321_closed_form():
    # ch and maj over Av_n(321) are both fast_ch_321(n).  Complement maps
    # Av(321) onto Av(123) and complements the descent set of p, and of p^-1
    # after reversal, so over Av_n(123) both read that vector backwards from
    # degree C(n, 2).
    for stat in ("ch", "maj"):
        decreasing = length3_polynomials(16, [(3, 2, 1)], stat)
        increasing = length3_polynomials(16, [(1, 2, 3)], stat)
        for n in range(17):
            expected = fast_ch_321(n).coeffs
            assert decreasing[n].coeffs == expected, (stat, n)
            padded = expected + (0,) * (comb(n, 2) + 1 - len(expected))
            assert increasing[n].coeffs == padded[::-1], (stat, n)
    # at the bound, where the packed tallies are widest
    top = length3_polynomials(MAX_DP_NMAX, [(3, 2, 1)], "maj")[MAX_DP_NMAX]
    assert top.coeffs == fast_ch_321(MAX_DP_NMAX).coeffs


def test_st_wilf_classes_bounds_per_route():
    singletons = [[s] for s in S3]
    with pytest.raises(ExhaustionError, match=f"MAX_DP_NMAX={MAX_DP_NMAX}"):
        st_wilf_classes(singletons, "ch", MAX_DP_NMAX + 1)
    for other in ([(1, 2, 3, 4)], [], [(2, 1)]):
        with pytest.raises(ExhaustionError, match=f"MAX_EXHAUSTIVE={MAX_EXHAUSTIVE}"):
            st_wilf_classes(singletons + [other], "maj", MAX_EXHAUSTIVE + 1)
    assert st_wilf_classes(singletons + [[(2, 1)]], "inv", MAX_EXHAUSTIVE).n_range == (0, MAX_EXHAUSTIVE)
    with pytest.raises(ValueError):
        length3_polynomials(-1, [(1, 2, 3)], "ch")
    with pytest.raises(ExhaustionError, match=f"n_max=21 exceeds .* MAX_DP_NMAX={MAX_DP_NMAX}"):
        length3_polynomials(MAX_DP_NMAX + 1, [(1, 3, 2)], "ch")  # only a direct call reaches it


def test_one_test_says_which_sets_the_length3_sweep_serves():
    others = [frozenset({(2, 1)}), frozenset({(1, 2, 3), (1, 2)}), frozenset({(1, 2, 3, 4)})]
    for pi in _subsets_of_s3() + others:
        try:
            length3_polynomials(4, pi, "ch")
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (bool(pi) and pi <= set(S3)), pi
        assert _length3_set(pi) == accepted, pi


def test_st_wilf_classes_refuses_before_computing(monkeypatch, capsys):
    def computed(*args, **kwargs):
        pytest.fail(f"a polynomial was computed before the refusal: {args}")

    monkeypatch.setattr(tableaux, "fast_ch_321", computed)
    monkeypatch.setattr(wilf_engine, "length3_polynomials", computed)
    monkeypatch.setattr(wilf_engine, "stat_polynomial", computed)
    with pytest.raises(ExhaustionError, match=f"MAX_EXHAUSTIVE={MAX_EXHAUSTIVE}"):
        st_wilf_classes([[s] for s in S3] + [[(1, 2, 3, 4)]], "ch", MAX_EXHAUSTIVE + 1)
    # {321} (the closed form) and a length-3 pair (the sweep) sort before the enumerated set over its bound
    with pytest.raises(ExhaustionError, match=f"MAX_EXHAUSTIVE={MAX_EXHAUSTIVE}"):
        st_wilf_classes([[(3, 2, 1)], [(1, 3, 2), (2, 1, 3)], [(4, 3, 2, 1)]], "maj", MAX_EXHAUSTIVE + 1)
    with pytest.raises(ExhaustionError, match=f"MAX_FAST_N={tableaux.MAX_FAST_N}"):
        st_wilf_classes([[(3, 2, 1)]], "ch", tableaux.MAX_FAST_N + 1)
    with pytest.raises(ExhaustionError, match=f"MAX_FAST_N={tableaux.MAX_FAST_N}"):
        wilf_engine.polynomial_route([(3, 2, 1)], "maj", tableaux.MAX_FAST_N + 1)
    argv = ["classes", "--candidate", "321", "--stat", "ch", "--nmax", str(tableaux.MAX_FAST_N + 1)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "permstat: error: n=128 exceeds the fast-route bound MAX_FAST_N=127\n")


def test_verify_lemma1_small_sizes():
    assert verify_lemma1(1)
    assert verify_lemma1(3)
    assert verify_lemma1(6)


def test_verify_lemma1_respects_the_exhaustion_bound():
    with pytest.raises(ExhaustionError):
        verify_lemma1(MAX_EXHAUSTIVE + 1)
    with pytest.raises(ValueError):
        verify_lemma1(-1)


def test_a_failed_lemma1_names_its_first_counterexample(monkeypatch, capsys):
    # charge is made wrong on the f-images of two permutations; the one that
    # comes first in lexicographic order is the witness, in the library and the CLI
    broken = {f_map((2, 1, 4, 3)), f_map((1, 4, 3, 2))}
    monkeypatch.setattr(wilf_engine, "charge", lambda q: charge(q) + (q in broken))
    with pytest.raises(VerificationError, match=r"counterexample \(1, 4, 3, 2\)") as caught:
        verify_lemma1(4)
    assert caught.value.witness == (1, 4, 3, 2)
    assert cli.main(["verify", "lemma1", "--n", "4", "--format", "json"]) == 2
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == {"passed": False, "error": str(caught.value), "witness": [1, 4, 3, 2]}


def test_verify_lemma2_returns_the_correspondence():
    for n in range(7):
        assert verify_lemma2(n) == F_CORRESPONDENCE


def test_verify_lemma2_names_the_least_differing_permutation(monkeypatch):
    # f breaks on S_4 (it fixes every permutation there) but still maps the patterns
    monkeypatch.setattr(wilf_engine, "f_map", lambda p: f_map(p) if len(p) == 3 else p)
    message = r"the \(1, 3, 2\)-avoiders differs from the \(2, 1, 3\)-avoiders at n=4"
    with pytest.raises(VerificationError, match=message) as caught:
        verify_lemma2(4)
    avoiders = {t: {p for p in all_permutations(4) if t not in contained_patterns(p, 3)}
                for t in ((1, 3, 2), (2, 1, 3))}
    assert caught.value.witness == min(avoiders[1, 3, 2] ^ avoiders[2, 1, 3])


def test_verify_theorem3_structure():
    report = verify_theorem3(6)
    assert report.class_sizes() == (1, 1, 2, 2)
    assert report.class_of([(1, 3, 2)]) == report.class_of([(3, 1, 2)])
    report_maj = verify_theorem3(6, "maj")
    assert report_maj.class_of([(1, 3, 2)]) == report_maj.class_of([(2, 3, 1)])
    with pytest.raises(ValueError):
        verify_theorem3(6, "inv")


def test_verify_theorem4_structure():
    report = verify_theorem4(6)
    assert report.class_sizes() == (1,) * 10 + (4,)
    quad = report.class_of([(1, 3, 2), (2, 1, 3)])
    assert set(quad) == {
        frozenset({(1, 3, 2), (2, 1, 3)}),
        frozenset({(2, 1, 3), (3, 1, 2)}),
        frozenset({(1, 3, 2), (2, 3, 1)}),
        frozenset({(2, 3, 1), (3, 1, 2)}),
    }

    report_maj = verify_theorem4(6, "maj")
    quad_maj = report_maj.class_of([(1, 3, 2), (2, 1, 3)])
    assert set(quad_maj) == {
        frozenset({(1, 3, 2), (2, 1, 3)}),
        frozenset({(1, 3, 2), (3, 1, 2)}),
        frozenset({(2, 1, 3), (2, 3, 1)}),
        frozenset({(2, 3, 1), (3, 1, 2)}),
    }


def test_verify_theorem3_major_index_partition():
    report = verify_theorem3(6, "maj")
    assert {frozenset(c) for c in report.classes} == {
        frozenset({frozenset({(1, 2, 3)})}),
        frozenset({frozenset({(3, 2, 1)})}),
        frozenset({frozenset({(1, 3, 2)}), frozenset({(2, 3, 1)})}),
        frozenset({frozenset({(2, 1, 3)}), frozenset({(3, 1, 2)})}),
    }


def test_wrong_expected_partition_fails_both_ways(monkeypatch):
    # a Theorem 3 table that pairs 132 with 213 instead of 312
    wrong = (((1, 2, 3),), ((1, 3, 2), (2, 1, 3)), ((2, 3, 1), (3, 1, 2)), ((3, 2, 1),))
    monkeypatch.setattr(wilf_engine, "_THEOREM3_CHARGE", wrong)
    for stat in ("ch", "maj"):
        with pytest.raises(VerificationError, match="does not match the expected one") as exc:
            verify_theorem3(6, stat)
        # the witness is the whole report, so a failure prints as a passed check does
        assert exc.value.witness == st_wilf_classes(([s] for s in S3), stat, 6)
        with pytest.raises(VerificationError, match="is split at n_max=5") as exc:
            verify_theorem3(5, stat)
        assert exc.value.witness == st_wilf_classes(([s] for s in S3), stat, 5)


def test_verify_theorem4_small_n_max_only_requires_refinement():
    # accidental coincidences below size 6 may merge classes but never split the quadruple
    report = verify_theorem4(3)
    assert max(len(c) for c in report.classes) >= 4
    with pytest.raises(ValueError):
        verify_theorem4(2)


def test_both_class_checks_refuse_an_n_max_where_nothing_can_fail():
    # no length-3 pattern occurs below size 3, so every candidate has the same polynomials
    for check in (verify_theorem3, verify_theorem4):
        for n_max in (-1, 0, 1, 2):
            for stat in ("ch", "maj", "inv"):
                with pytest.raises(ValueError, match=r"^n_max must be at least 3$"):
                    check(n_max, stat)


def test_verification_error_carries_a_witness():
    try:
        raise VerificationError("boom", witness=(1, 2, 3))
    except VerificationError as exc:
        assert exc.witness == (1, 2, 3)
