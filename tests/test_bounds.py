"""Every named bound refuses one step past it with the one refusal text."""
import pytest

import permstat.cli as cli
from permstat import (
    MAX_DP_NMAX,
    MAX_EXHAUSTIVE,
    ExhaustionError,
    ballot_rank,
    ballot_unrank,
    count_two_row,
    fast_ch_321,
    length3_polynomials,
    lemma5_count,
    parity_polynomial,
    two_row_maj_polynomials,
    verify_involution,
    verify_lemma1,
    verify_lemma2,
    wilf_engine,
)
from permstat.tableaux import MAX_FAST_N, MAX_INVOLUTION_N, MAX_INVOLUTION_WORDS, MAX_LEMMA5_K, MAX_PARITY_K

route = wilf_engine.polynomial_route

# (entry taking the size, label, route, constant name, bound)
BOUNDS = [
    (verify_lemma1, "n", "exhaustive", "MAX_EXHAUSTIVE", MAX_EXHAUSTIVE),
    (verify_lemma2, "n", "exhaustive", "MAX_EXHAUSTIVE", MAX_EXHAUSTIVE),
    (lambda n: route([(1, 2, 3, 4)], "inv", n), "n", "exhaustive", "MAX_EXHAUSTIVE", MAX_EXHAUSTIVE),
    (lambda n: route([(1, 3, 2)], "ch", n), "n_max", "length-3 sweep", "MAX_DP_NMAX", MAX_DP_NMAX),
    (lambda n: route([(3, 2, 1)], "maj", n), "n", "fast-route", "MAX_FAST_N", MAX_FAST_N),
    (lambda n: length3_polynomials(n, [(1, 3, 2)], "ch"), "n_max", "length-3 sweep", "MAX_DP_NMAX", MAX_DP_NMAX),
    (two_row_maj_polynomials, "n", "fast-route", "MAX_FAST_N", MAX_FAST_N),
    (fast_ch_321, "n", "fast-route", "MAX_FAST_N", MAX_FAST_N),
    (lambda n: ballot_rank((1, 2) * (n // 2)), "length n", "ballot-word", "MAX_INVOLUTION_N", MAX_INVOLUTION_N),
    (lambda n: ballot_unrank(n, 0), "length n", "ballot-word", "MAX_INVOLUTION_N", MAX_INVOLUTION_N),
    (verify_involution, "length n", "ballot-word", "MAX_INVOLUTION_N", MAX_INVOLUTION_N),
    (lambda k: parity_polynomial(k, "ch"), "k", "supported", "MAX_PARITY_K", MAX_PARITY_K),
    (lemma5_count, "k", "supported", "MAX_LEMMA5_K", MAX_LEMMA5_K),
]


def refusal(call, size):
    with pytest.raises(ExhaustionError) as caught:
        call(size)
    return str(caught.value)


@pytest.mark.parametrize("call, label, route_name, name, bound", BOUNDS)
def test_each_bound_refuses_one_step_past_it_in_the_one_template(call, label, route_name, name, bound):
    size = bound + 1
    assert refusal(call, size) == f"{label}={size} exceeds the {route_name} bound {name}={bound}"


def test_the_word_count_bound_names_n_and_the_count():
    n = 31  # the first size of the form 2**k - 1 past MAX_INVOLUTION_WORDS words
    assert count_two_row(15) <= MAX_INVOLUTION_WORDS < count_two_row(n)
    assert refusal(verify_involution, n) == (
        f"count_two_row({n})={count_two_row(n)} exceeds the exhaustive bound MAX_INVOLUTION_WORDS=2000000"
    )


def test_a_negative_size_is_refused_before_its_bound():
    for call, label in (
        (verify_lemma1, "n"),
        (verify_lemma2, "n"),
        (lambda n: route([(1, 2, 3, 4)], "inv", n), "n"),
        (lambda n: route([(1, 3, 2)], "ch", n), "n_max"),
        (lambda n: route([(3, 2, 1)], "ch", n), "n"),
        (lambda n: length3_polynomials(n, [(1, 3, 2)], "ch"), "n_max"),
        (two_row_maj_polynomials, "n"),
        (fast_ch_321, "n"),
        (lambda n: ballot_unrank(n, 0), "length n"),
        (verify_involution, "length n"),
    ):
        for size in (-1, -(10**6)):
            with pytest.raises(ValueError) as caught:
                call(size)
            assert str(caught.value) == f"{label} must be nonnegative"
            assert not isinstance(caught.value, ExhaustionError)
    for call in (lambda k: parity_polynomial(k, "maj"), lemma5_count):
        for k in (0, -1):
            with pytest.raises(ValueError, match="^k must be positive$"):
                call(k)


def test_a_route_refuses_alike_called_directly_or_through_the_chooser(capsys):
    for direct, through, size in (
        (lambda n: length3_polynomials(n, [(1, 3, 2)], "maj"), lambda n: route([(1, 3, 2)], "maj", n), MAX_DP_NMAX + 1),
        (fast_ch_321, lambda n: route([(3, 2, 1)], "ch", n), MAX_FAST_N + 1),
        (verify_lemma1, lambda n: route([(1, 2, 3, 4)], "ch", n), MAX_EXHAUSTIVE + 1),
    ):
        assert refusal(direct, size) == refusal(through, size)
    text = refusal(lambda n: length3_polynomials(n, [(1, 3, 2)], "ch"), MAX_DP_NMAX + 1)
    for argv in (
        ["classes", "--stat", "ch", "--candidate", "132", "--nmax", "21"],
        ["poly", "--fast", "--n", "21", "--avoid", "132", "--stat", "ch"],
        ["verify", "theorem3", "--nmax", "21"],
    ):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"permstat: error: {text}\n")
