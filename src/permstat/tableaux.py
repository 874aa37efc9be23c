"""
Standard Young tableaux, row insertion, and ballot-word machinery.

Tableaux use the English convention: row 1 is the longest row, rows are
tuples of increasing entries, and columns increase downward.  A tableau
with at most two rows is encoded by its ballot word: the {1,2}-word
whose i-th letter names the row receiving entry i; every prefix of such
a word has at least as many 1s as 2s.

A permutation p avoids 321 exactly when its insertion tableau P has at
most two rows.  Its charge is sum(n - d for d in Des(p^-1)), and
Des(p^-1) = Des(P), so charge depends on P alone; that sum is
maj(evac(P)), and evacuation permutes the tableaux of one shape.  Its
major index is maj(Q) for the recording tableau Q.  Either way each
shape (n-r, r) contributes f^(n-r,r) times
sum(q**maj(T) for T of that shape), which for two rows is the
q-binomial difference [n choose r]_q - [n choose r-1]_q.  So the charge
and major-index polynomials over 321-avoiders are one closed form,
exact at every size up to MAX_FAST_N without enumerating anything.
"""
from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from itertools import chain
from math import comb
from typing import Iterator, Sequence

from .errors import VerificationError, size_bound
from .perm_core import Permutation, enumerate_avoiders
from .statistics import CHARGE, MAJOR_INDEX, StatPolynomial, parse_stat, stat_polynomial

Tableau = tuple[tuple[int, ...], ...]
BallotWord = tuple[int, ...]

_PATTERN_321 = (3, 2, 1)

# Refusal limits, so that no input runs for an unbounded time, each checked
# in the function that pays for the work and before it starts.  The q-binomials
# of two_row_maj_polynomials cost O(n**3) big-integer steps (n = 127 in a
# fraction of a second), so it refuses n above MAX_FAST_N.  Ranking and
# unranking a word take about six times as long per doubling of its length
# (under half a second at 2047 letters), so ballot_rank refuses a word above
# MAX_INVOLUTION_N once it has validated it, and ballot_unrank a length above
# it before it counts words.  The involution check walks every word.  Each
# bound's refusal is stated once, by errors.size_bound.
MAX_PARITY_K = 7
MAX_FAST_N = 2**MAX_PARITY_K - 1
MAX_LEMMA5_K = 10
MAX_INVOLUTION_N = 2**11 - 1
MAX_INVOLUTION_WORDS = 2_000_000
_check_parity_k = size_bound(MAX_PARITY_K, "MAX_PARITY_K", "supported", "k")
_check_fast = size_bound(MAX_FAST_N, "MAX_FAST_N", "fast-route")
_check_lemma5_k = size_bound(MAX_LEMMA5_K, "MAX_LEMMA5_K", "supported", "k")
_check_length = size_bound(MAX_INVOLUTION_N, "MAX_INVOLUTION_N", "ballot-word", "length n")


def tableau_shape(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return tuple(len(row) for row in rows)


def is_standard_tableau(rows: Sequence[Sequence[int]]) -> bool:
    """Entries are exactly 1..n, rows and columns strictly increase, shape is a partition."""
    shape = tableau_shape(rows)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        return False
    if shape and shape[-1] == 0:
        return False
    entries = sorted(chain.from_iterable(rows))
    if entries != list(range(1, sum(shape) + 1)):
        return False
    for row in rows:
        if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            return False
    for r in range(1, len(rows)):
        if any(rows[r - 1][c] >= rows[r][c] for c in range(len(rows[r]))):
            return False
    return True


def check_standard_tableau(rows: Sequence[Sequence[int]]) -> Tableau:
    t = tuple(tuple(row) for row in rows)
    if not is_standard_tableau(t):
        raise ValueError(f"not a standard tableau: {t}")
    return t


def rsk_insert(p: Sequence[int]) -> tuple[Tableau, Tableau]:
    """
    Row-insert p, returning the insertion tableau P and recording tableau Q.

    P and Q always share a shape, and the map is injective: distinct
    permutations give distinct pairs.

    >>> rsk_insert((1, 3, 2))
    (((1, 2), (3,)), ((1, 2), (3,)))
    """
    rows_p: list[list[int]] = []
    rows_q: list[list[int]] = []
    for step, x in enumerate(p, start=1):
        r = 0
        while True:
            if r == len(rows_p):
                rows_p.append([x])
                rows_q.append([step])
                break
            row = rows_p[r]
            i = bisect_right(row, x)
            if i == len(row):
                row.append(x)
                rows_q[r].append(step)
                break
            x, row[i] = row[i], x  # bump the leftmost larger entry down a row
            r += 1
    return tuple(map(tuple, rows_p)), tuple(map(tuple, rows_q))


def rsk_inverse(P: Sequence[Sequence[int]], Q: Sequence[Sequence[int]]) -> Permutation:
    """Recover the unique permutation inserting to (P, Q); shapes must match."""
    P = check_standard_tableau(P)
    Q = check_standard_tableau(Q)
    if tableau_shape(P) != tableau_shape(Q):
        raise ValueError(
            f"shape mismatch: {tableau_shape(P)} versus {tableau_shape(Q)}"
        )
    rows = [list(row) for row in P]
    where = {entry: r for r, row in enumerate(Q) for entry in row}
    n = sum(len(row) for row in P)
    out = []
    for step in range(n, 0, -1):
        r = where[step]
        x = rows[r].pop()
        for rr in range(r - 1, -1, -1):  # reverse-bump toward the top row
            row = rows[rr]
            j = bisect_left(row, x) - 1
            x, row[j] = row[j], x
        out.append(x)
    return tuple(reversed(out))


def reading_word(P: Sequence[Sequence[int]]) -> Permutation:
    """
    Rows concatenated bottom to top, each left to right.

    For a standard tableau this is a permutation whose insertion tableau
    is P itself, which makes it the canonical representative of P's
    Knuth class.

    >>> reading_word(((1, 2), (3,)))
    (3, 1, 2)
    """
    return tuple(chain.from_iterable(reversed(tuple(tuple(r) for r in P))))


def _ballot_fault(word: Sequence[int]) -> str | None:
    """Why word is not a ballot word: its first bad letter or unbalanced prefix."""
    balance = 0
    for i, letter in enumerate(word, start=1):
        if letter == 1:
            balance += 1
        elif letter != 2:
            return f"letter {letter!r} at position {i} is not 1 or 2"
        elif balance:
            balance -= 1
        else:
            return f"prefix of length {i} has more 2s than 1s"
    return None


def is_ballot_word(word: Sequence[int]) -> bool:
    return _ballot_fault(word) is None


def _check_ballot(word: Sequence[int]) -> BallotWord:
    w = tuple(word)
    fault = _ballot_fault(w)
    if fault is not None:
        raise ValueError(f"not a ballot word over {{1,2}}: {fault}")
    return w


def ballot_to_tableau(word: Sequence[int]) -> Tableau:
    """The (at most two row) standard tableau whose entry i sits in row word[i-1]."""
    w = _check_ballot(word)
    top = tuple(i for i, letter in enumerate(w, start=1) if letter == 1)
    bottom = tuple(i for i, letter in enumerate(w, start=1) if letter == 2)
    if bottom:
        return (top, bottom)
    return (top,) if top else ()


def tableau_to_ballot(P: Sequence[Sequence[int]]) -> BallotWord:
    """Inverse of ballot_to_tableau; P must be standard with at most two rows."""
    t = check_standard_tableau(P)
    if len(t) > 2:
        raise ValueError(f"tableau has {len(t)} rows, expected at most 2")
    n = sum(len(row) for row in t)
    word = [0] * n
    for r, row in enumerate(t, start=1):
        for entry in row:
            word[entry - 1] = r
    return tuple(word)


def enumerate_two_row_syt(n: int) -> Iterator[BallotWord]:
    """
    Ballot words of length n with at least one 2, in lexicographic order.

    These encode the standard tableaux with exactly two rows; there are
    binomial(n, floor(n/2)) - 1 of them (sizes 0 and 1 give none).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    word, balance = [1] * n, n  # the all-1s word, first of all; balance: 1s minus 2s
    while True:
        # the next word: the last 1 whose prefix holds more 1s than 2s becomes a 2,
        # and every later letter a 1
        for i in range(n - 1, -1, -1):
            balance += 1 if word[i] == 2 else -1  # now the balance of word[:i]
            if word[i] == 1 and balance > 0:
                break
        else:
            return
        word[i:] = [2] + [1] * (n - i - 1)
        balance += n - i - 2
        yield tuple(word)


def count_two_row(n: int) -> int:
    """Number of two-row standard tableaux of size n, by the central binomial."""
    if n <= 1:
        return 0
    return comb(n, n // 2) - 1


def syt_count_two_row_shape(n: int, r: int) -> int:
    """
    Standard tableaux of shape (n-r, r), via the ballot reflection count.

    Equals binomial(n, r) - binomial(n, r-1), the number of ballot words
    of length n with exactly r 2s.
    """
    if not 0 <= r <= n // 2:
        raise ValueError(f"second row length {r} out of range 0..{n // 2}")
    return comb(n, r) - (comb(n, r - 1) if r >= 1 else 0)


# Bounded, so that a caller ranking many long words keeps a fixed memo: a CLI
# run at MAX_INVOLUTION_N looks up at most 1023 + 2047 + 1023 counts, and
# verify_involution(15) stores 64, so neither reaches the bound.
@functools.lru_cache(maxsize=1 << 13)
def _completions(m: int, balance: int) -> int:
    """
    {1,2}-words of length m keeping balance + #1s - #2s >= 0 in every prefix.

    By the reflection principle this is the sum of comb(m, k) over
    top - balance <= k <= top, where top = (m + balance) // 2.  From
    balance m on no prefix can go negative, so all 2**m words count.
    """
    if balance >= m:
        return 1 << m
    top = (m + balance) // 2
    low = max(top - balance, 0)
    term, total = comb(m, low), 0
    for k in range(low, top + 1):
        total += term
        term = term * (m - k) // (k + 1)  # comb(m, k + 1)
    return total


def ballot_rank(word: Sequence[int]) -> int:
    """
    Position of a two-row ballot word in the lexicographic stream of its length.

    The all-1s word encodes a single-row tableau and has no rank here.
    Runs in O(n^2) binomial terms via the prefix-completion counts, not by
    enumeration.  Refuses, in this order and before any ranking: a word that
    is not a ballot word, the all-1s word, and a word longer than
    MAX_INVOLUTION_N.
    """
    w = _check_ballot(word)
    if 2 not in w:
        raise ValueError("all-1s word encodes a single-row tableau and has no rank")
    _check_length(len(w))
    rank_all = 0
    balance = 0
    for i, letter in enumerate(w):
        rest = len(w) - i - 1
        if letter == 2:
            rank_all += _completions(rest, balance + 1)  # words placing 1 here come first
            balance -= 1
        else:
            balance += 1
    return rank_all - 1  # the all-1s word is lexicographically first overall


def ballot_unrank(n: int, r: int) -> BallotWord:
    """Inverse of ballot_rank: the rank-r two-row ballot word of length n.

    Refuses a negative n, then n above MAX_INVOLUTION_N, before it counts
    the words of that length, then a rank out of range."""
    _check_length(n)
    if not 0 <= r < count_two_row(n):
        raise ValueError(f"rank {r} out of range 0..{count_two_row(n) - 1} for n={n}")
    target = r + 1
    balance = 0
    word = []
    for i in range(n):
        rest = n - i - 1
        ones_here = _completions(rest, balance + 1)
        if target < ones_here:
            word.append(1)
            balance += 1
        else:
            target -= ones_here
            word.append(2)
            balance -= 1
            assert balance >= 0
    return tuple(word)


def involution_phi(word: Sequence[int]) -> BallotWord:
    """
    A fixed-point-free involution on the two-row ballot words of one length.

    Pairs lexicographic ranks 2t and 2t+1, so applying it twice is the
    identity and no word maps to itself.  It needs the number of two-row
    words to be even, which holds exactly at sizes of the form 2**k - 1;
    other sizes are refused rather than silently fixing a point.  The word
    is validated once, by ballot_rank, which also refuses the all-1s word
    and, before it ranks, a word longer than MAX_INVOLUTION_N; the parity
    refusal comes after the ranking.

    The pairing follows rank order only: it keeps neither the shape nor
    the charge of the tableau (at n = 7 the shape is kept on 12 of the
    34 words, the charge of the reading word on 4).  So it shows that the
    number of two-row tableaux is even at n = 2**k - 1, not that each
    higher coefficient of the charge polynomial is (Theorem 8).

    >>> involution_phi((1, 1, 2))
    (1, 2, 1)
    """
    rank = ballot_rank(word)
    _pairable_count(len(word))
    return ballot_unrank(len(word), rank ^ 1)


def _pairable_count(n: int) -> int:
    """The number of two-row words of length n, refused unless n is at most
    MAX_INVOLUTION_N (checked first, in constant time) and the number is even."""
    _check_length(n)
    m = count_two_row(n)
    if m % 2 != 0:
        raise ValueError(f"no fixed-point-free involution guaranteed: {m} two-row words at n={n}")
    return m


def verify_involution(n: int) -> bool:
    """Check that the involution swaps each lexicographic pair (ranks 2t, 2t+1) of length n."""
    m = _pairable_count(n)
    size_bound(MAX_INVOLUTION_WORDS, "MAX_INVOLUTION_WORDS", "exhaustive", f"count_two_row({n})")(m)
    words = enumerate_two_row_syt(n)
    for a, b in zip(words, words):  # one iterator twice: consecutive pairs
        for w, image in ((a, b), (b, a)):
            if involution_phi(w) != image:
                raise VerificationError(f"{w} does not map to its partner {image}", witness=w)
    return True


def _parity_size(k: int, check) -> int:
    """The size 2**k - 1 of the parity statements, for k from 1 up to the bound ``check`` holds it to."""
    if k < 1:
        raise ValueError("k must be positive")
    return 2 ** check(k) - 1


def lemma5_count(k: int) -> int:
    """
    The number of 321-avoiders of size 2**k - 1.

    The count is the sum of squared two-row shape counts, one square per
    insertion-tableau shape (n-r, r): f choices of P times f choices of
    Q, where f = C(n, r) - C(n, r-1) (``syt_count_two_row_shape``).  Each
    shape takes its binomials from the previous one's, C(n, r+1) =
    C(n, r) (n-r) / (r+1).  For k <= 3 it is cross-checked against direct
    enumeration, and a disagreement raises VerificationError.
    """
    n = _parity_size(k, _check_lemma5_k)
    total, below, binom = 0, 0, 1  # C(n, r - 1) and C(n, r), at r = 0
    for r in range(n // 2 + 1):
        total += (binom - below) ** 2
        below, binom = binom, binom * (n - r) // (r + 1)
    if n <= 7:
        enumerated = sum(1 for _ in enumerate_avoiders(n, [_PATTERN_321]))
        if enumerated != total:
            raise VerificationError(
                f"shape-count identity failed at n={n}: {total} != {enumerated}"
            )
    return total


def verify_lemma5(k: int) -> bool:
    """Check that the number of 321-avoiders of size 2**k - 1 is odd."""
    return lemma5_count(k) % 2 == 1


def two_row_maj_polynomials(n: int) -> list[list[int]]:
    """
    sum(q**maj(T) for T of shape (n-r, r)) for r = 0..n//2, lowest degree first.

    Each is [n choose r]_q - [n choose r-1]_q.  The q-binomials come from
    the product rule [n choose r] = [n choose r-1] (1 - q**(n-r+1)) / (1 - q**r),
    one multiplication and one exact division per step, all in integers.
    Refuses a negative n, then n above MAX_FAST_N, before the O(n**3) loop.

    >>> two_row_maj_polynomials(3)
    [[1], [0, 1, 1]]
    """
    _check_fast(n)
    prev = [1]
    out = [prev]
    for r in range(1, n // 2 + 1):
        a = n - r + 1
        cur = prev + [0] * a
        for i, c in enumerate(prev):
            cur[i + a] -= c
        for i in range(r, len(cur)):  # divide by 1 - q**r
            cur[i] += cur[i - r]
        del cur[r * (n - r) + 1:]  # the quotient has degree r(n-r)
        diff = cur[:]
        for i, c in enumerate(prev):
            diff[i] -= c
        out.append(diff)
        prev = cur
    return out


def fast_ch_321(n: int, stat: str = CHARGE) -> StatPolynomial:
    """
    The charge (or major-index) polynomial over 321-avoiders of size n, without enumerating them.

    By charge(p) = sum(n - d for d in Des(p^-1)) = maj(evac(P)), a
    321-avoider's charge is the major index of the evacuated insertion
    tableau, evacuation permutes the tableaux of each shape, and P of
    shape (n-r, r) pairs with f^(n-r,r) recording tableaux.  Hence

        sum over r = 0..n//2 of f^(n-r,r) ([n choose r]_q - [n choose r-1]_q),

    which is also the major-index polynomial (maj(p) = maj(Q)), returned
    under stat.  This is the one statement of what the closed form serves:
    it refuses any statistic but charge and major index, and then
    two_row_maj_polynomials refuses n above MAX_FAST_N.
    """
    stat = parse_stat(stat)
    if stat not in (CHARGE, MAJOR_INDEX):
        raise ValueError(f"the 321 closed form serves {CHARGE} and {MAJOR_INDEX}, not {stat}")
    shapes = two_row_maj_polynomials(n)
    counts = [0] * (n * (n - 1) // 2 + 1)
    for r, shape_poly in enumerate(shapes):
        f = syt_count_two_row_shape(n, r)
        for i, c in enumerate(shape_poly):
            counts[i] += f * c
    return StatPolynomial.from_counts(counts, n=n, patterns=[_PATTERN_321], stat=stat)


def has_parity_pattern(poly: StatPolynomial) -> bool:
    """Constant coefficient 1, every higher coefficient even."""
    if not poly.coeffs or poly.coeffs[0] != 1:
        return False
    return all(c % 2 == 0 for c in poly.coeffs[1:])


def parity_polynomial(k: int, stat: str) -> StatPolynomial:
    """
    The charge or major-index polynomial over 321-avoiders of size 2**k - 1.

    Both come from the closed form of fast_ch_321, which decides the
    statistics it serves.  For k <= 3 the result is cross-checked against
    brute-force enumeration of the named statistic, beyond that its
    coefficient sum against the Catalan number; a disagreement raises
    VerificationError.
    """
    n = _parity_size(k, _check_parity_k)
    poly = fast_ch_321(n, stat)
    if k <= 3:
        brute = stat_polynomial(n, [_PATTERN_321], poly.stat)
        if poly != brute:
            raise VerificationError(
                f"closed-form {poly.stat} polynomial disagrees with enumeration at n={n}",
                witness=(poly.coeffs, brute.coeffs),
            )
    elif poly.total() != comb(2 * n, n) // (n + 1):
        raise VerificationError(
            f"coefficient sum {poly.total()} at n={n} is not the Catalan number"
        )
    return poly


def verify_theorem8(k: int) -> bool:
    """Parity of the charge polynomial over 321-avoiders at size 2**k - 1."""
    return has_parity_pattern(parity_polynomial(k, CHARGE))


def verify_corollary9(k: int) -> bool:
    """Parity of the major-index polynomial over 321-avoiders at size 2**k - 1."""
    return has_parity_pattern(parity_polynomial(k, MAJOR_INDEX))
