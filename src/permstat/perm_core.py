"""
Permutations in one-line notation, pattern containment, and avoidance sets.

A permutation of size n is a sequence containing each of the values
1..n exactly once; functions accept any integer sequence in that form
and return permutations as tuples.  The empty tuple is the unique
permutation of size 0.  Positions, like values, are 1-based wherever
they appear in results (descent positions, inverse images), matching
the usual one-line-notation conventions.

A pattern set is any collection of permutations; it is normalized to a
frozenset, so duplicates collapse and order is irrelevant.

Avoiders are found by one depth-first walk over prefixes
(``enumerate_avoiders``).  Each pattern has a step (``_forbidden_step``):
the values that would complete a copy of it if they came right after a
new entry v.  A value v may follow a prefix iff no step forbids a value
still unplaced after v; otherwise that value completes a copy wherever
it goes, and the prefix is cut at once as a dead end.  So a kept prefix
has forbidden only values it holds, and the rule needs nothing carried
along the prefix.  ``_live_next`` is the one place that applies it.  For
a set of length-3 patterns a step reads only the placed values and v, so
the answer depends on the used-value mask alone: the walk keeps it in a
table of at most MAX_LIVE_NEXT masks (sparse sets, which meet about 2**n
of them, refill it as they go), and the length-3 sweep in ``statistics``
asks the same question of its canonical prefixes.  Other sets try each
unplaced value in turn.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Sequence

Permutation = tuple[int, ...]


def is_permutation(word: Sequence[int]) -> bool:
    """
    Check that word contains each of 1..len(word) exactly once.

    >>> [is_permutation(w) for w in ((), (1,), (2, 1), (2, 2), (1, 3))]
    [True, True, True, False, False]
    """
    return sorted(word) == list(range(1, len(word) + 1))


def check_permutation(word: Sequence[int]) -> Permutation:
    """
    Return word as a tuple, raising ValueError if it is not a permutation.

    The message names the first repeated value or, failing that, the
    smallest missing one.
    """
    p = tuple(word)
    if not is_permutation(p):
        seen: set[int] = set()
        for v in p:
            if v in seen:
                raise ValueError(f"not a permutation: value {v} appears more than once in {p}")
            seen.add(v)
        missing = min(set(range(1, len(p) + 1)) - seen)
        raise ValueError(f"not a permutation of 1..{len(p)}: missing {missing} in {p}")
    return p


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def all_permutations(n: int) -> Iterator[Permutation]:
    """All permutations of size n in lexicographic order (n! of them)."""
    return iter(itertools.permutations(range(1, n + 1)))


def inverse(p: Sequence[int]) -> Permutation:
    """
    The inverse permutation: position i holds the position of value i in p.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    >>> inverse(())
    ()
    """
    q = [0] * len(p)
    for position, value in enumerate(p, start=1):
        q[value - 1] = position
    return tuple(q)


def reverse(p: Sequence[int]) -> Permutation:
    """The permutation read right to left."""
    return tuple(p[::-1])


def complement(p: Sequence[int]) -> Permutation:
    """Replace each value v by n+1-v, flipping the permutation upside down."""
    n = len(p)
    return tuple(n + 1 - v for v in p)


def f_map(p: Sequence[int]) -> Permutation:
    """
    Reverse, then complement, then invert.

    A bijection on permutations of each size (a composite of three
    bijections); it carries the major index to the charge statistic.

    >>> f_map((1, 3, 2))
    (2, 1, 3)
    """
    return inverse(complement(reverse(p)))


def f_image(patterns: Iterable[Sequence[int]]) -> frozenset[Permutation]:
    """Apply f to each pattern; the avoiders of the image set are f of the avoiders (Lemma 2)."""
    return frozenset(f_map(t) for t in normalize_patterns(patterns))


def normalize_patterns(patterns: Iterable[Sequence[int]]) -> frozenset[Permutation]:
    """Validate a collection of patterns and collapse it to a frozenset."""
    return frozenset(check_permutation(t) for t in patterns)


def _forbidden_step(pattern: Permutation, n: int) -> Callable[[Sequence[int], int, int, int], int]:
    """Build the forbidden-value update of one pattern of length >= 2.

    The returned ``step(prefix, k, used, v)`` takes the first k entries
    of prefix, the bitmask ``used`` of their values (bit i for value i)
    and a value v appended after them.  It returns the bitmask of values
    w <= n such that prefix[:k] + (v, w) holds a copy of the pattern in
    which v and w play its last two letters.  OR-ing these masks along a
    prefix gives every value whose appending would complete a copy.

    The values w completing a given copy of pattern[:-1] form an open
    interval, bounded by the letters ranked just below and just above
    the pattern's last letter (0 and n + 1 where there is none).

    A pattern of length >= 4 ending in (m - 1, m) or (2, 1) gives every
    copy of its head ending at v one interval, all w above or below v; a
    copy exists iff v is on the standardized head's mask, which the step
    keeps per depth.  So it holds per-walk state: call it at k = 0, 1, ...
    along a prefix, and build one per walk.
    """
    m = len(pattern)
    head, c = pattern[:-1], pattern[-1]
    lo_i = head.index(c - 1) if c > 1 else None  # letter bounding w from below
    hi_i = head.index(c + 1) if c < m else None  # letter bounding w from above
    top = n + 1
    if m == 3:
        # The copy of pattern[:-1] is (x, v) with x ranging over the earlier
        # values X on x's side of v, so the union of the intervals takes
        # min X or max X wherever x bounds w.
        x_below = head[0] < head[1]

        def step3(prefix, k, used, v):
            xs = used & ((1 << v) - 1) if x_below else used >> (v + 1) << (v + 1)
            if not xs:
                return 0
            lo = v if lo_i == 1 else 0 if lo_i is None else (xs & -xs).bit_length() - 1
            hi = v if hi_i == 1 else top if hi_i is None else xs.bit_length() - 1
            return (1 << hi) - (1 << (lo + 1)) if hi > lo + 1 else 0

        return step3

    if m > 3 and lo_i in (None, m - 2) and hi_i in (None, m - 2):
        head_step = _forbidden_step(tuple(sorted(head).index(x) + 1 for x in head), n)
        reach = [0] * (n + 1)  # reach[k]: the head's forbidden mask of prefix[:k]

        def step_fixed(prefix, k, used, v):
            ends = reach[k] >> v & 1
            reach[k + 1] = reach[k] | head_step(prefix, k, used, v)
            return ends and ((1 << top) - (1 << (v + 1)) if c == m else (1 << v) - 2)

        return step_fixed

    # Generic: backtrack over the copies of pattern[:-1] that end at v.
    below = [h < head[-1] for h in head]

    def step(prefix, k, used, v):
        chosen = [0] * (m - 1)
        chosen[-1] = v
        mask = 0

        def extend(j: int, start: int) -> None:
            nonlocal mask
            if j == m - 2:
                lo = 0 if lo_i is None else chosen[lo_i]
                hi = top if hi_i is None else chosen[hi_i]
                if hi > lo + 1:
                    mask |= (1 << hi) - (1 << (lo + 1))
                return
            for pos in range(start, k - (m - 3 - j)):
                x = prefix[pos]
                if (x < v) != below[j]:
                    continue
                if any((x < chosen[i]) != (head[j] < head[i]) for i in range(j)):
                    continue
                chosen[j] = x
                extend(j + 1, pos + 1)

        extend(0, 0)
        return mask

    return step


def contains_pattern(p: Sequence[int], pattern: Sequence[int]) -> bool:
    """
    True iff p has a subsequence order-isomorphic to pattern.

    The pattern must be a permutation, and the host p a sequence of
    distinct values, each at least 1, such as a permutation or (3, 7, 5)
    (ValueError otherwise, the pattern checked first).  A pattern longer
    than p is never contained; the empty pattern is contained in
    everything.  One left-to-right pass ORs the pattern's steps into the
    bitmask of values that would complete a copy; p contains the pattern
    iff some entry lands on that mask.
    Length-3 patterns update the mask in constant time per entry.

    >>> contains_pattern((3, 2, 8, 5, 7, 4, 6, 1, 9), (1, 2, 3))
    True
    >>> contains_pattern((3, 2, 1), (1, 2))
    False
    """
    pat = check_permutation(pattern)
    if p and (min(p) < 1 or len(set(p)) < len(p)):
        raise ValueError(f"host {tuple(p)} must hold distinct values, each at least 1")
    if len(pat) > len(p):
        return False
    if len(pat) < 2:
        return True
    step = _forbidden_step(pat, max(len(p), max(p)))
    forbidden = used = 0
    for k, v in enumerate(p):
        if forbidden >> v & 1:
            return True
        forbidden |= step(p, k, used, v)
        used |= 1 << v
    return False


def avoids_all(p: Sequence[int], patterns: Iterable[Sequence[int]]) -> bool:
    """True iff p contains no pattern from the set (vacuously true for an empty set)."""
    return not any(contains_pattern(p, pat) for pat in normalize_patterns(patterns))


# Most used-value masks whose live next values one length-3 walk holds at
# once.  A sparse set visits about 2**n masks (Av(123, 132) at n = 22: about
# 330 MB if all were kept); a full table, about 3 MB, is emptied and refilled
# from the masks the walk meets next, which lie near the last ones.
MAX_LIVE_NEXT = 1 << 15


def _live_next(steps: Sequence[Callable], prefix: Sequence[int] | None, k: int, used: int, free: int, candidates: int) -> int:
    """The mask of the ``candidates`` v that may follow prefix[:k] (values
    ``used``) without a dead end: no step forbids a value of ``free``, the
    unplaced values.  A step never forbids v itself (its intervals lie open
    between letters of a copy that ends at v), so ``free`` may hold v.

    This is the search's one dead-end test (see the module docstring).  It
    stops at the first step that forbids a free value; a stateful step
    skipped there belongs to a dead child, which the walk never enters.
    """
    live = 0
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        v = low.bit_length() - 1
        for step in steps:
            if step(prefix, k, used, v) & free:
                break
        else:
            live |= low
    return live


def enumerate_avoiders(
    n: int,
    patterns: Iterable[Sequence[int]],
    *,
    first: int | None = None,
) -> Iterator[Permutation]:
    """
    Yield the size-n permutations avoiding every pattern, in lexicographic order.

    Builds permutations prefix by prefix and cuts each dead end at once,
    by the rule in the module docstring.  With ``first`` set, only
    permutations whose first entry equals it are produced: the shards for
    first = 1..n are disjoint and their union (in that order) is the full
    stream, so callers may enumerate shards in parallel.

    >>> list(enumerate_avoiders(3, [(3, 2, 1)]))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]
    """
    return _walk(n, patterns, first)


def _walk(n: int, patterns: Iterable[Sequence[int]], first: int | None, gain=None) -> Iterator:
    """The search behind ``enumerate_avoiders`` and ``stat_polynomial``: yields
    each avoider or, given ``gain(prefix, k, used, v)`` (what a statistic adds
    when v follows prefix[:k]), each avoider's statistic, summed per depth.

    When every live pattern has length 3, a node pushes only its live
    children, kept per used-value mask in a table of at most MAX_LIVE_NEXT
    masks, emptied when full.  Other sets test each unplaced value as it is
    tried.  Both routes ask ``_live_next``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    pats = normalize_patterns(patterns)
    if first is not None and not 1 <= first <= n:
        raise ValueError(f"first entry must lie in 1..{n}, got {first}")
    live = [t for t in pats if len(t) <= n]  # longer patterns can never occur
    if any(len(t) < 2 for t in live):
        return  # () occurs in every permutation, (1,) in every nonempty one
    if n == 0:
        yield () if gain is None else 0
        return
    steps = [_forbidden_step(t, n) for t in live]  # per walk: some steps hold state
    full = (1 << (n + 1)) - 2  # values 1..n
    prefix = [0] * n
    used = [0] * n  # used[k], score[k]: of the prefix of length k
    score = [0] * n
    todo = [0] * n  # todo[k]: values still to try at position k
    todo[0] = full if first is None else 1 << first
    # length-3 sets: used mask -> live next values; every first entry is live,
    # as a length-3 step forbids nothing while one value is placed
    children = {} if live and all(len(t) == 3 for t in live) else None
    k = 0
    while k >= 0:
        if not todo[k]:
            k -= 1
            continue
        low = todo[k] & -todo[k]
        todo[k] ^= low
        v = prefix[k] = low.bit_length() - 1
        if k == n - 1:
            yield tuple(prefix) if gain is None else score[k] + gain(prefix, k, used[k], v)
            continue
        grown = used[k] | low
        free = full & ~grown
        if children is None:
            if not _live_next(steps, prefix, k, used[k], free, low):
                continue  # dead end: some unplaced value can never be placed
            nxt = free
        else:
            nxt = children.get(grown)
            if nxt is None:
                nxt = _live_next(steps, prefix, k + 1, grown, free, free)
                if len(children) == MAX_LIVE_NEXT:
                    children.clear()  # start again from the masks near this node
                children[grown] = nxt
        if gain is not None:
            score[k + 1] = score[k] + gain(prefix, k, used[k], v)
        k += 1
        used[k], todo[k] = grown, nxt
