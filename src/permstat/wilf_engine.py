"""
Statistic-refined Wilf equivalence over finite pattern collections.

Two pattern sets are st-Wilf equivalent when the generating polynomial
of the statistic over their avoidance sets agrees at every size.  The
engine decides equivalence over a finite size range 0..n_max, which is
evidence for the unbounded statement, not a proof; reports always carry
the range they were computed on.

The composite map f (reverse, complement, invert) transports pattern
containment: p contains t exactly when f(p) contains f(t).  It follows
that f maps the avoiders of a pattern set onto the avoiders of its
image set (Lemma 2), and since f also carries the major index to charge
(Lemma 1), the major-index polynomial of a pattern set is the charge
polynomial of its f-image.  Theorems 3 and 4 are therefore stated here
once, for charge; the expected major-index classes are their f-images.

Which exact route computes a pattern set's polynomials, and up to which
size, is decided in one place, ``polynomial_route``.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Callable, Iterable, Sequence

from .errors import VerificationError, size_bound
from .perm_core import (
    Permutation,
    all_permutations,
    enumerate_avoiders,
    f_image,
    f_map,
    normalize_patterns,
)
from .statistics import (
    CHARGE,
    MAJOR_INDEX,
    _check_sweep,
    _length3_set,
    charge,
    length3_polynomials,
    major_index,
    parse_stat,
    stat_polynomial,
)

# Largest n the exhaustive checks of Lemmas 1 and 2 accept (9! = 362880
# permutations), and the largest n_max of an enumerated st-Wilf candidate.
MAX_EXHAUSTIVE = 9
_check_exhaustive = size_bound(MAX_EXHAUSTIVE, "MAX_EXHAUSTIVE", "exhaustive")

S3 = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))

# Theorem 3: the charge classes of the six singleton pattern sets {s}, s in S_3.
_THEOREM3_CHARGE = (
    ((1, 2, 3),),
    ((1, 3, 2), (3, 1, 2)),
    ((2, 1, 3), (2, 3, 1)),
    ((3, 2, 1),),
)

# Theorem 4: the one charge class of four among the 2-subsets of S_3
# other than {123, 321}; every other 2-subset is a class of its own.
_THEOREM4_CHARGE = (
    ((1, 3, 2), (2, 1, 3)),
    ((2, 1, 3), (3, 1, 2)),
    ((1, 3, 2), (2, 3, 1)),
    ((2, 3, 1), (3, 1, 2)),
)


def _set_key(patterns: frozenset[Permutation]) -> tuple[Permutation, ...]:
    return tuple(sorted(patterns))


class WilfClassReport(namedtuple("WilfClassReport", "stat n_range classes witness_polynomials")):
    """Partition of candidate pattern sets by their witness polynomials.

    Two candidates share a class exactly when their polynomial sequences
    agree for every n in n_range (inclusive).  Classes and members are
    in a canonical sorted order.  witness_polynomials maps each candidate,
    in the candidates' canonical order, to its StatPolynomial for each n.
    """

    __slots__ = ()

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.classes))

    def class_of(self, patterns: Iterable[Sequence[int]]) -> tuple[frozenset[Permutation], ...]:
        target = normalize_patterns(patterns)
        for cls in self.classes:
            if target in cls:
                return cls
        raise KeyError(f"{sorted(target)} is not among the report's candidates")


def polynomial_route(patterns: Iterable[Sequence[int]], stat: str, n_max: int) -> Callable[[range], tuple]:
    """
    The exact route for a pattern set's statistic polynomials at sizes up to n_max.

    The first route that serves the set is taken: the two-row closed form
    (``tableaux.fast_ch_321``) for {321} under charge and the major index,
    up to tableaux.MAX_FAST_N; the length-3 sweep (``length3_polynomials``)
    for a nonempty set of length-3 patterns, up to MAX_DP_NMAX; otherwise
    enumeration (``stat_polynomial``) size by size, up to MAX_EXHAUSTIVE.
    Above its route's bound the set raises ExhaustionError, naming the
    bound, before any polynomial is computed.  The returned function maps
    a range of sizes within 0..n_max to their polynomials.

    >>> [p.coeffs for p in polynomial_route([(3, 2, 1)], "maj", 3)(range(2, 4))]
    [(1, 1), (1, 2, 2)]
    """
    canonical, pats = parse_stat(stat), normalize_patterns(patterns)
    if pats == {(3, 2, 1)} and canonical in (CHARGE, MAJOR_INDEX):
        from . import tableaux

        tableaux._check_fast(n_max)
        return lambda sizes: tuple(tableaux.fast_ch_321(n, canonical) for n in sizes)
    if _length3_set(pats):
        _check_sweep(n_max)
        return lambda sizes: length3_polynomials(sizes[-1], pats, canonical)[sizes[0]:]
    _check_exhaustive(n_max)
    return lambda sizes: tuple(stat_polynomial(n, pats, canonical) for n in sizes)


def st_wilf_classes(
    candidates: Iterable[Iterable[Sequence[int]]],
    stat: str,
    n_max: int,
) -> WilfClassReport:
    """
    Partition candidate pattern sets by statistic polynomials over sizes 0..n_max.

    Every candidate's polynomials are retained as witnesses, so a report
    is self-contained evidence for its partition.  Each candidate takes
    its ``polynomial_route``, and every candidate is routed, so every
    bound is checked, before any polynomial is computed.
    """
    canonical = parse_stat(stat)
    sets = sorted({normalize_patterns(c) for c in candidates}, key=_set_key)
    if not sets:
        raise ValueError("candidates must be nonempty")
    routes = {pi: polynomial_route(pi, canonical, n_max) for pi in sets}
    witness = {pi: route(range(n_max + 1)) for pi, route in routes.items()}
    groups: dict[tuple, list[frozenset[Permutation]]] = {}
    for pi in sets:
        key = tuple(poly.coeffs for poly in witness[pi])
        groups.setdefault(key, []).append(pi)
    classes = tuple(
        sorted((tuple(members) for members in groups.values()), key=lambda c: _set_key(c[0]))
    )
    return WilfClassReport(
        stat=canonical,
        n_range=(0, n_max),
        classes=classes,
        witness_polynomials=witness,
    )


def verify_lemma1(n: int) -> bool:
    """
    Exhaustively check maj(p) == charge(f(p)) over all of S_n, streaming it.

    The first p in lexicographic order where they differ raises
    VerificationError with p as its witness.
    """
    _check_exhaustive(n)
    for p in all_permutations(n):
        if major_index(p) != charge(f_map(p)):
            raise VerificationError(f"maj(p) != charge(f(p)) at n={n}; counterexample {p}", witness=p)
    return True


def verify_lemma2(n: int) -> dict[Permutation, Permutation]:
    """
    Check that f maps Av_n(s) onto Av_n(f(s)) for each s in S_3.

    Returns the correspondence s -> f(s) (123->123, 132->213, 213->132,
    231->231, 312->312, 321->321) once each image set has been
    materialized and compared; a mismatch raises with a counterexample
    permutation.  (At n <= 2 all six avoidance sets coincide, so the
    correspondence holds trivially.)
    """
    _check_exhaustive(n)
    avoider_sets = {s: frozenset(enumerate_avoiders(n, [s])) for s in S3}
    mapping = {s: f_map(s) for s in S3}
    for source, target in mapping.items():
        image = frozenset(f_map(p) for p in avoider_sets[source])
        if image != avoider_sets[target]:
            witness = min(image ^ avoider_sets[target])
            raise VerificationError(
                f"f image of the {source}-avoiders differs from the {target}-avoiders "
                f"at n={n}; counterexample {witness}",
                witness=witness,
            )
    return mapping


def _verify_classes(
    candidates: Iterable[frozenset[Permutation]],
    charge_classes: Iterable[Iterable[Iterable[Permutation]]],
    n_max: int,
    stat: str,
) -> WilfClassReport:
    """
    Partition the candidates and compare the result with classes stated for charge.

    For the major index each expected pattern set is replaced by its
    f-image.  n_max below 3 is refused first: no length-3 pattern occurs
    in a shorter permutation, so every candidate would have the same
    polynomials and no stated class could fail.  Below n_max = 6
    accidental polynomial coincidences can merge classes, so only
    refinement is required there: each expected class must sit inside a
    single computed class.  From n_max = 6 on the partition must match
    exactly.  A mismatch raises VerificationError with the whole report
    as its witness.
    """
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    canonical = parse_stat(stat)
    if canonical not in (CHARGE, MAJOR_INDEX):
        raise ValueError(f"no expected classes for statistic {canonical}")
    relabel = f_image if canonical == MAJOR_INDEX else normalize_patterns
    expected = {frozenset(relabel(member) for member in cls) for cls in charge_classes}
    report = st_wilf_classes(candidates, canonical, n_max)
    computed = {frozenset(c) for c in report.classes}
    if n_max >= 6:
        if computed != expected:
            raise VerificationError(
                f"class partition at n_max={n_max} does not match the expected one",
                witness=report,
            )
    elif not all(any(cls <= c for c in computed) for cls in expected):
        raise VerificationError(
            f"an expected class is split at n_max={n_max}",
            witness=report,
        )
    return report


def verify_theorem3(n_max: int, stat: str = CHARGE) -> WilfClassReport:
    """
    Classes of the six singleton length-3 pattern sets.

    For charge: {123}, {321}, {132, 312}, {213, 231}.  For the major
    index these are relabeled by f, so the mixed classes are {132, 231}
    and {213, 312} instead.
    """
    expected = [[[s] for s in cls] for cls in _THEOREM3_CHARGE]
    return _verify_classes([frozenset([s]) for s in S3], expected, n_max, stat)


def verify_theorem4(n_max: int, stat: str = CHARGE) -> WilfClassReport:
    """
    Classes of the fourteen 2-subsets of S_3 other than {123, 321}.

    Exactly one class has four members ({132,213}, {213,312}, {132,231},
    {231,312} for charge, their f-images for the major index); every
    other class is a singleton.
    """
    excluded = frozenset({(1, 2, 3), (3, 2, 1)})
    candidates = [pair for pair in map(frozenset, itertools.combinations(S3, 2)) if pair != excluded]
    quadruple = {frozenset(pair) for pair in _THEOREM4_CHARGE}
    expected = [quadruple] + [[pair] for pair in candidates if pair not in quadruple]
    return _verify_classes(candidates, expected, n_max, stat)
