"""
Permutation statistics and their generating polynomials over avoidance sets.

Three statistics are supported: the major index (sum of descent
positions), the charge statistic, and the inversion count.  The set of
statistics is deliberately closed (a fixed enumeration, not a plugin point) so
every combination can be tested exhaustively.

Appending v at 0-based position k after the values in bitmask ``used``
adds a *gain*: k to the major index if the entry before v is larger,
n - v to charge if v + 1 is placed, and the number of placed values
above v to the inversions; the avoidance search sums these per depth.
A nonempty set of length-3 patterns has a second route, the length-3
sweep ``length3_polynomials``, bounded by MAX_DP_NMAX.

The generating polynomial of a statistic over an avoidance set is held
as a dense vector of exact integer coefficients (Python integers never
overflow), trimmed so the trailing coefficient is nonzero; the zero
polynomial is the empty vector.
"""
from __future__ import annotations

from collections import namedtuple
from math import comb
from typing import Callable, Iterable, Sequence

from .errors import ExhaustionError
from .perm_core import Permutation, _forbidden_step, _live_next, _walk, f_image, normalize_patterns

MAJOR_INDEX = "major_index"
CHARGE = "charge"
INVERSIONS = "inversions"
STAT_NAMES = (MAJOR_INDEX, CHARGE, INVERSIONS)

_STAT_ALIASES = {
    "maj": MAJOR_INDEX,
    "major": MAJOR_INDEX,
    "major_index": MAJOR_INDEX,
    "ch": CHARGE,
    "charge": CHARGE,
    "inv": INVERSIONS,
    "inversions": INVERSIONS,
}


def parse_stat(name: str) -> str:
    """Resolve a statistic name or alias to its canonical form, or raise ValueError."""
    try:
        return _STAT_ALIASES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown statistic {name!r}; expected one of maj, ch, inv"
        ) from None


def descent_set(p: Sequence[int]) -> set[int]:
    """Positions i (1-based) where p steps down, i.e. p[i] > p[i+1].

    >>> sorted(descent_set((3, 2, 8, 5, 7, 4, 6, 1, 9)))
    [1, 3, 5, 7]
    """
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def major_index(p: Sequence[int]) -> int:
    """Sum of the descent positions."""
    return sum(descent_set(p))


def charge_values(p: Sequence[int]) -> dict[int, int]:
    """
    The charge value of each value in p.

    Value 1 always carries 0.  For i >= 2 the value i carries 0 when it
    sits to the right of i-1, and n+1-i when it sits to the left, so a
    nonzero charge value is determined by i alone.

    >>> charge_values((3, 2, 8, 5, 7, 4, 6, 1, 9))[3]
    7
    """
    n = len(p)
    if n == 0:
        return {}
    position = {v: i for i, v in enumerate(p)}
    out = {1: 0}
    for i in range(2, n + 1):
        out[i] = 0 if position[i] > position[i - 1] else n + 1 - i
    return out


def charge(p: Sequence[int]) -> int:
    """Total charge: the sum of all charge values.

    Value i >= 2 adds n+1-i exactly when it sits left of i-1, i.e. when
    i-1 is a descent of the inverse permutation.

    >>> charge((3, 2, 8, 5, 7, 4, 6, 1, 9))
    25
    """
    n = len(p)
    position = [0] * (n + 1)
    for i, v in enumerate(p):
        position[v] = i
    return sum(n + 1 - i for i in range(2, n + 1) if position[i] < position[i - 1])


def inversions(p: Sequence[int]) -> int:
    """Number of pairs of positions i < j with p[i] > p[j]."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


_STAT_FUNCTIONS: dict[str, Callable[[Sequence[int]], int]] = {
    MAJOR_INDEX: major_index,
    CHARGE: charge,
    INVERSIONS: inversions,
}


def stat_function(stat: str) -> Callable[[Sequence[int]], int]:
    return _STAT_FUNCTIONS[parse_stat(stat)]


def _gain(stat: str, n: int) -> Callable[[Sequence[int], int, int, int], int]:
    """``gain(prefix, k, used, v)`` of a canonical statistic at size n (module docstring)."""
    if stat == MAJOR_INDEX:
        return lambda prefix, k, used, v: k if k and prefix[k - 1] > v else 0
    if stat == CHARGE:
        return lambda prefix, k, used, v: n - v if used >> (v + 1) & 1 else 0
    return lambda prefix, k, used, v: (used >> v).bit_count()


class StatPolynomial(namedtuple("StatPolynomial", "coeffs n patterns stat")):
    """Coefficient vector of sum(q**stat(p)) over the avoiders of a pattern set.

    coeffs[i] counts the avoiders whose statistic equals i; the vector
    carries no trailing zeros.  Summing the coefficients recovers the
    number of avoiders.
    """

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...], n: int, patterns: frozenset[Permutation], stat: str):
        if coeffs and coeffs[-1] == 0:
            raise ValueError("coefficient vector must be trimmed of trailing zeros")
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")
        if stat not in STAT_NAMES:
            raise ValueError(f"unknown statistic {stat!r}")
        return super().__new__(cls, coeffs, n, patterns, stat)

    @classmethod
    def _make(cls, iterable) -> "StatPolynomial":  # _replace builds through here
        return cls(*iterable)

    @classmethod
    def from_counts(
        cls,
        counts: Sequence[int],
        *,
        n: int,
        patterns: Iterable[Sequence[int]],
        stat: str,
    ) -> "StatPolynomial":
        """Build a polynomial from a raw tally, trimming trailing zeros."""
        width = len(counts)
        while width and counts[width - 1] == 0:
            width -= 1
        return cls(
            coeffs=tuple(counts[:width]),
            n=n,
            patterns=normalize_patterns(patterns),
            stat=parse_stat(stat),
        )

    def total(self) -> int:
        """Number of permutations tallied, i.e. the value at q = 1."""
        return sum(self.coeffs)


def stat_polynomial(
    n: int,
    patterns: Iterable[Sequence[int]],
    stat: str,
    *,
    first: int | None = None,
) -> StatPolynomial:
    """
    Tally a statistic over the avoiders of a pattern set at size n.

    The search adds up each prefix's gains (module docstring) instead of
    building avoiders.  With ``first`` set, tallies only the enumeration
    shard whose permutations start with that entry; shard polynomials
    merge to the full one.
    """
    canonical = parse_stat(stat)
    if n < 0:
        raise ValueError("n must be nonnegative")
    pats = normalize_patterns(patterns)
    counts = [0] * (n * (n - 1) // 2 + 1)  # every statistic is at most C(n, 2)
    for value in _walk(n, pats, first, _gain(canonical, n)):
        counts[value] += 1
    return StatPolynomial.from_counts(counts, n=n, patterns=pats, stat=canonical)


def _length3_set(patterns: frozenset[Permutation]) -> bool:
    """Whether the length-3 sweep serves a normalized pattern set."""
    return bool(patterns) and all(len(t) == 3 for t in patterns)


# Largest n_max that length3_polynomials accepts.  At this bound a sweep
# holds up to 14 002 states per level and caches 121 305 moves of 46 364
# (r, used) pairs.
MAX_DP_NMAX = 20


def length3_polynomials(
    n_max: int,
    patterns: Iterable[Sequence[int]],
    stat: str,
) -> tuple[StatPolynomial, ...]:
    """
    ``stat_polynomial(n, patterns, stat)`` for n = 0..n_max by a sweep over prefix states.

    The patterns must form a nonempty set of length-3 patterns.  After the
    search's dead-end cut no unplaced value is forbidden, and a length-3
    step reads only the placed values and the new one.  So what can follow
    a prefix depends only on its state: the number r of unplaced values,
    the mask of the r + 1 gaps between them that hold a placed value, and,
    for the major index, the gap of the last entry.  For each size n the
    sweep tallies the prefixes of length k that reach each state, by the
    statistic so far, and extends them by one entry: a descent adds k to
    the major index, and an entry with j unplaced values below it adds j
    inversions.  A state's moves are found once, on a canonical prefix
    with one placed value per occupied gap, by the walk's own dead-end
    test ``perm_core._live_next``, and serve every size.  Charge
    is the major index over the f-image (Lemmas 1 and 2).  Raises
    ExhaustionError above MAX_DP_NMAX.

    >>> [p.coeffs for p in length3_polynomials(3, [(1, 3, 2)], "inv")]
    [(1,), (1,), (1, 1), (1, 1, 2, 1)]
    """
    canonical = parse_stat(stat)
    pats = normalize_patterns(patterns)
    if not _length3_set(pats):
        raise ValueError("the length-3 sweep takes a nonempty set of length-3 patterns")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > MAX_DP_NMAX:
        raise ExhaustionError(f"n_max={n_max} exceeds the length-3 sweep bound MAX_DP_NMAX={MAX_DP_NMAX}")
    maj = canonical != INVERSIONS  # charge is tallied as the major index over the f-image
    searched = f_image(pats) if canonical == CHARGE else pats
    steps = [_forbidden_step(t, 2 * n_max + 1) for t in searched]  # a canonical prefix has <= 2r + 1 values
    # Tallies pack coefficients `width` bits apart.  The prefixes counted by
    # one coefficient of a state that can be completed each extend, by one
    # completion, to a distinct avoider: at most Catalan(n_max) <
    # C(2 n_max, n_max) of them.  A state that cannot be completed passes
    # its tally only to states that cannot either, so a carry there never
    # reaches a result.
    width = comb(2 * n_max, n_max).bit_length()
    moves: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

    def moves_of(r: int, used: int) -> list[tuple[int, int, int]]:
        """The surviving moves (j, v, merged) of a state's canonical prefix.

        The prefix has its unplaced values at 2, 4, ..., 2r and one placed
        value 2g + 1 in each occupied gap g (bitmask ``used``); placing v
        leaves the gap mask ``merged``.
        """
        live = _live_next(steps, used, (4**r - 1) // 3 << 2, range(2, 2 * r + 1, 2))
        out = []
        while live:
            low = live & -live
            live ^= low
            v = low.bit_length() - 1  # the unplaced value with j = v // 2 - 1 unplaced values below it
            # gaps j and j + 1 merge into gap j, holding v - 1; higher values drop by 2
            out.append((v // 2 - 1, v, (used & ((low >> 1) - 1)) | (low >> 1) | (used >> (v + 2) << v)))
        return out

    polys = []
    for n in range(n_max + 1):
        level = {(0, 0): 1}  # (used, last) -> packed tally of the prefixes of length k
        for k in range(n):
            r = n - k
            grown: dict[tuple[int, int], int] = {}
            for (used, last), tally in level.items():
                key = r, used
                if key not in moves:
                    moves[key] = moves_of(r, used)
                for j, v, merged in moves[key]:
                    if maj:
                        child, gain = (merged, v - 1), k if last > v else 0
                    else:
                        child, gain = (merged, 0), j
                    grown[child] = grown.get(child, 0) + (tally << width * gain)
            level = grown
        packed = sum(level.values())
        counts = []
        while packed:
            counts.append(packed & ((1 << width) - 1))
            packed >>= width
        polys.append(StatPolynomial.from_counts(counts, n=n, patterns=pats, stat=canonical))
    return tuple(polys)


def merge_polynomials(parts: Iterable[StatPolynomial]) -> StatPolynomial:
    """Add shard polynomials coefficient-wise.

    Addition is associative and commutative, so a parallel build gives
    the same result in any merge order.  All parts must describe the
    same n, pattern set, and statistic.
    """
    polys = list(parts)
    if not polys:
        raise ValueError("nothing to merge")
    head = polys[0]
    for p in polys[1:]:
        if (p.n, p.patterns, p.stat) != (head.n, head.patterns, head.stat):
            raise ValueError("cannot merge polynomials with different metadata")
    counts = [0] * max(len(p.coeffs) for p in polys)
    for p in polys:
        for i, c in enumerate(p.coeffs):
            counts[i] += c
    return StatPolynomial.from_counts(counts, n=head.n, patterns=head.patterns, stat=head.stat)


def q_factorial(n: int) -> tuple[int, ...]:
    """
    Coefficients of [n]_q! = (1)(1+q)(1+q+q^2)...(1+...+q^(n-1)).

    Each of the three statistics here is distributed over all of S_n
    with exactly these coefficients (they are Mahonian).

    >>> q_factorial(3)
    (1, 2, 2, 1)
    """
    coeffs = [1]
    for k in range(2, n + 1):
        out = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for j in range(k):
                out[i + j] += c
        coeffs = out
    return tuple(coeffs)
