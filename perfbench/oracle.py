"""
Independent checks of every benchmark job's output.

Nothing here calls the library.  Avoidance sets are grown by inserting the
largest value into every avoider one size smaller and testing only the
occurrences that use it, with containment checked over position subsets;
Catalan numbers come from a lattice-path DP; 231-avoidance is checked by
stack sorting.  Coefficient vectors of the larger polynomials, which these
methods cannot rebuild within a run, are compared against references.json,
recorded from the CLI and cross-checked by the benchmark's tests wherever
the growth enumeration reaches.

``check(job, result)`` returns a list of problems; an empty list passes.
"""
from __future__ import annotations

import functools
import itertools
import json
from math import comb
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# |Av_n(1234)| for n = 0..10 (Gessel's formula; OEIS A005802).
AV_1234 = (1, 1, 2, 6, 23, 103, 513, 2761, 15767, 94359, 586590)

S3 = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))

# Theorem 4: the one class of four among the 2-subsets of S_3, per statistic.
THEOREM4_QUADRUPLE = {
    "ch": {"1,3,2+2,1,3", "2,1,3+3,1,2", "1,3,2+2,3,1", "2,3,1+3,1,2"},
    "maj": {"1,3,2+2,1,3", "1,3,2+3,1,2", "2,1,3+2,3,1", "2,3,1+3,1,2"},
}


def catalan(n: int) -> int:
    """Monotone lattice paths from (0, 0) to (n, n) that stay on or below the diagonal."""
    paths = [1] * (n + 1)  # paths[x]: paths to (x, y) for the current row y
    for y in range(1, n + 1):
        paths[y - 1] = 0
        for x in range(y, n + 1):
            paths[x] += paths[x - 1]
    return paths[n]


def parse_pattern(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in (text.split(",") if "," in text else text))


def fmt_perm(p) -> str:
    return ",".join(map(str, p))


def fmt_set(patterns) -> str:
    return "+".join(fmt_perm(t) for t in sorted(patterns))


def standardize(word) -> tuple[int, ...]:
    order = sorted(word)
    return tuple(order.index(x) + 1 for x in word)


def contains(p, pattern) -> bool:
    """Containment over every subset of positions."""
    m = len(pattern)
    return any(standardize(sub) == pattern for sub in itertools.combinations(p, m))


def _occurs_with_max(c, i, pattern) -> bool:
    """Does c contain pattern in an occurrence that uses c[i] = max(c)?"""
    j = pattern.index(len(pattern))
    for left in itertools.combinations(c[:i], j):
        for right in itertools.combinations(c[i + 1:], len(pattern) - 1 - j):
            if standardize(left + (c[i],) + right) == pattern:
                return True
    return False


@functools.cache
def avoider_levels(n: int, patterns: frozenset) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Av_0(S) .. Av_n(S), each level grown from the one below it."""
    levels = [((),)]
    for size in range(1, n + 1):
        level = []
        for p in levels[-1]:
            for i in range(size):
                c = p[:i] + (size,) + p[i:]
                if not any(_occurs_with_max(c, i, t) for t in patterns):
                    level.append(c)
        levels.append(tuple(sorted(level)))
    return tuple(levels)


def avoider_counts(n: int, patterns: frozenset) -> list[int]:
    """|Av_k(S)| for k = 0..n, by closed counts where they are known, else by growth."""
    if len(patterns) == 1:
        (t,) = patterns
        if len(t) == 3:
            return [catalan(k) for k in range(n + 1)]
        if t == (1, 2, 3, 4) and n < len(AV_1234):
            return list(AV_1234[: n + 1])
    return [len(level) for level in avoider_levels(n, patterns)]


def search_counts(n: int, patterns: frozenset) -> dict:
    """Computed size of the avoidance search tree for (n, S).

    A prefix of length k avoids S exactly when its standardization is in
    Av_k(S), so there are C(n, k) * |Av_k(S)| avoiding prefixes of length
    k; the leaves are the |Av_n(S)| full-length ones.
    """
    counts = avoider_counts(n, patterns)
    prefixes = sum(comb(n, k) * counts[k] for k in range(n + 1))
    return {"prefixes": prefixes, "leaves": counts[n]}


def major_index(p) -> int:
    return sum(i for i in range(1, len(p)) if p[i - 1] > p[i])


def inversions(p) -> int:
    return sum(1 for a, b in itertools.combinations(p, 2) if a > b)


def charge(p) -> int:
    """Value i >= 2 scores n + 1 - i when it stands left of i - 1."""
    n = len(p)
    where = {v: i for i, v in enumerate(p)}
    return sum(n + 1 - v for v in range(2, n + 1) if where[v] < where[v - 1])


STATS = {"maj": major_index, "ch": charge, "inv": inversions}


def polynomial(perms, stat: str) -> list[int]:
    counts: dict[int, int] = {}
    fn = STATS[stat]
    for p in perms:
        v = fn(p)
        counts[v] = counts.get(v, 0) + 1
    return [counts.get(i, 0) for i in range(max(counts) + 1)] if counts else []


def stack_sortable(p) -> bool:
    """One pass of stack sorting yields the identity exactly on the 231-avoiders."""
    stack, out = [], []
    for v in p:
        while stack and stack[-1] < v:
            out.append(stack.pop())
        stack.append(v)
    out.extend(reversed(stack))
    return out == sorted(p)


def classes_oracle(sets, stat: str, nmax: int) -> dict:
    """The CLI's classes payload, rebuilt from grown avoidance sets."""
    witness = {
        fmt_set(s): [polynomial(level, stat) for level in avoider_levels(nmax, frozenset(s))]
        for s in sets
    }
    groups: dict[str, list[str]] = {}
    for name in sorted(witness, key=lambda k: [parse_pattern(t) for t in k.split("+")]):
        groups.setdefault(json.dumps(witness[name]), []).append(name)
    classes = sorted(groups.values(), key=lambda c: [parse_pattern(t) for t in c[0].split("+")])
    return {"n_range": [0, nmax], "classes": classes, "witness_polynomials": witness}


@functools.cache
def references() -> dict:
    return json.loads(REFERENCES.read_text())["coefficients"]


def reference_key(job) -> str:
    return " ".join(job.argv(threads=False))


def check(job, result: dict) -> list[str]:
    """Problems found in one job's CLI result; empty when it passes every oracle."""
    try:
        return _check(job, result)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed result: {exc!r}"]


def _check(job, result: dict) -> list[str]:
    p = job.params
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: got {_short(got)}, expected {_short(want)}")

    if job.cmd in ("poly", "avoid"):
        patterns = frozenset(parse_pattern(t) for t in p["avoid"])
        total = catalan(p["n"]) if p.get("fast") else avoider_counts(p["n"], patterns)[p["n"]]
    if job.cmd == "poly":
        expect("coefficient_sum", result["coefficient_sum"], total)
        expect("sum of coefficients", sum(result["coefficients"]), total)
        expect("coefficients", result["coefficients"], references()[reference_key(job)])
    elif job.cmd == "avoid":
        expect("count", result["count"], total)
        if not p.get("count"):
            perms = [parse_pattern(s) for s in result["permutations"]]
            expect("listed", len(perms), total)
            if any(a >= b for a, b in zip(perms, perms[1:])):
                problems.append("permutations are not strictly increasing in lexicographic order")
            if any(sorted(q) != list(range(1, p["n"] + 1)) for q in perms):
                problems.append("an entry is not a permutation of 1..n")
            test = stack_sortable if p["avoid"] == ["231"] else (
                lambda q: not any(contains(q, t) for t in patterns))
            if not all(map(test, perms)):
                problems.append("a listed permutation contains a forbidden pattern")
    elif job.cmd == "classes":
        sets = list(itertools.combinations(S3, p["size"]))
        expect("classes payload", result, classes_oracle(sets, p["stat"], p["nmax"]))
        if p["size"] == 2 and p["nmax"] >= 6:
            quads = [set(c) for c in result["classes"] if len(c) == 4]
            expect("Theorem 4 class of four", quads, [THEOREM4_QUADRUPLE[p["stat"]]])
            expect("class sizes", sorted(len(c) for c in result["classes"]), [1] * 11 + [4])
    elif job.cmd == "verify":
        expect("passed", result["passed"], True)
        target = p["target"]
        if target in ("theorem8", "corollary9"):
            n = 2 ** p["k"] - 1
            expect("n", result["n"], n)
            expect("coefficient_sum", result["coefficient_sum"], catalan(n))
            expect("coefficients", result["coefficients"], references()[reference_key(job)])
            coeffs = result["coefficients"]
            if coeffs[0] != 1 or any(c % 2 for c in coeffs[1:]):
                problems.append("coefficients do not show the parity pattern")
        elif target == "lemma5":
            n = 2 ** p["k"] - 1
            expect("n", result["n"], n)
            expect("avoider_count", result["avoider_count"], catalan(n))
        elif target == "involution":
            expect("two_row_words", result["two_row_words"], comb(p["n"], p["n"] // 2) - 1)
    elif job.cmd == "stat":
        expect("value", result["value"], STATS[p["stat"]](parse_pattern(p["perm"])))
    return problems


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 80 else text[:77] + "..."
