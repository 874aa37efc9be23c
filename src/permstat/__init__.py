"""
Permutation statistics, pattern avoidance, and statistic-refined Wilf equivalence.

The package computes the major index, charge, and inversion statistics,
enumerates pattern-avoidance sets with pruning and sharding, partitions
pattern collections into st-Wilf equivalence classes, and carries the
tableau machinery (row insertion, ballot words, a fixed-point-free
involution, and the q-binomial closed form over two-row shapes) that
makes the charge polynomial over 321-avoiders cheap at sizes where
enumeration is hopeless.

Importing the package loads none of its modules: each name in __all__,
and each library module (``permstat.tableaux`` and the rest), is
imported on first access, so ``python -m permstat`` pays only for the
modules its command runs.
"""

import importlib

# library module -> the names the package exports from it
_EXPORTS = {
    "errors": ("ExhaustionError", "VerificationError"),
    "perm_core": (
        "Permutation",
        "all_permutations",
        "avoids_all",
        "check_permutation",
        "complement",
        "contains_pattern",
        "enumerate_avoiders",
        "f_image",
        "f_map",
        "identity",
        "inverse",
        "is_permutation",
        "normalize_patterns",
        "reverse",
    ),
    "statistics": (
        "CHARGE",
        "INVERSIONS",
        "MAJOR_INDEX",
        "MAX_DP_NMAX",
        "STAT_NAMES",
        "StatPolynomial",
        "charge",
        "charge_values",
        "descent_set",
        "inversions",
        "length3_polynomials",
        "major_index",
        "merge_polynomials",
        "parse_stat",
        "q_factorial",
        "stat_function",
        "stat_polynomial",
    ),
    "tableaux": (
        "ballot_rank",
        "ballot_to_tableau",
        "ballot_unrank",
        "count_two_row",
        "enumerate_two_row_syt",
        "fast_ch_321",
        "has_parity_pattern",
        "involution_phi",
        "is_ballot_word",
        "is_standard_tableau",
        "lemma5_count",
        "parity_polynomial",
        "reading_word",
        "rsk_insert",
        "rsk_inverse",
        "syt_count_two_row_shape",
        "tableau_shape",
        "tableau_to_ballot",
        "two_row_maj_polynomials",
        "verify_corollary9",
        "verify_involution",
        "verify_lemma5",
        "verify_theorem8",
    ),
    "wilf_engine": (
        "MAX_EXHAUSTIVE",
        "S3",
        "WilfClassReport",
        "st_wilf_classes",
        "verify_lemma1",
        "verify_lemma2",
        "verify_theorem3",
        "verify_theorem4",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)  # binds the package attribute too
    if name in _OWNER:  # read from its module on every access, so it follows that module
        return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
