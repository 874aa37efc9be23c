"""
Permutation statistics, pattern avoidance, and statistic-refined Wilf equivalence.

The package computes the major index, charge, and inversion statistics,
enumerates pattern-avoidance sets with pruning and sharding, partitions
pattern collections into st-Wilf equivalence classes, and carries the
tableau machinery (row insertion, ballot words, a fixed-point-free
involution, and the q-binomial closed form over two-row shapes) that
makes the charge polynomial over 321-avoiders cheap at sizes where
enumeration is hopeless.
"""

from .errors import ExhaustionError, VerificationError
from .perm_core import (
    Permutation,
    all_permutations,
    avoids_all,
    check_permutation,
    complement,
    contains_pattern,
    enumerate_avoiders,
    f_map,
    identity,
    inverse,
    is_permutation,
    normalize_patterns,
    reverse,
)
from .statistics import (
    CHARGE,
    INVERSIONS,
    MAJOR_INDEX,
    MAX_DP_NMAX,
    STAT_NAMES,
    StatPolynomial,
    charge,
    charge_values,
    descent_set,
    inversions,
    length3_polynomials,
    major_index,
    merge_polynomials,
    parse_stat,
    q_factorial,
    stat_function,
    stat_polynomial,
)
from .tableaux import (
    ballot_rank,
    ballot_to_tableau,
    ballot_unrank,
    count_two_row,
    enumerate_two_row_syt,
    fast_ch_321,
    has_parity_pattern,
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
from .wilf_engine import (
    MAX_EXHAUSTIVE,
    S3,
    WilfClassReport,
    f_image,
    st_wilf_classes,
    verify_lemma1,
    verify_lemma2,
    verify_theorem3,
    verify_theorem4,
)

__version__ = "0.1.0"
