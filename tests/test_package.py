"""The package's public names: the export list, where each name comes from, and lazy loading."""
import importlib
import subprocess
import sys

import pytest

import permstat

EXPORTS = {
    "errors": ["ExhaustionError", "VerificationError"],
    "perm_core": [
        "Permutation", "all_permutations", "avoids_all", "check_permutation", "complement",
        "contains_pattern", "enumerate_avoiders", "f_image", "f_map", "identity", "inverse",
        "is_permutation", "normalize_patterns", "reverse",
    ],
    "statistics": [
        "CHARGE", "INVERSIONS", "MAJOR_INDEX", "MAX_DP_NMAX", "STAT_NAMES", "StatPolynomial",
        "charge", "charge_values", "descent_set", "inversions", "length3_polynomials",
        "major_index", "merge_polynomials", "parse_stat", "q_factorial", "stat_function",
        "stat_polynomial",
    ],
    "tableaux": [
        "ballot_rank", "ballot_to_tableau", "ballot_unrank", "count_two_row",
        "enumerate_two_row_syt", "fast_ch_321", "has_parity_pattern", "involution_phi",
        "is_ballot_word", "is_standard_tableau", "lemma5_count", "parity_polynomial",
        "reading_word", "rsk_insert", "rsk_inverse", "syt_count_two_row_shape", "tableau_shape",
        "tableau_to_ballot", "two_row_maj_polynomials", "verify_corollary9", "verify_involution",
        "verify_lemma5", "verify_theorem8",
    ],
    "wilf_engine": [
        "MAX_EXHAUSTIVE", "S3", "WilfClassReport", "st_wilf_classes", "verify_lemma1",
        "verify_lemma2", "verify_theorem3", "verify_theorem4",
    ],
}


def test_the_export_list_is_unchanged():
    expected = [name for names in EXPORTS.values() for name in names]
    assert sorted(permstat.__all__) == sorted(expected)
    assert len(set(permstat.__all__)) == len(permstat.__all__) == 64


def test_each_name_is_its_modules_object():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"permstat.{module_name}")
        assert getattr(permstat, module_name) is module
        for name in names:
            assert getattr(permstat, name) is getattr(module, name), name
            namespace = {}
            exec(f"from permstat import {name}", namespace)
            assert namespace[name] is getattr(module, name), name


def test_dir_lists_the_exports_and_modules():
    listed = dir(permstat)
    assert set(permstat.__all__) <= set(listed)
    assert set(EXPORTS) <= set(listed)
    assert "__version__" in listed


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        permstat.no_such_name
    with pytest.raises(ImportError):
        exec("from permstat import no_such_name", {})


def test_import_loads_no_module_until_a_name_is_used():
    probe = (
        "import sys, permstat\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('permstat.'))\n"
        "assert loaded() == [], loaded()\n"
        "assert permstat.tableaux.fast_ch_321(3).coeffs == (1, 2, 2)\n"
        "assert 'permstat.wilf_engine' not in sys.modules, loaded()\n"
        "assert permstat.wilf_engine.S3 is permstat.S3\n"
        "from permstat import perm_core, statistics, errors\n"
        "print(' '.join(loaded()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "permstat.errors", "permstat.perm_core", "permstat.statistics", "permstat.tableaux",
        "permstat.wilf_engine",
    ]
