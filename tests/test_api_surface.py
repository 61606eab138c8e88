"""SURVEY.md §2 operator-inventory coverage: every public reference entry
point (operators #1-#28) must exist under its reference name and compute
reference semantics. Doc-example assertions from the reference sources are
checked here per name."""

from triple_accel_ray import kernels as K
from triple_accel_ray.kernels import Edit, Match

REFERENCE_API = [
    # §2.1 pairwise distance (#1-#21)
    "hamming_naive", "hamming_words_64", "hamming_words_128",
    "hamming_simd_parallel", "hamming_simd_movemask", "hamming",
    "levenshtein_naive", "levenstein_naive_str",
    "levenshtein_naive_with_opts", "levenshtein_naive_k",
    "levenshtein_naive_k_with_opts", "translate_str",
    "levenshtein_simd_k_str", "levenshtein_simd_k",
    "levenshtein_simd_k_with_opts", "levenshtein", "rdamerau",
    "levenshtein_exp", "levenshtein_exp_with_opts", "rdamerau_exp",
    # §2.2 search (#22-#28)
    "hamming_search_naive", "hamming_search_naive_with_opts",
    "hamming_search_simd", "hamming_search_simd_with_opts",
    "levenshtein_search_naive", "levenshtein_search_naive_with_opts",
    "levenshtein_search_simd", "levenshtein_search_simd_with_opts",
    "levenshtein_search", "hamming_search",
    # §2.4 utility surface
    "alloc_str", "fill_str", "check_no_null_bytes",
    "EditCosts", "LEVENSHTEIN_COSTS", "RDAMERAU_COSTS",
]


def test_every_reference_name_exists():
    missing = [n for n in REFERENCE_API if not hasattr(K, n)]
    assert not missing, missing


def test_doc_examples():
    """The reference's doc-comment examples, one per operator family."""
    assert K.hamming(b"abcd", b"abcc") == 1  # lib.rs:57-66
    assert K.levenshtein_exp(b"abc", b"abcd") == 1  # lib.rs:70-78
    assert K.levenshtein_search(b"helllo", b"hello world") == [
        Match(0, 5, 1)
    ]  # lib.rs:87-96
    assert K.levenshtein_simd_k_with_opts(
        b"abcd", b"abdc", 2, False, K.RDAMERAU_COSTS
    )[0] == 1  # lib.rs:100-111
    assert K.levenshtein_naive(b"abc", b"ab") == 1  # levenshtein.rs:98-103
    assert K.levenstein_naive_str("abc", "ab") == 1  # levenshtein.rs:116-121
    assert K.levenshtein_naive_with_opts(b"abc", b"ab", True) == (
        1, [Edit("match", 2), Edit("b_gap", 1)]
    )  # levenshtein.rs:139-145
    assert K.levenshtein_naive_k(b"abc", b"ab", 1) == 1  # levenshtein.rs:335-340
    assert K.levenshtein_naive_k_with_opts(b"abc", b"ab", 1, True) == (
        1, [Edit("match", 2), Edit("b_gap", 1)]
    )  # levenshtein.rs:367-373
    assert K.levenshtein_simd_k_str("abc", "ab", 1) == 1  # levenshtein.rs:633-639
    assert K.levenshtein_simd_k(b"abc", b"ab", 1) == 1  # levenshtein.rs:669-675
    assert K.levenshtein(b"abc", b"ab") == 1  # levenshtein.rs:1390-1395
    assert K.rdamerau(b"abc", b"acb") == 1  # levenshtein.rs:1412-1417
    assert K.levenshtein_exp_with_opts(b"abc", b"ab", True) == (
        1, [Edit("match", 2), Edit("b_gap", 1)]
    )  # levenshtein.rs:1471-1478
    assert K.rdamerau_exp(b"abc", b"acb") == 1  # levenshtein.rs:1509-1514
    assert K.hamming_naive(b"abc", b"abd") == 1  # hamming.rs:29-34
    assert list(K.hamming_search_naive(b"abc", b"  abd")) == [
        Match(2, 5, 1)
    ]  # hamming.rs:62-68
    assert list(K.levenshtein_search_naive(b"abc", b"  abd")) == [
        Match(2, 5, 1)
    ]  # levenshtein.rs:1541-1547
    assert K.levenshtein_search_naive_with_opts(
        b"abc", b"  acb", 1, "all", K.RDAMERAU_COSTS, False
    ) == [Match(2, 4, 1), Match(2, 5, 1)]  # levenshtein.rs:1580-1587
    s = K.alloc_str(10)
    assert len(s) == 10  # lib.rs:189-194
    a = bytearray(5)
    K.fill_str(a, b"\x01\x02\x03\x04")
    assert bytes(a) == b"\x01\x02\x03\x04\x00"  # lib.rs:218-226

def test_force_path_parity():
    """Every dispatch tier, called directly, agrees with its oracle on the
    same inputs (the analogue of the reference's per-feature CI matrix):
    the Myers single-pair tier against the banded DP, the compiled batch
    Myers and the batch dispatcher against the scalar DP, the Myers search
    against the Sellers search."""
    import random

    import numpy as np

    from triple_accel_ray.kernels import (
        SEARCH_ALL,
        SEARCH_BEST,
        levenshtein_naive_k,
        levenshtein_search_naive_with_opts,
        levenshtein_search_simd_with_opts,
        levenshtein_simd_k,
        native,
    )
    from triple_accel_ray.kernels.batch import levenshtein_k_batch, to_byte_rows
    from triple_accel_ray.kernels.scalar import levenshtein_k_with_opts
    from triple_accel_ray.kernels.types import LEVENSHTEIN_COSTS

    rng = random.Random(31)

    def rnd(n):
        return bytes(rng.randrange(97, 123) for _ in range(n))

    pairs = [(rnd(rng.randrange(0, 120)), rnd(rng.randrange(0, 120)))
             for _ in range(80)]
    hay = [rnd(rng.randrange(0, 200)) for _ in range(40)]
    needle = b"pattern"
    k = 15

    assert [levenshtein_simd_k(a, b, k) for a, b in pairs] == [
        levenshtein_naive_k(a, b, k) for a, b in pairs]
    want = []
    for a, b in pairs:
        r = levenshtein_k_with_opts(a, b, k)
        want.append(-1 if r is None else r[0])
    a_col = [p[0] for p in pairs]
    b_col = [p[1] for p in pairs]
    got = np.empty(len(pairs), np.int64)
    native.levenshtein_k_unit(*to_byte_rows(a_col), *to_byte_rows(b_col), k, got)
    assert got.tolist() == want
    assert levenshtein_k_batch(a_col, b_col, k).tolist() == want
    for h in hay:
        for st in (SEARCH_ALL, SEARCH_BEST):
            assert levenshtein_search_simd_with_opts(
                needle, h, 2, st, LEVENSHTEIN_COSTS, False
            ) == levenshtein_search_naive_with_opts(
                needle, h, 2, st, LEVENSHTEIN_COSTS, False
            )
