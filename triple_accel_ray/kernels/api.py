"""Public kernel API with the reference library's entry-point names.

Every function here targets the reference's NAIVE/DOCUMENTED semantics
(/root/reference/src/{hamming.rs,levenshtein.rs,lib.rs}). The reference's own
SIMD paths diverge from its naive paths on a handful of known edge cases
(restricted-transpose band boundaries, anchored/position-0 search matches);
``scripts/diff_reference.py`` reproduces and arbitrates those, and this port
resolves them in favor of the naive semantics — so ``*_simd_*`` outputs are
NOT bit-identical to the reference's SIMD functions on exactly those inputs.
The ``*_simd_*`` names are kept for API parity and dispatch to our fast paths
(Myers bit-parallel for unit costs without traceback, banded DP otherwise),
mirroring the reference's runtime ladder (levenshtein.rs:766-827).

Search routines return eager lists of :class:`Match` (the reference returns
lazy iterators; the values and order are identical).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import scalar
from .myers import myers_distance
from .types import (
    LEVENSHTEIN_COSTS,
    RDAMERAU_COSTS,
    SEARCH_ALL,
    SEARCH_BEST,
    U32_MAX,
    Edit,
    EditCosts,
    Match,
    as_seq,
)

__all__ = [
    "hamming", "hamming_naive", "hamming_words_64", "hamming_words_128",
    "hamming_simd_parallel", "hamming_simd_movemask",
    "hamming_search", "hamming_search_naive", "hamming_search_naive_with_opts",
    "hamming_search_simd", "hamming_search_simd_with_opts",
    "levenshtein", "levenshtein_naive", "levenstein_naive_str",
    "levenshtein_naive_with_opts", "levenshtein_naive_k",
    "levenshtein_naive_k_with_opts", "levenshtein_simd_k",
    "levenshtein_simd_k_str", "levenshtein_simd_k_with_opts",
    "levenshtein_exp", "levenshtein_exp_with_opts",
    "rdamerau", "rdamerau_exp",
    "levenshtein_search", "levenshtein_search_naive",
    "levenshtein_search_naive_with_opts", "levenshtein_search_simd",
    "levenshtein_search_simd_with_opts",
    "translate_str", "alloc_str", "fill_str", "check_no_null_bytes",
    "Match", "Edit", "EditCosts", "LEVENSHTEIN_COSTS", "RDAMERAU_COSTS",
    "SEARCH_ALL", "SEARCH_BEST",
]


# ---------------------------------------------------------------- hamming

def hamming_naive(a, b) -> int:
    """Mismatch count (hamming.rs:36-47)."""
    return scalar.hamming_dist(a, b)


# The words_64/words_128/simd variants are implementation tiers in the
# reference with identical outputs (asserted by its benches); here they are
# aliases over one kernel (hamming.rs:176-219, 249-292, 317-367).
hamming_words_64 = hamming_naive
hamming_words_128 = hamming_naive
hamming_simd_parallel = hamming_naive
hamming_simd_movemask = hamming_naive
hamming = hamming_naive  # lib.rs:126 re-export = hamming_simd_parallel


def _default_search_k(needle_len: int) -> int:
    """ceil(needle_len / 2) (hamming.rs:71, levenshtein.rs:1556)."""
    return (needle_len >> 1) + (needle_len & 1)


def hamming_search_naive_with_opts(
    needle, haystack, k: int, search_type: str = SEARCH_ALL
) -> List[Match]:
    return scalar.hamming_search_with_opts(needle, haystack, k, search_type)


def hamming_search_naive(needle, haystack) -> List[Match]:
    return scalar.hamming_search_with_opts(
        needle, haystack, _default_search_k(len(needle)), SEARCH_BEST
    )


def check_no_null_bytes(s) -> None:
    """NUL bytes are rejected by the reference's SIMD hamming search
    (lib.rs:237-243); preserved as a ValueError."""
    s = as_seq(s)
    probe = 0 if isinstance(s, bytes) else "\0"
    if probe in s:
        raise ValueError("No zero/null bytes allowed in the string!")


def hamming_search_simd_with_opts(
    needle, haystack, k: int, search_type: str = SEARCH_ALL
) -> List[Match]:
    """Same results as the naive search; empty needle yields no matches and
    NUL bytes in the haystack are rejected (hamming.rs:454-463)."""
    if len(needle) == 0:
        return []
    check_no_null_bytes(haystack)
    return scalar.hamming_search_with_opts(needle, haystack, k, search_type)


def hamming_search_simd(needle, haystack) -> List[Match]:
    return hamming_search_simd_with_opts(
        needle, haystack, _default_search_k(len(needle)), SEARCH_BEST
    )


hamming_search = hamming_search_simd  # lib.rs:126 re-export


# ------------------------------------------------------------ levenshtein

def levenshtein_naive(a, b) -> int:
    return scalar.levenshtein_with_opts(a, b, False, LEVENSHTEIN_COSTS)[0]


def levenstein_naive_str(a: str, b: str) -> int:
    """Char-level naive distance; the reference's (sic) typo'd name is kept
    (levenshtein.rs:123-127)."""
    return scalar.levenshtein_with_opts(list(a), list(b), False, LEVENSHTEIN_COSTS)[0]


def levenshtein_naive_with_opts(
    a, b, trace_on: bool = False, costs: EditCosts = LEVENSHTEIN_COSTS
) -> Tuple[int, Optional[List[Edit]]]:
    return scalar.levenshtein_with_opts(a, b, trace_on, costs)


def levenshtein_naive_k(a, b, k: int) -> Optional[int]:
    res = scalar.levenshtein_k_with_opts(a, b, k, False, LEVENSHTEIN_COSTS)
    return None if res is None else res[0]


def levenshtein_naive_k_with_opts(
    a, b, k: int, trace_on: bool = False, costs: EditCosts = LEVENSHTEIN_COSTS
) -> Optional[Tuple[int, Optional[List[Edit]]]]:
    return scalar.levenshtein_k_with_opts(a, b, k, trace_on, costs)


def levenshtein_simd_k_with_opts(
    a, b, k: int, trace_on: bool = False, costs: EditCosts = LEVENSHTEIN_COSTS
) -> Optional[Tuple[int, Optional[List[Edit]]]]:
    """Fast-path dispatch with outputs identical to the banded DP
    (mirrors levenshtein.rs:714-827's dispatch-with-identical-results)."""
    if not trace_on and costs.is_unit():
        # Myers bit-parallel path; apply the same achievable-cost cap the
        # banded DP applies so the None/Some boundary is identical.
        a_s = as_seq(a)
        b_s = as_seq(b)
        if len(a_s) > len(b_s):
            a_s, b_s = b_s, a_s
        max_k, unit_k = scalar._max_k_and_band(len(a_s), len(b_s), k, costs)
        if len(b_s) - len(a_s) > unit_k:
            return None
        d = myers_distance(a_s, b_s, max_k)
        return None if d is None else (d, None)
    return scalar.levenshtein_k_with_opts(a, b, k, trace_on, costs)


def levenshtein_simd_k(a, b, k: int) -> Optional[int]:
    res = levenshtein_simd_k_with_opts(a, b, k, False, LEVENSHTEIN_COSTS)
    return None if res is None else res[0]


def translate_str(chars: List[str], s: str) -> Optional[List[int]]:
    """Map unicode chars onto a <=256-symbol alphabet (levenshtein.rs:609-624)."""
    out: List[int] = []
    index = {c: i for i, c in enumerate(chars)}
    for c in s:
        i = index.get(c)
        if i is None:
            i = len(chars)
            if i >= 256:
                return None
            chars.append(c)
            index[c] = i
        out.append(i)
    return out


def levenshtein_simd_k_str(a: str, b: str, k: int) -> Optional[int]:
    """ASCII strings go through the byte kernel; other strings are
    dictionary-encoded first (levenshtein.rs:641-651)."""
    if a.isascii() and b.isascii():
        return levenshtein_simd_k(a.encode(), b.encode(), k)
    chars: List[str] = []
    ta = translate_str(chars, a)
    if ta is None:
        return None
    tb = translate_str(chars, b)
    if tb is None:
        return None
    return levenshtein_simd_k(bytes(ta), bytes(tb), k)


def levenshtein(a, b) -> int:
    """Unbounded distance = k-bounded at u32::MAX (levenshtein.rs:1397-1399)."""
    return levenshtein_simd_k(a, b, U32_MAX)


def rdamerau(a, b) -> int:
    """Unbounded restricted Damerau-Levenshtein (levenshtein.rs:1419-1423)."""
    return levenshtein_simd_k_with_opts(a, b, U32_MAX, False, RDAMERAU_COSTS)[0]


def levenshtein_exp(a, b) -> int:
    """Exponential search on k: 30, 60, 120, ... (levenshtein.rs:1445-1454)."""
    k = 30
    while True:
        res = levenshtein_simd_k(a, b, k)
        if res is not None:
            return res
        k *= 2


def levenshtein_exp_with_opts(
    a, b, trace_on: bool = False, costs: EditCosts = LEVENSHTEIN_COSTS
) -> Tuple[int, Optional[List[Edit]]]:
    k = 30
    while True:
        res = levenshtein_simd_k_with_opts(a, b, k, trace_on, costs)
        if res is not None:
            return res
        k *= 2


def rdamerau_exp(a, b) -> int:
    k = 30
    while True:
        res = levenshtein_simd_k_with_opts(a, b, k, False, RDAMERAU_COSTS)
        if res is not None:
            return res[0]
        k *= 2


# ------------------------------------------------------------------ search

def levenshtein_search_naive_with_opts(
    needle,
    haystack,
    k: int,
    search_type: str = SEARCH_ALL,
    costs: EditCosts = LEVENSHTEIN_COSTS,
    anchored: bool = False,
) -> List[Match]:
    return scalar.levenshtein_search_with_opts(
        needle, haystack, k, search_type, costs, anchored
    )


def levenshtein_search_naive(needle, haystack) -> List[Match]:
    return scalar.levenshtein_search_with_opts(
        needle,
        haystack,
        _default_search_k(len(needle)),
        SEARCH_BEST,
        LEVENSHTEIN_COSTS,
        False,
    )


# The SIMD search in the reference produces identical Match streams to the
# naive search (levenshtein.rs:1866-2484); our fast path (Myers bit-parallel
# scan + windowed tie-break recovery) dispatches for unit costs, mirroring
# that identical-output guarantee.
def levenshtein_search_simd_with_opts(
    needle,
    haystack,
    k: int,
    search_type: str = SEARCH_ALL,
    costs: EditCosts = LEVENSHTEIN_COSTS,
    anchored: bool = False,
) -> List[Match]:
    if costs.is_unit() and not anchored and len(needle) > 0:
        from .search_fast import levenshtein_search_myers

        return levenshtein_search_myers(needle, haystack, k, search_type)
    return scalar.levenshtein_search_with_opts(
        needle, haystack, k, search_type, costs, anchored
    )


def levenshtein_search_simd(needle, haystack) -> List[Match]:
    return levenshtein_search_simd_with_opts(
        needle, haystack, _default_search_k(len(needle)), SEARCH_BEST,
        LEVENSHTEIN_COSTS, False,
    )


levenshtein_search = levenshtein_search_simd  # lib.rs:127 re-export


# ----------------------------------------------------------------- shims

def alloc_str(length: int) -> bytearray:
    """Aligned-string shim (lib.rs:197-205): Arrow buffers make alignment a
    non-issue here; a plain zeroed buffer preserves the API."""
    return bytearray(length)


def fill_str(dest: bytearray, src) -> None:
    """memcpy shim (lib.rs:229-235)."""
    src = as_seq(src)
    if len(dest) < len(src):
        raise ValueError("destination shorter than source")
    dest[: len(src)] = src
