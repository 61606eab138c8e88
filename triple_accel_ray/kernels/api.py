"""Public kernel API with the reference library's entry-point names.

Every function here targets the reference's NAIVE/DOCUMENTED semantics
(/root/reference/src/{hamming.rs,levenshtein.rs,lib.rs}). The reference's own
SIMD paths diverge from its naive paths on a handful of known edge cases
(restricted-transpose band boundaries, anchored/position-0 search matches);
``scripts/diff_reference.py`` reproduces and arbitrates those, and this port
resolves them in favor of the naive semantics — so ``*_simd_*`` outputs are
NOT bit-identical to the reference's SIMD functions on exactly those inputs.
The ``*_simd_*`` names are kept for API parity and dispatch to the compiled
engine in ``_myers.c`` (Myers for unit costs without traceback, the banded
DP for every other cost model and every trace), mirroring the reference's
runtime ladder (levenshtein.rs:766-827).

Search routines return eager lists of :class:`Match` (the reference returns
lazy iterators; the values and order are identical).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import batch, native, scalar
from .search_fast import select_matches
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


def _byte_pair(a, b):
    """``a`` and ``b`` as byte strings in which two symbols are equal iff
    they were equal before, for the compiled kernels; None when together
    they hold more than 256 distinct symbols."""
    if isinstance(a, (bytes, bytearray, memoryview)) and \
            isinstance(b, (bytes, bytearray, memoryview)):
        return bytes(a), bytes(b)
    if isinstance(a, str) and isinstance(b, str) and a.isascii() \
            and b.isascii():
        return a.encode(), b.encode()
    chars: List = []
    ta = translate_str(chars, a)
    tb = None if ta is None else translate_str(chars, b)
    return None if tb is None else (bytes(ta), bytes(tb))


def levenshtein_simd_k_with_opts(
    a, b, k: int, trace_on: bool = False, costs: EditCosts = LEVENSHTEIN_COSTS
) -> Optional[Tuple[int, Optional[List[Edit]]]]:
    """Fast-path dispatch with outputs identical to the banded DP
    (mirrors levenshtein.rs:714-827's dispatch-with-identical-results):
    the compiled engine, its Myers for unit costs without a trace and its
    banded DP otherwise; only inputs with more than 256 distinct symbols
    run the scalar DP."""
    pair = _byte_pair(a, b)
    if pair is None:
        return scalar.levenshtein_k_with_opts(a, b, k, trace_on, costs)
    # the banded DP's achievable-cost cap, so the None/Some boundary is
    # the DP's and any k reaches the kernels as an int64
    a_s, b_s = sorted(pair, key=len)
    max_k, unit_k = scalar._max_k_and_band(len(a_s), len(b_s), k, costs)
    if len(b_s) - len(a_s) > unit_k:
        return None
    if trace_on:
        d, traces = batch.levenshtein_k_batch_trace(
            [pair[0]], [pair[1]], max_k, costs)
        return None if d[0] < 0 else (int(d[0]), traces[0])
    if costs.is_unit():
        d = native.levenshtein_k_pair(a_s, b_s, max_k)
    else:
        d = int(batch.levenshtein_k_batch([a_s], [b_s], max_k, costs)[0])
    return None if d < 0 else (d, None)


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
    dictionary-encoded first, and None when together they hold more than
    256 distinct chars (levenshtein.rs:641-651)."""
    pair = _byte_pair(a, b)
    return None if pair is None else levenshtein_simd_k(*pair, k)


def levenshtein(a, b) -> int:
    """Unbounded distance = k-bounded at u32::MAX (levenshtein.rs:1397-1399)."""
    return levenshtein_simd_k(a, b, U32_MAX)


def rdamerau(a, b) -> int:
    """Unbounded restricted Damerau-Levenshtein (levenshtein.rs:1419-1423)."""
    return levenshtein_simd_k_with_opts(a, b, U32_MAX, False, RDAMERAU_COSTS)[0]


def levenshtein_exp_with_opts(
    a, b, trace_on: bool = False, costs: EditCosts = LEVENSHTEIN_COSTS
) -> Tuple[int, Optional[List[Edit]]]:
    """Exponential search on k: 30, 60, 120, ... (levenshtein.rs:1445-1454)."""
    k = 30
    while True:
        res = levenshtein_simd_k_with_opts(a, b, k, trace_on, costs)
        if res is not None:
            return res
        k *= 2


def levenshtein_exp(a, b) -> int:
    return levenshtein_exp_with_opts(a, b)[0]


def rdamerau_exp(a, b) -> int:
    return levenshtein_exp_with_opts(a, b, False, RDAMERAU_COSTS)[0]


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
# naive search (levenshtein.rs:1866-2484). For unit costs, unanchored, the
# compiled Myers engine scans the haystack as a one-row column (end, cost
# and longest-match start of every hit) and ``select_matches`` applies the
# scalar search's ALL/BEST selection, so the output is the naive search's.
def levenshtein_search_simd_with_opts(
    needle,
    haystack,
    k: int,
    search_type: str = SEARCH_ALL,
    costs: EditCosts = LEVENSHTEIN_COSTS,
    anchored: bool = False,
) -> List[Match]:
    pair = None if anchored or not costs.is_unit() or len(needle) == 0 \
        else _byte_pair(needle, haystack)
    if pair is not None:
        nb, hb = pair
        _, ends, costs_h, starts = native.myers_search_column(
            nb, np.frombuffer(hb, np.uint8), np.array([0, len(hb)]), k)
        return select_matches(ends.tolist(), costs_h.tolist(),
                              starts.tolist(), len(nb), k, search_type)
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
