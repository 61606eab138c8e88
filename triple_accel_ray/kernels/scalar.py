"""Scalar reference kernels: the semantic oracle for every distance/search op.

These are from-scratch Python implementations of the exact semantics of the
reference library's scalar routines (cited per function). They are
deliberately simple and row-oriented: the compiled engine in ``_myers.c``
(through ``batch.py`` and ``api.py``) is differential-tested against these,
and runs them only for inputs of more than 256 distinct symbols.

Reference semantics sources (all under /root/reference/src/):
  * hamming.rs:36-47 (hamming_naive), hamming.rs:96-146 (search)
  * levenshtein.rs:148-319 (full-DP with affine gaps/transpose/traceback)
  * levenshtein.rs:376-607 (banded k-bounded DP)
  * levenshtein.rs:1589-1838 (Sellers semi-global search with
    length-tracking tie-breaks and Best post-pass)
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .types import (
    A_GAP,
    B_GAP,
    LEVENSHTEIN_COSTS,
    MATCH,
    MISMATCH,
    SEARCH_ALL,
    SEARCH_BEST,
    TRANSPOSE,
    U32_MAX,
    Edit,
    EditCosts,
    Match,
    as_seq,
    saturating_add,
)

__all__ = [
    "hamming_dist",
    "hamming_search_with_opts",
    "levenshtein_with_opts",
    "levenshtein_k_with_opts",
    "levenshtein_search_with_opts",
]


def hamming_dist(a, b) -> int:
    """Mismatch count between equal-length sequences (hamming.rs:36-47)."""
    a = as_seq(a)
    b = as_seq(b)
    if len(a) != len(b):
        raise ValueError("hamming distance requires equal-length strings")
    return sum(x != y for x, y in zip(a, b))


def hamming_search_with_opts(
    needle,
    haystack,
    k: int,
    search_type: str = SEARCH_ALL,
) -> List[Match]:
    """Sliding mismatch-count search (hamming.rs:96-146).

    ``best`` progressively shrinks the threshold to each new best cost and
    finally keeps only matches at the final best cost.
    """
    needle = as_seq(needle)
    haystack = as_seq(haystack)
    needle_len = len(needle)
    haystack_len = len(haystack)

    if needle_len > haystack_len:
        return []

    curr_k = k
    out: List[Match] = []
    for i in range(haystack_len + 1 - needle_len):
        cost = 0
        ok = True
        for j in range(needle_len):
            cost += needle[j] != haystack[i + j]
            if cost > curr_k:  # early stop at threshold
                ok = False
                break
        if not ok:
            continue
        if search_type == SEARCH_BEST:
            curr_k = cost
        out.append(Match(i, i + needle_len, cost))

    if search_type == SEARCH_BEST:
        return [m for m in out if m.k == curr_k]
    return out


def _rle_push(res: List[Edit], e: str) -> None:
    if res and res[-1].edit == e:
        res[-1] = Edit(e, res[-1].count + 1)
    else:
        res.append(Edit(e, 1))


def levenshtein_with_opts(
    a,
    b,
    trace_on: bool = False,
    costs: EditCosts = LEVENSHTEIN_COSTS,
) -> Tuple[int, Optional[List[Edit]]]:
    """Full-DP edit distance with affine gaps, optional transposes and an
    RLE traceback (levenshtein.rs:148-319).

    The shorter string is treated as ``a`` internally (inputs swapped when
    needed); gap edit types are un-swapped in the traceback. Tie-breaking
    when costs are equal: substitution beats either gap, transpose beats
    everything (matching the reference's update order).
    """
    a = as_seq(a)
    b = as_seq(b)
    swap = len(a) > len(b)
    if swap:
        a, b = b, a
    a_len, b_len = len(a), len(b)
    mis = costs.mismatch_cost
    gap = costs.gap_cost
    start_gap = costs.start_gap_cost
    tc = costs.transpose_cost or 0
    allow_t = costs.allow_transpose

    width = a_len + 1
    dp0 = [0] * width
    dp1 = [0] * width
    dp2 = [0] * width
    a_gap_dp = [U32_MAX] * width
    b_gap_dp = [U32_MAX] * width
    tb = bytearray((b_len + 1) * width) if trace_on else None

    for j in range(width):
        dp1[j] = j * gap + (start_gap if j else 0)
        if trace_on:
            tb[j] = 2

    for i in range(1, b_len + 1):
        a_gap_dp[0] = i * gap + start_gap
        dp2[0] = i * gap + start_gap
        if trace_on:
            tb[i * width] = 1
        bi = b[i - 1]
        row = i * width if trace_on else 0
        for j in range(1, width):
            sub = dp1[j - 1] + (mis if a[j - 1] != bi else 0)
            a_gap_dp[j] = min(
                dp1[j] + start_gap + gap, saturating_add(a_gap_dp[j], gap)
            )
            b_gap_dp[j] = min(
                dp2[j - 1] + start_gap + gap, saturating_add(b_gap_dp[j - 1], gap)
            )
            best = a_gap_dp[j]
            code = 1
            if b_gap_dp[j] < best:
                best = b_gap_dp[j]
                code = 2
            if sub <= best:
                best = sub
                code = 0
            if (
                allow_t
                and i > 1
                and j > 1
                and a[j - 1] == b[i - 2]
                and a[j - 2] == bi
            ):
                transpose = dp0[j - 2] + tc
                if transpose <= best:
                    best = transpose
                    code = 3
            dp2[j] = best
            if trace_on:
                tb[row + j] = code
        dp0, dp1, dp2 = dp1, dp2, dp0

    dist = dp1[a_len]
    if not trace_on:
        return dist, None

    res: List[Edit] = []
    i, j = b_len, a_len
    while i > 0 or j > 0:
        code = tb[i * width + j]
        if code == 0:
            i -= 1
            j -= 1
            e = MATCH if a[j] == b[i] else MISMATCH
        elif code == 1:
            i -= 1
            e = B_GAP if swap else A_GAP
        elif code == 2:
            j -= 1
            e = A_GAP if swap else B_GAP
        else:
            i -= 2
            j -= 2
            e = TRANSPOSE
        _rle_push(res, e)
    res.reverse()
    return dist, res


def _max_k_and_band(a_len: int, b_len: int, k: int, costs: EditCosts) -> Tuple[int, int]:
    """Cap ``k`` by an upper bound on the achievable cost and derive the band
    half-width ``unit_k`` (levenshtein.rs:399-426). Assumes a_len <= b_len."""
    mis = costs.mismatch_cost
    gap = costs.gap_cost
    start_gap = costs.start_gap_cost
    if a_len == 0:
        gaps_bound = 0
    else:
        gaps_bound = (a_len * 2) * gap + start_gap + (
            start_gap if b_len == a_len else 0
        )
    max_k = min(a_len * mis, gaps_bound)
    max_k = min(
        k,
        max_k + (b_len - a_len) * gap + (0 if b_len == a_len else start_gap),
    )
    unit_k = max(0, max_k - start_gap) // gap
    return max_k, unit_k


def levenshtein_k_with_opts(
    a,
    b,
    k: int,
    trace_on: bool = False,
    costs: EditCosts = LEVENSHTEIN_COSTS,
) -> Optional[Tuple[int, Optional[List[Edit]]]]:
    """Banded k-bounded edit distance (levenshtein.rs:376-607).

    Returns None when the cost exceeds ``min(k, achievable upper bound)``.
    The DP iterates rows over the shorter string ``a`` with a band of width
    ``2*unit_k+1`` over ``b`` positions; gap state propagates exactly as in
    the reference (same-row horizontal for a-gaps, previous-row vertical for
    b-gaps), and tie-breaking matches the reference's update order
    (substitution first, strict improvement for gaps, transpose on ties).
    """
    a = as_seq(a)
    b = as_seq(b)
    swap = len(a) > len(b)
    if swap:
        a, b = b, a
    a_len, b_len = len(a), len(b)
    mis = costs.mismatch_cost
    gap = costs.gap_cost
    start_gap = costs.start_gap_cost
    tc = costs.transpose_cost or 0
    allow_t = costs.allow_transpose

    max_k, unit_k = _max_k_and_band(a_len, b_len, k, costs)
    if b_len - a_len > unit_k:
        return None

    k_len = min((unit_k << 1) + 1, b_len + 1)
    lo = 0
    hi = min(unit_k + 1, b_len + 1)
    prev_lo1 = 0
    dp0 = [0] * k_len
    dp1 = [0] * k_len
    dp2 = [0] * k_len
    a_gap_dp = [U32_MAX] * k_len
    b_gap_dp = [U32_MAX] * k_len
    tb = bytearray((a_len + 1) * k_len) if trace_on else None

    for j in range(hi - lo):
        dp1[j] = j * gap + (start_gap if j else 0)
        if trace_on:
            tb[j] = 1

    for i in range(1, a_len + 1):
        prev_lo0 = prev_lo1
        prev_lo1 = lo
        prev_hi = hi
        hi = min(hi + 1, b_len + 1)
        if i > unit_k:
            lo += 1
        ai = a[i - 1]
        ai_prev = a[i - 2] if i > 1 else None
        b_gap_prev = b_gap_dp[:]  # previous-row b-gap state
        row = i * k_len if trace_on else 0
        for j in range(hi - lo):
            idx = lo + j
            if idx == 0:
                sub = U32_MAX
            else:
                sub = dp1[idx - 1 - prev_lo1] + (mis if ai != b[idx - 1] else 0)
            if j == 0:
                a_gap = U32_MAX
            else:
                a_gap = min(
                    dp2[j - 1] + start_gap + gap,
                    saturating_add(a_gap_dp[j - 1], gap),
                )
            a_gap_dp[j] = a_gap
            if idx >= prev_hi:
                b_gap = U32_MAX
            else:
                b_gap = min(
                    dp1[idx - prev_lo1] + start_gap + gap,
                    saturating_add(b_gap_prev[idx - prev_lo1], gap),
                )
            b_gap_dp[j] = b_gap

            best = sub
            code = 0
            if a_gap < best:
                best = a_gap
                code = 1
            if b_gap < best:
                best = b_gap
                code = 2
            if (
                allow_t
                and i > 1
                and idx > 1
                and ai == b[idx - 2]
                and ai_prev == b[idx - 1]
            ):
                transpose = dp0[idx - prev_lo0 - 2] + tc
                if transpose <= best:
                    best = transpose
                    code = 3
            dp2[j] = best
            if trace_on:
                tb[row + j] = code
        dp0, dp1, dp2 = dp1, dp2, dp0

    dist = dp1[hi - lo - 1]
    if dist > max_k:
        return None
    if not trace_on:
        return dist, None

    res: List[Edit] = []
    i, j = a_len, b_len
    while i > 0 or j > 0:
        off = i - unit_k if i > unit_k else 0
        code = tb[i * k_len + (j - off)]
        if code == 0:
            i -= 1
            j -= 1
            e = MATCH if a[i] == b[j] else MISMATCH
        elif code == 1:
            j -= 1
            e = B_GAP if swap else A_GAP
        elif code == 2:
            i -= 1
            e = A_GAP if swap else B_GAP
        else:
            i -= 2
            j -= 2
            e = TRANSPOSE
        _rle_push(res, e)
    res.reverse()
    return dist, res


def levenshtein_search_with_opts(
    needle,
    haystack,
    k: int,
    search_type: str = SEARCH_ALL,
    costs: EditCosts = LEVENSHTEIN_COSTS,
    anchored: bool = False,
) -> List[Match]:
    """Sellers semi-global fuzzy search (levenshtein.rs:1589-1838).

    Tracks per-cell match lengths so each reported end position carries the
    longest-match start, with the reference's exact tie-break rules; ``best``
    shrinks the running threshold and applies the full-overlap replacement
    post-pass before filtering to the final best cost. ``anchored`` charges
    leading haystack gaps and truncates the scan.
    """
    needle = as_seq(needle)
    haystack = as_seq(haystack)
    needle_len = len(needle)
    haystack_len = len(haystack)

    if needle_len == 0:
        if not anchored:
            return []
        if search_type == SEARCH_BEST:
            return [Match(0, 0, 0)]
        out = [Match(0, 0, 0)]
        cost = costs.start_gap_cost
        for i in range(1, haystack_len + 1):
            cost += costs.gap_cost
            if cost > k:
                break
            out.append(Match(0, i, cost))
        return out

    costs.check_search()

    mis = costs.mismatch_cost
    gap = costs.gap_cost
    start_gap = costs.start_gap_cost
    tc = costs.transpose_cost or 0
    allow_t = costs.allow_transpose

    width = needle_len + 1
    if anchored:
        iter_len = min(
            haystack_len,
            needle_len + max(0, k - start_gap) // gap,
        )
    else:
        iter_len = haystack_len

    dp0 = [0] * width
    dp1 = [0] * width
    dp2 = [0] * width
    needle_gap_dp = [U32_MAX] * width
    haystack_gap_dp = [U32_MAX] * width
    length0 = [0] * width
    length1 = [0] * width
    length2 = [0] * width
    needle_gap_len = [0] * width
    haystack_gap_len = [0] * width

    curr_k = k
    raw: List[Tuple[Match, int]] = []

    for j in range(width):
        dp1[j] = j * gap + (start_gap if j else 0)
    if dp1[-1] <= curr_k:
        if search_type == SEARCH_BEST:
            curr_k = dp1[-1]
        raw.append((Match(0, 0, dp1[-1]), curr_k))

    for i in range(iter_len):
        lead = (i + 1) * gap + start_gap if anchored else 0
        needle_gap_dp[0] = lead
        dp2[0] = lead
        needle_gap_len[0] = 0
        length2[0] = 0
        hi_ch = haystack[i]
        hi_prev = haystack[i - 1] if i > 0 else None

        for j in range(1, width):
            sub = dp1[j - 1] + (mis if needle[j - 1] != hi_ch else 0)

            new_gap = dp1[j] + start_gap + gap
            cont_gap = saturating_add(needle_gap_dp[j], gap)
            if new_gap < cont_gap:
                needle_gap_dp[j] = new_gap
                needle_gap_len[j] = length1[j] + 1
            elif new_gap > cont_gap:
                needle_gap_dp[j] = cont_gap
                needle_gap_len[j] += 1
            else:
                needle_gap_dp[j] = cont_gap
                needle_gap_len[j] = max(length1[j], needle_gap_len[j]) + 1

            new_gap = dp2[j - 1] + start_gap + gap
            cont_gap = saturating_add(haystack_gap_dp[j - 1], gap)
            if new_gap < cont_gap:
                haystack_gap_dp[j] = new_gap
                haystack_gap_len[j] = length2[j - 1]
            elif new_gap > cont_gap:
                haystack_gap_dp[j] = cont_gap
                haystack_gap_len[j] = haystack_gap_len[j - 1]
            else:
                haystack_gap_dp[j] = cont_gap
                haystack_gap_len[j] = max(length2[j - 1], haystack_gap_len[j - 1])

            dp2[j] = needle_gap_dp[j]
            length2[j] = needle_gap_len[j]

            if haystack_gap_dp[j] < dp2[j] or (
                haystack_gap_dp[j] == dp2[j] and length2[j - 1] > length2[j]
            ):
                dp2[j] = haystack_gap_dp[j]
                length2[j] = haystack_gap_len[j]

            if sub < dp2[j] or (sub == dp2[j] and (length1[j - 1] + 1) > length2[j]):
                dp2[j] = sub
                length2[j] = length1[j - 1] + 1

            if (
                allow_t
                and i > 0
                and j > 1
                and needle[j - 1] == hi_prev
                and needle[j - 2] == hi_ch
            ):
                transpose = dp0[j - 2] + tc
                if transpose <= dp2[j]:
                    dp2[j] = transpose
                    length2[j] = length0[j - 2] + 2

        final_res = dp2[-1]
        final_length = length2[-1]

        dp0, dp1, dp2 = dp1, dp2, dp0
        length0, length1, length2 = length1, length2, length0

        if final_res <= curr_k:
            if search_type == SEARCH_BEST:
                curr_k = final_res
            raw.append((Match(i + 1 - final_length, i + 1, final_res), curr_k))

    if search_type == SEARCH_BEST:
        res_vec: List[Match] = []
        final_k = k
        for m, kk in raw:
            if not res_vec:
                res_vec.append(m)
            elif m.start <= res_vec[-1].start:
                res_vec[-1] = m  # replace fully-overlapping previous match
            else:
                res_vec.append(m)
            final_k = kk
        return [m for m in res_vec if m.k == final_k]

    return [m for m, _ in raw]
