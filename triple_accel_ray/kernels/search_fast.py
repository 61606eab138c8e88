"""Myers bit-parallel semi-global search — fast path for unit-cost,
unanchored ``levenshtein_search``.

Published algorithm (Myers 1999 approximate matching form): the first DP row
is all zeros (a match may start anywhere), the running score is D[m][j] at
each haystack position. End positions and costs produced this way are
identical to the scalar Sellers DP in ``scalar.levenshtein_search_with_opts``.

Start positions / longest-match tie-breaking are recovered by re-running the
exact scalar DP over a bounded window before each hit: any path that ends at
column ``e`` with cost <= k consumes at most ``m + k`` haystack characters
(every extra haystack char beyond the needle costs one gap), so the scalar
DP restarted at ``e - (m + k)`` reproduces the full DP's cells and length
tie-breaks for every reported match. Differential-tested against the scalar
oracle on random planted-match corpora.
"""

from __future__ import annotations

from typing import List

from .types import (
    LEVENSHTEIN_COSTS,
    SEARCH_ALL,
    SEARCH_BEST,
    Match,
    as_seq,
)
from . import scalar
from .myers import build_peq

__all__ = ["levenshtein_search_myers", "hits_to_matches", "select_matches"]


def _scan_end_positions(needle: bytes, haystack: bytes, k: int):
    """Yield (end_pos, cost) for every position where D[m][end] <= k."""
    m = len(needle)
    peq = build_peq(needle)
    full = (1 << m) - 1
    high = 1 << (m - 1)
    pv = full
    mv = 0
    score = m
    get = peq.get
    hits = []
    j = 0
    for c in haystack:
        eq = get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        # semi-global: row 0 stays 0, so Ph bit 0 is NOT forced on
        ph = (ph << 1) & full
        mh = (mh << 1) & full
        pv = (mh | ~(xv | ph)) & full
        mv = ph & xv
        j += 1
        if score <= k:
            hits.append((j, score))
    return hits


def levenshtein_search_myers(
    needle,
    haystack,
    k: int,
    search_type: str = SEARCH_ALL,
) -> List[Match]:
    """Unit-cost, unanchored search with output identical to
    ``scalar.levenshtein_search_with_opts(..., LEVENSHTEIN_COSTS, False)``."""
    needle = as_seq(needle)
    haystack = as_seq(haystack)
    m = len(needle)
    n = len(haystack)
    if m == 0:
        return []
    # tiny inputs: scalar directly
    if n == 0 or m > n or m > 512:
        return scalar.levenshtein_search_with_opts(
            needle, haystack, k, search_type, LEVENSHTEIN_COSTS, False
        )

    k_eff = min(k, m)  # D[m][j] <= m always (delete whole needle)
    hits = _scan_end_positions(needle, haystack, k_eff)
    return hits_to_matches(needle, haystack, hits, k, k_eff, search_type)


def hits_to_matches(
    needle,
    haystack,
    hits,
    k: int,
    k_eff: int,
    search_type: str = SEARCH_ALL,
) -> List[Match]:
    """Convert (end, cost) scan hits into full Match rows: start positions
    and longest-match tie-breaks recovered by the exact windowed scalar DP
    per hit, then :func:`select_matches`."""
    n = len(haystack)
    window = len(needle) + k_eff
    cache = {}

    def start_of(i):
        end, cost = hits[i]
        # exact window recomputation for start/tie-breaks
        w0 = max(0, end - window)
        if w0 not in cache:
            cache.clear()
            cache[w0] = scalar.levenshtein_search_with_opts(
                needle, haystack[w0 : min(n, w0 + 2 * window + 1)],
                k_eff, SEARCH_ALL, LEVENSHTEIN_COSTS, False,
            )
        for mm in cache[w0]:
            if mm.end == end - w0 and mm.k == cost:
                return w0 + mm.start
        return None

    return select_matches(hits, len(needle), k, search_type, start_of)


def select_matches(hits, m: int, k: int, search_type: str,
                   start_of) -> List[Match]:
    """The scalar search's match selection over one haystack's scan hits,
    ``(end, cost)`` pairs in end order: the position-0 empty match when
    m <= k, BEST's running threshold, overlap replacement and the final
    best filter. ``start_of(i)`` gives hit i's start (None drops the
    hit); it is asked only for hits that pass the threshold. Shared by
    the scalar fast path and the column search (ops/search.py)."""
    best = search_type == SEARCH_BEST
    raw: List[Match] = []
    curr_k = k
    if m <= curr_k:
        if best:
            curr_k = m
        raw.append(Match(0, 0, m))
    for i, (end, cost) in enumerate(hits):
        if best and cost > curr_k:
            continue
        start = start_of(i)
        if start is None:
            continue
        if best:
            curr_k = cost
        raw.append(Match(start, end, cost))
    if not best:
        return raw
    res: List[Match] = []
    for mm in raw:
        if res and mm.start <= res[-1].start:
            res[-1] = mm  # full-overlap replacement
        else:
            res.append(mm)
    return [mm for mm in res if mm.k == curr_k]
