"""Match selection for unit-cost, unanchored ``levenshtein_search``: turns
one haystack's scan hits from the compiled Myers engine
(:func:`native.myers_search_column`) into the scalar Sellers search's
Match list. Shared by the single-haystack API (``api.py``) and the column
search (``ops/search.py``).
"""

from __future__ import annotations

from typing import List

from .types import SEARCH_BEST, Match

__all__ = ["select_matches"]


def select_matches(ends, costs, starts, m: int, k: int,
                   search_type: str) -> List[Match]:
    """The scalar search's match selection over one haystack's scan hits
    (parallel sequences in end order): the position-0 empty match when
    m <= k, BEST's running threshold, overlap replacement and the final
    best filter."""
    best = search_type == SEARCH_BEST
    raw: List[Match] = []
    curr_k = k
    if m <= curr_k:
        if best:
            curr_k = m
        raw.append(Match(0, 0, m))
    for start, end, cost in zip(starts, ends, costs):
        if best:
            if cost > curr_k:
                continue
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
