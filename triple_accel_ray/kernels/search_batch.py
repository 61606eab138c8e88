"""Column fuzzy search scans: the batch form of the reference's search
family (its second pillar, levenshtein.rs:1866-2484 / hamming.rs:96-146),
one needle over a whole haystack column.

* ``myers_search_column``: the unit-cost semi-global Myers scan with
  per-hit longest-match start recovery, run by the compiled engine in
  ``_myers.c`` (:func:`native.myers_search_column`) in one call for the
  whole column, at any needle length. Its (row, end, cost, start) hit
  stream is the scalar Sellers DP's.
* ``hamming_scan_column``: sliding mismatch counts for the whole column
  in ``len(needle)`` vectorized passes over the flat byte buffer.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .native import myers_search_column

__all__ = ["myers_search_column", "hamming_scan_column"]


def hamming_scan_column(
    needle: bytes, data: np.ndarray, offsets: np.ndarray,
    max_cost: int | None = None, chunk: int = 1 << 20,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mismatch count of the needle at every window start of every row:
    returns (row, start, cost). With ``max_cost`` only windows with
    cost <= max_cost are returned — safe for both ALL and BEST semantics
    (BEST's running threshold starts at k, so costlier windows never
    participate). Windows are processed in bounded flat chunks so peak
    memory is O(chunk), not O(corpus bytes) (round-2 ADVICE: the
    unchunked form materialized ~24-32 bytes per corpus byte)."""
    m = len(needle)
    lens = np.diff(offsets)
    n = len(lens)
    counts = np.maximum(0, lens - m + 1).astype(np.int64)
    total = int(counts.sum())
    z = np.empty(0, np.int64)
    if not total or m == 0:
        return z, z, z
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    nb = np.frombuffer(needle, dtype=np.uint8)
    out_r, out_w, out_c = [], [], []
    for c0 in range(0, total, chunk):
        c1 = min(total, c0 + chunk)
        fp = np.arange(c0, c1)
        doc_of = np.searchsorted(cum, fp, "right") - 1
        within = fp - cum[doc_of]
        pos = offsets[:-1][doc_of] + within
        cost = np.zeros(c1 - c0, dtype=np.int64)
        for j in range(m):
            cost += data[pos + j] != nb[j]
        if max_cost is not None:
            keep = cost <= max_cost
            doc_of, within, cost = doc_of[keep], within[keep], cost[keep]
        out_r.append(doc_of)
        out_w.append(within)
        out_c.append(cost)
    if len(out_r) == 1:
        return out_r[0], out_w[0], out_c[0]
    return np.concatenate(out_r), np.concatenate(out_w), np.concatenate(out_c)
