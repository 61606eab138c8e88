"""Column-vectorized fuzzy search scans — the batch form of the
reference's search family (its second pillar, levenshtein.rs:1866-2484 /
hamming.rs:96-146), vectorized ACROSS the haystack column instead of SIMD
lanes within one haystack.

* ``myers_search_column`` — Myers (1999) semi-global bit-parallel scan
  with one ``(W, rows)`` uint64 register file (W = ceil(m/64) words per
  row, carries between words after Hyyrö 2003): every update step is ~20
  numpy ops per word spanning all rows in the chunk, so the
  per-character Python overhead of the scalar scan is amortized across
  the whole column. End positions / costs are identical to the scalar
  Sellers DP; start positions and tie-breaks are recovered per HIT by the
  same engine run as a reverse global scan over each hit's window — hits
  are sparse, so the recovery cost is proportional to matches, not
  corpus size. One engine serves every needle length from 1 to 65,536
  bytes.
* ``hamming_scan_column`` — sliding mismatch counts for the whole column
  in ``len(needle)`` vectorized passes over the flat byte buffer.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["myers_search_column", "hamming_scan_column"]

# per-chunk bounds of the Myers engine: register words (W x rows) and
# bytes of the gathered character matrix (steps x rows)
_CHUNK_WORDS = 1 << 20
_GATHER_BYTES = 1 << 20


def _peq_words(needle: bytes) -> np.ndarray:
    """(W, 256) uint64 bitmask planes: bit i & 63 of peq[i >> 6, c] is set
    iff needle[i] == c."""
    m = len(needle)
    W = (m + 63) >> 6
    peq = np.zeros((W, 256), dtype=np.uint64)
    for i, c in enumerate(needle):
        peq[i >> 6, c] |= np.uint64(1 << (i & 63))
    return peq


def _multiword_scan(needle, data, offsets, k, semi_global, rows=None,
                    ends=None, costs=None):
    """Word-serial Myers engine over a column, one (W, rows) uint64
    register file per chunk of length-sorted rows.

    semi_global=True scans haystacks (row 0 pinned to 0, no carry into
    word 0) and returns every (row, end, cost <= k), ordered by (row,
    end). semi_global=False runs GLOBAL alignment (carry +1 into word 0)
    over reversed hit windows and returns, per hit, the largest prefix
    length whose score equals the hit cost (the longest-match start
    recovery). The needle is SHARED, so PEQ is one (W, 256) table and the
    score bit is uniform.

    The step loop allocates nothing: register words, scratch and carries
    are preallocated per chunk, and characters are gathered as a
    transposed (steps, rows) matrix ``_GATHER_BYTES`` at a time. Rows are
    sorted by length, so the live rows at step j are a suffix of the
    chunk; the loop works on views of that suffix only."""
    m = len(needle)
    W = (m + 63) >> 6
    peq = _peq_words(needle)
    hi = np.uint64((m - 1) & 63)
    one = np.uint64(1)
    top = np.uint64(63)
    k_eff = min(k, m)  # D[m][j] <= m always
    last = max(0, len(data) - 1)

    if semi_global:
        lens = np.diff(offsets)
        order = np.argsort(lens, kind="stable")
        begin = offsets[:-1][order]  # char j of row r = data[begin + j]
        step = 1
    else:
        lens = np.minimum(ends, m + k_eff)  # optimal spans <= m + k chars
        order = np.argsort(lens, kind="stable")
        # reversed windows: char j = data[hay_start + end - 1 - j]
        begin = (offsets[:-1][rows] + ends)[order] - 1
        step = -1
        target = costs[order].astype(np.uint64)
        best_p = np.where(costs == m, 0, -1).astype(np.int64)  # empty window
    lens = lens[order]

    out_rows: list = []
    out_ends: list = []
    out_costs: list = []
    chunk_rows = max(1, _CHUNK_WORDS // W)
    for c0 in range(0, len(order), chunk_rows):
        c1 = min(len(order), c0 + chunk_rows)
        maxlen = int(lens[c1 - 1])
        if maxlen == 0:
            continue
        nr = c1 - c0
        sel = order[c0:c1]
        cbeg = begin[c0:c1]
        # first live row at each step (live rows form a suffix)
        live_from = np.searchsorted(
            lens[c0:c1], np.arange(1, maxlen + 1)).tolist()
        # ghost bits above m in the last word carry garbage upward only —
        # they never reach bit hi or below (carries run from low bits to
        # high bits, never back)
        PV = np.full((W, nr), np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64)
        MV = np.zeros((W, nr), np.uint64)
        SC = np.full(nr, m, np.uint64)  # D[m][j], never negative
        TMP = np.empty((9, nr), np.uint64)
        HIT = np.empty(nr, bool)
        if not semi_global:
            TGT = target[c0:c1]
        steps = max(1, _GATHER_BYTES // nr)
        ls = -1
        for j0 in range(0, maxlen, steps):
            j1 = min(maxlen, j0 + steps)
            g0 = live_from[j0]
            idx = cbeg[g0:, None] + step * np.arange(j0, j1)[None, :]
            np.clip(idx, 0, last, out=idx)
            charsT = np.ascontiguousarray(data[idx].T)
            for j in range(j0, j1):
                if live_from[j] != ls:
                    ls = live_from[j]
                    pvs = [PV[w, ls:] for w in range(W)]
                    mvs = [MV[w, ls:] for w in range(W)]
                    eq, xv, t1, t2, t3, hp, hn, hp2, hn2 = TMP[:, ls:]
                    score = SC[ls:]
                    hit = HIT[ls:]
                    live = sel[ls:]
                    if not semi_global:
                        tgt = TGT[ls:]
                cj = charsT[j - j0, ls - g0:]
                for w in range(W):
                    pv = pvs[w]
                    mv = mvs[w]
                    np.take(peq[w], cj, out=eq)
                    np.bitwise_or(eq, mv, out=xv)
                    if w:
                        np.bitwise_or(eq, hn, out=eq)
                    # xh = (((eq & pv) + pv) ^ pv) | eq  -> t1
                    np.bitwise_and(eq, pv, out=t1)
                    np.add(t1, pv, out=t1)
                    np.bitwise_xor(t1, pv, out=t1)
                    np.bitwise_or(t1, eq, out=t1)
                    # ph = mv | ~(xh | pv)  -> t2
                    np.bitwise_or(t1, pv, out=t2)
                    np.invert(t2, out=t2)
                    np.bitwise_or(t2, mv, out=t2)
                    # mh = pv & xh  -> t1
                    np.bitwise_and(t1, pv, out=t1)
                    if w == W - 1:
                        np.right_shift(t2, hi, out=t3)
                        np.bitwise_and(t3, one, out=t3)
                        np.add(score, t3, out=score)
                        np.right_shift(t1, hi, out=t3)
                        np.bitwise_and(t3, one, out=t3)
                        np.subtract(score, t3, out=score)
                    else:
                        np.right_shift(t2, top, out=hp2)
                        np.right_shift(t1, top, out=hn2)
                    np.left_shift(t2, one, out=t2)
                    np.left_shift(t1, one, out=t1)
                    if w:
                        np.bitwise_or(t2, hp, out=t2)
                        np.bitwise_or(t1, hn, out=t1)
                    elif not semi_global:
                        # global alignment: the window prefix must be
                        # consumed, so ph bit 0 IS forced on
                        np.bitwise_or(t2, one, out=t2)
                    # pv = mh | ~(xv | ph); mv = ph & xv
                    np.bitwise_or(xv, t2, out=pv)
                    np.invert(pv, out=pv)
                    np.bitwise_or(pv, t1, out=pv)
                    np.bitwise_and(t2, xv, out=mv)
                    hp, hp2 = hp2, hp
                    hn, hn2 = hn2, hn
                if semi_global:
                    np.less_equal(score, k_eff, out=hit)
                    hr = np.flatnonzero(hit)
                    if hr.size:
                        out_rows.append(live[hr])
                        out_ends.append(np.full(hr.size, j + 1, np.int64))
                        out_costs.append(score[hr].astype(np.int64))
                else:
                    np.equal(score, tgt, out=hit)
                    # later (larger) p wins -> longest match
                    best_p[live[np.flatnonzero(hit)]] = j + 1

    if not semi_global:
        return best_p
    if not out_rows:
        z = np.empty(0, np.int64)
        return z, z, z
    rows_a = np.concatenate(out_rows)
    ends_a = np.concatenate(out_ends)
    costs_a = np.concatenate(out_costs)
    # order hits by (row, end) — the per-row emission order of the scalar scan
    o = np.lexsort((ends_a, rows_a))
    return rows_a[o], ends_a[o], costs_a[o]


def myers_search_column(
    needle: bytes, data: np.ndarray, offsets: np.ndarray, k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unit-cost semi-global search of one needle (1 <= m) over every row:
    returns (row, end, cost, start) arrays for every position where
    D[m][end] <= k, ordered by (row, end) — the scalar Sellers DP's hit
    stream.

    The start of each hit is the scalar DP's: the LONGEST match, i.e. the
    smallest start s with lev(needle, hay[s:end]) == cost (verified
    exhaustively against the scalar tie-break on adversarial 3-letter
    corpora; differential tests guard it). Running the engine with the
    REVERSED needle over the reversed window gives
    score(p) = lev(needle, hay[end-p:end]) after p steps, so the answer
    is end minus the LARGEST p with score(p) == cost; any optimal
    alignment spans at most m + k chars, bounding the window.
    """
    rows, ends, costs = _multiword_scan(needle, data, offsets, k, True)
    best_p = _multiword_scan(
        needle[::-1], data, offsets, k, False, rows=rows, ends=ends,
        costs=costs,
    )
    return rows, ends, costs, ends - best_p


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
