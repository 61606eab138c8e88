"""Columnar batch kernels: one result per row over columns of strings
(pyarrow String/Binary arrays, numpy object arrays or Python lists).

``levenshtein_k_batch`` has two engines, chosen by the cost model alone:
  * unit costs without transpositions (the ER scorer's model) go to the
    compiled banded block Myers in ``_myers.c`` (``native.py``), one call
    for the whole column with a per-pair bound — the engine's answer to the
    reference's compiled bit-parallel core (levenshtein.rs:829-1283);
  * every other cost model runs a banded DP vectorized with numpy ACROSS
    the pair dimension (band half-width = the chunk's max ``unit_k``,
    per-pair None/Some decided against each pair's own ``max_k`` — same
    boundary as the reference's banded algorithm, levenshtein.rs:376-607)
    with affine gaps via a prefix-min closure over the row (the horizontal
    gap recurrence ``min_{s<j} E[s] + start + (j-s)*gap`` is a running min
    of ``E[s] - s*gap``, so no per-cell Python loop exists anywhere),
    optional transpositions (restricted Damerau) via the two-rows-back
    diagonal, and an early exit once a pair's band minimum exceeds its
    ``max_k``.

Tracing (``levenshtein_k_batch_trace``) always runs the numpy DP. Outputs
are differential-tested against the scalar oracle in
``tests/test_batch_kernels.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import native
from .types import EditCosts, LEVENSHTEIN_COSTS

__all__ = [
    "to_byte_rows",
    "hamming_batch",
    "levenshtein_k_batch",
    "levenshtein_batch",
]

_INF = np.int64(1) << 40


def to_byte_rows(col) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize a string/binary column to (flat uint8 data, int64 offsets).

    Accepts a pyarrow (Large)String/(Large)Binary array or chunked array
    (zero-copy from the Arrow buffers), or any sequence of str/bytes.
    Returns offsets of length n+1 into the flat byte array.
    """
    try:
        import pyarrow as pa

        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if isinstance(col, pa.Array):
            if pa.types.is_dictionary(col.type):
                col = col.dictionary_decode()
            t = col.type
            if pa.types.is_string(t) or pa.types.is_binary(t):
                col = col.cast(pa.large_binary())
            elif pa.types.is_large_string(t):
                col = col.cast(pa.large_binary())
            if pa.types.is_large_binary(col.type):
                buffers = col.buffers()
                offsets = np.frombuffer(buffers[1], dtype=np.int64)[
                    col.offset : col.offset + len(col) + 1
                ]
                data = (
                    np.frombuffer(buffers[2], dtype=np.uint8)
                    if buffers[2] is not None
                    else np.empty(0, np.uint8)
                )
                # rebase sliced arrays (offset != 0) so offsets[0] == 0 and
                # data covers exactly the rows: equal row lengths then imply
                # aligned flat buffers (data slice is a zero-copy view)
                offsets = offsets.astype(np.int64)
                if len(offsets):
                    data = data[offsets[0] : offsets[-1]]
                    if offsets[0] != 0:
                        offsets = offsets - offsets[0]
                return data, offsets
    except ImportError:  # pragma: no cover
        pass

    items = [s.encode() if isinstance(s, str) else bytes(s) for s in col]
    offsets = np.zeros(len(items) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in items], out=offsets[1:])
    data = np.frombuffer(b"".join(items), dtype=np.uint8)
    return data, offsets


def _pad_matrix(
    data: np.ndarray, offsets: np.ndarray, rows: np.ndarray, width: int
) -> np.ndarray:
    """Gather selected rows into an (n, width) uint8 matrix (pad value 0).

    Padding never influences results: DP cell (i, j) depends only on cells
    with smaller indices, and each pair's result is read at its own
    (len_a, len_b) cell.
    """
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    idx = starts[:, None] + np.arange(width, dtype=np.int64)[None, :]
    valid = np.arange(width)[None, :] < lens[:, None]
    out = np.zeros((len(rows), width), dtype=np.uint8)
    if data.size:
        np.clip(idx, 0, data.size - 1, out=idx)
        np.copyto(out, data[idx], where=valid)
    return out


def hamming_batch(col_a, col_b) -> np.ndarray:
    """Per-row mismatch count; raises if any row pair has unequal lengths.

    Fully vectorized: one flat byte comparison + segment reduction
    (``np.add.reduceat``), the batch analogue of the reference's
    movemask/popcount loop (hamming.rs:317-367).
    """
    da, oa = to_byte_rows(col_a)
    db, ob = to_byte_rows(col_b)
    lens_a = np.diff(oa)
    lens_b = np.diff(ob)
    if not np.array_equal(lens_a, lens_b):
        bad = int(np.nonzero(lens_a != lens_b)[0][0])
        raise ValueError(
            f"hamming distance requires equal-length strings (row {bad}: "
            f"{int(lens_a[bad])} vs {int(lens_b[bad])})"
        )
    if da.size != db.size:
        raise ValueError("inconsistent flat byte lengths")
    n = len(lens_a)
    sums = np.zeros(n, dtype=np.uint32)
    if da.size == 0:
        return sums
    neq = (da != db).astype(np.uint32)
    # reduceat only over starts of NON-EMPTY rows: those are strictly
    # increasing and all < da.size, and the segment from one non-empty
    # row's start to the next covers exactly that row's bytes (empty rows
    # contribute none). Clipping all starts instead would truncate the row
    # preceding a trailing empty row.
    nz = lens_a > 0
    sums[nz] = np.add.reduceat(neq, oa[:-1][nz])
    return sums


def bag_distance_batch(col_a, col_b) -> np.ndarray:
    """Per-row bag distance: max(#chars only in a, #chars only in b) over
    byte multisets — a lower bound on unit-cost edit distance (each
    substitute/insert/delete changes the multiset by at most one element;
    transpositions don't change it at all). One bincount pass over the flat
    bytes. The compiled unit-cost kernel applies the same bound per pair
    before its Myers pass.
    """
    da, oa = to_byte_rows(col_a)
    db, ob = to_byte_rows(col_b)
    n = len(oa) - 1
    out = np.empty(n, dtype=np.int64)
    # chunk so the (chunk, 256) histograms stay small
    step = 4096
    for s in range(0, n, step):
        e = min(n, s + step)
        m = e - s
        ids_a = np.repeat(np.arange(m), np.diff(oa[s : e + 1]))
        ids_b = np.repeat(np.arange(m), np.diff(ob[s : e + 1]))
        ha = np.bincount(
            ids_a * 256 + da[oa[s] : oa[e]].astype(np.int64), minlength=m * 256
        ).reshape(m, 256)
        hb = np.bincount(
            ids_b * 256 + db[ob[s] : ob[e]].astype(np.int64), minlength=m * 256
        ).reshape(m, 256)
        diff = ha - hb
        pos = np.where(diff > 0, diff, 0).sum(axis=1)
        neg = np.where(diff < 0, -diff, 0).sum(axis=1)
        out[s:e] = np.maximum(pos, neg)
    return out


def _max_k_unit_k(
    short_len: np.ndarray, long_len: np.ndarray, k, costs: EditCosts
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized achievable-cost cap + band half-width
    (levenshtein.rs:399-426, with short/long in place of a/b)."""
    mis = costs.mismatch_cost
    gap = costs.gap_cost
    sg = costs.start_gap_cost
    eq_len = long_len == short_len
    gaps_bound = (short_len * 2) * gap + np.where(
        short_len == 0, 0, sg + np.where(eq_len, sg, 0)
    )
    max_k = np.minimum(short_len * mis, gaps_bound)
    max_k = np.minimum(
        k, max_k + (long_len - short_len) * gap + np.where(eq_len, 0, sg)
    )
    unit_k = np.maximum(0, max_k - sg) // gap
    return max_k.astype(np.int64), unit_k.astype(np.int64)


def levenshtein_k_batch(
    col_a,
    col_b,
    k,
    costs: EditCosts = LEVENSHTEIN_COSTS,
    chunk_pairs: int = 2048,
) -> np.ndarray:
    """k-bounded edit distance per row; -1 where the cost exceeds the bound
    (the reference's ``None``). Same Some/None boundary and values as
    ``scalar.levenshtein_k_with_opts`` for every cost model.

    ``k`` may be a scalar or a per-row int array (per-pair bounds, e.g. a
    relative threshold on the longer string's length).
    """
    da, oa = to_byte_rows(col_a)
    db, ob = to_byte_rows(col_b)
    lens_a = np.diff(oa)
    lens_b = np.diff(ob)
    n = len(lens_a)
    if len(lens_b) != n:
        raise ValueError("column length mismatch")
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out

    k_arr = np.asarray(k, dtype=np.int64)
    if (
        costs.mismatch_cost == 1 and costs.gap_cost == 1
        and costs.start_gap_cost == 0 and not costs.allow_transpose
    ):
        native.levenshtein_k_unit(da, oa, db, ob, k_arr, out)
        return out

    short_len = np.minimum(lens_a, lens_b)
    long_len = np.maximum(lens_a, lens_b)
    max_k, unit_k = _max_k_unit_k(short_len, long_len, k_arr, costs)
    todo = np.nonzero((long_len - short_len) <= unit_k)[0]
    if todo.size == 0:
        return out

    # order by (band width, row length) so chunks have homogeneous DP
    # shapes — a chunk's band is its max unit_k, so mixing narrow- and
    # wide-band pairs makes the narrow ones pay the wide price
    order = todo[
        np.lexsort((lens_a[todo] + lens_b[todo], unit_k[todo]))
    ]
    for c0 in range(0, order.size, chunk_pairs):
        rows = order[c0 : c0 + chunk_pairs]
        _chunk_banded_dp(
            da, oa, db, ob, rows, max_k[rows], unit_k[rows], costs, out
        )
    return out


def _chunk_banded_dp(
    da: np.ndarray,
    oa: np.ndarray,
    db: np.ndarray,
    ob: np.ndarray,
    rows: np.ndarray,
    max_k: np.ndarray,
    unit_k: np.ndarray,
    costs: EditCosts,
    out: np.ndarray,
) -> None:
    """Banded DP over one chunk of pairs, band coords t = j - i + W.

    i indexes ``a`` (DP rows), j indexes ``b``; W is the chunk-wide band
    half-width. Every pair satisfies |len_a - len_b| <= unit_k <= W, so each
    result cell (len_a, len_b) lies inside the band; cells past a pair's own
    lengths hold garbage that only ever flows to larger indices.

    The inner loop is allocation-free (round 3): all per-row state lives in
    preallocated ping-pong scratch, and the per-row ``b``-character band is
    maintained INCREMENTALLY — the band moves one column of B per DP row
    (bj(i+1)[t] = bj(i)[t+1]), so each row costs one memcpy plus a single
    fresh column gather instead of an (n, width) fancy gather. Measured
    ~1.9x on the real sf0.1 scoring workload vs the allocating form.
    """
    lens_a = (oa[rows + 1] - oa[rows]).astype(np.int64)
    lens_b = (ob[rows + 1] - ob[rows]).astype(np.int64)
    n = len(rows)
    W = int(unit_k.max(initial=0))
    max_rows = int(lens_a.max(initial=0))
    A = _pad_matrix(da, oa, rows, max_rows) if max_rows else np.zeros((n, 0), np.uint8)
    Bw = int(lens_b.max(initial=0))
    B = _pad_matrix(db, ob, rows, Bw) if Bw else np.zeros((n, 0), np.uint8)

    # int32 state (half the memory traffic of int64); fall back to int64
    # only for pathological bounds
    use32 = int(max_k.max(initial=0)) < (1 << 29)
    dt = np.int32 if use32 else np.int64
    INF = dt(1 << 30) if use32 else _INF

    mis = dt(costs.mismatch_cost)
    gap = dt(costs.gap_cost)
    sg = dt(costs.start_gap_cost)
    tc = dt(costs.transpose_cost or 0)
    allow_t = costs.allow_transpose

    width = 2 * W + 1
    t_idx = np.arange(width, dtype=dt)[None, :]
    t_gap = t_idx * gap
    t_i64 = np.arange(width, dtype=np.int64)[None, :]

    # D row 0: cell (0, j) = j*gap + sg for j>0; j = t - W at i=0
    j0 = t_i64 - W
    D_prev = np.where(j0 < 0, INF, np.where(j0 == 0, 0, j0 * int(gap) + int(sg)))
    D_prev = np.broadcast_to(D_prev.astype(dt), (n, width)).copy()
    D_prev[np.broadcast_to(j0, (n, width)) > lens_b[:, None]] = INF
    D_prev2 = np.full((n, width), INF, dtype=dt)
    b_gap_prev = np.full((n, width), INF, dtype=dt)

    # extraction for pairs with len_a == 0
    zero_rows = lens_a == 0
    if zero_rows.any():
        tz = lens_b[zero_rows] + W  # j - i + W at i=0
        vals = D_prev[np.nonzero(zero_rows)[0], tz].astype(np.int64)
        ok = vals <= max_k[zero_rows]
        tgt = rows[zero_rows]
        out[tgt[ok]] = vals[ok]

    # compact working state: rows with remaining == -1 are done
    rows_c = rows.copy()
    la_c = lens_a.copy()
    lb_c = lens_b.copy()
    mk_c = max_k.copy()
    sel = np.arange(n)  # index into A/B
    la_c[zero_rows] = -1

    def _alloc(na):
        return {
            "bj": np.zeros((na, width), dtype=np.uint8),
            "bj_nxt": np.zeros((na, width), dtype=np.uint8),
            "bj2": np.zeros((na, width), dtype=np.uint8),
            "sub": np.empty((na, width), dtype=dt),
            "bg": np.empty((na, width), dtype=dt),
            "ag": np.empty((na, width), dtype=dt),
            "E": np.empty((na, width), dtype=dt),
            "t1": np.empty((na, width), dtype=dt),
            "mskb": np.empty((na, width), dtype=bool),
            "msk2": np.empty((na, width), dtype=bool),
        }

    def _gather_col(dst_col, j, live_na):
        """dst_col[:] = B[sel, j] for the first live_na pairs (0 if j
        out of range; validity is masked later)."""
        if 0 <= j < B.shape[1]:
            np.copyto(dst_col, B[sel[:live_na], j])
        else:
            dst_col.fill(0)

    S = _alloc(n)
    # initial bj for i = 1: bj[t] = B[j-1], j-1 = t - W
    for t in range(width):
        jm = t - W
        if 0 <= jm < B.shape[1]:
            S["bj"][:, t] = B[sel, jm]

    i = 1
    while i <= max_rows:
        live = la_c >= 0
        n_live = int(live.sum())
        if n_live == 0:
            break
        # compact when enough rows are finished (copy cost ~ one row of ops)
        if n_live < 0.7 * len(rows_c):
            D_prev = np.ascontiguousarray(D_prev[live])
            D_prev2 = np.ascontiguousarray(D_prev2[live])
            b_gap_prev = np.ascontiguousarray(b_gap_prev[live])
            rows_c = rows_c[live]
            la_c = la_c[live]
            lb_c = lb_c[live]
            mk_c = mk_c[live]
            sel = sel[live]
            bj_keep = np.ascontiguousarray(S["bj"][live])
            S = _alloc(len(rows_c))
            S["bj"][:, :] = bj_keep
            max_rows = int(la_c.max(initial=0))
            if i > max_rows:
                break
        na = len(rows_c)
        bj = S["bj"][:na]
        sub = S["sub"][:na]
        bg = S["bg"][:na]
        ag = S["ag"][:na]
        E = S["E"][:na]
        t1 = S["t1"][:na]
        mskb = S["mskb"][:na]

        # j for band coord t at row i: j = i - W + t
        jlo = i - W
        a_ch = A[sel, i - 1][:, None]  # current a char per pair

        # valid j-1 range: jm1 = jlo - 1 + t in [0, lb). Left bound is a
        # COLUMN threshold (same for every pair); right bound per pair.
        tlo = max(0, W + 1 - i)  # first t with jm1 >= 0
        thi = (lb_c + (W + 1 - i))[:, None]  # t < thi  <=>  jm1 < lb

        # substitution: D_prev at same t, compare a[i-1] vs b[j-1]
        np.equal(bj, a_ch, out=mskb)
        np.logical_not(mskb, out=mskb)
        np.multiply(mskb, mis, out=t1, casting="unsafe")
        np.add(D_prev, t1, out=sub)
        np.greater_equal(t_i64, thi, out=mskb)  # invalid right side
        sub[mskb] = INF
        if tlo:
            sub[:, :tlo] = INF

        # vertical (consume a): from D_prev / b_gap_prev at t+1
        np.add(D_prev[:, 1:], sg + gap, out=t1[:, :-1])
        t1[:, -1] = INF
        np.add(b_gap_prev[:, 1:], gap, out=bg[:, :-1])
        bg[:, -1] = INF
        np.minimum(t1, bg, out=bg)
        np.clip(bg, None, INF, out=bg)

        np.minimum(sub, bg, out=E)

        if allow_t and i > 1:
            # transpose: D_prev2 at same t, a[i-1]==b[j-2] and a[i-2]==b[j-1]
            # bj2[t] = B[jm1 - 1] = bj[t-1] (shift right)
            bj2 = S["bj2"][:na]
            bj2[:, 1:] = bj[:, :-1]
            _gather_col(bj2[:, 0], jlo - 2, na)
            msk2 = S["msk2"][:na]
            a_prev_ch = A[sel, i - 2][:, None]
            np.equal(bj2, a_ch, out=msk2)
            np.equal(bj, a_prev_ch, out=mskb)
            np.logical_and(msk2, mskb, out=msk2)
            # valid2: jm2 >= 0 (column threshold) and jm1 < lb
            tlo2 = max(0, W + 2 - i)  # first t with jm2 >= 0
            if tlo2:
                msk2[:, : min(width, tlo2)] = False
            np.less(t_i64, thi, out=mskb)
            np.logical_and(msk2, mskb, out=msk2)
            np.add(D_prev2, tc, out=t1)
            np.copyto(E, np.minimum(E, t1), where=msk2)

        # horizontal closure (consume b, affine):
        # a_gap[t] = sg + min_{s<t} (E[s] + (t-s)*gap), then also boundary
        # col j=0 opens from D[i][0] = i*gap+sg.
        np.subtract(E, t_gap, out=t1)
        # boundary: if jlo-1+t == -1 i.e. t == W - i, D[i][j=0] feeds t+1..
        if jlo <= 0:
            t0 = W - i  # band coord of j == 0 at row i
            if 0 <= t0 < width:
                col0 = dt(i * int(gap) + int(sg))
                np.minimum(
                    t1[:, t0], col0 - t_gap[0, t0], out=t1[:, t0]
                )
        np.minimum.accumulate(t1, axis=1, out=t1)
        np.add(t1[:, :-1], t_gap[:, 1:], out=ag[:, 1:])
        ag[:, 1:] += sg
        ag[:, 0] = INF
        np.clip(ag, None, INF, out=ag)

        D_cur = np.minimum(E, ag, out=ag)
        # boundary cell j==0 of this row
        if jlo <= 0:
            t0 = W - i
            if 0 <= t0 < width:
                D_cur[:, t0] = dt(i * int(gap) + int(sg))
                bg[:, t0] = dt(i * int(gap) + int(sg))
            # cells left of j=0 are invalid
            if t0 > 0:
                D_cur[:, :t0] = INF
                bg[:, :t0] = INF

        # rotate DP state through the scratch pool (allocation-free): the
        # outgoing D_prev2 / b_gap_prev buffers become the next row's
        # ag / bg scratch. Between compactions every buffer is (na, width),
        # so swapping bases is shape-safe; compaction re-allocates all.
        old2, oldbg = D_prev2, b_gap_prev
        D_prev2 = D_prev
        D_prev = D_cur      # D_cur lives in the 'ag' buffer
        b_gap_prev = bg     # lives in the 'bg' buffer
        S["ag"] = old2
        S["bg"] = oldbg

        # advance the b-character band: bj(i+1)[t] = bj(i)[t+1]; the fresh
        # last column is B[:, jm1(i+1, 2W)] = B[:, i + W]
        bj_nxt = S["bj_nxt"][:na]
        bj_nxt[:, :-1] = bj[:, 1:]
        _gather_col(bj_nxt[:, -1], i + W, na)
        S["bj"], S["bj_nxt"] = S["bj_nxt"], S["bj"]

        # extract finished pairs (len_a == i)
        fin = la_c == i
        if fin.any():
            t_res = lb_c[fin] - i + W
            vals = D_prev[np.nonzero(fin)[0], t_res].astype(np.int64)
            ok = vals <= mk_c[fin]
            tgt = rows_c[fin]
            out[tgt[ok]] = vals[ok]
            la_c[fin] = -1

        # early exit: band min can never decrease below current row min
        if (i & 7) == 0:
            row_min = D_prev.min(axis=1).astype(np.int64)
            la_c[row_min > mk_c] = -1
        i += 1


def levenshtein_batch(col_a, col_b, costs: EditCosts = LEVENSHTEIN_COSTS) -> np.ndarray:
    """Unbounded distance per row (k = achievable upper bound)."""
    res = levenshtein_k_batch(col_a, col_b, 1 << 31, costs)
    assert (res >= 0).all()
    return res


def levenshtein_k_batch_trace(col_a, col_b, k, costs: EditCosts = LEVENSHTEIN_COSTS):
    """Distance AND RLE traceback per row, batch-vectorized.

    Same banded DP as :func:`levenshtein_k_batch` but with per-cell argmin
    codes stored (reference tie-break order: substitution, then strictly
    better a-gap, strictly better b-gap, transpose on ties —
    levenshtein.rs:493-532) and a per-row backward walk over the code band.
    Inputs are swapped per row so the DP frame matches the scalar kernel's
    (shorter string on the row axis); edit labels are un-swapped in the
    output, so traces equal ``scalar.levenshtein_k_with_opts`` exactly.

    Returns (dist int64 array with -1 for >k, list of Edit lists or None).
    """
    from .types import Edit

    da, oa = to_byte_rows(col_a)
    db, ob = to_byte_rows(col_b)
    lens_a = np.diff(oa)
    lens_b = np.diff(ob)
    n = len(lens_a)
    out = np.full(n, -1, dtype=np.int64)
    traces: list = [None] * n
    if n == 0:
        return out, traces

    swap = lens_a > lens_b
    short_len = np.minimum(lens_a, lens_b)
    long_len = np.maximum(lens_a, lens_b)
    k_arr = np.asarray(k, dtype=np.int64)
    max_k, unit_k = _max_k_unit_k(short_len, long_len, k_arr, costs)
    feasible = (long_len - short_len) <= unit_k
    todo = np.nonzero(feasible)[0]
    if todo.size == 0:
        return out, traces

    order = todo[np.lexsort((short_len[todo] + long_len[todo], unit_k[todo]))]
    for c0 in range(0, order.size, 256):
        rows = order[c0 : c0 + 256]
        _chunk_trace_dp(
            da, oa, db, ob, rows, swap, max_k, unit_k, costs, out, traces
        )
    return out, traces


def _chunk_trace_dp(da, oa, db, ob, rows, swap, max_k_all, unit_k_all,
                    costs: EditCosts, out, traces):
    from .types import A_GAP, B_GAP, MATCH, MISMATCH, TRANSPOSE, Edit

    n = len(rows)
    # per-row swapped views: A = shorter (DP rows), B = longer
    A_rows, B_rows = [], []
    for r in rows:
        a = da[oa[r] : oa[r + 1]]
        b = db[ob[r] : ob[r + 1]]
        if swap[r]:
            a, b = b, a
        A_rows.append(a)
        B_rows.append(b)
    lens_a = np.array([len(x) for x in A_rows], dtype=np.int64)
    lens_b = np.array([len(x) for x in B_rows], dtype=np.int64)
    max_rows = int(lens_a.max(initial=0))
    Bw = int(lens_b.max(initial=0))
    A = np.zeros((n, max_rows), dtype=np.uint8)
    B = np.zeros((n, Bw), dtype=np.uint8)
    for i, (a, b) in enumerate(zip(A_rows, B_rows)):
        A[i, : len(a)] = np.frombuffer(a, dtype=np.uint8)
        B[i, : len(b)] = np.frombuffer(b, dtype=np.uint8)

    max_k = max_k_all[rows]
    W = int(unit_k_all[rows].max(initial=0))
    width = 2 * W + 1
    dt = np.int64
    INF = _INF
    mis = dt(costs.mismatch_cost)
    gap = dt(costs.gap_cost)
    sg = dt(costs.start_gap_cost)
    tc = dt(costs.transpose_cost or 0)
    allow_t = costs.allow_transpose

    t_idx = np.arange(width, dtype=dt)[None, :]
    t_gap = t_idx * gap
    j0 = t_idx - W
    D_prev = np.where(j0 < 0, INF, np.where(j0 == 0, 0, j0 * gap + sg))
    D_prev = np.broadcast_to(D_prev, (n, width)).copy()
    D_prev[np.broadcast_to(j0, (n, width)) > lens_b[:, None]] = INF
    D_prev2 = np.full((n, width), INF, dtype=dt)
    b_gap_prev = np.full((n, width), INF, dtype=dt)

    codes = np.zeros((max_rows + 1, n, width), dtype=np.int8)
    codes[0, :, :] = 1  # row 0: consume-b gaps

    for i in range(1, max_rows + 1):
        jlo = i - W
        a_ch = A[:, i - 1][:, None]
        jm1 = jlo - 1 + t_idx.astype(np.int64)
        valid_j = (jm1 >= 0) & (jm1 < lens_b[:, None])
        bj = np.zeros((n, width), dtype=np.uint8)
        if B.shape[1]:
            np.copyto(bj, B[np.arange(n)[:, None],
                            np.clip(jm1, 0, B.shape[1] - 1)], where=valid_j)
        sub = D_prev + np.where(valid_j & (bj == a_ch), dt(0), mis)
        sub[~valid_j] = INF

        up_D = np.concatenate([D_prev[:, 1:], np.full((n, 1), INF, dtype=dt)], axis=1)
        up_bgap = np.concatenate([b_gap_prev[:, 1:], np.full((n, 1), INF, dtype=dt)], axis=1)
        b_gap_cur = np.minimum(up_D + (sg + gap), up_bgap + gap)
        np.clip(b_gap_cur, None, INF, out=b_gap_cur)

        trans = None
        if allow_t and i > 1:
            jm2 = jlo - 2 + t_idx.astype(np.int64)
            valid2 = (jm2 >= 0) & (jm1 < lens_b[:, None])
            bj2 = np.zeros((n, width), dtype=np.uint8)
            if B.shape[1]:
                np.copyto(bj2, B[np.arange(n)[:, None],
                                 np.clip(jm2, 0, B.shape[1] - 1)], where=valid2)
            a_prev_ch = A[:, i - 2][:, None]
            tmask = valid2 & (a_ch == bj2) & (a_prev_ch == bj)
            trans = np.where(tmask, D_prev2 + tc, INF)

        # affine a-gap closure over E = min(sub, b_gap, trans) — same value
        # semantics as the fast kernel
        E = np.minimum(sub, b_gap_cur)
        if trans is not None:
            np.minimum(E, trans, out=E)
        shifted = E - t_gap
        if jlo <= 0:
            t0 = W - i
            if 0 <= t0 < width:
                col0 = dt(i * int(gap) + int(sg))
                shifted[:, t0] = np.minimum(shifted[:, t0], col0 - t_gap[0, t0])
        run = np.minimum.accumulate(shifted, axis=1)
        a_gap_cur = np.concatenate(
            [np.full((n, 1), INF, dtype=dt), run[:, :-1] + sg + t_gap[:, 1:]],
            axis=1,
        )
        np.clip(a_gap_cur, None, INF, out=a_gap_cur)

        # reference tie-break order (banded): sub(0) default, a_gap strict(1),
        # b_gap strict(2), transpose <= (3)
        best = sub.copy()
        code = np.zeros((n, width), dtype=np.int8)
        m = a_gap_cur < best
        best[m] = a_gap_cur[m]
        code[m] = 1
        m = b_gap_cur < best
        best[m] = b_gap_cur[m]
        code[m] = 2
        if trans is not None:
            m = trans <= best
            best[m] = trans[m]
            code[m] = 3
        D_cur = best

        if jlo <= 0:
            t0 = W - i
            if 0 <= t0 < width:
                D_cur[:, t0] = dt(i * int(gap) + int(sg))
                b_gap_cur[:, t0] = D_cur[:, t0]
                code[:, t0] = 2
            if t0 > 0:
                D_cur[:, :t0] = INF
                b_gap_cur[:, :t0] = INF

        codes[i] = code
        D_prev2 = D_prev
        D_prev = D_cur
        b_gap_prev = b_gap_cur

        fin = lens_a == i
        if fin.any():
            t_res = lens_b[fin] - i + W
            vals = D_cur[np.nonzero(fin)[0], t_res]
            ok = vals <= max_k[fin]
            tgt = np.nonzero(fin)[0]
            for local, v, good in zip(tgt, vals, ok):
                if good:
                    out[rows[local]] = int(v)

    # zero-row pairs
    zr = lens_a == 0
    for local in np.nonzero(zr)[0]:
        v = int(lens_b[local]) * int(gap) + (int(sg) if lens_b[local] else 0)
        if v <= max_k[local]:
            out[rows[local]] = v

    # backward walks
    for local, r in enumerate(rows):
        if out[r] < 0:
            continue
        la, lb = int(lens_a[local]), int(lens_b[local])
        a, b = A_rows[local], B_rows[local]
        i, j = la, lb
        rle: list = []

        def push(e):
            if rle and rle[-1].edit == e:
                rle[-1] = Edit(e, rle[-1].count + 1)
            else:
                rle.append(Edit(e, 1))

        sw = bool(swap[r])
        while i > 0 or j > 0:
            t = j - i + W
            c = int(codes[i, local, t])
            if c == 0:
                i -= 1
                j -= 1
                push(MATCH if a[i] == b[j] else MISMATCH)
            elif c == 1:
                j -= 1
                push(B_GAP if sw else A_GAP)
            elif c == 2:
                i -= 1
                push(A_GAP if sw else B_GAP)
            else:
                i -= 2
                j -= 2
                push(TRANSPOSE)
        rle.reverse()
        traces[r] = rle
