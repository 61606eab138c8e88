"""Needle-in-haystack search over document columns: the reference's search
operators (hamming_search / levenshtein_search, hamming.rs:96-146 and
levenshtein.rs:1589-1838) lifted to batch column form — one needle, a
column of haystacks, exploded Match rows out.

Hot paths take the whole column at once (kernels/search_batch.py): for
unit costs the compiled Myers engine scans every row and recovers each
hit's start in one call at any needle length, and hamming windows are
counted in ``len(needle)`` flat passes. Per-row Python survives only where
semantics demand it — non-unit costs, anchored search — and in the per-row
ALL/BEST match selection over the (sparse) hits.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels import (
    SEARCH_ALL,
    SEARCH_BEST,
    hamming_search_naive_with_opts,
    levenshtein_search_simd_with_opts,
)
from ..kernels.batch import to_byte_rows
from ..kernels.search_batch import hamming_scan_column, myers_search_column
from ..kernels.search_fast import select_matches
from ..kernels.types import EditCosts, LEVENSHTEIN_COSTS


def _match_table(id_col: str, ids, out_row, out_s, out_e, out_k) -> pa.Table:
    idx = pa.array(np.asarray(out_row, dtype=np.int64))
    return pa.table(
        {
            id_col: ids.take(idx) if len(out_row) else ids.slice(0, 0),
            "start": pa.array(np.asarray(out_s, np.int64), pa.int64()),
            "end": pa.array(np.asarray(out_e, np.int64), pa.int64()),
            "k": pa.array(np.asarray(out_k, np.int64), pa.int64()),
        }
    )


def hamming_search_column(batch: pa.Table, needle: bytes, k: int,
                          search_type: str = SEARCH_ALL,
                          id_col: str = "doc_id",
                          text_col: str = "text") -> pa.Table:
    """Exploded matches (id, start, end, k), column-vectorized: mismatch
    counts for every window in ``len(needle)`` flat passes, then per-row
    ALL/BEST filtering on the (sparse) qualifying windows."""
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    m = len(needle)
    out_row: list = []
    out_s: list = []
    out_e: list = []
    out_k: list = []
    if m > 0:
        data, offsets = to_byte_rows(batch[text_col])
        # kernel-side cost filter: qualifying windows only (bounds memory)
        doc_of, within, cost = hamming_scan_column(
            needle, data, offsets, max_cost=k
        )
        if search_type == SEARCH_BEST:
            hit = np.nonzero(cost <= k)[0]
            hit_docs = doc_of[hit]  # nondecreasing
            uniq, grp_start = np.unique(hit_docs, return_index=True)
            grp_end = np.concatenate([grp_start[1:], [len(hit)]])
            for r, lo, hi in zip(uniq, grp_start, grp_end):
                sel = hit[lo:hi]
                costs_r = cost[sel]
                # running-threshold raw set, then final best filter
                prevmin = np.minimum.accumulate(
                    np.concatenate([[k], costs_r[:-1]])
                )
                prevmin = np.minimum(prevmin, k)
                rawm = costs_r <= prevmin
                best = costs_r[rawm].min()
                keep = sel[rawm & (costs_r == best)]
                out_row.extend([r] * len(keep))
                out_s.extend(within[keep])
                out_e.extend(within[keep] + m)
                out_k.extend(cost[keep])
        else:
            keep = np.nonzero(cost <= k)[0]
            out_row = doc_of[keep]
            out_s = within[keep]
            out_e = within[keep] + m
            out_k = cost[keep]
    return _match_table(id_col, ids, out_row, out_s, out_e, out_k)


def levenshtein_search_column(batch: pa.Table, needle: bytes, k: int,
                              search_type: str = SEARCH_ALL,
                              costs: EditCosts = LEVENSHTEIN_COSTS,
                              anchored: bool = False,
                              id_col: str = "doc_id",
                              text_col: str = "text") -> pa.Table:
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    m = len(needle)
    out_row: list = []
    out_s: list = []
    out_e: list = []
    out_k: list = []

    if costs.is_unit() and not anchored and m >= 1:
        data, offsets = to_byte_rows(batch[text_col])
        # rows whose haystack is shorter than the needle can still match
        # (m - n <= k) — the scan covers them identically to Sellers
        rows_h, ends_h, costs_h, starts_h = myers_search_column(
            needle, data, offsets, k
        )
        n = len(offsets) - 1
        bounds = np.searchsorted(rows_h, np.arange(n + 1))
        # when m <= k every row emits the position-0 empty match
        todo = range(n) if m <= k else np.unique(rows_h).tolist()
        for r in todo:
            lo, hi = bounds[r], bounds[r + 1]
            for mm in select_matches(
                    ends_h[lo:hi].tolist(), costs_h[lo:hi].tolist(),
                    starts_h[lo:hi].tolist(), m, k, search_type):
                out_row.append(r)
                out_s.append(mm.start)
                out_e.append(mm.end)
                out_k.append(mm.k)
    else:
        texts = batch[text_col].to_pylist()
        for i, t in enumerate(texts):
            for mm in levenshtein_search_simd_with_opts(
                needle, t.encode(), k, search_type, costs, anchored
            ):
                out_row.append(i)
                out_s.append(mm.start)
                out_e.append(mm.end)
                out_k.append(mm.k)
    return _match_table(id_col, ids, out_row, out_s, out_e, out_k)


def search_dataset(docs, needle: bytes, k: int, mode: str = "levenshtein",
                   search_type: str = SEARCH_ALL, anchored: bool = False,
                   id_col: str = "doc_id", text_col: str = "text"):
    """Dataset-level search: stateless map_batches, exploded match rows."""
    if mode == "hamming":
        fn = lambda t: hamming_search_column(  # noqa: E731
            t, needle, k, search_type, id_col, text_col
        )
    else:
        fn = lambda t: levenshtein_search_column(  # noqa: E731
            t, needle, k, search_type, LEVENSHTEIN_COSTS, anchored,
            id_col, text_col
        )
    return docs.map_batches(fn, batch_format="pyarrow")


def fuzzy_semi_join(left, right, k: int, *,
                    left_id: str = "probe_id", left_text: str = "ptext",
                    right_id: str = "doc_id", right_text: str = "text",
                    band: int = 32, prefix: int = 4,
                    num_buckets: int = 16):
    """Table-level FUZZY JOIN: for every left row, the right rows within
    k-bounded byte-level Levenshtein distance, restricted to the
    SQL-replayable candidate predicate ``len//band equal AND first
    ``prefix`` bytes equal`` — the same contract discipline as the ER
    pipeline (the oracle replays the blocking predicate, so recall is
    part of the contract, not a probabilistic property). → (left_id,
    right_id, dist).

    Scale shape: both sides ride ONE hash(prefix, len_band) bucket
    shuffle tagged by side (id + text only); the per-bucket body is one
    polars equi-join on the block key followed by the whole-batch banded
    DP (kernels.batch.levenshtein_k_batch) — the reference's k-bounded
    kernel in a second pipeline shape. Candidate fan-out is bounded by
    the block sizes the predicate induces; a tighter prefix is the skew
    knob."""
    import polars as pl

    from ..kernels.batch import levenshtein_k_batch
    from ..pipeline.shuffle import bucket_partition

    def _tag(id_col: str, text_col: str, side: int):
        def _f(t: pa.Table) -> pa.Table:
            df = pl.from_arrow(t.select([id_col, text_col])).rename(
                {id_col: "rid", text_col: "txt"})
            df = df.with_columns(
                band_k=(pl.col("txt").str.len_bytes().cast(pl.Int64)
                        // band),
                pref=pl.col("txt").str.slice(0, prefix),
                side=pl.lit(side, dtype=pl.Int8),
            ).with_columns(
                bucket=((pl.col("pref") + "\x00" +
                         pl.col("band_k").cast(pl.String)).hash(seed=71)
                        % np.uint64(num_buckets)).cast(pl.Int32)
            )
            return df.to_arrow().cast(pa.schema([
                ("rid", pa.string()), ("txt", pa.string()),
                ("band_k", pa.int64()), ("pref", pa.string()),
                ("side", pa.int8()), ("bucket", pa.int32())]))
        return _f

    def _join_verify(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        ls = df.filter(pl.col("side") == 0).select(
            ["rid", "txt", "band_k", "pref"]).rename(
            {"rid": "l_id", "txt": "l_txt"})
        rs = df.filter(pl.col("side") == 1).select(
            ["rid", "txt", "band_k", "pref"]).rename(
            {"rid": "r_id", "txt": "r_txt"})
        cand = ls.join(rs, on=["band_k", "pref"], how="inner")
        empty = pa.table({
            left_id: pa.array([], pa.string()),
            right_id: pa.array([], pa.string()),
            "dist": pa.array([], pa.int64()),
        })
        if cand.height == 0:
            return empty
        at = cand.to_arrow()
        dist = levenshtein_k_batch(at["l_txt"], at["r_txt"], k)
        hit = dist >= 0
        return pa.table({
            left_id: at["l_id"].filter(pa.array(hit)),
            right_id: at["r_id"].filter(pa.array(hit)),
            "dist": pa.array(dist[hit], pa.int64()),
        })

    left_t = left.map_batches(
        _tag(left_id, left_text, 0), batch_format="pyarrow")
    right_t = right.map_batches(
        _tag(right_id, right_text, 1), batch_format="pyarrow")
    return bucket_partition(
        left_t.union(right_t), _join_verify, num_buckets)
