"""Deduplication operators over document tables.

Five families, each a Ray-Data composition (hash-bucket shuffles, vectorized
batch bodies — the same patterns as the ER pipeline):

  * exact          — content-hash groupby, keep min doc_id
  * minhash-LSH    — shingle → minhash → band → bucket groupby → verified
                     candidate pairs (exact shingle-set Jaccard)
  * simhash        — 64-bit simhash over token hashes, near-dup within
                     hamming radius via rotated-prefix bucketing
  * n-gram Jaccard — exact char n-gram set Jaccard on candidate pairs
  * embedding      — cosine near-dup pairs over an embedding column
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

from ..kernels.batch import to_byte_rows
from ..kernels.vhash import POLY_COEF, POLY_COEF2, packed_windows, polyhash_rows
from ..pipeline.blocking import BlockKeyer, _mix64


# --------------------------------------------------------------- exact

def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Two independent vectorized 64-bit polynomial hashes (128-bit-strength
    equality proxy; no per-row Python)."""
    data, offsets = to_byte_rows(batch[text_col])
    h1 = polyhash_rows(data, offsets, POLY_COEF, seed=11)
    h2 = polyhash_rows(data, offsets, POLY_COEF2, seed=23)
    return batch.append_column(
        "content_h1", pa.array(h1, pa.uint64())
    ).append_column("content_h2", pa.array(h2, pa.uint64()))


def exact_dup_groups(docs, id_col: str = "doc_id", text_col: str = "text",
                     num_buckets: int = 32):
    """→ (id, dup_group, group_size): dup_group = min id sharing identical
    text. One shuffle keyed by content hash (bucketed).

    The text rides the shuffle ONCE and group membership is decided on the
    ACTUAL BYTES (the hash only routes): the polynomial content hashes are
    linear in the text mod 2^64 before the bijective mixer, so colliding
    inputs are constructible — an operator named "exact" must not merge on
    hash equality alone (round-2 ADVICE). One text-wide shuffle is the
    standard exact-dedup scale shape (each byte moves once, unlike the
    LSH ops where texts would ride ~n_bands times)."""

    def _bucketize(t: pa.Table) -> pa.Table:
        t = add_content_hash(t, text_col)
        bucket = (t["content_h1"].to_numpy() % np.uint64(num_buckets)).astype(
            np.int32
        )
        return t.select([id_col, text_col, "content_h1", "content_h2"]).append_column(
            "bucket", pa.array(bucket, pa.int32())
        )

    def _group(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        # hash cols pre-partition the comparison; text equality decides
        out = (
            df.with_columns(
                dup_group=pl.col(id_col).min().over(
                    ["content_h1", "content_h2", text_col]
                ),
                group_size=pl.len().over(
                    ["content_h1", "content_h2", text_col]
                ).cast(pl.Int64),
            )
            .select([id_col, "dup_group", "group_size"])
            .sort(id_col)
        )
        return out.to_arrow()

    from ..pipeline.shuffle import bucket_partition

    return bucket_partition(
        docs.map_batches(_bucketize, batch_format="pyarrow"),
        _group, num_buckets,
    )


# ----------------------------------------------------------- minhash LSH

def _distinct_per_row(vals: np.ndarray, rows: np.ndarray, n: int):
    """Distinct (row, value) pairs + per-row distinct counts, vectorized."""
    order = np.lexsort((vals, rows))
    v, r = vals[order], rows[order]
    if len(v):
        keep = np.ones(len(v), bool)
        keep[1:] = (v[1:] != v[:-1]) | (r[1:] != r[:-1])
        v, r = v[keep], r[keep]
    return v, r, np.bincount(r, minlength=n).astype(np.int64)


def _shingle_set_jaccard_flat(da, oa, db, ob, n, shingle) -> np.ndarray:
    """Global-lexsort formulation — fallback for gram == 8, where a packed
    window can equal the uint64 sentinel the row-wise path pads with."""
    va, ra = packed_windows(da, oa, shingle)
    vb, rb = packed_windows(db, ob, shingle)
    va, ra, na = _distinct_per_row(va, ra, n)
    vb, rb, nb = _distinct_per_row(vb, rb, n)
    allv = np.concatenate([va, vb])
    allr = np.concatenate([ra, rb])
    order = np.lexsort((allv, allr))
    v, r = allv[order], allr[order]
    inter = np.zeros(n, dtype=np.int64)
    if len(v) > 1:
        dup = (v[1:] == v[:-1]) & (r[1:] == r[:-1])
        inter = np.bincount(r[1:][dup], minlength=n).astype(np.int64)
    union = na + nb - inter
    out = np.ones(n, dtype=np.float64)  # both-empty rows: jaccard = 1.0
    nzu = union > 0
    out[nzu] = inter[nzu] / union[nzu]
    return out


def _shingle_set_jaccard(a_texts, b_texts, shingle: int = 5,
                         chunk_elems: int = 1 << 15) -> np.ndarray:
    """Exact char-shingle-SET Jaccard per pair, fully vectorized: windows
    are packed injectively into uint64 (shingle <= 8, so no collisions —
    identical results to byte-string sets).

    Row-wise formulation (round 3): each pair's windows are gathered into
    a MAX-padded (pairs, width) matrix and three ``np.sort(axis=1)``
    passes give per-side distinct counts and the A∪B adjacency-equality
    intersection — contiguous per-row sorts of length `width` instead of
    the previous gather-heavy global lexsorts over every window in the
    batch (measured ~3x faster on the sf0.1 minhash-verify workload,
    which is sort-bound either way). Pairs are processed in width-sorted
    chunks so the padded matrix stays under ``chunk_elems`` elements —
    sized CACHE-RESIDENT (2^15 elems ≈ 0.25 MB per matrix): at 2^22 the
    three sort passes streamed 32 MB matrices through DRAM and this VM's
    ~2.4 GB/s aggregate-bandwidth ceiling made the kernel anti-scale
    (measured 899 CPU-s split across 32 processes vs 40 single; at 2^15
    it is 21 CPU-s across 32 AND 2x faster single-process)."""
    da, oa = to_byte_rows(a_texts)
    db, ob = to_byte_rows(b_texts)
    n = len(oa) - 1
    if len(ob) - 1 != n:
        raise ValueError("column length mismatch")
    out = np.ones(n, dtype=np.float64)  # both-empty rows: jaccard = 1.0
    if n == 0:
        return out
    if shingle >= 8:
        return _shingle_set_jaccard_flat(da, oa, db, ob, n, shingle)

    MAXU = np.uint64(0xFFFFFFFFFFFFFFFF)  # > any packed window (gram < 8)
    ca = np.maximum(0, np.diff(oa) - shingle + 1).astype(np.int64)
    cb = np.maximum(0, np.diff(ob) - shingle + 1).astype(np.int64)

    def _pack_rows(data, offsets, counts, rows, w):
        """(len(rows), w) uint64 matrix of packed windows, MAXU-padded:
        ONE byte-level gather per chunk + ``shingle`` contiguous shifted
        slices — no flat per-window index arrays (the former
        packed_windows gather dominated this kernel's profile)."""
        m = len(rows)
        A = np.full((m, w), MAXU, dtype=np.uint64)
        if w == 0 or not data.size:
            return A
        L = w + shingle - 1
        idx = offsets[rows][:, None] + np.arange(L, dtype=np.int64)
        np.clip(idx, 0, data.size - 1, out=idx)
        Mb = data[idx]  # (m, L) uint8; bytes past a row's end are garbage
        V = np.zeros((m, w), dtype=np.uint64)
        for kk in range(shingle):
            V |= Mb[:, kk:kk + w].astype(np.uint64) << np.uint64(8 * kk)
        np.copyto(A, V, where=np.arange(w)[None, :] < counts[rows][:, None])
        return A

    def _dedup_sorted(M, counts):
        """Row-sort, count distinct non-pad values, blank duplicates."""
        M.sort(axis=1)
        if M.shape[1] > 1:
            dup = (M[:, 1:] == M[:, :-1]) & (M[:, 1:] != MAXU)
            ndist = counts - dup.sum(axis=1)
            M[:, 1:][dup] = MAXU
        else:
            ndist = np.minimum(counts, 1)
        return ndist

    width = ca + cb
    order = np.argsort(width, kind="stable")
    w_sorted = width[order]
    pos = 0
    while pos < n:
        # ascending widths: chunk size (k+1)*w_sorted[pos+k] is monotone
        rem = w_sorted[pos:]
        sizes = np.arange(1, rem.size + 1, dtype=np.int64) * rem
        stop = int(np.searchsorted(sizes > chunk_elems, True))
        e = pos + max(1, stop)
        rows = order[pos:e]
        wa = int(ca[rows].max(initial=0))
        wb = int(cb[rows].max(initial=0))
        A = _pack_rows(da, oa, ca, rows, wa)
        B = _pack_rows(db, ob, cb, rows, wb)
        na = _dedup_sorted(A, ca[rows])
        nb = _dedup_sorted(B, cb[rows])
        C = np.concatenate([A, B], axis=1)
        C.sort(axis=1)
        if C.shape[1] > 1:
            inter = ((C[:, 1:] == C[:, :-1]) & (C[:, 1:] != MAXU)).sum(axis=1)
        else:
            inter = np.zeros(len(rows), dtype=np.int64)
        union = na + nb - inter
        res = np.ones(len(rows), dtype=np.float64)
        nz = union > 0
        res[nz] = inter[nz] / union[nz]
        out[rows] = res
        pos = e
    return out


def minhash_dup_pairs(docs, id_col: str = "doc_id", text_col: str = "text",
                      threshold: float = 0.7, num_buckets: int = 32,
                      n_bands: int = 16, num_perm: int = 64,
                      hot_block_cap: int = 64, hot_block_window: int = 8,
                      broadcast_text_max_bytes: int = 256 << 20):
    """→ verified near-dup pairs (a_id, b_id, jaccard >= threshold),
    globally unique.

    Round-3 shape (the same discipline as the ER pipeline — text never
    rides the block-key shuffle): block rows are ID-ONLY, candidate pairs
    are globally deduped BEFORE verification (an LSH near-dup collides in
    up to ``n_bands`` bands, so round 2 shuffled each text ~n_bands times
    and verified every duplicate candidate copy — ~12x redundant at
    sf0.1), and texts attach once per unique pair: broadcast index under
    ``broadcast_text_max_bytes``, bucketed hash joins at scale."""
    from ..pipeline.pairs import attach_texts, gen_pairs

    keyer = BlockKeyer(num_perm=num_perm, n_bands=n_bands, families=("mh",))

    def _keys(t: pa.Table) -> pa.Table:
        src = pa.table(
            {
                "conv_id": t[id_col].cast(pa.string()),
                "doc_text": t[text_col],
                "doc_len": pa.compute.binary_length(t[text_col]).cast(pa.int64()),
            }
        )
        # keyer emits only the mh family (families=("mh",)): id-only rows
        return keyer(src)

    blocks = docs.map_batches(_keys, batch_format="pyarrow", batch_size=2048)
    # gen_pairs' boundary-partitioned shuffles emit exactly num_buckets
    # one-bucket blocks, so the verification stage gets num_buckets tasks
    # already — no repartition needed
    pairs = gen_pairs(
        blocks, num_buckets=num_buckets, hot_block_cap=hot_block_cap,
        hot_block_window=hot_block_window,
    )

    with_texts = attach_texts(pairs, docs, id_col, text_col,
                              broadcast_text_max_bytes, num_buckets)

    out_schema = pa.schema(
        [("a_id", pa.string()), ("b_id", pa.string()),
         ("jaccard", pa.float64())]
    )

    def _verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        # arrow columns go straight into the packed-window kernel
        j = _shingle_set_jaccard(t["a_text"], t["b_text"])
        out = pa.table(
            {"a_id": t["a_id"], "b_id": t["b_id"],
             "jaccard": pa.array(j, pa.float64())}
        ).cast(out_schema)
        return out.filter(pa.compute.greater_equal(out["jaccard"], threshold))

    # pairs are already globally unique (gen_pairs' second shuffle)
    return with_texts.map_batches(_verify, batch_format="pyarrow")


def ssjoin_token_pairs(docs, id_col: str = "doc_id", text_col: str = "text",
                       threshold_permille: int = 600, num_buckets: int = 32,
                       broadcast_text_max_bytes: int = 256 << 20):
    """Set-similarity self-join with PREFIX FILTERING (the SSJoin/PPJoin
    family): all doc pairs whose DISTINCT-token-set Jaccard >= theta,
    with exact integer (inter, uni, jaccard_permille) output — the
    whitespace-token complement to the shingle-window MinHash path.

    Why it scales: a doc with n distinct tokens emits only its prefix —
    the first ``n - ceil(theta*n) + 1`` tokens under a GLOBAL total
    order — and two sets with Jaccard >= theta provably share a prefix
    token under ANY shared total order, so grouping by prefix token is
    a complete (no-recall-loss) candidate generator that never explodes
    the full token incidence. The order used is (hash(token), token):
    order-only, never replayed in SQL — completeness holds for any
    order, so the twin just computes qualifying pairs directly. (A
    df-ascending order — rarest first — is the classic candidate-count
    optimization on skewed vocabularies; it costs one extra token-width
    join, noted as the tuning lever at scale.) A (theta*max <= min)
    length filter prunes inside each token group; candidate pairs are
    globally deduped BEFORE texts attach (broadcast-or-join, the
    minhash discipline); verification recomputes exact token sets per
    pair via vectorized string explode + join — integers end to end,
    so the SQL twin is value-exact.

    Tokens are maximal runs of '[^ \\t-\\r]+' — the tri-engine byte-
    identical class (rust regex / RE2 / Python re; see
    ops/text.normalize_text_batch)."""
    import pyarrow.compute as pc

    from ..pipeline.pairs import attach_texts
    from ..pipeline.shuffle import bucket_partition

    TOK = r"[^ \t-\r]+"
    thp = int(threshold_permille)

    pre_schema = pa.schema([("tok", pa.large_string()),
                            ("doc_id", pa.string()),
                            ("nt", pa.int64()), ("bucket", pa.int32())])

    def _prefix(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(pa.table({
            "doc_id": t[id_col].cast(pa.string()), "text": t[text_col]}))
        tok = (df.with_columns(tok=pl.col("text").str.extract_all(TOK))
               .select(["doc_id", "tok"]).explode("tok", empty_as_null=True)
               .drop_nulls("tok").unique(["doc_id", "tok"]))
        if tok.height == 0:
            return pre_schema.empty_table()
        nt = tok.group_by("doc_id").agg(nt=pl.len().cast(pl.Int64))
        tok = (tok.join(nt, on="doc_id")
               .with_columns(h=pl.col("tok").hash(seed=71))
               .sort(["doc_id", "h", "tok"])
               .with_columns(rn=pl.int_range(1, pl.len() + 1)
                             .over("doc_id")))
        p = pl.col("nt") - ((thp * pl.col("nt") + 999) // 1000) + 1
        pre = (tok.filter(pl.col("rn") <= p)
               .select(["tok", "doc_id", "nt"])
               .with_columns(bucket=(pl.col("tok").hash(seed=72)
                                     % np.uint64(num_buckets))
                             .cast(pl.Int32)))
        return pre.to_arrow().cast(pre_schema)

    cand_schema = pa.schema([("a_id", pa.string()), ("b_id", pa.string()),
                             ("_c", pa.int8())])

    def _cands(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return cand_schema.empty_table()
        from ..pipeline.pairs import _triu_cache

        df = pl.from_arrow(t).sort(["tok", "doc_id"])
        tokv = df["tok"].to_numpy()
        ids = df["doc_id"].to_numpy()
        nts = df["nt"].to_numpy()
        change = np.nonzero(tokv[1:] != tokv[:-1])[0] + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [len(tokv)]])
        sizes = ends - starts
        mask = sizes >= 2
        ssz, sst = sizes[mask], starts[mask]
        lo_i: list = []
        hi_i: list = []
        for n in np.unique(ssz):
            iu0, iu1 = _triu_cache(int(n))
            s_n = sst[ssz == n]
            lo_i.append((s_n[:, None] + iu0[None, :]).ravel())
            hi_i.append((s_n[:, None] + iu1[None, :]).ravel())
        if not lo_i:
            return cand_schema.empty_table()
        li = np.concatenate(lo_i)
        hi = np.concatenate(hi_i)
        # length filter: Jaccard >= theta forces theta*max(|A|,|B|) <= min
        na, nb = nts[li], nts[hi]
        keep = 1000 * np.minimum(na, nb) >= thp * np.maximum(na, nb)
        li, hi = li[keep], hi[keep]
        return pa.table({
            "a_id": pa.array(ids[li], pa.string()),
            "b_id": pa.array(ids[hi], pa.string()),
            "_c": pa.array(np.zeros(len(li), np.int8)),
        }).cast(cand_schema)

    prefixes = docs.map_batches(_prefix, batch_format="pyarrow",
                                batch_size=2048)
    raw_pairs = bucket_partition(prefixes, _cands, num_buckets)
    pairs = _distinct_pairs(raw_pairs, ("_c", pa.int8()),
                            num_buckets=num_buckets).map_batches(
        # attach_pair_texts' expected pair schema (block_key unused here)
        lambda t: pa.table({
            "a_id": t["a_id"], "b_id": t["b_id"],
            "block_key": pa.array(np.zeros(t.num_rows, np.uint64)),
        }),
        batch_format="pyarrow")

    with_texts = attach_texts(pairs, docs, id_col, text_col,
                              broadcast_text_max_bytes, num_buckets)

    out_schema = pa.schema([
        ("a_id", pa.string()), ("b_id", pa.string()),
        ("inter", pa.int64()), ("uni", pa.int64()),
        ("jaccard_permille", pa.int64()),
    ])

    def _verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = pl.from_arrow(pa.table({
            "a_id": t["a_id"], "b_id": t["b_id"],
            "a": t["a_text"], "b": t["b_text"],
        })).with_row_index("pid")
        ta = (df.select("pid", tok=pl.col("a").str.extract_all(TOK))
              .explode("tok", empty_as_null=True).drop_nulls("tok").unique(["pid", "tok"]))
        tb = (df.select("pid", tok=pl.col("b").str.extract_all(TOK))
              .explode("tok", empty_as_null=True).drop_nulls("tok").unique(["pid", "tok"]))
        na = ta.group_by("pid").agg(na=pl.len().cast(pl.Int64))
        nb = tb.group_by("pid").agg(nb=pl.len().cast(pl.Int64))
        iv = (ta.join(tb, on=["pid", "tok"], how="inner")
              .group_by("pid").agg(inter=pl.len().cast(pl.Int64)))
        res = (df.select(["pid", "a_id", "b_id"])
               .join(na, on="pid", how="left")
               .join(nb, on="pid", how="left")
               .join(iv, on="pid", how="left")
               .with_columns(pl.col("na", "nb", "inter").fill_null(0))
               .with_columns(uni=pl.col("na") + pl.col("nb")
                             - pl.col("inter"))
               .filter((pl.col("uni") > 0)
                       & (1000 * pl.col("inter") >= thp * pl.col("uni")))
               .with_columns(
                   jaccard_permille=(1000 * pl.col("inter"))
                   // pl.col("uni")))
        return (res.select(["a_id", "b_id", "inter", "uni",
                            "jaccard_permille"])
                .to_arrow().cast(out_schema))

    return with_texts.map_batches(_verify, batch_format="pyarrow")


def _distinct_pairs(pairs, metric_field: tuple, num_buckets: int = 16):
    """Globally-unique (a_id, b_id) via one pair-hash-bucketed shuffle."""
    name, typ = metric_field
    schema = pa.schema(
        [("a_id", pa.string()), ("b_id", pa.string()), (name, typ),
         ("bucket", pa.int32())]
    )

    def _bkt(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        df = pl.from_arrow(t)
        return df.with_columns(
            ((pl.col("a_id").hash(seed=6) ^ pl.col("b_id").hash(seed=7))
             % np.uint64(num_buckets)).cast(pl.Int32).alias("bucket")
        ).to_arrow().select(schema.names).cast(schema)

    def _uniq(t: pa.Table) -> pa.Table:
        out_schema = pa.schema([f for f in schema if f.name != "bucket"])
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = pl.from_arrow(t).unique(
            subset=["a_id", "b_id"], keep="first", maintain_order=True
        ).drop("bucket")
        return df.to_arrow().select(out_schema.names).cast(out_schema)

    from ..pipeline.shuffle import bucket_partition

    return bucket_partition(
        pairs.map_batches(_bkt, batch_format="pyarrow"),
        _uniq, num_buckets,
    )


# --------------------------------------------------------------- simhash

def simhash_batch(texts, gram: int = 4) -> np.ndarray:
    """64-bit simhash per row over char n-gram hashes (vectorized: flat
    n-gram hashing + per-bit segmented counts)."""
    from ..kernels.vhash import row_chunks

    data, offsets = to_byte_rows(texts)
    n = len(offsets) - 1
    lens = np.diff(offsets)
    counts = np.maximum(0, lens - gram + 1).astype(np.int64)
    total = int(counts.sum())
    out = np.zeros(n, dtype=np.uint64)
    if not total:
        return out
    coef = np.uint64(0x100000001B3)
    # row-aligned cache-resident chunks (kernels.vhash.row_chunks): the
    # 64-pass bit-vote loop re-reads the window-hash array once per bit,
    # so a whole-batch flat array costs ~512 B/window of DRAM traffic —
    # the worst offender under this host's aggregate-bandwidth ceiling
    ccum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=ccum[1:])
    for i0, i1 in row_chunks(ccum, 1 << 15):
        cc = counts[i0:i1]
        ctot = int(ccum[i1] - ccum[i0])
        if not ctot:
            continue
        doc_of = np.repeat(np.arange(i1 - i0), cc)
        cum = (ccum[i0:i1] - ccum[i0]).astype(np.int64)
        pos = offsets[i0:i1][doc_of] + (np.arange(ctot) - cum[doc_of])
        h = np.zeros(ctot, dtype=np.uint64)
        for kk in range(gram):
            h = (h ^ data[pos + kk].astype(np.uint64)) * coef
        h = _mix64(h)
        # per-bit balance: +1 when bit set, -1 otherwise, summed per doc
        has = cc > 0
        seg = cum[has]
        sub = out[i0:i1]
        for bit in range(64):
            vote = (
                ((h >> np.uint64(bit)) & np.uint64(1)).astype(np.int64) * 2
            ) - 1
            bal = np.add.reduceat(vote, seg)
            set_bit = np.zeros(i1 - i0, dtype=np.uint64)
            set_bit[has] = (bal > 0).astype(np.uint64)
            sub |= set_bit << np.uint64(bit)
        out[i0:i1] = sub
    return out


def simhash_dup_pairs(docs, id_col: str = "doc_id", text_col: str = "text",
                      max_hamming: int = 3, num_buckets: int = 32,
                      hot_block_cap: int = 64, hot_block_window: int = 8):
    """Near-dup pairs with simhash hamming distance <= max_hamming.

    Candidate generation: 4 × 16-bit bands of the simhash (any pair within
    hamming 3 shares at least one exact band — pigeonhole), then exact
    popcount verification inside the bucket. Recall is guaranteed only for
    ``max_hamming <= 3``; larger radii are best-effort with these bands.
    """

    def _sim(t: pa.Table) -> pa.Table:
        # the 64-bit simhash rides the shuffle in the doc_len slot (round
        # 3): each doc's TEXT used to ride all 4 band copies and every
        # candidate copy recomputed both simhashes from text — the hash
        # itself is all verification needs
        sh = simhash_batch(t[text_col])
        ids = t[id_col].cast(pa.string())
        rows = []
        for band in range(4):
            # uint64 block key: band value mixed with a band-specific salt
            # (no per-row string formatting)
            band_val = (sh >> np.uint64(band * 16)) & np.uint64(0xFFFF)
            salt = ((band + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            key = _mix64(band_val ^ np.uint64(salt))
            rows.append(
                pa.table(
                    {
                        "block_key": pa.array(key, pa.uint64()),
                        "conv_id": ids,
                        "doc_len": pa.array(
                            sh.view(np.int64), pa.int64()
                        ),
                    }
                )
            )
        out = pa.concat_tables(rows)
        bucket = (out["block_key"].to_numpy() % np.uint64(num_buckets)).astype(
            np.int32
        )
        return out.append_column("bucket", pa.array(bucket, pa.int32()))

    from ..pipeline.pairs import _bucket_to_pairs

    def _verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"a_id": pa.array([], pa.string()),
                 "b_id": pa.array([], pa.string()),
                 "hamming64": pa.array([], pa.int64())}
            )
        ha = t["a_len"].to_numpy().view(np.uint64)
        hb = t["b_len"].to_numpy().view(np.uint64)
        x = ha ^ hb
        pop = np.zeros(len(x), dtype=np.int64)
        for _ in range(64):
            pop += (x & np.uint64(1)).astype(np.int64)
            x >>= np.uint64(1)
        out = pa.table(
            {"a_id": t["a_id"], "b_id": t["b_id"],
             "hamming64": pa.array(pop, pa.int64())}
        )
        return out.filter(pa.compute.less_equal(out["hamming64"], max_hamming))

    from ..pipeline.shuffle import bucket_partition

    verified = bucket_partition(
        docs.map_batches(_sim, batch_format="pyarrow"),
        _bucket_to_pairs, num_buckets,
        fn_kwargs={"cap": hot_block_cap, "window": hot_block_window,
                   "carry_len": True},
    ).map_batches(_verify, batch_format="pyarrow")
    return _distinct_pairs(verified, ("hamming64", pa.int64()), num_buckets)


# ------------------------------------------------------ embedding cosine

from .veccol import stack_list_column as _stack_vecs


def blockwise_pair_scores(embeddings, score_chunk_pair,
                          id_col: str = "vec_id",
                          vec_col: str = "embedding",
                          target_chunk_rows: int = 8192):
    """Exact all-pairs scoring as a distributed block-pair fan-out.

    The corpus is materialized to OBJECT-STORE blocks (never the driver),
    re-chunked to ~``target_chunk_rows`` rows, and every chunk pair (i, j),
    i <= j, becomes one task that fetches exactly two chunks and calls
    ``score_chunk_pair(ids_a, va, ids_b, vb, same)`` -> pa.Table. Memory
    per task is two chunks + one (rows_a, rows_b) score matrix; compute is
    inherently O(n^2) — that is the SEMANTICS of "all pairs above a low
    threshold", not an implementation artifact. For high-threshold
    near-dup use :func:`embedding_dup_pairs_ivf` (sub-quadratic,
    approximate) instead.
    """
    import math

    import ray
    import ray.data as rd

    n = embeddings.count()
    n_chunks = max(1, math.ceil(n / target_chunk_rows))
    mat = (
        embeddings.select_columns([id_col, vec_col])
        .repartition(n_chunks)
        .materialize()
    )
    refs = [
        blk
        for bundle in mat.iter_internal_ref_bundles()
        for blk in bundle.block_refs
    ]

    items = [
        {"i": i, "j": j}
        for i in range(len(refs))
        for j in range(i, len(refs))
    ]

    def _score_task(batch: pa.Table) -> pa.Table:
        outs = []
        for i, j in zip(batch["i"].to_pylist(), batch["j"].to_pylist()):
            ta = ray.get(refs[i])
            ids_a = ta[id_col].to_numpy()
            va = _stack_vecs(ta[vec_col])
            if i == j:
                outs.append(score_chunk_pair(ids_a, va, ids_a, va, True))
            else:
                tb = ray.get(refs[j])
                outs.append(
                    score_chunk_pair(
                        ids_a, va, tb[id_col].to_numpy(),
                        _stack_vecs(tb[vec_col]), False,
                    )
                )
        return pa.concat_tables(outs)

    return rd.from_items(items, override_num_blocks=len(items)).map_batches(
        _score_task, batch_format="pyarrow"
    )


def embedding_dup_pairs(embeddings, threshold: float = 0.95,
                        id_col: str = "vec_id", vec_col: str = "embedding",
                        target_chunk_rows: int = 8192):
    """EXACT cosine near-dup pairs via the block-pair fan-out: vectorized
    hit extraction (one np.nonzero on the whole score matrix), canonical
    a_id < b_id, no driver-side corpus materialization or broadcast."""

    def _score(ids_a, va, ids_b, vb, same):
        va = va / np.maximum(1e-12, np.linalg.norm(va, axis=1))[:, None]
        vb = vb / np.maximum(1e-12, np.linalg.norm(vb, axis=1))[:, None]
        sims = va @ vb.T
        r, c = np.nonzero(sims >= threshold)
        a, b, s = ids_a[r], ids_b[c], sims[r, c]
        keep = a < b if same else a != b
        a, b, s = a[keep], b[keep], s[keep]
        swap = a > b
        a2 = np.where(swap, b, a)
        b2 = np.where(swap, a, b)
        return pa.table(
            {"a_id": pa.array(a2, pa.int64()),
             "b_id": pa.array(b2, pa.int64()),
             "cosine": pa.array(s, pa.float64())}
        )

    return blockwise_pair_scores(
        embeddings, _score, id_col, vec_col, target_chunk_rows
    )


def embedding_dup_pairs_ivf(embeddings, threshold: float = 0.95,
                            id_col: str = "vec_id", vec_col: str = "embedding",
                            n_centroids: int = 64, nprobe: int = 4,
                            sample_rows: int = 65536, seed: int = 13,
                            num_buckets: int = 32):
    """Sub-quadratic APPROXIMATE near-dup pairs — the 100 TB path for
    high thresholds: every vector is assigned to its ``nprobe`` nearest
    coarse centroids (multi-assignment), candidate pairs co-occur in some
    cell (one shuffle), and cosines are verified exactly inside the cell.
    Recall comes from multi-probe: two vectors with cosine >= threshold
    (close to 1) have near-identical centroid orderings, so their top-
    ``nprobe`` cell sets overlap with high probability. Output pairs are
    globally distinct; every emitted cosine is exact."""
    import ray

    from .similarity import build_centroids, seeded_vector_sample

    sample = seeded_vector_sample(
        embeddings, sample_rows, id_col, vec_col, seed
    )
    C = build_centroids(sample, n_centroids, seed)
    cref = ray.put(C)

    def _assign(t: pa.Table) -> pa.Table:
        C_ = ray.get(cref)
        X = _stack_vecs(t[vec_col])
        X = X / np.maximum(1e-12, np.linalg.norm(X, axis=1))[:, None]
        npb = min(nprobe, C_.shape[0])
        cells = np.argpartition(-(X @ C_.T), npb - 1, axis=1)[:, :npb]
        n = t.num_rows
        rows = np.repeat(np.arange(n), npb)
        out = pa.table(
            {
                id_col: t[id_col].take(pa.array(rows)),
                vec_col: t[vec_col].take(pa.array(rows)),
                "cell": pa.array(cells.ravel().astype(np.int32), pa.int32()),
            }
        )
        bucket = (cells.ravel() % num_buckets).astype(np.int32)
        return out.append_column("bucket", pa.array(bucket, pa.int32()))

    def _cell_pairs(t: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("a_id", pa.int64()), ("b_id", pa.int64()),
             ("cosine", pa.float64())]
        )
        if t.num_rows < 2:
            return schema.empty_table()
        outs = [schema.empty_table()]
        df = pl.from_arrow(t).sort(["cell"])
        cells = df["cell"].to_numpy()
        change = np.nonzero(cells[1:] != cells[:-1])[0] + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [len(cells)]])
        ids_all = df[id_col].to_numpy()
        vec_t = df[vec_col].to_arrow()
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            ids = ids_all[s:e]
            V = _stack_vecs(vec_t.slice(s, e - s))
            V = V / np.maximum(1e-12, np.linalg.norm(V, axis=1))[:, None]
            sims = V @ V.T
            r, c = np.nonzero(sims >= threshold)
            keep = ids[r] < ids[c]
            outs.append(
                pa.table(
                    {"a_id": pa.array(ids[r][keep], pa.int64()),
                     "b_id": pa.array(ids[c][keep], pa.int64()),
                     "cosine": pa.array(sims[r, c][keep], pa.float64())}
                )
            )
        return pa.concat_tables(outs)

    from ..pipeline.shuffle import bucket_partition

    pairs = bucket_partition(
        embeddings.map_batches(_assign, batch_format="pyarrow"),
        _cell_pairs, num_buckets,
    )

    def _bkt(t: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("a_id", pa.int64()), ("b_id", pa.int64()),
             ("cosine", pa.float64()), ("bucket", pa.int32())]
        )
        if t.num_rows == 0:
            return schema.empty_table()
        h = _mix64(t["a_id"].to_numpy().astype(np.uint64)) ^ _mix64(
            t["b_id"].to_numpy().astype(np.uint64) ^ np.uint64(0x5BD1E995)
        )
        return t.append_column(
            "bucket", pa.array((h % np.uint64(num_buckets)).astype(np.int32),
                               pa.int32())
        ).cast(schema)

    def _uniq(t: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("a_id", pa.int64()), ("b_id", pa.int64()),
             ("cosine", pa.float64())]
        )
        if t.num_rows == 0:
            return schema.empty_table()
        return (
            pl.from_arrow(t)
            .unique(subset=["a_id", "b_id"], keep="first", maintain_order=True)
            .drop("bucket")
            .to_arrow()
            .select(schema.names)
            .cast(schema)
        )

    return bucket_partition(
        pairs.map_batches(_bkt, batch_format="pyarrow"),
        _uniq, num_buckets,
    )


# ------------------------------------------------------ embedding SRP-LSH

_SRP_PLANES: dict = {}


def srp_planes(dim: int, n_planes: int = 64, seed: int = 17) -> np.ndarray:
    """Deterministic Gaussian hyperplanes, cached per process. Every worker
    derives the SAME (dim, n_planes) matrix from the seed — no broadcast,
    no driver state, identical across partitionings and reruns."""
    key = (dim, n_planes, seed)
    got = _SRP_PLANES.get(key)
    if got is None:
        rng = np.random.default_rng(seed * 1_000_003 + dim * 101 + n_planes)
        got = _SRP_PLANES[key] = rng.standard_normal((dim, n_planes))
    return got


def srp_signature_batch(X: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Packed sign bits of ``X @ planes`` — one uint64 per row
    (``n_planes <= 64``). POSITIVE-SCALE-INVARIANT bit for bit:
    ``sign((c*v) @ w) == sign(v @ w)`` for every c > 0 (the projection is
    scaled by an exact positive factor, which preserves the sign including
    exact zero), so scaled copies of a vector get IDENTICAL signatures with
    probability 1 — not merely high probability."""
    if planes.shape[1] > 64:
        raise ValueError("srp signatures are packed into one uint64 word")
    bits = (X @ planes) > 0.0
    if planes.shape[1] == 64:
        return np.packbits(
            bits, axis=1, bitorder="little"
        ).view(np.uint64).ravel()
    out = np.zeros(len(X), dtype=np.uint64)
    for b in range(planes.shape[1]):
        out |= bits[:, b].astype(np.uint64) << np.uint64(b)
    return out


class _VerifyCosineFromIndex:
    """Exact-cosine verification of id pairs against a broadcast
    (string ids, row-normalized float64 matrix) index: positions via
    ``pc.index_in`` (C++ hash), one row-wise einsum per batch. Emits only
    pairs with cosine >= threshold, ids cast back to int64 and
    re-canonicalized NUMERICALLY (gen_pairs orders the STRING forms, where
    "100" < "99")."""

    def __init__(self, index_ref, threshold: float):
        self.index_ref = index_ref
        self.threshold = threshold
        self._idx = None

    def __call__(self, t: pa.Table) -> pa.Table:
        schema = pa.schema(
            [("a_id", pa.int64()), ("b_id", pa.int64()),
             ("cosine", pa.float64())]
        )
        if t.num_rows == 0:
            return schema.empty_table()
        if self._idx is None:
            import ray

            self._idx = ray.get(self.index_ref)
        ids, V = self._idx
        import pyarrow.compute as pc

        pos_a = pc.index_in(t["a_id"], value_set=ids).to_numpy(
            zero_copy_only=False).astype(np.int64)
        pos_b = pc.index_in(t["b_id"], value_set=ids).to_numpy(
            zero_copy_only=False).astype(np.int64)
        s = np.einsum("ij,ij->i", V[pos_a], V[pos_b])
        keep = s >= self.threshold
        a = t["a_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)[keep]
        b = t["b_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {"a_id": pa.array(np.minimum(a, b), pa.int64()),
             "b_id": pa.array(np.maximum(a, b), pa.int64()),
             "cosine": pa.array(s[keep], pa.float64())}
        ).cast(schema)


def embedding_dup_pairs_lsh(embeddings, threshold: float = 0.95,
                            n_planes: int = 64, band_bits: int = 8,
                            id_col: str = "vec_id", vec_col: str = "embedding",
                            num_buckets: int = 32, hot_block_cap: int = 1024,
                            hot_block_window: int = 16, seed: int = 17,
                            broadcast_vec_max_bytes: int = 256 << 20):
    """Sub-quadratic APPROXIMATE cosine near-dup pairs via random-hyperplane
    (SRP) LSH bucketing — the "LSH-bucketed" scale path, sibling of
    :func:`embedding_dup_pairs_ivf`.

    Candidate generation: each vector's ``n_planes``-bit SRP signature is
    cut into ``n_planes // band_bits`` bands; two vectors are candidates iff
    they share at least one exact band value (pairs at cosine s agree per
    plane with probability 1 - arccos(s)/pi, so the default 8x8 banding
    catches a 0.95-cosine pair with ~99% probability, and a positively
    SCALED copy with probability exactly 1 — see
    :func:`srp_signature_batch`). Discipline mirrors ``minhash_dup_pairs``:
    ID-ONLY band rows ride the block-key shuffle (the vector never does —
    the signature itself travels in the doc_len slot so hot blocks'
    sorted-neighborhood fallback puts identical signatures adjacent),
    candidate pairs are globally deduped BEFORE verification (a true
    near-dup collides in up to every band), and each unique pair is
    verified ONCE with an exact float64 cosine — against a broadcast
    row-normalized matrix under ``broadcast_vec_max_bytes``, else two
    bucketed hash joins. Every emitted cosine is exact; approximation is
    recall-only."""
    from ..pipeline.pairs import gen_pairs

    n_bands = max(1, n_planes // band_bits)
    mask = np.uint64((1 << band_bits) - 1)

    def _keys(t: pa.Table) -> pa.Table:
        X = _stack_vecs(t[vec_col])
        sig = srp_signature_batch(X, srp_planes(X.shape[1], n_planes, seed))
        ids = t[id_col].cast(pa.string())
        rows = []
        for band in range(n_bands):
            band_val = (sig >> np.uint64(band * band_bits)) & mask
            salt = ((band + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            key = _mix64(band_val ^ np.uint64(salt))
            rows.append(
                pa.table(
                    {"block_key": pa.array(key, pa.uint64()),
                     "conv_id": ids,
                     "doc_len": pa.array(sig.view(np.int64), pa.int64())}
                )
            )
        return pa.concat_tables(rows)

    blocks = embeddings.map_batches(_keys, batch_format="pyarrow")
    # gen_pairs emits num_buckets one-bucket blocks (see minhash_dup_pairs)
    pairs = gen_pairs(
        blocks, num_buckets=num_buckets, hot_block_cap=hot_block_cap,
        hot_block_window=hot_block_window,
    )

    out_schema = pa.schema(
        [("a_id", pa.int64()), ("b_id", pa.int64()), ("cosine", pa.float64())]
    )
    size = embeddings.size_bytes() or (1 << 62)
    if size <= broadcast_vec_max_bytes:
        import ray

        def _idvec(t: pa.Table) -> pa.Table:
            return pa.table(
                {"_id": t[id_col].cast(pa.string()), "_v": t[vec_col]}
            )

        parts = [
            t
            for t in ray.get(
                embeddings.map_batches(_idvec, batch_format="pyarrow")
                .to_arrow_refs()
            )
            if t.num_rows > 0
        ]
        tab = pa.concat_tables(parts)
        ids_arr = tab["_id"].combine_chunks()
        V = _stack_vecs(tab["_v"])
        V = V / np.maximum(1e-12, np.linalg.norm(V, axis=1))[:, None]
        index_ref = ray.put((ids_arr, V))
        return pairs.map_batches(
            _VerifyCosineFromIndex(index_ref, threshold),
            batch_format="pyarrow",
        )

    # scale path: two bucketed hash joins attach the vectors once per
    # unique pair (same shape as minhash's attach_pair_texts)
    from ..pipeline.shuffle import bucket_join

    vec_t = pa.list_(pa.float64())

    def _a_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {"a_key": t[id_col].cast(pa.string()),
             "a_vec": t[vec_col].cast(vec_t)}
        )

    def _b_side(t: pa.Table) -> pa.Table:
        return pa.table(
            {"b_key": t[id_col].cast(pa.string()),
             "b_vec": t[vec_col].cast(vec_t)}
        )

    pairs_schema = pa.schema(
        [("a_id", pa.string()), ("b_id", pa.string()),
         ("block_key", pa.uint64())]
    )
    j1 = bucket_join(
        pairs, embeddings.map_batches(_a_side, batch_format="pyarrow"),
        left_key="a_id", right_key="a_key", left_schema=pairs_schema,
        right_schema=pa.schema([("a_key", pa.string()), ("a_vec", vec_t)]),
        num_buckets=num_buckets,
    )
    j2 = bucket_join(
        j1, embeddings.map_batches(_b_side, batch_format="pyarrow"),
        left_key="b_id", right_key="b_key",
        left_schema=pa.schema(list(pairs_schema) + [pa.field("a_vec", vec_t)]),
        right_schema=pa.schema([("b_key", pa.string()), ("b_vec", vec_t)]),
        num_buckets=num_buckets,
    )

    def _verify_joined(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        A = _stack_vecs(t["a_vec"])
        B = _stack_vecs(t["b_vec"])
        A = A / np.maximum(1e-12, np.linalg.norm(A, axis=1))[:, None]
        B = B / np.maximum(1e-12, np.linalg.norm(B, axis=1))[:, None]
        s = np.einsum("ij,ij->i", A, B)
        keep = s >= threshold
        a = t["a_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)[keep]
        b = t["b_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {"a_id": pa.array(np.minimum(a, b), pa.int64()),
             "b_id": pa.array(np.maximum(a, b), pa.int64()),
             "cosine": pa.array(s[keep], pa.float64())}
        ).cast(out_schema)

    return j2.map_batches(_verify_joined, batch_format="pyarrow")


def near_dup_survivors(docs, threshold: float = 0.5, num_buckets: int = 32,
                       id_col: str = "doc_id", text_col: str = "text",
                       max_iters: int = 50):
    """The dedup ACTION the pair ops feed: MinHash-LSH near-dup pairs ->
    distributed connected components -> keep ONE representative per
    component (the min STRING id — the same deterministic label rule as
    the ER pipeline's clustering), singletons survive untouched.

    Output: one string column ``id_col`` of surviving ids.  Reuses
    ``pipeline.cluster.connected_components`` (iterative min-label
    propagation, no driver-held graph) over ``minhash_dup_pairs``'s
    verified pair stream, so both building blocks keep their own tests
    and oracles; this operator contributes only the composition.
    ``num_buckets`` is the pair shuffles' bucket count and the cap of
    the connected components' (one bucket per CPU below it,
    ``shuffle.shuffle_buckets``).
    """
    import pyarrow.compute as pc

    from ..pipeline.cluster import connected_components

    pairs = minhash_dup_pairs(
        docs, id_col=id_col, text_col=text_col,
        threshold=threshold, num_buckets=num_buckets,
    )
    nodes = docs.map_batches(
        lambda t: pa.table({"conv_id": pc.cast(t[id_col], pa.string())}),
        batch_format="pyarrow",
    )
    # exact transitive collapse is this operator's CONTRACT, so a
    # non-converged fixpoint (component diameter > max_iters) must raise,
    # not silently under-dedupe
    cc = connected_components(
        pairs.select_columns(["a_id", "b_id"]), nodes,
        num_partitions=num_buckets, max_iters=max_iters,
    )

    def _keep(t: pa.Table) -> pa.Table:
        k = pc.equal(t["conv_id"], t["cluster_id"])
        return pa.table({id_col: t["conv_id"].filter(k)})

    return cc.map_batches(_keep, batch_format="pyarrow")


def simhash_survivors(docs, max_hamming: int = 6, num_buckets: int = 32,
                      id_col: str = "doc_id", text_col: str = "text",
                      max_iters: int = 50):
    """The simhash twin of ``near_dup_survivors``: simhash-band near-dup
    pairs -> distributed connected components -> keep the min-string-id
    representative per component (singletons untouched, transitivity
    collapsed). The pair contract — and therefore the oracle's — is "all
    pairs sharing a band within ``max_hamming``" (recall is guaranteed
    by pigeonhole only for max_hamming <= 3; the band predicate itself
    is replayed in SQL so the composition stays value-exact beyond it).
    Contributes only the composition; both building blocks keep their
    own tests and oracles. ``num_buckets`` is the pair shuffles' bucket
    count and the cap of the connected components' (one bucket per CPU
    below it, ``shuffle.shuffle_buckets``)."""
    import pyarrow.compute as pc

    from ..pipeline.cluster import connected_components

    pairs = simhash_dup_pairs(
        docs, id_col=id_col, text_col=text_col, max_hamming=max_hamming,
        num_buckets=num_buckets, hot_block_cap=1 << 30,
    )
    nodes = docs.map_batches(
        lambda t: pa.table({"conv_id": pc.cast(t[id_col], pa.string())}),
        batch_format="pyarrow",
    )
    cc = connected_components(
        pairs.select_columns(["a_id", "b_id"]), nodes,
        num_partitions=num_buckets, max_iters=max_iters,
    )

    def _keep(t: pa.Table) -> pa.Table:
        k = pc.equal(t["conv_id"], t["cluster_id"])
        return pa.table({id_col: t["conv_id"].filter(k)})

    return cc.map_batches(_keep, batch_format="pyarrow")


# ------------------------------------------------- duplicated substrings

def duplicate_spans(docs, w: int = 40, stride: int = 1,
                    id_col: str = "doc_id", text_col: str = "text",
                    num_buckets: int = 32,
                    broadcast_text_max_bytes: int = 256 << 20):
    """Exact duplicated-substring span detection (the Lee et al. 2021
    "Deduplicating Training Data Makes Language Models Better" shape):
    a byte position is *duplicated* when it is covered by some ``w``-byte
    window (taken at ``stride``-aligned starts) whose exact byte string
    occurs >= 2 times in the corpus (across documents or within one).
    → one row per document: (doc_id, n_dup_spans, dup_bytes) where spans
    are the merged islands of duplicated windows.

    Result is BYTE-exact, not hash-trusted (round-2 ADVICE discipline):
    rolling hashes only *candidate* windows; every candidate group is
    re-verified on the actual window bytes before a span is declared.

    Scale shape:
      1. window stage — per-block rolling 64-bit hashes in cache-resident
         chunks; emits id-width (doc_id, pos, h) rows, text never rides;
      2. h-bucket shuffle + per-bucket group-count — candidates are only
         the windows whose hash occurs >= 2 times globally (identical
         bytes => identical h => same bucket, so bucket-local counts are
         global);
      3. byte attach — window bytes gathered for candidates only
         (broadcast text index under ``broadcast_text_max_bytes``, tagged
         doc_id-bucket join at scale), then one candidate-width shuffle
         re-groups by hash and splits groups on the true bytes;
      4. span stage — duplicated windows + a zero-row per document ride
         one doc-bucket shuffle; gaps-and-islands merge is vectorized.
    At 100 TB, stride is the knob: stride=1 is the full Lee-et-al
    semantics; stride=s ships 1/s of the window rows and the SQL-visible
    contract (``p % s == 0`` starts) degrades coverage gracefully.
    """
    import pyarrow.compute as pc

    from ..kernels.vhash import row_chunks
    from ..pipeline.shuffle import bucket_partition

    W, S = int(w), int(stride)
    win_schema = pa.schema([
        ("doc_id", pa.string()), ("pos", pa.int64()), ("h", pa.uint64()),
        ("bucket", pa.int32()),
    ])

    def _windows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return win_schema.empty_table()
        data, offsets = to_byte_rows(t[text_col])
        n = len(offsets) - 1
        lens = np.diff(offsets)
        counts = np.maximum(0, lens - W + 1)
        scounts = ((counts + S - 1) // S).astype(np.int64)
        ccum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(scounts, out=ccum[1:])
        ids = pc.cast(t[id_col], pa.string())
        outs = []
        # row-aligned cache-resident chunks (fingerprint_batch discipline)
        for i0, i1 in row_chunks(ccum, 1 << 15):
            ctot = int(ccum[i1] - ccum[i0])
            if not ctot:
                continue
            cc = scounts[i0:i1]
            doc_of = np.repeat(np.arange(i1 - i0), cc)
            cum = (ccum[i0:i1] - ccum[i0]).astype(np.int64)
            local = (np.arange(ctot) - cum[doc_of]) * S
            posa = offsets[i0:i1][doc_of] + local
            h = np.zeros(ctot, dtype=np.uint64)
            for kk in range(W):
                h = h * POLY_COEF + data[posa + kk].astype(np.uint64)
            outs.append(pa.table({
                "doc_id": ids.take(pa.array(doc_of + i0)),
                "pos": pa.array(local, pa.int64()),
                "h": pa.array(h, pa.uint64()),
                "bucket": pa.array(
                    (_mix64(h) % np.uint64(num_buckets)).astype(np.int32),
                    pa.int32()),
            }))
        if not outs:
            return win_schema.empty_table()
        return pa.concat_tables(outs).cast(win_schema)

    def _cand(t: pa.Table) -> pa.Table:
        """Keep rows whose hash occurs >= 2 times (bucket-local == global)."""
        if t.num_rows == 0:
            return win_schema.empty_table()
        h = t["h"].to_numpy()
        order = np.argsort(h, kind="stable")
        hs = h[order]
        starts = np.flatnonzero(np.r_[True, hs[1:] != hs[:-1]])
        cnt = np.diff(np.r_[starts, len(hs)])
        keep = np.repeat(cnt >= 2, cnt)
        return t.take(pa.array(order[keep]))

    windows = docs.map_batches(_windows, batch_format="pyarrow")
    cands = bucket_partition(windows, _cand, num_buckets)

    def _extract(doc_ids, pos, ids, texts) -> pa.Array:
        """Gather the W window bytes per candidate row (chunked)."""
        taken = texts.take(pc.index_in(doc_ids, value_set=ids))
        data, offsets = to_byte_rows(taken)
        p = np.asarray(pos, np.int64)
        m = len(p)
        parts = []
        for c0 in range(0, m, 1 << 16):
            c1 = min(m, c0 + (1 << 16))
            idx = (offsets[c0:c1] + p[c0:c1])[:, None] + np.arange(W)
            M = np.ascontiguousarray(data[idx])
            parts.append(pa.FixedSizeBinaryArray.from_buffers(
                pa.binary(W), c1 - c0, [None, pa.py_buffer(M.tobytes())]))
        if not parts:
            return pa.array([], pa.binary(W))
        return pa.concat_arrays(parts)

    size = docs.size_bytes() or (1 << 62)
    if size <= broadcast_text_max_bytes:
        import ray

        tparts = [
            tt for tt in ray.get(
                docs.map_batches(
                    lambda t: pa.table(
                        {"id": pc.cast(t[id_col], pa.string()),
                         "txt": t[text_col]}),
                    batch_format="pyarrow").to_arrow_refs())
            if tt.num_rows > 0
        ]
        tab = pa.concat_tables(tparts)
        index_ref = ray.put((tab["id"].combine_chunks(),
                             tab["txt"].combine_chunks()))

        class _AttachG:
            def __init__(self, ref):
                self._ref, self._idx = ref, None

            def __call__(self, t: pa.Table) -> pa.Table:
                if t.num_rows == 0:
                    return win_schema.empty_table().append_column(
                        "g", pa.array([], pa.binary(W)))
                if self._idx is None:
                    self._idx = ray.get(self._ref)
                ids, texts = self._idx
                g = _extract(t["doc_id"], t["pos"].to_numpy(), ids, texts)
                return t.append_column("g", g)

        with_g = cands.map_batches(_AttachG(index_ref), batch_format="pyarrow")
    else:
        # tagged doc_id-bucket join: texts + candidates co-partitioned;
        # candidates are already the pruned set, so W bytes ride per
        # candidate once
        gs = pa.schema(list(win_schema) + [("g", pa.binary(W)),
                                           ("txt", pa.string())])

        def _tag_txt(t: pa.Table) -> pa.Table:
            ids = pc.cast(t[id_col], pa.string())
            df = pl.from_arrow(pa.table({"doc_id": ids}))
            bkt = (df["doc_id"].hash(seed=9) % np.uint64(num_buckets)).cast(
                pl.Int32).to_numpy()
            return pa.table({
                "doc_id": ids, "pos": pa.array(
                    np.full(t.num_rows, -1, np.int64), pa.int64()),
                "h": pa.array(np.zeros(t.num_rows, np.uint64), pa.uint64()),
                "bucket": pa.array(bkt, pa.int32()),
                "g": pa.nulls(t.num_rows, pa.binary(W)),
                "txt": t[text_col].cast(pa.string()),
            }).cast(gs)

        def _tag_cand(t: pa.Table) -> pa.Table:
            df = pl.from_arrow(t.select(["doc_id"]))
            bkt = (df["doc_id"].hash(seed=9) % np.uint64(num_buckets)).cast(
                pl.Int32).to_numpy()
            return pa.table({
                "doc_id": t["doc_id"], "pos": t["pos"], "h": t["h"],
                "bucket": pa.array(bkt, pa.int32()),
                "g": pa.nulls(t.num_rows, pa.binary(W)),
                "txt": pa.nulls(t.num_rows, pa.string()),
            }).cast(gs)

        def _join_extract(t: pa.Table) -> pa.Table:
            is_txt = pc.equal(t["pos"], -1)
            txts = t.filter(is_txt)
            cnd = t.filter(pc.invert(is_txt))
            if cnd.num_rows == 0:
                return win_schema.empty_table().append_column(
                    "g", pa.array([], pa.binary(W)))
            g = _extract(cnd["doc_id"], cnd["pos"].to_numpy(),
                         txts["doc_id"].combine_chunks(),
                         txts["txt"].combine_chunks())
            return cnd.select(win_schema.names).cast(
                win_schema).append_column("g", g)

        tagged = docs.map_batches(_tag_txt, batch_format="pyarrow").union(
            cands.map_batches(_tag_cand, batch_format="pyarrow"))
        with_g = bucket_partition(tagged, _join_extract, num_buckets)

    def _rebucket_h(t: pa.Table) -> pa.Table:
        # restore h-derived buckets (the join path leaves doc buckets)
        h = t["h"].to_numpy()
        b = (_mix64(h) % np.uint64(num_buckets)).astype(np.int32)
        return t.set_column(t.schema.get_field_index("bucket"), "bucket",
                            pa.array(b, pa.int32()))

    def _bytedup(t: pa.Table) -> pa.Table:
        """Split hash groups on true bytes; keep byte-groups with >= 2."""
        out_schema = pa.schema([("doc_id", pa.string()),
                                ("pos", pa.int64())])
        if t.num_rows == 0:
            return out_schema.empty_table()
        g = t["g"].combine_chunks()
        buf = np.frombuffer(g.buffers()[1], np.uint8)
        M = buf[g.offset * W:(g.offset + len(g)) * W].reshape(-1, W)
        h = t["h"].to_numpy()
        order = np.lexsort(tuple(M[:, j] for j in range(W - 1, -1, -1))
                           + (h,))
        Ms, hs = M[order], h[order]
        neq = (hs[1:] != hs[:-1]) | (Ms[1:] != Ms[:-1]).any(axis=1)
        starts = np.flatnonzero(np.r_[True, neq])
        cnt = np.diff(np.r_[starts, len(hs)])
        keep = np.repeat(cnt >= 2, cnt)
        sel = t.take(pa.array(order[keep]))
        return pa.table({"doc_id": sel["doc_id"], "pos": sel["pos"]})

    dup_windows = bucket_partition(
        with_g.map_batches(_rebucket_h, batch_format="pyarrow"),
        _bytedup, num_buckets,
    )

    # span stage: duplicated windows + one zero-row per doc, one shuffle
    span_in = pa.schema([("doc_id", pa.string()), ("pos", pa.int64()),
                         ("bucket", pa.int32())])

    def _doc_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return span_in.empty_table()
        df = pl.from_arrow(t.select(["doc_id"]))
        bkt = (df["doc_id"].hash(seed=9) % np.uint64(num_buckets)).cast(
            pl.Int32).to_numpy()
        return pa.table({"doc_id": t["doc_id"], "pos": t["pos"],
                         "bucket": pa.array(bkt, pa.int32())}).cast(span_in)

    def _zero_rows(t: pa.Table) -> pa.Table:
        ids = pc.cast(t[id_col], pa.string())
        return pa.table({
            "doc_id": ids,
            "pos": pa.array(np.full(t.num_rows, -1, np.int64), pa.int64()),
        })

    # ids ride as strings internally (uniform hashing/grouping); the
    # output restores the input id type
    _sch = docs.schema()
    id_type = _sch.types[_sch.names.index(id_col)]
    out_schema = pa.schema([("doc_id", id_type),
                            ("n_dup_spans", pa.int64()),
                            ("dup_bytes", pa.int64())])

    def _spans(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = pl.from_arrow(t.select(["doc_id", "pos"]))
        uni = df.filter(pl.col("pos") < 0).select("doc_id").unique()
        wnd = df.filter(pl.col("pos") >= 0).sort(["doc_id", "pos"])
        if wnd.height:
            doc = wnd["doc_id"].to_numpy()
            p = wnd["pos"].to_numpy()
            brk = np.r_[True, (doc[1:] != doc[:-1]) | (p[1:] > p[:-1] + W)]
            starts = p[brk]
            # islands are contiguous runs: last pos of island i sits just
            # before the next island start
            last = p[np.r_[np.flatnonzero(brk)[1:] - 1, len(p) - 1]]
            span_doc = doc[brk]
            spans = pl.DataFrame({
                "doc_id": span_doc,
                "blen": (last + W - starts).astype(np.int64)})
            agg = spans.group_by("doc_id").agg(
                n_dup_spans=pl.len().cast(pl.Int64),
                dup_bytes=pl.col("blen").sum().cast(pl.Int64))
        else:
            agg = pl.DataFrame({"doc_id": pl.Series([], dtype=pl.String),
                                "n_dup_spans": pl.Series([], dtype=pl.Int64),
                                "dup_bytes": pl.Series([], dtype=pl.Int64)})
        out = uni.join(agg, on="doc_id", how="left").fill_null(0)
        return out.to_arrow().select(out_schema.names).cast(out_schema)

    span_rows = dup_windows.map_batches(
        _doc_bucket, batch_format="pyarrow"
    ).union(docs.map_batches(_zero_rows, batch_format="pyarrow").map_batches(
        _doc_bucket, batch_format="pyarrow"))
    return bucket_partition(span_rows, _spans, num_buckets)


def near_dup_survivors_best(docs, threshold: float = 0.5,
                            num_buckets: int = 32,
                            id_col: str = "doc_id",
                            text_col: str = "text",
                            score_col: str = "n_chars",
                            max_iters: int = 50):
    """Rank-aware dedup ACTION: like :func:`near_dup_survivors`, but the
    representative kept per near-dup component is the member with the
    HIGHEST ``score_col`` (ties → min string id), not the min id — the
    "keep the longest / best-quality member of each duplicate cluster"
    rule production curation actually uses. Singletons survive.

    → (doc_id string, cluster_size, score) — one row per surviving doc.

    Scale shape: minhash pairs → distributed connected components
    (both keep their own tests/oracles), then the labels pick up scores
    via one id-width bucket join and the per-component argmax runs as
    per-block partial bests (vectorized sort-head) followed by ONE
    hash(cluster)-bucketed reduce over the already-reduced partials —
    the classic combiner shape; no component's rows ever gather in one
    task before being reduced. ``num_buckets`` is the bucket count of the
    pair shuffles and joins and the cap of the connected components'
    (one bucket per CPU below it, ``shuffle.shuffle_buckets``)."""
    import pyarrow.compute as pc

    from ..pipeline.cluster import connected_components
    from ..pipeline.shuffle import bucket_join, bucket_partition

    pairs = minhash_dup_pairs(
        docs, id_col=id_col, text_col=text_col,
        threshold=threshold, num_buckets=num_buckets,
    )
    nodes = docs.map_batches(
        lambda t: pa.table({"conv_id": pc.cast(t[id_col], pa.string())}),
        batch_format="pyarrow",
    )
    cc = connected_components(
        pairs.select_columns(["a_id", "b_id"]), nodes,
        num_partitions=num_buckets, max_iters=max_iters,
    )
    scores = docs.map_batches(
        lambda t: pa.table(
            {"conv_id": pc.cast(t[id_col], pa.string()),
             "score": pc.cast(t[score_col], pa.int64())}),
        batch_format="pyarrow",
    )
    labeled = bucket_join(
        cc, scores, "conv_id", "conv_id",
        pa.schema([("conv_id", pa.string()), ("cluster_id", pa.string())]),
        pa.schema([("conv_id", pa.string()), ("score", pa.int64())]),
        num_buckets=num_buckets,
    )

    part_schema = pa.schema([
        ("cluster_id", pa.string()), ("best_id", pa.string()),
        ("score", pa.int64()), ("n", pa.int64()),
    ])

    def _partial_best(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        out = (
            pl.from_arrow(t)
            .sort(["cluster_id", "score", "conv_id"],
                  descending=[False, True, False])
            .group_by("cluster_id", maintain_order=True)
            .agg(best_id=pl.col("conv_id").first(),
                 score=pl.col("score").first(),
                 n=pl.len().cast(pl.Int64))
        )
        return out.to_arrow().cast(part_schema)

    out_schema = pa.schema([
        (id_col, pa.string()), ("cluster_size", pa.int64()),
        ("score", pa.int64()),
    ])

    def _final_best(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        out = (
            pl.from_arrow(t)
            .sort(["cluster_id", "score", "best_id"],
                  descending=[False, True, False])
            .group_by("cluster_id", maintain_order=True)
            .agg(best_id=pl.col("best_id").first(),
                 score=pl.col("score").first(),
                 cluster_size=pl.col("n").sum().cast(pl.Int64))
            .select(pl.col("best_id").alias(id_col), "cluster_size",
                    "score")
        )
        return out.to_arrow().cast(out_schema)

    partials = labeled.map_batches(
        _partial_best, batch_format="pyarrow"
    ).map_batches(
        lambda t: _bucket_col(t, num_buckets), batch_format="pyarrow")
    return bucket_partition(partials, _final_best, num_buckets)


def _bucket_col(t: pa.Table, num_buckets: int) -> pa.Table:
    """Append hash(cluster_id) % num_buckets as the reduce bucket."""
    if t.num_rows == 0:
        return t.append_column("bucket", pa.array([], pa.int32()))
    b = (pl.from_arrow(t.select(["cluster_id"]))["cluster_id"]
         .hash(seed=77) % np.uint64(num_buckets)).cast(pl.Int32)
    return t.append_column("bucket", b.to_arrow())
