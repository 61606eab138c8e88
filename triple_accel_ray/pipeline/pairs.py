"""Stage 3: block rows → candidate pairs (with both texts carried).

Ray-Data shape: one hash-bucket shuffle keyed by block_key
(``shuffle.bucket_partition`` — sort with explicit per-bucket boundaries,
one reduce partition per bucket), then vectorized per-bucket pair
generation. A block always lands wholly inside one bucket, so pair
generation never needs cross-task state.

Skew control (explicit, per north_rule): a block with more docs than
``hot_block_cap`` would emit O(n²) pairs; instead it is sorted by
(doc_len, conv_id) and paired in a sliding window of ``hot_block_window``
neighbors — near-duplicates have near-equal lengths, so recall loss is
confined to the skewed key while cost drops to O(n·window). Per-block pair
counts are emitted so the skew decision is observable downstream.

Texts are carried on the pair rows (space-for-shuffle tradeoff): two extra
join shuffles to re-attach texts would move every doc again; carrying them
duplicates text ~pair-multiplicity times through one shuffle instead.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa


# upper-triangle index pairs per run size, built once per process (run
# sizes are bounded by hot_block_cap, so this is at most ~cap small arrays)
_TRIU: dict = {}


def _triu_cache(n: int):
    got = _TRIU.get(n)
    if got is None:
        iu = np.triu_indices(n, k=1)
        got = _TRIU[n] = (iu[0].astype(np.int64), iu[1].astype(np.int64))
    return got


def _add_bucket(batch: pa.Table, num_buckets: int) -> pa.Table:
    df = pl.from_arrow(batch)
    df = df.with_columns(
        (pl.col("block_key").hash(seed=1) % np.uint64(num_buckets))
        .cast(pl.Int32)
        .alias("bucket")
    )
    return df.to_arrow()


def _bucket_to_pairs(batch: pa.Table, cap: int, window: int,
                     carry_len: bool = False) -> pa.Table:
    """``carry_len=True`` emits each side's ``doc_len`` as a_len/b_len —
    callers that key on a per-doc value (e.g. simhash stores its uint64
    in the doc_len slot) get it on the pair row without a text join."""
    has_text = "doc_text" in batch.column_names
    df = (
        pl.from_arrow(batch)
        .sort(["block_key", "doc_len", "conv_id"])
    )
    key = df["block_key"].to_numpy()
    # run boundaries per block_key
    change = np.nonzero(key[1:] != key[:-1])[0] + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [len(key)]])

    ai: list = []
    bi: list = []
    blk: list = []
    sizes = ends - starts
    # Non-hot runs, grouped by SIZE: one vectorized emit per distinct run
    # size (≤ cap-1 iterations total) instead of a Python iteration per
    # block run — a bucket at sf0.4 holds ~50k runs and the per-run loop
    # made this stage flat from 8→32 CPUs (wall = slowest 32-task wave).
    small_mask = (sizes >= 2) & (sizes <= cap)
    if small_mask.any():
        ssz = sizes[small_mask]
        sst = starts[small_mask]
        for n in np.unique(ssz):
            iu0, iu1 = _triu_cache(int(n))
            s_n = sst[ssz == n]
            ai.append((s_n[:, None] + iu0[None, :]).ravel())
            bi.append((s_n[:, None] + iu1[None, :]).ravel())
            blk.append(np.repeat(s_n, iu0.size))
    # hot runs: sorted-neighborhood window (rare by construction — skew)
    for s, e in zip(starts[sizes > cap], ends[sizes > cap]):
        offs = np.arange(1, window + 1)
        base = np.arange(s, e)
        a = np.repeat(base, window)
        b = (base[:, None] + offs[None, :]).ravel()
        keep = b < e
        a, b = a[keep], b[keep]
        ai.append(a)
        bi.append(b)
        blk.append(np.full(len(a), s, dtype=np.int64))

    text_fields = [("a_text", pa.string()), ("b_text", pa.string())] if has_text else []
    len_fields = [("a_len", pa.int64()), ("b_len", pa.int64())] if carry_len else []
    bk_type = batch.schema.field("block_key").type
    schema = pa.schema(
        [("a_id", pa.string()), ("b_id", pa.string())]
        + text_fields
        + len_fields
        + [("block_key", bk_type)]
    )
    if not ai:
        return pa.table(
            {f.name: pa.array([], f.type) for f in schema}
        )

    a_idx = np.concatenate(ai)
    b_idx = np.concatenate(bi)
    blk_cat = np.concatenate(blk)
    # restore the segment-ordered emission the per-run loop produced (runs
    # have disjoint ascending index ranges and triu/window emission is
    # lexicographic within a run, so (a, b) lexsort is exactly that order);
    # keeps the block_key exemplar each deduped pair retains bit-identical
    order = np.lexsort((b_idx, a_idx))
    a_idx = a_idx[order]
    b_idx = b_idx[order]
    blk_cat = blk_cat[order]
    conv = df["conv_id"]
    cols = {
        "a_id": conv.gather(a_idx),
        "b_id": conv.gather(b_idx),
        "block_key": df["block_key"].gather(blk_cat),
    }
    if has_text:
        text = df["doc_text"]
        cols["a_text"] = text.gather(a_idx)
        cols["b_text"] = text.gather(b_idx)
    if carry_len:
        dl = df["doc_len"]
        cols["a_len"] = dl.gather(a_idx)
        cols["b_len"] = dl.gather(b_idx)
    out = pl.DataFrame(cols)
    # canonicalize a_id < b_id, then dedup within the bucket
    swapped = out["a_id"] > out["b_id"]
    swap_exprs = [
        pl.when(swapped).then(pl.col("b_id")).otherwise(pl.col("a_id")).alias("a_id"),
        pl.when(swapped).then(pl.col("a_id")).otherwise(pl.col("b_id")).alias("b_id"),
    ]
    if has_text:
        swap_exprs += [
            pl.when(swapped).then(pl.col("b_text")).otherwise(pl.col("a_text")).alias("a_text"),
            pl.when(swapped).then(pl.col("a_text")).otherwise(pl.col("b_text")).alias("b_text"),
        ]
    if carry_len:
        swap_exprs += [
            pl.when(swapped).then(pl.col("b_len")).otherwise(pl.col("a_len")).alias("a_len"),
            pl.when(swapped).then(pl.col("a_len")).otherwise(pl.col("b_len")).alias("b_len"),
        ]
    out = out.with_columns(*swap_exprs).unique(
        subset=["a_id", "b_id"], keep="first", maintain_order=True
    )
    return out.to_arrow().select(schema.names).cast(schema)


def _pair_bucket(batch: pa.Table, num_buckets: int) -> pa.Table:
    df = pl.from_arrow(batch)
    df = df.with_columns(
        ((pl.col("a_id").hash(seed=6) ^ pl.col("b_id").hash(seed=7))
         % np.uint64(num_buckets)).cast(pl.Int32).alias("bucket")
    )
    return df.to_arrow()


def _dedup_pairs(batch: pa.Table) -> pa.Table:
    out = (
        pl.from_arrow(batch)
        .unique(subset=["a_id", "b_id"], keep="first", maintain_order=True)
        .drop("bucket")
    )
    fields = [("a_id", pa.string()), ("b_id", pa.string())]
    if "a_text" in batch.column_names:
        fields += [("a_text", pa.string()), ("b_text", pa.string())]
    fields += [("block_key", batch.schema.field("block_key").type)]
    schema = pa.schema(fields)
    return out.to_arrow().select(schema.names).cast(schema)


def gen_pairs(blocks, num_buckets: int = 64, hot_block_cap: int = 64,
              hot_block_window: int = 8):
    """block rows Dataset → candidate pair Dataset (a_id < b_id, globally
    unique).

    Two shuffles: (1) block_key buckets for pair generation, (2) pair-hash
    buckets for global dedup. The second shuffle exists because a true
    near-dup pair collides in MANY LSH bands (up to n_bands copies landing
    in different block buckets) — deduping before the expensive scoring
    stage is ~an order of magnitude cheaper than scoring every copy."""
    from .shuffle import bucket_partition

    gen = bucket_partition(
        blocks.map_batches(
            _add_bucket,
            batch_format="pyarrow",
            fn_kwargs={"num_buckets": num_buckets},
        ),
        _bucket_to_pairs, num_buckets,
        fn_kwargs={"cap": hot_block_cap, "window": hot_block_window},
    )
    return bucket_partition(
        gen.map_batches(
            _pair_bucket,
            batch_format="pyarrow",
            fn_kwargs={"num_buckets": num_buckets},
        ),
        _dedup_pairs, num_buckets,
    )


def attach_pair_texts(pairs, docs, num_partitions: int = 32):
    """Hash-join both documents' texts onto id-only pairs.

    Two bucketed hash joins against the docs table — the pair set after
    global dedup is far smaller than the exploded block rows, so joining
    texts here moves O(pairs + docs) bytes instead of shuffling every doc
    text ~n_bands times through the blocking stages."""
    from .shuffle import bucket_join

    def _a_side(t: pa.Table) -> pa.Table:
        return pa.table({"a_key": t["conv_id"], "a_text": t["doc_text"]})

    def _b_side(t: pa.Table) -> pa.Table:
        return pa.table({"b_key": t["conv_id"], "b_text": t["doc_text"]})

    pairs_schema = pa.schema(
        [("a_id", pa.string()), ("b_id", pa.string()),
         ("block_key", pa.uint64())]
    )
    a_schema = pa.schema([("a_key", pa.string()), ("a_text", pa.string())])
    b_schema = pa.schema([("b_key", pa.string()), ("b_text", pa.string())])
    j1 = bucket_join(
        pairs,
        docs.map_batches(_a_side, batch_format="pyarrow"),
        left_key="a_id", right_key="a_key",
        left_schema=pairs_schema, right_schema=a_schema,
        num_buckets=num_partitions,
    )
    j1_schema = pa.schema(list(pairs_schema) + [pa.field("a_text", pa.string())])
    return bucket_join(
        j1,
        docs.map_batches(_b_side, batch_format="pyarrow"),
        left_key="b_id", right_key="b_key",
        left_schema=j1_schema, right_schema=b_schema,
        num_buckets=num_partitions,
    )


class _AttachFromIndex:
    """a_text/b_text onto id pairs from a broadcast text index."""

    def __init__(self, index_ref):
        from .score import TextLookup

        self.lookup = TextLookup(index_ref)

    def __call__(self, t: pa.Table) -> pa.Table:
        return t.append_column("a_text", self.lookup(t["a_id"])).append_column(
            "b_text", self.lookup(t["b_id"]))


def attach_texts(pairs, docs, id_col: str, text_col: str,
                 broadcast_max_bytes: int, num_partitions: int = 32):
    """Attach both documents' texts (``docs``' ``text_col`` keyed by
    ``id_col`` cast to string) onto id-only pairs: a broadcast id→text
    index when ``docs`` is at most ``broadcast_max_bytes`` in memory (no
    join shuffles), else the two bucketed joins of
    :func:`attach_pair_texts` (the scale path)."""
    from .score import build_text_index_remote

    def _texts(t: pa.Table) -> pa.Table:
        return pa.table({"conv_id": t[id_col].cast(pa.string()),
                         "doc_text": t[text_col]})

    texts = docs.map_batches(_texts, batch_format="pyarrow")
    if (docs.size_bytes() or (1 << 62)) <= broadcast_max_bytes:
        index_ref = build_text_index_remote(texts.to_arrow_refs())
        return pairs.map_batches(_AttachFromIndex(index_ref),
                                 batch_format="pyarrow")
    return attach_pair_texts(pairs, texts, num_partitions=num_partitions)
