"""Driver-contract query registry: every operator exposed as a callable
(sf_dir -> Dataset/Table) plus, where ANSI-SQL-expressible, a DuckDB oracle
string computing the same result with the same column names.

Float-parity rules used throughout (driver hashes values):
  * integer counts preferred; ratios/similarities only where both sides
    perform the identical IEEE-754 double operations in the same order;
  * distributed double SUMs are avoided in compared outputs (summation
    order differs) — monetary-style values go through
    floor(v*100 + 0.5) integer cents on both sides;
  * float32-sourced cosines are never value-compared (ids/ranks only).

The transcript fixture used by er_* queries is synthesized deterministically
per scale dir by ``pipeline.transcripts.ensure_fixture``; oracles reference
its absolute sf0.01 path (the driver's correctness scale).
"""

from __future__ import annotations

import os
from typing import Callable, Dict

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..io import read_parquet_clean

from ..ops.dedup import exact_dup_groups, minhash_dup_pairs, simhash_dup_pairs
from ..ops.multimodal import (
    audio_features,
    media_features,
    resize_images,
    sample_video_frames,
    synthesize_audio_table,
    synthesize_media_table,
    synthesize_media_table_jpeg,
    synthesize_media_table_jpeg_rgb,
    synthesize_media_table_png,
    synthesize_media_table_tiles,
    synthesize_media_table_tiles_rgb,
    synthesize_video_table,
)
from ..ops.search import search_dataset
from ..ops.similarity import knn_bruteforce, knn_ivf
from ..ops.text import LangId, fingerprint_batch, quality_score_batch, token_count_batch
from ..ops.windows import sessionize, tumbling_window_agg
from ..pipeline.docs import build_docs
from ..pipeline.pairs import _bucket_to_pairs
from ..pipeline.score import PairScorer
from ..pipeline.transcripts import ensure_fixture, fixture_dir

# absolute fixture path at the driver's correctness scale (sf0.01, seed 42);
# the oracle SQL reads the same file that ensure_fixture writes
FIXTURE_SF001 = os.path.join(fixture_dir(0.01, 42), "transcripts.parquet")
MEDIA_FIXTURE = "/tmp/ta_ray_fixtures/media_n200_s42.parquet"
MEDIA_PNG_FIXTURE = "/tmp/ta_ray_fixtures/media_png_n200_s42.parquet"
MEDIA_TILES_FIXTURE = "/tmp/ta_ray_fixtures/media_tiles_n200_s43.parquet"
MEDIA_JPEG_FIXTURE = "/tmp/ta_ray_fixtures/media_jpeg_n200_s43.parquet"
MEDIA_TILES_RGB_FIXTURE = "/tmp/ta_ray_fixtures/media_tiles_rgb_n200_s44.parquet"
MEDIA_JPEG_RGB_FIXTURE = "/tmp/ta_ray_fixtures/media_jpeg_rgb_n200_s44.parquet"
AUDIO_FIXTURE = "/tmp/ta_ray_fixtures/audio_n200_s42.parquet"
VIDEO_FIXTURE = "/tmp/ta_ray_fixtures/video_n200_s42.parquet"

LEN_BUCKET = 32  # doc_len bucket width for the SQL-expressible sig blocking
SEARCH_NEEDLE = "data"

# Clustered embedding fixture (knn_pq_recall_clustered): derived from
# vec_id ALONE so the identical vectors are replayable in SQL with the
# mix64 chain CTEs. cluster = vec_id // CLUST_SIZE; component t of the
# cluster centroid = mix64((cluster*dim + t) ^ SALT_A) % 2001 - 1000;
# per-row noise = mix64((vec_id*dim + t) ^ SALT_B) % 41 - 20. Inter-
# cluster distance ~6500 vs intra ~130, so exact top-5 = the 5 cluster
# mates; clusters are size CLUST_SIZE = k+1 so a working PQ index must
# recover exactly those mates.
CLUST_DIM = 64
CLUST_SIZE = 6
CLUST_SALT_A = (101 * 0x9E3779B97F4A7C15) % 2**64
CLUST_SALT_B = (103 * 0x9E3779B97F4A7C15) % 2**64


def _clustered_vectors(ids: np.ndarray, dim: int) -> np.ndarray:
    """(len(ids), dim) int64 matrix of the clustered fixture rows."""
    from ..pipeline.blocking import _mix64

    ids = np.asarray(ids, np.int64)
    t_idx = np.arange(dim, dtype=np.int64)
    key_a = ((ids // CLUST_SIZE)[:, None] * dim + t_idx[None, :]).astype(
        np.uint64) ^ np.uint64(CLUST_SALT_A)
    cent = (_mix64(key_a) % np.uint64(2001)).astype(np.int64) - 1000
    key_b = (ids[:, None] * dim + t_idx[None, :]).astype(
        np.uint64) ^ np.uint64(CLUST_SALT_B)
    noise = (_mix64(key_b) % np.uint64(41)).astype(np.int64) - 20
    return cent + noise


# --------------------------------------------------------------- helpers

def _t(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _clustered_emb(sf_dir: str, nq: int = 10):
    """(emb Dataset, queries Table) of the planted-cluster fixture over
    the sf embeddings ids. Query ids are the ``nq`` SMALLEST vec_ids —
    derived from the fixture (round-4 advice: an arange(10) assumption
    would silently diverge from the oracle's ORDER BY vec_id LIMIT 10 on
    a fixture with non-contiguous ids)."""
    dim = CLUST_DIM
    ids_ds = read_parquet_clean(_t(sf_dir, "embeddings"), columns=["vec_id"])

    def _synth(t: pa.Table) -> pa.Table:
        ids = np.asarray(
            t["vec_id"].to_numpy(zero_copy_only=False), np.int64)
        V = _clustered_vectors(ids, dim)
        off = pa.array(
            np.arange(0, (len(ids) + 1) * dim, dim, dtype=np.int32))
        return pa.table(
            {"vec_id": pa.array(ids, pa.int64()),
             "embedding": pa.ListArray.from_arrays(
                 off, pa.array(V.ravel().astype(np.float64),
                               pa.float64()))})

    emb = ids_ds.map_batches(_synth, batch_format="pyarrow")
    all_ids = pq.read_table(
        _t(sf_dir, "embeddings"), columns=["vec_id"])["vec_id"]
    q_ids = np.sort(np.asarray(
        all_ids.to_numpy(zero_copy_only=False), np.int64))[:nq]
    Vq = _clustered_vectors(q_ids, dim)
    qoff = pa.array(
        np.arange(0, (len(q_ids) + 1) * dim, dim, dtype=np.int32))
    queries_table = pa.table(
        {"vec_id": pa.array(q_ids, pa.int64()),
         "embedding": pa.ListArray.from_arrays(
             qoff, pa.array(Vq.ravel().astype(np.float64),
                            pa.float64()))})
    return emb, queries_table


# Session-scoped memo of the materialized ER intermediates, keyed by
# fixture dir: eleven er_* queries share the docs -> blocks -> pairs ->
# edges lineage, and without pinning, EVERY one re-executes it from the
# parquet scan (the driver's 50-query correctness gate pays that ~11x).
# Deterministic lineage + deterministic fixture => identical blocks; the
# materialized datasets live in the object store for the session.
_ER_DS_CACHE: Dict[tuple, object] = {}


def _er_docs_ds(sf_dir: str):
    tp, _ = ensure_fixture(sf_dir)
    key = ("docs", tp)
    if key not in _ER_DS_CACHE:
        _ER_DS_CACHE[key] = build_docs(
            read_parquet_clean(tp), num_buckets=16).materialize()
    return _ER_DS_CACHE[key]


def _docs_sorted_cols(ds):
    return ds.select_columns(["conv_id", "doc_text", "n_turns", "doc_len", "role_sig"])


def _sig_pairs(docs_ds):
    """SQL-expressible blocking: block_key = role_sig + '|' + doc_len//W.
    No hot-block cap here (the oracle join has none either); the capped
    production path lives in pipeline.pairs."""

    def _key(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select(["conv_id", "doc_text", "doc_len", "role_sig"]))
        df = df.with_columns(
            (pl.col("role_sig") + "|" + (pl.col("doc_len") // LEN_BUCKET).cast(pl.String))
            .alias("block_key"),
            (pl.col("role_sig").hash(seed=3) % np.uint64(16)).cast(pl.Int32).alias("bucket"),
        )
        return df.to_arrow()

    return (
        docs_ds.map_batches(_key, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(
            _bucket_to_pairs, batch_format="pyarrow",
            fn_kwargs={"cap": 1 << 30, "window": 8},
        )
    )


def _er_edges_ds(sf_dir: str):
    key = ("edges", sf_dir)
    if key in _ER_DS_CACHE:
        return _ER_DS_CACHE[key]
    pairs = _sig_pairs(_er_docs_ds(sf_dir))
    scored = pairs.map_batches(
        PairScorer(rel_k=0.15, abs_min_k=4, abs_max_k=128, min_similarity=0.85),
        batch_format="pyarrow", batch_size=2048,
    )
    _ER_DS_CACHE[key] = scored.map_batches(
        lambda t: t.filter(pc.equal(t["is_match"], True)).select(
            ["a_id", "b_id", "dist", "sim"]
        ),
        batch_format="pyarrow",
    ).materialize()
    return _ER_DS_CACHE[key]


def _adjacent_docs(sf_dir: str, min_len: int | None = None):
    """(a_id, b_id=a_id+1, a_text, b_text) via Ray hash join."""
    # strip parquet pandas metadata: the join operator hashes schemas for
    # deduplication and a metadata dict makes them unhashable (log spam)
    docs = read_parquet_clean(
        _t(sf_dir, "documents"), columns=["doc_id", "text"]
    ).map_batches(
        lambda t: t.replace_schema_metadata(None), batch_format="pyarrow"
    )
    left = docs.map_batches(
        lambda t: t.append_column("next_id", pc.add(t["doc_id"], 1)),
        batch_format="pyarrow",
    )
    j = left.join(
        docs, join_type="inner", num_partitions=8,
        on=("next_id",), right_on=("doc_id",),
        left_suffix="_a", right_suffix="_b",
    )
    out = j.map_batches(
        lambda t: pa.table(
            {
                "a_id": t["doc_id"],
                "b_id": t["next_id"],
                "a_text": t["text_a"],
                "b_text": t["text_b"],
            }
        ),
        batch_format="pyarrow",
    )
    return out


__all__ = [
    "AUDIO_FIXTURE",
    "CLUST_DIM",
    "CLUST_SALT_A",
    "CLUST_SALT_B",
    "CLUST_SIZE",
    "Callable",
    "Dict",
    "FIXTURE_SF001",
    "LEN_BUCKET",
    "LangId",
    "MEDIA_FIXTURE",
    "MEDIA_JPEG_FIXTURE",
    "MEDIA_JPEG_RGB_FIXTURE",
    "MEDIA_PNG_FIXTURE",
    "MEDIA_TILES_FIXTURE",
    "MEDIA_TILES_RGB_FIXTURE",
    "PairScorer",
    "SEARCH_NEEDLE",
    "VIDEO_FIXTURE",
    "_ER_DS_CACHE",
    "_adjacent_docs",
    "_bucket_to_pairs",
    "_clustered_emb",
    "_clustered_vectors",
    "_docs_sorted_cols",
    "_er_docs_ds",
    "_er_edges_ds",
    "_sig_pairs",
    "_t",
    "annotations",
    "audio_features",
    "build_docs",
    "ensure_fixture",
    "exact_dup_groups",
    "fingerprint_batch",
    "knn_bruteforce",
    "knn_ivf",
    "media_features",
    "minhash_dup_pairs",
    "np",
    "os",
    "pa",
    "pc",
    "pl",
    "pq",
    "quality_score_batch",
    "rd",
    "read_parquet_clean",
    "resize_images",
    "sample_video_frames",
    "search_dataset",
    "sessionize",
    "simhash_dup_pairs",
    "synthesize_audio_table",
    "synthesize_media_table",
    "synthesize_media_table_jpeg",
    "synthesize_media_table_jpeg_rgb",
    "synthesize_media_table_png",
    "synthesize_media_table_tiles",
    "synthesize_media_table_tiles_rgb",
    "synthesize_video_table",
    "token_count_batch",
    "tumbling_window_agg",
]
