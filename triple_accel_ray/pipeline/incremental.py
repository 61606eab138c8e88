"""Incremental ER: append new transcripts to a completed run.

The append-correctness argument: blocking keys are per-document, so an
append changes candidate generation ONLY for pairs with at least one new
document. Old-old pairs were fully considered by the base run (their
blocks, scores and edges are unchanged), so the increment scores only
  (new × new) ∪ (new × old-sharing-a-block-key)
and unions the resulting match edges with the base edges before
re-deriving clusters. At 10^12-turn scale this is the daily-append path:
cost scales with the append (plus a semi-join against the base block
index), not the corpus.

Requires a completed checkpointed base run (run_er_pipeline); produces the
same artifact layout, updated in place (docs/blocks grow, edges union,
clusters recomputed).
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from .blocking import build_blocks
from .checkpoint import read_manifest, run_stage
from .cluster import connected_components_local
from .config import PipelineConfig
from .docs import build_docs
from .metrics import pairwise_f1
from .pairs import _bucket_to_pairs
from .score import BroadcastTextScorer, build_text_index
from .shuffle import shuffle_buckets


def run_er_incremental(
    new_transcripts_path: str,
    run_dir: str,
    cfg: Optional[PipelineConfig] = None,
    labels_path: Optional[str] = None,
) -> dict:
    import ray

    cfg = cfg or PipelineConfig()
    docs_dir = os.path.join(run_dir, "docs")
    blocks_dir = os.path.join(run_dir, "blocks")
    edges_dir = os.path.join(run_dir, "edges")
    for d in (docs_dir, blocks_dir, edges_dir):
        read_manifest(d)  # raises if the base run is incomplete

    keyer_kwargs = dict(
        num_perm=cfg.minhash_perms,
        n_bands=cfg.minhash_bands,
        shingle=cfg.shingle_size,
        seed=cfg.blocking_seed,
        len_band_width=cfg.len_band_width,
    )

    # 1. docs + blocks for the appended conversations only
    new_docs = build_docs(rd.read_parquet(new_transcripts_path),
                          shuffle_buckets(cfg.doc_buckets)).materialize()
    if new_docs.count() == 0:
        out = {"increment": read_manifest(edges_dir).get("increments", 0),
               "new_docs": 0, "new_pairs_scored": 0, "new_edges": 0,
               "total_edges": read_manifest(edges_dir)["rows"],
               "clusters_dir": os.path.join(run_dir, "clusters")}
        if labels_path:
            out["metrics"] = pairwise_f1(
                pq.read_table(out["clusters_dir"]), pq.read_table(labels_path)
            )
        return out
    new_blocks = build_blocks(new_docs, keyer_kwargs=keyer_kwargs)
    new_blocks_t = pa.concat_tables(
        [t for t in ray.get(new_blocks.to_arrow_refs()) if t.num_rows > 0]
    )

    # 2. affected base blocks: semi-join the base block index on the new
    # keys (broadcast key set — bounded by the append size × n_bands)
    new_keys = pa.compute.unique(new_blocks_t["block_key"])
    base_blocks = pq.read_table(blocks_dir)
    mask = pc.is_in(base_blocks["block_key"], value_set=new_keys)
    affected = base_blocks.filter(mask)

    # 3. candidate pairs within (new ∪ affected) blocks; keep only pairs
    # touching a new doc (old-old pairs were handled by the base run)
    new_ids = set(new_docs.select_columns(["conv_id"]).to_pandas()["conv_id"])
    all_blocks = pa.concat_tables(
        [new_blocks_t.select(affected.column_names), affected]
    )
    pairs = _bucket_to_pairs(
        all_blocks, cap=cfg.hot_block_cap, window=cfg.hot_block_window
    )
    df = pl.from_arrow(pairs)
    df = df.filter(
        pl.col("a_id").is_in(sorted(new_ids))
        | pl.col("b_id").is_in(sorted(new_ids))
    ).unique(subset=["a_id", "b_id"])
    pairs = df.to_arrow()

    # 4. score with a broadcast text index over base + new docs
    base_docs = pq.read_table(docs_dir, columns=["conv_id", "doc_text"])
    new_docs_t = pa.concat_tables(
        [t for t in ray.get(
            new_docs.select_columns(["conv_id", "doc_text"]).to_arrow_refs()
        ) if t.num_rows > 0]
    )
    index_ref = ray.put(
        build_text_index(pa.concat_tables([base_docs, new_docs_t]))
    )
    scorer = BroadcastTextScorer(
        index_ref,
        rel_k=cfg.rel_k, abs_min_k=cfg.abs_min_k, abs_max_k=cfg.abs_max_k,
        costs=cfg.costs, min_similarity=cfg.min_similarity,
    )
    scored = rd.from_arrow(pairs).map_batches(
        scorer, batch_format="pyarrow", batch_size=cfg.score_batch_size
    )
    new_edges = pa.concat_tables(
        [t for t in ray.get(
            scored.map_batches(
                lambda t: t.filter(pc.equal(t["is_match"], True)).select(
                    ["a_id", "b_id", "dist", "sim"]
                ),
                batch_format="pyarrow",
            ).to_arrow_refs()
        ) if t.num_rows > 0]
    ) if pairs.num_rows else pa.table(
        {"a_id": pa.array([], pa.string()), "b_id": pa.array([], pa.string()),
         "dist": pa.array([], pa.int64()), "sim": pa.array([], pa.float64())}
    )

    # 5. persist updated artifacts (append-only parts + fresh manifests)
    inc_id = read_manifest(edges_dir).get("increments", 0) + 1

    def _append_stage(stage_dir, table, name):
        pq.write_table(table, os.path.join(stage_dir, f"inc{inc_id}_{name}.parquet"))
        # refresh manifest rows/files (lineage covers the new part files)
        from .checkpoint import _scan_lineage, MANIFEST
        import json

        man = read_manifest(stage_dir)
        lineage = _scan_lineage(stage_dir)
        man["rows"] = int(sum(lineage.values()))
        man["files"] = lineage
        man["increments"] = inc_id
        with open(os.path.join(stage_dir, MANIFEST), "w") as f:
            json.dump(man, f, indent=1)

    new_docs_full = pa.concat_tables(
        [t for t in ray.get(new_docs.to_arrow_refs()) if t.num_rows > 0]
    )
    _append_stage(docs_dir, new_docs_full.select(pq.read_schema(
        os.path.join(docs_dir, sorted(
            f for f in os.listdir(docs_dir) if f.endswith(".parquet")
        )[0])).names), "docs")
    _append_stage(blocks_dir, new_blocks_t.select(base_blocks.column_names), "blocks")
    _append_stage(edges_dir, new_edges, "edges")

    # 6. clusters over the full edge union
    all_edges = pq.read_table(edges_dir, columns=["a_id", "b_id"])
    all_nodes = pq.read_table(docs_dir, columns=["conv_id"])
    clusters = connected_components_local(all_edges, all_nodes)
    clusters_dir = os.path.join(run_dir, "clusters")
    os.makedirs(clusters_dir, exist_ok=True)
    for f in os.listdir(clusters_dir):
        if f.endswith(".parquet"):
            os.remove(os.path.join(clusters_dir, f))
    pq.write_table(clusters, os.path.join(clusters_dir, "clusters_0.parquet"))
    man_path = os.path.join(clusters_dir, "_MANIFEST.json")
    if os.path.exists(man_path):
        import json

        from .checkpoint import _scan_lineage

        man = read_manifest(clusters_dir)
        lineage = _scan_lineage(clusters_dir)
        man["rows"] = int(sum(lineage.values()))
        man["files"] = lineage
        man["increments"] = inc_id
        with open(man_path, "w") as f:
            json.dump(man, f, indent=1)

    out = {
        "increment": inc_id,
        "new_docs": new_docs_full.num_rows,
        "new_pairs_scored": pairs.num_rows,
        "new_edges": new_edges.num_rows,
        "total_edges": all_edges.num_rows,
        "clusters_dir": clusters_dir,
    }
    if labels_path:
        out["metrics"] = pairwise_f1(clusters, pq.read_table(labels_path))
    return out
