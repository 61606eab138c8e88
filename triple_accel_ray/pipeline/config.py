"""Pipeline configuration. One dataclass, explicit knobs for every stage.

Scale notes are inline: every default is chosen to hold at 100 TB /
multi-node (block-size caps bound the quadratic pair stage; bucket counts
size the shuffles; batch sizes bound per-task memory).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernels.types import EditCosts, LEVENSHTEIN_COSTS


@dataclass
class PipelineConfig:
    # --- doc building -----------------------------------------------------
    # CAP on hash buckets for the conv_id shuffle. Since the bucketed
    # shuffles run as sort-with-explicit-boundaries
    # (shuffle.bucket_partition), the bucket count is ALSO the
    # reduce-partition count and therefore the task granularity of every
    # stage fused after the shuffle, so run.py scales the effective count
    # with the input (~8k turns per bucket, floor = cluster CPUs, this
    # cap). At 100 TB raise the cap so buckets stay ~10k rows.
    doc_buckets: int = 512

    # --- blocking ---------------------------------------------------------
    minhash_perms: int = 32
    minhash_bands: int = 16  # rows per band = perms // bands
    shingle_size: int = 5
    blocking_seed: int = 7
    len_band_width: int = 32  # signature-key length bucket width (bytes)

    # --- pair generation --------------------------------------------------
    # like doc_buckets, a CAP: the pair shuffles' reducer count is ALSO the
    # scoring stage's task granularity (the scorer fuses onto the pair-
    # dedup reduce partitions), and the scorer is the pipeline's compute
    # peak. Measured both failure modes of a FIXED count: 32 buckets at
    # sf0.4/16cpu ran the scorer as 15 tasks of 9-26 s (230 core-s total;
    # stage wall = the longest task), while 128 buckets at sf0.1/32cpu
    # added ~1.3 s of per-reducer overhead (300-row buckets). run.py
    # scales the effective count: ~1.5k docs per bucket, floor = cluster
    # CPUs, this cap.
    pair_buckets: int = 512
    # blocks larger than this switch from all-pairs to sorted-neighborhood
    # (explicit skew control; a hot block of n docs emits O(n*window) pairs
    # instead of O(n^2))
    hot_block_cap: int = 64
    hot_block_window: int = 8

    # --- text attachment --------------------------------------------------
    # when the input transcripts' uncompressed size (parquet footers) fits
    # under this many bytes the docs text is broadcast once (an object-store
    # index) and the scorer resolves texts by lookup — no join shuffles;
    # larger corpora use the two bucketed hash joins (the 100TB path)
    broadcast_text_max_bytes: int = 2 << 30

    # --- scoring ----------------------------------------------------------
    rel_k: float = 0.15  # per-pair bound: k = clip(rel_k * max_len, ...)
    abs_min_k: int = 4
    abs_max_k: int = 128
    costs: EditCosts = field(default_factory=lambda: LEVENSHTEIN_COSTS)
    # pairs per scorer call: with the compiled kernel, per-pair cost moves
    # by under 10% from 512 to 8192 pairs, and small batches balance load
    score_batch_size: int = 512
    # match decision: dist within k AND normalized similarity above this
    min_similarity: float = 0.85

    # --- clustering -------------------------------------------------------
    # a CAP on the distributed connected components' bucket count: the
    # op runs one bucket per cluster CPU (shuffle.graph_buckets) and
    # never more than this
    cluster_partitions: int = 32
    cluster_max_iters: int = 25
    # below this many edges the driver-side union-find shortcut is valid
    local_cluster_edge_cap: int = 2_000_000
