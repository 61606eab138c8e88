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
    # CAP on hash buckets for the conv_id shuffle: the shuffle runs one
    # bucket per cluster CPU (shuffle.shuffle_buckets) and never more than
    # this. The bucket count is also the reduce-partition count
    # (shuffle.bucket_partition) and so the task granularity of every stage
    # fused after the shuffle.
    doc_buckets: int = 512

    # --- blocking ---------------------------------------------------------
    minhash_perms: int = 32
    minhash_bands: int = 16  # rows per band = perms // bands
    shingle_size: int = 5
    blocking_seed: int = 7
    len_band_width: int = 32  # signature-key length bucket width (bytes)

    # --- pair generation --------------------------------------------------
    # like doc_buckets, a CAP on one bucket per cluster CPU, for the two
    # pair shuffles and the two text joins. The pair-dedup reducer count is
    # also the scoring stage's task granularity (the scorer fuses onto its
    # reduce partitions).
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
    # op runs one bucket per cluster CPU (shuffle.shuffle_buckets) and
    # never more than this
    cluster_partitions: int = 32
    cluster_max_iters: int = 25
    # below this many edges the driver-side union-find shortcut is valid
    local_cluster_edge_cap: int = 2_000_000
