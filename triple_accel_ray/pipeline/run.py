"""End-to-end entity-resolution pipeline, written once as a stage graph.

read_parquet(transcripts)
  → docs      build_docs   (shuffle 1: conv_id buckets)
  → blocks    build_blocks (stateless vectorized map)
  → pairs     gen_pairs    (shuffles 2-3: block_key buckets, skew-capped;
                            pair-hash buckets, global dedup)
  → edges     PairScorer   (texts from a broadcast index or two bucketed
                            joins; kernel hot loop; is_match filter)
  → clusters  connected components (driver union-find below
                            ``local_cluster_edge_cap``, else the
                            distributed label-propagation fixpoint)

``STAGES`` lists the stages in order. Each has one build function, the
earlier stages it reads, and its own fingerprint fields. Two
materialization policies run that list:

- object store (``run_er_pipeline_fused``, the max-throughput mode): a
  stage is materialized only when more than one later step reads it
  (docs and edges); every other stage streams into its reader.
- checkpoint (``run_er_pipeline``, the durable mode): every stage is
  written to Parquet with a manifest (checkpoint.py) and the next stage
  reads it back; a rerun with unchanged inputs resumes after the last
  complete stage.

The clusters stage is written to ``{run_dir}/clusters`` in both. Both
return one summary (the checkpoint policy also writes it to
``summary.json``): ``mode``, ``clusters_dir``, ``rows`` and ``wall``
(seconds) per stage, ``cluster`` (the distributed connected components'
``buckets``, ``rounds`` and ``msg_rows``, or null when the driver
union-find shortcut ran or the clusters stage was resumed), and
``metrics`` (pairwise F1) when labels are given.
Rows are listed where they are known without a pass over the data; a
streamed stage has no wall of its own, its time falls in the stage that
materializes it. Callers own the Ray session — nothing here calls
ray.init().
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from .blocking import build_blocks
from .checkpoint import read_manifest, run_stage
from .cluster import connected_components, connected_components_local
from .config import PipelineConfig
from .docs import build_docs
from .metrics import pairwise_f1
from .pairs import attach_pair_texts, gen_pairs
from .score import BroadcastTextScorer, PairScorer, build_text_index_remote
from .shuffle import cluster_cpus, shuffle_buckets
from .transcripts import count_rows, uncompressed_bytes


def _fingerprint(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _read_blocks() -> int:
    """Read parallelism for the transcripts scan: ~1 block per cluster CPU.
    Measured (sf0.4, 1M rows): the docs groupby-shuffle is ~2.5x slower fed
    64 input blocks than ncpus blocks (5.9 s vs 2.2 s at 32 CPUs; the
    per-block sort-map scheduling and object churn dominate), and the cost
    is size-independent so it was the pipeline's largest FIXED serial term.
    On a real cluster this is still ~1 block per core fleet-wide."""
    ncpus = cluster_cpus()
    return 32 if ncpus is None else max(8, ncpus)


class _Run:
    """What the stage builders see: the input, the config, and each
    earlier stage's output and row count (when known). An output is a
    Dataset (object store) or the directory it was written to
    (checkpoint); ``ds`` and ``table`` read either."""

    def __init__(self, transcripts_path: str, cfg: PipelineConfig):
        self.path = transcripts_path
        self.cfg = cfg
        self.out: dict = {}
        self.rows: dict = {}
        self.cluster: Optional[dict] = None  # distributed CC's stats

    def ds(self, stage: str):
        out = self.out[stage]
        if not isinstance(out, str):
            return out
        # a zero-row checkpoint may hold no file, and Ray Data's read of it
        # averages an empty size sample ("Mean of empty slice")
        return rd.read_parquet(out) if self.rows[stage] else rd.from_items([])

    def table(self, stage: str, columns: list) -> pa.Table:
        """``columns`` (string ids) of a stage as one driver-side table."""
        if not self.rows[stage]:
            # an empty stage may have written no file at all
            return pa.table({c: pa.array([], pa.string()) for c in columns})
        out = self.out[stage]
        if isinstance(out, str):
            return pq.read_table(out, columns=columns)
        import ray

        # arrow refs, no pandas round trip (that measured 2.7 s of
        # driver-serial time at sf0.4)
        return pa.concat_tables(
            [t for t in ray.get(out.select_columns(columns).to_arrow_refs())
             if t.num_rows])


def _docs(r: _Run):
    return build_docs(
        rd.read_parquet(r.path, override_num_blocks=_read_blocks()),
        shuffle_buckets(r.cfg.doc_buckets),
    )


def _blocks(r: _Run):
    c = r.cfg
    return build_blocks(r.ds("docs"), keyer_kwargs=dict(
        num_perm=c.minhash_perms, n_bands=c.minhash_bands,
        shingle=c.shingle_size, seed=c.blocking_seed,
        len_band_width=c.len_band_width,
    ))


def _pairs(r: _Run):
    c = r.cfg
    return gen_pairs(
        r.ds("blocks"),
        num_buckets=shuffle_buckets(c.pair_buckets),
        hot_block_cap=c.hot_block_cap,
        hot_block_window=c.hot_block_window,
    )


def _match_edges(t: pa.Table) -> pa.Table:
    # pairs are globally unique after gen_pairs' dedup shuffle, so edge
    # extraction is a stateless filter — no extra shuffle needed here
    return t.filter(pc.equal(t["is_match"], True)).select(
        ["a_id", "b_id", "dist", "sim"])


def _edges(r: _Run):
    c = r.cfg
    kw = dict(rel_k=c.rel_k, abs_min_k=c.abs_min_k, abs_max_k=c.abs_max_k,
              costs=c.costs, min_similarity=c.min_similarity)
    docs = r.ds("docs")
    # the input's uncompressed size (parquet footers) decides small-side
    # broadcast vs the two bucketed text joins: no pass over the data
    if uncompressed_bytes(r.path) <= c.broadcast_text_max_bytes:
        # the index builds in a remote task from the docs blocks (free
        # refs on a materialized stage), so the driver never copies the
        # text and the build overlaps the pairs stream
        scorer = BroadcastTextScorer(
            build_text_index_remote(docs.to_arrow_refs()), **kw)
        pairs = r.ds("pairs")
    else:
        scorer = PairScorer(**kw)
        pairs = attach_pair_texts(
            r.ds("pairs"), docs, num_partitions=shuffle_buckets(c.pair_buckets))
    return pairs.map_batches(
        scorer, batch_format="pyarrow", batch_size=c.score_batch_size,
    ).map_batches(_match_edges, batch_format="pyarrow")


def _clusters(r: _Run):
    c = r.cfg
    if r.rows["edges"] <= c.local_cluster_edge_cap:
        # small-graph shortcut: id columns only reach the driver
        return connected_components_local(
            r.table("edges", ["a_id", "b_id"]), r.table("docs", ["conv_id"]))
    r.cluster = {}
    return connected_components(
        r.ds("edges"), r.ds("docs").select_columns(["conv_id"]),
        num_partitions=c.cluster_partitions, max_iters=c.cluster_max_iters,
        stats=r.cluster,
    )


def _cluster_summary(stats: Optional[dict]) -> Optional[dict]:
    """The summary's ``cluster`` entry: the distributed CC's bucket
    count, rounds and message rows; None when it did not run (the driver
    union-find shortcut, or a resumed clusters checkpoint)."""
    if stats is None:
        return None
    return {"buckets": stats["buckets"], "rounds": len(stats["changed"]),
            "msg_rows": (sum(stats["propagate_msg_rows"])
                         + sum(stats["jump_msg_rows"]))}


@dataclass(frozen=True)
class Stage:
    name: str
    build: Callable[[_Run], object]  # -> Dataset, or a pa.Table result
    # config fields that shape the output (the checkpoint fingerprint)
    fingerprint: Callable[[PipelineConfig], tuple]
    reads: tuple = ()   # earlier stages whose rows it consumes
    counts: tuple = ()  # earlier stages whose row count it needs


STAGES = (
    Stage("docs", _docs, lambda c: (c.doc_buckets,)),
    Stage("blocks", _blocks, lambda c: (
        c.minhash_perms, c.minhash_bands, c.shingle_size, c.blocking_seed,
        c.len_band_width), reads=("docs",)),
    Stage("pairs", _pairs, lambda c: (
        c.pair_buckets, c.hot_block_cap, c.hot_block_window),
        reads=("blocks",)),
    Stage("edges", _edges, lambda c: (
        c.rel_k, c.abs_min_k, c.abs_max_k, c.min_similarity, str(c.costs)),
        reads=("pairs", "docs")),
    Stage("clusters", _clusters, lambda c: (
        c.cluster_partitions, c.cluster_max_iters),
        reads=("edges", "docs"), counts=("edges",)),
)


def _later_reads(name: str) -> int:
    return sum((s.reads + s.counts).count(name) for s in STAGES)


def _write(out, stage: str, out_dir: str) -> None:
    if isinstance(out, pa.Table):
        pq.write_table(out, os.path.join(out_dir, f"{stage}_0.parquet"))
    else:
        out.write_parquet(out_dir)


def _run_graph(transcripts_path: str, run_dir: str,
               cfg: Optional[PipelineConfig], labels_path: Optional[str],
               checkpoint: bool, resume: bool = True) -> dict:
    r = _Run(transcripts_path, cfg or PipelineConfig())
    os.makedirs(run_dir, exist_ok=True)
    fp = _fingerprint(transcripts_path, os.path.getmtime(transcripts_path))
    wall: dict = {}
    for st in STAGES:
        t0 = time.perf_counter()
        d = os.path.join(run_dir, st.name)
        if checkpoint:
            fp = _fingerprint(fp, *st.fingerprint(r.cfg), f"{st.name}_v1")
            run_stage(run_dir, st.name, fp,
                      lambda tmp, st=st: _write(st.build(r), st.name, tmp),
                      resume)
            r.rows[st.name] = read_manifest(d)["rows"]
            r.out[st.name] = d
        elif st is STAGES[-1]:
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
            _write(st.build(r), st.name, d)
            r.rows[st.name] = count_rows(d)  # parquet footers
        elif _later_reads(st.name) > 1:
            r.out[st.name] = st.build(r).materialize()
            r.rows[st.name] = r.out[st.name].count()  # metadata only
        else:
            r.out[st.name] = st.build(r)  # streams into its one reader
            continue
        wall[st.name] = round(time.perf_counter() - t0, 3)

    clusters_dir = os.path.join(run_dir, STAGES[-1].name)
    summary = {
        "mode": "checkpointed" if checkpoint else "fused",
        "clusters_dir": clusters_dir,
        "rows": r.rows,
        "wall": wall,
        "cluster": _cluster_summary(r.cluster),
    }
    if labels_path:
        summary["metrics"] = pairwise_f1(
            pq.read_table(clusters_dir), pq.read_table(labels_path))
    if checkpoint:  # persisted next to the manifests
        with open(os.path.join(run_dir, "summary.json"), "w") as f:
            json.dump(summary, f, indent=1, default=str)
    return summary


def run_er_pipeline_fused(
    transcripts_path: str,
    run_dir: str,
    cfg: Optional[PipelineConfig] = None,
    labels_path: Optional[str] = None,
) -> dict:
    """Run the stage graph under the object-store policy: one streaming
    execution, no intermediate checkpoints. Returns the summary dict."""
    return _run_graph(transcripts_path, run_dir, cfg, labels_path,
                      checkpoint=False)


def run_er_pipeline(
    transcripts_path: str,
    run_dir: str,
    cfg: Optional[PipelineConfig] = None,
    labels_path: Optional[str] = None,
    resume: bool = True,
) -> dict:
    """Run the stage graph under the checkpoint policy: every stage is
    written under ``run_dir`` and, with ``resume``, a stage whose
    fingerprint matches its manifest is reused. Returns the summary
    dict."""
    return _run_graph(transcripts_path, run_dir, cfg, labels_path,
                      checkpoint=True, resume=resume)


def main(argv=None) -> int:
    """CLI entry point (works under ``ray job submit -- python -m
    triple_accel_ray.pipeline.run ...``). Owns the Ray session (guarded)."""
    import argparse

    import ray

    p = argparse.ArgumentParser(description="Run the ER pipeline")
    p.add_argument("--transcripts", required=True, help="input parquet path")
    p.add_argument("--out", required=True, help="run/checkpoint directory")
    p.add_argument("--labels", default=None, help="labeled pairs parquet")
    p.add_argument("--fused", action="store_true",
                   help="single streaming execution, no stage checkpoints")
    p.add_argument("--no-resume", action="store_true")
    p.add_argument("--num-cpus", type=int, default=None)
    args = p.parse_args(argv)

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    try:
        if args.fused:
            s = run_er_pipeline_fused(
                args.transcripts, args.out, labels_path=args.labels
            )
        else:
            s = run_er_pipeline(
                args.transcripts, args.out, labels_path=args.labels,
                resume=not args.no_resume,
            )
        print(json.dumps(s, default=str))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
