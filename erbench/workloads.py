"""The benchmark's workloads: inputs, timed jobs, traced layer calls, checks.

Each workload times whole jobs through the program's public entry points
(``timed``) or calls each layer's public functions one at a time under
spans (``traced``). The program is imported inside the functions, after
``run.py`` has put the checkout on the import path.

Why these three:

* ``er_fused_dupes`` — nearly every candidate pair is a true duplicate at a
  small distance, so the scorer's accept path and the kernels do most of
  the work. A kernel or scorer change shows here.
* ``er_checkpointed_templates`` — shared system prompts and tool outputs
  make hot blocks (the sorted-neighbourhood fallback), many candidate
  pairs per doc and mostly rejected pairs, some only by the DP; every
  stage is also written and read back. Blocking, pairing, the reject
  path and checkpoint writes show here.
* ``cc_distributed`` — the label-propagation engine alone, at the
  pipeline's partition count. The ER workloads never reach it (they take
  the driver-side union-find shortcut), and it runs no scorer or kernel.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import gen
import oracle

NCPUS = len(os.sched_getaffinity(0))
MIN_WARM = 3            # warm jobs per run, however short --seconds is
INPUT_PARTS = 8         # transcript part files, as a multi-file corpus arrives
KERNEL_SAMPLE = 4096    # candidate pairs replayed in-process when traced
SCORE_SAMPLE = 96       # pairs the independent DP re-scores per check


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_pairs(path: str, key: str, value: str) -> tuple:
    """{key: value} of a parquet directory, and its row count."""
    t = pq.read_table(path, columns=[key, value])
    return dict(zip(t[key].to_pylist(), t[value].to_pylist())), t.num_rows


def _collect(ds) -> pa.Table:
    import ray

    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(parts) if parts else None


@dataclass
class Inputs:
    seed: int
    path: str
    rows: int  # turns for ER, edges for CC
    corpus: gen.Corpus | None = None
    graph: gen.Graph | None = None


class Workload:
    name = ""
    job_spans: tuple = ()  # the traced layer calls that make up one job

    # --- overridden per workload ----------------------------------------
    def make_inputs(self, seed: int, input_dir: str) -> Inputs:
        raise NotImplementedError

    def job(self, inp: Inputs, run_dir: str) -> str:
        """Run one job from input to written result; returns the clusters
        directory."""
        raise NotImplementedError

    def check_output(self, inp: Inputs, clusters_dir: str) -> list:
        raise NotImplementedError

    def check_deep(self, inp: Inputs, run_dir: str) -> list:
        return []

    def layers(self, inp: Inputs, runs: str, tracer) -> tuple:
        """Call each layer's public functions one at a time under spans,
        putting counts in ``tracer.counts``. Returns (per-pair metrics,
        problems found in the outputs)."""
        raise NotImplementedError

    # --- shared ----------------------------------------------------------
    def traced(self, inp: Inputs, runs: str, tracer) -> dict:
        """A cold and a warm job untraced, so the layers are timed warm and
        the warm job is the untraced reference for the tracing overhead;
        then the layer calls."""
        for i in range(2):
            t = time.perf_counter()
            out = self.job(inp, os.path.join(runs, f"untraced{i}"))
            untraced = time.perf_counter() - t
        problems = self.check_output(inp, out)
        t_begin = tracer.now()
        m, found = self.layers(inp, os.path.join(runs, "traced"), tracer)
        m["traced.wall_s"] = tracer.now() - t_begin
        for name, span in _SPAN_OF.items():
            got = tracer.seconds(span)
            m[name] = got[0] if got else 0.0
        roots = sum(s["end"] - s["start"] for s in tracer.spans
                    if s["parent"] is None and s["start"] >= t_begin)
        m["traced.unattributed_s"] = m["traced.wall_s"] - roots
        m["traced.untraced_job_s"] = untraced
        m["traced.job_s"] = sum(sum(tracer.seconds(s)) for s in self.job_spans)
        m["traced.overhead_s"] = m["traced.job_s"] - untraced
        m.update(tracer.counts)
        problems += found
        return {"correct": not problems, "attempted": 3, "failed": 0, "problems": problems,
                "metrics": {k: {"value": m.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}}

    def timed(self, inp: Inputs, runs: str, seconds: float) -> dict:
        """A cold job, then warm jobs for ``seconds`` (at least MIN_WARM).
        Every job's clusters are checked; the deep checks run once, on the
        last job's output."""
        walls, problems, failed = [], [], 0
        out_bytes, t_end, last = None, None, None
        n = 0
        while n < 1 + MIN_WARM or time.perf_counter() < t_end:
            run_dir = os.path.join(runs, f"job{n}")
            n += 1
            t = time.perf_counter()
            try:
                clusters_dir = self.job(inp, run_dir)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                shutil.rmtree(run_dir, ignore_errors=True)
                if t_end is None:
                    t_end = time.perf_counter() + seconds
                continue
            walls.append(time.perf_counter() - t)
            problems += self.check_output(inp, clusters_dir)
            if t_end is None:
                out_bytes = dir_bytes(run_dir)
                t_end = time.perf_counter() + seconds
            if last:
                shutil.rmtree(last, ignore_errors=True)
            last = run_dir
        if last:
            problems += self.check_deep(inp, last)
        metrics = {}
        if len(walls) > 1 and out_bytes:
            metrics = {
                "cold_run_s": {"value": walls[0], "unit": "s"},
                "rows_per_s": {"value": inp.rows / statistics.median(walls[1:]),
                               "unit": "rows/s"},
                "driver_peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
                "output_bytes": {"value": out_bytes, "unit": "bytes"},
            }
        return {"correct": not problems and len(walls) > 1, "attempted": n,
                "failed": failed, "metrics": metrics, "problems": problems}


# ---------------------------------------------------------------------------
# entity resolution

def _cfg():
    from triple_accel_ray.pipeline.config import PipelineConfig

    return PipelineConfig()


def _scorer_kwargs(cfg) -> dict:
    return dict(rel_k=cfg.rel_k, abs_min_k=cfg.abs_min_k, abs_max_k=cfg.abs_max_k,
                costs=cfg.costs, min_similarity=cfg.min_similarity)


def _pair_table(pairs) -> pa.Table:
    """(a bytes, b bytes) list → the scorer's input columns."""
    n = len(pairs)
    return pa.table({
        "a_id": pa.array([f"a{i}" for i in range(n)], pa.string()),
        "b_id": pa.array([f"b{i}" for i in range(n)], pa.string()),
        "a_text": pa.array([a.decode("ascii") for a, _ in pairs], pa.string()),
        "b_text": pa.array([b.decode("ascii") for _, b in pairs], pa.string()),
    })


def _check_scorer(pairs) -> list:
    """Score ``pairs`` with the program's PairScorer and compare every
    dist with the independent DP."""
    from triple_accel_ray.pipeline.score import PairScorer

    got = PairScorer(**_scorer_kwargs(_cfg()))(_pair_table(pairs))
    return oracle.check_scores(pairs, got["dist"].to_numpy())


class ErWorkload(Workload):
    n_entities = 0

    def corpus(self, seed: int) -> gen.Corpus:
        raise NotImplementedError

    def make_inputs(self, seed, input_dir):
        c = self.corpus(seed)
        path = os.path.join(input_dir, "transcripts")
        os.makedirs(path)
        t = c.transcripts
        cuts = np.linspace(0, t.num_rows, INPUT_PARTS + 1).astype(int)
        for i, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            pq.write_table(t.slice(lo, hi - lo),
                           os.path.join(path, f"part-{i:05d}.parquet"))
        return Inputs(seed, path, t.num_rows, corpus=c)

    def check_output(self, inp, clusters_dir):
        cluster_of, n = read_pairs(clusters_dir, "conv_id", "cluster_id")
        return oracle.check_clusters(inp.corpus.docs.keys(), cluster_of, n, inp.corpus)

    def layers(self, inp, runs, tracer):
        import ray.data as rd
        from triple_accel_ray.kernels.batch import bag_distance_batch, levenshtein_k_batch
        from triple_accel_ray.pipeline import checkpoint
        from triple_accel_ray.pipeline.blocking import build_blocks
        from triple_accel_ray.pipeline.cluster import (
            connected_components, connected_components_local)
        from triple_accel_ray.pipeline.docs import build_docs
        from triple_accel_ray.pipeline.pairs import gen_pairs
        from triple_accel_ray.pipeline.score import (
            BroadcastTextScorer, PairScorer, build_text_index_remote)

        cfg = _cfg()
        kw = _scorer_kwargs(cfg)
        c, m = tracer.counts, {}
        corpus = inp.corpus  # make-up of the input, written with the spans
        c["input.rows"] = inp.rows
        c["input.docs"] = len(corpus.docs)
        c["input.template_share"] = corpus.template_bytes / sum(map(len, corpus.docs.values()))
        c["input.mutation_rate"] = corpus.mutation_rate
        c["input.near_miss_entities"] = len(corpus.near_miss_of)
        with tracer.span("docs.build_docs"):
            docs = build_docs(rd.read_parquet(inp.path, override_num_blocks=max(8, NCPUS)),
                              NCPUS).materialize()
        c["docs.rows_out"] = docs.count()
        c["docs.bytes_out"] = docs.size_bytes()
        with tracer.span("blocking.build_blocks"):
            blocks = build_blocks(docs, keyer_kwargs=dict(
                num_perm=cfg.minhash_perms, n_bands=cfg.minhash_bands,
                shingle=cfg.shingle_size, seed=cfg.blocking_seed,
                len_band_width=cfg.len_band_width)).materialize()
        keys = _collect(blocks.select_columns(["block_key"]))["block_key"]
        sizes = keys.value_counts().field("counts").to_numpy()
        c["blocking.rows_out"] = len(keys)
        c["blocking.max_block_docs"] = int(sizes.max())
        c["blocking.hot_blocks"] = int((sizes > cfg.hot_block_cap).sum())
        with tracer.span("pairs.gen_pairs"):
            pairs = gen_pairs(blocks, num_buckets=NCPUS, hot_block_cap=cfg.hot_block_cap,
                              hot_block_window=cfg.hot_block_window).materialize()
        c["pairs.rows_out"] = pairs.count()
        with tracer.span("score.stage"):
            index = build_text_index_remote(
                docs.select_columns(["conv_id", "doc_text"]).to_arrow_refs())
            scored = pairs.map_batches(BroadcastTextScorer(index, **kw),
                                       batch_format="pyarrow",
                                       batch_size=cfg.score_batch_size).materialize()
        st = _collect(scored)
        edges_t = st.filter(st["is_match"]).select(["a_id", "b_id"])
        c["score.candidate_pairs"] = st.num_rows
        c["score.match_yield"] = edges_t.num_rows / max(1, st.num_rows)
        nodes_t = _collect(docs.select_columns(["conv_id"]))
        with tracer.span("cluster.local"):
            local = connected_components_local(edges_t, nodes_t)
        cc_stats: dict = {}
        with tracer.span("cluster.cc"):
            cc = connected_components(rd.from_arrow(edges_t), docs.select_columns(["conv_id"]),
                                      num_partitions=cfg.cluster_partitions,
                                      max_iters=cfg.cluster_max_iters,
                                      stats=cc_stats).materialize()
        problems = []
        for out in (local, _collect(cc)):
            problems += oracle.check_clusters(
                inp.corpus.docs.keys(),
                dict(zip(out["conv_id"].to_pylist(), out["cluster_id"].to_pylist())),
                out.num_rows, inp.corpus)
        c["cluster.cc_iterations"] = len(cc_stats["changed"])
        c["cluster.cc_msg_rows"] = (sum(cc_stats["propagate_msg_rows"])
                                    + sum(cc_stats["jump_msg_rows"]))
        for stage, ds in (("docs", docs), ("blocks", blocks), ("pairs", pairs),
                          ("edges", rd.from_arrow(edges_t))):
            with tracer.span(f"checkpoint.write_{stage}"):
                d = checkpoint.run_stage(runs, stage, stage, ds.write_parquet, resume=False)
            c[f"checkpoint.{stage}_bytes"] = dir_bytes(d)

        # in-process replay of the captured candidate pairs
        docs_t = _collect(docs.select_columns(["conv_id", "doc_text"]))
        cand = st.select(["a_id", "b_id"])
        if cand.num_rows > KERNEL_SAMPLE:
            rng = np.random.default_rng([inp.seed, 7])
            cand = cand.take(np.sort(rng.choice(cand.num_rows, KERNEL_SAMPLE, replace=False)))
        import pyarrow.compute as pc

        texts = docs_t["doc_text"]
        a = texts.take(pc.index_in(cand["a_id"], value_set=docs_t["conv_id"]))
        b = texts.take(pc.index_in(cand["b_id"], value_set=docs_t["conv_id"]))
        n = cand.num_rows
        kvec = np.array([oracle.pair_k(max(x, y)) for x, y in zip(
            pc.binary_length(a).to_pylist(), pc.binary_length(b).to_pylist())])
        with tracer.span("kernels.bag_distance_batch"):
            bag = bag_distance_batch(a, b)
        with tracer.span("kernels.levenshtein_k_batch"):
            dist = levenshtein_k_batch(a, b, kvec, cfg.costs)
        equal = np.array(pc.equal(a, b).to_pylist())
        c["score.bag_rejects"] = int((bag > kvec).sum())
        c["score.dp_rejects"] = int(((bag <= kvec) & ~equal & (dist < 0)).sum())
        batch = pa.table({"a_id": cand["a_id"], "b_id": cand["b_id"], "a_text": a, "b_text": b})
        scorer = PairScorer(**kw)
        for bs in (512, 8192):
            with tracer.span(f"score.pair_scorer_b{bs}"):
                for lo in range(0, n, bs):
                    scorer(batch.slice(lo, bs))
        us = 1e6 / max(1, n)
        m["kernels.levenshtein_k_batch_us_per_pair"] = tracer.seconds("kernels.levenshtein_k_batch")[0] * us
        m["kernels.bag_distance_batch_us_per_pair"] = tracer.seconds("kernels.bag_distance_batch")[0] * us
        for bs in (512, 8192):
            m[f"score.pair_scorer_us_per_pair_b{bs}"] = tracer.seconds(f"score.pair_scorer_b{bs}")[0] * us
        c["score.replayed_pairs"] = n
        problems += [f"kernel {p}" for p in oracle.check_scores(list(zip(
            [x.encode() for x in a.to_pylist()[:SCORE_SAMPLE]],
            [x.encode() for x in b.to_pylist()[:SCORE_SAMPLE]])), dist[:SCORE_SAMPLE])]
        return m, problems


_ER_JOB_SPANS = ("docs.build_docs", "blocking.build_blocks", "pairs.gen_pairs",
                 "score.stage", "cluster.local")


class ErFusedDupes(ErWorkload):
    name = "er_fused_dupes"
    job_spans = _ER_JOB_SPANS
    n_entities = 1200

    def corpus(self, seed):
        return gen.dupes_corpus(seed, self.n_entities)

    def job(self, inp, run_dir):
        from triple_accel_ray.pipeline.run import run_er_pipeline_fused

        return run_er_pipeline_fused(inp.path, run_dir)["clusters_dir"]

    def check_deep(self, inp, run_dir):
        """The fused job exposes no candidate pairs, so the scorer is
        checked on pairs drawn from the truth: same-entity copies (accept
        path) and docs against a copy edited at 8–25% per byte, whose bag
        distance stays under k so the DP decides (both sides of k)."""
        c = inp.corpus
        rng = np.random.default_rng([inp.seed, 8])
        by_ent: dict = {}
        for cid in sorted(c.entity):
            by_ent.setdefault(c.entity[cid], []).append(cid)
        groups = [g for g in by_ent.values() if len(g) > 1]
        pairs = []
        for i in rng.choice(len(groups), SCORE_SAMPLE // 2):
            x, y = rng.choice(groups[i], 2, replace=False)
            pairs.append((c.docs[x], c.docs[y]))
        ids = sorted(c.docs)
        for j, i in enumerate(rng.choice(len(ids), SCORE_SAMPLE // 2)):
            doc = c.docs[ids[i]]
            pairs.append((doc, gen.mutate(rng, doc, (0.08, 0.12, 0.16, 0.25)[j % 4])[0]))
        return _check_scorer(pairs)


class ErCheckpointedTemplates(ErWorkload):
    name = "er_checkpointed_templates"
    job_spans = _ER_JOB_SPANS + tuple(f"checkpoint.write_{s}"
                                      for s in ("docs", "blocks", "pairs", "edges"))
    n_entities = 150

    def corpus(self, seed):
        return gen.templates_corpus(seed, self.n_entities)

    def job(self, inp, run_dir):
        from triple_accel_ray.pipeline.run import run_er_pipeline

        return run_er_pipeline(inp.path, run_dir, resume=False)["clusters_dir"]

    def check_deep(self, inp, run_dir):
        """A seeded sample of the job's own candidate pairs, re-scored by
        the program's PairScorer, and of its match edges as written: both
        against the independent DP."""
        c = inp.corpus
        rng = np.random.default_rng([inp.seed, 8])
        cand = pq.read_table(os.path.join(run_dir, "pairs"), columns=["a_id", "b_id"])
        pick = np.sort(rng.choice(cand.num_rows, min(SCORE_SAMPLE, cand.num_rows),
                                  replace=False))
        pairs = [(c.docs[x], c.docs[y]) for x, y in zip(
            cand["a_id"].take(pick).to_pylist(), cand["b_id"].take(pick).to_pylist())]
        problems = _check_scorer(pairs)
        edges = pq.read_table(os.path.join(run_dir, "edges"), columns=["a_id", "b_id", "dist"])
        pick = np.sort(rng.choice(edges.num_rows, min(SCORE_SAMPLE // 2, edges.num_rows),
                                  replace=False))
        e = edges.take(pick)
        pairs = [(c.docs[x], c.docs[y]) for x, y in zip(
            e["a_id"].to_pylist(), e["b_id"].to_pylist())]
        return problems + [f"edge {p}" for p in oracle.check_scores(pairs, e["dist"].to_numpy())]


# ---------------------------------------------------------------------------
# connected components

class CcDistributed(Workload):
    name = "cc_distributed"
    job_spans = ("cluster.cc",)
    n_nodes = 30000
    n_blocks = 48

    def make_inputs(self, seed, input_dir):
        g = gen.cc_graph(seed, self.n_nodes, self.n_blocks)
        edges = os.path.join(input_dir, "edges")
        os.makedirs(edges)
        for i, t in enumerate(g.edge_blocks):
            pq.write_table(t, os.path.join(edges, f"part-{i:05d}.parquet"))
        pq.write_table(g.nodes, os.path.join(input_dir, "nodes.parquet"))
        return Inputs(seed, input_dir, g.n_edges, graph=g)

    def _read(self, inp):
        import ray.data as rd

        edges = rd.read_parquet(os.path.join(inp.path, "edges"),
                                override_num_blocks=self.n_blocks)
        nodes = rd.read_parquet(os.path.join(inp.path, "nodes.parquet"))
        return edges, nodes

    def job(self, inp, run_dir):
        from triple_accel_ray.pipeline.cluster import connected_components

        edges, nodes = self._read(inp)
        out = os.path.join(run_dir, "clusters")
        cfg = _cfg()
        connected_components(edges, nodes, num_partitions=cfg.cluster_partitions,
                             max_iters=cfg.cluster_max_iters).write_parquet(out)
        return out

    def check_output(self, inp, clusters_dir):
        label_of, n = read_pairs(clusters_dir, "conv_id", "cluster_id")
        return oracle.check_components(label_of, n, inp.graph)

    def layers(self, inp, runs, tracer):
        from triple_accel_ray.pipeline.cluster import (
            connected_components, connected_components_local)

        cfg = _cfg()
        c = tracer.counts
        c["input.nodes"] = len(inp.graph.component_min)
        c["input.edges"] = inp.rows
        c["input.components"] = inp.graph.n_components
        edges, nodes = self._read(inp)
        cc_stats: dict = {}
        with tracer.span("cluster.cc"):
            connected_components(edges, nodes, num_partitions=cfg.cluster_partitions,
                                 max_iters=cfg.cluster_max_iters,
                                 stats=cc_stats).write_parquet(os.path.join(runs, "cc"))
        c["cluster.cc_iterations"] = len(cc_stats["changed"])
        c["cluster.cc_msg_rows"] = (sum(cc_stats["propagate_msg_rows"])
                                    + sum(cc_stats["jump_msg_rows"]))
        et = pa.concat_tables(inp.graph.edge_blocks)
        with tracer.span("cluster.local"):
            local = connected_components_local(et, inp.graph.nodes)
        problems = self.check_output(inp, os.path.join(runs, "cc"))
        problems += oracle.check_components(
            dict(zip(local["conv_id"].to_pylist(), local["cluster_id"].to_pylist())),
            local.num_rows, inp.graph)
        return {}, problems


# ---------------------------------------------------------------------------

PER_LAYER = {  # name -> unit; every traced run reports all of them
    "kernels.levenshtein_k_batch_us_per_pair": "us",
    "kernels.bag_distance_batch_us_per_pair": "us",
    "score.pair_scorer_us_per_pair_b512": "us",
    "score.pair_scorer_us_per_pair_b8192": "us",
    "score.stage_s": "s",
    "score.match_yield": "ratio",
    "score.candidate_pairs": "count",
    "score.bag_rejects": "count",
    "score.dp_rejects": "count",
    "score.replayed_pairs": "count",
    "docs.build_docs_s": "s",
    "docs.rows_out": "count",
    "docs.bytes_out": "bytes",
    "blocking.build_blocks_s": "s",
    "blocking.rows_out": "count",
    "blocking.max_block_docs": "count",
    "blocking.hot_blocks": "count",
    "pairs.gen_pairs_s": "s",
    "pairs.rows_out": "count",
    "cluster.local_s": "s",
    "cluster.cc_s": "s",
    "cluster.cc_iterations": "count",
    "cluster.cc_msg_rows": "count",
    "checkpoint.docs_bytes": "bytes",
    "checkpoint.blocks_bytes": "bytes",
    "checkpoint.pairs_bytes": "bytes",
    "checkpoint.edges_bytes": "bytes",
    "session.ray_init_s": "s",
    "traced.wall_s": "s",
    "traced.unattributed_s": "s",
    "traced.job_s": "s",
    "traced.untraced_job_s": "s",
    "traced.overhead_s": "s",
}

_SPAN_OF = {  # per-layer time metric -> span name
    "score.stage_s": "score.stage",
    "docs.build_docs_s": "docs.build_docs",
    "blocking.build_blocks_s": "blocking.build_blocks",
    "pairs.gen_pairs_s": "pairs.gen_pairs",
    "cluster.local_s": "cluster.local",
    "cluster.cc_s": "cluster.cc",
    "session.ray_init_s": "session.ray_init",
}


WORKLOADS = {w.name: w for w in (ErFusedDupes(), ErCheckpointedTemplates(), CcDistributed())}
