"""Pipeline-stage tests: doc building vs a DuckDB oracle, blocking
determinism, pair canonicalization, scorer vs scalar kernel, cluster-path
equivalence, and end-to-end F1 + resume on a small synthetic corpus."""

import os
import shutil

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from triple_accel_ray.kernels.scalar import levenshtein_k_with_opts
from triple_accel_ray.pipeline.blocking import BlockKeyer
from triple_accel_ray.pipeline.cluster import connected_components_local
from triple_accel_ray.pipeline.docs import build_docs_local
from triple_accel_ray.pipeline.metrics import pairwise_f1
from triple_accel_ray.pipeline.pairs import _add_bucket, _bucket_to_pairs
from triple_accel_ray.pipeline.score import PairScorer
from triple_accel_ray.pipeline.transcripts import generate_transcripts


@pytest.fixture(scope="module")
def corpus():
    return generate_transcripts(300, seed=42)


def test_generator_deterministic():
    t1, l1 = generate_transcripts(50, seed=42)
    t2, l2 = generate_transcripts(50, seed=42)
    assert t1.equals(t2) and l1.equals(l2)
    t3, _ = generate_transcripts(50, seed=43)
    assert not t1.equals(t3)


def test_docs_match_duckdb_oracle(corpus):
    transcripts, _ = corpus
    docs = build_docs_local(transcripts)
    con = duckdb.connect()
    con.register("transcripts", transcripts)
    want = con.sql(
        """
        SELECT conv_id,
               string_agg(text, chr(10) ORDER BY turn_idx) AS doc_text,
               count(*)::BIGINT AS n_turns
        FROM transcripts GROUP BY conv_id ORDER BY conv_id
        """
    ).fetch_arrow_table()
    got = (
        docs.select(["conv_id", "doc_text", "n_turns"])
        .sort_by("conv_id")
    )
    assert got.equals(want.cast(got.schema))


def test_blocking_deterministic_and_exact_dup_guarantee(corpus):
    transcripts, _ = corpus
    docs = build_docs_local(transcripts)
    k1 = BlockKeyer()(docs)
    k2 = BlockKeyer()(docs)
    assert k1.equals(k2)
    # identical doc_texts must share at least one block key (the exact-hash
    # family guarantees this even for docs too short for MinHash)
    dup = docs.slice(0, 1)
    two = pa.concat_tables([dup, dup.set_column(
        0, "conv_id", pa.array(["zz_copy"], pa.string()))])
    keys = BlockKeyer()(two)
    import polars as pl

    df = pl.from_arrow(keys)
    shared = (
        df.group_by("block_key")
        .agg(n=pl.col("conv_id").n_unique())
        .filter(pl.col("n") == 2)
    )
    assert shared.height >= 1


def test_pairs_canonical_and_deduped(corpus):
    transcripts, _ = corpus
    docs = build_docs_local(transcripts)
    blocks = BlockKeyer()(docs)
    pairs = _bucket_to_pairs(_add_bucket(blocks, 1), cap=64, window=8)
    a = pairs["a_id"].to_pylist()
    b = pairs["b_id"].to_pylist()
    assert all(x < y for x, y in zip(a, b))
    assert len(set(zip(a, b))) == len(a)


def test_hot_block_cap_bounds_pairs():
    """A pathological block (every doc identical) must emit O(n·window)
    pairs, not O(n²)."""
    n = 500
    docs = pa.table(
        {
            "conv_id": [f"c{i:05d}" for i in range(n)],
            "doc_text": ["same text repeated for everyone"] * n,
            "doc_len": pa.array([31] * n, pa.int64()),
            "role_sig": ["uau"] * n,
        }
    )
    blocks = BlockKeyer()(docs)
    pairs = _bucket_to_pairs(_add_bucket(blocks, 1), cap=64, window=8)
    assert pairs.num_rows <= n * 8


def test_scorer_matches_scalar_kernel(corpus):
    transcripts, _ = corpus
    docs = build_docs_local(transcripts)
    blocks = BlockKeyer(carry_text=True)(docs)
    pairs = _bucket_to_pairs(_add_bucket(blocks, 1), cap=64, window=8)
    scored = PairScorer()(pairs)
    # spot-check every 13th row against the scalar oracle
    at = pairs["a_text"].to_pylist()
    bt = pairs["b_text"].to_pylist()
    dist = scored["dist"].to_pylist()
    kv = scored["k"].to_pylist()
    for i in range(0, len(at), 13):
        want = levenshtein_k_with_opts(at[i].encode(), bt[i].encode(), kv[i])
        if want is None:
            assert dist[i] == -1
        else:
            assert dist[i] == want[0]


def test_skewed_corpus_end_to_end(ray_session, tmp_path):
    """Pathological skew: one giant exact-duplicate block plus normal
    entities. Pair counts must stay bounded (sorted-neighborhood window)
    and the giant block must still resolve to ONE cluster (the window
    chains every member transitively)."""
    import pyarrow.parquet as pq

    from triple_accel_ray.pipeline import PipelineConfig, run_er_pipeline
    import polars as pl

    n_hot = 400
    rows = {"conv_id": [], "turn_idx": [], "role": [], "text": [],
            "tool": [], "ts": []}
    base_ts = 1_700_000_000_000_000
    for i in range(n_hot):
        for t in range(3):
            rows["conv_id"].append(f"h{i:05d}")
            rows["turn_idx"].append(t)
            rows["role"].append("user" if t % 2 == 0 else "assistant")
            rows["text"].append(f"identical turn text number {t} repeated")
            rows["tool"].append("")
            rows["ts"].append(base_ts + i * 1000 + t)
    t = pa.table(
        {
            "conv_id": pa.array(rows["conv_id"], pa.string()),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "role": pa.array(rows["role"], pa.string()),
            "text": pa.array(rows["text"], pa.string()),
            "tool": pa.array(rows["tool"], pa.string()),
            "ts": pa.array(rows["ts"], pa.timestamp("us")),
        }
    )
    tp = str(tmp_path / "hot.parquet")
    pq.write_table(t, tp)
    s = run_er_pipeline(
        tp, str(tmp_path / "run"),
        PipelineConfig(doc_buckets=4, pair_buckets=4),
    )
    # bounded pair generation: far fewer than the 79,800 all-pairs
    assert s["rows"]["pairs"] <= n_hot * 8 * 2
    clusters = pl.from_arrow(pq.read_table(s["clusters_dir"]))
    assert clusters["cluster_id"].n_unique() == 1


def test_explain_edges_traces(ray_session):
    import ray.data as rd

    from triple_accel_ray.pipeline.score import explain_edges

    t = pa.table(
        {
            "a_id": ["x", "y"],
            "b_id": ["x2", "y2"],
            "a_text": ["abcde", "hello world"],
            "b_text": ["abcce", "helo world"],
            "dist": pa.array([1, 1], pa.int64()),
        }
    )
    out = explain_edges(rd.from_arrow(t)).to_pandas().sort_values("a_id")
    tr0 = out.iloc[0]["trace"]
    # abcde -> abcce: Match 3, Mismatch 1, Match 1 (reference vector)
    assert [(e["edit"], e["count"]) for e in tr0] == [
        ("match", 3), ("mismatch", 1), ("match", 1)
    ]
    tr1 = out.iloc[1]["trace"]
    consumed_a = sum(e["count"] * (2 if e["edit"] == "transpose" else 1)
                     for e in tr1 if e["edit"] in
                     ("match", "mismatch", "b_gap", "transpose"))
    assert consumed_a == len("hello world")


def test_cluster_local_transitivity():
    edges = pa.table({"a_id": ["a", "b", "x"], "b_id": ["b", "c", "y"]})
    nodes = pa.table({"conv_id": ["a", "b", "c", "x", "y", "z"]})
    out = connected_components_local(edges, nodes)
    m = dict(zip(out["conv_id"].to_pylist(), out["cluster_id"].to_pylist()))
    assert m["a"] == m["b"] == m["c"] == "a"
    assert m["x"] == m["y"] == "x"
    assert m["z"] == "z"


def test_e2e_f1_and_resume(ray_session, tmp_path):
    from triple_accel_ray.pipeline import PipelineConfig, run_er_pipeline
    from triple_accel_ray.pipeline.transcripts import ensure_fixture
    import pyarrow.parquet as pq

    tdir = str(tmp_path / "fx")
    os.makedirs(tdir, exist_ok=True)
    transcripts, labels = generate_transcripts(120, seed=42)
    tp = os.path.join(tdir, "transcripts.parquet")
    lp = os.path.join(tdir, "labels.parquet")
    pq.write_table(transcripts, tp)
    pq.write_table(labels, lp)

    run_dir = str(tmp_path / "run")
    s = run_er_pipeline(tp, run_dir, PipelineConfig(doc_buckets=8,
                        pair_buckets=8), labels_path=lp)
    assert s["metrics"]["f1"] >= 0.99

    # resume: delete the clusters stage only; rerun must reuse the rest
    shutil.rmtree(os.path.join(run_dir, "clusters"))
    s2 = run_er_pipeline(tp, run_dir, PipelineConfig(doc_buckets=8,
                         pair_buckets=8), labels_path=lp)
    assert s2["metrics"] == s["metrics"]

    # distributed clustering path produces identical F1
    run_dir2 = str(tmp_path / "run2")
    cfg = PipelineConfig(doc_buckets=8, pair_buckets=8,
                         local_cluster_edge_cap=0, cluster_partitions=4)
    s3 = run_er_pipeline(tp, run_dir2, cfg, labels_path=lp)
    assert s3["metrics"]["f1"] == s["metrics"]["f1"]

    # fused (no-checkpoint) mode computes the same clusters
    from triple_accel_ray.pipeline.run import run_er_pipeline_fused

    s4 = run_er_pipeline_fused(
        tp, str(tmp_path / "run3"),
        PipelineConfig(doc_buckets=8, pair_buckets=8), labels_path=lp,
    )
    assert s4["metrics"] == s["metrics"]

    # forced join path (broadcast disabled) computes the same clusters
    s5 = run_er_pipeline_fused(
        tp, str(tmp_path / "run4"),
        PipelineConfig(doc_buckets=8, pair_buckets=8,
                       broadcast_text_max_bytes=0),
        labels_path=lp,
    )
    assert s5["metrics"] == s["metrics"]


def test_pipeline_shuffles_run_one_bucket_per_cpu(ray_session, tmp_path,
                                                  monkeypatch):
    """Every pipeline shuffle (docs, both pair shuffles, both text joins)
    runs one bucket per CPU under the default caps, whatever the input's
    size, and the cap when it is smaller; the clusters are the same."""
    import inspect

    import pyarrow.parquet as pq
    import ray

    from triple_accel_ray.pipeline import PipelineConfig, shuffle
    from triple_accel_ray.pipeline.run import run_er_pipeline_fused

    transcripts, labels = generate_transcripts(120, seed=42)
    tp = str(tmp_path / "transcripts.parquet")
    lp = str(tmp_path / "labels.parquet")
    pq.write_table(transcripts, tp)
    pq.write_table(labels, lp)

    seen = []
    for name in ("bucket_partition", "bucket_join"):
        def spy(*args, _real=getattr(shuffle, name), **kw):
            call = inspect.signature(_real).bind(*args, **kw)
            call.apply_defaults()
            seen.append(call.arguments["num_buckets"])
            return _real(*args, **kw)
        monkeypatch.setattr(shuffle, name, spy)

    def run(tag, **caps):
        seen.clear()
        s = run_er_pipeline_fused(tp, str(tmp_path / tag), PipelineConfig(
            broadcast_text_max_bytes=0, **caps), labels_path=lp)
        return s["metrics"], list(seen)

    ncpus = int(ray.cluster_resources()["CPU"])
    assert ncpus == 4  # the conftest session
    m_default, b_default = run("default")
    m_two, b_two = run("two", doc_buckets=2, pair_buckets=2)
    # docs, pair generation, pair dedup, then two joins (each a join
    # call plus its partition): 3 + 2 * 2 shuffle calls
    assert len(b_default) == len(b_two) == 7
    assert set(b_default) == {ncpus}
    assert set(b_two) == {2}
    assert m_default["f1"] >= 0.99
    assert m_two == m_default


def test_clusters_after_delete_vs_full(ray_session):
    """Targeted delete propagation equals a full recluster of the
    surviving graph: deletions that split a cluster, delete a whole
    cluster, singleton survivors, and untouched clusters (id preserved)."""
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.pipeline.cluster import (clusters_after_delete,
                                                   connected_components)

    # chain a-b-c-d (deleting b splits it), pair e-f (untouched),
    # pair g-h (delete both), singleton i, j linked to deleted k
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("e", "f"), ("g", "h"),
             ("j", "k")]
    nodes = list("abcdefghijk")
    deleted = ["b", "g", "h", "k"]

    et = pa.table({"a_id": pa.array([x for x, _ in edges]),
                   "b_id": pa.array([y for _, y in edges])})
    nt = pa.table({"conv_id": pa.array(nodes)})
    dt = pa.table({"conv_id": pa.array(deleted)})

    keep = [n for n in nodes if n not in deleted]
    ke = [(x, y) for x, y in edges if x in keep and y in keep]
    full = connected_components(
        rd.from_arrow(pa.table({"a_id": pa.array([x for x, _ in ke]),
                                "b_id": pa.array([y for _, y in ke])})),
        rd.from_arrow(pa.table({"conv_id": pa.array(keep)})),
        num_partitions=4)
    want = {r["conv_id"]: r["cluster_id"] for r in full.take_all()}

    got_ds = clusters_after_delete(
        rd.from_arrow(et).repartition(2), rd.from_arrow(nt).repartition(2),
        rd.from_arrow(dt), num_partitions=4)
    got = {r["conv_id"]: r["cluster_id"] for r in got_ds.take_all()}
    assert got == want
    assert got["e"] == got["f"] == "e"   # untouched cluster id preserved
    assert got["a"] == "a" and got["c"] == got["d"] == "c"  # split
    assert got["j"] == "j"               # lost its only neighbor


def test_connected_components_three_way_differential(ray_session):
    """Stationary engine == driver union-find on a DEEP random graph
    (chains welded by random bridges — components whose diameter far
    exceeds the edge-hop count; the pointer-jumping shortcut must close
    them in O(log d) iterations), and on a shallower bridge-free graph
    at other block and bucket counts."""
    import random

    import ray.data as rd

    from triple_accel_ray.pipeline.cluster import (
        connected_components,
        connected_components_local,
    )

    def build_graph(n, max_chain, n_bridges, seed):
        rng = random.Random(seed)
        nodes = [f"c{i:05d}" for i in range(n)]
        ids = nodes[:]
        rng.shuffle(ids)
        edges = []
        i = 0
        while i < n - 1:
            ln = rng.randrange(2, max_chain + 1)
            for j in range(i, min(i + ln - 1, n - 2)):
                edges.append((ids[j], ids[j + 1]))
            i += ln
        for _ in range(n_bridges):
            a, b = rng.sample(nodes, 2)
            edges.append((a, b))
        rng.shuffle(edges)
        et = pa.table({"a_id": [a for a, _ in edges],
                       "b_id": [b for _, b in edges]})
        nt = pa.table({"conv_id": nodes})
        return et, nt

    # deep graph: stationary vs union-find (25 default iters suffice
    # only because of the jump shortcut — without it this graph needs
    # >60 edge hops)
    et, nt = build_graph(400, 12, 60, seed=23)
    want = (connected_components_local(et, nt).to_pandas()
            .sort_values("conv_id").reset_index(drop=True))
    got_s = (connected_components(
                 rd.from_arrow(et).repartition(7),
                 rd.from_arrow(nt).repartition(5), num_partitions=4)
             .to_pandas().sort_values("conv_id").reset_index(drop=True))
    assert got_s.equals(want)

    # shallow graph: stationary engine vs union-find
    et2, nt2 = build_graph(150, 4, 0, seed=29)
    want2 = (connected_components_local(et2, nt2).to_pandas()
             .sort_values("conv_id").reset_index(drop=True))
    got_d = (connected_components(
                 rd.from_arrow(et2).repartition(3),
                 rd.from_arrow(nt2).repartition(2), num_partitions=4)
             .to_pandas().sort_values("conv_id").reset_index(drop=True))
    assert got_d.equals(want2)


def _welded_chains(n, max_chain, n_bridges, seed):
    """Random chains of 2..max_chain nodes welded by random bridges, with
    shuffled ids and edge order: the deep graph of
    test_connected_components_three_way_differential."""
    import random

    rng = random.Random(seed)
    nodes = [f"c{i:05d}" for i in range(n)]
    ids = nodes[:]
    rng.shuffle(ids)
    edges = []
    i = 0
    while i < n - 1:
        ln = rng.randrange(2, max_chain + 1)
        for j in range(i, min(i + ln - 1, n - 2)):
            edges.append((ids[j], ids[j + 1]))
        i += ln
    for _ in range(n_bridges):
        edges.append(tuple(rng.sample(nodes, 2)))
    rng.shuffle(edges)
    return (pa.table({"a_id": [a for a, _ in edges],
                      "b_id": [b for _, b in edges]}),
            pa.table({"conv_id": nodes}))


def test_connected_components_bucket_count_is_a_cap(ray_session):
    """``num_partitions`` caps the bucket count; below the cap it is one
    bucket per CPU. On the deep welded-chain graph the
    default cap (32) and a cap of 2 both give the driver union-find's
    labels; the derived count is at most the session's CPUs, and equals
    the cap when the cap is smaller."""
    import ray
    import ray.data as rd

    from triple_accel_ray.pipeline.cluster import connected_components

    et, nt = _welded_chains(400, 12, 60, seed=23)
    want = (connected_components_local(et, nt).to_pandas()
            .sort_values("conv_id").reset_index(drop=True))
    ncpus = int(ray.cluster_resources()["CPU"])

    def run(**kw):
        stats: dict = {}
        got = (connected_components(rd.from_arrow(et).repartition(7),
                                    rd.from_arrow(nt).repartition(5),
                                    stats=stats, **kw)
               .to_pandas().sort_values("conv_id").reset_index(drop=True))
        return got, stats["buckets"]

    got_default, b_default = run()
    got_two, b_two = run(num_partitions=2)
    assert got_default.equals(want)
    assert got_two.equals(want)
    assert b_default <= max(2, ncpus)  # raw_exchange runs >= 2
    assert b_default == min(32, max(2, ncpus))
    assert b_two == 2


def test_summary_cluster_entry(ray_session, tmp_path):
    """Both run modes put one ``cluster`` entry in the summary: the
    distributed connected components' buckets, rounds and message rows,
    or None when the driver union-find shortcut ran."""
    import pyarrow.parquet as pq
    import ray

    from triple_accel_ray.pipeline import PipelineConfig, run_er_pipeline
    from triple_accel_ray.pipeline.run import run_er_pipeline_fused

    transcripts, _ = generate_transcripts(60, seed=42)
    tp = str(tmp_path / "transcripts.parquet")
    pq.write_table(transcripts, tp)
    small = dict(doc_buckets=4, pair_buckets=4)
    s_dist = run_er_pipeline_fused(tp, str(tmp_path / "fused"), PipelineConfig(
        local_cluster_edge_cap=0, **small))
    s_local = run_er_pipeline(tp, str(tmp_path / "ck"), PipelineConfig(**small))
    assert s_dist.keys() == s_local.keys()
    assert s_local["cluster"] is None
    c = s_dist["cluster"]
    assert sorted(c) == ["buckets", "msg_rows", "rounds"]
    ncpus = int(ray.cluster_resources()["CPU"])
    assert c["buckets"] == min(32, max(2, ncpus))
    assert c["rounds"] >= 1 and c["msg_rows"] > 0
    assert s_dist["rows"]["edges"] > 0


def test_connected_components_edge_cases(ray_session):
    """Stationary CC corner shapes: no edges (all singletons), one giant
    star, duplicate + self-loop edges."""
    import ray.data as rd

    from triple_accel_ray.pipeline.cluster import connected_components

    nodes = pa.table({"conv_id": [f"n{i}" for i in range(20)]})

    # no edges: everyone their own cluster
    empty = pa.table({"a_id": pa.array([], pa.string()),
                      "b_id": pa.array([], pa.string())})
    out = (connected_components(rd.from_arrow(empty), rd.from_arrow(nodes),
                                num_partitions=3)
           .to_pandas().sort_values("conv_id").reset_index(drop=True))
    assert (out["conv_id"] == out["cluster_id"]).all() and len(out) == 20

    # giant star + duplicate edges + self loops: one cluster rooted at n0
    a = ["n0"] * 19 + ["n0", "n5", "n7"]
    b = [f"n{i}" for i in range(1, 20)] + ["n1", "n5", "n0"]
    star = pa.table({"a_id": a, "b_id": b})
    out = (connected_components(rd.from_arrow(star).repartition(4),
                                rd.from_arrow(nodes), num_partitions=3)
           .to_pandas())
    assert (out["cluster_id"] == "n0").all() and len(out) == 20


def test_connected_components_deterministic_row_order(ray_session):
    """Two runs on the same multi-block input (node ids repeated across
    blocks) return tables equal row for row, compared unsorted: the label
    slices keep first-seen node order through every merge, so the output
    written does not vary between runs."""
    import random

    import ray
    import ray.data as rd
    from ray.data import DataContext

    from triple_accel_ray.pipeline.cluster import connected_components

    rng = random.Random(37)
    ids = [f"d{i:04d}" for i in range(600)]
    edges = [tuple(rng.sample(ids, 2)) for _ in range(450)]
    et = pa.table({"a_id": [a for a, _ in edges],
                   "b_id": [b for _, b in edges]})
    nt = pa.table({"conv_id": ids + rng.sample(ids, 300)})

    opts = DataContext.get_current().execution_options
    keep = opts.preserve_order
    opts.preserve_order = True  # fix block order; rows are under test
    try:
        runs = [connected_components(
                    rd.from_arrow(et).repartition(6),
                    rd.from_arrow(nt).repartition(5), num_partitions=4)
                .to_arrow_refs() for _ in range(2)]
    finally:
        opts.preserve_order = keep
    first, second = (pa.concat_tables(ray.get(r)) for r in runs)
    assert first.num_rows == 600
    assert first.equals(second)


def test_connected_components_delta_telemetry(ray_session):
    """Round-5 delta propagation: (a) the stats dict records
    per-iteration message volumes and changed counts; (b) message
    volume TELESCOPES — later propagate rounds ship strictly less than
    the first (only dirty sources emit), which the pre-delta engine
    did not do (constant O(edges) per round); (c) labels still equal
    union-find exactly on a chain + clusters graph."""
    import ray.data as rd

    from triple_accel_ray.pipeline.cluster import (
        connected_components,
        connected_components_local,
    )

    # one 120-node chain + 40 triangles, shuffled edge order
    import random

    rng = random.Random(31)
    edges = [(f"x{i:04d}", f"x{i + 1:04d}") for i in range(119)]
    base = 200
    for t in range(40):
        a, b, c = (f"x{base + 3 * t:04d}", f"x{base + 3 * t + 1:04d}",
                   f"x{base + 3 * t + 2:04d}")
        edges += [(a, b), (b, c), (a, c)]
    rng.shuffle(edges)
    nodes = sorted({x for e in edges for x in e})
    et = pa.table({"a_id": [a for a, _ in edges],
                   "b_id": [b for _, b in edges]})
    nt = pa.table({"conv_id": nodes})

    stats: dict = {}
    got = (connected_components(
               rd.from_arrow(et).repartition(9),
               rd.from_arrow(nt).repartition(4), num_partitions=4,
               stats=stats)
           .to_pandas().sort_values("conv_id").reset_index(drop=True))
    want = (connected_components_local(et, nt).to_pandas()
            .sort_values("conv_id").reset_index(drop=True))
    assert got.equals(want)

    prop = stats["propagate_msg_rows"]
    assert len(prop) >= 3                      # chain needs >1 round
    assert stats["changed"][-1] == 0           # exact fixpoint
    # one entry per round in every list (the converging round ships 0
    # jump rows)
    assert len(stats["changed"]) == len(prop) == len(stats["jump_msg_rows"])
    assert stats["jump_msg_rows"][-1] == 0
    # telescoping: once triangles settle, only chain-frontier nodes
    # stay dirty — volume must drop well below the full first round
    assert min(prop[1:]) < prop[0]
    assert prop[-1] < prop[0] // 2


def test_connected_components_nonconvergence_raises(ray_session):
    """Exact or raise: a shuffled chain given fewer rounds than its
    fixpoint needs raises instead of returning stale labels."""
    import random

    import ray.data as rd

    from triple_accel_ray.pipeline.cluster import connected_components

    n = 300
    edges = [(f"c{i:04d}", f"c{i + 1:04d}") for i in range(n - 1)]
    random.Random(5).shuffle(edges)
    et = pa.table({"a_id": [a for a, _ in edges],
                   "b_id": [b for _, b in edges]})
    nt = pa.table({"conv_id": [f"c{i:04d}" for i in range(n)]})

    def run(max_iters, stats=None):
        return connected_components(
            rd.from_arrow(et).repartition(8), rd.from_arrow(nt),
            num_partitions=4, max_iters=max_iters, stats=stats,
        ).to_pandas()

    stats: dict = {}
    out = run(25, stats)
    assert (out["cluster_id"] == "c0000").all()
    rounds = len(stats["changed"])
    assert rounds >= 2
    with pytest.raises(RuntimeError, match="no fixpoint"):
        run(rounds - 1)


def test_fixture_cache_keyed_on_generator(tmp_path, monkeypatch):
    """ensure_fixture's cache key includes a digest of the generator
    source: a changed generator writes its own corpus instead of reading
    the one another generator left behind."""
    from triple_accel_ray.pipeline import transcripts as tr

    monkeypatch.setattr(tr, "FIXTURE_ROOT", str(tmp_path))
    sf_dir = str(tmp_path / "sf0.0001")
    tp, lp = tr.ensure_fixture(sf_dir)
    assert tp.startswith(str(tmp_path))
    assert os.path.basename(os.path.dirname(tp)).endswith(
        tr._generator_digest())
    assert tr.ensure_fixture(sf_dir) == (tp, lp)  # cache hit

    # another generator version: a different directory, freshly written
    monkeypatch.setattr(tr, "_generator_digest", lambda: "0ther0")
    tp2, lp2 = tr.ensure_fixture(sf_dir)
    assert os.path.dirname(tp2) != os.path.dirname(tp)
    assert os.path.exists(tp2) and os.path.exists(lp2)
    assert os.path.exists(tp)  # the first corpus is left untouched


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_er_pipeline_no_matches(ray_session, tmp_path):
    """A corpus with no candidate pairs at all (every doc distinct) runs
    through both modes, with no warning from reading an empty stage:
    every doc is its own cluster."""
    import pyarrow.parquet as pq

    from triple_accel_ray.pipeline import PipelineConfig, run_er_pipeline
    from triple_accel_ray.pipeline.run import run_er_pipeline_fused

    rng = np.random.default_rng(0)
    n = 6
    texts = [rng.integers(97, 123, 200, dtype=np.uint8).tobytes().decode()
             for _ in range(n)]
    tp = str(tmp_path / "distinct.parquet")
    pq.write_table(pa.table({
        "conv_id": [f"c{i}" for i in range(n)],
        "turn_idx": pa.array([0] * n, pa.int32()),
        "role": ["user"] * n, "text": texts, "tool": [""] * n,
        "ts": pa.array([0] * n, pa.timestamp("us")),
    }), tp)
    cfg = PipelineConfig(doc_buckets=2, pair_buckets=2)
    s1 = run_er_pipeline_fused(tp, str(tmp_path / "fused"), cfg)
    s2 = run_er_pipeline(tp, str(tmp_path / "ck"), PipelineConfig(
        doc_buckets=2, pair_buckets=2, local_cluster_edge_cap=0,
        cluster_partitions=2))
    assert s2["rows"]["pairs"] == 0
    for s in (s1, s2):
        assert s["rows"]["edges"] == 0
        out = pq.read_table(s["clusters_dir"])
        assert sorted(out["conv_id"].to_pylist()) == sorted(
            out["cluster_id"].to_pylist()) == [f"c{i}" for i in range(n)]


def test_text_lookup_raises_on_unknown_id(ray_session):
    """The id→text lookup shared by the broadcast scorer and the dedup
    ops' text attachment raises on an id the index lacks instead of
    attaching a null text."""
    import ray

    from triple_accel_ray.pipeline.score import TextLookup, build_text_index

    look = TextLookup(ray.put(build_text_index(
        pa.table({"conv_id": ["a", "b"], "doc_text": ["x", "y"]}))))
    assert look(pa.array(["b", "a"])).to_pylist() == ["y", "x"]
    with pytest.raises(KeyError):
        look(pa.array(["a", "zz"]))
