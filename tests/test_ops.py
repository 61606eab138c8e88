"""Ops-layer tests: dedup families, kNN, text analysis, windows, multimodal
plumbing — run on small Ray datasets against straightforward local oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])


def test_exact_dup_groups(docs_ds):
    from triple_accel_ray.ops.dedup import exact_dup_groups

    out = exact_dup_groups(docs_ds, num_buckets=4).to_pandas()
    docs = docs_ds.to_pandas()
    # local oracle
    want = docs.assign(
        dup_group=docs.groupby("text")["doc_id"].transform("min"),
        group_size=docs.groupby("text")["doc_id"].transform("size"),
    )[["doc_id", "dup_group", "group_size"]]
    got = out.sort_values("doc_id").reset_index(drop=True)
    want = want.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_minhash_dup_pairs_finds_planted_dup(ray_session):
    import ray.data as rd

    from triple_accel_ray.ops.dedup import minhash_dup_pairs

    base = "the quick brown fox jumps over the lazy dog " * 8
    near = base.replace("quick", "quickk").replace("lazy", "lazzy")
    other = "completely different content about databases and queries " * 8
    t = pa.table({"doc_id": [1, 2, 3], "text": [base, near, other]})
    out = minhash_dup_pairs(rd.from_arrow(t), threshold=0.6, num_buckets=4).to_pandas()
    assert set(zip(out["a_id"], out["b_id"])) == {("1", "2")}


def test_simhash_dup_pairs(ray_session):
    import ray.data as rd

    from triple_accel_ray.ops.dedup import simhash_dup_pairs

    base = "word vectors and hashing for near duplicate detection " * 6
    near = base[:-3]  # tiny tail edit -> simhash hamming stays small
    other = "unrelated text talking about astronomy and telescopes " * 6
    t = pa.table({"doc_id": [1, 2, 3], "text": [base, near, other]})
    out = simhash_dup_pairs(rd.from_arrow(t), max_hamming=3, num_buckets=4).to_pandas()
    assert ("1", "2") in set(zip(out["a_id"], out["b_id"]))
    assert ("1", "3") not in set(zip(out["a_id"], out["b_id"]))


def test_knn_bruteforce_matches_numpy(ray_session):
    import pyarrow.parquet as pq
    import ray.data as rd

    from triple_accel_ray.ops.similarity import knn_bruteforce

    emb_t = pq.read_table(f"{SF}/embeddings.parquet")
    corpus = rd.from_arrow(emb_t)
    queries = emb_t.slice(0, 5)
    out = knn_bruteforce(corpus, queries, k=3).to_pandas()

    M = np.stack(emb_t["embedding"].to_pandas().to_numpy()).astype(np.float64)
    M /= np.linalg.norm(M, axis=1)[:, None]
    ids = emb_t["vec_id"].to_numpy()
    for qi in range(5):
        sims = M[qi] @ M.T
        order = np.lexsort((ids, -sims))
        order = [i for i in order if ids[i] != ids[qi]][:3]
        want = [int(ids[i]) for i in order]
        got = out[out["query_id"] == ids[qi]].sort_values("rank")["neighbor_id"].tolist()
        assert got == want


def test_knn_ivf_recall(ray_session):
    """IVF is approximate; top-1 neighbor should still match brute force
    for most queries on a clustered corpus."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from triple_accel_ray.ops.similarity import knn_bruteforce, knn_ivf

    emb_t = pq.read_table(f"{SF}/embeddings.parquet")
    corpus = rd.from_arrow(emb_t)
    queries = emb_t.slice(0, 10)
    bf = knn_bruteforce(corpus, queries, k=1).to_pandas()
    ivf = knn_ivf(corpus, queries, k=1, n_centroids=8, nprobe=6).to_pandas()
    merged = bf.merge(ivf, on="query_id", suffixes=("_bf", "_ivf"))
    agree = (merged["neighbor_id_bf"] == merged["neighbor_id_ivf"]).mean()
    assert agree >= 0.7


def test_seeded_sample_order_independent(ray_session):
    """The centroid-build sample must not depend on row/file order
    (a limit(n) head is one shard's prefix at scale): same rows in a
    permuted order -> bit-identical sample matrix and identical knn_ivf
    results."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from triple_accel_ray.ops.similarity import knn_ivf, seeded_vector_sample

    emb_t = pq.read_table(f"{SF}/embeddings.parquet")
    rng = np.random.default_rng(5)
    perm = rng.permutation(emb_t.num_rows)
    emb_perm = emb_t.take(pa.array(perm))

    s1 = seeded_vector_sample(rd.from_arrow(emb_t), 64)
    s2 = seeded_vector_sample(rd.from_arrow(emb_perm), 64)
    assert s1.shape == s2.shape
    assert np.array_equal(s1, s2)

    queries = emb_t.slice(0, 5)
    a = knn_ivf(rd.from_arrow(emb_t), queries, k=3, n_centroids=8,
                nprobe=8).to_pandas().sort_values(
                    ["query_id", "rank"]).reset_index(drop=True)
    b = knn_ivf(rd.from_arrow(emb_perm), queries, k=3, n_centroids=8,
                nprobe=8).to_pandas().sort_values(
                    ["query_id", "rank"]).reset_index(drop=True)
    assert a.equals(b)


def test_token_count_and_quality():
    from triple_accel_ray.ops.text import quality_score_batch, token_count_batch

    t = pa.table({"doc_id": [1, 2, 3], "text": ["the cat  sat", "", "  a1b! "]})
    tc = token_count_batch(t)["token_count"].to_pylist()
    assert tc == [3, 0, 1]
    q = quality_score_batch(t)
    assert q["alpha_count"].to_pylist() == [9, 0, 2]
    assert q["digit_count"].to_pylist() == [0, 0, 1]
    assert q["punct_count"].to_pylist() == [0, 0, 1]
    assert q["stop_count"].to_pylist() == [1, 0, 0]  # "the"


def test_bpe_token_count_matches_re_and_duckdb():
    """The engine (polars/rust-regex), Python `re`, and DuckDB (RE2) must
    count identical matches for BPE_TOKEN_PATTERN — all leftmost-first."""
    import re

    import duckdb

    from triple_accel_ray.ops.text import BPE_TOKEN_PATTERN, bpe_token_count_batch

    texts = [
        "don't stop believing",
        "it's we'll they've you're I'd I'm that'd",
        "hello   world\t\n42 abc123def",
        "",
        "  leading space",
        "naïve café — em–dash… 3.14 isn't $5,000!",
        "a" * 300 + " " + "9" * 50,
        "!!!???...,,,;;;",
        "\n\n\n",
        "mixed'quote 'start end'",
    ]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    got = bpe_token_count_batch(t)["bpe_token_count"].to_pylist()

    want_re = [len(re.findall(BPE_TOKEN_PATTERN, s)) for s in texts]
    assert got == want_re

    con = duckdb.connect()
    con.register("documents", t)
    sql = (
        "SELECT len(regexp_extract_all(text, '"
        + BPE_TOKEN_PATTERN.replace("'", "''")
        + "'))::BIGINT AS c FROM documents ORDER BY doc_id"
    )
    want_duck = [r[0] for r in con.sql(sql).fetchall()]
    assert got == want_duck

    # every byte of the text is consumed by exactly one match (partition
    # property the capacity-planning use relies on)
    for s in texts:
        assert sum(len(m) for m in re.findall(BPE_TOKEN_PATTERN, s)) == len(s)


def test_lang_id():
    from triple_accel_ray.ops.text import LangId

    t = pa.table(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "the cat and the dog sat on a mat in the sun",
                "el perro y la casa de los vecinos en un lugar",
                "zzz qqq xxx",
            ],
        }
    )
    out = LangId()(t)["lang_pred"].to_pylist()
    assert out == ["en", "es", "und"]


def test_fingerprint_stability():
    from triple_accel_ray.ops.text import fingerprint_batch

    base = "abcdefgh" * 50
    t1 = pa.table({"doc_id": [1], "text": [base]})
    # an edit far from the minimum-hash gram usually keeps min_gram_hash
    f1 = fingerprint_batch(t1)
    f2 = fingerprint_batch(t1)
    assert f1["min_gram_hash"].to_pylist() == f2["min_gram_hash"].to_pylist()
    assert f1["content_hash"].to_pylist() == f2["content_hash"].to_pylist()


def test_tumbling_and_sessions(ray_session):
    import ray.data as rd

    from triple_accel_ray.ops.windows import sessionize, tumbling_window_agg

    ts = pa.array(
        [1_700_000_000_000_000 + i * 600_000_000 for i in range(6)]
        + [1_700_000_000_000_000 + 10_000_000_000],
        pa.timestamp("us"),
    )
    t = pa.table(
        {
            "user_id": pa.array([1, 1, 1, 1, 1, 1, 1], pa.int64()),
            "ts": ts,
            "value": pa.array([1.0] * 7, pa.float64()),
            "event_id": pa.array(list(range(7)), pa.int64()),
        }
    )
    ds = rd.from_arrow(t)
    tw = tumbling_window_agg(ds, window_sec=3600).to_pandas()
    assert tw["n_events"].sum() == 7
    sess = sessionize(ds, gap_sec=1800, num_buckets=2).to_pandas()
    # events every 10 min -> one session of 6, then a gap of ~2.2h -> new one
    assert sorted(sess["n_events"].tolist()) == [1, 6]


def test_events_last_order_asof(ray_session):
    import ray.data as rd

    from triple_accel_ray.ops.relational import events_last_order

    ev = pa.table(
        {
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "user_id": pa.array([7, 7, 8], pa.int64()),
            "ts": pa.array([100_000_000, 200_000_000, 100_000_000],
                           pa.timestamp("us")),
        }
    )
    od = pa.table(
        {
            "o_custkey": pa.array([7, 7], pa.int64()),
            "o_orderdate": pa.array([150_000_000, 50_000_000],
                                    pa.timestamp("us")),
        }
    )
    out = events_last_order(rd.from_arrow(ev), rd.from_arrow(od), 2).to_pandas()
    out = out.sort_values("event_id").reset_index(drop=True)
    # event1: last order at 50s; event2: at 150s; event3 (user 8): none
    assert out.loc[0, "last_order_date"].value // 1000 == 50_000_000 // 1000 * 1000 or \
        out.loc[0, "last_order_date"].timestamp() * 1e6 == 50_000_000
    assert out.loc[1, "last_order_date"].timestamp() * 1e6 == 150_000_000
    assert out.loc[2, "last_order_date"] is None or str(out.loc[2, "last_order_date"]) == "NaT"


def test_pricing_summary(ray_session):
    import ray.data as rd

    from triple_accel_ray.ops.relational import pricing_summary

    li = pa.table(
        {
            "l_returnflag": ["A", "A", "B"],
            "l_linestatus": ["F", "F", "O"],
            "l_quantity": [2.0, 3.0, 1.0],
            "l_extendedprice": [10.5, 20.25, 5.0],
            "l_discount": [0.05, 0.1, 0.0],
        }
    )
    out = pricing_summary(rd.from_arrow(li)).to_pandas()
    a = out[out["l_returnflag"] == "A"].iloc[0]
    assert a["sum_qty"] == 5
    assert a["sum_base_cents"] == 1050 + 2025
    assert a["sum_disc_cents"] == 500 + 1000
    assert a["count_order"] == 2


def test_media_pipeline(ray_session):
    import ray.data as rd

    from triple_accel_ray.ops.multimodal import (
        MediaDecoder,
        media_features,
        synthesize_media_table,
    )

    t = synthesize_media_table(32, seed=1)
    out = media_features(rd.from_arrow(t), concurrency=2, batch_size=8).to_pandas()
    assert len(out) == 32
    assert (out["mean_pixel"] >= 0).all() and (out["mean_pixel"] <= 255).all()

    # vectorized decode must equal a direct per-row computation
    import numpy as np

    by_id = out.set_index("media_id")
    for mid, payload in zip(t["media_id"].to_pylist(), t["payload"].to_pylist()):
        w = int.from_bytes(payload[8:10], "little")
        h = int.from_bytes(payload[10:12], "little")
        px = np.frombuffer(payload[12 : 12 + w * h], np.uint8).astype(np.int64)
        row = by_id.loc[mid]
        assert (row.width, row.height) == (w, h)
        assert row.sum_pixel == px.sum()
        assert row.sumsq_pixel == (px * px).sum()
        assert row.sum_hdiff == np.abs(np.diff(px.reshape(h, w), axis=1)).sum()

    # jpeg/png are REAL codecs now; only genuinely-absent formats refuse
    MediaDecoder(accept_formats=("jpeg", "png"))
    with pytest.raises(NotImplementedError):
        MediaDecoder(accept_formats=("webp",))


def test_media_one_pixel_wide_edge_energy():
    """1-pixel-wide images have no horizontal neighbor pairs: edge_energy
    is exactly 0.0 (pinned — w<=1 rows flow through the same reduction
    as everyone else, contributing all-zero diffs)."""
    import numpy as np
    import pyarrow as pa

    from triple_accel_ray.ops.multimodal import MAGIC, MediaDecoder

    payloads = []
    for w, h in ((1, 4), (1, 1), (3, 2)):
        px = np.arange(w * h, dtype=np.uint8) * 40
        payloads.append(
            MAGIC + w.to_bytes(2, "little") + h.to_bytes(2, "little")
            + px.tobytes()
        )
    t = pa.table(
        {
            "media_id": pa.array([0, 1, 2], pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "format": pa.array(["fakeimg"] * 3, pa.string()),
        }
    )
    out = MediaDecoder()(t).to_pandas().set_index("media_id")
    assert out.loc[0, "edge_energy"] == 0.0
    assert out.loc[1, "edge_energy"] == 0.0
    assert out.loc[0, "sum_hdiff"] == 0
    # sanity: the w=3 image does have horizontal diffs
    assert out.loc[2, "sum_hdiff"] == 2 * 2 * 40


def test_embedding_dup_pairs_block_and_ivf(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.dedup import (
        embedding_dup_pairs,
        embedding_dup_pairs_ivf,
    )

    rng = np.random.default_rng(3)
    base = rng.normal(size=(120, 16))
    base /= np.linalg.norm(base, axis=1)[:, None]
    # 30 near-clones of the first 30 vectors (tiny perturbation)
    clones = base[:30] + rng.normal(scale=0.01, size=(30, 16))
    clones /= np.linalg.norm(clones, axis=1)[:, None]
    M = np.concatenate([base, clones])
    ids = np.arange(len(M))
    t = pa.table(
        {"vec_id": pa.array(ids, pa.int64()),
         "embedding": pa.array(list(M.astype(np.float32)))}
    )

    exact = embedding_dup_pairs(
        rd.from_arrow(t), threshold=0.95, target_chunk_rows=40
    ).to_pandas()
    se = set(zip(exact.a_id, exact.b_id))
    # every clone pair qualifies, no duplicates emitted
    assert len(exact) == len(se)
    assert {(i, i + 120) for i in range(30)} <= se

    ivf = embedding_dup_pairs_ivf(
        rd.from_arrow(t), threshold=0.95, n_centroids=8, nprobe=3,
        num_buckets=8,
    ).to_pandas()
    si = set(zip(ivf.a_id, ivf.b_id))
    assert len(ivf) == len(si)  # globally distinct
    assert si <= se  # exact verification => no false positives
    assert len(si) >= 0.9 * len(se)  # multi-probe recall on near-clones


def test_sliding_window_agg(ray_session):
    import ray.data as rd

    from triple_accel_ray.ops.windows import sliding_window_agg

    rng = np.random.default_rng(7)
    n = 400
    base = 1_700_000_000_000_000  # us
    ts = base + rng.integers(0, 3 * 3600 * 1_000_000, n)
    uid = rng.integers(0, 5, n)
    val = np.round(rng.random(n) * 50, 2)
    t = pa.table(
        {
            "user_id": pa.array(uid, pa.int64()),
            "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
            "value": pa.array(val, pa.float64()),
        }
    )
    W, S = 3600, 900
    out = (
        sliding_window_agg(rd.from_arrow(t), window_sec=W, slide_sec=S)
        .to_pandas()
        .set_index(["user_id", "window_start"])
        .sort_index()
    )
    # naive reference: enumerate every (user, window) membership per event
    from collections import defaultdict

    ref = defaultdict(lambda: [0, 0])
    for u, t_us, v in zip(uid, ts, val):
        cents = int(np.floor(v * 100.0 + 0.5))
        last = t_us // (S * 1_000_000)
        for k in range(W // S):
            ws = (last - k) * S * 1_000_000
            r = ref[(u, ws)]
            r[0] += 1
            r[1] += cents
    assert len(out) == len(ref)
    for (u, ws), (cnt, cents) in ref.items():
        row = out.loc[(u, pd.Timestamp(ws, unit="us"))]
        assert (row.n_events, row.sum_cents) == (cnt, cents)


def test_interval_point_count(ray_session):
    import ray.data as rd

    from triple_accel_ray.ops.relational import interval_point_count

    rng = np.random.default_rng(11)
    W = 1000  # bucket/interval width in fake "us"
    n_iv, n_pt = 60, 500
    starts = rng.integers(0, 20 * W, n_iv)
    starts[0] = 3 * W       # exactly bucket-aligned (single replication)
    starts[1] = 19 * W + 999  # near the far end (zero or few points)
    pts = rng.integers(0, 20 * W, n_pt)
    iv = pa.table(
        {
            "key": pa.array(np.arange(n_iv), pa.int64()),
            "start": pa.array(starts, pa.int64()),
        }
    )
    pt = pa.table({"p": pa.array(pts, pa.int64())})
    out = (
        interval_point_count(
            rd.from_arrow(iv), rd.from_arrow(pt),
            key_col="key", start_col="start", point_col="p",
            width_us=W, out_col="n",
        )
        .to_pandas()
        .set_index("key")["n"]
    )
    assert len(out) == n_iv  # zero-count intervals preserved
    for i, s in enumerate(starts):
        assert out.loc[i] == int(((pts >= s) & (pts < s + W)).sum()), i


def test_heavy_hitter_tokens(ray_session):
    import ray.data as rd

    from triple_accel_ray.ops.text import heavy_hitter_tokens

    # plant exact frequencies across many small docs (multiple blocks ->
    # the combiner path is exercised): "hot" 30x, "warm" 10x, "cold" 3x
    docs = (
        ["hot warm hot"] * 10          # hot 20, warm 10
        + ["hot cold"] * 3             # hot 3, cold 3
        + ["hot hot hot hot hot hot hot"]  # hot 7
    )
    t = pa.table({"text": pa.array(docs, pa.string())})
    out = (
        heavy_hitter_tokens(rd.from_arrow(t), min_count=10)
        .to_pandas()
        .set_index("token")["n_total"]
        .to_dict()
    )
    assert out == {"hot": 30, "warm": 10}


def test_stack_list_column_layouts():
    """The zero-copy reshape fast path must equal the naive per-row stack
    across every Arrow layout the embedding tables can arrive in: list,
    large_list, fixed_size_list, chunked, sliced, and the ragged/null
    fallbacks."""
    import numpy as np
    import pyarrow as pa

    from triple_accel_ray.ops.veccol import stack_list_column

    rng = np.random.default_rng(7)
    mat = rng.normal(size=(13, 5))
    rows = [list(map(float, r)) for r in mat]

    def naive(col):
        return np.stack([np.asarray(x, np.float64) for x in col.to_pylist()])

    for typ in (pa.list_(pa.float64()), pa.large_list(pa.float32()),
                pa.list_(pa.float32(), 5)):
        arr = pa.array(rows, typ)
        got = stack_list_column(arr)
        np.testing.assert_allclose(got, naive(arr), rtol=1e-6)
        # sliced window must honor the offset, not read from row 0
        sl = arr.slice(4, 6)
        np.testing.assert_allclose(stack_list_column(sl), naive(sl), rtol=1e-6)
        # chunked
        ch = pa.chunked_array([arr.slice(0, 7), arr.slice(7)])
        np.testing.assert_allclose(stack_list_column(ch), naive(ch), rtol=1e-6)

    # ragged rows take the fallback path (np.stack would raise only if the
    # semantics were violated; equal-width check routes these to pandas)
    ragged = pa.array([[1.0, 2.0], [3.0, 4.0]], pa.list_(pa.float64()))
    np.testing.assert_allclose(stack_list_column(ragged), naive(ragged))
    assert stack_list_column(pa.array([], pa.list_(pa.float64()))).shape == (0, 0)


def test_decontaminate_ngrams(ray_session):
    import ray.data as rd
    from triple_accel_ray.ops.curation import decontaminate_ngrams

    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "source": pa.array(["ref", "ref", "x", "x", "x"]),
        "text": pa.array([
            "the quick brown fox",
            "hello world padding",
            "a QUICK BROWN cow",          # no shared 8-gram (case differs)
            "xx the quick dog",   # shares "the quic","he quick","e quick "
            "short",                      # < 8 bytes: no grams at all
        ]),
    })
    out = decontaminate_ngrams(
        rd.from_arrow(t).repartition(3), ref_source="ref").take_all()
    got = {r["doc_id"]: r["n_overlap"] for r in out}
    assert got == {3: 3}
    # naive cross-check of the count: distinct 8-grams of doc3 in refs
    refs = {"the quick brown fox"[i:i+8] for i in range(12)} | {
        "hello world padding"[i:i+8] for i in range(12)}
    d3 = "xx the quick dog"
    assert sum(1 for i in range(len(d3) - 7) if d3[i:i+8] in refs) == got[3]
    # empty reference side: no hits, no crash
    t2 = t.set_column(1, "source", pa.array(["x"] * 5))
    assert decontaminate_ngrams(
        rd.from_arrow(t2), ref_source="ref").take_all() == []


def test_repetition_scores():
    from triple_accel_ray.ops.text import repetition_score_batch

    t = pa.table({"doc_id": [1, 2, 3, 4],
                  "text": ["a b\na b\nc d", "x y x y x y", "", "solo"]})
    out = repetition_score_batch(t).to_pydict()
    # doc1: 3 lines, "a b" twice (dup chars = 2*3); bigrams
    # [a b, b a, a b, b c, c d] -> top "a b"=2
    # doc2: one line; bigrams [x y, y x, x y, y x, x y] -> top 3
    # doc3 empty: one empty line, no bigrams; doc4: 1 token -> no bigrams
    assert out == {
        "doc_id": [1, 2, 3, 4],
        "n_lines": [3, 1, 1, 1],
        "dup_line_count": [1, 0, 0, 0],
        "dup_line_chars": [6, 0, 0, 0],
        "n_bigrams": [5, 5, 0, 0],
        "top_bigram_count": [2, 3, 0, 0],
    }


def test_near_dup_survivors_transitive(ray_session):
    import ray.data as rd
    from triple_accel_ray.ops.dedup import minhash_dup_pairs, near_dup_survivors

    base = "the quick brown fox jumps over the lazy dog again and again " * 6
    near1 = base.replace("quick", "quickk")
    near2 = near1.replace("lazy", "lazzy")  # chain: base~near1~near2
    other = "totally different content about compilers and parsers " * 6
    t = pa.table({"doc_id": [9, 10, 11, 12],
                  "text": [base, near1, near2, other]})
    ds = rd.from_arrow(t)
    # the chain collapses to ONE survivor by transitivity even if the
    # (base, near2) pair itself scores below threshold
    out = sorted(r["doc_id"] for r in near_dup_survivors(
        ds, threshold=0.6, num_buckets=4).take_all())
    # min STRING id of {"9","10","11"} is "10"
    assert out == ["10", "12"]
    pairs = minhash_dup_pairs(ds, threshold=0.6, num_buckets=4).take_all()
    assert len(pairs) >= 2  # at least the two chain edges


def test_pii_scrub_three_engine_agreement():
    """pii_scrub_batch (polars/rust-regex) must agree with Python `re`
    and DuckDB (RE2) on counts AND the sequentially-redacted text for
    adversarial inputs: adjacent spans, boundary digits, dotted near-IPs,
    multi-@ strings, unicode neighbours."""
    import re

    import duckdb

    from triple_accel_ray.ops.text import (
        PII_DIGITRUN_RE, PII_EMAIL_RE, PII_IPV4_RE, pii_scrub_batch)

    texts = [
        "write a.b+c_d%e@ex-am.co.uk now",
        "ips 10.0.0.1 999.999.999.999 1.2.3.4.5 and 1234.1.1.1",
        "tel 5551234567, card 4111111111111111; short 123456",
        "a@b.co x@y.io back-to-back a@b.co",
        "no pii at all",
        "",
        "email@dom.com5551234567 glued",
        "naïve café 10.1.2.3 — unicode neighbours",
        "@@@ not@an@email@ trailing@dots. user@host.museum",
        "0.0.0.0 255.255.255.255 256.1.1.1",
    ]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    out = pii_scrub_batch(t).to_pydict()

    def redact(s):
        s = re.sub(PII_EMAIL_RE, "<EMAIL>", s)
        s = re.sub(PII_IPV4_RE, "<IP>", s)
        return re.sub(PII_DIGITRUN_RE, "<NUM>", s)

    assert out["n_email"] == [len(re.findall(PII_EMAIL_RE, s)) for s in texts]
    assert out["n_ipv4"] == [len(re.findall(PII_IPV4_RE, s)) for s in texts]
    assert out["n_digitrun"] == [
        len(re.findall(PII_DIGITRUN_RE, s)) for s in texts]
    assert out["text_redacted"] == [redact(s) for s in texts]
    assert out["n_chars_redacted"] == [
        len(redact(s).encode()) for s in texts]

    con = duckdb.connect()
    con.register("documents", t)
    sql = (
        "SELECT len(regexp_extract_all(text, '@E@'))::BIGINT,"
        " len(regexp_extract_all(text, '@I@'))::BIGINT,"
        " len(regexp_extract_all(text, '@D@'))::BIGINT,"
        " regexp_replace(regexp_replace(regexp_replace(text,"
        " '@E@', '<EMAIL>', 'g'), '@I@', '<IP>', 'g'),"
        " '@D@', '<NUM>', 'g') FROM documents ORDER BY doc_id"
    ).replace("@E@", PII_EMAIL_RE).replace("@I@", PII_IPV4_RE).replace(
        "@D@", PII_DIGITRUN_RE)
    rows = con.sql(sql).fetchall()
    assert out["n_email"] == [r[0] for r in rows]
    assert out["n_ipv4"] == [r[1] for r in rows]
    assert out["n_digitrun"] == [r[2] for r in rows]
    assert out["text_redacted"] == [r[3] for r in rows]


def test_conv_stats(ray_session):
    """Per-conversation transcript stats: 1-turn conv gets max_step_us=0;
    non-monotone ts yields a negative-capable step; tool counts filter
    empty strings."""
    import datetime as dt

    import ray.data as rd

    from triple_accel_ray.ops.transcripts import conv_stats

    def t(s):
        return dt.datetime(2024, 1, 1) + dt.timedelta(seconds=s)

    tbl = pa.table({
        "conv_id": ["a", "a", "a", "b"],
        "turn_idx": pa.array([0, 1, 2, 0], pa.int32()),
        "role": ["user", "assistant", "tool", "user"],
        "text": ["hi", "hello!", "ok", "solo"],
        "tool": ["", "calc", "calc", ""],
        "ts": pa.array([t(0), t(100), t(40)], pa.timestamp("us")).to_pylist()
        + [t(5)],
    })
    tbl = tbl.set_column(5, "ts", pa.array(tbl["ts"].to_pylist(),
                                           pa.timestamp("us")))
    out = {r["conv_id"]: r for r in conv_stats(
        rd.from_arrow(tbl), num_buckets=2).take_all()}
    a, b = out["a"], out["b"]
    assert (a["n_turns"], a["n_user"], a["n_assistant"]) == (3, 1, 1)
    assert (a["n_tool_calls"], a["n_distinct_tools"]) == (2, 1)
    assert a["text_bytes"] == len("hihello!ok")
    assert a["span_us"] == 100_000_000
    # steps in turn order: +100s, -60s -> max = +100s
    assert a["max_step_us"] == 100_000_000
    assert (b["n_turns"], b["max_step_us"], b["span_us"]) == (1, 0, 0)


def test_windowed_top_k_ties(ray_session):
    """Heavy hitters per tumbling hour: ties break by category ASC, rank
    is dense-free row_number, k bounds output per window."""
    import datetime as dt

    import ray.data as rd

    from triple_accel_ray.ops.windows import windowed_top_k

    rows = []
    for h in range(2):
        for c, n in [("a", 5), ("b", 3), ("c", 3), ("d", 1)]:
            rows += [(dt.datetime(2024, 1, 1, h, 10), c)] * n
    t = pa.table({
        "ts": pa.array([r[0] for r in rows], pa.timestamp("us")),
        "event_type": [r[1] for r in rows],
    })
    out = windowed_top_k(
        rd.from_arrow(t).repartition(3), k=3, num_buckets=2).take_all()
    assert len(out) == 6
    by_w = {}
    for r in out:
        by_w.setdefault(r["window_start"].hour, []).append(
            (r["rank"], r["event_type"], r["n"]))
    for h in (0, 1):
        assert sorted(by_w[h]) == [(1, "a", 5), (2, "b", 3), (3, "c", 3)]


def test_running_totals_vs_pandas(ray_session):
    """Per-user cumulative totals equal a direct pandas groupby-cumsum
    under the same (ts, event_id) order, with duplicate timestamps."""
    import datetime as dt

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from triple_accel_ray.ops.windows import running_totals

    rng = np.random.default_rng(9)
    n = 3000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 40, n),
        "ts": pd.to_datetime(
            rng.integers(0, 500, n) * 1_000_000, unit="us"),  # many ties
        "value": rng.uniform(0, 50, n).round(2),
    })
    t = pa.Table.from_pandas(df, preserve_index=False).cast(pa.schema([
        ("event_id", pa.int64()), ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")), ("value", pa.float64())]))
    got = (
        running_totals(rd.from_arrow(t).repartition(6), num_buckets=4)
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    ref = df.sort_values(["user_id", "ts", "event_id"]).copy()
    ref["cents"] = np.floor(ref["value"] * 100.0 + 0.5).astype(np.int64)
    ref["cum_n"] = ref.groupby("user_id").cumcount() + 1
    ref["cum_cents"] = ref.groupby("user_id")["cents"].cumsum()
    ref = ref.sort_values("event_id").reset_index(drop=True)
    assert (got["cum_n"].to_numpy() == ref["cum_n"].to_numpy()).all()
    assert (got["cum_cents"].to_numpy() == ref["cum_cents"].to_numpy()).all()
    assert (got["user_id"].to_numpy() == ref["user_id"].to_numpy()).all()


def test_funnel_conversions_edges(ray_session):
    """Funnel semantics pinned on adversarial cases: equal timestamps
    never convert, the window boundary is inclusive, a purchase before
    any click doesn't convert, users missing a step still get a row."""
    import datetime as dt

    import ray.data as rd

    from triple_accel_ray.ops.windows import funnel_conversions

    T0 = dt.datetime(2024, 1, 1)
    s = dt.timedelta(seconds=1)
    rows = [
        # u1: click then purchase inside window (+1 purchase too late)
        (1, 1, T0, "click"), (2, 1, T0 + 10 * s, "purchase"),
        (3, 1, T0 + 5000 * s, "purchase"),
        # u2: purchase at SAME ts as click (no conversion), then one
        # exactly at the 3600 s boundary (inclusive -> converts)
        (4, 2, T0, "click"), (5, 2, T0, "purchase"),
        (6, 2, T0 + 3600 * s, "purchase"),
        # u3: purchase before its only click
        (7, 3, T0 + 10 * s, "purchase"), (8, 3, T0 + 20 * s, "click"),
        # u4: clicks only; u5: purchases only
        (9, 4, T0, "click"), (10, 5, T0, "purchase"),
        # noise event types are filtered before the shuffle
        (11, 1, T0 + 1 * s, "view"),
    ]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
        "event_type": [r[3] for r in rows],
    })
    out = {r["user_id"]: r for r in funnel_conversions(
        rd.from_arrow(t).repartition(4), num_buckets=3).take_all()}
    assert len(out) == 5
    assert (out[1]["n_a"], out[1]["n_b"], out[1]["n_conversions"]) == (1, 2, 1)
    assert out[1]["first_conversion_ts"] == T0 + 10 * s
    assert (out[2]["n_conversions"], out[2]["first_conversion_ts"]) == (
        1, T0 + 3600 * s)
    assert out[3]["n_conversions"] == 0 and out[3]["first_conversion_ts"] is None
    assert (out[4]["n_a"], out[4]["n_b"], out[4]["n_conversions"]) == (1, 0, 0)
    assert (out[5]["n_a"], out[5]["n_b"], out[5]["n_conversions"]) == (0, 1, 0)


def test_triangle_counts_vs_bruteforce(ray_session):
    """Degree-oriented distributed triangle counting equals a brute-force
    enumeration on a random graph with a planted 6-clique and a degree-60
    hub (the skew case the orientation bounds)."""
    import collections
    import itertools

    import numpy as np
    import ray.data as rd

    from triple_accel_ray.ops.graph import triangle_counts_fast

    rng = np.random.default_rng(5)
    n = 120
    nodes = [f"c{i:03d}" for i in range(n)]
    edges = set()
    while len(edges) < 500:
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges.add((nodes[min(a, b)], nodes[max(a, b)]))
    for a, b in itertools.combinations(range(6), 2):
        edges.add((nodes[a], nodes[b]))
    for b in range(1, 60):
        edges.add((min(nodes[0], nodes[b]), max(nodes[0], nodes[b])))
    edges = sorted(edges)
    eset = set(edges)

    want = collections.Counter()
    for x, y, z in itertools.combinations(nodes, 3):
        if (x, y) in eset and (y, z) in eset and (x, z) in eset:
            want[x] += 1
            want[y] += 1
            want[z] += 1

    ds = rd.from_arrow(pa.table({
        "a_id": [e[0] for e in edges],
        "b_id": [e[1] for e in edges],
    })).repartition(5)
    got = {r["conv_id"]: r["n_triangles"]
           for r in triangle_counts_fast(ds, num_buckets=8).take_all()}
    assert got == dict(want)
    assert sum(want.values()) % 3 == 0 and len(want) > 0


def test_triangle_counts_triangle_free(ray_session):
    """A path graph has no triangles -> empty output, no errors."""
    import ray.data as rd

    from triple_accel_ray.ops.graph import triangle_counts_fast

    ds = rd.from_arrow(pa.table({
        "a_id": ["a", "b", "c"], "b_id": ["b", "c", "d"]}))
    assert triangle_counts_fast(ds, num_buckets=2).count() == 0


def test_rollup_counts_vs_direct(ray_session):
    """All three grouping levels equal direct pandas aggregation; level
    disambiguates a literal 'ALL' dimension value."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from triple_accel_ray.ops.relational import rollup_counts

    rng = np.random.default_rng(2)
    df = pd.DataFrame({
        "source": rng.choice(["s1", "s2", "ALL"], 500),  # adversarial 'ALL'
        "lang": rng.choice(["en", "de"], 500),
        "n_chars": rng.integers(1, 100, 500).astype("int64"),
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
    got = rollup_counts(ds.repartition(5), "source", "lang", "n_chars")
    rows = {(r["source"], r["lang"], r["level"]):
            (r["n_rows"], r["sum_val"]) for r in got.take_all()}

    fine = df.groupby(["source", "lang"]).agg(
        n=("n_chars", "size"), s=("n_chars", "sum"))
    for (src, lg), r in fine.iterrows():
        assert rows[(src, lg, 0)] == (r["n"], r["s"])
    mid = df.groupby("source").agg(n=("n_chars", "size"), s=("n_chars", "sum"))
    for src, r in mid.iterrows():
        assert rows[(src, "ALL", 1)] == (r["n"], r["s"])
    assert rows[("ALL", "ALL", 2)] == (500, int(df["n_chars"].sum()))
    # the literal 'ALL' source appears at level 0/1 AND as the rollup
    # label at level 2 — the level column keeps them distinct
    assert ("ALL", "en", 0) in rows and ("ALL", "ALL", 1) in rows


def test_revenue_by_nation_vs_pandas(ray_session):
    """The Q5-shaped multi-join equals a direct pandas merge chain on a
    tiny synthetic star schema, including the local-supplier filter and
    the integer centi-cent revenue rule."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from triple_accel_ray.ops.relational import revenue_by_nation

    rng = np.random.default_rng(8)
    nation = pd.DataFrame({
        "n_nationkey": np.arange(4, dtype=np.int32),
        "n_name": [f"N{i}" for i in range(4)],
        "n_regionkey": np.array([0, 0, 1, 1], np.int32)})
    region = pd.DataFrame({
        "r_regionkey": np.arange(2, dtype=np.int32),
        "r_name": ["R0", "R1"]})
    customer = pd.DataFrame({
        "c_custkey": np.arange(30, dtype=np.int64),
        "c_nationkey": rng.integers(0, 4, 30).astype(np.int32)})
    supplier = pd.DataFrame({
        "s_suppkey": np.arange(10, dtype=np.int64),
        "s_nationkey": rng.integers(0, 4, 10).astype(np.int32)})
    orders = pd.DataFrame({
        "o_orderkey": np.arange(100, dtype=np.int64),
        "o_custkey": rng.integers(0, 30, 100)})
    lineitem = pd.DataFrame({
        "l_orderkey": rng.integers(0, 100, 400),
        "l_suppkey": rng.integers(0, 10, 400),
        "l_extendedprice": rng.uniform(1, 1000, 400).round(2),
        "l_discount": rng.choice([0.0, 0.05, 0.1], 400)})

    got = {(r["region"], r["nation"]): r["revenue_cc"]
           for r in revenue_by_nation(
               *[rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
                 for df in (lineitem, orders, customer, supplier,
                            nation, region)],
               num_buckets=4).take_all()}

    j = (lineitem.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
         .merge(customer, left_on="o_custkey", right_on="c_custkey")
         .merge(supplier, left_on="l_suppkey", right_on="s_suppkey"))
    j = j[j["s_nationkey"] == j["c_nationkey"]]
    j = j.merge(nation, left_on="c_nationkey", right_on="n_nationkey").merge(
        region, left_on="n_regionkey", right_on="r_regionkey")
    j["rev"] = (np.floor(j["l_extendedprice"] * 100 + 0.5).astype("int64")
                * (100 - np.floor(j["l_discount"] * 100 + 0.5).astype("int64")))
    want = j.groupby(["r_name", "n_name"])["rev"].sum()
    assert got == {(r, n): v for (r, n), v in want.items()}


def test_dataset_set_op(ray_session):
    """EXCEPT/INTERSECT equal python set algebra, with duplicates on both
    sides (distinct semantics) and values unique to each side."""
    import numpy as np
    import ray.data as rd

    from triple_accel_ray.ops.relational import dataset_set_op

    rng = np.random.default_rng(6)
    lv = rng.integers(0, 300, 2000).astype(np.int64)
    rv = rng.integers(150, 450, 2000).astype(np.int64)
    left = rd.from_arrow(pa.table({"k": lv})).repartition(5)
    right = rd.from_arrow(pa.table({"k": rv})).repartition(3)

    got_ex = sorted(r["k"] for r in dataset_set_op(
        left, right, "k", "except").take_all())
    got_in = sorted(r["k"] for r in dataset_set_op(
        left, right, "k", "intersect").take_all())
    ls, rs = set(lv.tolist()), set(rv.tolist())
    assert got_ex == sorted(ls - rs)
    assert got_in == sorted(ls & rs)
    assert len(got_ex) > 0 and len(got_in) > 0  # fixture is non-trivial


def test_windowed_distinct(ray_session):
    """Exact per-window distinct counts vs pandas nunique, with users
    active in multiple windows and duplicates inside a window."""
    import datetime as dt

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from triple_accel_ray.ops.windows import windowed_distinct

    rng = np.random.default_rng(12)
    n = 5000
    ts = pd.to_datetime(
        rng.integers(0, 6 * 3600, n) * 1_000_000, unit="us")
    df = pd.DataFrame({"ts": ts, "user_id": rng.integers(0, 60, n)})
    ds = rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False).cast(
        pa.schema([("ts", pa.timestamp("us")), ("user_id", pa.int64())])))
    got = {r["window_start"]: r["n_distinct"]
           for r in windowed_distinct(ds.repartition(6)).take_all()}
    want = df.groupby(df["ts"].dt.floor("h"))["user_id"].nunique()
    assert got == {k.to_pydatetime(): v for k, v in want.items()}


def test_simhash_survivors_transitive(ray_session):
    """A chain of three near-identical docs collapses to one survivor
    (min id) even if the two ends don't pair directly; distinct docs all
    survive."""
    import ray.data as rd

    from triple_accel_ray.ops.dedup import simhash_dup_pairs, simhash_survivors

    base = ("the quick brown fox jumps over the lazy dog and then "
            "walks away slowly into the quiet evening mist " * 4)
    docs = pa.table({
        "doc_id": pa.array([10, 11, 12, 50, 51], pa.int64()),
        "text": [base, base + " x", base + " x y",
                 "completely different content about distributed systems "
                 "and arrow batches " * 5,
                 "another unrelated document concerning graph algorithms "
                 "and triangle counting " * 5],
    })
    ds = rd.from_arrow(docs).repartition(3)
    pairs = {(r["a_id"], r["b_id"]) for r in simhash_dup_pairs(
        ds, max_hamming=6, num_buckets=4, hot_block_cap=1 << 30).take_all()}
    assert ("10", "11") in pairs  # the chain exists
    surv = sorted(r["doc_id"] for r in simhash_survivors(
        ds, max_hamming=6, num_buckets=4).take_all())
    assert "10" in surv and "50" in surv and "51" in surv
    assert "11" not in surv and "12" not in surv


def test_fuzzy_semi_join_vs_bruteforce(ray_session):
    """Fuzzy join equals brute force restricted to the same candidate
    predicate (length band + prefix), using the scalar kernel as the
    distance oracle; k-bound excludes far pairs inside a block."""
    import itertools

    import ray.data as rd

    from triple_accel_ray.kernels import levenshtein
    from triple_accel_ray.ops.search import fuzzy_semi_join

    rights = {
        "d1": "alpha beta gamma delta epsilon zeta",
        "d2": "alpha beta gamma delta epsilon zetX",   # close to d1
        "d3": "Xlpha beta gamma delta epsilon zeta",   # prefix differs
        "d4": "alpha " + "x" * 64,                     # other length band
        "d5": "alpha beta THIS IS COMPLETELY other",   # same block, far
    }
    lefts = {"p1": "alpha beta gamma delta epsilon zeta",
             "p2": "alpha " + "x" * 63 + "y"}
    k, band, prefix = 4, 32, 4

    want = set()
    for (lid, lt), (rid, rt) in itertools.product(
            lefts.items(), rights.items()):
        if len(lt) // band == len(rt) // band and lt[:prefix] == rt[:prefix]:
            d = levenshtein(lt.encode(), rt.encode())
            if d <= k:
                want.add((lid, rid, d))

    lds = rd.from_arrow(pa.table({
        "probe_id": list(lefts), "ptext": list(lefts.values())}))
    rds = rd.from_arrow(pa.table({
        "doc_id": list(rights), "text": list(rights.values())})).repartition(2)
    got = {(r["probe_id"], r["doc_id"], r["dist"])
           for r in fuzzy_semi_join(lds, rds, k=k, band=band, prefix=prefix,
                                    num_buckets=3).take_all()}
    assert got == want
    assert ("p1", "d1", 0) in got and ("p1", "d2", 1) in got
    assert ("p2", "d4", 1) in got          # cross-band probe finds its twin
    # d3 fails the prefix predicate; d5 shares the block but exceeds k
    assert not any(r in ("d3", "d5") for (_, r, _) in got)


def test_funnel_conversions_differential(ray_session):
    """Seeded random streams (heavy timestamp ties, tiny window) vs an
    O(n^2) per-user brute force of the EXISTS rule."""
    import numpy as np
    import ray.data as rd

    from triple_accel_ray.ops.windows import funnel_conversions

    rng = np.random.default_rng(21)
    n = 2500
    uid = rng.integers(0, 25, n)
    ts_us = rng.integers(0, 40, n) * 1_000_000  # 40 distinct seconds: ties
    typ = rng.choice(["click", "purchase", "view"], n, p=[0.4, 0.4, 0.2])
    w_us = 5 * 1_000_000  # 5 s window

    want = {}
    for u in np.unique(uid):
        m = uid == u
        t_u, y_u = ts_us[m], typ[m]
        a_ts = sorted(t_u[y_u == "click"])
        convs = []
        for bt in t_u[y_u == "purchase"]:
            if any(0 < bt - at <= w_us for at in a_ts):
                convs.append(bt)
        if (y_u == "click").sum() + (y_u == "purchase").sum() > 0:
            want[int(u)] = (
                int((y_u == "click").sum()), int((y_u == "purchase").sum()),
                len(convs), min(convs) if convs else None)

    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "user_id": pa.array(uid, pa.int64()),
        "ts": pa.array(ts_us, pa.int64()).cast(pa.timestamp("us")),
        "event_type": typ.tolist(),
    })
    got = {}
    for r in funnel_conversions(
            rd.from_arrow(t).repartition(7), within_sec=5,
            num_buckets=4).take_all():
        ft = r["first_conversion_ts"]
        got[r["user_id"]] = (
            r["n_a"], r["n_b"], r["n_conversions"],
            None if ft is None else int(ft.timestamp() * 1_000_000))
    assert got == want


def test_weekly_retention_multi_cohort(ray_session):
    """Retention matrix vs direct pandas on staggered cohorts, Monday
    week-origin pinned (1970-01-01 was a Thursday), churn + returns."""
    import datetime as dt

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from triple_accel_ray.ops.windows import weekly_retention

    MON = dt.datetime(2024, 1, 1)  # a Monday
    wk = dt.timedelta(days=7)
    rows = []
    # cohort W0: u0 active W0,W1,W2; u1 active W0,W2 (skips W1)
    for u, weeks in [(0, [0, 1, 2]), (1, [0, 2]),
                     # cohort W1: u2 active W1; u3 active W1,W2
                     (2, [1]), (3, [1, 2])]:
        for w in weeks:
            # two events inside the week (incl. Sunday 23:59) -> distinct
            rows.append((u, MON + w * wk + dt.timedelta(hours=5)))
            rows.append((u, MON + w * wk + dt.timedelta(
                days=6, hours=23, minutes=59)))
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
    })
    got = {(r["cohort_week"], r["week"]): r["n_users"]
           for r in weekly_retention(
               rd.from_arrow(t).repartition(4), num_buckets=3).take_all()}
    W = lambda i: MON + i * wk
    assert got == {
        (W(0), W(0)): 2, (W(0), W(1)): 1, (W(0), W(2)): 2,
        (W(1), W(1)): 2, (W(1), W(2)): 1,
    }


def test_distinctive_terms_differential(ray_session):
    """Top-k terms vs a naive python TF/DF computation on a corpus with
    tf ties (df tiebreak), (tf, df) ties (term tiebreak), case folding,
    and docs whose vocabulary is smaller than k."""
    import collections
    import re

    import ray.data as rd

    from triple_accel_ray.ops.text import distinctive_terms

    texts = {
        0: "Apple banana apple CHERRY banana apple",
        1: "banana cherry cherry date9date elderberry",
        2: "zz aa zz aa",            # full tf+df tie -> term order
        3: "apple",                   # vocab < k
        4: "date fig fig fig grape grape date date",
    }
    t = pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array([texts[i] for i in texts], pa.string()),
    })
    got = {(r["doc_id"], r["rnk"]): (r["term"], r["tf"], r["df"])
           for r in distinctive_terms(
               rd.from_arrow(t).repartition(3), k=3,
               num_buckets=4).take_all()}

    tok = {d: [w.lower() for w in re.findall(r"[A-Za-z]+", s)]
           for d, s in texts.items()}
    dfc = collections.Counter()
    for ws in tok.values():
        dfc.update(set(ws))
    want = {}
    for d, ws in tok.items():
        tfc = collections.Counter(ws)
        ranked = sorted(tfc, key=lambda w: (-tfc[w], dfc[w], w))
        for i, w in enumerate(ranked[:3]):
            want[(d, i + 1)] = (w, tfc[w], dfc[w])
    assert got == want


def _naive_pagerank(el, n_iter=3, scale=10**12):
    """Single-process replay of the integer floor-divide PageRank rule."""
    de = [(a, b) for a, b in el] + [(b, a) for a, b in el]
    deg = {}
    for s, _ in de:
        deg[s] = deg.get(s, 0) + 1
    n = len(deg)
    pr = {v: scale // n for v in deg}
    base = (15 * (scale // n)) // 100
    for _ in range(n_iter):
        s = {v: 0 for v in deg}
        for u, v in de:
            s[v] += pr[u] // deg[u]
        pr = {v: base + (85 * s[v]) // 100 for v in deg}
    return pr


def test_pagerank_integer_differential(ray_session):
    """Distributed integer PageRank equals a naive single-process
    replay of the same floor-divide rule on a random graph with a
    planted hub, plus invariance under a permuted/repartitioned edge
    order and the bucket count."""
    import random

    import ray.data as rd

    from triple_accel_ray.ops.graph import pagerank_stationary

    rng = random.Random(7)
    nodes = [f"n{i:03d}" for i in range(40)]
    edges = set()
    for _ in range(120):
        a, b = rng.sample(nodes, 2)
        edges.add((min(a, b), max(a, b)))
    for i in range(1, 30):            # hub: n000 touches 29 others
        edges.add(("n000", f"n{i:03d}"))
    el = sorted(edges)

    want = _naive_pagerank(el)
    t = pa.table({
        "a_id": pa.array([a for a, _ in el], pa.string()),
        "b_id": pa.array([b for _, b in el], pa.string()),
    })
    got = {r["conv_id"]: r["pr"]
           for r in pagerank_stationary(rd.from_arrow(t).repartition(5),
                                        num_buckets=4).take_all()}
    assert got == want

    perm = el[::-1]
    t2 = pa.table({
        "a_id": pa.array([a for a, _ in perm], pa.string()),
        "b_id": pa.array([b for _, b in perm], pa.string()),
    })
    got2 = {r["conv_id"]: r["pr"]
            for r in pagerank_stationary(rd.from_arrow(t2).repartition(3),
                                         num_buckets=7).take_all()}
    assert got2 == want

    # zero iterations: every node keeps the initial rank scale // N
    got0 = {r["conv_id"]: r["pr"]
            for r in pagerank_stationary(rd.from_arrow(t).repartition(5),
                                         n_iter=0, num_buckets=4).take_all()}
    assert got0 == _naive_pagerank(el, n_iter=0)


def test_profile_columns_adversarial(ray_session):
    """Profiling vs direct computation: negative ints (typed min/max,
    the case a stringified merge ranks wrong), nulls, an all-null
    column, and cross-block duplicate values."""
    import ray.data as rd

    from triple_accel_ray.ops.profile import profile_columns

    t = pa.table({
        "i": pa.array([-5, 499, 95, None, 499, -5, 1000, 7], pa.int64()),
        "s": pa.array(["b", "a", None, "zz", "a", "b", "", "a"],
                      pa.string()),
        "z": pa.array([None] * 8, pa.int64()),
    })
    got = {r["col_name"]: (r["n_rows"], r["n_null"], r["n_distinct"],
                           r["min_str"], r["max_str"])
           for r in profile_columns(
               rd.from_arrow(t).repartition(4), ["i", "s", "z"],
               num_buckets=3).take_all()}
    assert got == {
        "i": (8, 1, 5, "-5", "1000"),
        "s": (8, 1, 4, "", "zz"),
        "z": (8, 8, 0, None, None),
    }


def test_snapshot_diff_semantics(ray_session):
    """added/removed/changed vs hand-built snapshots; unchanged rows
    silent; duplicate-id snapshot rejected."""
    import pytest
    import ray.data as rd

    from triple_accel_ray.ops.relational import snapshot_diff

    old = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["a", "b", "c", "d"], pa.string()),
    })
    new = pa.table({
        "doc_id": pa.array([2, 3, 4, 9], pa.int64()),
        "text": pa.array(["b", "C!", "d", "nine"], pa.string()),
    })
    got = {r["doc_id"]: (r["change"], r["old_len"], r["new_len"])
           for r in snapshot_diff(
               rd.from_arrow(old).repartition(3),
               rd.from_arrow(new).repartition(2),
               num_buckets=3).take_all()}
    assert got == {
        1: ("removed", 1, None),
        3: ("changed", 1, 2),
        9: ("added", None, 4),
    }

    dup = pa.table({
        "doc_id": pa.array([5, 5], pa.int64()),
        "text": pa.array(["x", "y"], pa.string()),
    })
    with pytest.raises(Exception, match="duplicate"):
        snapshot_diff(rd.from_arrow(old), rd.from_arrow(dup),
                      num_buckets=2).take_all()


def test_fk_orphans_differential(ray_session):
    """Orphan detection vs python set math: hot orphan key spread
    across blocks, dim duplicates tolerated, zero-orphan case empty."""
    import ray.data as rd

    from triple_accel_ray.ops.relational import fk_orphans

    fact = pa.table({"fk": pa.array(
        [1, 2, 2, 3, 7, 7, 7, 7, 8, 1], pa.int64())})
    dim = pa.table({"pk": pa.array([1, 2, 2, 3, 4], pa.int64())})
    got = {r["fk"]: r["n_rows"]
           for r in fk_orphans(
               rd.from_arrow(fact).repartition(4),
               rd.from_arrow(dim).repartition(2),
               "fk", "pk", num_buckets=3).take_all()}
    assert got == {7: 4, 8: 1}

    clean = fk_orphans(
        rd.from_arrow(pa.table({"fk": pa.array([1, 2], pa.int64())})),
        rd.from_arrow(dim), "fk", "pk").take_all()
    assert clean == []


def test_inverted_index_vs_naive(ray_session):
    """Postings vs python dict-of-sets: ascending order across blocks,
    cap -> NULL postings but exact count, case folding."""
    import re

    import ray.data as rd

    from triple_accel_ray.ops.text import inverted_index

    texts = {
        10: "the Quick fox", 3: "THE lazy dog", 7: "a fox den",
        1: "the fox the fox", 5: "dog"}
    t = pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.string()),
    })
    got = {r["term"]: (r["n_docs"], r["postings"])
           for r in inverted_index(
               rd.from_arrow(t).repartition(3), max_postings=2,
               num_buckets=3).take_all()}
    inv = {}
    for d, s in texts.items():
        for w in set(re.findall(r"[A-Za-z]+", s.lower())):
            inv.setdefault(w, set()).add(d)
    want = {w: (len(ds), ",".join(map(str, sorted(ds)))
                if len(ds) <= 2 else None)
            for w, ds in inv.items()}
    assert got == want
    assert got["the"] == (3, None)      # capped hot term
    assert got["fox"] == (3, None)
    assert got["dog"] == (2, "3,5")


def test_daily_deltas_vs_pandas(ray_session):
    """Day counts + lag deltas vs direct computation; gap days stay
    absent (delta is vs previous PRESENT day), first day NULL."""
    import datetime as dt

    import ray.data as rd

    from triple_accel_ray.ops.windows import daily_deltas

    D = dt.datetime(2024, 3, 1)
    rows = ([D + dt.timedelta(hours=h) for h in (1, 5, 23)]          # d0: 3
            + [D + dt.timedelta(days=1, hours=2)]                    # d1: 1
            + [D + dt.timedelta(days=4, hours=h) for h in (0, 12)])  # d4: 2
    t = pa.table({"ts": pa.array(rows, pa.timestamp("us"))})
    got = [(r["day"], r["n_events"], r["delta"])
           for r in daily_deltas(
               rd.from_arrow(t).repartition(3)).take_all()]
    got.sort()
    assert got == [
        (D, 3, None),
        (D + dt.timedelta(days=1), 1, -2),
        (D + dt.timedelta(days=4), 2, 1),
    ]


def test_pivot_counts_contract(ray_session):
    """Wide pivot vs hand counts: unknown categories coerced to other,
    rows with only-other categories still present, int64 columns."""
    import ray.data as rd

    from triple_accel_ray.ops.relational import pivot_counts

    t = pa.table({
        "g": pa.array(["a", "a", "a", "b", "b", "c"], pa.string()),
        "cat": pa.array(["x", "y", "x", "zz", "x", "weird"], pa.string()),
    })
    got = {r["g"]: (r["n_x"], r["n_y"], r["n_other"])
           for r in pivot_counts(
               rd.from_arrow(t).repartition(3), "g", "cat",
               ["x", "y"]).take_all()}
    assert got == {"a": (2, 1, 0), "b": (1, 0, 1), "c": (0, 0, 1)}


def test_mad_outliers_vs_numpy(ray_session):
    """MAD outliers vs direct numpy on a skewed integer sample with
    duplicates; exact median/MAD rank rule (r = (500n+999)//1000)."""
    import ray.data as rd

    from triple_accel_ray.ops.sketch import mad_outliers

    rng = np.random.default_rng(11)
    x = np.concatenate([
        rng.integers(90, 110, 200),            # bulk
        np.array([500, 501, 5, 0, 100000]),    # outliers
    ]).astype(np.int64)
    ids = np.arange(len(x), dtype=np.int64)
    t = pa.table({"doc_id": pa.array(ids), "v": pa.array(x)})
    got = {r["doc_id"]: (r["val"], r["abs_dev"])
           for r in mad_outliers(
               rd.from_arrow(t).repartition(4), "doc_id", "v",
               k_times_10=30).take_all()}

    xs = np.sort(x)
    n = len(x)
    med = xs[(500 * n + 999) // 1000 - 1]
    dev = np.abs(x - med)
    mad = np.sort(dev)[(500 * n + 999) // 1000 - 1]
    m = 10 * dev > 30 * mad
    want = {int(i): (int(v), int(d))
            for i, v, d in zip(ids[m], x[m], dev[m])}
    assert got == want and len(want) >= 4


def test_term_cooccurrence_vs_naive(ray_session):
    """Co-occurrence matrix vs python sets on a tiny corpus where the
    vocabulary cut-off rule (count DESC, term ASC) has ties, docs
    repeat terms, and some vocab terms never co-occur."""
    import itertools
    import re

    import ray.data as rd

    from triple_accel_ray.ops.text import term_cooccurrence

    texts = {
        1: "aa bb aa cc", 2: "bb cc dd", 3: "aa dd ee aa",
        4: "ff gg", 5: "aa bb"}
    t = pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.string()),
    })
    K = 4
    got = {(r["term_a"], r["term_b"]): r["n_docs"]
           for r in term_cooccurrence(
               rd.from_arrow(t).repartition(3), vocab_k=K).take_all()}

    cnt = {}
    for s in texts.values():
        for w in re.findall(r"[A-Za-z]+", s.lower()):
            cnt[w] = cnt.get(w, 0) + 1
    vocab = sorted(cnt, key=lambda w: (-cnt[w], w))[:K]
    want = {}
    for s in texts.values():
        present = sorted(set(re.findall(r"[A-Za-z]+", s.lower()))
                         & set(vocab))
        for a, b in itertools.combinations(present, 2):
            want[(a, b)] = want.get((a, b), 0) + 1
    assert got == want


def test_normalize_text_tri_engine(ray_session):
    """Normalization agrees across polars, Python re and DuckDB on
    adversarial whitespace (all five ASCII space classes, runs at both
    ends, empty, already-normal)."""
    import re

    import duckdb

    from triple_accel_ray.ops.text import normalize_text_batch

    cases = ["  A\tB\n\nc  ", "x", "", " \t\r\n ", "Mixed CASE\x0bhere",
             "no change", "a\f\fb"]
    t = pa.table({"text": pa.array(cases, pa.string())})
    got = normalize_text_batch(t)["ntext"].to_pylist()

    py = [re.sub(r"[ \t-\r]+", " ", s.lower()).strip(" ") for s in cases]
    duck = duckdb.connect().execute(
        "SELECT trim(regexp_replace(lower(t), '[ \t-\r]+', ' ', 'g')) "
        "FROM (SELECT unnest(?) AS t)", [cases]).fetchall()
    assert got == py == [r[0] for r in duck]


def test_cms_join_size_properties(ray_session):
    """Exact join size == python dict computation; est >= exact;
    est == exact at sketch width >> key cardinality (no collisions)."""
    import ray.data as rd

    from triple_accel_ray.ops.sketch import cms_join_size

    rng = np.random.default_rng(3)
    a = rng.integers(0, 50, 4000).astype(np.int64)
    b = rng.integers(25, 75, 3000).astype(np.int64)
    la = pa.table({"k": pa.array(a)})
    rb = pa.table({"j": pa.array(b)})
    row = cms_join_size(
        rd.from_arrow(la).repartition(4),
        rd.from_arrow(rb).repartition(3), "k", "j").take_all()[0]

    ca, cb = {}, {}
    for v in a:
        ca[v] = ca.get(v, 0) + 1
    for v in b:
        cb[v] = cb.get(v, 0) + 1
    exact = sum(n * cb.get(k, 0) for k, n in ca.items())
    assert row["n_exact"] == exact
    assert row["n_est"] >= exact
    # default w=1024 >> 75 keys: collisions possible but rare; the
    # estimator property (>=) is the contract, equality is typical
    assert row["n_est"] <= 2 * exact


def test_key_skew_stats_ties(ray_session):
    """Skew ranking vs hand computation with count ties (key ASC break)
    and a dominant hot key spread across blocks."""
    import ray.data as rd

    from triple_accel_ray.ops.profile import key_skew_stats

    keys = [7] * 50 + [3] * 20 + [9] * 20 + [1] * 10
    t = pa.table({"k": pa.array(keys, pa.int64())})
    got = [(r["rank"], r["key"], r["n_rows"], r["permille"])
           for r in key_skew_stats(
               rd.from_arrow(t).repartition(5), "k", top_n=3).take_all()]
    assert got == [(1, 7, 50, 500), (2, 3, 20, 200), (3, 9, 20, 200)]


def test_equi_depth_histogram_skew(ray_session):
    """Equi-depth bins vs numpy replay; a heavy value collapsing several
    boundaries leaves those bins empty (duplicate-boundary rule)."""
    import ray.data as rd

    from triple_accel_ray.ops.sketch import equi_depth_histogram

    x = np.concatenate([
        np.full(60, 5), np.arange(100, 140)]).astype(np.int64)
    t = pa.table({"v": pa.array(x)})
    got = {r["bin"]: r["n_rows"]
           for r in equi_depth_histogram(
               rd.from_arrow(t).repartition(4), "v",
               n_bins=5).take_all()}

    xs = np.sort(x)
    n = len(x)
    bounds = np.sort(np.array(
        [xs[(q * n + 999) // 1000 - 1] for q in (200, 400, 600, 800)],
        dtype=np.int64))
    bins = np.searchsorted(bounds, x, side="left")
    want = {int(b): int(c) for b, c in
            zip(*np.unique(bins, return_counts=True))}
    assert got == want
    assert len(got) < 5      # the heavy value 5 collapses boundaries


def test_kmeans_int_differential(ray_session):
    """Distributed integer k-means equals a single-process numpy replay of
    the same quantize/init/assign/floor-div rules, including an empty
    cluster (tight planted blobs leave some of the 8 centroids memberless),
    and is invariant under row permutation + repartitioning."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.similarity import kmeans_int
    from triple_accel_ray.pipeline.blocking import _mix64

    rng = np.random.default_rng(3)
    n, dim, k, n_iter, S, seed = 300, 8, 8, 3, 10**6, 29
    centers = rng.normal(0, 1, (3, dim))
    # zero noise: blob members are bit-identical, so several of the 8 init
    # centroids coincide and the higher-indexed duplicates never win an
    # argmin tie -> guaranteed empty clusters (keep-previous-centroid path)
    X = centers[rng.integers(0, 3, n)].astype(np.float32)
    ids = np.arange(1000, 1000 + n, dtype=np.int64)

    def replay():
        Q = np.floor(X.astype(np.float64) * S + 0.5).astype(np.int64)
        salt = np.uint64((seed * 0x9E3779B97F4A7C15) % 2**64)
        h = _mix64(ids.astype(np.uint64) ^ salt)
        C = Q[np.lexsort((ids, h))[:k]].copy()
        empty_seen = False
        for _ in range(n_iter):
            d2 = ((Q[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
            lab = np.argmin(d2, axis=1)
            for j in range(k):
                if (lab == j).any():
                    C[j] = Q[lab == j].sum(axis=0) // (lab == j).sum()
                else:
                    empty_seen = True
        d2 = ((Q[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        return dict(zip(ids.tolist(), np.argmin(d2, axis=1).tolist())), empty_seen

    want, empty_seen = replay()
    assert empty_seen  # the keep-previous-centroid path is exercised

    t = pa.table({"vec_id": pa.array(ids, pa.int64()),
                  "embedding": pa.array(list(X), pa.list_(pa.float32()))})
    got = {r["vec_id"]: r["cluster"]
           for r in kmeans_int(rd.from_arrow(t).repartition(7),
                               k=k, n_iter=n_iter, seed=seed).take_all()}
    assert got == want

    perm = rng.permutation(n)
    t2 = pa.table({"vec_id": pa.array(ids[perm], pa.int64()),
                   "embedding": pa.array(list(X[perm]),
                                         pa.list_(pa.float32()))})
    got2 = {r["vec_id"]: r["cluster"]
            for r in kmeans_int(rd.from_arrow(t2).repartition(4),
                                k=k, n_iter=n_iter, seed=seed).take_all()}
    assert got2 == want


def test_ssjoin_token_pairs_vs_bruteforce(ray_session):
    """Prefix-filtered set-similarity join equals a brute-force token-set
    Jaccard scan: empty docs, whitespace-only docs, duplicate tokens
    (sets, not bags), tab/CR separators, identical docs, and subsets that
    straddle the threshold."""
    import itertools
    import re

    import ray.data as rd

    from triple_accel_ray.ops.dedup import ssjoin_token_pairs

    texts = {
        1: "alpha beta gamma delta epsilon",
        2: "alpha beta gamma delta epsilon",          # identical to 1
        3: "alpha beta gamma delta",                  # 4/5 subset
        4: "alpha beta gamma delta zeta",             # 4-of-6 overlap w/ 1
        5: "",                                        # empty
        6: " \t \r ",                                 # whitespace only
        7: "alpha alpha alpha beta beta gamma delta epsilon",  # bag==set of 1
        8: "alpha\tbeta\rgamma\ndelta epsilon",       # tab/cr/nl separators
        9: "unrelated tokens entirely here",
        10: "alpha beta gamma delta epsilon zeta eta theta iota kappa",
    }
    thp = 600

    def toks(s):
        return set(re.findall(r"[^ \t-\r]+", s))

    want = {}
    for a, b in itertools.combinations(sorted(texts), 2):
        ta, tb = toks(texts[a]), toks(texts[b])
        inter = len(ta & tb)
        uni = len(ta | tb)
        if uni > 0 and 1000 * inter >= thp * uni:
            lo, hi = sorted((str(a), str(b)))  # op orients by STRING id
            want[(lo, hi)] = (inter, uni, (1000 * inter) // uni)

    t = pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[k] for k in sorted(texts)], pa.string()),
    })
    out = ssjoin_token_pairs(
        rd.from_arrow(t).repartition(4), threshold_permille=thp,
        num_buckets=4).take_all()
    got = {(r["a_id"], r["b_id"]): (r["inter"], r["uni"],
                                    r["jaccard_permille"]) for r in out}
    assert got == want
    assert ("1", "2") in got and got[("1", "2")][2] == 1000
    assert ("1", "7") in got  # bag collapses to set


def test_knn_pq_differential(ray_session):
    """Distributed integer product quantization equals a single-process
    numpy replay of the same quantize/init/per-subspace-Lloyd/encode/ADC
    rules, including an empty code (zero-noise planted blobs make several
    of the init codebook rows coincide -> keep-previous path), and is
    invariant under row permutation + repartitioning."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.similarity import knn_pq
    from triple_accel_ray.pipeline.blocking import _mix64

    rng = np.random.default_rng(11)
    n, dim, n_sub, ksub, n_iter, S, seed, k, nq = 200, 8, 2, 4, 2, 10**6, 31, 3, 5
    dsub = dim // n_sub
    centers = rng.normal(0, 1, (3, dim))
    X = centers[rng.integers(0, 3, n)].astype(np.float32)  # zero noise
    ids = np.arange(500, 500 + n, dtype=np.int64)

    def replay():
        Q = np.floor(X.astype(np.float64) * S + 0.5).astype(np.int64)
        salt = np.uint64((seed * 0x9E3779B97F4A7C15) % 2**64)
        h = _mix64(ids.astype(np.uint64) ^ salt)
        sel = Q[np.lexsort((ids, h))[:ksub]]
        C = [sel[:, m * dsub:(m + 1) * dsub].copy() for m in range(n_sub)]
        empty_seen = False
        for _ in range(n_iter):
            for m in range(n_sub):
                Qs = Q[:, m * dsub:(m + 1) * dsub]
                d2 = ((Qs[:, None, :] - C[m][None, :, :]) ** 2).sum(axis=2)
                lab = np.argmin(d2, axis=1)
                Cm = C[m].copy()
                for j in range(ksub):
                    if (lab == j).any():
                        Cm[j] = Qs[lab == j].sum(axis=0) // (lab == j).sum()
                    else:
                        empty_seen = True
                C[m] = Cm
        codes = np.stack(
            [np.argmin(((Q[:, m * dsub:(m + 1) * dsub][:, None, :]
                         - C[m][None, :, :]) ** 2).sum(axis=2), axis=1)
             for m in range(n_sub)], axis=1)
        qidx = np.arange(nq)  # queries = first nq rows by vec_id
        want = {}
        for qi in qidx:
            d = np.zeros(n, np.int64)
            for m in range(n_sub):
                qs = Q[qi, m * dsub:(m + 1) * dsub]
                lut = ((qs[None, :] - C[m]) ** 2).sum(axis=1)
                d += lut[codes[:, m]]
            mask = ids != ids[qi]
            order = np.lexsort((ids[mask], d[mask]))[:k]
            want[int(ids[qi])] = [
                (int(ids[mask][j]), int(d[mask][j]), r + 1)
                for r, j in enumerate(order)
            ]
        return want, empty_seen

    want, empty_seen = replay()
    assert empty_seen  # the keep-previous-codebook-row path is exercised

    def run(perm):
        t = pa.table({"vec_id": pa.array(ids[perm], pa.int64()),
                      "embedding": pa.array(list(X[perm]),
                                            pa.list_(pa.float32()))})
        qt = pa.table({"vec_id": pa.array(ids[:nq], pa.int64()),
                       "embedding": pa.array(list(X[:nq]),
                                             pa.list_(pa.float32()))})
        out = knn_pq(rd.from_arrow(t).repartition(6), qt, k=k, n_sub=n_sub,
                     ksub=ksub, n_iter=n_iter, seed=seed).take_all()
        got = {}
        for r in out:
            got.setdefault(r["query_id"], []).append(
                (r["neighbor_id"], r["pq_dist"], r["rank"]))
        return {qid: sorted(v, key=lambda x: x[2]) for qid, v in got.items()}

    assert run(np.arange(n)) == want
    assert run(rng.permutation(n)) == want


def test_duplicate_spans_vs_bruteforce(ray_session):
    """Exact duplicated-substring spans equal a brute-force window-count
    replay: cross-doc dups, within-doc self-repeats (overlapping windows
    merge into one island), docs shorter than w, stride-aligned starts,
    and both text-attach paths (broadcast index / tagged doc-bucket
    join)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.dedup import duplicate_spans

    docs = [
        ("d1", "abcdefghij" * 3 + "XYZ"),
        ("d2", "qqabcdefghijzz"),
        ("d3", "unique-text-here-0123456789!"),
        ("d4", "short"),
        ("d5", "mmmmmmmmmmmmmmmmmmmm"),
        ("d6", ""),
    ]
    t = pa.table({"doc_id": pa.array([d for d, _ in docs]),
                  "text": pa.array([x for _, x in docs])})

    def brute(W, S):
        from collections import Counter
        cnt = Counter()
        for _, tx in docs:
            b = tx.encode()
            for p in range(0, max(0, len(b) - W + 1), 1):
                if p % S == 0:
                    cnt[b[p:p + W]] += 1
        out = {}
        for d, tx in docs:
            b = tx.encode()
            dup = [p for p in range(0, max(0, len(b) - W + 1))
                   if p % S == 0 and cnt[b[p:p + W]] >= 2]
            spans = []
            for p in dup:
                if spans and p <= spans[-1][1]:
                    spans[-1] = (spans[-1][0], max(spans[-1][1], p + W))
                else:
                    spans.append((p, p + W))
            out[d] = (len(spans), sum(e - s for s, e in spans))
        return out

    for W, S, kw in [(10, 1, {}), (10, 1, {"broadcast_text_max_bytes": 1}),
                     (10, 3, {}), (4, 2, {})]:
        want = brute(W, S)
        res = duplicate_spans(rd.from_arrow(t).repartition(3), w=W, stride=S,
                              num_buckets=4, **kw)
        got = {r["doc_id"]: (r["n_dup_spans"], r["dup_bytes"])
               for r in res.take_all()}
        assert got == want, (W, S, kw, got, want)


def test_moving_frame_sum_vs_bruteforce(ray_session):
    """Bounded ROWS-frame moving sum equals a per-user python replay:
    users with fewer events than the frame, exact-frame users, ts ties
    broken by event_id, and repartition invariance."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.windows import moving_frame_sum

    rng = np.random.default_rng(7)
    n, frame = 120, 3
    eid = np.arange(n, dtype=np.int64)
    uid = rng.integers(0, 9, n).astype(np.int64)
    ts = rng.integers(0, 20, n).astype("datetime64[us]")  # many ties
    val = rng.uniform(0, 50, n)

    cents = np.floor(val * 100.0 + 0.5).astype(np.int64)
    want = {}
    for u in np.unique(uid):
        rows = np.flatnonzero(uid == u)
        order = rows[np.lexsort((eid[rows], ts[rows]))]
        for i, r in enumerate(order):
            lo = max(0, i - frame + 1)
            w = order[lo:i + 1]
            want[int(eid[r])] = (len(w), int(cents[w].sum()))

    t = pa.table({"event_id": pa.array(eid), "user_id": pa.array(uid),
                  "ts": pa.array(ts), "value": pa.array(val)})
    out = moving_frame_sum(rd.from_arrow(t).repartition(5), frame=frame,
                           num_buckets=4).take_all()
    got = {r["event_id"]: (r["frame_n"], r["frame_cents"]) for r in out}
    assert got == want


def test_trailing_time_sum_vs_bruteforce(ray_session):
    """RANGE-interval trailing sums equal a per-row python replay of the
    value-based frame [ts - W, ts] (peers with equal ts included on both
    sides — no tie-break), across repartitionings."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.windows import trailing_time_sum

    rng = np.random.default_rng(13)
    n = 150
    eid = np.arange(n, dtype=np.int64)
    uid = rng.integers(0, 6, n).astype(np.int64)
    # second granularity over a 90 s span -> lots of in-window rows + ties
    tsec = rng.integers(0, 90, n).astype(np.int64)
    ts = (tsec * 1_000_000).astype("datetime64[us]")
    val = rng.uniform(0, 50, n)
    cents = np.floor(val * 100.0 + 0.5).astype(np.int64)

    W = 10  # seconds
    want = {}
    for i in range(n):
        inw = (uid == uid[i]) & (tsec >= tsec[i] - W) & (tsec <= tsec[i])
        want[int(eid[i])] = (int(inw.sum()), int(cents[inw].sum()))

    t = pa.table({"event_id": pa.array(eid), "user_id": pa.array(uid),
                  "ts": pa.array(ts), "value": pa.array(val)})
    out = trailing_time_sum(rd.from_arrow(t).repartition(5), window="10s",
                            num_buckets=4).take_all()
    got = {r["event_id"]: (r["w_n"], r["w_cents"]) for r in out}
    assert got == want


def test_kcore_stationary_vs_bruteforce(ray_session):
    """Stationary k-core peeling equals a python replay of synchronous
    rounds (degree over the induced subgraph, drop < k, repeat),
    including rounds past the fixpoint and varying k."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.graph import kcore_stationary

    rng = np.random.default_rng(3)
    pairs = set()
    while len(pairs) < 120:
        a, b = rng.integers(0, 60, 2)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    pairs = sorted(pairs)
    t = pa.table({"a_id": pa.array([f"n{a}" for a, _ in pairs]),
                  "b_id": pa.array([f"n{b}" for _, b in pairs])})

    def brute(k, rounds):
        alive = ({f"n{a}" for a, _ in pairs}
                 | {f"n{b}" for _, b in pairs})
        E = [(f"n{a}", f"n{b}") for a, b in pairs]
        for _ in range(rounds):
            deg = {}
            for a, b in E:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            alive = {x for x in alive if deg.get(x, 0) >= k}
            E = [(a, b) for a, b in E if a in alive and b in alive]
        deg = {}
        for a, b in E:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        return {x: deg.get(x, 0) for x in alive}

    for k, rounds in [(2, 3), (3, 2), (2, 10), (2, 0)]:
        want = brute(k, rounds)
        got = {r["conv_id"]: r["core_deg"]
               for r in kcore_stationary(
                   rd.from_arrow(t).repartition(4), k=k, rounds=rounds,
                   num_buckets=4).take_all()}
        assert got == want, (k, rounds)


_SMALL_GRAPH = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("e", "f")]


def _graph_op_case(op):
    """(run(edges_ds, num_buckets) -> Dataset, output columns, expected
    rows on _SMALL_GRAPH plus the isolated node g) for one graph op."""
    import ray.data as rd

    from triple_accel_ray.ops.graph import (kcore_stationary,
                                            pagerank_stationary,
                                            triangle_counts_fast)
    from triple_accel_ray.pipeline.cluster import connected_components

    nodes = rd.from_arrow(pa.table({"conv_id": list("abcdefg")}))
    if op == "connected_components":
        return (lambda e, nb: connected_components(e, nodes,
                                                   num_partitions=nb),
                ["conv_id", "cluster_id"],
                {"a": "a", "b": "a", "c": "a", "d": "a", "e": "e",
                 "f": "e", "g": "g"})
    if op == "pagerank_stationary":
        return (lambda e, nb: pagerank_stationary(e, num_buckets=nb),
                ["conv_id", "pr"], _naive_pagerank(_SMALL_GRAPH))
    if op == "kcore_stationary":
        # d, e, f peel in round 1; the triangle survives at degree 2
        return (lambda e, nb: kcore_stationary(e, k=2, rounds=3,
                                               num_buckets=nb),
                ["conv_id", "core_deg"], {"a": 2, "b": 2, "c": 2})
    return (lambda e, nb: triangle_counts_fast(e, num_buckets=nb),
            ["conv_id", "n_triangles"], {"a": 1, "b": 1, "c": 1})


@pytest.mark.parametrize("op", ["connected_components", "pagerank_stationary",
                                "kcore_stationary", "triangle_counts_fast"])
def test_graph_engine_empty_edges_and_one_bucket(ray_session, op):
    """Every op on the shared exchange engine: empty edge input gives its
    typed empty output (connected components: all singletons), and one
    requested bucket gives the exact answer."""
    import ray.data as rd

    run, cols, want = _graph_op_case(op)
    empty = rd.from_arrow(pa.table({"a_id": pa.array([], pa.string()),
                                    "b_id": pa.array([], pa.string())}))
    out = run(empty, 4)
    assert out.schema().names == cols
    rows = out.take_all()
    if op == "connected_components":
        assert sorted((r["conv_id"], r["cluster_id"]) for r in rows) == [
            (c, c) for c in "abcdefg"]
    else:
        assert rows == []

    edges = rd.from_arrow(pa.table({
        "a_id": [a for a, _ in _SMALL_GRAPH],
        "b_id": [b for _, b in _SMALL_GRAPH]})).repartition(2)
    got = {r[cols[0]]: r[cols[1]] for r in run(edges, 1).take_all()}
    assert got == want


@pytest.mark.parametrize("op", ["pagerank_stationary", "kcore_stationary",
                                "triangle_counts_fast"])
def test_graph_op_same_table_at_default_cap_and_two_buckets(ray_session, op):
    """``num_buckets`` only caps the bucket count: at the default cap
    (which derives one bucket per CPU here) and at a cap of 2 each op
    returns the identical table."""
    import random

    import ray.data as rd

    from triple_accel_ray.ops import graph

    rng = random.Random(43)
    ids = [f"v{i:03d}" for i in range(120)]
    edges = sorted({tuple(sorted(rng.sample(ids, 2))) for _ in range(400)})
    ds = rd.from_arrow(pa.table({"a_id": [a for a, _ in edges],
                                 "b_id": [b for _, b in edges]})
                       ).repartition(6)
    fn = getattr(graph, op)

    def table(**kw):
        return (fn(ds, **kw).to_pandas().sort_values("conv_id")
                .reset_index(drop=True))

    default = table()
    assert len(default) > 0
    assert default.equals(table(num_buckets=2))


def test_event_transitions_vs_bruteforce(ray_session):
    """Transition counts equal a python replay over per-user (ts,
    event_id)-ordered streams, with ts ties and single-event users."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.windows import event_transitions

    rng = np.random.default_rng(17)
    n = 200
    eid = np.arange(n, dtype=np.int64)
    uid = rng.integers(0, 12, n).astype(np.int64)  # some 1-event users
    ts = (rng.integers(0, 40, n) * 1_000_000).astype("datetime64[us]")
    types = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]

    want = {}
    for u in np.unique(uid):
        rows = np.flatnonzero(uid == u)
        order = rows[np.lexsort((eid[rows], ts[rows]))]
        for i in range(1, len(order)):
            k = (str(types[order[i - 1]]), str(types[order[i]]))
            want[k] = want.get(k, 0) + 1

    t = pa.table({"event_id": pa.array(eid), "user_id": pa.array(uid),
                  "ts": pa.array(ts), "event_type": pa.array(types)})
    out = event_transitions(rd.from_arrow(t).repartition(5),
                            num_buckets=4).take_all()
    got = {(r["prev_type"], r["next_type"]): r["n"] for r in out}
    assert got == want


def test_user_value_trends_vs_bruteforce(ray_session):
    """Sufficient-statistics slope equals a python floor-division replay,
    including negative slopes (floor, not truncation), single-event
    users, and all-same-minute users (degenerate -> 0)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.windows import user_value_trends

    rng = np.random.default_rng(23)
    rows = []
    # user 0: decreasing values -> negative slope
    for i in range(6):
        rows.append((0, i * 60_000_000, 1000.0 - 117.3 * i))
    # user 1: single event
    rows.append((1, 0, 5.0))
    # user 2: all in one minute (den == 0)
    for i in range(4):
        rows.append((2, i * 1_000_000, 10.0 * i))
    # user 3: noisy increasing
    for i in range(10):
        rows.append((3, i * 90_000_000, 3.0 * i + float(rng.uniform(0, 2))))

    uid = np.array([r[0] for r in rows], np.int64)
    ts = np.array([r[1] for r in rows], "datetime64[us]")
    val = np.array([r[2] for r in rows])

    cents = np.floor(val * 100.0 + 0.5).astype(np.int64)
    want = {}
    for u in np.unique(uid):
        mask = uid == u
        x = (ts[mask].astype(np.int64)
             - ts[mask].astype(np.int64).min()) // 60_000_000
        y = cents[mask]
        n = int(mask.sum())
        den = n * int((x * x).sum()) - int(x.sum()) ** 2
        num = 1000 * (n * int((x * y).sum()) - int(x.sum()) * int(y.sum()))
        want[int(u)] = (n, num // den if den > 0 else 0)
    assert want[0][1] < 0  # negative-slope floor path exercised
    assert want[2][1] == 0

    t = pa.table({"user_id": pa.array(uid), "ts": pa.array(ts),
                  "value": pa.array(val)})
    out = user_value_trends(rd.from_arrow(t).repartition(3),
                            num_buckets=4).take_all()
    got = {r["user_id"]: (r["n_events"], r["slope_permille"]) for r in out}
    assert got == want


def test_gram_novelty_vs_bruteforce(ray_session):
    """First-occurrence gram attribution equals a python set replay:
    shared grams attribute to the smallest doc_id, self-repeats count
    once (distinct grams), sub-gram docs score 0."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.text import gram_novelty

    G = 4
    docs = [
        (10, "abcdefgh"),        # first occurrence of everything
        (20, "abcdxyzw"),        # shares 'abcd' with doc 10
        (5, "zzabcdzz"),         # smaller id: owns 'abcd' instead
        (30, "ab"),              # sub-gram -> 0 grams
        (40, "aaaaaaa"),         # one distinct gram, owned by itself
    ]
    first = {}
    for d, tx in sorted(docs):
        for p in range(len(tx) - G + 1):
            g = tx[p:p + G]
            first.setdefault(g, d)
    want = {}
    for d, tx in docs:
        gs = {tx[p:p + G] for p in range(len(tx) - G + 1)}
        novel = sum(1 for g in gs if first[g] == d)
        want[d] = (len(gs), novel,
                   (1000 * novel) // len(gs) if gs else 0)

    t = pa.table({"doc_id": pa.array([d for d, _ in docs], pa.int64()),
                  "text": pa.array([x for _, x in docs])})
    out = gram_novelty(rd.from_arrow(t).repartition(3), gram=G,
                       num_buckets=4).take_all()
    got = {r["doc_id"]: (r["n_grams"], r["novel_grams"],
                         r["novelty_permille"]) for r in out}
    assert got == want
    assert want[5][1] > 0 and want[20][1] < want[20][0]


def test_source_vocab_overlap_vs_bruteforce(ray_session):
    """Pairwise vocabulary Jaccard equals a python set replay: case
    folding, duplicate tokens collapse, disjoint sources emit a
    zero-intersection row, non-letter separators ignored."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.text import source_vocab_overlap

    docs = [
        ("s1", "Alpha beta GAMMA alpha"),
        ("s1", "beta delta"),
        ("s2", "alpha epsilon 123 zeta!"),
        ("s3", "omega"),                      # disjoint from s1, s2
        ("s2", "gamma"),
    ]
    import re
    vocab = {}
    for s, tx in docs:
        vocab.setdefault(s, set()).update(
            w.lower() for w in re.findall(r"[A-Za-z]+", tx))
    srcs = sorted(vocab)
    want = {}
    for i in range(len(srcs)):
        for j in range(i + 1, len(srcs)):
            a, b = srcs[i], srcs[j]
            inter = len(vocab[a] & vocab[b])
            uni = len(vocab[a] | vocab[b])
            want[(a, b)] = (inter, uni, (1000 * inter) // uni)

    t = pa.table({"source": pa.array([s for s, _ in docs]),
                  "text": pa.array([x for _, x in docs])})
    out = source_vocab_overlap(rd.from_arrow(t).repartition(3),
                               num_buckets=4).take_all()
    got = {(r["src_a"], r["src_b"]): (r["inter"], r["uni"],
                                      r["jaccard_permille"]) for r in out}
    assert got == want
    assert got[("s1", "s3")][0] == 0  # zero-intersection pair present


def test_bigram_lift_vs_bruteforce(ray_session):
    """Integer-lift collocations equal a python replay: bag counts
    (repeats count), doc boundaries break bigrams, min_count floor,
    (lift DESC, w1, w2) total order."""
    import re
    from collections import Counter

    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.text import bigram_lift_top

    texts = [
        "red fish blue fish red fish",
        "blue fish red car",
        "car red fish blue",
        "fish",  # single token: no bigrams
    ] * 3
    uni, big = Counter(), Counter()
    for tx in texts:
        ws = re.findall(r"[a-z]+", tx.lower())
        uni.update(ws)
        big.update(zip(ws, ws[1:]))
    N = sum(uni.values())
    mc = 2
    scored = [
        (w1, w2, n, (1000 * N * n) // (uni[w1] * uni[w2]))
        for (w1, w2), n in big.items() if n >= mc
    ]
    scored.sort(key=lambda r: (-r[3], r[0], r[1]))
    want = scored[:5]

    t = pa.table({"text": pa.array(texts)})
    out = bigram_lift_top(rd.from_arrow(t).repartition(3), k=5,
                          min_count=mc).take_all()
    got = [(r["w1"], r["w2"], r["n_ab"], r["lift_permille"]) for r in out]
    assert got == want


def test_conv_lint_vs_bruteforce(ray_session):
    """Lint counts equal a python replay: same-role runs, tool turns
    opening a conversation, tool-after-user, backwards timestamps."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.transcripts import conv_lint

    rows = [
        # conv, idx, role, ts_us
        ("c1", 0, "user", 10), ("c1", 1, "assistant", 20),
        ("c1", 2, "tool", 30), ("c1", 3, "assistant", 25),  # ts regression
        ("c2", 0, "tool", 5),                               # opening tool
        ("c2", 1, "tool", 6),                               # same-role + orphan
        ("c3", 0, "user", 1), ("c3", 1, "user", 2),         # same-role
        ("c3", 2, "tool", 3),                               # tool after user
    ]
    want = {
        "c1": (4, 0, 0, 1),
        "c2": (2, 1, 2, 0),
        "c3": (3, 1, 1, 0),
    }
    t = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "ts": pa.array(np.array([r[3] for r in rows], "datetime64[us]")),
    })
    out = conv_lint(rd.from_arrow(t).repartition(3), num_buckets=4).take_all()
    got = {r["conv_id"]: (r["n_turns"], r["same_role_adjacent"],
                          r["orphan_tool_turns"], r["ts_regressions"])
           for r in out}
    assert got == want


def test_upsert_latest_vs_bruteforce(ray_session):
    """Last-writer-wins upsert equals a python replay: updates, inserts,
    exact-timestamp ties (patch wins), stale patch rows (base wins),
    multiple patch rows per key (latest wins)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.relational import upsert_latest

    base = [(1, 10, "b1"), (2, 10, "b2"), (3, 30, "b3")]
    patch = [(2, 20, "p2"),          # newer -> wins
             (3, 30, "p3"),          # tie -> patch wins
             (1, 5, "p1-stale"),     # older -> base wins
             (4, 1, "p4-old"), (4, 2, "p4-new"),  # insert, latest wins
             ]
    want = {1: (10, "b1"), 2: (20, "p2"), 3: (30, "p3"), 4: (2, "p4-new")}

    def tab(rows):
        return pa.table({
            "k": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(np.array([r[1] for r in rows],
                                    "datetime64[us]")),
            "v": pa.array([r[2] for r in rows]),
        })

    out = upsert_latest(rd.from_arrow(tab(base)).repartition(2),
                        rd.from_arrow(tab(patch)).repartition(2),
                        "k", "ts", num_buckets=4).take_all()
    got = {r["k"]: (int(np.datetime64(r["ts"], "us").astype(np.int64)),
                    r["v"]) for r in out}
    assert got == want


def test_dense_rank_ids(ray_session):
    """zipWithIndex: dense contiguous 0-based ids in sorted order,
    duplicates collapse, invariant under repartitioning/permutation."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.relational import dense_rank_ids

    rng = np.random.default_rng(41)
    vals = [f"k{int(v):04d}" for v in rng.integers(0, 300, 1500)]
    want = {v: i for i, v in enumerate(sorted(set(vals)))}

    for parts in (1, 6):
        ds = rd.from_arrow(pa.table({"conv_id": pa.array(vals)})
                           ).repartition(parts)
        out = dense_rank_ids(ds, "conv_id", num_partitions=4).take_all()
        got = {r["value"]: r["id"] for r in out}
        assert got == want
        ids = sorted(got.values())
        assert ids == list(range(len(want)))  # dense + contiguous


def test_source_length_drift_vs_bruteforce(ray_session):
    """Per-source L1 drift equals a python replay: identical-shape
    sources score 0, disjoint-bucket sources score near 2000, missing
    buckets fill as zero."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.profile import source_length_drift

    rows = (
        [("a", 10)] * 50 + [("a", 1000)] * 50      # reference shape
        + [("b", 10)] * 50 + [("b", 1000)] * 50    # same shape as a
        + [("c", 100000)] * 100                    # disjoint bucket
    )
    src = np.array([r[0] for r in rows])
    val = np.array([r[1] for r in rows], np.int64)

    def bucket(x):
        return int(x).bit_length() - 1 if x >= 1 else -1

    bks = np.array([bucket(v) for v in val])
    gl, gn = np.unique(bks, return_counts=True)
    N = len(rows)
    want = {}
    for s in np.unique(src):
        m = src == s
        ns = int(m.sum())
        drift = 0
        for b, g in zip(gl, gn):
            nsb = int((bks[m] == b).sum())
            drift += abs((1000 * nsb) // ns - (1000 * int(g)) // N)
        want[str(s)] = (ns, drift)

    t = pa.table({"source": pa.array(src), "n_chars": pa.array(val)})
    out = source_length_drift(
        rd.from_arrow(t).repartition(4)).take_all()
    got = {r["source"]: (r["n_docs"], r["drift_permille"]) for r in out}
    assert got == want
    assert got["a"] == got["b"] and got["c"][1] > got["a"][1]


def test_sft_pairs_vs_bruteforce(ray_session):
    """SFT pairs equal a python replay: direct user->assistant only;
    tool turns and same-role runs suppress; conversation boundaries
    never pair."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from triple_accel_ray.ops.transcripts import sft_pairs

    rows = [
        ("c1", 0, "user", "q1"), ("c1", 1, "assistant", "a1"),
        ("c1", 2, "user", "q2"), ("c1", 3, "tool", "t"),
        ("c1", 4, "assistant", "a2"),        # tool in between: no pair
        ("c2", 0, "assistant", "a-first"),   # boundary: no pair
        ("c2", 1, "user", "q3"), ("c2", 2, "user", "q4"),
        ("c2", 3, "assistant", "a3"),        # pairs with q4 only
    ]
    want = {("c1", 1): ("q1", "a1"), ("c2", 3): ("q4", "a3")}

    t = pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows]),
        "text": pa.array([r[3] for r in rows]),
    })
    out = sft_pairs(rd.from_arrow(t).repartition(3), num_buckets=4).take_all()
    got = {(r["conv_id"], r["turn_idx"]): (r["prompt"], r["response"])
           for r in out}
    assert got == want


def test_bpe_train_merges_matches_reference_impl(ray_session):
    """Distributed BPE merge table == a straightforward single-process
    reference implementation (dict word counts, per-round pair counting
    and str.replace merging) on a small corpus."""
    import ray.data as rd

    from triple_accel_ray.ops.text import bpe_train_merges

    texts = [
        "the cat sat on the mat",
        "the cats eat the meat",
        "a cat and a mat and a hat",
        "that hat is the cat's hat",
        "", "THE CAT, the cat!",
    ]
    t = pa.table({"text": texts})
    got = (bpe_train_merges(rd.from_arrow(t).repartition(3), n_merges=5)
           .to_pandas())

    import pandas as pd

    want = pd.DataFrame(
        _classic_bpe(texts, 5),
        columns=["round", "merge_left", "merge_right", "pair_count"])
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want, check_dtype=False)


def _classic_bpe(texts, n_merges):
    """Single-process classic BPE (Sennrich et al.) over token LISTS —
    greedy leftmost non-overlapping merge scan, no string-replace
    shortcut, so it is an independent oracle for the engine's
    separator-encoded replace."""
    import re
    from collections import Counter

    freq = Counter(w for s in texts for w in re.findall(r"[a-z]+",
                                                        s.lower()))
    seqs = {w: list(w) for w in freq}
    rows = []
    for r in range(n_merges):
        pc = Counter()
        for w, f in freq.items():
            syms = seqs[w]
            for i in range(len(syms) - 1):
                pc[(syms[i], syms[i + 1])] += f
        if not pc:
            break
        (l, rr), c = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
        rows.append((r + 1, l, rr, c))
        for w, syms in seqs.items():
            out, i = [], 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == l
                        and syms[i + 1] == rr):
                    out.append(l + rr)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            seqs[w] = out
    return rows


def test_bpe_merge_application_is_boundary_anchored(ray_session):
    """Regression for the round-4 advice bug: merging (h, e) while the
    corpus holds ``[th, e]`` sequences must NOT match inside the
    multi-char symbol ``th``. Corpus tuned so round 1 merges (t, h)
    and round 2 merges (h, e) while ``the`` is still ``[th, e]``; the
    old ``x+SEP+y`` replace collapsed ``the`` to one symbol here,
    which shifts every later round. Also covers the adjacent-run case
    ``[a,a,a,a] → [aa, aa]`` via the list-scan reference."""
    import ray.data as rd

    from triple_accel_ray.ops.text import bpe_train_merges

    texts = (["the"] * 10 + ["oth"] * 6 + ["ith"] * 6 + ["uth"] * 6
             + ["whe"] * 12 + ["aaaa"] * 3)
    t = pa.table({"text": texts})
    got = [tuple(r.values()) for r in
           bpe_train_merges(rd.from_arrow(t).repartition(3),
                            n_merges=5).take_all()]
    want = [tuple(r) for r in _classic_bpe(texts, 5)]
    assert got == want
    # pin the trap: round 2 merges (h, e) with th|e unmerged; round 4
    # must then still see the genuine (th, e) pair with count 10
    assert got[1][1:] == ("h", "e", 12)
    assert ("th", "e", 10) in [g[1:] for g in got]


def test_bpe_encode_token_counts_matches_classic(ray_session):
    """Tokenizer application == classic list-based BPE: train 5 merges,
    encode every word with the greedy leftmost scan, count tokens
    weighted by word frequency."""
    import re
    from collections import Counter

    import ray.data as rd

    from triple_accel_ray.ops.text import bpe_encode_token_counts

    texts = [
        "the cat sat on the mat",
        "the cats eat the meat",
        "a cat and a mat and a hat",
        "that hat is the cat's hat",
        "", "THE CAT, the cat!", "aaaa aaaa baaa",
    ]
    t = pa.table({"text": texts})
    got = {r["token"]: r["n_total"] for r in
           bpe_encode_token_counts(rd.from_arrow(t).repartition(3),
                                   n_merges=5).take_all()}

    freq = Counter(w for s in texts for w in re.findall(r"[a-z]+",
                                                        s.lower()))
    seqs = {w: list(w) for w in freq}
    rows = _classic_bpe(texts, 5)
    for _, l, rr, _ in rows:
        for w, syms in seqs.items():
            out, i = [], 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == l
                        and syms[i + 1] == rr):
                    out.append(l + rr)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            seqs[w] = out
    want = Counter()
    for w, f in freq.items():
        for tok in seqs[w]:
            want[tok] += f
    assert got == dict(want)


def test_lm_bigram_fit_scores_vs_python_replay(ray_session):
    """CCNet-style bigram LM filter == a dict-based python replay:
    add-one conditional fit in integer per-mille, OOV counts 0,
    V = trained vocab size; docs with < 2 words score 0. Also checks
    the discrimination property: in-domain text outscores off-domain."""
    import re
    from collections import Counter

    import ray.data as rd

    from triple_accel_ray.ops.text import lm_bigram_fit_scores

    rows = [
        (0, "src0", "the cat sat on the mat"),
        (1, "src0", "the cat ate the fish"),
        (2, "src0", "a cat and a mat"),
        (3, "src1", "the cat sat on the mat"),     # in-domain text
        (4, "src1", "zzz qqq xxx yyy zzz"),        # off-domain text
        (5, "src1", "word"),                       # < 2 words
        (6, "src1", ""),                           # empty
    ]
    t = pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                  "source": [r[1] for r in rows],
                  "text": [r[2] for r in rows]})
    got = {r["doc_id"]: (r["n_bigrams"], r["fit_sum"],
                         r["avg_fit_permille"])
           for r in lm_bigram_fit_scores(
               rd.from_arrow(t).repartition(3),
               train_source="src0").take_all()}

    toks = {i: re.findall(r"[a-z]+", s.lower()) for i, _, s in rows}
    uni, big = Counter(), Counter()
    for i, src, _ in rows:
        if src == "src0":
            uni.update(toks[i])
            big.update(zip(toks[i], toks[i][1:]))
    V = max(len(uni), 1)
    want = {}
    for i, _, _ in rows:
        pairs = list(zip(toks[i], toks[i][1:]))
        fits = [(1000 * (big[p] + 1)) // (uni[p[0]] + V) for p in pairs]
        s = sum(fits)
        want[i] = (len(pairs), s, s // len(pairs) if pairs else 0)
    assert got == want
    assert got[3][2] > got[4][2]          # in-domain beats off-domain
    assert got[5] == (0, 0, 0) and got[6] == (0, 0, 0)


def test_near_dup_survivors_best_keeps_argmax(ray_session):
    """Rank-aware dedup == python replay: minhash pairs -> union-find ->
    per-component argmax by (score DESC, id ASC). Corpus planted so the
    best member of each dup cluster is NOT the min id (the min-id rule
    would pick differently), plus singletons."""
    import ray.data as rd

    from triple_accel_ray.ops.dedup import (
        minhash_dup_pairs,
        near_dup_survivors_best,
    )

    base = ("the quick brown fox jumps over the lazy dog and then "
            "runs far away into the deep green forest tonight")
    rows = []
    # cluster A: ids 10, 11, 12 near-identical; longest is 12
    rows.append((10, base))
    rows.append((11, base + " again"))
    rows.append((12, base + " again and again and again"))
    # cluster B: ids 20, 21; longest is 21 (token set disjoint from A
    # so the two clusters cannot link at threshold 0.5)
    alt = ("seventeen purple elephants carefully carry wooden crates "
           "across narrow bridges while curious villagers watch from "
           "crowded balconies above")
    rows.append((20, alt))
    rows.append((21, alt + " every single evening"))
    # singletons
    rows.append((30, "completely different text about distributed "
                     "query engines and arrow batches"))
    rows.append((31, "another unrelated document mentioning tokenizers "
                     "vocabularies and merges"))
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": [r[1] for r in rows],
        "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
    })
    ds = rd.from_arrow(t).repartition(3)

    got = {r["doc_id"]: (r["cluster_size"], r["score"])
           for r in near_dup_survivors_best(
               ds, threshold=0.5, num_buckets=4).take_all()}

    # python replay over the SAME pair stream
    pairs = [(r["a_id"], r["b_id"]) for r in minhash_dup_pairs(
        ds, threshold=0.5, num_buckets=4).take_all()]
    parent = {str(r[0]): str(r[0]) for r in rows}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp = {}
    for r in rows:
        comp.setdefault(find(str(r[0])), []).append(r)
    want = {}
    for members in comp.values():
        best = sorted(members, key=lambda r: (-len(r[1]), str(r[0])))[0]
        want[str(best[0])] = (len(members), len(best[1]))
    assert {str(k): v for k, v in got.items()} == want
    # the planted clusters must have merged and kept their longest
    # (op output ids are strings; the registry query casts to int64)
    assert got.get("12") == (3, len(rows[2][1]))
    assert got.get("21") == (2, len(rows[4][1]))
    assert not {"10", "11", "20"} & set(got)
