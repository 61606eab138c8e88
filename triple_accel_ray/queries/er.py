"""Entity-resolution flagship pipeline queries + oracles.

Split from the monolithic queries.py (round-5); every block is the
original registration verbatim — register() adds the Ray-side
callables, register_sql() the DuckDB oracle twins."""
from ._common import *  # noqa: F401,F403
from ._sql_helpers import *  # noqa: F401,F403


def register(q):

    # ---- ER family over the transcript fixture -------------------------
    def er_docs_build(sf_dir):
        return _docs_sorted_cols(_er_docs_ds(sf_dir))

    q["er_docs_build"] = er_docs_build

    def er_exact_dup_clusters(sf_dir):
        docs = _er_docs_ds(sf_dir)
        return exact_dup_groups(
            docs, id_col="conv_id", text_col="doc_text", num_buckets=16
        )

    q["er_exact_dup_clusters"] = er_exact_dup_clusters

    def er_block_stats(sf_dir):
        docs = _er_docs_ds(sf_dir)

        def _key(t: pa.Table) -> pa.Table:
            df = pl.from_arrow(t.select(["role_sig", "doc_len"]))
            return df.with_columns(
                len_bucket=(pl.col("doc_len") // LEN_BUCKET).cast(pl.Int64)
            ).drop("doc_len").to_arrow()

        from ray.data.aggregate import Count

        out = (
            docs.map_batches(_key, batch_format="pyarrow")
            .groupby(["role_sig", "len_bucket"])
            .aggregate(Count(alias_name="n_docs"))
        )
        return out.map_batches(
            lambda t: t.filter(pc.greater_equal(t["n_docs"], 2)),
            batch_format="pyarrow",
        )

    q["er_block_stats"] = er_block_stats

    def er_candidate_pairs(sf_dir):
        return _sig_pairs(_er_docs_ds(sf_dir)).select_columns(["a_id", "b_id"])

    q["er_candidate_pairs"] = er_candidate_pairs

    def er_match_edges(sf_dir):
        return _er_edges_ds(sf_dir)

    q["er_match_edges"] = er_match_edges

    def er_clusters(sf_dir):
        # distributed fixpoint path — no driver-side edge collection even
        # in the harness (round-2 VERDICT item 7); small partition count
        # fits the sf0.01 correctness scale
        from ..pipeline.cluster import connected_components

        return connected_components(
            _er_edges_ds(sf_dir).select_columns(["a_id", "b_id"]),
            _er_docs_ds(sf_dir).select_columns(["conv_id"]),
            num_partitions=8,
        )

    q["er_clusters"] = er_clusters

    def er_clusters_after_delete(sf_dir):
        """Delete propagation without a full recluster
        (pipeline/cluster.clusters_after_delete): drop every conv whose
        numeric id suffix is divisible by 10, pass untouched clusters
        through, and re-run connected components only on the clusters
        that lost a member. Recompute cost scales with affected
        clusters, not the corpus; the SQL twin reclusters the whole
        surviving graph — agreement proves the targeted recompute is
        lossless."""
        from ..pipeline.cluster import clusters_after_delete

        nodes = _er_docs_ds(sf_dir).select_columns(["conv_id"])
        deleted = nodes.map_batches(
            lambda t: pl.from_arrow(t).filter(
                pl.col("conv_id").str.slice(1).cast(pl.Int64) % 10 == 0
            ).to_arrow().cast(pa.schema([("conv_id", pa.string())])),
            batch_format="pyarrow")
        return clusters_after_delete(
            _er_edges_ds(sf_dir).select_columns(["a_id", "b_id"]),
            nodes, deleted, num_partitions=8)

    q["er_clusters_after_delete"] = er_clusters_after_delete

    def er_edge_traceback(sf_dir):
        """Match edges + RLE edit traceback (reference Edit semantics; not
        SQL-expressible → rows-only check)."""
        from ..pipeline.score import PairScorer, explain_edges

        pairs = _sig_pairs(_er_docs_ds(sf_dir))
        scored = pairs.map_batches(
            PairScorer(rel_k=0.15, abs_min_k=4, abs_max_k=128,
                       min_similarity=0.85),
            batch_format="pyarrow", batch_size=2048,
        )
        from ..pipeline.shuffle import bucket_join

        def _mkey(t: pa.Table) -> pa.Table:
            key = pc.binary_join_element_wise(t["a_id"], t["b_id"], "|")
            return t.append_column("pair_key", key)

        matches = scored.map_batches(
            lambda t: _mkey(
                t.filter(pc.equal(t["is_match"], True)).select(
                    ["a_id", "b_id", "dist", "k"]
                )
            ),
            batch_format="pyarrow",
        )
        pair_texts = pairs.map_batches(
            lambda t: _mkey(t.select(["a_id", "b_id", "a_text", "b_text"]))
            .select(["pair_key", "a_text", "b_text"]),
            batch_format="pyarrow",
        )
        joined = bucket_join(
            matches, pair_texts,
            left_key="pair_key", right_key="pair_key",
            left_schema=pa.schema(
                [("a_id", pa.string()), ("b_id", pa.string()),
                 ("dist", pa.int64()), ("k", pa.int64()),
                 ("pair_key", pa.string())]
            ),
            right_schema=pa.schema(
                [("pair_key", pa.string()), ("a_text", pa.string()),
                 ("b_text", pa.string())]
            ),
            num_buckets=16,
        )
        out = explain_edges(joined)
        return out.map_batches(
            lambda t: pa.table(
                {
                    "a_id": t["a_id"],
                    "b_id": t["b_id"],
                    "dist": t["dist"],
                    "n_edit_runs": pc.list_value_length(t["trace"]),
                }
            ),
            batch_format="pyarrow",
        )

    q["er_edge_traceback"] = er_edge_traceback

    def er_clusters_full(sf_dir):
        """Full production pipeline (MinHash blocking; no SQL oracle)."""
        from ..pipeline import PipelineConfig, run_er_pipeline

        tp, _ = ensure_fixture(sf_dir)
        run_dir = os.path.join(
            "/tmp/ta_ray_runs", os.path.basename(os.path.dirname(tp))
        )
        s = run_er_pipeline(tp, run_dir, PipelineConfig())
        return pq.read_table(s["clusters_dir"])

    q["er_clusters_full"] = er_clusters_full

    def er_cluster_metrics(sf_dir):
        """Pairwise ER evaluation (precision/recall/F1) as a distributed
        op: TP = labeled positive pairs whose endpoints share a predicted
        cluster (two id-width bucket joins of the label pairs onto the
        cluster map), predicted pairs = sum C(n_c, 2) over cluster sizes
        (per-block partials + grouped sum), positives = label count. The
        three ratios are integer per-mille — precision 1000*tp//pred,
        recall 1000*tp//pos, f1 2000*tp//(pred+pos) (exact: f1 =
        2pr/(p+r) = 2tp/(pred+pos)) — so the SQL twin is value-exact.
        Output is ONE row; everything reaching the driver is an
        aggregate scalar, never row data."""
        from ray.data.aggregate import Sum

        from ..pipeline.cluster import connected_components
        from ..pipeline.shuffle import bucket_join

        _, lbl_path = ensure_fixture(sf_dir)
        clusters = connected_components(
            _er_edges_ds(sf_dir).select_columns(["a_id", "b_id"]),
            _er_docs_ds(sf_dir).select_columns(["conv_id"]),
            num_partitions=8,
        ).materialize()

        def _size_partial(t: pa.Table) -> pa.Table:
            out = (pl.from_arrow(t).group_by("cluster_id")
                   .agg(n=pl.len().cast(pl.Int64)))
            return out.to_arrow().cast(pa.schema(
                [("cluster_id", pa.string()), ("n", pa.int64())]))

        def _pp_partial(t: pa.Table) -> pa.Table:
            n = t["nc"].to_numpy()
            return pa.table({"pp": pa.array([int((n * (n - 1) // 2).sum())],
                                            pa.int64())})

        pred = int(
            clusters.map_batches(_size_partial, batch_format="pyarrow")
            .groupby("cluster_id").aggregate(Sum("n", alias_name="nc"))
            .map_batches(_pp_partial, batch_format="pyarrow")
            .sum("pp") or 0
        )

        lbl = read_parquet_clean(
            lbl_path, columns=["a_id", "b_id", "is_match"]
        ).map_batches(
            lambda t: t.filter(t["is_match"]).select(["a_id", "b_id"]),
            batch_format="pyarrow")
        pos = lbl.count()

        lbl_schema = pa.schema([("a_id", pa.string()), ("b_id", pa.string())])
        ca = clusters.map_batches(
            lambda t: pa.table({"conv_id": t["conv_id"], "ca": t["cluster_id"]}),
            batch_format="pyarrow")
        cb = clusters.map_batches(
            lambda t: pa.table({"conv_id": t["conv_id"], "cb": t["cluster_id"]}),
            batch_format="pyarrow")
        j1 = bucket_join(
            lbl, ca, "a_id", "conv_id", lbl_schema,
            pa.schema([("conv_id", pa.string()), ("ca", pa.string())]),
            num_buckets=8)
        j2 = bucket_join(
            j1, cb, "b_id", "conv_id",
            pa.schema(list(lbl_schema) + [("ca", pa.string())]),
            pa.schema([("conv_id", pa.string()), ("cb", pa.string())]),
            num_buckets=8)
        tp = int(j2.map_batches(
            lambda t: pa.table({"tp": pa.array(
                [int(pc.sum(pc.equal(t["ca"], t["cb"])).as_py() or 0)],
                pa.int64())}),
            batch_format="pyarrow").sum("tp") or 0)

        prec = (1000 * tp) // pred if pred else 1000
        rec = (1000 * tp) // pos if pos else 1000
        f1 = (2000 * tp) // (pred + pos) if (pred + pos) else 1000
        return pa.table({
            "tp": pa.array([tp], pa.int64()),
            "predicted_pairs": pa.array([pred], pa.int64()),
            "positive_pairs": pa.array([pos], pa.int64()),
            "precision_permille": pa.array([prec], pa.int64()),
            "recall_permille": pa.array([rec], pa.int64()),
            "f1_permille": pa.array([f1], pa.int64()),
        })

    q["er_cluster_metrics"] = er_cluster_metrics

    def er_blocking_metrics(sf_dir):
        """Blocking-quality evaluation (the ER literature's reduction
        ratio + pair completeness), distributed: reduction = 1 −
        candidates / C(n,2); completeness = labeled positive pairs that
        survive blocking / positives. Candidates never leave the
        cluster: the label pairs (tiny) ride one pair-key bucket join
        against the candidate table; everything reaching the driver is
        a scalar. Integer per-mille, value-exact SQL twin."""
        from ..pipeline.shuffle import bucket_join

        _, lbl_path = ensure_fixture(sf_dir)
        n_docs = _er_docs_ds(sf_dir).select_columns(["conv_id"]).count()
        all_pairs = n_docs * (n_docs - 1) // 2

        def _pk(t: pa.Table, a: str, b: str) -> pa.Table:
            df = pl.from_arrow(t.select([a, b]))
            return df.select(
                pk=pl.min_horizontal(a, b) + "|" + pl.max_horizontal(a, b)
            ).to_arrow().cast(pa.schema([("pk", pa.string())]))

        # materialize the id-only candidate keys ONCE: .count() and the
        # bucket_join below both consume them, and without pinning, the
        # whole blocking pipeline re-executes per consumer (ADVICE r3)
        cands = _sig_pairs(_er_docs_ds(sf_dir)).map_batches(
            lambda t: _pk(t, "a_id", "b_id"), batch_format="pyarrow"
        ).materialize()
        n_cand = cands.count()

        lbl = read_parquet_clean(
            lbl_path, columns=["a_id", "b_id", "is_match"]
        ).map_batches(
            lambda t: _pk(t.filter(t["is_match"]), "a_id", "b_id"),
            batch_format="pyarrow").materialize()
        pos = lbl.count()

        j = bucket_join(
            lbl,
            cands.map_batches(
                lambda t: t.append_column("one", pa.array(
                    np.ones(t.num_rows, np.int64))),
                batch_format="pyarrow"),
            "pk", "pk",
            pa.schema([("pk", pa.string())]),
            pa.schema([("pk", pa.string()), ("one", pa.int64())]),
            num_buckets=8)
        covered = j.count()

        rr = 1000 - (1000 * n_cand) // all_pairs if all_pairs else 0
        pcm = (1000 * covered) // pos if pos else 1000
        return pa.table({
            "n_docs": pa.array([n_docs], pa.int64()),
            "all_pairs": pa.array([all_pairs], pa.int64()),
            "n_candidates": pa.array([n_cand], pa.int64()),
            "positive_pairs": pa.array([pos], pa.int64()),
            "covered_positives": pa.array([covered], pa.int64()),
            "reduction_ratio_permille": pa.array([rr], pa.int64()),
            "pair_completeness_permille": pa.array([pcm], pa.int64()),
        })

    q["er_blocking_metrics"] = er_blocking_metrics

    def er_score_calibration(sf_dir):
        """Scorer calibration table — the Levenshtein kernel in its
        EVALUATION shape: for every labeled pair, full edit distance
        between the two assembled documents, bucketed (dist // 10,
        capped at 20) and counted by ground-truth label. The histogram
        a threshold-tuning pass reads. Texts attach to the labeled
        pairs via the pipeline's bucketed pair-text joins; scoring is
        the vectorized batch kernel."""
        from ..kernels.batch import levenshtein_k_batch
        from ..pipeline.shuffle import bucket_join

        _, lbl_path = ensure_fixture(sf_dir)
        lbl = read_parquet_clean(
            lbl_path, columns=["a_id", "b_id", "is_match"])
        docs = _er_docs_ds(sf_dir)
        lbl_schema = pa.schema([("a_id", pa.string()),
                                ("b_id", pa.string()),
                                ("is_match", pa.bool_())])
        j1 = bucket_join(
            lbl,
            docs.map_batches(
                lambda t: pa.table({"a_key": t["conv_id"],
                                    "a_text": t["doc_text"]}),
                batch_format="pyarrow"),
            "a_id", "a_key", lbl_schema,
            pa.schema([("a_key", pa.string()), ("a_text", pa.string())]),
            num_buckets=8)
        with_texts = bucket_join(
            j1,
            docs.map_batches(
                lambda t: pa.table({"b_key": t["conv_id"],
                                    "b_text": t["doc_text"]}),
                batch_format="pyarrow"),
            "b_id", "b_key",
            pa.schema(list(lbl_schema) + [pa.field("a_text", pa.string())]),
            pa.schema([("b_key", pa.string()), ("b_text", pa.string())]),
            num_buckets=8)

        def _score(t: pa.Table) -> pa.Table:
            schema = pa.schema([("dist_bucket", pa.int64()),
                                ("is_match", pa.bool_()),
                                ("n", pa.int64())])
            if t.num_rows == 0:
                return schema.empty_table()
            # the histogram caps at bucket 20 (dist >= 200), so distances
            # past 209 are indistinguishable — a k-capped band (width 419
            # instead of the full ~1300 an unbounded distance needs) and
            # -1 => bucket 20 produce the identical table ~4x faster
            d = levenshtein_k_batch(t["a_text"], t["b_text"], 209)
            bucket = np.where(d < 0, 20,
                              np.minimum(d.astype(np.int64) // 10, 20))
            df = pl.DataFrame({
                "dist_bucket": bucket,
                "is_match": t["is_match"].to_numpy(zero_copy_only=False),
            }).group_by(["dist_bucket", "is_match"]).agg(
                n=pl.len().cast(pl.Int64))
            return df.to_arrow().cast(schema)

        from ray.data.aggregate import Sum

        # batch_size=None: score each bucket-join output whole, in one
        # kernel call
        return (
            with_texts.map_batches(_score, batch_format="pyarrow",
                                   batch_size=None)
            .groupby(["dist_bucket", "is_match"])
            .aggregate(Sum("n", alias_name="n"))
        )

    q["er_score_calibration"] = er_score_calibration


def register_sql(o):
    fx, W, docs_cte, sig_pairs_cte, scored_cte = _er_oracle_prelude()  # noqa: F841
    o["er_docs_build"] = f"WITH {docs_cte} SELECT conv_id, doc_text, n_turns, doc_len, role_sig FROM docs2"

    o["er_exact_dup_clusters"] = f"""
WITH {docs_cte}
SELECT conv_id,
       min(conv_id) OVER (PARTITION BY doc_text) AS dup_group,
       (count(*) OVER (PARTITION BY doc_text))::BIGINT AS group_size
FROM docs2"""

    o["er_block_stats"] = f"""
WITH {docs_cte}
SELECT role_sig, (doc_len // {W})::BIGINT AS len_bucket, count(*)::BIGINT AS n_docs
FROM docs2 GROUP BY 1, 2 HAVING count(*) >= 2"""

    o["er_candidate_pairs"] = f"WITH {docs_cte}, {sig_pairs_cte} SELECT a_id, b_id FROM sig_pairs"

    o["er_match_edges"] = f"WITH {docs_cte}, {sig_pairs_cte}, {scored_cte} SELECT a_id, b_id, dist, sim FROM edges"

    o["er_clusters"] = f"""
WITH RECURSIVE {docs_cte}, {sig_pairs_cte}, {scored_cte},
sym(u, v) AS (
  SELECT a_id, b_id FROM edges UNION ALL SELECT b_id, a_id FROM edges
),
lp(node, label) AS (
  SELECT conv_id, conv_id FROM docs2
  UNION
  SELECT s.u, lp.label FROM sym s JOIN lp ON lp.node = s.v
)
SELECT node AS conv_id, min(label) AS cluster_id FROM lp GROUP BY node"""

    # delete propagation: the oracle reclusters the WHOLE surviving
    # graph; the engine recomputes only affected clusters — agreement
    # proves the targeted path lossless.
    o["er_clusters_after_delete"] = f"""
WITH RECURSIVE {docs_cte}, {sig_pairs_cte}, {scored_cte},
keep AS (SELECT conv_id FROM docs2
         WHERE substr(conv_id, 2)::BIGINT % 10 <> 0),
e2 AS (SELECT a_id, b_id FROM edges
       WHERE a_id IN (SELECT conv_id FROM keep)
         AND b_id IN (SELECT conv_id FROM keep)),
sym(u, v) AS (
  SELECT a_id, b_id FROM e2 UNION ALL SELECT b_id, a_id FROM e2
),
lp(node, label) AS (
  SELECT conv_id, conv_id FROM keep
  UNION
  SELECT s.u, lp.label FROM sym s JOIN lp ON lp.node = s.v
)
SELECT node AS conv_id, min(label) AS cluster_id FROM lp GROUP BY node"""

    _lbl_fx = fx.replace("transcripts.parquet", "labels.parquet")
    o["er_cluster_metrics"] = f"""
WITH RECURSIVE {docs_cte}, {sig_pairs_cte}, {scored_cte},
sym(u, v) AS (
  SELECT a_id, b_id FROM edges UNION ALL SELECT b_id, a_id FROM edges
),
lp(node, label) AS (
  SELECT conv_id, conv_id FROM docs2
  UNION
  SELECT s.u, lp.label FROM sym s JOIN lp ON lp.node = s.v
),
cl AS (SELECT node AS conv_id, min(label) AS cluster_id FROM lp GROUP BY node),
sizes AS (SELECT cluster_id, count(*)::BIGINT AS n FROM cl GROUP BY 1),
pp AS (SELECT sum(n * (n - 1) // 2)::BIGINT AS pred FROM sizes),
lb AS (SELECT a_id, b_id FROM read_parquet('{_lbl_fx}') WHERE is_match),
tpx AS (SELECT count(*)::BIGINT AS tp FROM lb
        JOIN cl ca ON ca.conv_id = lb.a_id
        JOIN cl cb ON cb.conv_id = lb.b_id
        WHERE ca.cluster_id = cb.cluster_id),
posx AS (SELECT count(*)::BIGINT AS pos FROM lb)
SELECT tp, pred AS predicted_pairs, pos AS positive_pairs,
       CASE WHEN pred > 0 THEN (1000 * tp) // pred ELSE 1000 END::BIGINT
         AS precision_permille,
       CASE WHEN pos > 0 THEN (1000 * tp) // pos ELSE 1000 END::BIGINT
         AS recall_permille,
       CASE WHEN pred + pos > 0 THEN (2000 * tp) // (pred + pos)
            ELSE 1000 END::BIGINT AS f1_permille
FROM tpx, pp, posx"""

    o["er_score_calibration"] = f"""
WITH {docs_cte},
lb AS (SELECT a_id, b_id, is_match FROM read_parquet('{_lbl_fx}')),
d AS (
  SELECT least(levenshtein(da.doc_text, db.doc_text) // 10, 20)::BIGINT
           AS dist_bucket,
         lb.is_match
  FROM lb
  JOIN docs2 da ON da.conv_id = lb.a_id
  JOIN docs2 db ON db.conv_id = lb.b_id)
SELECT dist_bucket, is_match, count(*)::BIGINT AS n
FROM d GROUP BY 1, 2"""

    o["er_blocking_metrics"] = f"""
WITH {docs_cte}, {sig_pairs_cte},
nd AS (SELECT count(*)::BIGINT AS n FROM docs2),
cnd AS (SELECT least(a_id, b_id) AS a, greatest(a_id, b_id) AS b
        FROM sig_pairs),
ncand AS (SELECT count(*)::BIGINT AS n FROM cnd),
lb AS (SELECT least(a_id, b_id) AS a, greatest(a_id, b_id) AS b
       FROM read_parquet('{_lbl_fx}') WHERE is_match),
posx AS (SELECT count(*)::BIGINT AS n FROM lb),
cov AS (SELECT count(*)::BIGINT AS n FROM lb
        WHERE EXISTS (SELECT 1 FROM cnd
                      WHERE cnd.a = lb.a AND cnd.b = lb.b))
SELECT nd.n AS n_docs,
       (nd.n * (nd.n - 1) // 2)::BIGINT AS all_pairs,
       ncand.n AS n_candidates,
       posx.n AS positive_pairs,
       cov.n AS covered_positives,
       CASE WHEN nd.n > 1
            THEN 1000 - (1000 * ncand.n) // (nd.n * (nd.n - 1) // 2)
            ELSE 0 END::BIGINT AS reduction_ratio_permille,
       CASE WHEN posx.n > 0 THEN (1000 * cov.n) // posx.n
            ELSE 1000 END::BIGINT AS pair_completeness_permille
FROM nd, ncand, posx, cov"""

    # Ground-truth oracle: the production pipeline's contract at these
    # settings is to recover the fixture's generating entities EXACTLY
    # (pairwise F1 = 1.0, held from sf0.001 through sf1.0) — so clusters
    # equal the label-derived components, with cluster_id = min conv_id
    # per entity. Any precision/recall regression flips this row red.
    lbl = fx.replace("transcripts.parquet", "labels.parquet")
    o["er_clusters_full"] = f"""
WITH m AS (
  SELECT a_id AS conv_id, entity_id FROM read_parquet('{lbl}') WHERE is_match
  UNION
  SELECT b_id, entity_id FROM read_parquet('{lbl}') WHERE is_match
),
ce AS (SELECT DISTINCT conv_id, entity_id FROM m),
cmin AS (SELECT entity_id, min(conv_id) AS cid FROM ce GROUP BY entity_id),
convs AS (SELECT DISTINCT conv_id FROM read_parquet('{fx}'))
SELECT c.conv_id, coalesce(cm.cid, c.conv_id) AS cluster_id
FROM convs c
LEFT JOIN ce ON ce.conv_id = c.conv_id
LEFT JOIN cmin cm ON cm.entity_id = ce.entity_id"""
