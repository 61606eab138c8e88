"""Graph ops over the ER edge set.

Split from the monolithic queries.py (round-5); every block is the
original registration verbatim — register() adds the Ray-side
callables, register_sql() the DuckDB oracle twins."""
from ._common import *  # noqa: F401,F403
from ._sql_helpers import *  # noqa: F401,F403


def register(q):

    def er_edge_triangles(sf_dir):
        """Per-vertex triangle counts over the ER match-edge graph
        (ops/graph.triangle_counts_fast) — degree-oriented distributed
        triangle counting (wedges bounded O(m^1.5) under any skew),
        wedge<->edge pair join, 3 vertex mentions per triangle merged by
        a grouped sum; five lean raw map/reduce exchanges (6.5x over a
        six-Dataset-all-to-all form at 1.7M edges)."""
        from ..ops.graph import triangle_counts_fast

        return triangle_counts_fast(
            _er_edges_ds(sf_dir).select_columns(["a_id", "b_id"]),
            num_buckets=8)

    q["er_edge_triangles"] = er_edge_triangles

    def er_pagerank(sf_dir):
        """Integer fixed-point PageRank over the ER match graph
        (ops/graph.pagerank_stationary): 3 synchronous iterations,
        d=0.85, every step a floor divide or an order-independent
        integer sum — so the chained-CTE SQL twin is value-exact (no
        float reduction order anywhere). The edge table is hash(src)-
        partitioned ONCE and stays resident in the object store; each
        iteration moves only node-width rank shares (a Dataset-join
        form would re-ship the edges every pass)."""
        from ..ops.graph import pagerank_stationary

        return pagerank_stationary(
            _er_edges_ds(sf_dir).select_columns(["a_id", "b_id"]),
            n_iter=3, num_buckets=8)

    q["er_pagerank"] = er_pagerank

    def er_kcore2(sf_dir):
        """Distributed k-core peeling over the ER match graph
        (ops/graph.kcore_stationary, k=2, 3 synchronous rounds): nodes
        surviving the peels with their induced-subgraph degree. Fixed
        rounds keep the unrolled SQL twin value-exact; the edge table is
        partitioned once into both endpoint owners' buckets and stays
        resident — per round only (other, dead) drop pairs move, a
        volume that telescopes to <= 2|E| across ALL rounds."""
        from ..ops.graph import kcore_stationary

        return kcore_stationary(
            _er_edges_ds(sf_dir).select_columns(["a_id", "b_id"]),
            k=2, rounds=3, num_buckets=8)

    q["er_kcore2"] = er_kcore2


def register_sql(o):
    fx, W, docs_cte, sig_pairs_cte, scored_cte = _er_oracle_prelude()  # noqa: F841

    # triangles over the match graph: canonical a<b edges make the 3-way
    # self-join count each triangle x<y<z exactly once.
    o["er_edge_triangles"] = f"""
WITH {docs_cte}, {sig_pairs_cte}, {scored_cte},
e AS (SELECT a_id, b_id FROM edges),
tri AS (
  SELECT e1.a_id AS x, e1.b_id AS y, e2.b_id AS z
  FROM e e1
  JOIN e e2 ON e2.a_id = e1.b_id
  JOIN e e3 ON e3.a_id = e1.a_id AND e3.b_id = e2.b_id
),
verts AS (
  SELECT x AS conv_id FROM tri
  UNION ALL SELECT y FROM tri
  UNION ALL SELECT z FROM tri
)
SELECT conv_id, count(*)::BIGINT AS n_triangles FROM verts GROUP BY conv_id"""

    # integer fixed-point PageRank: floor divides + integer sums only,
    # so three chained CTEs replay the engine's iterations bit-for-bit
    # (// is integer division in DuckDB; all values non-negative, so
    # trunc == floor). de and deg, read by every round, are MATERIALIZED
    # so DuckDB does not inline them at each reference.
    o["er_pagerank"] = f"""
WITH {docs_cte}, {sig_pairs_cte}, {scored_cte},
e0 AS (SELECT a_id, b_id FROM edges),
de AS MATERIALIZED (SELECT a_id AS src, b_id AS dst FROM e0
       UNION ALL SELECT b_id, a_id FROM e0),
deg AS MATERIALIZED (SELECT src AS node, count(*)::BIGINT AS deg FROM de GROUP BY 1),
nn AS (SELECT count(*)::BIGINT AS n FROM deg),
pr0 AS (SELECT node, (1000000000000 // nn.n)::BIGINT AS pr FROM deg, nn),
s1 AS (SELECT de.dst AS node, sum(p.pr // d.deg)::BIGINT AS s
       FROM de JOIN pr0 p ON de.src = p.node JOIN deg d ON de.src = d.node
       GROUP BY 1),
pr1 AS (SELECT s1.node,
               ((15 * (1000000000000 // nn.n)) // 100
                + (85 * s) // 100)::BIGINT AS pr
        FROM s1, nn),
s2 AS (SELECT de.dst AS node, sum(p.pr // d.deg)::BIGINT AS s
       FROM de JOIN pr1 p ON de.src = p.node JOIN deg d ON de.src = d.node
       GROUP BY 1),
pr2 AS (SELECT s2.node,
               ((15 * (1000000000000 // nn.n)) // 100
                + (85 * s) // 100)::BIGINT AS pr
        FROM s2, nn),
s3 AS (SELECT de.dst AS node, sum(p.pr // d.deg)::BIGINT AS s
       FROM de JOIN pr2 p ON de.src = p.node JOIN deg d ON de.src = d.node
       GROUP BY 1),
pr3 AS (SELECT s3.node,
               ((15 * (1000000000000 // nn.n)) // 100
                + (85 * s) // 100)::BIGINT AS pr
        FROM s3, nn)
SELECT node AS conv_id, pr FROM pr3"""

    # k-core: 3 unrolled synchronous peels (k=2). Round i recomputes
    # degrees over the subgraph induced by the previous survivors; a
    # survivor absent from the next degree table has degree 0 < k and is
    # correctly dropped by the d >= k filter (it has no d-row at all).
    # Each round's survivors and edges are read twice by the next round,
    # so they are MATERIALIZED rather than inlined.
    _kc = []
    for _i in range(1, 4):
        _prev = "de0" if _i == 1 else f"de{_i - 1}"
        _kc.append(f"""d{_i} AS (SELECT src AS node, count(*)::BIGINT AS d
       FROM {_prev} GROUP BY 1),
a{_i} AS MATERIALIZED (SELECT node FROM d{_i} WHERE d >= 2),
de{_i} AS MATERIALIZED (SELECT src, dst FROM {_prev}
       WHERE src IN (SELECT node FROM a{_i})
         AND dst IN (SELECT node FROM a{_i}))""")
    o["er_kcore2"] = f"""
WITH {docs_cte}, {sig_pairs_cte}, {scored_cte},
e0 AS (SELECT a_id, b_id FROM edges),
de0 AS MATERIALIZED (SELECT a_id AS src, b_id AS dst FROM e0
        UNION ALL SELECT b_id, a_id FROM e0),
{','.join(_kc)},
dfin AS (SELECT src AS node, count(*)::BIGINT AS d FROM de3 GROUP BY 1)
SELECT a3.node AS conv_id, coalesce(dfin.d, 0)::BIGINT AS core_deg
FROM a3 LEFT JOIN dfin USING (node)"""
