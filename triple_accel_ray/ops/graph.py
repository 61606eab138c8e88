"""Distributed graph analytics over undirected edge tables (a_id, b_id).

The ER pipeline already runs one graph algorithm (connected components,
pipeline/cluster.py); this module adds the classics a dedup/linkage
pipeline wants over the match graph:

- :func:`triangle_counts_fast`: per-vertex TRIANGLE counts — the
  standard local-clustering / community-density signal (a near-dup
  cluster whose members all match each other is denser than a chain of
  borderline matches);
- :func:`pagerank_stationary`: integer fixed-point PageRank;
- :func:`kcore_stationary`: fixed-round k-core peeling.

Reference scope note: the reference engine (triple_accel) has no graph
layer — this is an engine-side addition mandated by the brief's
custom-operator list, not a port.

Engine: every build and every round is one ``shuffle.raw_exchange``
over object-store-resident Arrow buckets; the map/reduce functions
below are module-level so each task pickles them by reference. Every
operator first turns each edge into both directed copies and routes
them to owner(src) = hash(src, 61) % B, so a node's whole
neighbourhood is resident in one bucket; rounds then move only
node-width (or telescoping) messages, never the edge table. All merges
are integer sums, counts or filters, so any partitioning gives
identical output, and the chained-CTE SQL twins are value-exact.

Bucket count: ``num_buckets`` is a cap. Each operator picks B once,
before its first exchange, with ``shuffle.shuffle_buckets`` — one bucket
per cluster CPU, never more than the cap — and keeps that B for every
exchange, since its buckets stay in place. Every exchange schedules ~B²
objects, so a B above what the cluster can run at once costs more than
the graph.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import polars as pl
import pyarrow as pa

from ..pipeline.pairs import _triu_cache
from ..pipeline.shuffle import (counter_totals, gather, raw_exchange,
                                shuffle_buckets)

_SEED = 61        # owner bucket of a node: hash(node, _SEED) % B
_PAIR_SEED = 58   # owner bucket of a canonical (lo, hi) edge


def _owner(col: str) -> pl.Expr:
    return pl.col(col).hash(seed=_SEED)


def _directed_map(t: pa.Table):
    """Edge block → both directed copies (src, dst), routed to owner(src)."""
    df = pl.from_arrow(t.select(["a_id", "b_id"]))
    de = pl.concat([
        df.select(src=pl.col("a_id"), dst=pl.col("b_id")),
        df.select(src=pl.col("b_id"), dst=pl.col("a_id")),
    ])
    return de, _owner("src")


def _attach_degree(b, parts, _extra, counters):
    """Resident (src, dst, sdeg) edges of one bucket: every out-edge of
    an owned node is here, so the degree needs no separate round. Counts
    the bucket's nodes (``nodes``)."""
    de = gather(parts)
    if de is None:
        counters["nodes"] = 0
        return pl.DataFrame(schema={"src": pl.String, "dst": pl.String,
                                    "sdeg": pl.Int64}).to_arrow()
    deg = de.group_by("src").agg(sdeg=pl.len().cast(pl.Int64))
    counters["nodes"] = deg.height
    return de.join(deg, on="src", how="inner").to_arrow()


def _route_by(col: str, t: pa.Table):
    return pl.from_arrow(t), _owner(col)


# ---- triangle counting ----------------------------------------------

def _tri_orient(b, parts, deg_t, _counters):
    """ddeg attach from the owner's resident degrees + the (deg, id)
    orientation filter — only lower-endpoint out-edges survive."""
    de = gather(parts)
    if de is None:
        return pl.DataFrame(schema={"src": pl.String,
                                    "dst": pl.String}).to_arrow()
    dd = (pl.from_arrow(deg_t).group_by("src")
          .agg(ddeg=pl.col("sdeg").first()).rename({"src": "dnode"}))
    de = de.join(dd, left_on="dst", right_on="dnode", how="inner")
    keep = (pl.col("sdeg") < pl.col("ddeg")) | (
        (pl.col("sdeg") == pl.col("ddeg")) & (pl.col("src") < pl.col("dst"))
    )
    return de.filter(keep).select(["src", "dst"]).to_arrow()


def _tri_wedges(b, parts, *_):
    """All out-neighbour pairs per src (lo < hi by the dst sort),
    emitted one broadcast per distinct out-degree, never a Python loop
    per vertex."""
    empty = pl.DataFrame(schema={"lo": pl.String, "hi": pl.String,
                                 "apex": pl.String})
    df = gather(parts)
    if df is None:
        return empty.to_arrow()
    df = df.sort(["src", "dst"])
    src = df["src"].to_numpy()
    dst = df["dst"].to_numpy()
    change = np.nonzero(src[1:] != src[:-1])[0] + 1
    starts = np.concatenate([[0], change])
    sizes = np.concatenate([change, [len(src)]]) - starts
    mask = sizes >= 2
    ssz, sst = sizes[mask], starts[mask]
    lo_i: list = []
    hi_i: list = []
    for n in np.unique(ssz):
        iu0, iu1 = _triu_cache(int(n))
        s_n = sst[ssz == n]
        lo_i.append((s_n[:, None] + iu0[None, :]).ravel())
        hi_i.append((s_n[:, None] + iu1[None, :]).ravel())
    if not lo_i:
        return empty.to_arrow()
    li = np.concatenate(lo_i)
    hi = np.concatenate(hi_i)
    return pl.DataFrame({
        "lo": dst[li], "hi": dst[hi], "apex": src[li],
    }).to_arrow()


def _tri_pair_map(part: pa.Table):
    """Wedges (lo, hi, apex) and canonical edges (lo, hi, null) →
    owner(lo, hi)."""
    if "apex" in part.column_names:
        df = pl.from_arrow(part)
    else:
        df = (pl.from_arrow(part.select(["a_id", "b_id"]))
              .rename({"a_id": "lo", "b_id": "hi"})
              .with_columns(apex=pl.lit(None, pl.String)))
    return df, (pl.col("lo") + "\x00" + pl.col("hi")).hash(seed=_PAIR_SEED)


def _tri_match(b, parts, *_):
    """Wedge ⋈ edge on (lo, hi): one (node, n) partial per vertex
    mention (3 per triangle)."""
    df = gather(parts)
    if df is None:
        return pa.table({"node": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    es = df.filter(pl.col("apex").is_null()).select(["lo", "hi"])
    ws = df.filter(pl.col("apex").is_not_null())
    tri = ws.join(es, on=["lo", "hi"], how="inner")
    verts = pl.concat([
        tri.select(node=pl.col("lo")),
        tri.select(node=pl.col("hi")),
        tri.select(node=pl.col("apex")),
    ])
    out = verts.group_by("node").agg(n=pl.len().cast(pl.Int64))
    return out.to_arrow().cast(
        pa.schema([("node", pa.string()), ("n", pa.int64())]))


def _tri_sum(b, parts, *_):
    schema = pa.schema([("conv_id", pa.string()), ("n_triangles", pa.int64())])
    df = gather(parts)
    if df is None:
        return schema.empty_table()
    out = df.group_by("node").agg(
        n_triangles=pl.col("n").sum().cast(pl.Int64)
    ).rename({"node": "conv_id"})
    return out.to_arrow().cast(schema)


def triangle_counts_fast(edges, num_buckets: int = 32):
    """edges (a_id, b_id) — canonical a_id < b_id, distinct — →
    (conv_id, n_triangles) for every vertex in at least one triangle.

    Algorithm (the canonical distributed one): orient every edge from
    its lower-(degree, id) endpoint to the higher one. Every vertex's
    OUT-neighbourhood is then at most ~sqrt(2m) (any out-neighbour has
    degree >= the vertex's own), so wedge generation is O(m^1.5) total
    no matter how skewed the degree distribution — the hub-vertex
    mitigation that a naive "pairs of neighbours" explodes on. Each
    triangle {x,y,z} has exactly one vertex with out-edges to the other
    two under an acyclic orientation, so joining wedges (lo, hi, apex)
    against the canonical edge set counts each triangle exactly once.

    Five exchanges (profiling a six-Dataset-all-to-all form at 1.7M
    edges showed 41 s wall with <1.5 s of UDF work per stage — the cost
    was union/tag/sort scheduling, so the fix is fewer, leaner
    exchanges):

    1. directed edges → src owner; owner-local degree, sdeg attach;
    2. rows → dst owner; ddeg from the owner's resident degrees (the
       ``extra`` side input) + the orientation filter;
    3. kept out-edges → src owner; wedge emission;
    4. wedges + canonical edges → hash(lo, hi) owner; pair join;
    5. (node, n) partials → node owner; grouped sum (a Dataset groupby
       here re-pays the all-to-all scheduling — measured: it tripled
       the op's wall time).

    All five use one bucket count B: one per cluster CPU, with
    ``num_buckets`` as its cap (module docstring)."""
    import ray.data as rd

    edge_refs = edges.select_columns(["a_id", "b_id"]).to_arrow_refs()
    B = shuffle_buckets(num_buckets)
    if not edge_refs:
        return rd.from_arrow(pa.schema([
            ("conv_id", pa.string()), ("n_triangles", pa.int64())
        ]).empty_table())
    deg, _ = raw_exchange(edge_refs, _directed_map, _attach_degree, B)
    kept, _ = raw_exchange(deg, partial(_route_by, "dst"), _tri_orient, B,
                           extra=deg)
    wedges, _ = raw_exchange(kept, partial(_route_by, "src"), _tri_wedges, B)
    partials, _ = raw_exchange(wedges + edge_refs, _tri_pair_map,
                               _tri_match, B)
    counts, _ = raw_exchange(partials, partial(_route_by, "node"), _tri_sum, B)
    return rd.from_arrow_refs(counts)


# ---- PageRank --------------------------------------------------------

def _pr_share(edge_t: pa.Table, pr):
    """One bucket's share pass: share = pr // sdeg per resident edge,
    summed per dst within the bucket, routed to owner(dst). ``pr`` is
    the bucket's (node, pr) slice, or the uniform initial rank."""
    if edge_t.num_rows == 0:
        return (pl.DataFrame(schema={"dst": pl.String, "s": pl.Int64}),
                _owner("dst"))
    ed = pl.from_arrow(edge_t)
    if isinstance(pr, int):
        ed = ed.with_columns(pr=pl.lit(pr, pl.Int64))
    else:
        ed = ed.join(pl.from_arrow(pr).rename({"node": "src"}), on="src",
                     how="inner")
    out = (
        ed.with_columns(share=pl.col("pr") // pl.col("sdeg"))
        .group_by("dst").agg(s=pl.col("share").sum().cast(pl.Int64))
    )
    return out, _owner("dst")


_PR_SCHEMA = pa.schema([("node", pa.string()), ("pr", pa.int64())])


def _pr_update(b, parts, _extra, _counters, *, base: int):
    """New (node, pr) slice: pr' = base + (85 * S) // 100. Every owned
    node receives at least one share (both directions of each edge
    exist), so the inbound dsts are exactly the bucket's nodes."""
    s = gather(parts)
    if s is None:
        return _PR_SCHEMA.empty_table()
    out = s.group_by("dst").agg(s=pl.col("s").sum().cast(pl.Int64)).select(
        node=pl.col("dst"),
        pr=(pl.lit(base, pl.Int64) + (85 * pl.col("s")) // 100),
    )
    return out.to_arrow().cast(_PR_SCHEMA)


def _pr_initial(t: pa.Table, pr0: int) -> pa.Table:
    nodes = pl.from_arrow(t).select(pl.col("src").unique())
    return pa.table({"node": nodes["src"].to_arrow(),
                     "pr": pa.array(np.full(nodes.height, pr0, np.int64))}
                    ).cast(_PR_SCHEMA)


def pagerank_stationary(edges, n_iter: int = 3, scale: int = 10**12,
                        num_buckets: int = 32):
    """edges (a_id, b_id) — canonical a_id < b_id, distinct — →
    (conv_id, pr): INTEGER fixed-point PageRank (d = 0.85) after
    ``n_iter`` synchronous iterations over the undirected match graph
    (each edge walked both ways).

    Why integer: pr values are int64 multiples of 1/scale with FLOOR
    division everywhere — pr0 = scale // N; per-edge share =
    pr // deg(src); pr' = (15 * (scale // N)) // 100 + (85 * S) // 100.
    Every step is an order-independent integer sum or a floor divide,
    so the result is deterministic under any partitioning and a chained
    3-CTE DuckDB twin is value-exact — the usual float-PageRank
    nondeterminism (reduction order) never appears. No dangling-node
    term is needed: both directions of every edge exist, so every node
    has out-degree >= 1.

    Stationary shape: the directed edge table (src, dst, sdeg) is
    hash(src)-partitioned ONCE into per-bucket Arrow tables that stay in
    the object store; each iteration is one exchange that moves only
    NODE-WIDTH data (per-bucket dst-grouped rank shares, at most
    |distinct dst in bucket| rows per bucket), never the edges. The
    bucket count is one per cluster CPU, with ``num_buckets`` as its cap
    (module docstring)."""
    import ray.data as rd

    blocks = edges.select_columns(["a_id", "b_id"]).to_arrow_refs()
    B = shuffle_buckets(num_buckets)
    n_nodes = 0
    if blocks:
        graph, counts = raw_exchange(blocks, _directed_map, _attach_degree, B)
        n_nodes = counter_totals(counts)["nodes"]
    if n_nodes == 0:
        return rd.from_arrow(pa.table({"conv_id": pa.array([], pa.string()),
                                       "pr": pa.array([], pa.int64())}))
    pr0 = int(scale) // n_nodes
    base = (15 * pr0) // 100

    if int(n_iter) < 1:   # no round: every node keeps pr0
        prs = rd.from_arrow_refs(graph).map_batches(
            _pr_initial, fn_kwargs={"pr0": pr0}, batch_format="pyarrow",
            batch_size=None)
    else:
        pr_slices = [pr0] * len(graph)
        for _ in range(int(n_iter)):
            pr_slices, _ = raw_exchange(
                list(zip(graph, pr_slices)), _pr_share,
                partial(_pr_update, base=base), B)
        prs = rd.from_arrow_refs(pr_slices)
    return prs.map_batches(
        lambda t: pa.table({"conv_id": t["node"],
                            "pr": t["pr"].cast(pa.int64())}),
        batch_format="pyarrow")


# ---- k-core ----------------------------------------------------------
# A bucket's state is one (src, dst) table: the resident directed edges
# of its owned nodes plus one (node, null) row per node still alive. The
# last exchange returns (conv_id, core_deg) instead of the state.

def _kcore_out(st: pl.DataFrame, final: bool) -> pa.Table:
    if not final:
        return st.to_arrow()
    out = (st.group_by("src")
           .agg(core_deg=pl.col("dst").count().cast(pl.Int64))
           .rename({"src": "conv_id"}))
    return out.to_arrow().cast(
        pa.schema([("conv_id", pa.string()), ("core_deg", pa.int64())]))


def _kcore_build(b, parts, *_, final: bool):
    de = gather(parts)
    if de is None:
        de = pl.DataFrame(schema={"src": pl.String, "dst": pl.String})
    alive = de.select("src").unique().with_columns(dst=pl.lit(None, pl.String))
    return _kcore_out(pl.concat([de, alive]), final)


def _kcore_peel(state: pa.Table, *, k: int):
    """Peel once: the owned nodes of degree < k die. Routed to owner(src):
    (other, dead) drops of each dying edge's mirror copy, and one
    (dead, null) row telling this bucket itself which nodes died."""
    st = pl.from_arrow(state)
    deg = st.group_by("src").agg(d=pl.col("dst").count())
    dead = deg.filter(pl.col("d") < k).select("src")
    drops = (st.filter(pl.col("dst").is_not_null())
             .join(dead, on="src", how="semi")
             .select(src=pl.col("dst"), dst=pl.col("src")))
    return (pl.concat([drops, dead.with_columns(dst=pl.lit(None, pl.String))]),
            _owner("src"))


def _kcore_apply(b, parts, state: pa.Table, _counters, *, final: bool):
    """Drop this bucket's dead nodes (with their edges) and the mirror
    copies other buckets' dead nodes notified."""
    st = pl.from_arrow(state)
    msgs = gather(parts)
    if msgs is not None:
        dead = msgs.filter(pl.col("dst").is_null()).select("src")
        drops = msgs.filter(pl.col("dst").is_not_null())
        # node rows carry a null dst, which never equals a drop's dst
        st = (st.join(dead, on="src", how="anti")
              .join(drops, on=["src", "dst"], how="anti"))
    return _kcore_out(st, final)


def kcore_stationary(edges, k: int = 2, rounds: int = 3,
                     num_buckets: int = 32):
    """Distributed k-core peeling over an undirected edge table →
    (conv_id, core_deg): the nodes surviving ``rounds`` synchronous
    peels (each peel removes every node whose degree in the current
    subgraph is < k), with their degree in the final induced subgraph.
    Fixed-round semantics ON PURPOSE: the unrolled SQL twin replays the
    exact same rounds, so the result is value-checkable rather than
    convergence-dependent (k-core converges in a few rounds on
    short-diameter match graphs; callers needing the fixpoint raise
    ``rounds``).

    Stationary shape: each undirected edge is materialized once in BOTH
    endpoint owners' buckets (one edge-width exchange at build). Per
    round, bucket b computes its owned nodes' degrees LOCALLY (every
    incident edge is resident by construction), peels, and notifies the
    mirror copies: the shuffled payload is (other, dead) drop pairs for
    edges incident to nodes that died this round — a volume that
    telescopes to at most 2|E| over ALL rounds combined — plus one row
    per dead node. Every step is a count/filter, so outputs are
    order-independent and bit-exact under any partitioning. The bucket
    count is one per cluster CPU, with ``num_buckets`` as its cap (module
    docstring)."""
    import ray.data as rd

    blocks = edges.select_columns(["a_id", "b_id"]).to_arrow_refs()
    B = shuffle_buckets(num_buckets)
    if not blocks:
        return rd.from_arrow(pa.table({"conv_id": pa.array([], pa.string()),
                                       "core_deg": pa.array([], pa.int64())}))
    rounds = int(rounds)
    states, _ = raw_exchange(blocks, _directed_map,
                             partial(_kcore_build, final=rounds < 1), B)
    for r in range(rounds):
        states, _ = raw_exchange(
            states, partial(_kcore_peel, k=int(k)),
            partial(_kcore_apply, final=r == rounds - 1), B,
            extra=states)
    return rd.from_arrow_refs(states)
