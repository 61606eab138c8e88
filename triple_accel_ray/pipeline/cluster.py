"""Stage 5: match edges → transitive clusters (connected components).

Distributed path (:func:`connected_components`): per-block
pre-contraction to star edges, then min-label propagation over
hash-partitioned RESIDENT buckets. The bucket count B is one per
cluster CPU, with ``num_partitions`` as its cap, chosen once before the
first exchange (``shuffle.shuffle_buckets``). Each round is two
``shuffle.raw_exchange`` calls over the same buckets: a propagate
exchange (each bucket joins its own edges against its own label slice
and ships only (destination, min label) id-width messages), then a
pointer-jumping exchange (label ← min(label, label[label])) that closes
deep components in O(log diameter) rounds. Convergence is exact: a
propagate round in which zero labels decreased is a fixpoint (labels
equal across every edge force one constant per component, necessarily
the min member id). Measured sf1.0 (381k edges): 2.4 s vs 27-31 s for a
per-iteration Dataset-join formulation.

Local path (:func:`connected_components_local`): driver-side
vectorized union-find for edge sets below a configured cap — the
small-graph shortcut and the tests' oracle, never for scale.

cluster_id = min conv_id of the component (deterministic, shuffle-proof).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import polars as pl
import pyarrow as pa

from .shuffle import (counter_totals, gather, raw_exchange, route,
                      shuffle_buckets)

_SEED = 71  # owner bucket of a node: hash(node, _SEED) % B


def _owner(col: str) -> pl.Expr:
    return pl.col(col).hash(seed=_SEED)


def _str_frame(*cols) -> pl.DataFrame:
    return pl.DataFrame(schema={c: pl.String for c in cols})


def _contract_block(t: pa.Table) -> pa.Table:
    """Local pre-contraction of one edge block: vectorized hash-to-min
    with pointer jumping (O(log n) numpy passes, no Python union-find
    loop) collapses the block's edges to min-label STAR edges
    (node <-> local component root, both directions). Replacing a
    block's edges with its local spanning stars preserves global
    connectivity exactly (a node appearing in two blocks bridges its
    two local roots) and flattens local chains to depth-1, so the
    global fixpoint converges in hops over BLOCKS, not over edges —
    measured sf1.0: 6+ iterations -> 2."""
    a = t["a_id"].to_numpy(zero_copy_only=False)
    b = t["b_id"].to_numpy(zero_copy_only=False)
    if len(a) == 0:
        e = pa.array([], pa.string())
        return pa.table({"node": e, "nbr": e})
    uniq, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[: len(a)], inv[len(a):]
    # np.unique sorts, so smaller index == lexicographically smaller
    # conv_id: min-index root == min-conv_id root (the cluster_id rule)
    lab = np.arange(len(uniq))
    while True:
        nxt = lab.copy()
        np.minimum.at(nxt, ia, lab[ib])
        np.minimum.at(nxt, ib, lab[ia])
        nxt = nxt[nxt]                         # pointer jump
        if (nxt == lab).all():
            break
        lab = nxt
    root = uniq[lab]
    keep = lab != np.arange(len(uniq))         # drop self-stars
    fwd = pa.table({"node": pa.array(uniq[keep]),
                    "nbr": pa.array(root[keep])})
    rev = pa.table({"node": pa.array(root[keep]),
                    "nbr": pa.array(uniq[keep])})
    return pa.concat_tables([fwd, rev])


def _nonconverged(max_iters: int):
    raise RuntimeError(
        f"connected_components: no fixpoint after {max_iters} iterations — "
        f"a component's diameter exceeds the bound and its labels would be "
        f"stale (multiple labels may remain); raise max_iters")


# ---- raw_exchange map/reduce functions of connected_components ------

def _edges_map(t: pa.Table):
    """Edge block → its local star edges, routed to owner(node)."""
    # empty upstream blocks (e.g. an empty bucket_join output) can
    # carry an EMPTY schema — treat them as no edges
    if t.num_rows == 0 or "a_id" not in t.schema.names:
        return _str_frame("node", "nbr"), _owner("node")
    return pl.from_arrow(_contract_block(t)), _owner("node")


def _nodes_map(t: pa.Table):
    if t.num_rows == 0 or "conv_id" not in t.schema.names:
        return _str_frame("node"), _owner("node")
    return (pl.from_arrow(t.select(["conv_id"])).rename({"conv_id": "node"}),
            _owner("node"))


def _build_edges(b, parts, *_):
    ed = gather(parts)
    if ed is None:
        e = pa.array([], pa.string())
        return pa.table({"node": e, "nbr": e})
    return ed.to_arrow()


def _init_labels(b, parts, *_):
    nd = gather(parts)
    if nd is None:
        e = pa.array([], pa.string())
        return pa.table({"node": e, "label": e,
                         "dirty": pa.array([], pa.bool_())})
    # keep first-seen order: the label slice's row order, and so the
    # bytes written, must not vary between runs
    return (nd.unique("node", maintain_order=True)
            .select("node", label=pl.col("node"), dirty=pl.lit(True))
            .to_arrow())


def _propagate_map(edge_t: pa.Table, lab_t: pa.Table):
    """One bucket's propagate pass: local join (all edge ``node``s hash
    here by construction), min per destination, routed to the
    destination's owner — the only shuffled payload.

    DELTA propagation: only DIRTY sources — nodes whose label decreased
    since their last emission — send. Min-label propagation is
    monotone, so an unchanged source's messages are identical to ones
    the destination already folded in; skipping them cannot lose a
    minimum. This is what makes per-iteration shuffle volume track the
    shrinking changed set (telescope) instead of staying O(edges) every
    round — a soak measured the non-delta engine shipping a constant
    4.4M rows/iteration for 16 rounds on a 2.28M-edge graph."""
    if edge_t.num_rows == 0:
        return _str_frame("nbr", "ml"), _owner("nbr")
    ed = pl.from_arrow(edge_t)
    lb = pl.from_arrow(lab_t).filter(pl.col("dirty"))
    out = (
        ed.join(lb.select("node", "label"), on="node", how="inner")
        .group_by("nbr").agg(ml=pl.col("label").min())
    )
    return out, _owner("nbr")


def _merge_minima(b, msg_parts, lab_t: pa.Table, counters: dict, *,
                  keep_dirty: bool):
    """Merge inbound minima into the resident label slice and count the
    labels that decreased (``changed``, the exact convergence signal).
    ``dirty`` marks labels that decreased and still owe a propagate
    emission: the propagate reduce REPLACES it (an emission just
    consumed the old flag), the jump reduce ORs into it (jump changes
    happen between emissions and must not clear a pending one)."""
    counters["changed"] = 0
    msg = gather(msg_parts)
    if msg is None or lab_t.num_rows == 0:
        if lab_t.num_rows and not keep_dirty:
            lab_t = (pl.from_arrow(lab_t)
                     .with_columns(dirty=pl.lit(False)).to_arrow())
        return lab_t
    msg = (msg.group_by("nbr").agg(ml=pl.col("ml").min())
           .rename({"nbr": "node"}))
    j = pl.from_arrow(lab_t).join(msg, on="node", how="left",
                                  maintain_order="left")
    dec = pl.col("ml").is_not_null() & (pl.col("ml") < pl.col("label"))
    new = j.select(
        "node",
        label=pl.min_horizontal("label", "ml"),  # null ml -> label
        dirty=(pl.col("dirty") | dec) if keep_dirty else dec,
    )
    counters["changed"] = int((new["label"] != j["label"]).sum())
    return new.to_arrow()


# ---- pointer-jumping round (label <- label[label]) ------------------
# One edge hop per iteration makes min-label O(diameter); composing each
# hop with a pointer jump makes it O(log diameter) — the classic
# shortcutting step, done as a (query, answer, apply) pair of exchanges
# over the SAME stationary buckets. Deep components (long chains) exist
# at 100 TB even when duplicate clusters are shallow.

def _jump_query(lab_t: pa.Table):
    """(node, label) -> (lq = label, node) queries routed to owner(lq):
    ask the bucket owning my label for ITS label. Self-labeled nodes
    (label == node) resolve locally — skip."""
    q = (pl.from_arrow(lab_t)
         .filter(pl.col("dirty") & (pl.col("label") != pl.col("node")))
         .select(lq=pl.col("label"), node=pl.col("node")))
    return q, _owner("lq")


def _jump_answer(lab_t: pa.Table, *q_parts):
    """Resolve label(lq) from the resident slice and route the answer
    back to the querying node's owner."""
    q = gather(q_parts)
    if q is None or lab_t.num_rows == 0:
        return _str_frame("nbr", "ml"), _owner("nbr")
    lb = pl.from_arrow(lab_t).rename({"node": "lq", "label": "ml"})
    out = (q.join(lb, on="lq", how="inner")
           .select(nbr=pl.col("node"), ml=pl.col("ml")))
    return out, _owner("nbr")


def connected_components(
    edges,
    nodes,
    num_partitions: int = 32,
    max_iters: int = 25,
    stats: dict | None = None,
):
    """edges (a_id, b_id) + nodes (conv_id) → (conv_id, cluster_id).

    ``nodes`` must contain every conv_id (singletons keep their own id).

    STATIONARY engine: edge blocks are locally pre-contracted to star
    edges (:func:`_contract_block`), then hash(node)-partitioned ONCE
    into per-bucket Arrow tables that stay in the object store; per
    iteration each bucket joins its resident edges against its resident
    label slice locally and ships only (nbr, min label) id-width
    messages to the owning buckets. Convergence is exact — each
    propagate reduce reports how many labels decreased; zero changes
    across all buckets is the fixpoint (no checksum pass). Labels only
    ever decrease, and the min is lexicographic on conv_id, so
    cluster_id = min conv_id of the component, identical to
    :func:`connected_components_local`.

    Labels propagate one hop per iteration, so convergence needs up to
    the CONTRACTED component diameter iterations; if the fixpoint is
    NOT reached in ``max_iters`` the labels would be stale (a component
    can keep >1 label), so this raises RuntimeError instead: the result
    is exact or there is none."""
    # num_partitions caps the bucket count B, which shuffle.shuffle_buckets
    # sets to one per cluster CPU.
    # stats (optional dict, filled in place): "buckets" (that B) and
    # per-iteration telemetry —
    # "propagate_msg_rows" / "jump_msg_rows" (total message rows shipped
    # between buckets that round) and "changed" (labels that decreased);
    # the three lists always have equal length (the converging round
    # runs no jump exchange and records 0 jump rows).
    # The message volume telescopes: after pre-contraction each round
    # ships at most one (nbr, min) row per resident edge endpoint, and
    # once a region stabilizes its minima stop changing, so volumes
    # shrink toward the fixpoint.
    import ray.data as rd

    B = shuffle_buckets(num_partitions)
    node_refs = nodes.to_arrow_refs()
    if not node_refs:
        return rd.from_arrow(pa.table({"conv_id": pa.array([], pa.string()),
                                       "cluster_id": pa.array([], pa.string())}))
    eb, _ = raw_exchange(edges.to_arrow_refs(), _edges_map, _build_edges, B)
    lb, _ = raw_exchange(node_refs, _nodes_map, _init_labels, B)

    if stats is not None:
        stats["buckets"] = B
        stats.setdefault("propagate_msg_rows", [])
        stats.setdefault("jump_msg_rows", [])
        stats.setdefault("changed", [])
    for _ in range(max_iters):
        # propagate: one edge hop
        lb, counts = raw_exchange(
            list(zip(eb, lb)), _propagate_map,
            partial(_merge_minima, keep_dirty=False), B, extra=lb)
        tot = counter_totals(counts)
        if stats is not None:
            stats["propagate_msg_rows"].append(tot["rows"])
            stats["changed"].append(tot["changed"])
        if tot["changed"] == 0:
            # a propagate fixpoint alone proves full convergence: equal
            # labels across every edge (both directions are present)
            # force one constant per component, and that constant can
            # only be the min member id — skip the final jump exchange
            if stats is not None:
                stats["jump_msg_rows"].append(0)
            break
        # shortcut: label <- min(label, label[label]) — pointer jump.
        # The answer step gathers bucket b's queries and routes its
        # answers in one task, so it is the map of the apply exchange.
        queries = route(lb, _jump_query, B)
        lb, counts = raw_exchange(
            [(lab, *[q[b] for q in queries]) for b, lab in enumerate(lb)],
            _jump_answer, partial(_merge_minima, keep_dirty=True), B,
            extra=lb)
        if stats is not None:
            stats["jump_msg_rows"].append(counter_totals(counts)["rows"])
        # jump changes don't gate exit: convergence is only declared by
        # a zero-change PROPAGATE round (see proof above)
    else:
        _nonconverged(max_iters)

    return rd.from_arrow_refs(lb).map_batches(
        lambda t: pa.table({"conv_id": t["node"], "cluster_id": t["label"]}),
        batch_format="pyarrow",
    )


def connected_components_local(
    edges_table: pa.Table, all_nodes: pa.Table
) -> pa.Table:
    """Driver-side connected components (small graphs only: tests, oracles,
    and the documented small-edge-set shortcut). Vectorized min-label
    propagation with pointer jumping — ``np.unique`` sorts, so integer
    label minimum == lexicographically-smallest conv_id, matching the
    distributed fixpoint's min-id cluster semantics (the former dict
    union-find cost ~1.3 s of driver-serial time at sf0.4)."""
    import pyarrow.compute as pc

    n_nodes = all_nodes.num_rows
    n_edges = edges_table.num_rows
    # integer codes via arrow dictionary encoding (native string hashing —
    # to_numpy on strings yields python-object arrays whose sort/search is
    # the slow path)
    pool = pa.chunked_array(
        [
            all_nodes["conv_id"].combine_chunks(),
            edges_table["a_id"].combine_chunks(),
            edges_table["b_id"].combine_chunks(),
        ]
    ).combine_chunks()
    codes = pc.dictionary_encode(pool)
    idx = codes.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    n_ids = len(codes.dictionary)
    ni = idx[:n_nodes]
    ai = idx[n_nodes : n_nodes + n_edges]
    bi = idx[n_nodes + n_edges :]
    lab = np.arange(n_ids, dtype=np.int64)
    while True:
        prev = lab
        lab = lab.copy()
        m = np.minimum(lab[ai], lab[bi])
        np.minimum.at(lab, ai, m)
        np.minimum.at(lab, bi, m)
        # pointer jumping: compress chains to their current minimum
        while True:
            nxt = lab[lab]
            if np.array_equal(nxt, lab):
                break
            lab = nxt
        if np.array_equal(lab, prev):
            break
    # cluster_id = lexicographically smallest member conv_id (the integer
    # roots are dictionary-order, i.e. arbitrary): per-root string min over
    # the id dictionary, vectorized in polars
    memb = pl.DataFrame(
        {
            "id_str": pl.from_arrow(codes.dictionary),
            "root": lab,
        }
    )
    root_min = memb.group_by("root").agg(pl.col("id_str").min())
    # map each root to its min-id string, then gather per node
    lookup = np.empty(n_ids, dtype=np.int64)
    lookup[root_min["root"].to_numpy()] = np.arange(len(root_min))
    cluster = root_min["id_str"].to_arrow().take(
        pa.array(lookup[lab[ni]], pa.int64())
    )
    return pa.table(
        {
            "conv_id": all_nodes["conv_id"].combine_chunks(),
            "cluster_id": cluster.cast(pa.string()),
        }
    )


def clusters_after_delete(edges, nodes, deleted, num_partitions: int = 32,
                          max_iters: int = 25,
                          local_edge_cap: int = 2_000_000):
    """Delete propagation WITHOUT a full recluster → (conv_id,
    cluster_id) over the surviving nodes: clusters containing no deleted
    member pass through untouched (removing nodes elsewhere cannot
    change a component or its min-label id); only the clusters that lost
    a member re-run connected components, on their own induced subgraph.

    At 100 TB this is the cluster-maintenance shape: the recompute cost
    scales with the AFFECTED clusters (deleted-adjacent data), not the
    corpus. All set logic is id-width bucket semi/anti joins; nothing
    texty moves.

    ``edges``/``nodes`` are the full pre-delete graph; ``deleted`` is a
    dataset of conv_id. ``num_partitions`` caps the bucket count of every
    join and connected components run here: one bucket per cluster CPU
    (``shuffle.shuffle_buckets``). On a 3,000-node, 2,000-edge graph with
    30 deleted nodes on 4 CPUs, joins at a fixed 32 buckets took
    10.3-13.5 s against 2.4-2.8 s at 4."""
    import pyarrow.compute as pc

    from .shuffle import bucket_join

    B = shuffle_buckets(num_partitions)

    _id = pa.schema([("conv_id", pa.string())])
    _cl = pa.schema([("conv_id", pa.string()), ("cluster_id", pa.string())])
    _key = pa.schema([("cluster_id", pa.string())])
    _es = pa.schema([("a_id", pa.string()), ("b_id", pa.string())])

    old = connected_components(
        edges, nodes, num_partitions=B, max_iters=max_iters,
    ).materialize()

    # clusters that lost a member
    aff = bucket_join(
        old, deleted, "conv_id", "conv_id", _cl, _id,
        num_buckets=B, how="semi",
    ).map_batches(
        lambda t: pa.table({"cluster_id": pc.unique(t["cluster_id"])}),
        batch_format="pyarrow",
    )

    untouched = bucket_join(
        old, aff, "cluster_id", "cluster_id", _cl, _key,
        num_buckets=B, how="anti",
    )

    # surviving members of affected clusters = the recompute node set
    rec_nodes = bucket_join(
        bucket_join(old, aff, "cluster_id", "cluster_id", _cl, _key,
                    num_buckets=B, how="semi"),
        deleted, "conv_id", "conv_id", _cl, _id,
        num_buckets=B, how="anti",
    ).map_batches(
        lambda t: pa.table({"conv_id": t["conv_id"]}),
        batch_format="pyarrow",
    ).materialize()

    rec_edges = bucket_join(
        bucket_join(edges, rec_nodes, "a_id", "conv_id", _es, _id,
                    num_buckets=B, how="semi"),
        rec_nodes, "b_id", "conv_id", _es, _id,
        num_buckets=B, how="semi",
    ).materialize()

    # same discipline as run.py's cluster stage: the recompute subgraph
    # is affected-clusters-sized (id pairs only), so below the cap the
    # driver union-find shortcut is valid and skips the fixpoint's task
    # waves; above it the stationary engine carries it
    if rec_edges.count() <= local_edge_cap:
        import ray
        import ray.data as rd

        et = [t for t in ray.get(rec_edges.to_arrow_refs()) if t.num_rows]
        nt = [t for t in ray.get(rec_nodes.to_arrow_refs()) if t.num_rows]
        if not nt:
            renew = rd.from_arrow(_cl.empty_table())
        else:
            renew = rd.from_arrow(connected_components_local(
                pa.concat_tables(et) if et else _es.empty_table(),
                pa.concat_tables(nt)))
    else:
        renew = connected_components(
            rec_edges, rec_nodes, num_partitions=B,
            max_iters=max_iters,
        )
    return untouched.union(renew)
