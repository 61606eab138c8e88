"""Drive the stationary connected-components engine PAST the
driver-memory regime (round-4 verdict #5): a synthetic edge fixture
above ``local_cluster_edge_cap`` (2M edges) — the regime where the
distributed path is the ONLY pipeline path that runs — including deep
chains whose diameter is far beyond log n, hash-verified against an
independent union-find replay of the same edge list, with per-iteration
message-volume telemetry demonstrating the telescoping bound the
100 TB design relies on.

Fixture (deterministic, seed 47; edge order globally permuted so chain
segments scatter across all input blocks and per-block pre-contraction
cannot collapse a chain locally):
  * ~400k duplicate-style star clusters of size 2-6 (the ER regime);
  * 8 chains of length 60k (diameter 60k >> log n — plain one-hop
    propagation would need ~60k rounds; pointer jumping must not);
  * 2 giant components: 100k-node spanning chain + 200k random extras;
  total ~2.28M edges over ~2.28M nodes.

Node ids are zero-padded ("n000000042") so the engine's lexicographic
min-label equals the oracle's integer min.

The engine runs at its default cap of 32 buckets; the JSON records the
bucket count it ran (``buckets``: one per CPU, at most the cap).

Usage: RAY_GRAFT_CPUS=<n> python scripts/soak_cc_big.py [out.json]
Prints one JSON line; exits nonzero unless hash-equal AND converged.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import numpy as np
import pandas as pd
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SEED = 47
N_DUP_CLUSTERS = 400_000
CHAINS = 8
CHAIN_LEN = 60_000
GIANTS = 2
GIANT_NODES = 100_000
GIANT_EDGES = 300_000


def make_edges() -> tuple[np.ndarray, np.ndarray, int]:
    """(a_idx, b_idx, n_nodes) int64 edge list of the fixture graph,
    globally permuted."""
    rng = np.random.default_rng(SEED)
    a_parts, b_parts = [], []
    # duplicate-style star clusters: hub -> each member
    sizes = rng.integers(2, 7, size=N_DUP_CLUSTERS)
    total = int(sizes.sum())
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    all_idx = np.arange(total, dtype=np.int64)
    hub = np.repeat(starts, sizes)
    mask = all_idx != hub
    a_parts.append(hub[mask])
    b_parts.append(all_idx[mask])
    nid = total
    # deep chains
    for _ in range(CHAINS):
        a_parts.append(np.arange(nid, nid + CHAIN_LEN - 1, dtype=np.int64))
        b_parts.append(np.arange(nid + 1, nid + CHAIN_LEN, dtype=np.int64))
        nid += CHAIN_LEN
    # giant components: spanning chain + random extras
    for _ in range(GIANTS):
        a_parts.append(np.arange(nid, nid + GIANT_NODES - 1, dtype=np.int64))
        b_parts.append(np.arange(nid + 1, nid + GIANT_NODES, dtype=np.int64))
        extra = GIANT_EDGES - (GIANT_NODES - 1)
        a_parts.append(nid + rng.integers(0, GIANT_NODES, size=extra))
        b_parts.append(nid + rng.integers(0, GIANT_NODES, size=extra))
        nid += GIANT_NODES
    a = np.concatenate(a_parts)
    b = np.concatenate(b_parts)
    perm = rng.permutation(len(a))
    return a[perm], b[perm], nid


def union_find(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Min-label components by union-find with union-by-min-root (the
    root of every tree is the component's min member id), then
    vectorized pointer doubling to fully resolve."""
    parent = np.arange(n, dtype=np.int64)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for x, y in zip(a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            if rx < ry:
                parent[ry] = rx
            else:
                parent[rx] = ry
    while True:
        new = parent[parent]
        if (new == parent).all():
            return parent
        parent = new


def ids_of(idx: np.ndarray) -> pa.Array:
    s = np.char.zfill(idx.astype(np.int64).astype("U10"), 9)
    return pa.array(np.char.add("n", s))


def table_hash(conv: pa.Array, lab: pa.Array) -> str:
    df = pd.DataFrame({"conv_id": conv.to_pandas(),
                       "cluster_id": lab.to_pandas()})
    df = df.sort_values("conv_id").reset_index(drop=True)
    h = hashlib.blake2b(digest_size=16)
    h.update("\n".join(df["conv_id"] + "\t" + df["cluster_id"]).encode())
    return h.hexdigest()


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "SOAK_CC_BIG_r5.json"
    ncpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    import ray
    import ray.data as rd

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=ncpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from triple_accel_ray.pipeline.cluster import connected_components

    t0 = time.perf_counter()
    a, b, n = make_edges()
    gen_sec = time.perf_counter() - t0

    edges = rd.from_arrow(pa.table(
        {"a_id": ids_of(a), "b_id": ids_of(b)})).repartition(64).materialize()
    nodes = rd.from_arrow(pa.table(
        {"conv_id": ids_of(np.arange(n))})).repartition(64).materialize()

    stats: dict = {}
    t0 = time.perf_counter()
    cc = connected_components(edges, nodes, num_partitions=32,
                              max_iters=40, stats=stats)
    got = cc.to_pandas()
    cc_sec = time.perf_counter() - t0

    t0 = time.perf_counter()
    lab = union_find(a, b, n)
    uf_sec = time.perf_counter() - t0

    h1 = table_hash(pa.array(got["conv_id"]), pa.array(got["cluster_id"]))
    h2 = table_hash(ids_of(np.arange(n)), ids_of(lab))

    result = {
        "n_nodes": int(n),
        "n_edges": int(len(a)),
        "above_local_cap": int(len(a)) > 2_000_000,
        "deep_chain_diameter": CHAIN_LEN,
        "num_cpus": ncpus,
        "buckets": stats.get("buckets"),
        "gen_sec": round(gen_sec, 2),
        "cc_sec": round(cc_sec, 2),
        "unionfind_sec": round(uf_sec, 2),
        "iterations": len(stats.get("propagate_msg_rows", [])),
        "propagate_msg_rows": stats.get("propagate_msg_rows"),
        "jump_msg_rows": stats.get("jump_msg_rows"),
        "changed": stats.get("changed"),
        "hash_engine": h1,
        "hash_unionfind": h2,
        "hash_equal": h1 == h2,
    }
    print(json.dumps(result))
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1)
    ray.shutdown()
    return 0 if result["hash_equal"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
