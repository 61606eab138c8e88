"""Soak the DISTRIBUTED connected-components path (round-3 verdict #4).

Every bench/soak run so far stayed under ``local_cluster_edge_cap`` (2M;
sf1.0 has ~381k edges), so the driver union-find shortcut always ran and
the label-propagation fixpoint (pipeline/cluster.py:connected_components)
was only unit-tested. This script runs the fused ER pipeline twice on the
same fixture — once per cluster path — asserts the cluster outputs are
IDENTICAL (canonical hash over sorted (conv_id, cluster_id)), and records
both cluster-stage wall times so BASELINE.md can state the crossover
recommendation from data.

Usage: python scripts/soak_cc.py [sf_dir]   (default /root/testdata/sf1.0)
Prints one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def cluster_hash(clusters_dir: str) -> tuple[str, int]:
    tab = pq.read_table(clusters_dir).select(["conv_id", "cluster_id"])
    df = tab.to_pandas().sort_values(["conv_id", "cluster_id"])
    h = hashlib.blake2b(digest_size=16)
    h.update("\n".join(df["conv_id"] + "\t" + df["cluster_id"]).encode())
    return h.hexdigest(), len(df)


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf1.0"
    ncpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=ncpus,
                 include_dashboard=False, logging_level="ERROR")

    from triple_accel_ray.pipeline.config import PipelineConfig
    from triple_accel_ray.pipeline.run import run_er_pipeline_fused
    from triple_accel_ray.pipeline.transcripts import ensure_fixture

    tp, lp = ensure_fixture(sf_dir)
    out = {"sf_dir": sf_dir, "num_cpus": ncpus, "modes": {}}
    hashes = {}
    for mode, cap in (("unionfind", None), ("distributed", 0)):
        cfg = (PipelineConfig() if cap is None
               else PipelineConfig(local_cluster_edge_cap=cap))
        run_dir = f"/tmp/ta_soak_cc/{mode}"
        shutil.rmtree(run_dir, ignore_errors=True)
        t0 = time.perf_counter()
        s = run_er_pipeline_fused(tp, run_dir, cfg=cfg, labels_path=lp)
        wall = time.perf_counter() - t0
        hx, nrows = cluster_hash(s["clusters_dir"])
        hashes[mode] = hx
        out["modes"][mode] = {
            "wall_sec": round(wall, 3),
            "cluster_stage_sec": s["wall"]["clusters"],
            "n_edges": s["rows"]["edges"],
            "n_rows": nrows,
            "clusters_hash": hx,
            "f1": s.get("metrics", {}).get("f1"),
        }
    out["hash_equal"] = hashes["unionfind"] == hashes["distributed"]
    print(json.dumps(out))
    ray.shutdown()
    return 0 if out["hash_equal"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
