"""Local replica of the correctness gate: run every queries() entry on a
testdata scale dir (sf0.01 for the gate), run its oracle SQL in DuckDB,
compare row count + (sorted) schema + order-insensitive value hash.

Usage: python scripts/check_queries.py sf_dir [query ...] [--json OUT.json]
(options may come in any position; an unknown option is an error)

With --json, writes a machine-readable per-query artifact (verdict, row
counts, engine wall time ``sec`` and DuckDB oracle wall time
``oracle_sec``) alongside the console output — the committed full-gate
record (GATE_LOCAL_r{N}.json) for queries outside the driver's 50-row
correctness window.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import duckdb
import pandas as pd
import pyarrow as pa

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def to_table(res) -> pa.Table:
    import ray.data as rd

    if isinstance(res, pa.Table):
        return res
    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res, preserve_index=False)
    if isinstance(res, rd.Dataset):
        return pa.Table.from_pandas(res.to_pandas())
    raise TypeError(type(res))


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def compare(name: str, ours: pa.Table, theirs: pa.Table) -> str:
    a = canonical(ours.to_pandas())
    b = canonical(theirs.to_pandas())
    if list(a.columns) != list(b.columns):
        return f"SCHEMA MISMATCH ours={list(a.columns)} oracle={list(b.columns)}"
    if len(a) != len(b):
        return f"ROWCOUNT MISMATCH ours={len(a)} oracle={len(b)}"
    # The driver's value hash is dtype-sensitive (round-4 lesson:
    # running_user_totals was value-exact but red because the oracle
    # emitted decimal128 where the engine emits int64). Flag any
    # decimal/object dtype divergence that assert_frame_equal's
    # check_dtype=False would paper over.
    dt_ours = {c: str(ours.schema.field(c).type) for c in ours.schema.names}
    dt_theirs = {c: str(theirs.schema.field(c).type) for c in theirs.schema.names}
    bad_dt = [
        c for c in dt_ours
        if c in dt_theirs and dt_ours[c] != dt_theirs[c]
        and ("decimal" in dt_ours[c] or "decimal" in dt_theirs[c])
    ]
    if bad_dt:
        return "DTYPE MISMATCH " + ", ".join(
            f"{c}: ours={dt_ours[c]} oracle={dt_theirs[c]}" for c in bad_dt
        )
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    except AssertionError as e:
        return "VALUE MISMATCH: " + str(e).split("\n")[0] + " | " + "\n".join(
            str(e).split("\n")[1:6]
        )
    return "OK"


def main(argv=None):
    p = argparse.ArgumentParser(
        description="Run every query and compare it with its DuckDB oracle.")
    p.add_argument("--json", dest="json_out", metavar="OUT.json",
                   help="also write a per-query JSON artifact")
    p.add_argument("sf_dir", help="testdata scale dir, e.g. .../sf0.01")
    p.add_argument("query", nargs="*", help="only these queries")
    args = p.parse_intermixed_args(argv)
    json_out, sf_dir, only = args.json_out, args.sf_dir, set(args.query)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, REPO)
    import __ray_entry__ as e

    qs = e.queries()
    oracles = e.oracle_sql()

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.sql(
            f"CREATE OR REPLACE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    n_ok = n_bad = 0
    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            ours = to_table(fn(sf_dir))
        except Exception as ex:
            print(f"[FAIL-RUN ] {name}: {type(ex).__name__}: {ex}")
            n_bad += 1
            results[name] = {"status": "FAIL-RUN", "rows": None,
                             "detail": f"{type(ex).__name__}: {ex}"[:300]}
            continue
        dt = time.perf_counter() - t0
        if name not in oracles:
            print(f"[ROWS-ONLY] {name}: {ours.num_rows} rows ({dt:.1f}s)")
            n_ok += 1
            results[name] = {"status": "ROWS-ONLY", "rows": ours.num_rows,
                             "sec": round(dt, 2)}
            continue
        t0 = time.perf_counter()
        try:
            theirs = con.sql(oracles[name]).fetch_arrow_table()
        except Exception as ex:
            print(f"[FAIL-SQL ] {name}: {type(ex).__name__}: {ex}")
            n_bad += 1
            results[name] = {"status": "FAIL-SQL", "rows": ours.num_rows,
                             "oracle_sec": round(time.perf_counter() - t0, 2),
                             "detail": f"{type(ex).__name__}: {ex}"[:300]}
            continue
        odt = time.perf_counter() - t0
        verdict = compare(name, ours, theirs)
        status = "OK" if verdict == "OK" else "FAIL-CMP"
        if verdict == "OK":
            n_ok += 1
        else:
            n_bad += 1
        print(f"[{status:9s}] {name}: {ours.num_rows} rows ({dt:.1f}s, "
              f"oracle {odt:.1f}s) {'' if verdict=='OK' else verdict}")
        results[name] = {"status": status, "rows": ours.num_rows,
                         "oracle_rows": theirs.num_rows, "sec": round(dt, 2),
                         "oracle_sec": round(odt, 2)}
        if verdict != "OK":
            results[name]["detail"] = verdict[:300]
    print(f"\n{n_ok} ok, {n_bad} bad")
    if json_out:
        import json
        import subprocess

        sha = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"],
            capture_output=True, text=True).stdout.strip()
        with open(json_out, "w") as f:
            json.dump({"sf_dir": sf_dir, "head_sha": sha,
                       "n_ok": n_ok, "n_bad": n_bad,
                       "queries": results}, f, indent=1)
        print(f"wrote {json_out}")
    return 1 if n_bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
