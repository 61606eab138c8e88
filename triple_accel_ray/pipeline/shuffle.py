"""Bucket routing: the one place that knows how rows are split into
hash buckets and shipped between tasks, and how many buckets a shuffle
gets (:func:`shuffle_buckets`: one bucket per cluster CPU, never more
than the caller's cap, for the pipeline's Dataset shuffles and the graph
operators alike).

Two forms. ``hash_split``/``route``/``raw_exchange`` move
object-store-resident Arrow parts between plain Ray tasks; they carry
every build and round of the graph operators (connected components,
PageRank, k-core, triangle counts), whose per-row work is too small to
pay for a Dataset all-to-all per round.

``bucket_join(left, right, ...)`` tags each side, unions them, hash-buckets
by key, and performs a vectorized polars join inside each bucket — one
groupby shuffle total, no specialized join operators. This is the portable
join pattern from the Ray guide (explicit partitioned hash join), used
where the built-in ``Dataset.join``'s per-partition aggregator actors are
too heavy for the cluster shape (it spawned 100+ workers on an 8-CPU local
node for a 38k-row join).
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import ray


def cluster_cpus() -> int | None:
    """CPUs the Ray cluster reports (0 when it reports none), or None
    when there is no session to ask. Callers apply their own fallback."""
    try:
        return int(ray.cluster_resources().get("CPU", 0))
    except Exception:  # pragma: no cover - no session (tests init lazily)
        return None


def shuffle_buckets(cap: int) -> int:
    """Bucket count of a shuffle: one bucket per cluster CPU, at most
    ``cap``, at least 2 (what :func:`raw_exchange` runs). The count is
    also the task granularity of the shuffle's reduces (and, for
    :func:`bucket_partition`, of whatever stage fuses after them); past
    one bucket per CPU smaller buckets bought nothing, so the input's
    size does not enter the count. Measured on 4 CPUs:

    - graph operators, which pick B once and keep it for every round
      (~3·B² objects each): connected components at fixed B ran a
      30k-node graph in 0.6-1.0 s at B = 2 or 4 and 2.6-2.9 s at 32,
      and a 2.28M-node graph in 13.8-15.4 s at B = 4, 15.1-15.5 s at 8,
      20 s at 16 and 27-36 s at 32;
    - the ER pipeline's docs and pair shuffles, against the old row
      targets (~8k turns per doc bucket, ~1.5k docs per pair bucket):
      the whole pipeline at sf0.1 took 4.7-5.4 s at 4 buckets against
      7.2-9.5 s at the row targets' 32/29 (6/6 pairs), and at sf0.4
      17-24 s against 30-44 s at 129/117 (3/3 pairs), with the same
      clusters.

    No input was measured where more buckets than CPUs paid."""
    return _fan_out(min(cap, cluster_cpus() or 32))


def bucket_partition(ds, fn, num_buckets: int, *, bucket_col: str = "bucket",
                     fn_kwargs: dict | None = None):
    """``groupby(bucket_col).map_groups(fn)`` expressed as a sort with
    EXPLICIT boundaries at every bucket value, followed by whole-block
    ``map_batches``. ``fn`` receives exactly the rows of one bucket per
    call (each reduce partition is one bucket), so results are identical
    to the groupby form — but two things change that matter at scale:

    - reduce-partition BALANCE: the sort-based shuffle range-partitions
      the key, and with only ~32 distinct bucket values and the reducer
      count tied to the input block count, range boundaries quantize to
      whole buckets — partitions get 1-4 buckets each (measured at sf0.4:
      reduce blocks of 32k-100k rows from count-balanced buckets).
      Boundaries at every bucket value pin each partition to one bucket.
    - downstream task GRANULARITY: the reducer count becomes num_buckets
      instead of len(input_blocks) (ray sort planner: ``num_outputs =
      num_mappers`` unless boundaries are given — planner/sort.py), so a
      map stage fused after the shuffle gets num_buckets tasks, sized by
      config rather than by the upstream read parallelism. Measured at
      sf0.4/16cpu: the scorer ran as 15 tasks of 8.9-26.4 s (230 core-s
      total) — stage wall = the single longest task; one task per bucket
      restores wall ≈ total/ncpus.

    ``batch_size=None`` is load-bearing: the per-bucket bodies (pair
    dedup, join, doc assembly) need the WHOLE bucket in one batch, and
    whole-block batches never re-bundle (an explicit batch_size measured
    5-8x slower on the blocking stage).
    """
    if num_buckets < 2:
        # boundaries=[] would make the sort fall back to mapper-count
        # partitioning, splitting the single bucket across blocks and
        # handing ``fn`` PARTIAL buckets; one partition is exact here.
        return ds.repartition(1).map_batches(
            fn, batch_format="pyarrow", batch_size=None,
            fn_kwargs=fn_kwargs or {},
        )
    return ds.sort(
        bucket_col, boundaries=list(range(1, num_buckets))
    ).map_batches(
        fn,
        batch_format="pyarrow",
        batch_size=None,
        fn_kwargs=fn_kwargs or {},
    )


def hash_split(df: pl.DataFrame, bucket_expr: pl.Expr,
               num_buckets: int) -> tuple:
    """Split ``df`` into ``num_buckets`` Arrow tables: row r goes to
    bucket ``bucket_expr(r) % num_buckets`` (``bucket_expr`` is a UInt64
    hash, e.g. ``pl.col("node").hash(seed=71)``). Empty buckets are
    typed like ``df``, and rows keep their order within a bucket."""
    df = df.with_columns(
        __b=(bucket_expr % np.uint64(num_buckets)).cast(pl.Int32))
    parts = df.partition_by("__b", as_dict=True, include_key=False)
    empty = df.clear().drop("__b")
    return tuple(parts.get((b,), empty).to_arrow()
                 for b in range(num_buckets))


def gather(payloads) -> pl.DataFrame | None:
    """A reduce's non-empty inbound payloads as one polars frame; None
    when every payload is empty."""
    tabs = [p for p in payloads if p.num_rows]
    return pl.from_arrow(pa.concat_tables(tabs)) if tabs else None


def _exchange_map(map_fn, num_buckets, *args):
    df, bucket_expr = map_fn(*args)
    return hash_split(df, bucket_expr, num_buckets)


def _exchange_reduce(reduce_fn, b, extra_b, *payloads):
    counters = {"rows": sum(p.num_rows for p in payloads)}
    return reduce_fn(b, payloads, extra_b, counters), counters


_map_task = ray.remote(_exchange_map)
_reduce_task = ray.remote(num_returns=2)(_exchange_reduce)


def _fan_out(num_buckets: int) -> int:
    return max(2, int(num_buckets))  # num_returns=1 returns a bare ref


def route(inputs, map_fn, num_buckets: int) -> list:
    """The map half of :func:`raw_exchange`: one task per input, each
    returning its B routed payloads. Returns the ``[m][b]`` grid of
    refs, for a caller whose next step both gathers column b and routes
    again (connected components' pointer-jump answer)."""
    B = _fan_out(num_buckets)
    return [
        _map_task.options(num_returns=B).remote(
            map_fn, B, *(a if isinstance(a, tuple) else (a,)))
        for a in inputs
    ]


def raw_exchange(inputs, map_fn, reduce_fn, num_buckets: int, extra=None):
    """One lean map/reduce exchange over object-store-resident parts,
    bypassing the Dataset sort machinery. This is the iteration engine of
    the graph operators: each build and each round of connected
    components, PageRank, k-core and triangle counting is one call.

    - ``inputs``: one entry per map task, an argument or a tuple of
      arguments (refs are dereferenced by Ray).
    - ``map_fn(*args) -> (polars frame, bucket_expr)``: the frame is
      split by :func:`hash_split`, so payload b goes to reduce task b
      without leaving the object store.
    - ``reduce_fn(b, payloads, extra_b, counters) -> payload`` combines
      the b-th payload of every map task. ``extra`` is an optional B-list
      of per-bucket side inputs (None when absent); ``counters`` arrives
      holding ``rows``, the inbound payload rows, and the reduce may add
      its own integer counters to it.

    B = ``max(2, num_buckets)``. Returns ``(outs, counters)``: the B
    reduce output refs and B refs to their counters dicts. An op with a
    fixed round count never fetches its counters, so its rounds pipeline
    without a driver round trip.

    Use this (not bucket_partition/bucket_join) when an operator chains
    SEVERAL exchanges over intermediate data that never needs to be a
    Dataset — each Dataset all-to-all pays union/tag/sort scheduling that
    dominates wall time when the per-row work is tiny (measured on
    triangle counting over 1.7M edges: 6 Dataset all-to-alls = 41 s wall
    with <1.5 s of UDF work per stage). Map and reduce functions are
    module-level (pickled by reference); determinism is the caller's
    contract (integer/exact merges, order-insensitive reduces)."""
    grid = route(inputs, map_fn, num_buckets)
    B = _fan_out(num_buckets)
    side = extra if extra is not None else [None] * B
    outs = [
        _reduce_task.remote(reduce_fn, b, side[b], *[g[b] for g in grid])
        for b in range(B)
    ]
    return [o[0] for o in outs], [o[1] for o in outs]


def counter_totals(counter_refs) -> dict:
    """Driver-side totals of every counter over one exchange's reduces
    (one ``ray.get``)."""
    tot: dict = {}
    for c in ray.get(list(counter_refs)):
        for k, v in c.items():
            tot[k] = tot.get(k, 0) + v
    return tot


def bucket_join(
    left,
    right,
    left_key: str,
    right_key: str,
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    num_buckets: int = 32,
    how: str = "inner",
):
    """Join two Datasets on a string key. Right columns (minus the key) are
    appended to left rows. Column names must not collide (besides keys).

    Schemas are passed explicitly: calling ``Dataset.schema()`` on a lazy
    dataset executes its upstream pipeline, which would silently double the
    work for chained joins."""
    left_cols = list(left_schema.names)
    right_cols = [c for c in right_schema.names if c != right_key]
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"column collision: {overlap}")

    l_types = dict(zip(left_schema.names, left_schema.types))
    r_types = dict(zip(right_schema.names, right_schema.types))
    out_fields = [(c, l_types[c]) for c in left_cols] + [
        (c, r_types[c]) for c in right_cols
    ]

    def _tag_left(t: pa.Table) -> pa.Table:
        cols = {"__key": t[left_key].cast(pa.string()),
                "__side": pa.array(np.zeros(t.num_rows, dtype=np.int8))}
        for c in left_cols:
            cols[f"l_{c}"] = t[c]
        for c in right_cols:
            cols[f"r_{c}"] = pa.nulls(t.num_rows, r_types[c])
        return pa.table(cols)

    def _tag_right(t: pa.Table) -> pa.Table:
        cols = {"__key": t[right_key].cast(pa.string()),
                "__side": pa.array(np.ones(t.num_rows, dtype=np.int8))}
        for c in left_cols:
            cols[f"l_{c}"] = pa.nulls(t.num_rows, l_types[c])
        for c in right_cols:
            cols[f"r_{c}"] = t[c]
        return pa.table(cols)

    def _bucket(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        return df.with_columns(
            (pl.col("__key").hash(seed=9) % np.uint64(num_buckets))
            .cast(pl.Int32).alias("__bucket")
        ).to_arrow()

    def _join(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        lhs = df.filter(pl.col("__side") == 0).select(
            ["__key"] + [f"l_{c}" for c in left_cols]
        )
        rhs = df.filter(pl.col("__side") == 1).select(
            ["__key"] + [f"r_{c}" for c in right_cols]
        )
        joined = lhs.join(rhs, on="__key", how=how).drop("__key")
        joined = joined.rename(
            {f"l_{c}": c for c in left_cols} | {f"r_{c}": c for c in right_cols}
        )
        schema = pa.schema(out_fields)
        out = joined.to_arrow()
        return out.select(schema.names).cast(schema)

    tagged = left.map_batches(_tag_left, batch_format="pyarrow").union(
        right.map_batches(_tag_right, batch_format="pyarrow")
    )
    return bucket_partition(
        tagged.map_batches(_bucket, batch_format="pyarrow"),
        _join, num_buckets, bucket_col="__bucket",
    )
