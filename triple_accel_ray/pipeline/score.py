"""Stage 4: candidate pairs → scored pairs (the kernel hot loop).

Ray-Data shape: a stateless ``map_batches`` whose body is ONE
``kernels.batch.levenshtein_k_batch`` call per batch, with a per-pair
bound k = clip(rel_k·max_len, abs_min_k, abs_max_k). For unit costs that
call is the compiled banded Myers, which screens each pair itself (length
gap over k, exact equality, bag-distance bound) and steps only the band
that can still finish within that pair's k, so narrow-k pairs stay cheap
next to wide ones in the same batch.

This stage mirrors the reference's role split exactly: the engine moves the
data, the kernel (triple_accel semantics, levenshtein.rs:376-607) decides
``Some(dist) | None`` per pair.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..kernels.batch import levenshtein_k_batch, to_byte_rows
from ..kernels.types import EditCosts, LEVENSHTEIN_COSTS


class PairScorer:
    def __init__(
        self,
        rel_k: float = 0.15,
        abs_min_k: int = 4,
        abs_max_k: int = 128,
        costs: EditCosts = LEVENSHTEIN_COSTS,
        min_similarity: float = 0.85,
    ):
        self.rel_k = rel_k
        self.abs_min_k = abs_min_k
        self.abs_max_k = abs_max_k
        self.costs = costs
        self.min_similarity = min_similarity

    def __call__(self, batch: pa.Table) -> pa.Table:
        a = batch["a_text"]
        b = batch["b_text"]
        _, oa = to_byte_rows(a)
        _, ob = to_byte_rows(b)
        la = np.diff(oa)
        lb = np.diff(ob)
        max_len = np.maximum(la, lb)
        kvec = np.clip(
            np.ceil(self.rel_k * max_len).astype(np.int64),
            self.abs_min_k,
            self.abs_max_k,
        )

        dist = levenshtein_k_batch(a, b, kvec, self.costs)
        sim = np.where(
            dist >= 0,
            1.0 - dist / np.maximum(1, max_len),
            0.0,
        )
        is_match = (dist >= 0) & (sim >= self.min_similarity)
        return pa.table(
            {
                "a_id": batch["a_id"],
                "b_id": batch["b_id"],
                "dist": pa.array(dist, pa.int64()),
                "k": pa.array(kvec, pa.int64()),
                "a_len": pa.array(la, pa.int64()),
                "b_len": pa.array(lb, pa.int64()),
                "sim": pa.array(sim, pa.float64()),
                "is_match": pa.array(is_match, pa.bool_()),
            }
        )


def build_text_index(docs_table: pa.Table):
    """(conv_id arrow array, aligned doc_text arrow array) for broadcast
    lookup: `ray.put` once, `pc.index_in` (C++ hash lookup) + `take` per
    batch — no per-row Python, no object-dtype string comparisons (a
    numpy searchsorted over to_numpy'd strings compares python objects
    in the scoring hot path)."""
    ids = docs_table["conv_id"]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    texts = docs_table["doc_text"]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    return ids, texts


def build_text_index_remote(doc_part_refs):
    """Build the broadcast text index in a REMOTE task and return the
    ObjectRef of its result.

    The driver-side form (collect parts -> concat -> combine_chunks ->
    ray.put) is serial O(corpus bytes) on the critical path BEFORE the
    scored stream can start: the collect and the combine are each a full
    memcpy of the text, and ray.put is a third. Building in a worker task
    instead (a) moves those copies off the driver and (b) overlaps the
    build with the stages that run meanwhile — a consumer blocks on
    ``ray.get(index_ref)`` only if the index isn't ready yet.

    ``doc_part_refs``: ObjectRefs of arrow tables holding (at least)
    conv_id and doc_text, e.g. ``docs.to_arrow_refs()``.
    """
    import ray

    @ray.remote(num_cpus=1)
    def _from_parts(*parts):
        tab = pa.concat_tables([t for t in parts if t.num_rows > 0])
        return build_text_index(tab)

    return _from_parts.remote(*doc_part_refs)


class TextLookup:
    """id → text from a broadcast :func:`build_text_index` result. The
    ObjectRef ships with the callable; the index is fetched once per
    worker. An id the index lacks raises instead of yielding a null
    text."""

    def __init__(self, index_ref):
        self.index_ref = index_ref
        self._index = None

    def __call__(self, id_col) -> pa.Array:
        if self._index is None:
            import ray

            self._index = ray.get(self.index_ref)
        ids, texts = self._index
        pos = pc.index_in(id_col, value_set=ids)
        if pos.null_count:
            raise KeyError("pair references an id missing from the text index")
        return texts.take(pos)


class BroadcastTextScorer(PairScorer):
    """PairScorer over id-only pairs; texts resolved from a broadcast
    (ray.put) index. The small-side-broadcast alternative to the two text
    joins — valid while the docs table fits comfortably in the object store
    (config threshold); the join path is the 100TB-scale default."""

    def __init__(self, index_ref, **kw):
        super().__init__(**kw)
        self._lookup = TextLookup(index_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = pa.table(
            {
                "a_id": batch["a_id"],
                "b_id": batch["b_id"],
                "a_text": self._lookup(batch["a_id"]),
                "b_text": self._lookup(batch["b_id"]),
            }
        )
        return super().__call__(batch)


def explain_edges(edges_with_texts, costs: EditCosts = LEVENSHTEIN_COSTS,
                  k_col: str = "k"):
    """Attach the RLE edit traceback (reference Edit semantics,
    levenshtein.rs:376-607 trace path) to match edges as a
    ``list<struct<edit, count>>`` column.

    Uses ``levenshtein_k_batch_trace`` (the compiled banded DP and its walk
    back, trace-parity-tested against the scalar kernel) traced at
    k = dist, the tightest valid band."""
    import numpy as np

    from ..kernels.batch import levenshtein_k_batch_trace

    trace_type = pa.list_(
        pa.struct([("edit", pa.string()), ("count", pa.int64())])
    )

    def _explain(t: pa.Table) -> pa.Table:
        # the known distance is the tightest valid bound — tracing at
        # k=dist uses the narrowest band (identical trace semantics)
        if "dist" in t.column_names:
            ks = np.maximum(0, t["dist"].to_numpy(zero_copy_only=False))
        elif k_col in t.column_names:
            ks = np.maximum(0, t[k_col].to_numpy(zero_copy_only=False))
        else:
            ks = np.full(t.num_rows, 1 << 30, dtype=np.int64)
        _, raw = levenshtein_k_batch_trace(
            t["a_text"], t["b_text"], np.asarray(ks, dtype=np.int64), costs
        )
        traces = [
            None if tr is None else [
                {"edit": e.edit, "count": e.count} for e in tr
            ]
            for tr in raw
        ]
        return t.append_column("trace", pa.array(traces, trace_type))

    return edges_with_texts.map_batches(_explain, batch_format="pyarrow")
