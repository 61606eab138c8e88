"""Columnar batch kernels: one result per row over columns of strings
(pyarrow String/Binary arrays, numpy object arrays or Python lists).

Every Levenshtein distance and traceback here is one call into the
compiled engine in ``_myers.c`` (``native.py``), which picks its DP from
the cost model: unit costs without transpositions (the ER scorer's model)
run the banded block Myers, one call for the whole column with a per-pair
bound, the engine's answer to the reference's compiled bit-parallel core
(levenshtein.rs:829-1283); every other cost model, and every trace, runs
the reference's banded DP (levenshtein.rs:376-607) with affine gaps and
restricted transpositions, cell for cell as ``scalar.py`` does. Outputs
are differential-tested against that scalar oracle in
``tests/test_batch_kernels.py`` and ``tests/test_batch_trace.py``.
"""

from __future__ import annotations

from itertools import groupby
from typing import List, Optional, Tuple

import numpy as np

from . import native
from .types import (
    A_GAP, B_GAP, LEVENSHTEIN_COSTS, MATCH, MISMATCH, TRANSPOSE, Edit,
    EditCosts,
)

__all__ = [
    "to_byte_rows",
    "hamming_batch",
    "levenshtein_k_batch",
    "levenshtein_batch",
]

# the kernel's trace codes (0-4) as edits, and where row a is the longer
_EDITS = (MATCH, MISMATCH, A_GAP, B_GAP, TRANSPOSE)
_SWAPPED_EDITS = (MATCH, MISMATCH, B_GAP, A_GAP, TRANSPOSE)


def to_byte_rows(col) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize a string/binary column to (flat uint8 data, int64 offsets).

    Accepts a pyarrow (Large)String/(Large)Binary array or chunked array
    (zero-copy from the Arrow buffers), or any sequence of str/bytes.
    Returns offsets of length n+1 into the flat byte array.
    """
    try:
        import pyarrow as pa

        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if isinstance(col, pa.Array):
            if pa.types.is_dictionary(col.type):
                col = col.dictionary_decode()
            t = col.type
            if pa.types.is_string(t) or pa.types.is_binary(t):
                col = col.cast(pa.large_binary())
            elif pa.types.is_large_string(t):
                col = col.cast(pa.large_binary())
            if pa.types.is_large_binary(col.type):
                buffers = col.buffers()
                offsets = np.frombuffer(buffers[1], dtype=np.int64)[
                    col.offset : col.offset + len(col) + 1
                ]
                data = (
                    np.frombuffer(buffers[2], dtype=np.uint8)
                    if buffers[2] is not None
                    else np.empty(0, np.uint8)
                )
                # rebase sliced arrays (offset != 0) so offsets[0] == 0 and
                # data covers exactly the rows: equal row lengths then imply
                # aligned flat buffers (data slice is a zero-copy view)
                offsets = offsets.astype(np.int64)
                if len(offsets):
                    data = data[offsets[0] : offsets[-1]]
                    if offsets[0] != 0:
                        offsets = offsets - offsets[0]
                return data, offsets
    except ImportError:  # pragma: no cover
        pass

    items = [s.encode() if isinstance(s, str) else bytes(s) for s in col]
    offsets = np.zeros(len(items) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in items], out=offsets[1:])
    data = np.frombuffer(b"".join(items), dtype=np.uint8)
    return data, offsets


def hamming_batch(col_a, col_b) -> np.ndarray:
    """Per-row mismatch count; raises if any row pair has unequal lengths.

    Fully vectorized: one flat byte comparison + segment reduction
    (``np.add.reduceat``), the batch analogue of the reference's
    movemask/popcount loop (hamming.rs:317-367).
    """
    da, oa = to_byte_rows(col_a)
    db, ob = to_byte_rows(col_b)
    lens_a = np.diff(oa)
    lens_b = np.diff(ob)
    if not np.array_equal(lens_a, lens_b):
        bad = int(np.nonzero(lens_a != lens_b)[0][0])
        raise ValueError(
            f"hamming distance requires equal-length strings (row {bad}: "
            f"{int(lens_a[bad])} vs {int(lens_b[bad])})"
        )
    if da.size != db.size:
        raise ValueError("inconsistent flat byte lengths")
    n = len(lens_a)
    sums = np.zeros(n, dtype=np.uint32)
    if da.size == 0:
        return sums
    neq = (da != db).astype(np.uint32)
    # reduceat only over starts of NON-EMPTY rows: those are strictly
    # increasing and all < da.size, and the segment from one non-empty
    # row's start to the next covers exactly that row's bytes (empty rows
    # contribute none). Clipping all starts instead would truncate the row
    # preceding a trailing empty row.
    nz = lens_a > 0
    sums[nz] = np.add.reduceat(neq, oa[:-1][nz])
    return sums


def bag_distance_batch(col_a, col_b) -> np.ndarray:
    """Per-row bag distance: max(#chars only in a, #chars only in b) over
    byte multisets — a lower bound on unit-cost edit distance (each
    substitute/insert/delete changes the multiset by at most one element;
    transpositions don't change it at all). Computed by the compiled
    kernel, which applies the same bound per pair before its Myers pass.
    """
    return native.bag_distance_unit(*to_byte_rows(col_a),
                                    *to_byte_rows(col_b))


def _bounds(k, oa, ob, costs: EditCosts) -> np.ndarray:
    """``k`` (a scalar or one per row) as int64, cut first to an upper
    bound on every row's achievable cost. The engine caps each row's k
    there anyway (``scalar._max_k_and_band``), so the cut changes no
    answer, and a Python int k past int64, which the scalar path accepts,
    still converts."""
    longest = (int(np.diff(oa).max(initial=0))
               + int(np.diff(ob).max(initial=0)))
    reach = (longest * max(costs.mismatch_cost, costs.gap_cost)
             + costs.start_gap_cost)
    return np.asarray(np.minimum(np.asarray(k), reach), np.int64)


def levenshtein_k_batch(col_a, col_b, k, costs: EditCosts = LEVENSHTEIN_COSTS
                        ) -> np.ndarray:
    """k-bounded edit distance per row; -1 where the cost exceeds the bound
    (the reference's ``None``). Same Some/None boundary and values as
    ``scalar.levenshtein_k_with_opts`` for every cost model.

    ``k`` may be a scalar or a per-row int array (per-pair bounds, e.g. a
    relative threshold on the longer string's length).
    """
    da, oa = to_byte_rows(col_a)
    db, ob = to_byte_rows(col_b)
    out = np.empty(len(oa) - 1, dtype=np.int64)  # native checks len(ob)
    k_arr = _bounds(k, oa, ob, costs)
    if costs.is_unit():
        native.levenshtein_k_unit(da, oa, db, ob, k_arr, out)
    else:
        native.levenshtein_k_costs(da, oa, db, ob, k_arr, costs, out)
    return out


def levenshtein_batch(col_a, col_b, costs: EditCosts = LEVENSHTEIN_COSTS) -> np.ndarray:
    """Unbounded distance per row (k = achievable upper bound)."""
    res = levenshtein_k_batch(col_a, col_b, 1 << 31, costs)
    assert (res >= 0).all()
    return res


def levenshtein_k_batch_trace(col_a, col_b, k, costs: EditCosts = LEVENSHTEIN_COSTS):
    """Distance AND RLE traceback per row: the compiled banded DP with the
    reference's tie-break order (levenshtein.rs:493-532) and its walk back,
    one edit code per step. Edits are un-swapped where ``a`` is the longer
    row (the DP runs the shorter one on its rows), so traces equal
    ``scalar.levenshtein_k_with_opts`` exactly.

    Returns (dist int64 array with -1 for >k, list of Edit lists or None).
    """
    da, oa = to_byte_rows(col_a)
    db, ob = to_byte_rows(col_b)
    out = np.empty(len(oa) - 1, dtype=np.int64)  # native checks len(ob)
    codes, steps = native.levenshtein_k_costs(
        da, oa, db, ob, _bounds(k, oa, ob, costs), costs, out, trace=True)
    swapped = (np.diff(oa) > np.diff(ob)).tolist()
    traces: List[Optional[List[Edit]]] = []
    pos = 0
    for d, n_steps, sw in zip(out.tolist(), steps.tolist(), swapped):
        names = _SWAPPED_EDITS if sw else _EDITS
        traces.append(None if d < 0 else [
            Edit(names[c], len(list(run)))
            for c, run in groupby(codes[pos : pos + n_steps].tobytes())])
        pos += n_steps
    return out, traces
