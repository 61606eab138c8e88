"""The compiled edit-distance kernels: ``_myers.c`` built with gcc on first
use and called through ctypes, which releases the GIL for the call. It
holds the one Myers engine behind unit-cost batch and single-pair
distance, the bag bound and column search, and the banded DP with
traceback behind every other cost model and every traced distance.

The library is cached as ``CACHE_DIR/<sha256 of source, flags and gcc
version>.so``. A build holds an ``fcntl`` lock on ``<key>.so.lock``,
compiles into a temp file and ``os.replace``s it into place, so processes
that start together build once and never load a half-written file; the
lock file is removed by whoever held it. Nothing is built or loaded at
import, and callers keep no handle, so objects that call the kernel stay
picklable. A failed build raises ``RuntimeError`` with the compiler's
stderr; there is no fallback.
"""

from __future__ import annotations

import ctypes
import fcntl
import hashlib
import os
import subprocess
import tempfile

import numpy as np

__all__ = [
    "levenshtein_k_unit", "levenshtein_k_pair", "levenshtein_k_costs",
    "bag_distance_unit", "myers_search_column", "kernel_hash",
]

GCC = "/usr/bin/gcc"
# no -march=native: the cache may be shared by hosts with different CPUs
FLAGS = ("-O3", "-shared", "-fPIC")
CACHE_DIR = os.path.join(os.path.expanduser("~"), ".cache", "triple_accel_ray")
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_myers.c")

_LIB = None
_KEY = None


def _build_key() -> str:
    try:
        version = subprocess.run(
            [GCC, "--version"], capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        raise RuntimeError(f"cannot run the C compiler {GCC}: {e}") from e
    with open(SOURCE, "rb") as f:
        src = f.read()
    return hashlib.sha256(src + " ".join(FLAGS).encode() + version).hexdigest()


def _compile(path: str) -> None:
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so",
                               dir=os.path.dirname(path))
    os.close(fd)
    try:
        r = subprocess.run([GCC, *FLAGS, "-o", tmp, SOURCE],
                           capture_output=True, text=True)
        if r.returncode:
            raise RuntimeError(f"building {SOURCE} failed:\n{r.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _library_path(key: str) -> str:
    path = os.path.join(CACHE_DIR, key + ".so")
    if os.path.exists(path):
        return path
    os.makedirs(CACHE_DIR, exist_ok=True)
    lock = path + ".lock"
    fd = os.open(lock, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        if not os.path.exists(path):
            _compile(path)
    finally:
        # remove the lock file only if it is the one this process locked: a
        # waiter on an already-removed file must not remove a newer one
        try:
            if os.stat(lock).st_ino == os.fstat(fd).st_ino:
                os.unlink(lock)
        except FileNotFoundError:
            pass
        os.close(fd)
    return path


def _lib():
    global _LIB, _KEY
    if _LIB is None:
        key = _build_key()
        lib = ctypes.CDLL(_library_path(key))
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        lib.lev_k_unit.argtypes = [i64] + [ptr] * 6
        lib.lev_k_unit.restype = ctypes.c_int
        lib.lev_k_pair.argtypes = [ctypes.c_char_p, i64] * 2 + [i64]
        lib.lev_k_pair.restype = i64
        lib.bag_unit.argtypes = [i64] + [ptr] * 5
        lib.bag_unit.restype = None
        lib.lev_search_unit.argtypes = [ctypes.c_char_p, i64, i64, ptr, ptr,
                                        i64, ctypes.POINTER(ptr)]
        lib.lev_search_unit.restype = i64
        lib.lev_k_costs.argtypes = [i64] + [ptr] * 9
        lib.lev_k_costs.restype = ctypes.c_int
        lib.lev_free.argtypes = [ptr]
        lib.lev_free.restype = None
        _LIB, _KEY = lib, key
    return _LIB


def kernel_hash() -> str:
    """Cache key (sha256 of source, flags and gcc version) of the loaded
    library, building and loading it if needed."""
    _lib()
    return _KEY


def _byte_rows(d, o):
    """Flat bytes and int64 offsets as contiguous arrays, checked to index
    the bytes."""
    d = np.ascontiguousarray(d, np.uint8)
    o = np.ascontiguousarray(o, np.int64)
    if len(o) > 1 and (o[0] < 0 or o[-1] > d.size or (np.diff(o) < 0).any()):
        raise ValueError("offsets do not index the byte buffer")
    return d, o


def _pair_rows(da, oa, db, ob):
    da, oa = _byte_rows(da, oa)
    db, ob = _byte_rows(db, ob)
    if len(ob) != len(oa):
        raise ValueError("row counts do not match")
    return da, oa, db, ob, len(oa) - 1


def _bounds_out(max_k, out, n):
    if out.shape != (n,) or out.dtype != np.int64 \
            or not out.flags.c_contiguous:
        raise ValueError("row counts or output buffer do not match")
    return np.ascontiguousarray(np.broadcast_to(max_k, (n,)), np.int64)


def levenshtein_k_unit(da, oa, db, ob, max_k, out) -> None:
    """Fill ``out`` (int64, one per row) with the unit-cost edit distance
    of rows ``(da, oa)[i]`` and ``(db, ob)[i]``, or -1 where it exceeds
    ``max_k[i]``. ``da``/``db`` are flat bytes and ``oa``/``ob`` int64
    offsets, as :func:`batch.to_byte_rows` returns them."""
    da, oa, db, ob, n = _pair_rows(da, oa, db, ob)
    max_k = _bounds_out(max_k, out, n)
    if _lib().lev_k_unit(n, da.ctypes.data, oa.ctypes.data, db.ctypes.data,
                         ob.ctypes.data, max_k.ctypes.data, out.ctypes.data):
        raise MemoryError("lev_k_unit could not allocate its scratch")


def levenshtein_k_pair(a: bytes, b: bytes, max_k: int) -> int:
    """Unit-cost edit distance of two byte strings, or -1 where it exceeds
    ``max_k`` (0 <= max_k < 2**63). One call with no array set-up, for the
    single-pair API."""
    d = _lib().lev_k_pair(a, len(a), b, len(b), max_k)
    if d == -2:
        raise MemoryError("lev_k_pair could not allocate its scratch")
    return d


def levenshtein_k_costs(da, oa, db, ob, max_k, costs, out, trace=False):
    """Fill ``out`` with the edit distance of each row pair under ``costs``
    (an ``EditCosts``), or -1 where it exceeds ``max_k[i]`` capped by the
    achievable cost: the banded DP of ``scalar.levenshtein_k_with_opts``,
    over the same flat rows as :func:`levenshtein_k_unit`.

    With ``trace``, returns ``(codes, steps)``: the alignment of each pair
    with ``out[i] >= 0`` as ``steps[i]`` uint8 codes (0 match, 1 mismatch,
    2 a-gap, 3 b-gap, 4 transpose), pair after pair in ``codes``. The
    codes are in the frame of the pair's shorter row: where row ``a`` is
    the longer, its a-gap and b-gap codes trade places."""
    da, oa, db, ob, n = _pair_rows(da, oa, db, ob)
    max_k = _bounds_out(max_k, out, n)
    c = np.array([costs.mismatch_cost, costs.gap_cost, costs.start_gap_cost,
                  -1 if costs.transpose_cost is None
                  else costs.transpose_cost], np.int64)
    codes = np.empty(oa[-1] - oa[0] + ob[-1] - ob[0] if trace else 0,
                     np.uint8)
    steps = np.zeros(n if trace else 0, np.int64)
    if _lib().lev_k_costs(n, da.ctypes.data, oa.ctypes.data, db.ctypes.data,
                          ob.ctypes.data, max_k.ctypes.data, c.ctypes.data,
                          out.ctypes.data,
                          codes.ctypes.data if trace else None,
                          steps.ctypes.data):
        raise MemoryError("lev_k_costs could not allocate its scratch")
    return (codes, steps) if trace else None


def bag_distance_unit(da, oa, db, ob) -> np.ndarray:
    """Bag distance of each row pair (the multiset bound the distance
    kernel screens with), over the same flat rows as
    :func:`levenshtein_k_unit`."""
    da, oa, db, ob, n = _pair_rows(da, oa, db, ob)
    out = np.empty(n, np.int64)
    _lib().bag_unit(n, da.ctypes.data, oa.ctypes.data, db.ctypes.data,
                    ob.ctypes.data, out.ctypes.data)
    return out


def myers_search_column(needle: bytes, data, offsets, k: int):
    """Unit-cost semi-global search of one needle (m >= 1 bytes) over every
    row of the flat column ``(data, offsets)``: returns int64 (row, end,
    cost, start) arrays for every position where the Sellers DP's last row
    D[m][end] <= k, ordered by (row, end), which is the scalar DP's hit
    stream.

    The start of each hit is the scalar DP's: the LONGEST match, i.e. the
    smallest start s with lev(needle, row[s:end]) == cost. The kernel finds
    it with a global scan of the reversed needle over the reversed row from
    ``end``, which reads lev(needle, row[end-q:end]) after q bytes, and
    keeps the largest q with that cost; it is >= q - m, so the scan stops
    by q = m + cost."""
    needle = bytes(needle)
    if not needle:
        raise ValueError("the needle must hold at least one byte")
    data, offsets = _byte_rows(data, offsets)
    buf = ctypes.c_void_p()
    lib = _lib()
    m = len(needle)
    cnt = lib.lev_search_unit(needle, m, len(offsets) - 1, data.ctypes.data,
                              offsets.ctypes.data, max(-1, min(k, m)),
                              ctypes.byref(buf))
    if cnt < 0:
        raise MemoryError("lev_search_unit could not allocate its hits")
    try:
        hits = np.ctypeslib.as_array(
            ctypes.cast(buf, ctypes.POINTER(ctypes.c_int64)), (cnt, 4)
        ).copy() if cnt else np.empty((0, 4), np.int64)
    finally:
        lib.lev_free(buf)
    return tuple(np.ascontiguousarray(hits.T))
