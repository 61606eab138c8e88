"""The compiled unit-cost kernel: ``_myers.c`` built with gcc on first use
and called through ctypes, which releases the GIL for the call.

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

__all__ = ["levenshtein_k_unit", "kernel_hash"]

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
        lib.lev_k_unit.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 6
        lib.lev_k_unit.restype = ctypes.c_int
        _LIB, _KEY = lib, key
    return _LIB


def kernel_hash() -> str:
    """Cache key (sha256 of source, flags and gcc version) of the loaded
    library, building and loading it if needed."""
    _lib()
    return _KEY


def levenshtein_k_unit(da, oa, db, ob, max_k, out) -> None:
    """Fill ``out`` (int64, one per row) with the unit-cost edit distance
    of rows ``(da, oa)[i]`` and ``(db, ob)[i]``, or -1 where it exceeds
    ``max_k[i]``. ``da``/``db`` are flat bytes and ``oa``/``ob`` int64
    offsets, as :func:`batch.to_byte_rows` returns them."""
    da = np.ascontiguousarray(da, np.uint8)
    db = np.ascontiguousarray(db, np.uint8)
    oa = np.ascontiguousarray(oa, np.int64)
    ob = np.ascontiguousarray(ob, np.int64)
    n = len(oa) - 1
    max_k = np.ascontiguousarray(np.broadcast_to(max_k, (n,)), np.int64)
    if len(ob) != n + 1 or out.shape != (n,) or out.dtype != np.int64 \
            or not out.flags.c_contiguous:
        raise ValueError("row counts or output buffer do not match")
    for d, o in ((da, oa), (db, ob)):
        if n and (o[0] < 0 or o[-1] > d.size or (np.diff(o) < 0).any()):
            raise ValueError("offsets do not index the byte buffer")
    if _lib().lev_k_unit(n, da.ctypes.data, oa.ctypes.data, db.ctypes.data,
                         ob.ctypes.data, max_k.ctypes.data, out.ctypes.data):
        raise MemoryError("lev_k_unit could not allocate its scratch")
