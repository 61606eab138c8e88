"""Stage 2: docs → exploded (block_key, conv_id, ...) candidate-block rows.

Three stateless key families, all computed batch-vectorized in numpy inside
``map_batches`` (no shuffle in this stage; the shuffle happens in pair
generation, keyed by block_key):

  * ``mh``  — MinHash-LSH bands over char shingles: the recall workhorse.
    Flat sliding-window shingle hashing across the whole batch (one byte
    array, ``np.minimum.reduceat`` per permutation), banded into
    ``n_bands`` keys per doc.
  * ``x``   — exact content hash: guarantees exact duplicates always share
    a block, regardless of MinHash behavior on short docs.
  * ``s``   — structure signature: (role_sig digest, length bucket), with
    the half-shifted bucket emitted too so near-dups straddling a bucket
    boundary still collide.

The BlockKeyer is a callable CLASS: permutation tables are built once
(``__init__``) and reused across batches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels.batch import to_byte_rows

_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)

# per-process keyer scratch (see BlockKeyer._scratch for why module-level)
_KEYER_SCR: dict = {}


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64-style finalizer, vectorized on uint64."""
    h = h.copy()
    h ^= h >> np.uint64(33)
    h *= _M1
    h ^= h >> np.uint64(33)
    h *= _M2
    h ^= h >> np.uint64(33)
    return h


class BlockKeyer:
    def __init__(
        self,
        num_perm: int = 32,
        n_bands: int = 16,
        shingle: int = 5,
        seed: int = 7,
        len_band_width: int = 32,
        sig_max_len: int = 64,
        carry_text: bool = False,
        families: tuple = ("mh", "x", "s"),
    ):
        assert num_perm % n_bands == 0
        self.num_perm = num_perm
        self.n_bands = n_bands
        self.rows_per_band = num_perm // n_bands
        self.shingle = shingle
        self.len_band_width = len_band_width
        # structure-signature keys only cover docs too short for reliable
        # MinHash (few shingles); longer docs are recalled by the mh family,
        # and emitting s-keys for them floods scoring with false candidates
        self.sig_max_len = sig_max_len
        # block rows carry only (conv_id, doc_len) by default — texts are
        # re-attached to the (far smaller) deduped pair set by a hash join;
        # carrying text through the block shuffle multiplies the corpus by
        # ~n_bands. Ops that verify inside the block bucket set carry_text.
        self.carry_text = carry_text
        self.families = set(families)
        rng = np.random.default_rng(seed)
        self.pa_mult = rng.integers(1, 1 << 62, size=num_perm, dtype=np.uint64) | np.uint64(1)
        self.pb_add = rng.integers(0, 1 << 62, size=num_perm, dtype=np.uint64)
        self.shingle_coef = rng.integers(1, 1 << 62, size=shingle, dtype=np.uint64) | np.uint64(1)

    # ------------------------------------------------------------------
    def _scratch(self, size: int):
        """PER-PROCESS reusable flat buffers (grown geometrically).
        Module-level, not per-instance, on purpose: stateless map tasks
        deserialize a fresh keyer per task, and first-touch page faults on
        this sandbox VM run at ~0.24 GB/s (70x slower than warm DRAM) and
        contend kernel-side under task concurrency — instance scratch made
        every task re-fault its buffers and the stage ANTI-scaled with
        CPUs. Ray worker processes are long-lived, so module scratch is
        faulted once per worker and stays warm across tasks."""
        cur = _KEYER_SCR.get("bufs")
        if cur is None or len(cur[0]) < size:
            cap = max(size, 2 * len(cur[0]) if cur else size)
            _KEYER_SCR["bufs"] = (
                np.empty(cap, dtype=np.uint64),  # hflat
                np.empty(cap, dtype=np.uint64),  # general uint64 temp
                np.empty(cap, dtype=np.int32),   # (doc, bin) radix key
                np.empty(cap, dtype=np.int32),   # doc index per window
            )
        h, tmp, key, doc_of = _KEYER_SCR["bufs"]
        return h[:size], tmp[:size], key[:size], doc_of[:size]

    # windows per internal chunk: bounds the scratch working set at
    # ~24 B/window — and CACHE-RESIDENT, not merely bounded. At 2^20 the
    # ~25 MB per-worker scratch exceeded L2/L3 share, so every hash/mix/
    # sort pass streamed DRAM; this VM sustains only ~2.4 GB/s AGGREGATE
    # memory traffic across all cores (measured: 16.6 CPU-s single-process
    # for the sf0.4 corpus vs 457 CPU-s split across 32 processes — the
    # blocks stage ran NO faster at 32 CPUs than at 1). At 2^16 the ~1.5 MB
    # working set stays in-cache, only the text bytes stream, and the same
    # 32-process harness measured ~1.3x CPU inflation instead of ~27x.
    CHUNK_WINDOWS = 1 << 16

    def minhash_matrix(self, data: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """(n_docs, num_perm) uint64 signatures via one-permutation hashing
        (Li, Owen & Zhang 2012): each shingle is hashed ONCE, the hash space
        is split into ``num_perm`` bins and the per-(doc, bin) minimum forms
        the signature — one data pass instead of ``num_perm`` (the classic
        per-permutation scheme is memory-bandwidth-bound and anti-scales
        under task concurrency). Empty bins are filled by rotation
        densification so band hashing sees no sentinel collisions. Rows with
        no shingles stay all-max.

        Work is split into doc-aligned chunks of ≤ CHUNK_WINDOWS windows so
        the per-worker scratch stays small and warm (see CHUNK_WINDOWS);
        results are identical to the unchunked form because chunks are
        doc-aligned (per-(doc,bin) minima never cross docs)."""
        n = len(offsets) - 1
        MAXU = np.iinfo(np.uint64).max
        sig = np.full((n, self.num_perm), MAXU, dtype=np.uint64)
        B = int(offsets[-1] - offsets[0])
        if B < self.shingle:
            return sig
        i0 = 0
        while i0 < n:
            # widest doc range whose byte span stays under the chunk bound
            # (a single over-long doc gets its own chunk)
            limit = int(offsets[i0]) + self.CHUNK_WINDOWS
            i1 = int(np.searchsorted(offsets, limit, side="right")) - 1
            i1 = max(i1, i0 + 1)
            i1 = min(i1, n)
            self._minhash_chunk(data, offsets[i0 : i1 + 1], sig[i0:i1])
            i0 = i1
        self._densify(sig, np.diff(offsets))
        return sig

    def _minhash_chunk(
        self, data: np.ndarray, offsets: np.ndarray, sig: np.ndarray
    ) -> None:
        """One-permutation minhash for one doc-aligned chunk; writes
        per-(doc, bin) minima into ``sig`` (rows aligned with offsets)."""
        MAXU = np.iinfo(np.uint64).max
        B = int(offsets[-1] - offsets[0])
        if B < self.shingle:
            return
        flat = data[offsets[0] : offsets[-1]]
        off0 = offsets - offsets[0]
        npos = B - self.shingle + 1  # flat window starts (incl. invalid)
        h, tmp, key, doc_of = self._scratch(npos)

        # polynomial shingle hash over contiguous shifted views (uint8 ->
        # uint64 promotion happens inside the ufunc via out=, no temps)
        np.multiply(flat[:npos], self.shingle_coef[0], out=h,
                    casting="unsafe")
        for kk in range(1, self.shingle):
            np.multiply(flat[kk : kk + npos], self.shingle_coef[kk],
                        out=tmp, casting="unsafe")
            h += tmp
        # splitmix64 finalizer, in place (same values as _mix64)
        t33 = np.uint64(33)
        np.right_shift(h, t33, out=tmp)
        h ^= tmp
        h *= _M1
        np.right_shift(h, t33, out=tmp)
        h ^= tmp
        h *= _M2
        np.right_shift(h, t33, out=tmp)
        h ^= tmp

        # windows straddling a doc boundary are not shingles: poison them
        # (any position within shingle-1 bytes of a boundary is inside
        # SOME doc's tail, so poisoning covers short docs too)
        tail = (off0[1:, None] - np.arange(1, self.shingle)[None, :]).ravel()
        tail = tail[(tail >= 0) & (tail < npos)]
        h[tail] = MAXU

        nbits = int(np.log2(self.num_perm))
        assert (1 << nbits) == self.num_perm, "num_perm must be a power of 2"
        # Single-pass per-(doc, bin) grouping. The previous formulation ran
        # num_perm masked reduceat passes over every tile (~1.6 KB of DRAM
        # traffic per window); under 32-way task concurrency the box's
        # memory bandwidth saturated and the stage ANTI-scaled (Ray stats:
        # 1.2 s mean task CPU vs 0.12 s for the identical batch single-
        # process). One stable integer argsort — numpy radix sort for int32
        # — groups windows by (doc, bin) in a single pass: ~80 B/window.
        counts = np.minimum(off0[1:], npos) - np.minimum(off0[:-1], npos)
        # doc index per window, allocation-free: scatter per-doc index
        # deltas at doc starts, cumsum to broadcast (the repeat-based form
        # allocated npos ints per batch — page-fault-bound on big batches)
        doc_of[:] = 0
        nzc = np.flatnonzero(counts > 0)
        if nzc.size:
            dd = np.empty(len(nzc), np.int32)
            dd[0] = nzc[0]
            np.subtract(nzc[1:], nzc[:-1], out=dd[1:], casting="unsafe")
            doc_of[off0[:-1][nzc]] = dd
            np.cumsum(doc_of, out=doc_of)
        # key = doc * num_perm + bin; bin is the top nbits of the window
        # hash, so the per-group min over h is exactly the per-(doc, bin)
        # min the masked formulation computed
        np.right_shift(h, np.uint64(64 - nbits), out=tmp)
        np.multiply(doc_of, np.int32(self.num_perm), out=key)
        np.add(key, tmp, out=key, casting="unsafe")
        # small tiles on purpose: argsort/gather allocate per call, and
        # tiles this size stay under glibc's adaptive mmap threshold so the
        # allocations are arena-served (warm pages — first-touch faults on
        # this VM cost ~70x DRAM); they also keep the gather cache-resident
        CH = 1 << 16
        for c0 in range(0, npos, CH):
            c1 = min(npos, c0 + CH)
            order = np.argsort(key[c0:c1], kind="stable")
            sk = key[c0:c1][order]
            hs_ = h[c0:c1][order]
            starts = np.flatnonzero(sk[1:] != sk[:-1]) + 1
            starts = np.concatenate([[0], starts]) if sk.size else starts
            if sk.size == 0:
                continue
            mins = np.minimum.reduceat(hs_, starts)
            kv = sk[starts]
            d = kv >> nbits
            b = kv & (self.num_perm - 1)
            # (d, b) pairs are unique within a tile; docs spanning a tile
            # boundary combine through sig across tiles
            sig[d, b] = np.minimum(sig[d, b], mins)
        # MAXU-poisoned windows (tails/short docs) can never win a min
        # unless the bin is empty — in which case the sentinel stays and
        # densification (in minhash_matrix) refills it, exactly as before

    def _densify(self, sig: np.ndarray, lens: np.ndarray) -> None:
        """Rotation densification: an empty bin borrows the next non-empty
        bin's value (wrapping), mixed with its distance so borrowed values
        differ across positions. Runs once over the full signature matrix
        (chunk-independent: densification only reads sig rows)."""
        MAXU = np.iinfo(np.uint64).max
        empty = sig == MAXU
        has_any = lens >= self.shingle
        if empty[has_any].any():
            for shift in range(1, self.num_perm):
                if not empty[has_any].any():
                    break
                donor = np.roll(sig, -shift, axis=1)
                fill = empty & (donor != MAXU)
                if fill.any():
                    sig[fill] = _mix64(donor[fill] + np.uint64(shift))
                empty = sig == MAXU

    def band_keys(self, sig: np.ndarray) -> np.ndarray:
        """(n_docs, n_bands) uint64 band hashes."""
        n = sig.shape[0]
        out = np.empty((n, self.n_bands), dtype=np.uint64)
        for b in range(self.n_bands):
            band = sig[:, b * self.rows_per_band : (b + 1) * self.rows_per_band]
            acc = np.uint64(((b + 1) * int(_M2)) & 0xFFFFFFFFFFFFFFFF)
            h = np.full(n, acc, dtype=np.uint64)
            for r in range(self.rows_per_band):
                h = _mix64(h ^ band[:, r])
            out[:, b] = h
        return out

    # ------------------------------------------------------------------
    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["doc_text"]
        data, offsets = to_byte_rows(texts)
        n = batch.num_rows
        lens = np.diff(offsets)

        sig = self.minhash_matrix(data, offsets)
        bands = self.band_keys(sig)
        has_shingles = lens >= self.shingle

        # block keys are uint64 (hashes), not strings: an order of magnitude
        # cheaper to build, hash, shuffle and compare than formatted keys.
        # Family disambiguation lives in the mixing constants/offsets.
        key_chunks: list = []
        doc_chunks: list = []

        # mh family (band index is already mixed into each band hash)
        if "mh" in self.families:
            hs = np.nonzero(has_shingles)[0]
            for b in range(self.n_bands):
                key_chunks.append(bands[hs, b])
                doc_chunks.append(hs)

        # x family: exact content hash (vectorized polynomial hash — a
        # 64-bit collision only adds a false candidate pair, later scored)
        if "x" in self.families:
            from ..kernels.vhash import polyhash_rows

            xh = polyhash_rows(data, offsets, seed=17)
            key_chunks.append(_mix64(xh ^ np.uint64(0xA5A5A5A5A5A5A5A5)))
            doc_chunks.append(np.arange(n))

        # s family: role-structure signature × length bucket (+half shift),
        # short docs only (see __init__)
        W = self.len_band_width
        short = (
            np.nonzero(lens < self.sig_max_len)[0]
            if ("s" in self.families and "role_sig" in batch.column_names)
            else np.empty(0, dtype=np.int64)
        )
        if short.size:
            from ..kernels.vhash import polyhash_rows

            sig_data, sig_off = to_byte_rows(batch["role_sig"])
            rs = polyhash_rows(sig_data, sig_off, seed=29)[short]
            lb = (lens[short] // W).astype(np.uint64)
            lb2 = ((lens[short] + W // 2) // W).astype(np.uint64)
            k1 = _mix64(rs ^ _mix64(lb ^ np.uint64(0x5151515151515151)))
            k2 = _mix64(rs ^ _mix64(lb2 ^ np.uint64(0x5151515151515151)))
            key_chunks.append(k1)
            doc_chunks.append(short)
            diff = lb2 != lb
            key_chunks.append(k2[diff])
            doc_chunks.append(short[diff])

        keys = np.concatenate(key_chunks)
        key_doc = np.concatenate(doc_chunks)
        idx = pa.array(key_doc.astype(np.int64))
        cols = ["conv_id", "doc_text", "doc_len"] if self.carry_text else [
            "conv_id", "doc_len"
        ]
        sel = batch.select(cols).take(idx)
        return sel.append_column(
            "block_key", pa.array(keys.astype(np.uint64), pa.uint64())
        )


def build_blocks(docs, keyer_kwargs: dict | None = None):
    """docs Dataset → block rows Dataset.

    Runs as STATELESS tasks, one batch per input block. The keyer instance
    is serialized once and reused per worker process, so its scratch
    buffers stay warm across same-worker tasks; an autoscaling actor pool
    measured 3x slower end-to-end at sf0.1/32cpu (it ramps up from one
    actor while tasks fan out immediately), and an explicit batch_size
    makes Ray re-bundle blocks, measured 5-8x slower here."""
    keyer = BlockKeyer(**(keyer_kwargs or {}))
    return docs.map_batches(keyer, batch_format="pyarrow")
