"""Kernel microbenchmarks mirroring the reference's criterion workloads
(/root/reference/benches/rand_benchmarks.rs): seeded random pairs at string
lengths {10, 100, 1000} with k = len/10, and search over haystacks
{100, 1000} with needle = len/10, k = len/100, planted matches = len/20.

The reference publishes no absolute numbers (BASELINE.md) — this records
ours, per batch-kernel call and per pair, single process; ``lev_simd_k_*``
rows time the single-pair API one call per pair. Each pairwise row
(``lev_k_*``, ``lev_simd_k_*``, ``hamming_*``, ``lev_long_*``) and each
column-search row is the median of REPS timed calls. Run:
    python scripts/bench_kernels.py
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

REPS = 7  # timed calls per pairwise and column-search row; the median is kept

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from triple_accel_ray.kernels import (  # noqa: E402
    SEARCH_ALL,
    hamming_search_naive_with_opts,
    levenshtein_search_naive_with_opts,
    levenshtein_search_simd_with_opts,
    levenshtein_simd_k,
)
from triple_accel_ray.kernels.batch import (  # noqa: E402
    hamming_batch,
    levenshtein_k_batch,
)


def rand_str(rng, n):
    return bytes(rng.randrange(33, 127) for _ in range(n))


def mutate(rng, s, k):
    b = bytearray(s)
    edits = rng.randrange(max(1, k // 2), k + 1) if k else 0
    for _ in range(edits):
        op = rng.randrange(3)
        if op == 0 and b:
            b[rng.randrange(len(b))] = rng.randrange(33, 127)
        elif op == 1:
            b.insert(rng.randrange(len(b) + 1), rng.randrange(33, 127))
        elif b:
            del b[rng.randrange(len(b))]
    return bytes(b)


def _median_call(fn, *args, reps=REPS):
    """Median wall time of ``reps`` calls: one call of a batch kernel or
    the column search takes milliseconds to seconds, and a single timing
    of the same code moved by up to 45% between runs."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _single_pairs(a, b, k):
    """The single-pair API, one call per pair."""
    for x, y in zip(a, b):
        levenshtein_simd_k(x, y, k)


def main():
    rng = random.Random(1234)
    out = {}
    levenshtein_k_batch([b"a"], [b"b"], 1)  # build / load the compiled kernel

    # pairwise distance workloads
    for length in (10, 100, 1000):
        k = max(1, length // 10)
        n = 4000 if length <= 100 else 1000
        a = [rand_str(rng, length) for _ in range(n)]
        b = [mutate(rng, s, k) for s in a]
        dt = _median_call(levenshtein_k_batch, a, b, k)
        out[f"lev_k_len{length}"] = {
            "pairs_per_sec": round(n / dt), "k": k, "n": n}

        # the single-pair API, one call per pair on the same pairs
        n1 = n // 4
        dt = _median_call(_single_pairs, a[:n1], b[:n1], k)
        out[f"lev_simd_k_len{length}"] = {
            "us_per_pair": round(1e6 * dt / n1, 2), "k": k, "n": n1}

        a_h = [rand_str(rng, length) for _ in range(n)]
        b_h = []
        for s in a_h:
            bb = bytearray(s)
            for _ in range(k):
                if bb:
                    bb[rng.randrange(len(bb))] = rng.randrange(33, 127)
            b_h.append(bytes(bb))
        dt = _median_call(hamming_batch, a_h, b_h)
        out[f"hamming_len{length}"] = {"pairs_per_sec": round(n / dt), "n": n}

    # search workloads, one haystack per call: the scalar oracle and the
    # API's unit-cost path (the compiled engine on a one-row column)
    for hlen in (100, 1000):
        nlen = max(1, hlen // 10)
        k = max(1, hlen // 100)
        n = 200
        cases = []
        for _ in range(n):
            needle = rand_str(rng, nlen)
            hay = bytearray(rand_str(rng, hlen))
            # plant mutated copies
            for _ in range(max(1, hlen // 20) // max(1, nlen)):
                pos = rng.randrange(0, hlen - nlen)
                hay[pos : pos + nlen] = mutate(rng, needle, k)[:nlen]
            cases.append((needle, bytes(hay)))
        t0 = time.perf_counter()
        for needle, hay in cases:
            list(levenshtein_search_naive_with_opts(needle, hay, k, SEARCH_ALL))
        dt = time.perf_counter() - t0
        t0 = time.perf_counter()
        for needle, hay in cases:
            levenshtein_search_simd_with_opts(needle, hay, k, SEARCH_ALL)
        dt_simd = time.perf_counter() - t0
        out[f"lev_search_h{hlen}"] = {
            "haystacks_per_sec": round(n / dt),
            "simd_haystacks_per_sec": round(n / dt_simd)}

        t0 = time.perf_counter()
        for needle, hay in cases:
            list(hamming_search_naive_with_opts(needle, hay, k, SEARCH_ALL))
        dt = time.perf_counter() - t0
        out[f"ham_search_h{hlen}"] = {"haystacks_per_sec": round(n / dt)}

    # long-string pairs through each batch entry: unit costs (the banded
    # Myers), restricted Damerau (the general-cost banded DP) and the
    # traced unit-cost DP, on the same pairs
    from triple_accel_ray.kernels.batch import levenshtein_k_batch_trace
    from triple_accel_ray.kernels.types import RDAMERAU_COSTS

    for L, k in ((1000, 100), (512, 76)):
        n2 = 2048
        a_col = [rand_str(rng, L) for _ in range(n2)]
        b_col = [mutate(rng, a, int(0.12 * L)) if rng.random() < 0.8
                 else rand_str(rng, L) for a in a_col]
        levenshtein_k_batch(a_col[:128], b_col[:128], k)  # warm
        g1 = levenshtein_k_batch(a_col, b_col, k)
        g2, _ = levenshtein_k_batch_trace(a_col, b_col, k)
        assert (g1 == g2).all()
        dt_m = _median_call(levenshtein_k_batch, a_col, b_col, k)
        dt_r = _median_call(levenshtein_k_batch, a_col, b_col, k,
                            RDAMERAU_COSTS)
        dt_t = _median_call(levenshtein_k_batch_trace, a_col, b_col, k)
        out[f"lev_long_len{L}_k{k}"] = {
            "pairs_per_sec": round(n2 / dt_m),
            "rdamerau_pairs_per_sec": round(n2 / dt_r),
            "trace_pairs_per_sec": round(n2 / dt_t),
        }

    # column-vectorized search over a haystack COLUMN (one needle), sparse
    # and dense planted-match corpora; per-row scalar as the comparison
    import pyarrow as pa

    from triple_accel_ray.ops.search import levenshtein_search_column

    needle = b"needletext"
    for density, every in (("sparse", 100), ("dense", 7)):
        n, hlen, k = 2000, 1000, 2
        texts = []
        for i in range(n):
            t = bytearray(rand_str(rng, hlen))
            if i % every == 0:
                pos = rng.randrange(0, hlen - len(needle))
                t[pos : pos + len(needle)] = mutate(rng, needle, k)[: len(needle)]
            texts.append(t.decode("latin-1"))
        tbl = pa.table({"doc_id": list(range(n)), "text": texts})
        levenshtein_search_column(tbl, needle, k)  # warm (page faults)
        dt_col = _median_call(levenshtein_search_column, tbl, needle, k)
        t0 = time.perf_counter()
        for t in texts:
            list(levenshtein_search_simd_with_opts(
                needle, t.encode("latin-1"), k, SEARCH_ALL))
        dt_row = time.perf_counter() - t0
        out[f"lev_search_column_{density}"] = {
            "docs_per_sec": round(n / dt_col),
            "per_row_docs_per_sec": round(n / dt_row),
            "speedup": round(dt_row / dt_col, 1),
        }

    # long needles: the reference's own search bench shape (needle =
    # len/10 = 100 for 1000-char haystacks), then both sides of one
    # 64-bit word (m = 64 and 65)
    n3, hlen3 = 1000, 1000
    for m3 in (100, 64, 65):
        k3 = m3 // 10
        needle3 = rand_str(rng, m3)
        texts3 = []
        for i in range(n3):
            t = bytearray(rand_str(rng, hlen3))
            if i % 20 == 0:
                pos = rng.randrange(0, hlen3 - m3)
                t[pos : pos + m3] = mutate(rng, needle3, k3)[:m3]
            texts3.append(t.decode("latin-1"))
        tbl3 = pa.table({"doc_id": list(range(n3)), "text": texts3})
        levenshtein_search_column(tbl3, needle3, k3)  # warm
        dt_c3 = _median_call(levenshtein_search_column, tbl3, needle3, k3)
        t0 = time.perf_counter()
        for t in texts3[:100]:
            list(levenshtein_search_simd_with_opts(
                needle3, t.encode("latin-1"), k3, SEARCH_ALL))
        dt_r3 = (time.perf_counter() - t0) * (n3 / 100)
        out[f"lev_search_column_needle{m3}"] = {
            "docs_per_sec": round(n3 / dt_c3),
            "per_row_docs_per_sec": round(n3 / dt_r3),
            "speedup": round(dt_r3 / dt_c3, 1),
        }

    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
