"""Column-vectorized search ops must agree exactly with the per-row scalar
kernels — ALL and BEST, planted matches, short/empty haystacks."""

import random

import numpy as np
import pyarrow as pa
import pytest

from triple_accel_ray.kernels import (
    SEARCH_ALL,
    SEARCH_BEST,
    hamming_search_naive_with_opts,
    levenshtein_search_naive_with_opts,
)
from triple_accel_ray.ops.search import (
    hamming_search_column,
    levenshtein_search_column,
)


def corpus(rng, n, needle):
    texts = []
    for i in range(n):
        L = rng.randrange(0, 120)
        t = "".join(chr(rng.randrange(97, 123)) for _ in range(L))
        if rng.random() < 0.5 and L > 5:
            # plant a (possibly mutated) needle
            nd = bytearray(needle)
            for _ in range(rng.randrange(0, 3)):
                if nd:
                    nd[rng.randrange(len(nd))] = rng.randrange(97, 123)
            p = rng.randrange(0, L)
            t = t[:p] + nd.decode() + t[p:]
        texts.append(t)
    return pa.table({"doc_id": list(range(n)), "text": texts})


def expected(kernel, needle, texts, k, st):
    rows = []
    for i, t in enumerate(texts):
        for m in kernel(needle, t.encode(), k, st):
            rows.append((i, m.start, m.end, m.k))
    return rows


def got_rows(out):
    return list(zip(out["doc_id"].to_pylist(), out["start"].to_pylist(),
                    out["end"].to_pylist(), out["k"].to_pylist()))


def test_levenshtein_search_column_matches_scalar():
    rng = random.Random(11)
    needle = b"pattern"
    for st in (SEARCH_ALL, SEARCH_BEST):
        for k in (0, 1, 2, 3):
            t = corpus(rng, 80, needle)
            out = levenshtein_search_column(t, needle, k, st)
            want = expected(levenshtein_search_naive_with_opts, needle,
                            t["text"].to_pylist(), k, st)
            assert sorted(got_rows(out)) == sorted(want), (st, k)


def test_levenshtein_search_column_short_haystacks():
    # haystacks shorter than the needle; k >= m - n allows matches
    t = pa.table({"doc_id": [0, 1, 2], "text": ["", "pat", "patter"]})
    needle = b"pattern"
    for st in (SEARCH_ALL, SEARCH_BEST):
        for k in (1, 4, 7):
            out = levenshtein_search_column(t, needle, k, st)
            want = expected(levenshtein_search_naive_with_opts, needle,
                            t["text"].to_pylist(), k, st)
            assert sorted(got_rows(out)) == sorted(want), (st, k)


def test_levenshtein_search_column_needle_le_k():
    # m <= k -> the scalar emits an empty match at position 0 per row
    t = pa.table({"doc_id": [0, 1], "text": ["ab", ""]})
    for st in (SEARCH_ALL, SEARCH_BEST):
        out = levenshtein_search_column(t, b"xy", 2, st)
        want = expected(levenshtein_search_naive_with_opts, b"xy",
                        t["text"].to_pylist(), 2, st)
        assert sorted(got_rows(out)) == sorted(want), st


def test_hamming_search_column_matches_scalar():
    rng = random.Random(12)
    needle = b"pattern"
    for st in (SEARCH_ALL, SEARCH_BEST):
        for k in (0, 1, 3):
            t = corpus(rng, 80, needle)
            out = hamming_search_column(t, needle, k, st)
            want = expected(hamming_search_naive_with_opts, needle,
                            t["text"].to_pylist(), k, st)
            assert sorted(got_rows(out)) == sorted(want), (st, k)


def test_levenshtein_search_column_long_needle():
    """Multi-word needles (m > 64): the reference's own search bench shape
    (needle = len/10 = 100 for 1000-char haystacks)."""
    rng = random.Random(13)
    needle = bytes(rng.randrange(97, 123) for _ in range(100))
    texts = []
    for i in range(40):
        L = rng.randrange(0, 400)
        t = bytearray(rng.randrange(97, 123) for _ in range(L))
        if rng.random() < 0.6 and L > 10:
            nd = bytearray(needle)
            for _ in range(rng.randrange(0, 12)):
                nd[rng.randrange(len(nd))] = rng.randrange(97, 123)
            p = rng.randrange(0, L)
            t[p:p] = nd
        texts.append(bytes(t).decode("latin-1"))
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    for st in (SEARCH_ALL, SEARCH_BEST):
        for k in (5, 10):
            out = levenshtein_search_column(t, needle, k, st)
            want = expected(levenshtein_search_naive_with_opts, needle,
                            t["text"].to_pylist(), k, st)
            assert sorted(got_rows(out)) == sorted(want), (st, k)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 128])
def test_levenshtein_search_column_word_boundaries(m, monkeypatch):
    """Needle lengths around one 64-bit word, haystacks shorter and longer
    than the needle, k below and at-or-above m (the position-0 empty
    match), ALL and BEST; once with the default chunking and once with
    chunks of a few rows and a few gathered steps."""
    from triple_accel_ray.kernels import search_batch

    rng = random.Random(100 + m)
    needle = bytes(rng.randrange(97, 100) for _ in range(m))
    texts = []
    for i in range(12):
        L = rng.randrange(0, m) if i % 2 else rng.randrange(m + 1, 2 * m + 40)
        t = bytearray(rng.randrange(97, 100) for _ in range(L))
        if i % 3 == 0 and L > m:
            p = rng.randrange(0, L - m)
            t[p:p + m] = needle
        texts.append(bytes(t).decode())
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    cases = []
    for st in (SEARCH_ALL, SEARCH_BEST):
        for k in sorted({m // 8, m, m + 2}):
            want = expected(levenshtein_search_naive_with_opts, needle,
                            texts, k, st)
            cases.append((st, k, sorted(want)))
    for small in (False, True):
        if small:  # 5 rows a chunk, 2-3 steps a gather
            monkeypatch.setattr(search_batch, "_CHUNK_WORDS",
                                5 * ((m + 63) >> 6))
            monkeypatch.setattr(search_batch, "_GATHER_BYTES", 13)
        for st, k, want in cases:
            out = levenshtein_search_column(t, needle, k, st)
            assert sorted(got_rows(out)) == want, (st, k, small)
