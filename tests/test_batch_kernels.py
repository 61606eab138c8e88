"""Batch kernels (the compiled unit-cost Myers and the numpy DP) must agree
exactly with the scalar oracle on every row — including the -1/None
boundary — across cost models, lengths, and Arrow input types; the
compiled kernel's build fails loudly and is shared safely."""

import os
import random
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from triple_accel_ray.kernels import LEVENSHTEIN_COSTS, RDAMERAU_COSTS, EditCosts, native
from triple_accel_ray.kernels.batch import (
    bag_distance_batch,
    hamming_batch,
    levenshtein_batch,
    levenshtein_k_batch,
    to_byte_rows,
)
from triple_accel_ray.kernels.scalar import (
    hamming_dist,
    levenshtein_k_with_opts,
    levenshtein_with_opts,
)


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rand_str(rng, length):
    return bytes(rng.randrange(33, 127) for _ in range(length))


def mutate(rng, s, k):
    b = bytearray(s)
    for _ in range(rng.randrange(0, k + 1)):
        op = rng.randrange(3)
        if op == 0 and b:
            b[rng.randrange(len(b))] = rng.randrange(33, 127)
        elif op == 1:
            b.insert(rng.randrange(len(b) + 1), rng.randrange(33, 127))
        elif b:
            del b[rng.randrange(len(b))]
    return bytes(b)


def make_pairs(rng, n, max_len, k):
    pairs = []
    for _ in range(n):
        a = rand_str(rng, rng.randrange(0, max_len))
        if rng.random() < 0.7:
            b = mutate(rng, a, k)
        else:
            b = rand_str(rng, rng.randrange(0, max_len))
        pairs.append((a, b))
    return pairs


def test_hamming_batch_matches_scalar():
    rng = random.Random(5)
    a_col, b_col = [], []
    for _ in range(200):
        n = rng.randrange(0, 50)
        a = rand_str(rng, n)
        b = bytearray(a)
        for _ in range(rng.randrange(0, 5)):
            if b:
                b[rng.randrange(len(b))] = rng.randrange(33, 127)
        a_col.append(a)
        b_col.append(bytes(b))
    got = hamming_batch(pa.array(a_col, pa.binary()), pa.array(b_col, pa.binary()))
    want = [hamming_dist(x, y) for x, y in zip(a_col, b_col)]
    assert got.tolist() == want


def test_bag_distance_batch_matches_counter():
    """The compiled bag distance equals max(|A - B|, |B - A|) over
    ``collections.Counter`` byte multisets on random, empty and non-ASCII
    rows, from Python lists and from sliced Arrow arrays."""
    from collections import Counter

    rng = random.Random(41)
    a = [b"", b"", b"abc", "héllo wörld".encode(), bytes(range(256)),
         b"\x00\x00\xff"]
    b = [b"", b"xyz", b"", "hello world".encode(), bytes(range(255, -1, -1)),
         b"\x00\xff\xff\xfe"]
    for _ in range(300):
        x = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 90)))
        a.append(x)
        b.append(mutate(rng, x, 20) if rng.random() < 0.5 else
                 bytes(rng.randrange(256) for _ in range(rng.randrange(0, 90))))

    def bag(x, y):
        cx, cy = Counter(x), Counter(y)
        return max(sum((cx - cy).values()), sum((cy - cx).values()))

    want = [bag(x, y) for x, y in zip(a, b)]
    assert bag_distance_batch(a, b).tolist() == want
    pa_a = pa.array(a, pa.binary()).slice(3)
    pa_b = pa.array(b, pa.binary()).slice(3)
    assert bag_distance_batch(pa_a, pa_b).tolist() == want[3:]
    assert bag_distance_batch([], []).tolist() == []


def test_hamming_batch_rejects_unequal():
    with pytest.raises(ValueError):
        hamming_batch(["abc"], ["ab"])


@pytest.mark.parametrize(
    "costs",
    [
        LEVENSHTEIN_COSTS,
        RDAMERAU_COSTS,
        EditCosts(2, 3, 0, None),
        EditCosts(3, 1, 2, None),
        EditCosts(2, 2, 1, 1),
    ],
)
@pytest.mark.parametrize("k", [0, 3, 17])
def test_levenshtein_k_batch_matches_scalar(costs, k):
    rng = random.Random(1234 + k)
    pairs = make_pairs(rng, 150, 40, 6)
    a_col = [a for a, _ in pairs]
    b_col = [b for _, b in pairs]
    got = levenshtein_k_batch(a_col, b_col, k, costs, chunk_pairs=64)
    for i, (a, b) in enumerate(pairs):
        want = levenshtein_k_with_opts(a, b, k, False, costs)
        if want is None:
            assert got[i] == -1, (i, a, b, got[i])
        else:
            assert got[i] == want[0], (i, a, b, got[i], want[0])


def test_levenshtein_k_batch_long_strings():
    rng = random.Random(9)
    a_col, b_col, want = [], [], []
    for _ in range(25):
        a = rand_str(rng, rng.randrange(200, 600))
        b = mutate(rng, a, 20)
        a_col.append(a)
        b_col.append(b)
        r = levenshtein_k_with_opts(a, b, 32)
        want.append(-1 if r is None else r[0])
    got = levenshtein_k_batch(a_col, b_col, 32)
    assert got.tolist() == want


def test_levenshtein_batch_unbounded():
    rng = random.Random(11)
    pairs = make_pairs(rng, 60, 30, 8)
    got = levenshtein_batch([a for a, _ in pairs], [b for _, b in pairs])
    want = [levenshtein_with_opts(a, b)[0] for a, b in pairs]
    assert got.tolist() == want


def test_batch_accepts_arrow_string_and_chunked():
    a = pa.chunked_array([["kitten", "flaw"], ["saturday"]])
    b = pa.array(["sitting", "lawn", "sunday"])
    got = levenshtein_k_batch(a, b, 10)
    assert got.tolist() == [3, 2, 3]


def test_batch_with_arrow_slice_offset():
    """Sliced Arrow arrays (non-zero offset) must be handled zero-copy."""
    a = pa.array(["xxx", "kitten", "flaw"]).slice(1)
    b = pa.array(["sitting", "lawn"])
    got = levenshtein_k_batch(a, b, 10)
    assert got.tolist() == [3, 2]


def test_hamming_batch_empty_rows():
    # trailing empty row must not truncate the preceding row's segment
    assert hamming_batch(["ab", ""], ["aX", ""]).tolist() == [1, 0]
    # interior + leading empties, multiple consecutive
    a = ["", "abc", "", "", "xy", ""]
    b = ["", "abd", "", "", "xz", ""]
    assert hamming_batch(a, b).tolist() == [0, 1, 0, 0, 1, 0]
    # all-empty
    assert hamming_batch(["", ""], ["", ""]).tolist() == [0, 0]


def test_hamming_batch_sliced_arrays():
    parent = pa.array(["ab", "cd", "ef", "gh"], pa.string())
    a = parent.slice(0, 2)  # ["ab", "cd"]
    b = parent.slice(1, 2)  # ["cd", "ef"]
    assert hamming_batch(a, b).tolist() == [2, 2]
    # sliced vs unsliced mix
    c = pa.array(["ab", "cd"], pa.string())
    assert hamming_batch(parent.slice(0, 2), c).tolist() == [0, 0]
    # sliced with empties inside
    p2 = pa.array(["xx", "ab", "", "aY"], pa.string())
    got = hamming_batch(p2.slice(1, 3), pa.array(["ab", "", "aZ"]))
    assert got.tolist() == [0, 0, 1]


def test_levenshtein_batch_sliced_arrays():
    parent = pa.array(["kitten", "sitting", "flaw", "lawn"], pa.string())
    got = levenshtein_batch(parent.slice(0, 2), parent.slice(2, 2))
    assert got.tolist() == [
        levenshtein_with_opts(b"kitten", b"flaw")[0],
        levenshtein_with_opts(b"sitting", b"lawn")[0],
    ]


def test_native_myers_matches_scalar_mixed():
    """The compiled kernel, called on the flat buffers directly, with one
    bound for every pair and with a per-pair bound array."""
    rng = random.Random(21)
    pairs = []
    for _ in range(300):
        a = rand_str(rng, rng.randrange(0, 300))
        b = mutate(rng, a, 30) if rng.random() < 0.7 else rand_str(
            rng, rng.randrange(0, 300))
        pairs.append((a, b))
    pairs += [(b"", b""), (b"", b"abc"), (b"x" * 200, b""), (b"x" * 65, b"x" * 65)]
    # the best alignment starts with insertions (runs along row 0), in
    # pairs whose length gap is the whole bound
    pairs += [(b"ga", b"tgaga"), (b"\xd0", b"X\xd0\xdc$")]
    pairs += [(a, rand_str(rng, 70) + a) for a, _ in pairs[:20]]
    da, oa = to_byte_rows([p[0] for p in pairs])
    db, ob = to_byte_rows([p[1] for p in pairs])
    per_pair = np.array([rng.randrange(0, 60) for _ in pairs])
    gaps = np.array([abs(len(a) - len(b)) for a, b in pairs])
    for k in (0, 3, 40, 1 << 30, per_pair, gaps, gaps + 1):
        got = np.empty(len(pairs), np.int64)
        native.levenshtein_k_unit(da, oa, db, ob, k, got)
        ks = np.broadcast_to(k, len(pairs))
        for i, (a, b) in enumerate(pairs):
            r = levenshtein_k_with_opts(a, b, int(ks[i]))
            want = r[0] if r is not None else -1
            assert got[i] == want, (i, int(ks[i]), got[i], want)


def test_levenshtein_k_batch_myers_tier_dispatch():
    """Unit-cost long strings (W = 7-15 words), which go to the compiled
    kernel; results must equal the scalar oracle."""
    rng = random.Random(22)
    a_col, b_col = [], []
    for _ in range(60):
        a = rand_str(rng, rng.randrange(400, 900))
        b = mutate(rng, a, 80) if rng.random() < 0.7 else rand_str(
            rng, rng.randrange(400, 900))
        a_col.append(a)
        b_col.append(b)
    k = 120
    got = levenshtein_k_batch(a_col, b_col, k)
    for i, (a, b) in enumerate(zip(a_col, b_col)):
        r = levenshtein_k_with_opts(a, b, k)
        want = r[0] if r is not None else -1
        assert got[i] == want, i
def test_levenshtein_k_batch_mixed_tier_split(monkeypatch):
    """Unit costs send the whole column (every width, empty rows and
    length-infeasible pairs alike) to the native kernel in one call; other
    cost models never call it. Both results equal the scalar oracle."""
    rng = random.Random(23)
    a_col, b_col = [], []
    for _ in range(300):
        a = rand_str(rng, rng.randrange(13, 59))  # W = 1 after <= 3 edits
        a_col.append(a)
        b_col.append(mutate(rng, a, 3))
    for _ in range(40):  # W = 2-4
        a = rand_str(rng, rng.randrange(100, 250))
        a_col.append(a)
        b_col.append(mutate(rng, a, 10) if rng.random() < 0.7
                     else rand_str(rng, rng.randrange(100, 250)))
    a_col += [b"", b"abc", b"x" * 90]
    b_col += [b"", b"", b"x"]

    calls = []
    real = native.levenshtein_k_unit

    def spy(da, oa, db, ob, max_k, out):
        calls.append(len(oa) - 1)
        return real(da, oa, db, ob, max_k, out)

    monkeypatch.setattr(native, "levenshtein_k_unit", spy)
    k = 20
    for costs, want_calls in ((LEVENSHTEIN_COSTS, [len(a_col)]),
                              (RDAMERAU_COSTS, [])):
        calls.clear()
        got = levenshtein_k_batch(a_col, b_col, k, costs)
        assert calls == want_calls
        for i, (a, b) in enumerate(zip(a_col, b_col)):
            r = levenshtein_k_with_opts(a, b, k, False, costs)
            want = r[0] if r is not None else -1
            assert got[i] == want, (costs, i)


# raw bytes including 0x00 and 0x80-0xFF; block edges of the 64-bit words
_EDGE_LENS = (0, 1, 2, 63, 64, 65, 127, 128, 129, 300)
_BYTES = st.sampled_from([0x00, 0x01, 0x41, 0x61, 0x7F, 0x80, 0xC3, 0xFF])


@st.composite
def _native_case(draw):
    n_len = st.one_of(st.sampled_from(_EDGE_LENS), st.integers(0, 300))

    def text():
        n = draw(n_len)
        return bytes(draw(st.lists(_BYTES, min_size=n, max_size=n)))

    a = text()
    kind = draw(st.sampled_from(["edit", "cut", "pad", "fresh"]))
    if kind == "edit":
        b = bytearray(a)
        for op, pos, ch in draw(st.lists(st.tuples(
                st.integers(0, 2), st.integers(0, 300), _BYTES), max_size=12)):
            if op == 0 and b:
                b[pos % len(b)] = ch
            elif op == 1:
                b.insert(pos % (len(b) + 1), ch)
            elif b:
                del b[pos % len(b)]
        b = bytes(b)
    elif kind == "cut":  # only a length gap
        b = a[: draw(st.integers(0, len(a)))]
    elif kind == "pad":  # insertions at both ends: alignments along row 0
        b = bytes(draw(st.lists(_BYTES, max_size=70))) + a + bytes(
            draw(st.lists(_BYTES, max_size=70)))
    else:
        b = text()
    gap = abs(len(a) - len(b))
    # from 0 to past the achievable maximum, and a length gap of exactly
    # k or k + 1
    k = draw(st.one_of(st.integers(0, max(len(a), len(b)) + 3),
                       st.sampled_from([gap, max(0, gap - 1)])))
    return (b, a, k) if draw(st.booleans()) else (a, b, k)


@settings(max_examples=300, deadline=None)
@given(cases=st.lists(_native_case(), min_size=1, max_size=4))
def test_native_kernel_equals_scalar(cases):
    a_col = [c[0] for c in cases]
    b_col = [c[1] for c in cases]
    ks = np.array([c[2] for c in cases], np.int64)
    got = np.empty(len(cases), np.int64)
    native.levenshtein_k_unit(*to_byte_rows(a_col), *to_byte_rows(b_col), ks, got)
    for i, (a, b, k) in enumerate(cases):
        r = levenshtein_k_with_opts(a, b, k)
        assert got[i] == (-1 if r is None else r[0]), (i, len(a), len(b), k)


def test_native_missing_compiler_raises(monkeypatch, tmp_path):
    """No compiler: the first kernel call raises, and nothing is cached or
    computed another way."""
    monkeypatch.setattr(native, "GCC", str(tmp_path / "no-such-gcc"))
    monkeypatch.setattr(native, "CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_LIB", None)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no-such-gcc"):
            levenshtein_k_batch([b"kitten"], [b"sitting"], 3)
    assert native._LIB is None
    assert not (tmp_path / "cache").exists()


def test_native_failed_build_raises_with_compiler_stderr(monkeypatch, tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("int lev_k_unit(void) { return }\n")
    monkeypatch.setattr(native, "SOURCE", str(bad))
    monkeypatch.setattr(native, "CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_LIB", None)
    with pytest.raises(RuntimeError, match="error"):
        levenshtein_k_batch([b"kitten"], [b"sitting"], 3)
    assert native._LIB is None
    assert os.listdir(tmp_path / "cache") == []  # no temp or lock left


def test_native_two_processes_build_one_library(tmp_path):
    """Two processes released together into an empty cache dir build under
    the lock, load the same library and leave only that library behind."""
    cache, go = tmp_path / "cache", tmp_path / "go"
    child = f"""
import hashlib, os, sys, time
sys.path.insert(0, {REPO!r})
from triple_accel_ray.kernels import native
from triple_accel_ray.kernels.batch import levenshtein_k_batch
native.CACHE_DIR = {str(cache)!r}
open(os.path.join({str(tmp_path)!r}, "ready-%d" % os.getpid()), "w").close()
while not os.path.exists({str(go)!r}):
    time.sleep(0.002)
d = levenshtein_k_batch([b"kitten"], [b"sitting"], 3)[0]
with open(native._lib()._name, "rb") as f:
    print(native.kernel_hash(), hashlib.sha256(f.read()).hexdigest(), d)
"""
    procs = [subprocess.Popen([sys.executable, "-c", child], text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(2)]
    try:
        deadline = time.monotonic() + 120
        while len(list(tmp_path.glob("ready-*"))) < 2:
            assert time.monotonic() < deadline, "children did not start"
            assert all(p.poll() is None for p in procs), procs[0].stderr.read()
            time.sleep(0.01)
        go.touch()
        outs = [p.communicate(timeout=120) for p in procs]
    finally:
        for p in procs:
            p.kill()
            p.wait()
    assert [p.returncode for p in procs] == [0, 0], [o[1] for o in outs]
    lines = [o[0].split() for o in outs]
    assert lines[0] == lines[1]
    key, _, dist = lines[0]
    assert dist == "3"
    assert os.listdir(cache) == [key + ".so"]
