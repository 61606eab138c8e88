"""Batch (columnar, numpy-vectorized) kernels must agree exactly with the
scalar oracle on every row — including the -1/None boundary — across cost
models, lengths, and Arrow input types."""

import random

import numpy as np
import pyarrow as pa
import pytest

from triple_accel_ray.kernels import LEVENSHTEIN_COSTS, RDAMERAU_COSTS, EditCosts
from triple_accel_ray.kernels.batch import (
    hamming_batch,
    levenshtein_batch,
    levenshtein_k_batch,
)
from triple_accel_ray.kernels.scalar import (
    hamming_dist,
    levenshtein_k_with_opts,
    levenshtein_with_opts,
)


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


def test_myers_batch_matches_scalar_mixed():
    from triple_accel_ray.kernels.myers_batch import myers_k_batch

    rng = random.Random(21)
    pairs = []
    for _ in range(300):
        a = rand_str(rng, rng.randrange(0, 300))
        b = mutate(rng, a, 30) if rng.random() < 0.7 else rand_str(
            rng, rng.randrange(0, 300))
        pairs.append((a, b))
    pairs += [(b"", b""), (b"", b"abc"), (b"x" * 200, b""), (b"x" * 65, b"x" * 65)]
    a_col = [p[0] for p in pairs]
    b_col = [p[1] for p in pairs]
    for k in (0, 3, 40, 1 << 30):
        got = myers_k_batch(a_col, b_col, k)
        for i, (a, b) in enumerate(pairs):
            r = levenshtein_k_with_opts(a, b, k)
            want = r[0] if r is not None else -1
            assert got[i] == want, (i, k, got[i], want)


def test_levenshtein_k_batch_myers_tier_dispatch():
    """Unit-cost long strings whose W-groups (W = 7-15 words) are all
    below MYERS_MIN_TIER_PAIRS, so every pair stays on the banded DP;
    results must equal the scalar oracle."""
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
    """One W-group of >= MYERS_MIN_TIER_PAIRS short pairs goes through the
    batched Myers tier, every other width stays on the banded DP, and the
    merged results equal the scalar oracle."""
    from triple_accel_ray.kernels import myers_batch
    from triple_accel_ray.kernels.batch import MYERS_MIN_TIER_PAIRS

    rng = random.Random(23)
    a_col, b_col = [], []
    for _ in range(MYERS_MIN_TIER_PAIRS + 44):
        a = rand_str(rng, rng.randrange(13, 59))  # W = 1 after <= 3 edits
        a_col.append(a)
        b_col.append(mutate(rng, a, 3))
    for _ in range(40):  # W = 2-4, each group far below the gate
        a = rand_str(rng, rng.randrange(100, 250))
        a_col.append(a)
        b_col.append(mutate(rng, a, 10) if rng.random() < 0.7
                     else rand_str(rng, rng.randrange(100, 250)))
    a_col += [b"", b"abc"]
    b_col += [b"", b""]
    w1 = [i for i, (a, b) in enumerate(zip(a_col, b_col))
          if 1 <= min(len(a), len(b)) <= 64]
    assert len(w1) == MYERS_MIN_TIER_PAIRS + 44

    calls = []
    real = myers_batch.myers_k_batch_rows

    def spy(da, oa, db, ob, rows, *args, **kw):
        calls.append(np.sort(rows).tolist())
        return real(da, oa, db, ob, rows, *args, **kw)

    monkeypatch.setattr(myers_batch, "myers_k_batch_rows", spy)
    k = 20
    got = levenshtein_k_batch(a_col, b_col, k)
    assert calls == [w1]
    for i, (a, b) in enumerate(zip(a_col, b_col)):
        r = levenshtein_k_with_opts(a, b, k)
        want = r[0] if r is not None else -1
        assert got[i] == want, i


