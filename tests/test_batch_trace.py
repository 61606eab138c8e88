"""The compiled general-cost banded DP and its traceback == the scalar
kernel's distances and traces, across cost models and swap orientations
(including the reference's golden trace vectors); the single-pair API
runs it instead of the scalar DP."""

import random

import numpy as np
from hypothesis import example, given, settings, strategies as st

from triple_accel_ray.kernels import (
    Edit,
    levenshtein_simd_k_with_opts,
    rdamerau,
    scalar,
)
from triple_accel_ray.kernels.batch import (
    levenshtein_k_batch,
    levenshtein_k_batch_trace,
)
from triple_accel_ray.kernels.scalar import levenshtein_k_with_opts
from triple_accel_ray.kernels.types import (
    EditCosts,
    LEVENSHTEIN_COSTS,
    RDAMERAU_COSTS,
    U32_MAX,
)


def test_reference_trace_vectors():
    d, tr = levenshtein_k_batch_trace(
        [b"abcde", b"abcde", b"abcde", b"abcde"],
        [b" ab cde", b"", b"abcce", b"acbde"],
        np.array([30, 5, 1, 2]),
        RDAMERAU_COSTS,
    )
    assert d.tolist()[0:3] == [2, 5, 1]
    assert tr[0] == [Edit("a_gap", 1), Edit("match", 2), Edit("a_gap", 1),
                     Edit("match", 3)]
    assert tr[1] == [Edit("b_gap", 5)]
    assert tr[2] == [Edit("match", 3), Edit("mismatch", 1), Edit("match", 1)]
    assert d[3] == 1
    assert tr[3] == [Edit("match", 1), Edit("transpose", 1), Edit("match", 2)]


def test_matches_scalar_random():
    rng = random.Random(77)

    def rand_str(n):
        return bytes(rng.randrange(33, 127) for _ in range(n))

    def mutate(s, k):
        b = bytearray(s)
        for _ in range(rng.randrange(0, k + 1)):
            op = rng.randrange(4)
            if op == 0 and b:
                b[rng.randrange(len(b))] = rng.randrange(33, 127)
            elif op == 1:
                b.insert(rng.randrange(len(b) + 1), rng.randrange(33, 127))
            elif op == 2 and b:
                del b[rng.randrange(len(b))]
            elif len(b) > 1:
                i = rng.randrange(len(b) - 1)
                b[i], b[i + 1] = b[i + 1], b[i]
        return bytes(b)

    for costs in [LEVENSHTEIN_COSTS, RDAMERAU_COSTS, EditCosts(2, 2, 1, 1),
                  EditCosts(1, 1, 2, None)]:
        a_col, b_col, ks = [], [], []
        for _ in range(80):
            a = rand_str(rng.randrange(0, 40))
            b = mutate(a, 6) if rng.random() < 0.8 else rand_str(
                rng.randrange(0, 40)
            )
            a_col.append(a)
            b_col.append(b)
            ks.append(rng.randrange(0, 25))
        d, tr = levenshtein_k_batch_trace(
            a_col, b_col, np.array(ks), costs
        )
        for i, (a, b, k) in enumerate(zip(a_col, b_col, ks)):
            want = levenshtein_k_with_opts(a, b, k, True, costs)
            if want is None:
                assert d[i] == -1 and tr[i] is None
            else:
                assert d[i] == want[0] and tr[i] == want[1], (a, b, k, costs)


_COSTS = [RDAMERAU_COSTS, EditCosts(2, 3, 0, None), EditCosts(3, 1, 2, None),
          EditCosts(2, 2, 1, 1), EditCosts(1, 1, 2, None)]
# raw bytes including 0x00 and 0xFF; lengths at the 64-bit word edges
_BYTES = st.sampled_from([0x00, 0x01, 0x41, 0x61, 0x80, 0xFF])
_LENS = st.one_of(st.sampled_from([0, 1, 63, 64, 65, 300]),
                  st.integers(0, 8), st.integers(0, 300))


@st.composite
def _general_case(draw):
    def text():
        n = draw(_LENS)
        return bytes(draw(st.lists(_BYTES, min_size=n, max_size=n)))

    a = text()
    kind = draw(st.sampled_from(["edit", "swap", "fresh"]))
    b = bytearray(a)
    if kind == "edit":  # a few edits of a, adjacent swaps among them
        for op, pos, ch in draw(st.lists(st.tuples(
                st.integers(0, 3), st.integers(0, 300), _BYTES), max_size=10)):
            if op == 0 and b:
                b[pos % len(b)] = ch
            elif op == 1:
                b.insert(pos % (len(b) + 1), ch)
            elif op == 2 and b:
                del b[pos % len(b)]
            elif len(b) > 1:
                i = pos % (len(b) - 1)
                b[i], b[i + 1] = b[i + 1], b[i]
    elif kind == "swap" and len(b) > 1:  # one transposition, nothing else
        i = draw(st.integers(0, len(b) - 2))
        b[i], b[i + 1] = b[i + 1], b[i]
    elif kind == "fresh":
        b = text()
    b = bytes(b)
    costs = draw(st.sampled_from(_COSTS))
    dist = levenshtein_k_with_opts(a, b, U32_MAX, False, costs)[0]
    gap = abs(len(a) - len(b))
    k = draw(st.sampled_from([0, gap - 1, gap, dist, dist - 1, U32_MAX]))
    return a, b, k, costs, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(case=_general_case())
# a one-cell band whose only cell of row 1 is over k, where row 2's
# transpose from row 0 still finishes within k
@example(case=(b"ab", b"ba", 1, EditCosts(2, 2, 1, 1), False))
def test_native_general_engine_equals_scalar(case):
    """Distance, None boundary and Edit list of the compiled general-cost
    DP, traced and not, against the scalar banded DP."""
    a, b, k, costs, trace_on = case
    want = levenshtein_k_with_opts(a, b, k, trace_on, costs)
    if trace_on:
        d, traces = levenshtein_k_batch_trace([a], [b], k, costs)
        got = None if d[0] < 0 else (d[0], traces[0])
    else:
        d = levenshtein_k_batch([a], [b], k, costs)[0]
        got = None if d < 0 else (d, None)
    assert got == want, (len(a), len(b), k, costs)


def test_single_pair_api_does_not_run_scalar_dp(monkeypatch):
    """rdamerau() and a traced levenshtein_simd_k_with_opts run the
    compiled engine, not scalar.levenshtein_k_with_opts, and still give
    its answers, also for a k past int64."""
    pairs = [(b"abcde", b"acbde"), (b" ab cde", b"abcde"), (b"", b"xyz"),
             ("kitten", "sitting")]
    runs = [(a, b, k, costs) for a, b in pairs for k in (2, 1 << 70)
            for costs in (LEVENSHTEIN_COSTS, RDAMERAU_COSTS)]
    want_rdam = [levenshtein_k_with_opts(a, b, U32_MAX, False, RDAMERAU_COSTS)[0]
                 for a, b in pairs]
    want_trace = [levenshtein_k_with_opts(a, b, k, True, costs)
                  for a, b, k, costs in runs]
    calls = []
    monkeypatch.setattr(scalar, "levenshtein_k_with_opts",
                        lambda *args: calls.append(args))
    assert [rdamerau(a, b) for a, b in pairs] == want_rdam
    assert [levenshtein_simd_k_with_opts(a, b, k, True, costs)
            for a, b, k, costs in runs] == want_trace
    assert calls == []
