"""Differential tests on seeded random inputs, mirroring the reference's
bench-embedded assertions (/root/reference/benches/rand_benchmarks.rs:17-21,
65-67, 88-90, 113-114: SIMD == scalar before timing) and its mutation model
(rand_benchmarks.rs:161-173, 207-238: substitute/insert/delete with k/2..k
edits over printable bytes 33..126).

All fast paths must agree exactly with the scalar full-DP oracle.
"""

import random

import pytest

from triple_accel_ray.kernels import (
    LEVENSHTEIN_COSTS,
    RDAMERAU_COSTS,
    EditCosts,
    levenshtein_naive_k_with_opts,
    levenshtein_naive_with_opts,
    levenshtein_simd_k,
    levenshtein_simd_k_with_opts,
)
from triple_accel_ray.kernels.types import U32_MAX


def rand_str(rng, length):
    return bytes(rng.randrange(33, 127) for _ in range(length))


def mutate(rng, s, k):
    """substitute/insert/delete edits, count in [k//2, k] (rand_benchmarks.rs:207-238)."""
    edits = rng.randrange(max(1, k // 2), k + 1) if k > 0 else 0
    b = bytearray(s)
    for _ in range(edits):
        op = rng.randrange(3)
        if op == 0 and b:  # substitute
            b[rng.randrange(len(b))] = rng.randrange(33, 127)
        elif op == 1:  # insert
            b.insert(rng.randrange(len(b) + 1), rng.randrange(33, 127))
        elif b:  # delete
            del b[rng.randrange(len(b))]
    return bytes(b)


@pytest.mark.parametrize("length", [10, 100, 1000])
def test_myers_and_banded_match_full_dp(length):
    rng = random.Random(1234)
    k = max(1, length // 10)
    for _ in range(20):
        a = rand_str(rng, length)
        b = mutate(rng, a, k)
        want = levenshtein_naive_with_opts(a, b)[0]
        assert levenshtein_simd_k(a, b, U32_MAX) == want
        banded = levenshtein_naive_k_with_opts(a, b, 4 * k + 4)
        assert banded is not None and banded[0] == want
        fast = levenshtein_simd_k_with_opts(a, b, 4 * k + 4)
        assert fast is not None and fast[0] == want


@pytest.mark.parametrize("length", [10, 100])
def test_k_bound_none_boundary(length):
    """Myers path and banded path agree on the Some/None boundary."""
    rng = random.Random(99)
    for _ in range(40):
        a = rand_str(rng, length)
        b = mutate(rng, a, max(1, length // 4))
        d = levenshtein_naive_with_opts(a, b)[0]
        for k in {0, max(0, d - 1), d, d + 1, d + 5}:
            banded = levenshtein_naive_k_with_opts(a, b, k)
            fast = levenshtein_simd_k_with_opts(a, b, k)
            assert (banded is None) == (fast is None), (a, b, k)
            if banded is not None:
                assert banded[0] == fast[0] == d


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
def test_banded_matches_full_dp_with_costs(costs):
    """Banded k-bounded DP == full DP for arbitrary cost models when k is
    large enough, across random mutated pairs."""
    rng = random.Random(4321)
    for _ in range(30):
        n = rng.randrange(0, 60)
        a = rand_str(rng, n)
        b = mutate(rng, a, 8)
        want = levenshtein_naive_with_opts(a, b, False, costs)[0]
        got = levenshtein_naive_k_with_opts(a, b, 10_000, False, costs)
        assert got is not None and got[0] == want, (a, b)
        got_fast = levenshtein_simd_k_with_opts(a, b, 10_000, False, costs)
        assert got_fast is not None and got_fast[0] == want, (a, b)


def test_traceback_cost_consistency():
    """Traceback edits must consume both strings fully, and for linear gap
    costs their summed cost must equal the reported distance. (With affine
    gaps a one-code-per-cell traceback matrix — the reference's own design,
    levenshtein.rs:177-181 — can reconstruct a path that re-opens a gap it
    merged, so only a >= bound holds there.)"""
    rng = random.Random(7)
    for costs in [LEVENSHTEIN_COSTS, RDAMERAU_COSTS, EditCosts(2, 2, 1, 1),
                  EditCosts(1, 1, 2, None)]:
        for _ in range(25):
            a = rand_str(rng, rng.randrange(0, 40))
            b = mutate(rng, a, 6)
            for fn in (
                lambda: levenshtein_naive_with_opts(a, b, True, costs),
                lambda: levenshtein_naive_k_with_opts(a, b, 10_000, True, costs),
            ):
                res = fn()
                if isinstance(res, tuple):
                    d, tr = res
                else:
                    d, tr = res  # pragma: no cover
                cost = 0
                na = nb = 0  # symbols consumed from a and b
                for e in tr:
                    if e.edit == "match":
                        na += e.count
                        nb += e.count
                    elif e.edit == "mismatch":
                        cost += e.count * costs.mismatch_cost
                        na += e.count
                        nb += e.count
                    elif e.edit == "a_gap":
                        cost += e.count * costs.gap_cost + costs.start_gap_cost
                        nb += e.count
                    elif e.edit == "b_gap":
                        cost += e.count * costs.gap_cost + costs.start_gap_cost
                        na += e.count
                    elif e.edit == "transpose":
                        cost += e.count * (costs.transpose_cost or 0)
                        na += e.count * 2
                        nb += e.count * 2
                assert na == len(a) and nb == len(b), (a, b, tr)
                if costs.start_gap_cost == 0:
                    assert cost == d, (a, b, d, cost, tr)
                else:
                    assert cost >= d, (a, b, d, cost, tr)
