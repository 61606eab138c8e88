"""Differential tests: the compiled Myers search path
(``levenshtein_search_simd_with_opts`` at unit costs) must produce the exact
Match lists of the scalar Sellers oracle — All and Best modes, planted
matches, overlapping matches, edge cases — mirroring the reference's
SIMD == scalar bench assertions (rand_benchmarks.rs:45-46, 113-114)."""

import random

import pytest

from triple_accel_ray.kernels import (
    SEARCH_ALL,
    SEARCH_BEST,
    levenshtein_search_simd_with_opts,
)
from triple_accel_ray.kernels.scalar import levenshtein_search_with_opts


def rand_str(rng, n):
    return bytes(rng.randrange(33, 127) for _ in range(n))


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


@pytest.mark.parametrize("hlen", [50, 100, 1000])
@pytest.mark.parametrize("search_type", [SEARCH_ALL, SEARCH_BEST])
def test_matches_scalar_on_planted_corpora(hlen, search_type):
    rng = random.Random(1234 + hlen)
    nlen = max(3, hlen // 10)
    k = max(1, hlen // 100)
    for _ in range(25):
        needle = rand_str(rng, nlen)
        hay = bytearray(rand_str(rng, hlen))
        for _ in range(3):
            pos = rng.randrange(0, hlen - nlen)
            rep = mutate(rng, needle, k)
            hay[pos : pos + min(len(rep), hlen - pos)] = rep[: hlen - pos]
        hay = bytes(hay)
        want = levenshtein_search_with_opts(needle, hay, k, search_type)
        got = levenshtein_search_simd_with_opts(needle, hay, k, search_type)
        assert got == want, (needle, hay, k, search_type)


@pytest.mark.parametrize("search_type", [SEARCH_ALL, SEARCH_BEST])
def test_matches_scalar_small_random(search_type):
    """Dense small cases: many overlapping matches and boundary ties."""
    rng = random.Random(7)
    alphabet = b"ab"
    for _ in range(300):
        m = rng.randrange(1, 6)
        n = rng.randrange(0, 14)
        needle = bytes(rng.choice(alphabet) for _ in range(m))
        hay = bytes(rng.choice(alphabet) for _ in range(n))
        for k in (0, 1, 2, m):
            want = levenshtein_search_with_opts(needle, hay, k, search_type)
            got = levenshtein_search_simd_with_opts(needle, hay, k, search_type)
            assert got == want, (needle, hay, k, search_type)


@pytest.mark.parametrize("search_type", [SEARCH_ALL, SEARCH_BEST])
def test_long_needles_empty_and_short_haystacks(search_type):
    """Needles over 512 bytes, empty haystacks and haystacks shorter than
    the needle (m > n) through the single-haystack API."""
    rng = random.Random(31)
    for m in (513, 700):
        needle = bytes(rng.randrange(97, 100) for _ in range(m))
        hay = bytearray(rng.randrange(97, 100) for _ in range(m + 150))
        hay[60:60] = mutate(rng, needle, 8)
        for h, k in ((bytes(hay), 10), (bytes(hay), 60), (b"", m),
                     (needle[: m - 20], 25), (needle[5:400], m - 300)):
            want = levenshtein_search_with_opts(needle, h, k, search_type)
            got = levenshtein_search_simd_with_opts(needle, h, k, search_type)
            assert got == want, (m, len(h), k)


def test_reference_vectors_through_fast_path():
    from triple_accel_ray.kernels import Match

    assert levenshtein_search_simd_with_opts(
        b"bcc", b"abcde", 1, SEARCH_ALL
    ) == [Match(1, 3, 1), Match(1, 4, 1)]
    assert levenshtein_search_simd_with_opts(
        b"tast", b"testing 123 tating!", 1, SEARCH_ALL
    ) == [Match(0, 4, 1), Match(12, 15, 1)]
    assert levenshtein_search_simd_with_opts(
        b"abc", b"", 5, SEARCH_ALL
    ) == [Match(0, 0, 3)]
