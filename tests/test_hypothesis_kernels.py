"""Hypothesis property tests: shrinking random counterexamples for the
kernel equivalences (fast paths == scalar oracle == metric axioms)."""

from hypothesis import given, settings, strategies as st

from triple_accel_ray.kernels import (
    LEVENSHTEIN_COSTS,
    RDAMERAU_COSTS,
    SEARCH_ALL,
    SEARCH_BEST,
    levenshtein_search_simd_with_opts,
    levenshtein_simd_k,
)
from triple_accel_ray.kernels.batch import levenshtein_k_batch
from triple_accel_ray.kernels.scalar import (
    hamming_dist,
    levenshtein_k_with_opts,
    levenshtein_search_with_opts,
    levenshtein_with_opts,
)
from triple_accel_ray.kernels.types import U32_MAX

bytestr = st.binary(max_size=40)
small_k = st.integers(min_value=0, max_value=12)


@settings(max_examples=200, deadline=None)
@given(a=bytestr, b=bytestr)
def test_myers_equals_full_dp(a, b):
    assert levenshtein_simd_k(a, b, U32_MAX) == levenshtein_with_opts(a, b)[0]


@settings(max_examples=200, deadline=None)
@given(a=bytestr, b=bytestr, k=small_k)
def test_banded_boundary_equals_full_dp(a, b, k):
    d = levenshtein_with_opts(a, b)[0]
    res = levenshtein_k_with_opts(a, b, k)
    if d <= k:
        assert res is not None and res[0] == d
    else:
        assert res is None


@settings(max_examples=100, deadline=None)
@given(a=bytestr, b=bytestr, k=small_k)
def test_batch_kernel_equals_scalar(a, b, k):
    got = levenshtein_k_batch([a], [b], k)[0]
    want = levenshtein_k_with_opts(a, b, k)
    assert got == (-1 if want is None else want[0])


@settings(max_examples=150, deadline=None)
@given(
    needle=st.binary(min_size=1, max_size=8),
    hay=st.binary(max_size=30),
    k=st.integers(min_value=0, max_value=4),
    mode=st.sampled_from([SEARCH_ALL, SEARCH_BEST]),
)
def test_search_fast_equals_scalar(needle, hay, k, mode):
    want = levenshtein_search_with_opts(needle, hay, k, mode)
    got = levenshtein_search_simd_with_opts(needle, hay, k, mode)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(a=bytestr, b=bytestr)
def test_metric_axioms(a, b):
    d = levenshtein_with_opts(a, b)[0]
    assert d == levenshtein_with_opts(b, a)[0]  # symmetry
    assert (d == 0) == (a == b)  # identity
    assert d <= max(len(a), len(b))  # upper bound
    if len(a) == len(b):
        assert d <= hamming_dist(a, b)  # hamming dominates


@settings(max_examples=100, deadline=None)
@given(a=bytestr, b=bytestr)
def test_rdamerau_le_levenshtein(a, b):
    lev = levenshtein_with_opts(a, b, False, LEVENSHTEIN_COSTS)[0]
    rdam = levenshtein_with_opts(a, b, False, RDAMERAU_COSTS)[0]
    assert rdam <= lev


# ---- property tests for the round-3 ops (no Ray needed) ----------------

_pii_text = st.text(
    alphabet=st.sampled_from(
        list("abcXYZ0123456789@._%+- \n\t,;:!()ïé") + ["@", ".", "5"]),
    max_size=120,
)


@given(st.lists(_pii_text, min_size=1, max_size=25))
@settings(max_examples=150, deadline=None)
def test_pii_scrub_matches_python_re(texts):
    """pii_scrub_batch (rust regex) == Python `re` on arbitrary text for
    all three patterns AND the sequential redaction."""
    import re

    import pyarrow as pa

    from triple_accel_ray.ops.text import (
        PII_DIGITRUN_RE, PII_EMAIL_RE, PII_IPV4_RE, pii_scrub_batch)

    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    out = pii_scrub_batch(t).to_pydict()

    def redact(s):
        s = re.sub(PII_EMAIL_RE, "<EMAIL>", s)
        s = re.sub(PII_IPV4_RE, "<IP>", s)
        return re.sub(PII_DIGITRUN_RE, "<NUM>", s)

    assert out["n_email"] == [len(re.findall(PII_EMAIL_RE, s)) for s in texts]
    assert out["n_ipv4"] == [len(re.findall(PII_IPV4_RE, s)) for s in texts]
    assert out["n_digitrun"] == [
        len(re.findall(PII_DIGITRUN_RE, s)) for s in texts]
    assert out["text_redacted"] == [redact(s) for s in texts]


@given(
    st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=400),
    st.integers(1, 399),
    st.sampled_from([8, 64, 1024]),
)
@settings(max_examples=100, deadline=None)
def test_cms_properties(vals, split, w):
    """CMS: split-merge == whole; estimates >= true counts for every
    distinct value; total mass per sketch row == len(vals)."""
    import numpy as np
    import pyarrow as pa

    from triple_accel_ray.ops.sketch import cms_estimate, cms_partial

    v = np.array(vals, dtype=np.int64)
    split = min(split, len(v))

    def dense(tbl):
        reg = np.zeros((4, w), dtype=np.int64)
        reg[tbl["row"].to_numpy(), tbl["cell"].to_numpy()] += (
            tbl["cnt"].to_numpy())
        return reg

    whole = dense(cms_partial(v, w=w))
    merged = dense(cms_partial(v[:split], w=w)) + dense(
        cms_partial(v[split:], w=w)) if split < len(v) else dense(
        cms_partial(v[:split], w=w))
    assert (whole == merged).all()
    assert (whole.sum(axis=1) == len(v)).all()

    uniq, true = np.unique(v, return_counts=True)
    nz = np.flatnonzero(whole)
    tbl = pa.table({
        "row": (nz // w).astype(np.int64),
        "cell": (nz % w).astype(np.int64),
        "cnt": whole.ravel()[nz],
    })
    assert (cms_estimate(tbl, uniq, w=w) >= true).all()
