"""Tests for the benchmark's own generator and checks (no Ray, no program).

    python3 -m pytest erbench/test_checks.py -q

Each check must pass the generator's truth and reject an output corrupted
on purpose.
"""

import itertools
import random

import numpy as np
import pytest

import gen
import oracle


@pytest.mark.parametrize("a,b,d", [
    (b"kitten", b"sitting", 3),
    (b"flaw", b"lawn", 2),
    (b"intention", b"execution", 5),
    (b"saturday", b"sunday", 3),
    (b"", b"abc", 3),
    (b"abc", b"", 3),
    (b"", b"", 0),
    (b"abc", b"abc", 0),
    (b"ab", b"ba", 2),
])
def test_dp_hand_vectors(a, b, d):
    assert oracle.levenshtein(a, b) == d


def test_dp_batch_matches_single_and_is_a_metric():
    r = random.Random(5)
    words = [bytes(r.choices(b"abc ", k=r.randint(0, 14))) for _ in range(24)]
    pairs = list(itertools.product(words, repeat=2))
    d = dict(zip(pairs, oracle.levenshtein_many(pairs).tolist()))
    for (a, b), v in list(d.items())[::37]:
        assert oracle.levenshtein(a, b) == v
    for a, b in pairs:
        assert d[a, b] == d[b, a]
        assert (d[a, b] == 0) == (a == b)
        assert abs(len(a) - len(b)) <= d[a, b] <= max(len(a), len(b))
    for a, b, c in itertools.islice(itertools.product(words, repeat=3), 0, None, 7):
        assert d[a, c] <= d[a, b] + d[b, c]


def test_mutation_cost_bounds_distance():
    rng = np.random.default_rng(3)
    for _ in range(40):
        s = gen.rand_text(rng, int(rng.integers(1, 200)))
        t, cost = gen.mutate(rng, s, 0.05)
        assert oracle.levenshtein(s, t) <= cost


def test_generators_are_deterministic():
    a, b = gen.dupes_corpus(9, 30), gen.dupes_corpus(9, 30)
    assert a.transcripts.equals(b.transcripts) and a.entity == b.entity
    assert not a.transcripts.equals(gen.dupes_corpus(10, 30).transcripts)
    g1, g2 = gen.cc_graph(9, 500), gen.cc_graph(9, 500)
    assert all(x.equals(y) for x, y in zip(g1.edge_blocks, g2.edge_blocks))


def test_near_misses_reach_the_dp_and_stay_apart():
    c = gen.templates_corpus(4, 60)
    first = {}
    for cid in sorted(c.entity):
        first.setdefault(c.entity[cid], cid)
    assert c.near_miss_of
    pairs = [(c.docs[first[e]], c.docs[first[s]]) for e, s in c.near_miss_of.items()]
    for a, b in pairs:
        assert sorted(a) == sorted(b)  # same bytes: bag distance 0
    assert (oracle.expected_scores(pairs) == -1).all()


def _truth_clusters(corpus) -> dict:
    least = {}
    for cid, e in corpus.entity.items():
        least[e] = min(least.get(e, cid), cid)
    return {cid: least[e] for cid, e in corpus.entity.items()}


@pytest.fixture(scope="module")
def corpus():
    return gen.dupes_corpus(2, 80)


def test_truth_passes_every_check(corpus):
    cl = _truth_clusters(corpus)
    assert oracle.check_clusters(corpus.docs.keys(), cl, len(cl), corpus) == []
    assert oracle.recall(cl, corpus)[1] > 0


def test_merged_cluster_is_rejected(corpus):
    cl = _truth_clusters(corpus)
    a, b = sorted(set(cl.values()))[:2]
    merged = {cid: (a if v == b else v) for cid, v in cl.items()}
    assert oracle.check_entities(merged, corpus.entity)
    assert oracle.check_clusters(corpus.docs.keys(), merged, len(merged), corpus)


def test_dropped_conv_id_is_rejected(corpus):
    cl = _truth_clusters(corpus)
    dropped = dict(cl)
    dropped.pop(sorted(dropped)[3])
    assert oracle.check_partition(corpus.docs.keys(), dropped, len(dropped))
    assert oracle.check_partition(corpus.docs.keys(), cl, len(cl) + 1)  # duplicate row


def test_non_least_cluster_id_is_rejected(corpus):
    cl = _truth_clusters(corpus)
    big = next(v for v in cl.values() if sum(x == v for x in cl.values()) > 1)
    other = max(cid for cid, v in cl.items() if v == big)
    relabeled = {cid: (other if v == big else v) for cid, v in cl.items()}
    assert oracle.check_partition(corpus.docs.keys(), relabeled, len(relabeled))


def test_split_clusters_fail_recall(corpus):
    alone = {cid: cid for cid in corpus.docs}
    assert oracle.check_recall(alone, corpus)


def test_wrong_dist_is_rejected():
    pairs = [(b"kitten", b"sitting"), (b"abcdefghij" * 3, b"jihgfedcba" * 3)]
    assert oracle.check_scores(pairs, [3, -1]) == []
    assert oracle.check_scores(pairs, [2, -1])
    assert oracle.check_scores(pairs, [3, 18])  # a distance above k must be -1


def test_stale_cc_label_is_rejected():
    g = gen.cc_graph(6, 400, n_blocks=4)
    labels = dict(g.component_min)
    assert oracle.check_components(labels, len(labels), g) == []
    node = next(n for n, m in labels.items() if n != m)
    stale = dict(labels)
    stale[node] = node  # a node that kept its own label
    assert oracle.check_components(stale, len(stale), g)
