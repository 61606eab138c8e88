"""Correctness checks made apart from the program.

The edit distance here is the textbook unit-cost Levenshtein DP, written
for this benchmark and vectorised with numpy across pairs and along each
row; it shares no code with the program's kernels. Each ``check_*``
function returns a list of problems, empty when the output is correct.

The match rule is the one the pipeline's default configuration states: a
pair matches when its distance is within ``k = clip(ceil(0.15 * max_len),
4, 128)`` and its similarity ``1 - dist / max_len`` is at least 0.85.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

REL_K, MIN_K, MAX_K, MIN_SIM = 0.15, 4, 128, 0.85
MIN_RECALL = 0.99


def pair_k(max_len: int) -> int:
    return int(min(MAX_K, max(MIN_K, math.ceil(REL_K * max_len))))


def must_match(bound: int, max_len: int) -> bool:
    """A pair whose distance is at most ``bound`` surely matches."""
    return bound <= pair_k(max_len) and 1 - bound / max(1, max_len) >= MIN_SIM


def levenshtein_many(pairs) -> np.ndarray:
    """Unit-cost edit distance of every (a, b) bytes pair.

    Row i of the DP is ``D[i][j] = min(D[i-1][j] + 1, D[i-1][j-1] + (a_i !=
    b_j), D[i][j-1] + 1)``. The last term is a running minimum: with
    ``T[j]`` the best of the first two, ``D[i][j] - j = min_{s <= j}(T[s] -
    s)``, so each row is a handful of whole-array numpy operations over all
    pairs at once. Rows past a pair's end and columns past its ``b`` never
    feed its answer, which is read at ``D[len(a)][len(b)]``."""
    n = len(pairs)
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    la = np.array([len(a) for a, _ in pairs])
    lb = np.array([len(b) for _, b in pairs])
    m = int(lb.max())
    A = np.full((n, int(la.max())), 256, dtype=np.int16)
    B = np.full((n, m), 257, dtype=np.int16)
    for p, (a, b) in enumerate(pairs):
        A[p, :len(a)] = np.frombuffer(a, np.uint8)
        B[p, :len(b)] = np.frombuffer(b, np.uint8)
    cols = np.arange(m + 1, dtype=np.int32)
    row = np.broadcast_to(cols, (n, m + 1)).copy()
    rows_p = np.arange(n)
    done = la == 0
    out[done] = lb[done]
    for i in range(1, int(la.max()) + 1):
        cost = (B != A[:, i - 1:i]).astype(np.int32)
        t = np.empty_like(row)
        t[:, 0] = i
        np.minimum(row[:, 1:] + 1, row[:, :-1] + cost, out=t[:, 1:])
        row = np.minimum.accumulate(t - cols, axis=1) + cols
        end = la == i
        out[end] = row[rows_p[end], lb[end]]
    return out


def levenshtein(a: bytes, b: bytes) -> int:
    return int(levenshtein_many([(a, b)])[0])


def expected_scores(pairs) -> np.ndarray:
    """What the scorer's ``dist`` must be: the distance, or -1 above k."""
    d = levenshtein_many(pairs)
    k = np.array([pair_k(max(len(a), len(b))) for a, b in pairs])
    return np.where(d <= k, d, -1)


def check_scores(pairs, dist) -> list:
    """``pairs``: (a, b) bytes; ``dist``: the program's dist per pair."""
    want = expected_scores(pairs)
    got = np.asarray(dist, dtype=np.int64)
    bad = np.nonzero(want != got)[0]
    return [f"pair {i}: dist {got[i]}, expected {want[i]}" for i in bad[:5]] + (
        [f"... {len(bad)} wrong dist values in all"] if len(bad) > 5 else [])


def check_partition(conv_ids, cluster_of: dict, n_rows: int) -> list:
    """Every input conv_id appears exactly once, and each cluster_id is
    the least member id of its cluster."""
    problems = []
    want = set(conv_ids)
    if n_rows != len(cluster_of):
        problems.append(f"{n_rows} cluster rows for {len(cluster_of)} distinct ids")
    missing = want - cluster_of.keys()
    extra = cluster_of.keys() - want
    if missing:
        problems.append(f"{len(missing)} conv_ids missing, e.g. {sorted(missing)[0]}")
    if extra:
        problems.append(f"{len(extra)} unknown conv_ids, e.g. {sorted(extra)[0]}")
    members = defaultdict(list)
    for cid, cl in cluster_of.items():
        members[cl].append(cid)
    for cl, ids in members.items():
        if min(ids) != cl:
            problems.append(f"cluster {cl} has least member {min(ids)}")
            break
    return problems


def check_entities(cluster_of: dict, entity: dict) -> list:
    """No cluster holds conversations of two generated entities."""
    seen = {}
    for cid, cl in cluster_of.items():
        e = entity.get(cid)
        if seen.setdefault(cl, e) != e:
            return [f"cluster {cl} spans entities {seen[cl]} and {e}"]
    return []


def recall(cluster_of: dict, corpus) -> tuple:
    """(recall, base): the share of same-entity pairs that land in one
    cluster, over the pairs the generator's applied edits keep within the
    match threshold (their distance is at most the sum of both copies'
    edit bounds)."""
    by_ent = defaultdict(list)
    for cid, e in corpus.entity.items():
        by_ent[e].append(cid)
    base = hit = 0
    for ids in by_ent.values():
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a, b = ids[i], ids[j]
                ml = max(len(corpus.docs[a]), len(corpus.docs[b]))
                if must_match(corpus.edit_bound[a] + corpus.edit_bound[b], ml):
                    base += 1
                    hit += cluster_of.get(a) == cluster_of.get(b)
    return (hit / base if base else 1.0), base


def check_recall(cluster_of: dict, corpus) -> list:
    r, base = recall(cluster_of, corpus)
    if base == 0:
        return ["no same-entity pair within the match threshold"]
    return [] if r >= MIN_RECALL else [f"recall {r:.4f} < {MIN_RECALL} over {base} pairs"]


def check_clusters(conv_ids, cluster_of: dict, n_rows: int, corpus) -> list:
    return (check_partition(conv_ids, cluster_of, n_rows)
            + check_entities(cluster_of, corpus.entity)
            + check_recall(cluster_of, corpus))


def check_components(label_of: dict, n_rows: int, graph) -> list:
    """Every node's label is the least id of its generated component, and
    there are as many labels as components."""
    problems = check_partition(graph.component_min.keys(), label_of, n_rows)
    wrong = [n for n, lab in label_of.items() if graph.component_min.get(n) != lab]
    if wrong:
        n = wrong[0]
        problems.append(f"{len(wrong)} stale labels, e.g. {n}: {label_of[n]} "
                        f"(component least id {graph.component_min.get(n)})")
    n_labels = len(set(label_of.values()))
    if n_labels != graph.n_components:
        problems.append(f"{n_labels} labels for {graph.n_components} components")
    return problems
