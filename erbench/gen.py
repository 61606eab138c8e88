"""Seeded input generators that record their own ground truth.

Everything here derives from one ``numpy.random.Generator`` per call, so the
same seed gives the same inputs byte for byte. Nothing here imports the
program: the truth recorded with each input (entity of every conversation,
an upper bound on each copy's distance from its entity, component of every
graph node) is what the correctness checks compare the program against.

Texts are printable ASCII (bytes 33..126 with ~15% spaces), so a string's
length in characters equals its length in bytes, the unit the program's
edit distances use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

DOC_JOINER = b"\n"  # how the program joins a conversation's turns into a doc

_COPY_WEIGHTS = [0.35, 0.25, 0.25, 0.15]  # 1..4 copies per entity
_BASE_TS = 1_700_000_000_000_000  # microseconds
TEMPLATE_KEY = 8  # stream of the seed-independent template text


@dataclass
class Corpus:
    """A transcript table plus its truth, keyed by conv_id."""

    transcripts: pa.Table
    entity: dict = field(default_factory=dict)      # conv_id -> entity id
    edit_bound: dict = field(default_factory=dict)  # conv_id -> max dist to canon
    docs: dict = field(default_factory=dict)        # conv_id -> doc bytes
    near_miss_of: dict = field(default_factory=dict)  # entity -> source entity
    template_bytes: int = 0  # doc bytes copied verbatim from shared templates
    mutation_rate: float = 0.0


@dataclass
class Graph:
    """An edge list split into blocks, plus the component of every node."""

    edge_blocks: list      # list of pa.Table(a_id, b_id)
    nodes: pa.Table        # conv_id
    component_min: dict    # node id -> least node id of its component
    n_components: int

    @property
    def n_edges(self) -> int:
        return sum(t.num_rows for t in self.edge_blocks)


def rand_text(rng: np.random.Generator, n: int) -> bytes:
    chars = rng.integers(33, 127, size=n, dtype=np.uint8)
    chars[rng.random(n) < 0.15] = 32
    return chars.tobytes()


def mutate(rng: np.random.Generator, s: bytes, rate: float):
    """Apply ~``rate`` random edits per byte (substitute, insert, delete,
    adjacent transpose). Returns (text, cost): ``cost`` counts a transpose
    as 2 and every other edit as 1, so it bounds the unit-cost edit
    distance between ``s`` and the result from above."""
    b = bytearray(s)
    cost = 0
    for _ in range(int(rng.binomial(max(1, len(b)), rate))):
        op = int(rng.integers(0, 4))
        pos = int(rng.integers(0, len(b))) if b else 0
        if op == 1 or not b:
            b.insert(pos, int(rng.integers(33, 127)))
            cost += 1
        elif op == 0:
            b[pos] = int(rng.integers(33, 127))
            cost += 1
        elif op == 2 and len(b) > 1:
            del b[pos]
            cost += 1
        elif op == 3 and pos + 1 < len(b):
            b[pos], b[pos + 1] = b[pos + 1], b[pos]
            cost += 2
    return bytes(b), cost


def _table(convs, rng) -> pa.Table:
    """convs: list of (conv_id, [(role, text bytes, tool)]) → transcript
    rows in a shuffled order."""
    cols = {k: [] for k in ("conv_id", "turn_idx", "role", "text", "tool", "ts")}
    for cid, turns in convs:
        t0 = _BASE_TS + int(rng.integers(0, 10**9)) * 1000
        for ti, (role, text, tool) in enumerate(turns):
            cols["conv_id"].append(cid)
            cols["turn_idx"].append(ti)
            cols["role"].append(role)
            cols["text"].append(text.decode("ascii"))
            cols["tool"].append(tool)
            cols["ts"].append(t0 + ti * 1_000_000)
    t = pa.table({
        "conv_id": pa.array(cols["conv_id"], pa.string()),
        "turn_idx": pa.array(cols["turn_idx"], pa.int32()),
        "role": pa.array(cols["role"], pa.string()),
        "text": pa.array(cols["text"], pa.string()),
        "tool": pa.array(cols["tool"], pa.string()),
        "ts": pa.array(cols["ts"], pa.timestamp("us")),
    })
    return t.take(pa.array(rng.permutation(t.num_rows)))


def _copy_counts(rng, n: int, weights) -> list:
    """``n`` copy counts (1, 2, ...) in the fixed proportions ``weights``,
    in a seeded order: the corpus size does not depend on the seed."""
    per = np.floor(np.array(weights) * n).astype(int)
    per[0] += n - per.sum()
    return rng.permutation(np.repeat(np.arange(1, len(weights) + 1), per)).tolist()


def _emit(rng, canon: list, n_entities: int, copies: list, rate: float,
          mutate_turn) -> Corpus:
    """Lay out ``copies[e]`` conversations of each entity ``e`` under
    shuffled conv ids. The first copy keeps the canonical turns; later
    copies pass each turn through ``mutate_turn(rng, text, rate)``."""
    ent_of = np.repeat(np.arange(n_entities), copies)
    ent_of = ent_of[rng.permutation(len(ent_of))]
    corpus = Corpus(transcripts=None, mutation_rate=rate)
    seen = set()
    convs = []
    for ci, e in enumerate(ent_of.tolist()):
        cid = f"c{ci:07d}"
        turns, bound = [], 0
        for role, text, tool in canon[e]:
            if e in seen:
                text, c = mutate_turn(rng, text, rate)
                bound += c
            turns.append((role, text, tool))
        seen.add(e)
        convs.append((cid, turns))
        corpus.entity[cid] = e
        corpus.edit_bound[cid] = bound
        corpus.docs[cid] = DOC_JOINER.join(t[1] for t in turns)
    corpus.transcripts = _table(convs, rng)
    return corpus


def dupes_corpus(seed: int, n_entities: int, rate: float = 0.02) -> Corpus:
    """Entities of 2+ random turns (mean 6, ~110 bytes each), 1–4 copies
    each, later copies with ~``rate`` edits per byte. No text is shared
    across entities, so nearly every candidate pair is a true duplicate."""
    rng = np.random.default_rng([seed, 1])
    canon = []
    for _ in range(n_entities):
        turns = []
        cyc = int(rng.integers(0, 2))
        for t in range(max(2, int(rng.poisson(6)))):
            if rng.random() < 0.08:
                role, tool = "tool", ["search", "python", "browser"][int(rng.integers(0, 3))]
            else:
                role, tool = ("user", "assistant")[(t + cyc) % 2], ""
            n = max(8, int(rng.normal(110, 37)))
            turns.append((role, rand_text(rng, n), tool))
        canon.append(turns)
    return _emit(rng, canon, n_entities, _copy_counts(rng, n_entities, _COPY_WEIGHTS),
                 rate, mutate)


def templates_corpus(seed: int, n_entities: int, rate: float = 0.02) -> Corpus:
    """Conversations built around shared text: every entity opens with the
    same 600-byte system prompt and quotes the same 250-byte tool output,
    both verbatim, so 32–50% of each doc is its own text. Docs that share
    the template share most of their MinHash bands, which makes blocks far
    above the hot-block cap and many candidate pairs per doc, nearly all of
    them negatives.

    A quarter of the entities are near misses of another entity: the same
    template, and its own turns reversed. Their bag distance to the source
    is 0, so the scorer's prefilter passes them and only the DP rejects
    them; their edit distance is most of the own-text share of the doc,
    well above the match threshold's 15%.

    Only the own turns of later copies are mutated, so template text stays
    byte-identical across every doc that uses it."""
    # The template text is the same on every seed. Which band blocks
    # exceed the hot-block cap depends mostly on it, and a block near the
    # cap flips between all-pairs and windowed pairing, so a seeded
    # template made the candidate count vary by ±16% from seed to seed.
    # TEMPLATE_KEY picks a template with no band block near the cap (±5%).
    fixed = np.random.default_rng([TEMPLATE_KEY, 2])
    system, tool_out = rand_text(fixed, 600), rand_text(fixed, 250)
    rng = np.random.default_rng([seed, 2])
    n_near = round(n_entities / 4)
    n_orig = n_entities - n_near
    # own-text shares and turn counts are a fixed mix in seeded order, so
    # the corpus size does not depend on the seed
    shares = rng.permutation(np.linspace(0.32, 0.5, n_orig))
    turn_counts = rng.permutation(2 + np.arange(n_orig) % 3)
    canon, own_idx = [], []
    for e in range(n_orig):
        own = int((len(system) + len(tool_out)) * shares[e] / (1 - shares[e]))
        n_own = int(turn_counts[e])
        cuts = np.sort(rng.choice(np.arange(20, own - 20), n_own - 1, replace=False))
        lens = np.diff(np.concatenate([[0], cuts, [own]])).tolist()
        turns = [("system", system, ""), ("user", rand_text(rng, lens[0]), "")]
        own_i = [1]
        for k, n in enumerate(lens[1:]):
            if k == 0:
                turns.append(("tool", tool_out, "search"))
            turns.append((("assistant", "user")[k % 2], rand_text(rng, n), ""))
            own_i.append(len(turns) - 1)
        canon.append(turns)
        own_idx.append(set(own_i))
    # each original gets at most one near miss: two reversals of the same
    # turns would be identical, hence a true duplicate pair
    near = dict(zip(range(n_orig, n_entities),
                    rng.permutation(n_orig)[:n_near].tolist()))
    for e, src in near.items():
        canon.append([(r, t[::-1] if i in own_idx[src] else t, tool)
                      for i, (r, t, tool) in enumerate(canon[src])])
    copies = _copy_counts(rng, n_entities, [0.4, 0.35, 0.25])

    shared = {system, tool_out}
    corpus = _emit(rng, canon, n_entities, copies, rate,
                   lambda r, s, q: (s, 0) if s in shared else mutate(r, s, q))
    corpus.near_miss_of = near
    corpus.template_bytes = sum(
        sum(len(t[1]) for t in canon[corpus.entity[c]] if t[1] in shared)
        for c in corpus.docs
    )
    return corpus


def cc_graph(seed: int, n_nodes: int, n_blocks: int = 48) -> Graph:
    """Components of 4 nodes (the last one may be smaller), each a
    random recursive tree (node i links to a uniformly chosen earlier node,
    so depth grows like the log of the size) plus ~10% extra in-component
    edges. Node ids are assigned in a random order, edges are shuffled and
    cut into ``n_blocks`` blocks, so each component spans many blocks.
    Shallow trees keep every component well inside the engine's 25-round
    budget, and with thousands of them the slowest shape occurs on every
    seed, so the round count does not vary with the seed."""
    size = 4
    rng = np.random.default_rng([seed, 3])
    ids = np.array([f"n{i:07d}" for i in rng.permutation(n_nodes)])
    comp = np.arange(n_nodes) // size
    src, dst = [], []
    for start in range(0, n_nodes, size):
        idx = np.arange(start, min(n_nodes, start + size))
        if len(idx) > 1:
            k = len(idx)
            parent = (rng.random(k - 1) * np.arange(1, k)).astype(np.int64)
            src.append(idx[1:])
            dst.append(idx[parent])
            n_extra = int(rng.binomial(k, 0.1))
            if n_extra:
                src.append(rng.choice(idx, n_extra))
                dst.append(rng.choice(idx, n_extra))
    a = np.concatenate(src)
    b = np.concatenate(dst)
    keep = a != b
    a, b = ids[a[keep]], ids[b[keep]]
    order = rng.permutation(len(a))
    a, b = a[order], b[order]
    cuts = np.linspace(0, len(a), n_blocks + 1).astype(np.int64)
    blocks = [pa.table({"a_id": pa.array(a[lo:hi], pa.string()),
                        "b_id": pa.array(b[lo:hi], pa.string())})
              for lo, hi in zip(cuts[:-1], cuts[1:])]
    least = {}
    for node, cc in zip(ids.tolist(), comp.tolist()):
        if cc not in least or node < least[cc]:
            least[cc] = node
    component_min = {node: least[cc] for node, cc in zip(ids.tolist(), comp.tolist())}
    nodes = pa.table({"conv_id": pa.array(ids[rng.permutation(n_nodes)], pa.string())})
    return Graph(blocks, nodes, component_min, len(least))
