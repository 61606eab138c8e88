"""Deterministic synthetic transcript corpus (the BASELINE.json input_hint
table) + ground-truth labels for pairwise-F1 evaluation.

Schema (input_hint): conv_id:string, turn_idx:int32, role:string,
text:string, tool:string, ts:timestamp[us].

Generation model (FIXTURES.md §1, mirroring the reference's mutation shape,
/root/reference/benches/rand_benchmarks.rs:207-238): sample E latent
entities; each emits 1..4 conversation copies; each copy's turn texts are
mutated from the entity's canonical turns with substitute/insert/delete
edits over printable bytes 33..126 (plus occasional adjacent
transpositions); conv ids are assigned after a global shuffle so ids don't
encode entities. Everything derives from one numpy Generator seeded by
``seed`` — same inputs, same corpus, bit for bit.
"""

from __future__ import annotations

import hashlib
import os
import re
from typing import Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROLES = ["user", "assistant", "system", "tool"]
TOOLS = ["search", "python", "browser", "calc", "shell", ""]

# ~2.5 copies/entity on average
_COPY_WEIGHTS = np.array([0.35, 0.25, 0.25, 0.15])

FIXTURE_ROOT = "/tmp/ta_ray_fixtures"


def _rand_text(rng: np.random.Generator, length: int) -> bytes:
    """Printable bytes 33..126 with spaces interspersed (word-ish)."""
    chars = rng.integers(33, 127, size=length, dtype=np.uint8)
    # sprinkle spaces to make token-based ops meaningful
    spaces = rng.random(length) < 0.15
    chars[spaces] = 32
    return chars.tobytes()


def _mutate_text(rng: np.random.Generator, s: bytes, rate: float) -> bytes:
    """substitute/insert/delete/transpose edits at ~``rate`` edits/byte."""
    n_edits = int(rng.binomial(max(1, len(s)), rate))
    b = bytearray(s)
    for _ in range(n_edits):
        op = int(rng.integers(0, 4))
        if not b:
            b.append(int(rng.integers(33, 127)))
            continue
        pos = int(rng.integers(0, len(b)))
        if op == 0:  # substitute
            b[pos] = int(rng.integers(33, 127))
        elif op == 1:  # insert
            b.insert(pos, int(rng.integers(33, 127)))
        elif op == 2:  # delete
            del b[pos]
        elif pos + 1 < len(b):  # transpose
            b[pos], b[pos + 1] = b[pos + 1], b[pos]
    return bytes(b)


def generate_transcripts(
    n_entities: int,
    seed: int = 42,
    mutation_rate: float = 0.02,
    mean_turns: int = 6,
    mean_turn_len: int = 110,
) -> Tuple[pa.Table, pa.Table]:
    """Return (transcripts, labels).

    labels: (a_id, b_id, entity_id, is_match) for every same-entity conv
    pair (a_id < b_id) — the positive ground truth for pairwise F1.
    """
    rng = np.random.default_rng(seed)

    conv_entity = []  # entity index per conversation (pre-shuffle)
    canon_turns = []  # per entity: list of (role, text, tool)
    for e in range(n_entities):
        n_turns = max(2, int(rng.poisson(mean_turns)))
        turns = []
        role_cycle = int(rng.integers(0, 2))
        for t in range(n_turns):
            if rng.random() < 0.08:
                role = "tool"
                tool = TOOLS[int(rng.integers(0, len(TOOLS) - 1))]
            else:
                role = ROLES[(t + role_cycle) % 2]
                tool = ""
            length = max(8, int(rng.normal(mean_turn_len, mean_turn_len / 3)))
            turns.append((role, _rand_text(rng, length), tool))
        canon_turns.append(turns)
        n_copies = int(rng.choice([1, 2, 3, 4], p=_COPY_WEIGHTS))
        conv_entity.extend([e] * n_copies)

    conv_entity = np.array(conv_entity, dtype=np.int64)
    order = rng.permutation(len(conv_entity))
    conv_entity = conv_entity[order]
    n_convs = len(conv_entity)
    conv_ids = [f"c{idx:07d}" for idx in range(n_convs)]

    conv_id_col, turn_idx_col, role_col, text_col, tool_col, ts_col = (
        [], [], [], [], [], []
    )
    base_ts = np.int64(1_700_000_000_000_000)  # us epoch
    seen_first = set()
    for ci, ent in enumerate(conv_entity):
        ent = int(ent)
        turns = canon_turns[ent]
        # first copy of an entity keeps canonical text; later copies mutate
        first = ent not in seen_first
        seen_first.add(ent)
        t0 = base_ts + np.int64(rng.integers(0, 10**9)) * 1000
        for ti, (role, text, tool) in enumerate(turns):
            out_text = text if first else _mutate_text(rng, text, mutation_rate)
            conv_id_col.append(conv_ids[ci])
            turn_idx_col.append(ti)
            role_col.append(role)
            text_col.append(out_text.decode("ascii", "replace"))
            tool_col.append(tool)
            ts_col.append(int(t0 + ti * 1_000_000))

    transcripts = pa.table(
        {
            "conv_id": pa.array(conv_id_col, pa.string()),
            "turn_idx": pa.array(turn_idx_col, pa.int32()),
            "role": pa.array(role_col, pa.string()),
            "text": pa.array(text_col, pa.string()),
            "tool": pa.array(tool_col, pa.string()),
            "ts": pa.array(ts_col, pa.timestamp("us")),
        }
    )
    # shuffle rows so no ordering assumption survives
    perm = rng.permutation(transcripts.num_rows)
    transcripts = transcripts.take(pa.array(perm))

    # ground-truth positive pairs
    a_ids, b_ids, ents = [], [], []
    by_entity = {}
    for ci, ent in enumerate(conv_entity):
        by_entity.setdefault(int(ent), []).append(conv_ids[ci])
    for ent, ids in by_entity.items():
        ids.sort()
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a_ids.append(ids[i])
                b_ids.append(ids[j])
                ents.append(ent)
    labels = pa.table(
        {
            "a_id": pa.array(a_ids, pa.string()),
            "b_id": pa.array(b_ids, pa.string()),
            "entity_id": pa.array(ents, pa.int64()),
            "is_match": pa.array([True] * len(a_ids), pa.bool_()),
        }
    )
    return transcripts, labels


def sf_to_entities(sf: float) -> int:
    """Scale factor → latent entity count (sf0.1 ≈ 20k entities ≈ 350k turns)."""
    return max(20, int(round(sf * 200_000)))


def parse_sf(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", os.path.basename(os.path.normpath(sf_dir)))
    return float(m.group(1)) if m else 0.01


def _shard_count(rows: int) -> int:
    return int(min(64, max(8, rows // 8192)))


def _write_sharded(table: pa.Table, dir_path: str) -> None:
    """Write ``table`` as a directory of contiguous-slice part files (row
    order preserved across parts)."""
    tmp = dir_path + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    n = table.num_rows
    k = _shard_count(n)
    for i in range(k):
        lo, hi = n * i // k, n * (i + 1) // k
        pq.write_table(
            table.slice(lo, hi - lo),
            os.path.join(tmp, f"part-{i:05d}.parquet"),
            row_group_size=16384,
        )
    os.replace(tmp, dir_path)


def _generator_digest() -> str:
    with open(__file__, "rb") as f:
        return hashlib.blake2b(f.read(), digest_size=6).hexdigest()


def fixture_dir(sf: float, seed: int = 42) -> str:
    """Cache directory of the (sf, seed) fixture under ``FIXTURE_ROOT``.
    The key includes a digest of this module's source, so a checkout with
    a changed generator never reads a corpus another checkout wrote."""
    return os.path.join(FIXTURE_ROOT, f"sf{sf}_s{seed}_{_generator_digest()}")


def ensure_fixture(sf_dir: str, seed: int = 42) -> Tuple[str, str]:
    """Deterministically materialize the transcript fixture for a testdata
    scale dir; returns (transcripts_path, labels_path), cached under
    :func:`fixture_dir`.

    Scales >= sf0.02 are written as a DIRECTORY of contiguous part files:
    Ray Data parallelizes parquet scans per FILE, so a single file — even
    with many row groups — reads on ONE task and serializes the pipeline
    start (measured: 2.2 s serial read at sf0.4 before any stage ran). A
    100 TB corpus arrives as many files; the fixture mirrors that. Small
    scales stay single-file because the DuckDB oracle SQL references the
    file path directly."""
    sf = parse_sf(sf_dir)
    out_dir = fixture_dir(sf, seed)
    lp = os.path.join(out_dir, "labels.parquet")
    single = os.path.join(out_dir, "transcripts.parquet")
    sharded = os.path.join(out_dir, "transcripts_parts")
    want_shards = sf >= 0.02
    tp = sharded if want_shards else single
    if os.path.exists(lp):
        if not want_shards and os.path.exists(single):
            return single, lp
        if want_shards:
            if os.path.isdir(sharded):
                return sharded, lp
            if os.path.exists(single):
                # upgrade in place: same rows, same order, just sharded
                _write_sharded(pq.read_table(single), sharded)
                return sharded, lp
    os.makedirs(out_dir, exist_ok=True)
    transcripts, labels = generate_transcripts(sf_to_entities(sf), seed)
    tmp_l = lp + ".tmp"
    pq.write_table(labels, tmp_l)
    if want_shards:
        _write_sharded(transcripts, sharded)
    else:
        pq.write_table(transcripts, single + ".tmp", row_group_size=16384)
        os.replace(single + ".tmp", single)
    os.replace(tmp_l, lp)
    return tp, lp


def _footers(tp: str) -> list:
    files = (
        [os.path.join(tp, f) for f in os.listdir(tp) if f.endswith(".parquet")]
        if os.path.isdir(tp) else [tp]
    )
    return [pq.read_metadata(f) for f in files]


def count_rows(tp: str) -> int:
    """Row count from parquet footers for a fixture path (file or sharded
    directory)."""
    return sum(m.num_rows for m in _footers(tp))


def uncompressed_bytes(tp: str) -> int:
    """Uncompressed data size from parquet footers (file or sharded
    directory): a corpus size that needs no pass over the data."""
    return sum(
        m.row_group(i).total_byte_size
        for m in _footers(tp) for i in range(m.num_row_groups)
    )
