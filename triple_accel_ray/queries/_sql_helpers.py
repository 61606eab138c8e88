"""Shared SQL-oracle machinery: mix64/mulmod HUGEINT chains, the
unrolled k-means/IVF/PQ/BPE oracle generators, and the ER fixture
CTEs every er_*/graph oracle composes."""
from ._common import *  # noqa: F401,F403



# ---------------------------------------------------------- oracle_sql()

# HUGEINT mod-2^64 arithmetic helpers for hash oracles: DuckDB UBIGINT
# multiplication raises on overflow, so products are computed in HUGEINT
# via a 32-bit split — (a*b) mod 2^64 = (a_lo*b + ((a_hi*b) mod 2^32)<<32)
# mod 2^64 — keeping every intermediate under 2^96 < hugeint max.
_P32, _P64 = 1 << 32, 1 << 64
_MIX_M1, _MIX_M2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53
_XS33 = "CAST(xor(CAST(h AS UBIGINT), CAST(h AS UBIGINT) >> 33) AS HUGEINT)"


def _mulmod_sql(m: int) -> str:
    return (
        f"((h % {_P32}) * {m}::HUGEINT + "
        f"((h // {_P32}) * {m}::HUGEINT % {_P32}) * {_P32}) % {_P64}::HUGEINT"
    )


# The minhash pair definition in SQL — grams/cnt/inter/prs CTEs shared by
# the dedup_minhash_pairs and dedup_minhash_survivors oracles so the gram
# size (5), Jaccard threshold (0.5) and VARCHAR id ordering can never
# diverge between them.
_MINHASH_PAIR_CTES = """grams AS (
  SELECT DISTINCT doc_id, substr(text, s + 1, 5) AS g
  FROM (SELECT doc_id, text, unnest(range(0, greatest(0, strlen(text) - 4))) AS s
        FROM documents)
),
cnt AS (SELECT doc_id, count(*)::BIGINT AS n FROM grams GROUP BY doc_id),
inter AS (
  SELECT ga.doc_id AS a_id, gb.doc_id AS b_id, count(*)::BIGINT AS i
  FROM grams ga JOIN grams gb ON gb.g = ga.g
   AND ga.doc_id::VARCHAR < gb.doc_id::VARCHAR
  GROUP BY 1, 2
),
prs AS (
  SELECT i.a_id::VARCHAR AS a_id, i.b_id::VARCHAR AS b_id,
         CAST(i.i AS DOUBLE) / (ca.n + cb.n - i.i) AS jaccard
  FROM inter i
  JOIN cnt ca ON ca.doc_id = i.a_id
  JOIN cnt cb ON cb.doc_id = i.b_id
  WHERE CAST(i.i AS DOUBLE) / (ca.n + cb.n - i.i) >= 0.5
)"""


def _kmeans_oracle(k: int, n_iter: int, quant_scale: int, seed: int) -> str:
    """Unrolled integer Lloyd's k-means twin of ops/similarity.kmeans_int:
    quantize -> seeded mix64-rank init -> n_iter x (integer-argmin assign,
    floor-div centroid update). Every quantity BIGINT; ties on distance
    resolve to the smallest cluster index on both engines; floor division
    uses the divisible-numerator identity (DuckDB ``//`` truncates)."""
    salt = (seed * 0x9E3779B97F4A7C15) % 2**64
    chain, last = _mix64_chain_sql("h0", "vec_id", "km")
    parts = [f"""pts AS (
  SELECT vec_id,
         CAST(floor(CAST(v AS DOUBLE) * {float(quant_scale)} + 0.5) AS BIGINT) AS q,
         dim
  FROM (SELECT t.vec_id::BIGINT AS vec_id, unnest(t.embedding) AS v,
               unnest(range(1, len(t.embedding) + 1)) AS dim
        FROM embeddings t)
),
h0 AS (SELECT vec_id::BIGINT AS vec_id,
              CAST(xor(CAST(vec_id AS UBIGINT), {salt}::UBIGINT) AS HUGEINT) AS h
       FROM embeddings),
{chain},
sel AS (SELECT vec_id, row_number() OVER (ORDER BY h, vec_id) - 1 AS cluster
        FROM {last} ORDER BY h, vec_id LIMIT {k}),
c0 AS (SELECT s.cluster, p.dim, p.q AS val
       FROM sel s JOIN pts p USING (vec_id))"""]
    for i in range(1, n_iter + 1):
        parts.append(f"""a{i} AS (
  SELECT p.vec_id, c.cluster,
         sum((p.q - c.val) * (p.q - c.val))::BIGINT AS d2
  FROM pts p JOIN c{i - 1} c ON c.dim = p.dim GROUP BY 1, 2),
asn{i} AS (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           row_number() OVER (PARTITION BY vec_id
                              ORDER BY d2, cluster) AS rn
    FROM a{i}) WHERE rn = 1),
agg{i} AS (
  SELECT a.cluster, p.dim, sum(p.q)::BIGINT AS s, count(*)::BIGINT AS n
  FROM asn{i} a JOIN pts p USING (vec_id) GROUP BY 1, 2),
c{i} AS (
  SELECT pc.cluster, pc.dim,
         CASE WHEN g.n IS NULL THEN pc.val
              ELSE (g.s - (((g.s % g.n) + g.n) % g.n)) // g.n END AS val
  FROM c{i - 1} pc LEFT JOIN agg{i} g
    ON g.cluster = pc.cluster AND g.dim = pc.dim)""")
    parts.append(f"""af AS (
  SELECT p.vec_id, c.cluster,
         sum((p.q - c.val) * (p.q - c.val))::BIGINT AS d2
  FROM pts p JOIN c{n_iter} c ON c.dim = p.dim GROUP BY 1, 2)""")
    return ("WITH " + ",\n".join(parts) + f"""
SELECT vec_id, cluster::BIGINT AS cluster FROM (
  SELECT vec_id, cluster,
         row_number() OVER (PARTITION BY vec_id ORDER BY d2, cluster) AS rn
  FROM af) WHERE rn = 1""")


def _ivf_oracle(n_centroids: int, nprobe: int, n_iter: int,
                quant_scale: int, seed: int, k: int, nq: int,
                raw_sql: str) -> str:
    """Unrolled integer IVF twin of ops/similarity.knn_ivf_int: the
    _kmeans_oracle centroid unroll (seeded mix64-rank init, integer-
    argmin assign with ties → smallest cluster, floor-div update, empty
    cluster keeps its centroid), then cell assignment for every vector,
    nprobe nearest cells per query (ties → smallest cluster), and exact
    int64 squared-L2 top-k restricted to probed cells (ties →
    neighbor_id ascending, self excluded)."""
    salt = (seed * 0x9E3779B97F4A7C15) % 2**64
    chain, last = _mix64_chain_sql("h0", "vec_id", "km")
    parts = [f"""{raw_sql},
pts AS (
  SELECT vec_id,
         CAST(floor(CAST(v AS DOUBLE) * {float(quant_scale)} + 0.5) AS BIGINT) AS q,
         dim
  FROM raw),
h0 AS (SELECT vec_id::BIGINT AS vec_id,
              CAST(xor(CAST(vec_id AS UBIGINT), {salt}::UBIGINT) AS HUGEINT) AS h
       FROM embeddings),
{chain},
sel AS (SELECT vec_id, row_number() OVER (ORDER BY h, vec_id) - 1 AS cluster
        FROM {last} ORDER BY h, vec_id LIMIT {n_centroids}),
c0 AS (SELECT s.cluster, p.dim, p.q AS val
       FROM sel s JOIN pts p USING (vec_id))"""]
    for i in range(1, n_iter + 1):
        parts.append(f"""a{i} AS (
  SELECT p.vec_id, c.cluster,
         sum((p.q - c.val) * (p.q - c.val))::BIGINT AS d2
  FROM pts p JOIN c{i - 1} c ON c.dim = p.dim GROUP BY 1, 2),
asn{i} AS (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           row_number() OVER (PARTITION BY vec_id
                              ORDER BY d2, cluster) AS rn
    FROM a{i}) WHERE rn = 1),
agg{i} AS (
  SELECT a.cluster, p.dim, sum(p.q)::BIGINT AS s, count(*)::BIGINT AS n
  FROM asn{i} a JOIN pts p USING (vec_id) GROUP BY 1, 2),
c{i} AS (
  SELECT pc.cluster, pc.dim,
         CASE WHEN g.n IS NULL THEN pc.val
              ELSE (g.s - (((g.s % g.n) + g.n) % g.n)) // g.n END AS val
  FROM c{i - 1} pc LEFT JOIN agg{i} g
    ON g.cluster = pc.cluster AND g.dim = pc.dim)""")
    parts.append(f"""af AS (
  SELECT p.vec_id, c.cluster,
         sum((p.q - c.val) * (p.q - c.val))::BIGINT AS d2
  FROM pts p JOIN c{n_iter} c ON c.dim = p.dim GROUP BY 1, 2),
cell AS (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           row_number() OVER (PARTITION BY vec_id ORDER BY d2, cluster) AS rn
    FROM af) WHERE rn = 1),
qs AS (SELECT vec_id::BIGINT AS vec_id FROM embeddings
       ORDER BY vec_id LIMIT {nq}),
probe AS (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           row_number() OVER (PARTITION BY vec_id ORDER BY d2, cluster) AS rn
    FROM af WHERE vec_id IN (SELECT vec_id FROM qs)) WHERE rn <= {nprobe}),
dist AS (
  SELECT pr.vec_id AS query_id, c.vec_id AS neighbor_id,
         sum((pq2.q - pc.q) * (pq2.q - pc.q))::BIGINT AS l2_dist
  FROM probe pr
  JOIN cell c ON c.cluster = pr.cluster AND c.vec_id != pr.vec_id
  JOIN pts pq2 ON pq2.vec_id = pr.vec_id
  JOIN pts pc ON pc.vec_id = c.vec_id AND pc.dim = pq2.dim
  GROUP BY 1, 2)""")
    return ("WITH " + ",\n".join(parts) + f"""
SELECT query_id, neighbor_id, l2_dist, rank::BIGINT AS rank FROM (
  SELECT query_id, neighbor_id, l2_dist,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY l2_dist, neighbor_id) AS rank
  FROM dist) WHERE rank <= {k}""")


def _pq_oracle(n_sub: int, ksub: int, n_iter: int, quant_scale: int,
               seed: int, k: int, nq: int, raw_sql: str | None = None) -> str:
    """Unrolled integer product-quantization twin of ops/similarity.knn_pq:
    quantize -> seeded mix64-rank codebook init -> n_iter x per-subspace
    (integer-argmin assign, floor-div update, empty code keeps previous)
    -> encode -> exact-integer ADC top-k. Ties on distance resolve to the
    smallest code / neighbor_id on both engines; floor division uses the
    divisible-numerator identity (DuckDB ``//`` truncates). The final
    assignment CTE ``af`` doubles as the per-query ADC lookup table."""
    salt = (seed * 0x9E3779B97F4A7C15) % 2**64
    chain, last = _mix64_chain_sql("h0", "vec_id", "pq")
    if raw_sql is None:
        raw_sql = """raw AS (
  SELECT t.vec_id::BIGINT AS vec_id, unnest(t.embedding) AS v,
         unnest(range(1, len(t.embedding) + 1)) AS dim
  FROM embeddings t)"""
    parts = [f"""{raw_sql},
dm AS (SELECT (max(dim) // {n_sub})::BIGINT AS dsub FROM raw),
pts AS (
  SELECT vec_id,
         CAST(floor(CAST(v AS DOUBLE) * {float(quant_scale)} + 0.5) AS BIGINT) AS q,
         dim, ((dim - 1) // (SELECT dsub FROM dm))::BIGINT AS sub
  FROM raw),
h0 AS (SELECT vec_id::BIGINT AS vec_id,
              CAST(xor(CAST(vec_id AS UBIGINT), {salt}::UBIGINT) AS HUGEINT) AS h
       FROM embeddings),
{chain},
sel AS (SELECT vec_id, row_number() OVER (ORDER BY h, vec_id) - 1 AS code
        FROM {last} ORDER BY h, vec_id LIMIT {ksub}),
c0 AS (SELECT s.code, p.sub, p.dim, p.q AS val
       FROM sel s JOIN pts p USING (vec_id))"""]
    for i in range(1, n_iter + 1):
        parts.append(f"""a{i} AS (
  SELECT p.vec_id, p.sub, c.code,
         sum((p.q - c.val) * (p.q - c.val))::BIGINT AS d2
  FROM pts p JOIN c{i - 1} c ON c.dim = p.dim GROUP BY 1, 2, 3),
asn{i} AS (
  SELECT vec_id, sub, code FROM (
    SELECT vec_id, sub, code,
           row_number() OVER (PARTITION BY vec_id, sub
                              ORDER BY d2, code) AS rn
    FROM a{i}) WHERE rn = 1),
agg{i} AS (
  SELECT a.sub, a.code, p.dim, sum(p.q)::BIGINT AS s, count(*)::BIGINT AS n
  FROM asn{i} a JOIN pts p ON p.vec_id = a.vec_id AND p.sub = a.sub
  GROUP BY 1, 2, 3),
c{i} AS (
  SELECT pc.code, pc.sub, pc.dim,
         CASE WHEN g.n IS NULL THEN pc.val
              ELSE (g.s - (((g.s % g.n) + g.n) % g.n)) // g.n END AS val
  FROM c{i - 1} pc LEFT JOIN agg{i} g
    ON g.sub = pc.sub AND g.code = pc.code AND g.dim = pc.dim)""")
    parts.append(f"""af AS (
  SELECT p.vec_id, p.sub, c.code,
         sum((p.q - c.val) * (p.q - c.val))::BIGINT AS d2
  FROM pts p JOIN c{n_iter} c ON c.dim = p.dim GROUP BY 1, 2, 3),
enc AS (
  SELECT vec_id, sub, code FROM (
    SELECT vec_id, sub, code,
           row_number() OVER (PARTITION BY vec_id, sub
                              ORDER BY d2, code) AS rn
    FROM af) WHERE rn = 1),
qs AS (SELECT vec_id::BIGINT AS vec_id FROM embeddings
       ORDER BY vec_id LIMIT {nq}),
dist AS (
  SELECT l.vec_id AS query_id, e.vec_id AS neighbor_id,
         sum(l.d2)::BIGINT AS pq_dist
  FROM enc e JOIN af l ON l.sub = e.sub AND l.code = e.code
  WHERE l.vec_id IN (SELECT vec_id FROM qs) AND e.vec_id != l.vec_id
  GROUP BY 1, 2)""")
    return ("WITH " + ",\n".join(parts) + f"""
SELECT query_id, neighbor_id, pq_dist, rank::BIGINT AS rank FROM (
  SELECT query_id, neighbor_id, pq_dist,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY pq_dist, neighbor_id) AS rank
  FROM dist) WHERE rank <= {k}""")


def _clustered_raw_sql() -> str:
    """SQL twin of ``_clustered_vectors``: the planted-cluster embedding
    fixture synthesized from vec_id alone (cluster centroid + noise, two
    mix64 chains), emitted in the (vec_id, v, dim) long form `_pq_oracle`
    consumes. dim is 1-based to match the default raw CTE."""
    ka_sql, ka_f = _mix64_chain_sql("ka0", "vec_id, t", "ka")
    kb_sql, kb_f = _mix64_chain_sql("kb0", "vec_id, t", "kb")
    return f"""clb AS (
  SELECT e.vec_id::BIGINT AS vec_id, d.t
  FROM embeddings e
  CROSS JOIN (SELECT unnest(range(0, {CLUST_DIM})) AS t) d),
ka0 AS (
  SELECT vec_id, t,
         CAST(xor(CAST((vec_id // {CLUST_SIZE}) * {CLUST_DIM} + t AS UBIGINT),
                  {CLUST_SALT_A}::UBIGINT) AS HUGEINT) AS h
  FROM clb),
{ka_sql},
kb0 AS (
  SELECT vec_id, t,
         CAST(xor(CAST(vec_id * {CLUST_DIM} + t AS UBIGINT),
                  {CLUST_SALT_B}::UBIGINT) AS HUGEINT) AS h
  FROM clb),
{kb_sql},
raw AS (
  SELECT a.vec_id,
         CAST((a.h % 2001) - 1000 + (b.h % 41) - 20 AS DOUBLE) AS v,
         (a.t + 1)::BIGINT AS dim
  FROM {ka_f} a JOIN {kb_f} b ON a.vec_id = b.vec_id AND a.t = b.t)"""


def _bpe_oracle(n_merges: int = 6) -> str:
    """Unrolled SQL twin of ops/text.bpe_train_merges: word-frequency
    table, then per round adjacent-pair counts over symbol sequences,
    argmax by (count DESC, pair ASC), and merge-everywhere via
    replace(). Symbol encoding mirrors the engine: every symbol is
    wrapped in its own chr(31) pair (``S a S S b S …``), so merging
    (x, y) is the boundary-anchored literal replace ``SxSSyS → SxyS``
    — a match needs x and y as COMPLETE adjacent symbols, and one
    leftmost non-overlapping pass equals classic BPE's greedy list
    scan. DuckDB's replace, python str.replace and polars literal
    replace_all all share those semantics, so the merge tables are
    value-exact. chr(30) is the never-occurring no-op pattern guarding
    rounds where no pair exists."""
    parts = [r"""words AS (
  SELECT w AS word, count(*)::BIGINT AS freq FROM (
    SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
    FROM documents)
  WHERE w <> '' GROUP BY 1),
seq0 AS (
  SELECT word, freq,
         regexp_replace(word, '(.)', chr(31) || '\1' || chr(31), 'g')
           AS seq
  FROM words)"""]
    for r in range(n_merges):
        parts.append(f"""p{r} AS (
  SELECT l[i] AS ml, l[i + 1] AS mr, sum(freq)::BIGINT AS c
  FROM (SELECT freq, l, unnest(range(1, len(l))) AS i
        FROM (SELECT freq,
                     string_split(trim(seq, chr(31)), chr(31) || chr(31))
                       AS l
              FROM seq{r}))
  GROUP BY 1, 2),
m{r} AS (SELECT ml, mr, c FROM p{r} ORDER BY c DESC, ml, mr LIMIT 1),
seq{r + 1} AS (
  SELECT word, freq,
         replace(seq,
                 coalesce((SELECT chr(31) || ml || chr(31) || chr(31)
                                  || mr || chr(31) FROM m{r}), chr(30)),
                 coalesce((SELECT chr(31) || ml || mr || chr(31)
                           FROM m{r}), chr(30))) AS seq
  FROM seq{r})""")
    unions = "\nUNION ALL\n".join(
        f"SELECT {r + 1}::BIGINT AS round, ml AS merge_left, "
        f"mr AS merge_right, c AS pair_count FROM m{r}"
        for r in range(n_merges))
    return "WITH " + ",\n".join(parts) + "\n" + unions


def _bpe_encode_oracle(n_merges: int = 6) -> str:
    """SQL twin of ops/text.bpe_encode_token_counts: replay the
    _bpe_oracle training unroll, then split the FINAL symbolization
    (``seq{n}``) into tokens and aggregate corpus frequencies — the
    token histogram of the encoded corpus."""
    train = _bpe_oracle(n_merges)
    # reuse the training CTE chain verbatim; swap the merge-table tail
    # (the UNION ALL over m0..m{n-1}) for the token split over seq{n}
    head = train[:train.index("\nSELECT 1::BIGINT AS round")]
    return head + f"""
SELECT t AS token, sum(freq)::BIGINT AS n_total
FROM (SELECT freq,
             unnest(string_split(trim(seq, chr(31)),
                                 chr(31) || chr(31))) AS t
      FROM seq{n_merges})
WHERE t <> '' GROUP BY 1"""


def _gram_novelty_oracle(gram: int = 8) -> str:
    """SQL twin of ops/text.gram_novelty: the same mod-2^64 polynomial
    gram hash as the fingerprints oracle (documents are ASCII, so
    ascii(substr()) equals the UTF-8 byte), then min-doc attribution and
    per-doc integer per-mille."""
    coef = 0x9E3779B97F4A7C15
    pw = [pow(coef, j, _P64) for j in range(gram)]
    pw_case = " ".join(f"WHEN {kk} THEN {pw[gram - 1 - kk]}"
                       for kk in range(gram))
    return f"""
WITH chars AS (
  SELECT doc_id, strlen(text) AS len, s AS pos,
         ascii(substr(text, s+1, 1))::HUGEINT AS byte
  FROM (SELECT doc_id, text, unnest(range(0, strlen(text))) AS s
        FROM documents)
),
gcontrib AS (
  SELECT doc_id, pos - kk AS w,
         (byte * (CASE kk {pw_case} END)::HUGEINT) % {_P64}::HUGEINT
           AS contrib
  FROM (SELECT doc_id, len, pos, byte, unnest(range(0, {gram})) AS kk
        FROM chars)
  WHERE pos - kk >= 0 AND pos - kk <= len - {gram}
),
graw AS (SELECT doc_id, w, sum(contrib) % {_P64}::HUGEINT AS h
         FROM gcontrib GROUP BY doc_id, w),
grams AS (SELECT DISTINCT doc_id, h FROM graw),
firstd AS (SELECT h, min(doc_id) AS fd FROM grams GROUP BY h),
pd AS (
  SELECT g.doc_id, count(*)::BIGINT AS n_grams,
         count(*) FILTER (WHERE f.fd = g.doc_id)::BIGINT AS novel
  FROM grams g JOIN firstd f USING (h) GROUP BY 1)
SELECT d.doc_id,
       coalesce(pd.n_grams, 0)::BIGINT AS n_grams,
       coalesce(pd.novel, 0)::BIGINT AS novel_grams,
       CASE WHEN coalesce(pd.n_grams, 0) > 0
            THEN (1000 * pd.novel) // pd.n_grams
            ELSE 0 END::BIGINT AS novelty_permille
FROM documents d LEFT JOIN pd USING (doc_id)"""


def _mix64_chain_sql(src: str, id_cols: str, prefix: str) -> tuple:
    """splitmix64 finalizer as 5 chained CTEs over column ``h``; returns
    (sql fragment, final CTE name). Matches kernels.vhash/_mix64 exactly."""
    steps = [
        f"{prefix}1 AS (SELECT {id_cols}, {_XS33} AS h FROM {src})",
        f"{prefix}2 AS (SELECT {id_cols}, {_mulmod_sql(_MIX_M1)} AS h FROM {prefix}1)",
        f"{prefix}3 AS (SELECT {id_cols}, {_XS33} AS h FROM {prefix}2)",
        f"{prefix}4 AS (SELECT {id_cols}, {_mulmod_sql(_MIX_M2)} AS h FROM {prefix}3)",
        f"{prefix}5 AS (SELECT {id_cols}, {_XS33} AS h FROM {prefix}4)",
    ]
    return ",\n".join(steps), f"{prefix}5"


def _fingerprints_oracle() -> str:
    """SQL twin of ops.text.fingerprint_batch (gram=8, POLY_COEF, seed=0):
    documents are ASCII so ascii(substr()) equals the UTF-8 byte."""
    coef = 0x9E3779B97F4A7C15
    pw = [pow(coef, j, _P64) for j in range(8)]
    pw_case = " ".join(f"WHEN {kk} THEN {pw[7 - kk]}" for kk in range(8))
    lm_sql, lm_f = _mix64_chain_sql("lm0", "doc_id", "lm")
    cm_sql, cm_f = _mix64_chain_sql("cx", "doc_id", "cm")
    gm_sql, gm_f = _mix64_chain_sql("graw", "doc_id, w", "gm")
    return f"""
WITH RECURSIVE
chars AS (
  SELECT doc_id, strlen(text) AS len, s AS pos,
         ascii(substr(text, s+1, 1))::HUGEINT AS byte
  FROM (SELECT doc_id, text, unnest(range(0, strlen(text))) AS s FROM documents)
),
maxl AS (SELECT coalesce(max(strlen(text)), 1) AS m FROM documents),
powers(e, p) AS (
  SELECT 0::BIGINT, 1::HUGEINT
  UNION ALL
  SELECT e + 1, {_mulmod_sql(coef).replace('h %', 'p %').replace('(h //', '(p //')}
  FROM powers WHERE e < (SELECT m FROM maxl)
),
lm0 AS (SELECT doc_id, strlen(text)::HUGEINT AS h FROM documents),
{lm_sql},
craw AS (
  SELECT c.doc_id, sum((c.byte * p.p) % {_P64}::HUGEINT) % {_P64}::HUGEINT AS h
  FROM chars c JOIN powers p ON p.e = c.len - 1 - c.pos
  GROUP BY c.doc_id
),
craw2 AS (
  SELECT d.doc_id, coalesce(cr.h, 0::HUGEINT) AS h
  FROM documents d LEFT JOIN craw cr ON cr.doc_id = d.doc_id
),
cx AS (
  SELECT a.doc_id,
         CAST(xor(CAST(a.h AS UBIGINT), CAST(b.h AS UBIGINT)) AS HUGEINT) AS h
  FROM craw2 a JOIN {lm_f} b ON a.doc_id = b.doc_id
),
{cm_sql},
gcontrib AS (
  SELECT doc_id, pos - kk AS w,
         (byte * (CASE kk {pw_case} END)::HUGEINT) % {_P64}::HUGEINT AS contrib
  FROM (SELECT doc_id, len, pos, byte, unnest(range(0, 8)) AS kk FROM chars)
  WHERE pos - kk >= 0 AND pos - kk <= len - 8
),
graw AS (SELECT doc_id, w, sum(contrib) % {_P64}::HUGEINT AS h
         FROM gcontrib GROUP BY doc_id, w),
{gm_sql},
gmin AS (SELECT doc_id, min(CAST(h AS UBIGINT)) AS mg FROM {gm_f} GROUP BY doc_id)
SELECT d.doc_id,
       coalesce(g.mg, 0)::UBIGINT AS min_gram_hash,
       CAST(c.h AS UBIGINT) AS content_hash
FROM documents d
LEFT JOIN gmin g ON g.doc_id = d.doc_id
JOIN {cm_f} c ON c.doc_id = d.doc_id"""


def _simhash_oracle(max_hamming: int = 6) -> str:
    """SQL twin of ops.dedup.simhash_dup_pairs (uncapped): FNV-style 4-gram
    fold (h = (h ^ byte) * 0x100000001B3) + splitmix64, per-bit majority
    votes, 4 x 16-bit band candidate generation, exact popcount verify."""
    fnv = 0x100000001B3

    def _xorb(expr: str) -> str:
        return f"CAST(xor(CAST(h AS UBIGINT), CAST({expr} AS UBIGINT)) AS HUGEINT)"

    steps = [
        "g0 AS (SELECT doc_id, pos AS w, CAST(byte AS HUGEINT) AS h"
        " FROM chars WHERE pos <= len - 4)"
    ]
    prev = "g0"
    for k in range(4):
        if k > 0:
            steps.append(
                f"gx{k} AS (SELECT g.doc_id, g.w, {_xorb('c.byte')} AS h"
                f" FROM {prev} g JOIN chars c"
                f" ON c.doc_id = g.doc_id AND c.pos = g.w + {k})"
            )
            prev = f"gx{k}"
        steps.append(f"gm{k} AS (SELECT doc_id, w, {_mulmod_sql(fnv)} AS h FROM {prev})")
        prev = f"gm{k}"
    for i, s in enumerate([_XS33, _mulmod_sql(_MIX_M1), _XS33,
                           _mulmod_sql(_MIX_M2), _XS33]):
        steps.append(f"mx{i} AS (SELECT doc_id, w, {s} AS h FROM {prev})")
        prev = f"mx{i}"
    return f"""
WITH chars AS (
  SELECT doc_id, strlen(text) AS len, s AS pos,
         ascii(substr(text, s+1, 1))::HUGEINT AS byte
  FROM (SELECT doc_id, text, unnest(range(0, strlen(text))) AS s FROM documents)
),
{','.join(steps)},
votes AS (
  SELECT doc_id, b,
         sum(CASE WHEN (CAST(h AS UBIGINT) >> b) & 1 = 1 THEN 1 ELSE -1 END) AS bal
  FROM {prev} CROSS JOIN (SELECT unnest(range(0, 64)) AS b) bits
  GROUP BY doc_id, b
),
shr AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN bal > 0 THEN CAST(1::UBIGINT << b AS HUGEINT)
                       ELSE 0::HUGEINT END) % {_P64}::HUGEINT AS UBIGINT) AS sh
  FROM votes GROUP BY doc_id
),
sim AS (
  SELECT d.doc_id, coalesce(s.sh, 0::UBIGINT) AS sh
  FROM documents d LEFT JOIN shr s ON s.doc_id = d.doc_id
)
SELECT a.doc_id::VARCHAR AS a_id, b.doc_id::VARCHAR AS b_id,
       bit_count(xor(a.sh, b.sh))::BIGINT AS hamming64
FROM sim a JOIN sim b ON a.doc_id::VARCHAR < b.doc_id::VARCHAR
WHERE ((a.sh >> 0) & 65535 = (b.sh >> 0) & 65535
    OR (a.sh >> 16) & 65535 = (b.sh >> 16) & 65535
    OR (a.sh >> 32) & 65535 = (b.sh >> 32) & 65535
    OR (a.sh >> 48) & 65535 = (b.sh >> 48) & 65535)
  AND bit_count(xor(a.sh, b.sh)) <= {max_hamming}"""


def _er_oracle_prelude():
    """(fx, W, docs_cte, sig_pairs_cte, scored_cte) — the
    transcript-fixture CTE set shared by the er_*, graph and
    transcript oracles."""
    fx = FIXTURE_SF001
    W = LEN_BUCKET
    docs_cte = f"""
docs AS (
  SELECT conv_id,
         string_agg(text, chr(10) ORDER BY turn_idx) AS doc_text,
         count(*)::BIGINT AS n_turns,
         string_agg(substr(role,1,1), '' ORDER BY turn_idx) AS role_sig
  FROM read_parquet('{fx}') GROUP BY conv_id
),
docs2 AS (
  SELECT conv_id, doc_text, n_turns, strlen(doc_text)::BIGINT AS doc_len,
         role_sig
  FROM docs
)"""
    sig_pairs_cte = f"""
sig_pairs AS (
  SELECT a.conv_id AS a_id, b.conv_id AS b_id,
         a.doc_text AS a_text, b.doc_text AS b_text,
         a.doc_len AS a_len, b.doc_len AS b_len
  FROM docs2 a JOIN docs2 b
    ON a.role_sig = b.role_sig
   AND a.doc_len // {W} = b.doc_len // {W}
   AND a.conv_id < b.conv_id
)"""
    # edges is MATERIALIZED: DuckDB otherwise inlines a CTE at every
    # reference, re-running the unbounded levenshtein over sig_pairs for
    # each (the graph oracles read edges several times over)
    scored_cte = """
scored AS (
  SELECT a_id, b_id,
         LEAST(128, GREATEST(4, CEIL(0.15 * GREATEST(a_len, b_len))))::BIGINT AS k,
         levenshtein(a_text, b_text)::BIGINT AS lev,
         GREATEST(a_len, b_len) AS max_len
  FROM sig_pairs
),
edges AS MATERIALIZED (
  SELECT a_id, b_id,
         CASE WHEN lev <= k THEN lev ELSE -1 END AS dist,
         CASE WHEN lev <= k THEN 1.0 - CAST(lev AS DOUBLE) / max_len ELSE 0.0 END AS sim
  FROM scored
  WHERE lev <= k AND (1.0 - CAST(lev AS DOUBLE) / max_len) >= 0.85
)"""

    o: Dict[str, str] = {}

    return fx, W, docs_cte, sig_pairs_cte, scored_cte


__all__ = [
    "_MINHASH_PAIR_CTES",
    "_MIX_M1",
    "_MIX_M2",
    "_P32",
    "_P64",
    "_XS33",
    "_bpe_encode_oracle",
    "_bpe_oracle",
    "_clustered_raw_sql",
    "_fingerprints_oracle",
    "_gram_novelty_oracle",
    "_ivf_oracle",
    "_kmeans_oracle",
    "_mix64_chain_sql",
    "_mulmod_sql",
    "_pq_oracle",
    "_simhash_oracle",
    "_er_oracle_prelude",
]
