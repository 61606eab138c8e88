/* Unit-cost edit distance and fuzzy search over byte strings.

   One Myers engine (Myers 1999, block carries after Hyyro 2003, the edlib
   layout) behind three entries:
   - lev_k_unit / lev_k_pair: k-bounded distance of a batch of pairs, or
     of one pair. The shorter string is the pattern, cut into 64-row
     blocks, and the longer one is scanned one column at a time. Only the
     blocks that can still hold a cell of an alignment costing <= k are
     stepped: the rows of column j that lie within k of both corners,
     minus leading blocks whose every cell is already over k. That is at
     most k / 64 + 2 words per column, and a pair stops as soon as no live
     cell is left. A 256-bin bag-distance bound rejects dissimilar pairs
     first (bag_unit exposes it on its own).
   - lev_search_unit: semi-global search of one needle over a column of
     haystacks (row 0 pinned to 0, so a match may start anywhere), then a
     reverse global scan per hit for its start.

   Exactness of the banded distance: a computed cell is never below the
   true distance (a dropped top block feeds the live ones +1 per column, a
   new bottom block starts at +1 per row below its neighbour), and every
   cell of an optimal alignment costing <= k stays live, so a result <= k
   is exact. Built and loaded by native.py. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;

/* One Myers step of a block: (pv, mv) hold the vertical +1 / -1 deltas of
   the previous column, eq the rows matching the text byte, hin the
   horizontal delta entering above the block. Returns the horizontal delta
   leaving the block at row mask hb. */
static inline int step(u64 *pv, u64 *mv, u64 eq, int hin, u64 hb)
{
    u64 Pv = *pv, Mv = *mv, neg = (u64)(hin < 0);
    u64 Xv = eq | Mv;
    u64 e = eq | neg;
    u64 Xh = (((e & Pv) + Pv) ^ Pv) | e;
    u64 Ph = Mv | ~(Xh | Pv);
    u64 Mh = Pv & Xh;
    int hout = ((Ph & hb) != 0) - ((Mh & hb) != 0);
    Ph = (Ph << 1) | (u64)(hin > 0);
    Mh = (Mh << 1) | neg;
    *pv = Mh | ~(Xv | Ph);
    *mv = Ph & Xv;
    return hout;
}

/* Rows [64b, min(64b + 64, m)) of the pattern into a zeroed 256-word slab. */
static void load_block(u64 *slab, const uint8_t *p, int64_t m, int64_t b)
{
    int64_t r0 = b << 6, r1 = r0 + 64 < m ? r0 + 64 : m;
    memset(slab, 0, 256 * sizeof(u64));
    for (int64_t i = r0; i < r1; i++)
        slab[p[i]] |= (u64)1 << (i - r0);
}

/* Bag distance: max(#bytes only in a, #bytes only in b) over the byte
   multisets, a lower bound on unit-cost edit distance. hist is 256 zeroed
   counters and is left zeroed. */
static int64_t bag_distance(const uint8_t *a, int64_t la, const uint8_t *b,
                            int64_t lb, int64_t *hist)
{
    int64_t pos = 0, neg = 0;
    for (int64_t i = 0; i < la; i++)
        hist[a[i]]++;
    for (int64_t i = 0; i < lb; i++)
        hist[b[i]]--;
    for (int c = 0; c < 256; c++) {
        if (hist[c] > 0)
            pos += hist[c];
        else
            neg -= hist[c];
        hist[c] = 0;
    }
    return pos > neg ? pos : neg;
}

/* Blocks live at once for a pattern of w words under bound k; a power of
   two so block b lives in ring slot b & (ring - 1). */
static int64_t ring_size(int64_t w, int64_t k)
{
    int64_t need = k / 64 + 2, r = 1;
    if (need > w)
        need = w;
    while (r < need)
        r <<= 1;
    return r;
}

/* Distance of pattern p (m >= 1) and text t (n >= m) if it is <= k, else
   -1; needs n - m <= k <= n. eq holds ring * 256 words, P/M/S ring words. */
static int64_t banded_myers(const uint8_t *p, int64_t m, const uint8_t *t,
                            int64_t n, int64_t k, u64 *eq, u64 *P, u64 *M,
                            int64_t *S)
{
    int64_t w = (m + 63) >> 6, mask = ring_size(w, k) - 1;
    /* the band: rows i of column j with j - hi <= i <= j + lo */
    int64_t lo = (k - (n - m)) >> 1, hi = (k + (n - m)) >> 1;
    u64 top = (u64)1 << 63, last = (u64)1 << ((m - 1) & 63);
    int64_t fb = 0, lb = ((lo < 1 ? 1 : lo < m ? lo : m) - 1) >> 6;

    for (int64_t b = 0; b <= lb; b++) { /* column 0: D[i][0] = i */
        int64_t s = b & mask;
        load_block(eq + (s << 8), p, m, b);
        P[s] = ~(u64)0;
        M[s] = 0;
        S[s] = (b + 1) << 6 < m ? (b + 1) << 6 : m;
    }
    for (int64_t j = 1; j <= n; j++) {
        unsigned c = t[j - 1];
        int h = 1;
        for (int64_t b = fb; b <= lb; b++) {
            int64_t s = b & mask;
            h = step(&P[s], &M[s], eq[(s << 8) | c], h, b == w - 1 ? last : top);
            S[s] += h;
        }
        if (lb < w - 1 && j + lo > (lb + 1) << 6) {
            /* the band reaches a new block: start it one column back at
               +1 per row below the block above, then step it */
            int64_t s = ++lb & mask, above = S[(lb - 1) & mask] - h;
            int64_t rows = ((lb + 1) << 6 < m ? (lb + 1) << 6 : m) - (lb << 6);
            load_block(eq + (s << 8), p, m, lb);
            P[s] = ~(u64)0;
            M[s] = 0;
            S[s] = above + rows +
                   step(&P[s], &M[s], eq[(s << 8) | c], h, lb == w - 1 ? last : top);
        }
        /* drop leading blocks that are past the band, or whose cells all
           cost over k once the least cost left to (m, n) is added (a cell
           x rows above the block's last row r is >= S - x, and its least
           cost left is |q - x| with q = (n - j) - (m - r)). The latter
           needs row 0 past the band too (j > hi): an alignment may run
           along row 0 and enter the block in a later column. */
        while (fb <= lb) {
            int64_t r = (fb + 1) << 6 < m ? (fb + 1) << 6 : m;
            int64_t rows = r - (fb << 6), q = (n - j) - (m - r);
            int64_t s = S[fb & mask];
            int64_t floor_cost = q < rows ? s - q : s + q - 2 * (rows - 1);
            if (r >= j - hi && (j <= hi || floor_cost <= k))
                break;
            fb++;
        }
        if (fb > lb)
            return -1;
    }
    return S[(w - 1) & mask] <= k ? S[(w - 1) & mask] : -1;
}

/* out[i] = unit-cost edit distance of rows i of (da, oa) and (db, ob), or
   -1 where it exceeds max_k[i]. Offsets are int64 with n + 1 entries.
   Returns 0, or -1 if scratch memory could not be allocated. */
int lev_k_unit(int64_t n, const uint8_t *da, const int64_t *oa,
               const uint8_t *db, const int64_t *ob, const int64_t *max_k,
               int64_t *out)
{
    int64_t ring = 1, hist[256] = {0};
    for (int64_t i = 0; i < n; i++) {
        int64_t la = oa[i + 1] - oa[i], lb = ob[i + 1] - ob[i];
        int64_t m = la < lb ? la : lb, len = la < lb ? lb : la;
        int64_t k = max_k[i] < len ? max_k[i] : len;
        int64_t r = ring_size((m + 63) >> 6, k < 0 ? 0 : k);
        if (r > ring)
            ring = r;
    }
    u64 *eq = malloc(ring * 256 * sizeof(u64));
    u64 *P = malloc(ring * sizeof(u64)), *M = malloc(ring * sizeof(u64));
    int64_t *S = malloc(ring * sizeof(int64_t));
    if (!eq || !P || !M || !S) {
        free(eq), free(P), free(M), free(S);
        return -1;
    }
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *p = da + oa[i], *t = db + ob[i];
        int64_t m = oa[i + 1] - oa[i], len = ob[i + 1] - ob[i];
        int64_t k = max_k[i];
        if (m > len) {
            const uint8_t *x = p;
            int64_t y = m;
            p = t, t = x, m = len, len = y;
        }
        if (k > len)
            k = len; /* the distance never exceeds the longer length */
        if (k < 0 || len - m > k)
            out[i] = -1;
        else if (m == 0)
            out[i] = len;
        else if (m == len && memcmp(p, t, m) == 0)
            out[i] = 0;
        else if (bag_distance(p, m, t, len, hist) > k)
            out[i] = -1;
        else
            out[i] = banded_myers(p, m, t, len, k, eq, P, M, S);
    }
    free(eq), free(P), free(M), free(S);
    return 0;
}

/* lev_k_unit for one pair; -2 if scratch memory could not be allocated. */
int64_t lev_k_pair(const uint8_t *a, int64_t la, const uint8_t *b, int64_t lb,
                   int64_t max_k)
{
    int64_t oa[2] = {0, la}, ob[2] = {0, lb}, out;
    return lev_k_unit(1, a, oa, b, ob, &max_k, &out) ? -2 : out;
}

/* out[i] = bag distance of rows i of (da, oa) and (db, ob). */
void bag_unit(int64_t n, const uint8_t *da, const int64_t *oa,
              const uint8_t *db, const int64_t *ob, int64_t *out)
{
    int64_t hist[256] = {0};
    for (int64_t i = 0; i < n; i++)
        out[i] = bag_distance(da + oa[i], oa[i + 1] - oa[i], db + ob[i],
                              ob[i + 1] - ob[i], hist);
}

/* One text column through all w blocks of a full (unbanded) pattern: eq is
   the text byte's w words, h the horizontal delta entering row 0 (0 in a
   search, where a match may start anywhere; +1 in a global alignment).
   Returns the change of the last row's cell. */
static inline int column(u64 *P, u64 *M, const u64 *eq, int64_t w, int h,
                         u64 last)
{
    for (int64_t b = 0; b < w - 1; b++)
        h = step(&P[b], &M[b], eq[b], h, (u64)1 << 63);
    return step(&P[w - 1], &M[w - 1], eq[w - 1], h, last);
}

/* Every (row, end, cost) with cost = D[m][end] <= k of the semi-global
   (Sellers) DP of needle p (m >= 1) over each row of (d, o), ordered by
   (row, end), plus each hit's start: the longest match, end minus the
   largest q with lev(p, row[end - q:end]) == cost. q is found by a global
   scan of the reversed needle over the reversed row from end, which reads
   lev(p, row[end - q:end]) after q bytes; as that is >= q - m, q <= m +
   cost bounds the scan. *out gets a malloc'd array of count * 4 int64
   (row, end, cost, start), freed with lev_free. Returns count, or -1 if
   memory could not be allocated. */
int64_t lev_search_unit(const uint8_t *p, int64_t m, int64_t n,
                        const uint8_t *d, const int64_t *o, int64_t k,
                        int64_t **out)
{
    int64_t w = (m + 63) >> 6, cnt = 0, cap = 0, *h = NULL;
    u64 last = (u64)1 << ((m - 1) & 63);
    u64 *eq = calloc(2 * 256 * w, sizeof(u64)), *req = eq + 256 * w;
    u64 *P = malloc(2 * w * sizeof(u64)), *M = P + w;
    *out = NULL;
    if (!eq || !P)
        goto fail;
    for (int64_t i = 0; i < m; i++) { /* needle and reversed needle */
        eq[p[i] * w + (i >> 6)] |= (u64)1 << (i & 63);
        req[p[m - 1 - i] * w + (i >> 6)] |= (u64)1 << (i & 63);
    }
    if (k > m)
        k = m; /* D[m][j] <= m always */
    for (int64_t r = 0; r < n; r++) {
        const uint8_t *t = d + o[r];
        int64_t score = m;
        memset(P, 0xff, w * sizeof(u64));
        memset(M, 0, w * sizeof(u64));
        for (int64_t j = 0; j < o[r + 1] - o[r]; j++) {
            score += column(P, M, eq + t[j] * w, w, 0, last);
            if (score > k)
                continue;
            if (cnt == cap) {
                int64_t *g = realloc(h, (cap = cap ? 2 * cap : 1024) * 4 *
                                            sizeof(int64_t));
                if (!g)
                    goto fail;
                h = g;
            }
            h[4 * cnt] = r, h[4 * cnt + 1] = j + 1, h[4 * cnt + 2] = score;
            cnt++;
        }
    }
    for (int64_t i = 0; i < cnt; i++) {
        int64_t *x = h + 4 * i, end = x[1], cost = x[2];
        const uint8_t *t = d + o[x[0]];
        int64_t q = end < m + cost ? end : m + cost, score = m, best = 0;
        memset(P, 0xff, w * sizeof(u64));
        memset(M, 0, w * sizeof(u64));
        /* best stays 0 only when no q >= 1 matches, i.e. cost == m */
        for (int64_t j = 1; j <= q; j++) {
            score += column(P, M, req + t[end - j] * w, w, 1, last);
            if (score == cost)
                best = j;
            else if (score - (q - j) > cost)
                break; /* the cell moves by 1 a byte: cost is out of reach */
        }
        x[3] = end - best;
    }
    free(eq), free(P);
    *out = h;
    return cnt;
fail:
    free(eq), free(P), free(h);
    return -1;
}

void lev_free(void *p)
{
    free(p);
}
