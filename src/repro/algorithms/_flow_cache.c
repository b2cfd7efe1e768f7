/* The flow cache's per-batch loops (engine/flowcache.py: FlowCache's
 * _flow_keys, _probe and _fill, and dedupe_flow_keys) over the same
 * tables; native.py builds this file into one library with
 * _flat_walk.c.  Keys are the packed words of pack_flow_keys, stored
 * words-major: word k of key p is words[k * n + p].  The one set index
 * that comes from outside (fc_fill's) is bounds-checked, so a bad one is
 * an error code, not a fault. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { FC_OK, FC_ERR_RANGE = 2, FC_ERR_MEMORY = 3 };

typedef struct {       /* field order is native._Cache._fields_ */
    int64_t n_sets, ways, n_words, epoch, tick;
    uint64_t *keyw;                     /* (n_words, ways, n_sets) */
    int64_t *result, *stamp, *epoch_of, *filled;   /* (n_sets, ways) */
} flow_cache;

/* FNV-1a over the header columns, the high bits folded in, modulo the
 * set count (a mask when it is a power of two: the same index). */
static int64_t set_index(const uint32_t *h, int64_t ndim, uint64_t n_sets)
{
    uint64_t x = 0xCBF29CE484222325ULL;
    for (int64_t d = 0; d < ndim; d++)
        x = (x ^ h[d]) * 0x100000001B3ULL;
    x ^= x >> 33;
    return (int64_t)((n_sets & (n_sets - 1)) ? x % n_sets : x & (n_sets - 1));
}

/* Word k of a header's packed key (pack_flow_keys): columns 2k and
 * 2k + 1, the first in the high half; an odd last column over zero. */
static uint64_t key_word(const uint32_t *h, int64_t ndim, int64_t k)
{
    return (uint64_t)h[2 * k] << 32 | (2 * k + 1 < ndim ? h[2 * k + 1] : 0);
}

/* pack_flow_keys and FlowCache._set_index of headers[rows[i]] (of
 * headers[i] when rows is NULL), i < n, in one pass. */
void fc_keys(const uint32_t *headers, const int64_t *rows, int64_t n,
             int64_t ndim, int64_t n_sets, uint64_t *words, int64_t *sets)
{
    for (int64_t i = 0; i < n; i++) {
        const uint32_t *h = headers + (rows ? rows[i] : i) * ndim;
        for (int64_t k = 0; k < (ndim + 1) / 2; k++)
            words[k * n + i] = key_word(h, ndim, k);
        sets[i] = set_index(h, ndim, (uint64_t)n_sets);
    }
}

/* The slot's fill epoch is current (FlowCache._live). */
static int live(const flow_cache *c, int64_t slot)
{
    return c->epoch_of[slot] == c->epoch;
}

/* FlowCache._probe straight from the headers (their keys are compared
 * word by word as they are packed, never stored): the first live way of
 * each header's set holding its key gives hit, the cached result (-1 on
 * a miss) and the LRU stamp tick + p.  The positions that missed go to
 * misses[], in order; returns their count. */
int64_t fc_probe(flow_cache *c, const uint32_t *headers, int64_t n,
                 int64_t ndim, uint8_t *hit, int64_t *result, int64_t *misses)
{
    const int64_t ways = c->ways, n_sets = c->n_sets, nw = c->n_words;
    int64_t n_miss = 0;
    for (int64_t p = 0; p < n; p++) {
        const uint32_t *h = headers + p * ndim;
        int64_t s = set_index(h, ndim, (uint64_t)n_sets), found = -1;
        for (int64_t w = 0; w < ways && found < 0; w++) {
            int64_t k = 0;
            while (k < nw && c->keyw[(k * ways + w) * n_sets + s]
                             == key_word(h, ndim, k))
                k++;
            if (k == nw && live(c, s * ways + w))
                found = w;
        }
        hit[p] = found >= 0;
        if (found >= 0) {
            result[p] = c->result[s * ways + found];
            c->stamp[s * ways + found] = c->tick + p;
        } else {
            result[p] = -1;
            misses[n_miss++] = p;
        }
    }
    return n_miss;
}

/* 64-bit multiply-xorshift over one key's words (any good mix will do:
 * it only spreads the keys over the dedupe table). */
static uint64_t mix(const uint64_t *words, int64_t n, int64_t p, int64_t nw)
{
    uint64_t h = words[p] * 0x9E3779B97F4A7C15ULL;
    for (int64_t k = 1; k < nw; k++)
        h = ((h ^ (h >> 32)) ^ words[k * n + p]) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 29;
    return h * 0x9E3779B97F4A7C15ULL;
}

/* One distinct key while it is sorted: its first word inline, so most
 * comparisons read no further. */
typedef struct { uint64_t w0; int64_t id; } entry;

static int before(const entry *a, const entry *b, const uint64_t *keys,
                  int64_t nw)
{
    if (a->w0 != b->w0 || nw < 2)
        return a->w0 < b->w0;
    const uint64_t *x = keys + a->id * nw, *y = keys + b->id * nw;
    for (int64_t k = 1; k < nw; k++)
        if (x[k] != y[k])
            return x[k] < y[k];
    return 0;
}

/* Stable bottom-up merge sort of e[0, n) by key (w0 alone when nw < 2),
 * through tmp; insertion-sorted runs of 16 first.  Returns the array
 * the sorted result ended in. */
static entry *sort_entries(entry *e, entry *tmp, int64_t n,
                           const uint64_t *keys, int64_t nw)
{
    for (int64_t lo = 0; lo < n; lo += 16) {
        int64_t hi = lo + 16 < n ? lo + 16 : n;
        for (int64_t i = lo + 1; i < hi; i++) {
            entry x = e[i];
            int64_t j = i;
            for (; j > lo && before(&x, &e[j - 1], keys, nw); j--)
                e[j] = e[j - 1];
            e[j] = x;
        }
    }
    for (int64_t width = 16; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, o = lo;
            while (i < mid && j < hi)
                tmp[o++] = before(&e[j], &e[i], keys, nw) ? e[j++] : e[i++];
            while (i < mid)
                tmp[o++] = e[i++];
            while (j < hi)
                tmp[o++] = e[j++];
        }
        entry *swap = e;
        e = tmp;
        tmp = swap;
    }
    return e;
}

/* LSD radix sort of e[0, n) by w0, a byte at a time through tmp (a byte
 * every entry shares costs no pass), then each run of equal w0 by the
 * rest of the key.  Returns the array the result ended in. */
static entry *sort_keys(entry *e, entry *tmp, int64_t n, const uint64_t *keys,
                        int64_t nw)
{
    int64_t count[8][256] = {{0}};   /* one counter per byte value */
    for (int64_t i = 0; i < n; i++)
        for (int b = 0; b < 8; b++)
            count[b][e[i].w0 >> 8 * b & 0xff]++;
    for (int b = 0; b < 8; b++) {
        int64_t *c = count[b], sum = 0;
        if (n == 0 || c[e[0].w0 >> 8 * b & 0xff] == n)
            continue;
        for (int v = 0; v < 256; v++) {
            int64_t x = c[v];
            c[v] = sum;
            sum += x;
        }
        for (int64_t i = 0; i < n; i++)
            tmp[c[e[i].w0 >> 8 * b & 0xff]++] = e[i];
        entry *swap = e;
        e = tmp;
        tmp = swap;
    }
    for (int64_t lo = 0, hi; lo < n; lo = hi) {
        for (hi = lo + 1; hi < n && e[hi].w0 == e[lo].w0; hi++)
            ;
        if (hi - lo > 1) {
            entry *run = sort_entries(e + lo, tmp + lo, hi - lo, keys, nw);
            if (run != e + lo)
                memcpy(e + lo, run, (size_t)(hi - lo) * sizeof *e);
        }
    }
    return e;
}

/* An empty open-addressed table of 2^bits slots holding ids 0..nd-1 + 1
 * at their hashes' top bits; NULL when out of memory. */
static int64_t *dedupe_table(int bits, const uint64_t *hash, int64_t nd)
{
    const uint64_t mask = ((uint64_t)1 << bits) - 1;
    int64_t *table = calloc(mask + 1, sizeof *table);
    for (int64_t id = 0; table && id < nd; id++) {
        uint64_t i = hash[id] >> (64 - bits);
        while (table[i])
            i = (i + 1) & mask;
        table[i] = id + 1;
    }
    return table;
}

/* dedupe_flow_keys: group the n keys by first occurrence in an
 * open-addressed table (grown with the distinct count, kept at most half
 * full), sort the distinct ones word-lexicographically, and write
 * first[rank] (the position of each distinct key's first occurrence) and
 * inverse[p] (key p's rank): np.unique(axis=0)'s return_index /
 * return_inverse.  Returns the distinct count, or -FC_ERR_MEMORY. */
int64_t fc_dedupe(const uint64_t *words, int64_t n_words, int64_t n,
                  int64_t *first, int64_t *inverse)
{
    const int64_t nw = n_words, most = n ? n : 1;
    int bits = 10;
    uint64_t *hash = malloc((size_t)most * sizeof *hash);
    uint64_t *keys = malloc((size_t)most * nw * sizeof *keys);
    entry *e = malloc((size_t)most * 2 * sizeof *e);
    int64_t *table = dedupe_table(bits, NULL, 0), nd = 0;
    if (!hash || !keys || !e || !table)
        goto fail;
    for (int64_t p = 0; p < n; p++) {
        if (2 * (nd + 1) > (int64_t)1 << bits) {
            free(table);
            if (!(table = dedupe_table(++bits, hash, nd)))
                goto fail;
        }
        const uint64_t h = mix(words, n, p, nw);
        const uint64_t mask = ((uint64_t)1 << bits) - 1;
        for (uint64_t i = h >> (64 - bits);; i = (i + 1) & mask) {
            int64_t id = table[i] - 1, k = 0;
            if (id < 0) {          /* a new key: its first occurrence */
                id = nd++;
                table[i] = id + 1;
                hash[id] = h;
                for (; k < nw; k++)
                    keys[id * nw + k] = words[k * n + p];
                first[id] = p;
                inverse[p] = id;
                break;
            }
            if (hash[id] != h)
                continue;
            while (k < nw && keys[id * nw + k] == words[k * n + p])
                k++;
            if (k == nw) {
                inverse[p] = id;
                break;
            }
        }
    }
    for (int64_t id = 0; id < nd; id++)
        e[id] = (entry){keys[id * nw], id};
    entry *sorted = sort_keys(e, e + nd, nd, keys, nw);
    /* first[] held the heads by id: keep them in table[] (at least 2 nd
     * slots, now free) and turn the group ids into ranks through it. */
    int64_t *head = table, *rank = table + nd;
    memcpy(head, first, (size_t)nd * sizeof *head);
    for (int64_t r = 0; r < nd; r++) {
        first[r] = head[sorted[r].id];
        rank[sorted[r].id] = r;
    }
    for (int64_t p = 0; p < n; p++)
        inverse[p] = rank[inverse[p]];
    free(hash), free(keys), free(e), free(table);
    return nd;
fail:
    free(hash), free(keys), free(e), free(table);
    return -FC_ERR_MEMORY;
}

/* The ways of set s oldest-first (dead ones first, as age -1), stable in
 * way order: FlowCache._fill's argsort of one touched set.  `e` holds
 * 2 * ways entries; the sign flip keeps int64 order in uint64. */
static void victim_order(const flow_cache *c, int64_t s, int64_t *order,
                         entry *e)
{
    const int64_t ways = c->ways;
    for (int64_t w = 0; w < ways; w++) {
        int64_t age = live(c, s * ways + w) ? c->stamp[s * ways + w] : -1;
        e[w] = (entry){(uint64_t)age ^ (1ULL << 63), w};
    }
    entry *sorted = sort_entries(e, e + ways, ways, NULL, 1);
    for (int64_t w = 0; w < ways; w++)
        order[w] = sorted[w].id;
}

/* FlowCache._fill, insert by insert: the r-th insert into a set takes
 * the r-th way (mod ways) of the set's pre-batch victim order; it is an
 * eviction when it wraps or the way was live, a reclamation when the
 * way was dead but once filled.  Later inserts overwrite earlier ones.
 * counts[0..1] get the evictions and reclamations. */
int fc_fill(flow_cache *c, const uint64_t *words, const int64_t *sets,
            int64_t n, const int64_t *results, int64_t *counts)
{
    const int64_t ways = c->ways, n_sets = c->n_sets, nw = c->n_words;
    const int64_t most = n < n_sets ? n : n_sets;  /* sets touched */
    int64_t *touched = malloc((size_t)n_sets * sizeof *touched);
    int64_t *seen = malloc((size_t)(most ? most : 1) * sizeof *seen);
    int64_t *order = malloc((size_t)(most ? most : 1) * ways * sizeof *order);
    entry *e = malloc((size_t)ways * 2 * sizeof *e);
    int64_t evictions = 0, reclamations = 0, n_touched = 0, code = FC_OK;
    if (!touched || !seen || !order || !e) {
        code = FC_ERR_MEMORY;
        goto out;
    }
    for (int64_t p = 0; p < n; p++)
        if (sets[p] < 0 || sets[p] >= n_sets) {   /* before any write */
            code = FC_ERR_RANGE;
            goto out;
        }
    memset(touched, 0xff, (size_t)n_sets * sizeof *touched);
    for (int64_t p = 0; p < n; p++) {
        int64_t s = sets[p], t = touched[s];
        if (t < 0) {   /* first insert into s: nothing written there yet */
            t = touched[s] = n_touched++;
            seen[t] = 0;
            victim_order(c, s, order + t * ways, e);
        }
        int64_t r = seen[t]++, way = order[t * ways + r % ways];
        int64_t slot = s * ways + way;
        if (r >= ways || live(c, slot))
            evictions++;
        else if (c->filled[slot] > 0)
            reclamations++;
        for (int64_t k = 0; k < nw; k++)
            c->keyw[(k * ways + way) * n_sets + s] = words[k * n + p];
        c->result[slot] = results[p];
        c->stamp[slot] = c->filled[slot] = c->tick;
        c->epoch_of[slot] = c->epoch;
    }
    counts[0] = evictions;
    counts[1] = reclamations;
out:
    free(touched), free(seen), free(order), free(e);
    return (int)code;
}
