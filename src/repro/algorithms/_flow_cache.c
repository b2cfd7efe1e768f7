/* The flow cache's two per-batch loops, FlowCache.lookup and
 * FlowCache.commit (engine/flowcache.py, whose NumPy paths are the
 * oracle), over its own tables; native.py builds this file into one
 * library with _flat_walk.c.  Keys are pack_flow_keys' words, set-major:
 * way w of set s holds keyw[(s * ways + w) * nw ...].  The hot loops
 * select without branching on the data (a mispredicted branch costs
 * more than reading every way).  fc_commit range-checks its indices
 * (sets, misses, ranks) before the first write: a bad one is an error. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { FC_OK, FC_ERR_RANGE = 2, FC_ERR_MEMORY = 3 };

typedef struct {       /* field order is native._Cache._fields_ */
    int64_t n_sets, ways, ndim, epoch, tick;
    uint64_t *keyw;                     /* (n_sets, ways, n_words) */
    int64_t *result, *stamp, *epoch_of, *filled;   /* (n_sets, ways) */
} flow_cache;

/* FNV-1a over the header columns, the high bits folded in: the set
 * index is this modulo the set count, and fc_lookup groups misses by it. */
static uint64_t fnv(const uint32_t *h, int64_t ndim)
{
    uint64_t x = 0xCBF29CE484222325ULL;
#pragma GCC unroll 8
    for (int64_t d = 0; d < ndim; d++)
        x = (x ^ h[d]) * 0x100000001B3ULL;
    return x ^ x >> 33;
}

/* x modulo the set count, a mask when that is a power of two. */
static int64_t set_of(uint64_t x, uint64_t n_sets)
{
    return (int64_t)((n_sets & (n_sets - 1)) ? x % n_sets : x & (n_sets - 1));
}

/* Word k of a header's packed key (pack_flow_keys): columns 2k and
 * 2k + 1, the first in the high half; an odd last column over zero. */
static uint64_t key_word(const uint32_t *h, int64_t ndim, int64_t k)
{
    return (uint64_t)h[2 * k] << 32 | (2 * k + 1 < ndim ? h[2 * k + 1] : 0);
}

/* The slot's fill epoch is current (FlowCache._live). */
static int live(const flow_cache *c, int64_t slot)
{
    return c->epoch_of[slot] == c->epoch;
}

/* One batch's distinct misses so far, by id (arrival order): each one's
 * FNV value and packed key, room for `most` (the batch size).  `table`
 * (2^bits slots, at most half full) finds an id by FNV value; it grows
 * with the distinct count, and nothing is allocated before the first miss. */
typedef struct { uint64_t x; int64_t id; } slot;   /* id + 1, 0: empty */

typedef struct {
    int bits;
    int64_t most, nd;
    uint64_t *x, *keys;
    slot *table;
} groups;

static uint64_t home(uint64_t x, int bits)
{
    return x * 0x9E3779B97F4A7C15ULL >> (64 - bits);
}

/* Double the table, or make the first (and the per-id arrays): at least
 * 2^10 slots and `expect` ids a quarter full (a rehash costs more than a
 * larger first table); 0 when out of memory. */
static int grow(groups *g, int64_t nw, int64_t expect)
{
    int bits = g->table ? g->bits + 1 : 10;
    while (!g->table && (int64_t)1 << bits < 4 * expect)
        bits++;
    const size_t size = (size_t)1 << bits;
    slot *table = calloc(size, sizeof *table);
    if (!table || (!g->x && !(g->x = malloc(g->most * sizeof *g->x)))
        || (!g->keys && !(g->keys = malloc(g->most * nw * sizeof *g->keys))))
        return free(table), 0;
    for (int64_t id = 0; id < g->nd; id++) {
        uint64_t i = home(g->x[id], bits);
        while (table[i].id)
            i = (i + 1) & (size - 1);
        table[i] = (slot){g->x[id], id + 1};
    }
    free(g->table);
    g->table = table;
    g->bits = bits;
    return 1;
}

/* The id of key kw (FNV value x), a new one on its first occurrence; -1
 * when out of memory. */
static inline int64_t group(groups *g, const uint64_t *kw, int64_t nw,
                            uint64_t x, int64_t expect)
{
    if (2 * (g->nd + 1) > (int64_t)1 << g->bits && !grow(g, nw, expect))
        return -1;
    const uint64_t mask = ((uint64_t)1 << g->bits) - 1;
    for (uint64_t i = home(x, g->bits);; i = (i + 1) & mask) {
        int64_t id = g->table[i].id - 1, k = 0;
        if (id < 0) {
            g->table[i] = (slot){x, (id = g->nd++) + 1};
            g->x[id] = x;
            memcpy(g->keys + id * nw, kw, (size_t)nw * sizeof *kw);
            return id;
        }
        while (g->table[i].x == x && k < nw && g->keys[id * nw + k] == kw[k])
            k++;
        if (k == nw)
            return id;
    }
}

/* The first way of set s that is live and holds key kw, or -1. */
static inline int64_t find(const flow_cache *c, int64_t s, const uint64_t *kw,
                           int64_t nw, int64_t ways)
{
    int64_t found = -1;
#pragma GCC unroll 8
    for (int64_t w = ways - 1; w >= 0; w--) {
        const uint64_t *key = c->keyw + (s * ways + w) * nw;
        uint64_t diff = (uint64_t)(c->epoch_of[s * ways + w] ^ c->epoch);
#pragma GCC unroll 8
        for (int64_t k = 0; k < nw; k++)
            diff |= key[k] ^ kw[k];
        const int64_t same = -(int64_t)(diff == 0);
        found = (w & same) | (found & ~same);
    }
    return found;
}

/* FlowCache.lookup: match[p] is the cached result (-1: a miss), a hit's
 * LRU stamp becomes tick + p, and the misses' positions go to misses[].
 * Given occupancy, every occupancy[p] is hit_cycles in the same pass (a
 * miss's is fc_commit's to write); given tally, the hits with a result
 * >= 0 are added to tally[0] and their cycles to tally[1].
 * With uniq, they are grouped by FNV value, BLOCK headers at a time, in
 * a table first sized for `expect` (the result never depends on it): the
 * distinct headers go to uniq in the order of each one's last miss, their
 * sets to sets, miss i's rank among them to rank[i], and both counts to
 * counts.
 * Inlined for the five-tuple 4-way cache, constant bounds, and any other. */
enum { BLOCK = 256 };

static inline __attribute__((always_inline)) int
lookup(flow_cache *c, const uint32_t *headers, int64_t n, int64_t expect,
       int64_t *match, int64_t *misses, int64_t *rank, uint32_t *uniq,
       int64_t *sets, int64_t *counts, int64_t *occupancy, int64_t hit_cycles,
       int64_t *tally, const int64_t ndim, const int64_t ways)
{
    const int64_t nw = (ndim + 1) / 2;
    groups g = {.most = n};
    expect = expect < n ? expect : n;
    int64_t m = 0, matched = 0, code = FC_ERR_MEMORY;
    /* One block's misses: FNV values, then keys. */
    uint64_t *miss_x = malloc((size_t)BLOCK * (nw + 1) * sizeof *miss_x);
    if (!miss_x)
        goto out;
    uint64_t *miss_kw = miss_x + BLOCK;
    for (int64_t lo = 0; lo < n; lo += BLOCK) {
        const int64_t hi = lo + BLOCK < n ? lo + BLOCK : n, first = m;
        for (int64_t p = lo; p < hi; p++) {
            const uint32_t *h = headers + p * ndim;
            const uint64_t x = fnv(h, ndim);
            const int64_t s = set_of(x, (uint64_t)c->n_sets), i = m - first;
            uint64_t *kw = miss_kw + i * nw;   /* kept when it misses */
#pragma GCC unroll 8
            for (int64_t k = 0; k < nw; k++)
                kw[k] = key_word(h, ndim, k);
            const int64_t w = find(c, s, kw, nw, ways), miss = w >> 63;
            const int64_t at = s * ways + (w & ~miss);   /* way 0 on a miss */
            const int64_t result = c->result[at] | miss;
            match[p] = result;
            matched += result >= 0;
            if (occupancy)
                occupancy[p] = hit_cycles;
            c->stamp[at] = (c->stamp[at] & miss) | ((c->tick + p) & ~miss);
            misses[m] = p;   /* kept when it missed */
            miss_x[i] = x;
            m -= miss;
        }
        for (int64_t i = 0; uniq && i < m - first; i++) {
            if (i + 4 < m - first && g.table)
                __builtin_prefetch(g.table + home(miss_x[i + 4], g.bits));
            rank[first + i] = group(&g, miss_kw + i * nw, nw, miss_x[i],
                                    expect);
            if (rank[first + i] < 0)
                goto out;
        }
    }
    /* Ids to last-sighting ranks, in g.table (free now, >= 4 nd int64s):
     * each id's last miss index, then its rank once emitted there.  No
     * ids without uniq: a probe alone passes NULL uniq, rank and sets. */
    int64_t *last = (int64_t *)g.table, r = 0;
    for (int64_t i = 0; g.nd && i < m; i++)
        last[rank[i]] = i;
    for (int64_t i = 0; g.nd && i < m; i++) {
        const int64_t id = rank[i];
        if (last[id] != i)
            continue;
        last[id] = r;
        for (int64_t d = 0; d < ndim; d++)   /* pack_flow_keys, undone */
            uniq[r * ndim + d] = (uint32_t)(g.keys[id * nw + d / 2]
                                            >> (d % 2 ? 0 : 32));
        sets[r++] = set_of(g.x[id], (uint64_t)c->n_sets);
    }
    for (int64_t i = 0; g.nd && i < m; i++)
        rank[i] = last[rank[i]];
    counts[0] = m;
    counts[1] = g.nd;
    if (tally) {
        tally[0] += matched;
        tally[1] += occupancy ? (n - m) * hit_cycles : 0;
    }
    code = FC_OK;
out:
    free(miss_x), free(g.table), free(g.x), free(g.keys);
    return (int)code;
}

int fc_lookup(flow_cache *c, const uint32_t *headers, int64_t n,
              int64_t expect, int64_t *match, int64_t *misses, int64_t *rank,
              uint32_t *uniq, int64_t *sets, int64_t *counts,
              int64_t *occupancy, int64_t hit_cycles, int64_t *tally)
{
    if (c->ndim == 5 && c->ways == 4)
        return lookup(c, headers, n, expect, match, misses, rank, uniq, sets,
                      counts, occupancy, hit_cycles, tally, 5, 4);
    return lookup(c, headers, n, expect, match, misses, rank, uniq, sets,
                  counts, occupancy, hit_cycles, tally, c->ndim, c->ways);
}

/* The ways of set s oldest-first (dead ones as age -1), stable in way
 * order: FlowCache._fill's argsort of one set, by insertion. */
static void victim_order(const flow_cache *c, int64_t s, int64_t *order,
                         int64_t *age)
{
    for (int64_t w = 0, j; w < c->ways; w++) {
        const int64_t slot = s * c->ways + w;
        age[w] = live(c, slot) ? c->stamp[slot] : -1;
        for (j = w; j > 0 && age[order[j - 1]] > age[w]; j--)
            order[j] = order[j - 1];
        order[j] = w;
    }
}

/* FlowCache.commit.  The scatter (given match): miss i, at position
 * misses[i], gets results[rank[i]] in match and, given occupancy,
 * cycles[rank[i]] in it (fc_lookup wrote the hits'); given tally, the
 * misses with a result >= 0 are added to tally[0] and their cycles to
 * tally[1].
 * Then the fill of the nd distinct keys, each packed from its row of
 * uniq into sets[r] (NULL: its own set): the i-th insert into a set, in
 * rank order, takes the i-th way (mod ways) of the set's pre-batch
 * victim order, an eviction when it wraps or the way was live, a
 * reclamation when the way was dead but once filled.  A counting sort by
 * set serves each set's inserts together, so its lines are read once.
 * counts[0..1] get the evictions and reclamations. */
int fc_commit(flow_cache *c, const uint32_t *uniq, const int64_t *sets,
              int64_t nd, const int64_t *results, const int64_t *cycles,
              const int64_t *misses, const int64_t *rank, int64_t m,
              int64_t *match, int64_t *occupancy, int64_t n,
              int64_t *counts, int64_t *tally)
{
    const int64_t ways = c->ways, n_sets = c->n_sets, ndim = c->ndim;
    const int64_t nw = (ndim + 1) / 2;
    if (occupancy && !cycles)
        return FC_ERR_RANGE;
    for (int64_t r = 0; sets && r < nd; r++)   /* before any write */
        if (sets[r] < 0 || sets[r] >= n_sets)
            return FC_ERR_RANGE;
    for (int64_t i = 0; i < m; i++)
        if (misses[i] < 0 || misses[i] >= n || rank[i] < 0 || rank[i] >= nd)
            return FC_ERR_RANGE;
    int64_t *set = malloc((size_t)(nd + 1) * sizeof *set);
    int64_t *by_set = malloc((size_t)(nd + 1) * sizeof *by_set);
    int64_t *end = calloc((size_t)n_sets + 1, sizeof *end);
    int64_t *order = malloc((size_t)ways * 2 * sizeof *order);
    int64_t evictions = 0, reclamations = 0, matched = 0, cycles_sum = 0;
    int code = FC_ERR_MEMORY;
    if (!set || !by_set || !end || !order)
        goto out;
    for (int64_t i = 0; i < m; i++) {
        const int64_t result = results[rank[i]];
        match[misses[i]] = result;
        matched += result >= 0;
        if (occupancy) {
            occupancy[misses[i]] = cycles[rank[i]];
            cycles_sum += cycles[rank[i]];
        }
    }
    for (int64_t r = 0; r < nd; r++) {
        set[r] = sets ? sets[r]
                      : set_of(fnv(uniq + r * ndim, ndim), (uint64_t)n_sets);
        end[set[r] + 1]++;
    }
    for (int64_t s = 0; s < n_sets; s++)
        end[s + 1] += end[s];
    for (int64_t r = 0; r < nd; r++)
        by_set[end[set[r]]++] = r;     /* end[s] ends up past set s */
    for (int64_t j = 0; j < nd;) {   /* one set's inserts, in rank order */
        const int64_t s = set[by_set[j]];
        victim_order(c, s, order, order + ways);
        for (int64_t i = 0; j < end[s]; i++, j++) {
            const int64_t r = by_set[j];
            const int64_t slot = s * ways + order[i < ways ? i : i % ways];
            const int evicts = i >= ways || live(c, slot);
            evictions += evicts;
            reclamations += !evicts & (c->filled[slot] > 0);
            for (int64_t k = 0; k < nw; k++)
                c->keyw[slot * nw + k] = key_word(uniq + r * ndim, ndim, k);
            c->result[slot] = results[r];
            c->stamp[slot] = c->filled[slot] = c->tick;
            c->epoch_of[slot] = c->epoch;
        }
    }
    counts[0] = evictions;
    counts[1] = reclamations;
    if (tally) {
        tally[0] += matched;
        tally[1] += cycles_sum;
    }
    code = FC_OK;
out:
    free(set), free(by_set), free(end), free(order);
    return code;
}
