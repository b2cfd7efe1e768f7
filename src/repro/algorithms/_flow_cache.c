/* The flow cache's per-batch loops over its own tables: FlowCache.lookup
 * and FlowCache.commit (engine/flowcache.py, whose NumPy paths are the
 * oracle), fc_serve, which serves a whole batch for a backend whose miss
 * classification is one FlatTree walk: the probe, the walk of the
 * distinct misses and the commit in one call, and fc_retire, which kills
 * the entries one rule-update batch could have changed (FlowCache.retire).
 * native.py builds this file into one library after _flat_walk.c, whose
 * walk fc_serve runs.  Keys are pack_flow_keys' words, set-major: way w
 * of set s holds keyw[(s * ways + w) * nw ...].  The hot loops select
 * without branching on the data (a mispredicted branch costs more than
 * reading every way).  fc_commit range-checks its indices (sets, misses,
 * ranks) before the first write: a bad one is an error. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

enum { BLOCK = 256 };

/* Start fetching the lines of the set of FNV value x that a probe reads
 * and writes: its keys, fill epochs, results and stamps. */
static inline void fetch_set(const flow_cache *c, uint64_t x, int64_t nw,
                             int64_t ways)
{
    const int64_t at = set_of(x, (uint64_t)c->n_sets) * ways;
    __builtin_prefetch(c->keyw + at * nw);
    __builtin_prefetch(c->keyw + (at + ways) * nw - 1);
    __builtin_prefetch(c->epoch_of + at);
    __builtin_prefetch(c->result + at);
    __builtin_prefetch(c->stamp + at, 1);
}

/* Probe packets [lo, hi) of the batch, or, given pos, the packets at
 * positions pos[lo .. hi) (arrival order, each one's FNV value in xs),
 * whose first m packets missed: match[p] is the cached result (-1: a
 * miss), a hit's LRU stamp becomes tick + p and, given occupancy,
 * occupancy[p] is hit_cycles; the hits with a result >= 0 are added to
 * *matched.  Each miss's position goes to misses[m], its FNV value to
 * miss_x[i] and its packed key to miss_kw[i * nw], i counting the
 * misses of this call.  Returns m.  A packet's set is fetched AHEAD
 * packets before its turn (its FNV value kept until then), so the probe
 * does not wait on its lines. */
enum { AHEAD = 8 };

static inline __attribute__((always_inline)) uint64_t
ahead_of(const uint32_t *headers, const int64_t *pos, const uint64_t *xs,
         int64_t i, const int64_t ndim)
{
    return pos ? xs[pos[i]] : fnv(headers + i * ndim, ndim);
}

static inline __attribute__((always_inline)) int64_t
probe(flow_cache *c, int64_t tick, const uint32_t *headers,
      const int64_t *pos, const uint64_t *xs, int64_t lo, int64_t hi,
      int64_t m, int64_t *match, int64_t *misses, uint64_t *miss_x,
      uint64_t *miss_kw, int64_t *occupancy, int64_t hit_cycles,
      int64_t *matched, const int64_t ndim, const int64_t ways)
{
    const int64_t nw = (ndim + 1) / 2, first = m;
    int64_t found = 0;
    uint64_t ahead[AHEAD];
    for (int64_t i = lo; i < lo + AHEAD && i < hi; i++)
        fetch_set(c, ahead[i % AHEAD] = ahead_of(headers, pos, xs, i, ndim),
                  nw, ways);
    for (int64_t i = lo; i < hi; i++) {
        const int64_t p = pos ? pos[i] : i;
        const uint32_t *h = headers + p * ndim;
        const uint64_t x = ahead[i % AHEAD];
        if (i + AHEAD < hi)
            fetch_set(c, ahead[i % AHEAD] = ahead_of(headers, pos, xs,
                                                     i + AHEAD, ndim),
                      nw, ways);
        const int64_t s = set_of(x, (uint64_t)c->n_sets), j = m - first;
        uint64_t *kw = miss_kw + j * nw;   /* kept when it misses */
#pragma GCC unroll 8
        for (int64_t k = 0; k < nw; k++)
            kw[k] = key_word(h, ndim, k);
        const int64_t w = find(c, s, kw, nw, ways), miss = w >> 63;
        const int64_t at = s * ways + (w & ~miss);   /* way 0 on a miss */
        const int64_t result = c->result[at] | miss;
        match[p] = result;
        found += result >= 0;
        if (occupancy)
            occupancy[p] = hit_cycles;
        c->stamp[at] = (c->stamp[at] & miss) | ((tick + p) & ~miss);
        misses[m] = p;   /* kept when it missed */
        miss_x[j] = x;
        m -= miss;
    }
    *matched += found;
    return m;
}

/* Group `count` misses (FNV values x, packed keys kw) in g, each one's
 * id to rank[i]; 0 when out of memory.  Inlined where nw is constant. */
static inline __attribute__((always_inline)) int
group_block(groups *g, const uint64_t *x, const uint64_t *kw, int64_t count,
            int64_t nw, int64_t expect, int64_t *rank)
{
    for (int64_t i = 0; i < count; i++) {
        if (i + 4 < count && g->table)
            __builtin_prefetch(g->table + home(x[i + 4], g->bits));
        if ((rank[i] = group(g, kw + i * nw, nw, x[i], expect)) < 0)
            return 0;
    }
    return 1;
}

/* The m grouped misses' ids (in rank) to ranks by last sighting: the
 * distinct headers go to uniq in the order of each one's last miss,
 * their sets to sets, and miss i's rank among them to rank[i].  Walking
 * back from the last miss, a header's first sighting is its last, so
 * the headers take the ranks from nd - 1 down as they are met, without
 * a branch on the data; g's table (free now, >= 4 nd int64s) holds each
 * id's rank (-1 until met), then the id of each rank (plus one slot the
 * misses already met write to). */
static void by_last_sighting(const groups *g, int64_t *rank, int64_t m,
                             uint32_t *uniq, int64_t *sets, int64_t n_sets,
                             int64_t ndim)
{
    if (!g->nd)
        return;
    const int64_t nw = (ndim + 1) / 2, nd = g->nd;
    int64_t *rank_of = (int64_t *)g->table, *id_of = rank_of + nd, r = nd;
    memset(rank_of, 0xff, (size_t)nd * sizeof *rank_of);
    for (int64_t i = m - 1; i >= 0; i--) {
        const int64_t id = rank[i], seen = rank_of[id], fresh = seen >> 63;
        r += fresh;
        const int64_t mine = (r & fresh) | (seen & ~fresh);
        id_of[(r & fresh) | (nd & ~fresh)] = id;
        rank_of[id] = rank[i] = mine;
    }
    for (r = 0; r < nd; r++) {
        const int64_t id = id_of[r];
        for (int64_t d = 0; d < ndim; d++)   /* pack_flow_keys, undone */
            uniq[r * ndim + d] = (uint32_t)(g->keys[id * nw + d / 2]
                                            >> (d % 2 ? 0 : 32));
        sets[r] = set_of(g->x[id], (uint64_t)n_sets);
    }
}

/* FlowCache.lookup: probe every packet, BLOCK at a time, counting both
 * in counts.  Given tally, the hits with a result >= 0 are added to
 * tally[0] and their cycles to tally[1].  With uniq, each block's misses
 * are grouped by FNV value while in cache, in a table first sized for
 * `expect` (the result never depends on it), then ranked by last
 * sighting (uniq, sets, rank).
 * Inlined for the five-tuple 4-way cache, constant bounds, and any other. */
static inline __attribute__((always_inline)) int
lookup(flow_cache *c, const uint32_t *headers, int64_t n, int64_t expect,
       int64_t *match, int64_t *misses, int64_t *rank, uint32_t *uniq,
       int64_t *sets, int64_t *counts, int64_t *occupancy, int64_t hit_cycles,
       int64_t *tally, const int64_t ndim, const int64_t ways)
{
    const int64_t nw = (ndim + 1) / 2;
    groups g = {.most = n};
    expect = expect < n ? expect : n;
    int64_t m = 0, matched = 0, code = ERR_MEMORY;
    /* One block's misses: FNV values, then keys. */
    uint64_t *miss_x = malloc((size_t)BLOCK * (nw + 1) * sizeof *miss_x);
    if (!miss_x)
        goto out;
    uint64_t *miss_kw = miss_x + BLOCK;
    for (int64_t lo = 0; lo < n; lo += BLOCK) {
        const int64_t hi = lo + BLOCK < n ? lo + BLOCK : n, first = m;
        m = probe(c, c->tick, headers, NULL, NULL, lo, hi, m, match, misses,
                  miss_x, miss_kw, occupancy, hit_cycles, &matched, ndim,
                  ways);
        if (uniq && !group_block(&g, miss_x, miss_kw, m - first, nw, expect,
                                 rank + first))
            goto out;
    }
    by_last_sighting(&g, rank, m, uniq, sets, c->n_sets, ndim);
    counts[0] = m;
    counts[1] = g.nd;
    if (tally) {
        tally[0] += matched;
        tally[1] += occupancy ? (n - m) * hit_cycles : 0;
    }
    code = OK;
out:
    free(miss_x), free(g.table), free(g.x), free(g.keys);
    return (int)code;
}

/* The misses' positions go to misses[], their count and the distinct
 * count to counts[0..1]; with uniq, the distinct headers in the order of
 * each one's last miss, their sets to sets and miss i's rank among them
 * to rank[i]. */
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
        return ERR_RANGE;
    for (int64_t r = 0; sets && r < nd; r++)   /* before any write */
        if (sets[r] < 0 || sets[r] >= n_sets)
            return ERR_RANGE;
    for (int64_t i = 0; i < m; i++)
        if (misses[i] < 0 || misses[i] >= n || rank[i] < 0 || rank[i] >= nd)
            return ERR_RANGE;
    int64_t *set = malloc((size_t)(nd + 1) * sizeof *set);
    int64_t *by_set = malloc((size_t)(nd + 1) * sizeof *by_set);
    int64_t *end = calloc((size_t)n_sets + 1, sizeof *end);
    int64_t *order = malloc((size_t)ways * 2 * sizeof *order);
    int64_t evictions = 0, reclamations = 0, matched = 0, cycles_sum = 0;
    int code = ERR_MEMORY;
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
    code = OK;
out:
    free(set), free(by_set), free(end), free(order);
    return code;
}

/* FlowCache.retire after one update batch, in one pass over the slots:
 * a live slot is tagged epoch -1 when its result is one of the
 * n_removed ids of removed (ascending), or when its result is -1 or
 * above the lowest of the n_ins inserted ids and an insert j whose id is
 * below that result (any, for -1) covers the slot's header: bounds[(j *
 * ndim + d) * 2] <= column d <= bounds[... + 1] on every column, the
 * columns read back from the key words of those candidates only.
 * Returns the slots retired. */
int64_t fc_retire(flow_cache *c, const int64_t *removed, int64_t n_removed,
                  const int64_t *bounds, const int64_t *ids, int64_t n_ins)
{
    const int64_t ndim = c->ndim, nw = (ndim + 1) / 2, epoch = c->epoch;
    const int64_t slots = c->n_sets * c->ways, *results = c->result;
    int64_t *epoch_of = c->epoch_of, least = INT64_MAX, retired = 0;
    for (int64_t j = 0; j < n_ins; j++)
        least = ids[j] < least ? ids[j] : least;
    uint64_t seen = 0;   /* bit i: some removed id is i modulo 64 */
    for (int64_t i = 0; i < n_removed; i++)
        seen |= (uint64_t)1 << (removed[i] & 63);
    for (int64_t slot = 0; slot < slots; slot++) {
        if (epoch_of[slot] != epoch)
            continue;
        const int64_t result = results[slot];
        int doomed = 0;
        if (seen >> (result & 63) & 1) {   /* maybe removed: search */
            int64_t lo = 0, hi = n_removed;
            while (lo < hi) {
                const int64_t mid = lo + (hi - lo) / 2;
                if (removed[mid] < result)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            doomed = lo < n_removed && removed[lo] == result;
        }
        if (!doomed && n_ins && (result < 0 || result > least)) {
            const uint64_t *kw = c->keyw + slot * nw;
            for (int64_t j = 0; !doomed && j < n_ins; j++) {
                if (result >= 0 && result <= ids[j])
                    continue;
                const int64_t *b = bounds + j * ndim * 2;
                int64_t d = 0;
                for (; d < ndim; d++) {
                    const int64_t v = (uint32_t)(kw[d / 2] >> (d % 2 ? 0 : 32));
                    if (v < b[2 * d] || v > b[2 * d + 1])
                        break;
                }
                doomed = d == ndim;
            }
        }
        if (doomed) {
            epoch_of[slot] = -1;
            retired++;
        }
    }
    return retired;
}

/* fc_serve: one batch for a backend whose miss classification is one
 * FlatTree walk, split over k owners, one a job (split_run), owner o
 * holding the sets s with s * k / n_sets == o.  At k > 1 the calling
 * thread first hashes the batch and marks each packet's owner
 * (hash_batch); the one owner of a k = 1 call takes the batch as it is,
 * hashing as it probes.  Each owner probes its packets in arrival order
 * (probe, as fc_lookup does: a hit is stamped tick + p, p its place in
 * the batch), grouping each BLOCK's misses while in cache, ranks its
 * distinct misses by last sighting and walks them (walk_slice: widths
 * checked, cycles counted); past the split's barrier, if no owner
 * failed, it scatters its results to its misses and fills its own sets
 * (fc_commit over its arrays).  Sets are disjoint, and a set's probes
 * and inserts come in the order one owner makes them, so every table,
 * count and output is the one-owner one. */
typedef struct {       /* what the owners of one call share */
    flow_cache *c;
    const tables *t;
    const placement *pl;
    const uint32_t *headers;
    int64_t n, k, expect, tick, hit_cycles;   /* tick: the probe's clock */
    int refused;       /* the walk refuses its placement */
    uint64_t *xs;      /* k > 1: each packet's FNV value, */
    uint8_t *own;      /* and owner */
    /* Each owner's from the sum of the earlier owners' packet counts: */
    int64_t *misses, *rank;                /* its misses' positions, ranks */
    uint32_t *uniq;                        /* its distinct misses, */
    int64_t *sets, *results, *cycles;      /* their sets, walk outputs, */
    uint64_t *ids_x, *ids_keys;            /* FNV values and keys (nw) */
    uint64_t *scratch;   /* per owner: one block's misses' FNV values, keys */
    int64_t *match, *occupancy;
} serve_call;

typedef struct {
    const serve_call *call;
    int64_t first, count;  /* where its arrays start, its packets */
    int64_t m, nd;         /* its misses, distinct misses */
    int64_t matched;       /* its hits with a result >= 0 */
    int64_t stop;          /* the last miss of the first failing one */
    int64_t counts[2], tally[2];
    int code, fill_code;
} owner;

/* The calling thread's pass of a k-owner call: each packet's FNV value
 * to xs[p] (the probe's, computed once) and its owner to own[p]; each
 * owner's packet count, and so where its arrays start.  Inlined for the
 * five-tuple. */
static inline __attribute__((always_inline)) void
hash_batch(const serve_call *s, owner *owners, const int64_t ndim)
{
    const uint64_t n_sets = (uint64_t)s->c->n_sets, k = (uint64_t)s->k;
    const int shift = __builtin_ctzll(n_sets), pow2 = !(n_sets & (n_sets - 1));
    const uint32_t *restrict headers = s->headers;
    uint64_t *restrict xs = s->xs;
    uint8_t *restrict own = s->own;
    int64_t count[4][MAX_THREADS] = {{0}};   /* four, so no count waits */
    for (int64_t p = 0; p < s->n; p++) {
        const uint64_t x = xs[p] = fnv(headers + p * ndim, ndim);
        const uint64_t set = (uint64_t)set_of(x, n_sets) * k;
        const uint8_t o = (uint8_t)(pow2 ? set >> shift : set / n_sets);
        own[p] = o;
        count[p & 3][o]++;
    }
    for (int64_t o = 0, first = 0; o < s->k; first += owners[o++].count) {
        owners[o].first = first;
        owners[o].count = count[0][o] + count[1][o] + count[2][o]
                        + count[3][o];
    }
}

/* Probe owner i's packets BLOCK at a time, in arrival order, grouping
 * each block's misses in g; 0 when out of memory (the probe still runs
 * to the end, so every hit is stamped whatever the grouping met).  The
 * one owner of a k = 1 call probes the batch as it is; at k > 1 each
 * block is the owner's next BLOCK packets, read off own[].  Inlined for
 * the five-tuple 4-way cache. */
static inline __attribute__((always_inline)) int
probe_owned(owner *o, int64_t i, groups *g, uint64_t *miss_x,
            const int64_t ndim, const int64_t ways)
{
    const serve_call *s = o->call;
    const int64_t nw = (ndim + 1) / 2, first = o->first;
    const int64_t expect = s->expect < o->count ? s->expect : o->count;
    uint64_t *miss_kw = miss_x + BLOCK;
    int64_t m = 0, grouped = 1, list[BLOCK];
    for (int64_t lo = 0, p = 0; lo < o->count;) {
        int64_t hi = lo + BLOCK < o->count ? lo + BLOCK : o->count, j = 0;
        const int64_t before = m;
        if (s->own) {   /* its next packets: positions p on, in list */
            for (; j < hi - lo; p++) {
                list[j] = p;
                j += s->own[p] == i;
            }
            m = probe(s->c, s->tick, s->headers, list, s->xs, 0, j, m,
                      s->match, s->misses + first, miss_x, miss_kw,
                      s->occupancy, s->hit_cycles, &o->matched, ndim, ways);
        } else {
            m = probe(s->c, s->tick, s->headers, NULL, NULL, lo, hi, m,
                      s->match, s->misses + first, miss_x, miss_kw,
                      s->occupancy, s->hit_cycles, &o->matched, ndim, ways);
        }
        grouped = grouped && group_block(g, miss_x, miss_kw, m - before, nw,
                                         expect, s->rank + first + before);
        lo = hi;
    }
    o->m = m;
    return grouped;
}

/* The split's jobs: owner i probes its packets, ranks its distinct
 * misses by last sighting and walks them.  o->code is the walk's code,
 * ERR_RANGE where the walk refuses its placement, or ERR_MEMORY. */
static void probe_group_walk(void *owners, int64_t i)
{
    owner *o = (owner *)owners + i;
    const serve_call *s = o->call;
    const flow_cache *c = s->c;
    const int64_t ndim = c->ndim, nw = (ndim + 1) / 2, first = o->first;
    groups g = {.most = o->count, .x = s->ids_x + first,
                .keys = s->ids_keys + first * nw};
    uint64_t *miss_x = s->scratch + i * BLOCK * (nw + 1);
    const int grouped = ndim == 5 && c->ways == 4
        ? probe_owned(o, i, &g, miss_x, 5, 4)
        : probe_owned(o, i, &g, miss_x, ndim, c->ways);
    o->code = ERR_MEMORY;
    if (!grouped)
        goto out;
    o->nd = g.nd;
    by_last_sighting(&g, s->rank + first, o->m, s->uniq + first * ndim,
                     s->sets + first, c->n_sets, ndim);
    o->code = s->refused && g.nd ? ERR_RANGE : OK;
    if (o->code)
        goto out;
    walk_job j = {s->t, s->pl, s->uniq + first * ndim, 0, g.nd,
                  s->results + first, NULL, NULL, NULL, NULL, NULL,
                  s->pl ? s->cycles + first : NULL, NULL, NULL, 0, 0, OK, 0};
    walk_slice(&j, 0);
    o->code = j.code;
    if (j.code != OK && j.code != ERR_WIDTH) {
        const int64_t *rank = s->rank + first;
        int64_t last = o->m - 1;
        while (rank[last] != j.failed)
            last--;
        o->stop = s->misses[first + last];
    }
out:
    free(g.table);
}

/* Past the barrier: unless an owner failed, scatter owner i's results
 * and cycles to its misses and fill its sets, its tallies and counts kept
 * apart. */
static void scatter_and_fill(void *owners, int64_t i)
{
    owner *o = (owner *)owners + i;
    const serve_call *s = o->call;
    const int64_t f = o->first;
    for (int64_t j = 0; j < s->k; j++)
        if (((owner *)owners)[j].code != OK)
            return;
    if (!o->nd)   /* no misses */
        return;
    o->fill_code = fc_commit(
        s->c, s->uniq + f * s->c->ndim, s->sets + f, o->nd, s->results + f,
        s->occupancy ? s->cycles + f : NULL, s->misses + f, s->rank + f,
        o->m, s->match, s->occupancy, s->n, o->counts, o->tally);
}

/* Serve n headers through cache c and, for its misses, the walk of t
 * (under placement pl, its widths checked and cycles counted into
 * occupancy): match, occupancy and tally are written as fc_lookup, the
 * walk and fc_commit write them, and the tables and c->tick (+ n after
 * the probe) left where they leave them, an error included.  The batch
 * splits over k = split_count(expect, threads, least) owners: expect,
 * the distinct misses of the cache's last batch (the grouping's first
 * size), stands for the walks and fills this one brings, which only its
 * probe could count; a batch of hits splits nothing, since hashing it
 * first costs more than half its probe.  Every array an owner writes is
 * allocated before the first probe.  counts gets the
 * misses, the distinct misses, the evictions, the reclamations and k.
 * Returns ERR_RANGE if there are misses to walk and the walk refuses
 * its placement (as flat_walk does), else ERR_WIDTH if a miss is too
 * wide, else the walk code of the failing distinct miss last missed
 * first, or ERR_MEMORY. */
int fc_serve(flow_cache *c, const tables *t, const placement *pl,
             const uint32_t *headers, int64_t n, int64_t expect,
             int64_t *match, int64_t *occupancy, int64_t hit_cycles,
             int64_t threads, int64_t least, int64_t *counts, int64_t *tally)
{
    if (t->ndim != c->ndim)
        return ERR_RANGE;
    const int64_t ndim = c->ndim, nw = (ndim + 1) / 2;
    const int64_t k = split_count(expect, threads, least);
    const size_t rows = (size_t)n + 1;
    int64_t *work = malloc(rows * 5 * sizeof *work);
    uint64_t *ids = malloc(rows * (nw + 1) * sizeof *ids);
    uint64_t *scratch = malloc((size_t)k * BLOCK * (nw + 1) * sizeof *scratch);
    uint32_t *uniq = malloc(rows * ndim * sizeof *uniq);
    uint64_t *xs = k > 1 ? malloc(rows * sizeof *xs) : NULL;
    uint8_t *own = k > 1 ? malloc(rows) : NULL;
    serve_call s = {c, t, pl, headers, n, k, expect / k, c->tick, hit_cycles,
                    placement_refused(t, pl, occupancy), xs, own, work,
                    work + rows, uniq, work + 2 * rows, work + 3 * rows,
                    work + 4 * rows, ids, ids + rows, scratch, match,
                    occupancy};
    owner owners[MAX_THREADS] = {{0}};
    int code = ERR_MEMORY;
    if (!work || !ids || !scratch || !uniq || (k > 1 && (!xs || !own)))
        goto out;
    if (k > 1 && ndim == 5)
        hash_batch(&s, owners, 5);
    else if (k > 1)
        hash_batch(&s, owners, ndim);
    else
        owners[0].count = n;
    for (int64_t o = 0; o < k; o++)
        owners[o].call = &s;
    c->tick += n;   /* the fills' clock */
    split_run(k, probe_group_walk, scatter_and_fill, owners);
    /* The one-owner error: memory, else the walk's refusal of its
     * placement, else width, else the code of the failing distinct miss
     * whose last miss comes first. */
    int memory = 0, width = 0, walk = OK;
    int64_t first = INT64_MAX, sums[5] = {0};
    for (int64_t o = 0; o < k; o++) {
        const owner *w = &owners[o];
        memory |= w->code == ERR_MEMORY || w->fill_code;
        width |= w->code == ERR_WIDTH;
        if (w->code != OK && w->code != ERR_WIDTH && w->stop < first)
            first = w->stop, walk = w->code;
        sums[0] += w->m;
        sums[1] += w->nd;
        sums[2] += w->counts[0];
        sums[3] += w->counts[1];
        sums[4] += w->matched;
    }
    code = memory ? ERR_MEMORY : s.refused && sums[1] ? ERR_RANGE
         : width ? ERR_WIDTH : walk;
    memcpy(counts, sums, 4 * sizeof *counts);
    counts[4] = k;
    if (tally) {   /* the hits', then, if nothing failed, the misses' */
        tally[0] += sums[4];
        tally[1] += occupancy ? (n - sums[0]) * hit_cycles : 0;
    }
    for (int64_t o = 0; tally && code == OK && o < k; o++) {
        tally[0] += owners[o].tally[0];
        tally[1] += owners[o].tally[1];
    }
out:
    free(work), free(ids), free(scratch), free(uniq), free(xs), free(own);
    return code;
}
