/* The line card's TCAM prefilter per packet (stages/graph.py, whose NumPy
 * paths are the oracle): the flow hash the prefilter and the hash queue
 * share, and the probe of the graph's verdict memo; native.py builds this
 * file into one library with _flat_walk.c and _flow_cache.c.  The memo is
 * an open-addressed table, at most half full, of (flow hash, verdict + 2)
 * slots, 0 empty: the empty mark is not a key, so every 64-bit hash is
 * one. */
#include <stdint.h>

enum { PF_ERR_RANGE = -1 };

typedef struct { uint64_t key; int64_t tag; } memo_slot;  /* verdict + 2 */

/* _flow_hash: each column folded into every row's hash through a
 * splitmix64 finaliser round, weight[j] the column's own weight (the
 * caller repeats the five).  A column at a time: the rows' rounds are
 * independent, so they overlap, where a row's columns would chain. */
void pf_hash(const uint32_t *rows, int64_t n, int64_t ncols,
             const uint64_t *weight, uint64_t *out)
{
    for (int64_t p = 0; p < n; p++)
        out[p] = 0;
    for (int64_t j = 0; j < ncols; j++) {
        const uint64_t w = weight[j];
        for (int64_t p = 0; p < n; p++) {
            uint64_t h = out[p] ^ ((uint64_t)rows[p * ncols + j] + w);
            h += 0x9E3779B97F4A7C15ULL;
            h = (h ^ h >> 30) * 0xBF58476D1CE4E5B9ULL;
            h = (h ^ h >> 27) * 0x94D049BB133111EBULL;
            out[p] = h ^ h >> 31;
        }
    }
}

/* out[p] = the verdict of flow h[p]; a flow the table lacks gets -1 and
 * its position goes to unseen[].  Returns how many did, or PF_ERR_RANGE
 * (nothing more written) on a probe that finds no empty slot: a corrupt
 * table.  The slot PREFETCH packets ahead is fetched while this one is
 * probed: the table outgrows the caches the other stages share. */
int64_t pf_probe(const memo_slot *table, int64_t size, const uint64_t *h,
                 int64_t n, int64_t *out, int64_t *unseen)
{
    enum { PREFETCH = 32 };
    const uint64_t mask = (uint64_t)size - 1;
    int64_t m = 0;
    for (int64_t p = 0; p < n; p++) {
        if (p + PREFETCH < n)
            __builtin_prefetch(table + (h[p + PREFETCH] & mask));
        uint64_t i = h[p] & mask;
        for (int64_t step = 0;; step++, i = (i + 1) & mask) {
            if (step == size)
                return PF_ERR_RANGE;
            if (!table[i].tag) {
                out[p] = -1;
                unseen[m++] = p;
                break;
            }
            if (table[i].key == h[p]) {
                out[p] = table[i].tag - 2;
                break;
            }
        }
    }
    return m;
}

/* Insert the k flows keys[i] -> verdicts[i] (each >= -1), none in the
 * table yet; the caller keeps it at most half full, so every probe ends. */
void pf_insert(memo_slot *table, int64_t size, const uint64_t *keys,
               const int64_t *verdicts, int64_t k)
{
    const uint64_t mask = (uint64_t)size - 1;
    for (int64_t i = 0; i < k; i++) {
        uint64_t s = keys[i] & mask;
        while (table[s].tag)
            s = (s + 1) & mask;
        table[s] = (memo_slot){keys[i], verdicts[i] + 2};
    }
}
