/* The line card's TCAM prefilter per packet (stages/graph.py, whose NumPy
 * paths are the oracle): the flow hash the prefilter and the hash queue
 * share, and the probe of the graph's verdict memo.  native.SOURCES puts
 * this file after _flow_cache.c in one translation unit, so the hash is
 * that file's fnv(): the flow cache's.  The memo is an open-addressed
 * table, at most half full, of rows (header columns, verdict + 2), tag 0
 * empty, each homed at its flow hash: the hash finds the row, the header
 * confirms it. */
#include <stdint.h>
#include <string.h>

enum { PF_ERR_RANGE = -1 };

/* _flow_hash: out[p] = fnv() of header row p. */
void pf_hash(const uint32_t *rows, int64_t n, int64_t ndim, uint64_t *out)
{
    for (int64_t p = 0; p < n; p++)
        out[p] = fnv(rows + p * ndim, ndim);
}

/* out[p] = the verdict of header row p, whose flow hash is h[p]; a flow
 * the table lacks gets -1 and its position goes to unseen[].  Returns
 * how many did, or PF_ERR_RANGE (nothing more written) on a probe that
 * finds no empty row: a corrupt table.  Both ends of the row PREFETCH
 * packets ahead (it may span two cache lines) are fetched while this
 * one is probed: the table outgrows the caches the other stages share. */
int64_t pf_probe(const uint32_t *table, int64_t size, int64_t ndim,
                 const uint32_t *rows, const uint64_t *h, int64_t n,
                 int64_t *out, int64_t *unseen)
{
    enum { PREFETCH = 32 };
    const uint64_t mask = (uint64_t)size - 1, width = (uint64_t)ndim + 1;
    int64_t m = 0;
    for (int64_t p = 0; p < n; p++) {
        const uint32_t *q = rows + p * ndim, *ahead =
            table + (h[p + PREFETCH < n ? p + PREFETCH : p] & mask) * width;
        __builtin_prefetch(ahead);
        __builtin_prefetch(ahead + ndim);
        uint64_t i = h[p] & mask;
        for (int64_t step = 0;; step++, i = (i + 1) & mask) {
            const uint32_t *row = table + i * width;
            if (step == size)
                return PF_ERR_RANGE;
            if (!row[ndim]) {
                out[p] = -1;
                unseen[m++] = p;
                break;
            }
            int64_t d = 0;
            while (d < ndim && row[d] == q[d])
                d++;
            if (d == ndim) {
                out[p] = (int64_t)row[ndim] - 2;
                break;
            }
        }
    }
    return m;
}

/* Insert the k header rows (flow hashes h[i]) -> verdicts[i] (each in
 * [-1, 2^32 - 3]), none in the table yet; the caller keeps it at most
 * half full, so every probe ends. */
void pf_insert(uint32_t *table, int64_t size, int64_t ndim,
               const uint32_t *rows, const uint64_t *h,
               const int64_t *verdicts, int64_t k)
{
    const uint64_t mask = (uint64_t)size - 1, width = (uint64_t)ndim + 1;
    for (int64_t i = 0; i < k; i++) {
        uint64_t s = h[i] & mask;
        while (table[s * width + (uint64_t)ndim])
            s = (s + 1) & mask;
        memcpy(table + s * width, rows + i * ndim,
               (size_t)ndim * sizeof *rows);
        table[s * width + (uint64_t)ndim] = (uint32_t)(verdicts[i] + 2);
    }
}
