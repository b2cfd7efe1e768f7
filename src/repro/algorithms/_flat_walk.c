/* The per-packet walk of FlatTree (flat_tree.py: _walk_tile + _advance +
 * _first_match + _keep_best) over the same buffers; native.py builds it,
 * with _flow_cache.c, into one library and loads it.  One node per step,
 * then a linear search that stops at the first hit: the paper's FSM.
 * Given an accelerator's leaf placement, each block of packets is first
 * checked against the field widths, and the iteration that finishes a
 * packet counts its memory-port cycles (hw/accelerator.py:
 * Accelerator._run_portable, eqs (5)/(7)).  Every index derived from
 * table data is bounds-checked, so a corrupt table is an error code, not
 * a fault.  This file also holds the library's one split (split_count,
 * split_run): a call splits its packets into k contiguous slices, one a
 * job, on threads created, each on its own CPU, and joined inside the
 * call; packets are independent, so every output is the one-thread
 * output. */
#define _GNU_SOURCE   /* sched_getcpu, pthread_attr_setaffinity_np */
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <string.h>

/* Every code the library's calls return (pf_probe returns a count, -1
 * for a corrupt memo); native.py reads them by value.  REFUSED is an
 * input tt_parse or cs_search leaves to the Python path. */
enum { OK, ERR_STEPS, ERR_RANGE, ERR_WIDTH, ERR_MEMORY, REFUSED };

enum { MAX_STEPS = 10000, LEAF = 1 };

/* The one rule every threaded call (flat_walk, fc_serve, tt_parse) counts
 * its jobs by: k = min(threads, work / least), `threads` when least is 0
 * (a count forced from outside), at least 1 and at most MAX_THREADS. */
enum { MAX_THREADS = 64 };

static int64_t split_count(int64_t work, int64_t threads, int64_t least)
{
    int64_t k = least ? work / least : threads;
    k = k < threads ? k : threads;
    k = k < MAX_THREADS ? k : MAX_THREADS;
    return k > 1 ? k : 1;
}

/* One split_run call: its jobs, the next one to claim, and the jobs run
 * so far by the threads at the barrier. */
typedef struct {
    void (*run)(void *, int64_t), (*after)(void *, int64_t);
    void *arg;
    int64_t k, next, done;
    pthread_mutex_t lock;
    pthread_cond_t cond;
} split;

/* One thread's share: claim jobs until none is left, running each; then,
 * given `after`, wait at the barrier until every job has run and run
 * `after` on the jobs this thread claimed. */
static void split_share(split *s)
{
    int64_t mine[MAX_THREADS], m = 0, j;
    while ((j = __atomic_fetch_add(&s->next, 1, __ATOMIC_RELAXED)) < s->k)
        s->run(s->arg, mine[m++] = j);
    if (!s->after)
        return;
    pthread_mutex_lock(&s->lock);
    if ((s->done += m) == s->k)
        pthread_cond_broadcast(&s->cond);
    while (s->done < s->k)
        pthread_cond_wait(&s->cond, &s->lock);
    pthread_mutex_unlock(&s->lock);
    for (int64_t i = 0; i < m; i++)
        s->after(s->arg, mine[i]);
}

static void *split_main(void *s)
{
    split_share(s);
    return NULL;
}

/* Where thread t of a split starts: attr set to the t-th CPU of the
 * calling thread's affinity mask after the one it runs on (cyclically),
 * or NULL (anywhere) where that is not known.  A cpuset that does not
 * balance load (sched_load_balance off) keeps a thread on the CPU that
 * made it unless told otherwise: unplaced, the split's threads would
 * all run on the caller's CPU, one at a time.  A thread whose CPU is
 * busy claims its jobs late or not at all: the others claim them. */
static pthread_attr_t *placed(pthread_attr_t *attr, int64_t t)
{
#ifdef __linux__
    cpu_set_t allowed, one;
    int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof allowed, &allowed))
        return NULL;
    for (int64_t left = t % CPU_COUNT(&allowed); left;)
        left -= CPU_ISSET(cpu = (cpu + 1) % CPU_SETSIZE, &allowed);
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (!pthread_attr_init(attr)) {
        if (!pthread_attr_setaffinity_np(attr, sizeof one, &one))
            return attr;
        pthread_attr_destroy(attr);
    }
#endif
    (void)attr, (void)t;
    return NULL;
}

/* Run jobs 0 .. k-1 of arg: run(arg, j) for each, then, given `after`,
 * after(arg, j) for each once every run has returned (one barrier), on
 * the thread that ran run(arg, j).  The calling thread and up to k - 1
 * threads created here and joined before the return claim the jobs from
 * one counter, so none outlives the call and a later fork() is safe.  A
 * thread that cannot start is one thread fewer: the threads that did
 * start claim its jobs, each job runs exactly once, and the outputs never
 * depend on how many started.  Claiming, not a share fixed once the
 * thread count is known, lets a thread start on its job at once instead
 * of waiting to be told that count. */
static void split_run(int64_t k, void (*run)(void *, int64_t),
                      void (*after)(void *, int64_t), void *arg)
{
    split s = {run, after, arg, k, 0, 0, PTHREAD_MUTEX_INITIALIZER,
               PTHREAD_COND_INITIALIZER};
    pthread_t tid[MAX_THREADS];
    int64_t n = 1;
    for (int64_t t = 1; t < k; t++) {
        pthread_attr_t attr, *at = placed(&attr, t);
        n += !pthread_create(&tid[n], at, split_main, &s);
        if (at)
            pthread_attr_destroy(at);
    }
    split_share(&s);
    for (int64_t t = 1; t < n; t++)
        pthread_join(tid[t], NULL);
    pthread_mutex_destroy(&s.lock);
    pthread_cond_destroy(&s.cond);
}

typedef struct {       /* field order is native._Placement._fields_ */
    int64_t n_nodes, rules_per_word, ndim;
    const int64_t *pos, *n_rules;   /* per node: leaf start slot, rules */
    const uint32_t *max_value;      /* per field: the largest legal value */
} placement;

typedef struct {       /* field order is native._Tables._fields_ */
    int64_t n_nodes, naxes, ndim, pow2, n_children, n_leaf, n_push;
    const int8_t *kind;
    const int64_t *ax_dim, *ax_ncuts, *ax_stride, *ax_lo, *ax_hi, *ax_span;
    const int64_t *ax_mask, *ax_shift;        /* pow2 (grid) trees only */
    const int64_t *child_base, *child_len;
    const int64_t *leaf_base, *leaf_len, *push_base, *push_len;
    const int32_t *children;
    const int64_t *leaf_rules, *push_rules;
    const uint32_t *leaf_lo, *leaf_span, *push_lo, *push_span;
} tables;

/* Search slots [base, base + len) of one CSR rule table (`width` slots
 * per dimension) for the first whose every interval holds the header:
 * `(v - lo) <= span` in uint32 is `lo <= v <= hi`, v < lo wraps to a
 * huge value.  Charges the comparisons the reference counts (up to and
 * including the hit, or the whole list) and keeps the smaller rule id.
 * Returns the hit's index in the list, -1 for none, -2 for a list that
 * runs outside its table. */
static int64_t match_list(const int64_t *rules, const uint32_t *lo,
                          const uint32_t *span, int64_t width, int64_t base,
                          int64_t len, const uint32_t *h, int64_t ndim,
                          int64_t *best, int32_t *compared)
{
    if (base < 0 || len < 0 || base > width - len)
        return -2;
    for (int64_t i = 0; i < len; i++) {
        const uint32_t *l = lo + base + i, *s = span + base + i;
        int64_t d = 0;
        while (d < ndim && (uint32_t)(h[d] - l[d * width]) <= s[d * width])
            d++;
        if (d < ndim)
            continue;
        *compared += (int32_t)(i + 1);
        if (*best < 0 || rules[base + i] < *best)
            *best = rules[base + i];
        return i;
    }
    *compared += (int32_t)len;
    return -1;
}

/* Words fetched and datapath cycles of one finished packet: `x` internal
 * fetches after the register-resident root, then the leaf words up to the
 * hit (or the whole leaf on a miss), floor one cycle.  -1 for a leaf id
 * outside the placement, a start slot outside its word or a rule count no
 * leaf list can reach (it keeps `pos + z` in range). */
static int64_t cycles(const placement *pl, int32_t internal, int32_t lid,
                      int32_t mpos, int64_t *x_out, int64_t *words_out)
{
    int64_t x = internal > 1 ? internal - 1 : 0, words = 0;
    if (lid >= 0) {
        if (lid >= pl->n_nodes)
            return -1;
        int64_t pos = pl->pos[lid], nr = pl->n_rules[lid];
        if (pos < 0 || pos >= pl->rules_per_word || nr > INT32_MAX)
            return -1;
        if (nr > 0) {  /* most leaves end in their first word: no divide */
            int64_t slot = pos + (mpos >= 0 ? mpos : nr - 1);
            words = slot < pl->rules_per_word
                    ? 1 : slot / pl->rules_per_word + 1;
        }
    }
    *x_out = x;
    *words_out = words;
    return x + words > 1 ? x + words : 1;
}

/* Header widths, checked four headers at a time: 4 * ndim fields, ndim
 * vectors of four, each ANDed with the 2^width - 1 masks at its place in
 * that run and ORed into one vector (GCC vector types, lowered to scalars
 * where the target has no SIMD), about one vector operation a header.
 * `outside` holds the inverted masks of such a run (width_masks). */
typedef uint32_t u32x4 __attribute__((vector_size(16)));
enum { WIDE = 16 };

static void width_masks(u32x4 *outside, int64_t ndim, const uint32_t *max_value)
{
    for (int64_t v = 0; v < ndim && ndim <= WIDE; v++)
        for (int i = 0; i < 4; i++)
            outside[v][i] = ~max_value[(4 * v + i) % ndim];
}

/* Whether a field of the n headers has a bit outside its mask. */
static inline __attribute__((always_inline)) uint32_t
over_width_of(const uint32_t *h, int64_t n, const int64_t ndim,
              const u32x4 *outside, const uint32_t *max_value)
{
    u32x4 over = {0, 0, 0, 0};
    int64_t p = 0;
    for (; ndim <= WIDE && p + 4 <= n; p += 4)
        for (int64_t v = 0; v < ndim; v++) {
            u32x4 x;
            memcpy(&x, h + p * ndim + 4 * v, sizeof x);
            over |= x & outside[v];
        }
    uint32_t any = over[0] | over[1] | over[2] | over[3];
    for (; p < n; p++)
        for (int64_t d = 0; d < ndim; d++)
            any |= h[p * ndim + d] & ~max_value[d];
    return any;
}

/* Inlined for the five-tuple, constant bounds, and any other width. */
static uint32_t over_width(const uint32_t *h, int64_t n, int64_t ndim,
                           const u32x4 *outside, const uint32_t *max_value)
{
    return ndim == 5 ? over_width_of(h, n, 5, outside, max_value)
                     : over_width_of(h, n, ndim, outside, max_value);
}

/* One job of a flat_walk call: its arguments, its contiguous slice
 * [lo, hi) of the packets, and the slice's code. */
enum { BLOCK_PACKETS = 256 };

typedef struct {
    const tables *t;
    const placement *pl;
    const uint32_t *headers;
    int64_t lo, hi;
    int64_t *match;
    int32_t *internal_nodes, *leaf_id, *leaf_size, *match_pos, *rules_compared;
    int64_t *occupancy, *internal_fetches, *leaf_words;
    int64_t matched, occupancy_sum;   /* the slice's tallies */
    int code;
    int64_t failed;                   /* the packet a walk error met */
} walk_job;

/* A walk error met at packet p: recorded in the job, then returned. */
static int failed_at(walk_job *j, int64_t p, int code)
{
    j->failed = p;
    return code;
}

/* Walk packets [lo, hi) root to leaf, adding the packets that matched
 * and their cycles to the job's tallies; an error stops the walk at the
 * packet that met it (j->failed). */
static int walk_block(walk_job *j, int64_t lo, int64_t hi)
{
    const tables *t = j->t;
    const placement *pl = j->pl;
    const int64_t nn = t->n_nodes, ndim = t->ndim;
    int64_t matched = 0, occupancy_sum = 0;   /* kept out of *j's stores */
    for (int64_t p = lo; p < hi; p++) {
        const uint32_t *h = j->headers + p * ndim;
        int64_t best = -1, nid = 0;
        int32_t internal = 0, lid = -1, lsize = 0, mpos = -1, compared = 0;
        for (int steps = 1; ; steps++) {
            if (steps > MAX_STEPS)
                return failed_at(j, p, ERR_STEPS);
            if (nid >= nn)
                return failed_at(j, p, ERR_RANGE);
            if (t->kind[nid] == LEAF) {
                int64_t first = match_list(
                    t->leaf_rules, t->leaf_lo, t->leaf_span, t->n_leaf,
                    t->leaf_base[nid], t->leaf_len[nid], h, ndim,
                    &best, &compared);
                if (first == -2)
                    return failed_at(j, p, ERR_RANGE);
                lid = (int32_t)nid;
                lsize = (int32_t)t->leaf_len[nid];
                mpos = (int32_t)first;   /* a miss keeps -1 */
                break;
            }
            internal++;
            if (t->push_len[nid] > 0
                && match_list(t->push_rules, t->push_lo, t->push_span,
                              t->n_push, t->push_base[nid], t->push_len[nid],
                              h, ndim, &best, &compared) == -2)
                return failed_at(j, p, ERR_RANGE);
            int64_t slot = 0, outside = 0;
            for (int64_t a = 0; a < t->naxes; a++) {
                int64_t k = a * nn + nid, dim = t->ax_dim[k], coord;
                if (dim < 0 || dim >= ndim)
                    return failed_at(j, p, ERR_RANGE);
                int64_t raw = h[dim];
                if (t->pow2) {   /* the hardware's mask/shift unit */
                    coord = (raw & t->ax_mask[k]) >> t->ax_shift[k];
                } else {         /* software tree: compacted regions */
                    int64_t lo = t->ax_lo[k], span = t->ax_span[k];
                    int64_t ncuts = t->ax_ncuts[k], v = raw - lo;
                    if (span <= 0)
                        return failed_at(j, p, ERR_RANGE);
                    outside |= raw < lo || raw > t->ax_hi[k];
                    v = v < 0 ? 0 : v > span - 1 ? span - 1 : v;
                    coord = ncuts >= span ? v : v * ncuts / span;
                }
                slot += coord * t->ax_stride[k];
            }
            int64_t base = t->child_base[nid], len = t->child_len[nid];
            if (slot < 0 || slot >= len || base < 0
                    || base > t->n_children - len)
                return failed_at(j, p, ERR_RANGE);
            nid = t->children[base + slot];
            if (nid < 0 || outside)      /* EMPTY_CHILD: the dead path */
                break;
        }
        j->match[p] = best;
        matched += best >= 0;
        if (j->internal_nodes) {
            j->internal_nodes[p] = internal;
            j->leaf_id[p] = lid;
            j->leaf_size[p] = lsize;
            j->match_pos[p] = mpos;
            j->rules_compared[p] = compared;
        }
        if (j->occupancy) {
            int64_t x, words;
            const int64_t c = cycles(pl, internal, lid, mpos, &x, &words);
            if (c < 0)
                return failed_at(j, p, ERR_RANGE);
            j->occupancy[p] = c;
            occupancy_sum += c;
            if (j->internal_fetches)
                j->internal_fetches[p] = x;
            if (j->leaf_words)
                j->leaf_words[p] = words;
        }
    }
    j->matched += matched;
    j->occupancy_sum += occupancy_sum;
    return OK;
}

/* Walk job i's slice a block at a time, each block's widths checked
 * first under a placement (PacketTrace's check, without the trace: the
 * block is then in cache for the walk).  A width error stops the slice;
 * a walk error stops the walk, not the checks, since a width error
 * anywhere is the call's error, as when PacketTrace checked before the
 * walk. */
static void walk_slice(void *jobs, int64_t i)
{
    walk_job *j = (walk_job *)jobs + i;
    const int64_t ndim = j->t->ndim;
    u32x4 outside[WIDE];
    int code = OK;
    if (j->pl)
        width_masks(outside, ndim, j->pl->max_value);
    for (int64_t b = j->lo; b < j->hi; b += BLOCK_PACKETS) {
        const int64_t e = b + BLOCK_PACKETS < j->hi ? b + BLOCK_PACKETS : j->hi;
        if (j->pl && over_width(j->headers + b * ndim, e - b, ndim, outside,
                                j->pl->max_value)) {
            code = ERR_WIDTH;
            break;
        }
        if (code == OK)
            code = walk_block(j, b, e);
    }
    j->code = code;
}

/* Whether a walk refuses its placement: cycles asked for without one,
 * or one with no rule slot in a word or another field count than the
 * tables (flat_walk and fc_serve return ERR_RANGE for it). */
static int placement_refused(const tables *t, const placement *pl,
                             const int64_t *occupancy)
{
    return (occupancy && !pl)
        || (pl && (pl->rules_per_word <= 0 || pl->ndim != t->ndim));
}

/* Walk n packets root to leaf as k = split_count(n, threads, least)
 * contiguous slices, one a job (split_run), k to *ran.  `match` is always
 * written, the five statistics arrays only when `internal_nodes` is not
 * NULL; under a placement `pl` every header's fields are checked against
 * its widths, and the cycle count goes to `occupancy` and, each when not
 * NULL, its two terms to `internal_fetches` / `leaf_words`.  When `tally`
 * is not NULL, the packets that matched and the sum of their cycles are
 * added to tally[0] and tally[1], each slice's counts summed.  Returns
 * ERR_WIDTH if a header is too wide, else the lowest failing slice's
 * code: the code of the first failing packet, as with one thread. */
int flat_walk(const tables *t, const placement *pl, const uint32_t *headers,
              int64_t n, int64_t *match, int32_t *internal_nodes,
              int32_t *leaf_id, int32_t *leaf_size, int32_t *match_pos,
              int32_t *rules_compared, int64_t *occupancy,
              int64_t *internal_fetches, int64_t *leaf_words, int64_t threads,
              int64_t least, int64_t *ran, int64_t *tally)
{
    if (placement_refused(t, pl, occupancy))
        return ERR_RANGE;
    const int64_t k = *ran = split_count(n, threads, least);
    walk_job job[MAX_THREADS];
    for (int64_t i = 0; i < k; i++)
        job[i] = (walk_job){t, pl, headers, n * i / k, n * (i + 1) / k, match,
                            internal_nodes, leaf_id, leaf_size, match_pos,
                            rules_compared, occupancy, internal_fetches,
                            leaf_words, 0, 0, OK, 0};
    split_run(k, walk_slice, NULL, job);
    int code = OK;
    for (int64_t i = 0; i < k; i++) {
        if (job[i].code == ERR_WIDTH)
            return ERR_WIDTH;
        code = code ? code : job[i].code;
    }
    for (int64_t i = 0; tally && code == OK && i < k; i++) {
        tally[0] += job[i].matched;
        tally[1] += job[i].occupancy_sum;
    }
    return code;
}
