/* HyperCutsBuilder._search_combo for one node in one call (cs_search):
 * the exhaustive enumeration or the greedy ascent over power-of-two cut
 * vectors, each combination's largest child from a k-dimensional
 * difference array.  _partition.py's coord_spans and max_count_grid,
 * and hypercuts.py's search around them, are the oracle: the same spans,
 * the same counts, the same (maxc, prod, exps) choice, and the numbers
 * of evaluations and of spans the builder charges to its OpCounter.
 * native.py builds this file into one library after _prefilter.c. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One search: the rule bounds of each candidate axis (raw, clipped to
 * the region when a span is computed), each axis's spans by exponent,
 * computed once, and the best / fallback (maxc, prod, exps). */
typedef struct {
    int64_t k, n, lo_bound, hi_bound;
    const int64_t *bounds;     /* (k, 2, n): rule lo, rule hi */
    const int64_t *region;     /* (k, 2): region lo, hi */
    const int64_t *max_exp;    /* (k) */
    int64_t max_e;
    int32_t **spans;           /* [i * (max_e + 1) + e]: n firsts, n lasts + 1 */
    int64_t *diff;             /* the difference array, 2^k hi_bound cells */
    int64_t *best, *fallback;  /* maxc, prod, exps[k]; prod 0: none */
    int64_t *evals, *n_spans;  /* evaluations by cut axes; spans computed */
} search;

/* coord_spans of axis i at 2^e cuts: each rule's first child and its
 * last + 1, computed on first use; 0 when out of memory. */
static int axis_spans(search *s, int64_t i, int64_t e)
{
    const int64_t at = i * (s->max_e + 1) + e;
    if (s->spans[at])
        return 1;
    const int64_t n = s->n, ncuts = (int64_t)1 << e;
    const int64_t lo = s->region[2 * i], hi = s->region[2 * i + 1];
    const int64_t width = hi - lo + 1;
    const int64_t *rlo = s->bounds + 2 * i * n, *rhi = rlo + n;
    int32_t *first = malloc((size_t)(2 * n) * sizeof *first);
    if (!first)
        return 0;
    int32_t *end = first + n;
    for (int64_t r = 0; r < n; r++) {
        const int64_t clo = (rlo[r] > lo ? rlo[r] : lo) - lo;
        const int64_t chi = (rhi[r] < hi ? rhi[r] : hi) - lo;
        first[r] = (int32_t)(ncuts >= width ? clo : clo * ncuts / width);
        end[r] = (int32_t)(ncuts >= width ? chi : chi * ncuts / width) + 1;
    }
    s->spans[at] = first;
    ++*s->n_spans;
    return 1;
}

/* max_count_grid over the axes exps cuts: +-1 at every corner of each
 * rule's child box (a corner's axis at the rule's last + 1 subtracts),
 * in a grid of ncuts + 1 cells per axis, then prefix sums along every
 * axis and the largest count in the ncuts-per-axis core.  -1 when out of
 * memory; n + 1 (and nothing counted) when exps cuts nothing. */
static int64_t evaluate(search *s, const int64_t *exps)
{
    int64_t axis[8], size[8], stride[8], j = 0, cells = 1;
    for (int64_t i = 0; i < s->k; i++)
        if (exps[i]) {
            if (!axis_spans(s, i, exps[i]))
                return -1;
            axis[j] = i;
            size[j++] = ((int64_t)1 << exps[i]) + 1;
        }
    if (!j)
        return s->n + 1;
    s->evals[j]++;
    for (int64_t d = j - 1; d >= 0; d--) {
        stride[d] = cells;
        cells *= size[d];
    }
    int64_t *diff = s->diff;
    memset(diff, 0, (size_t)cells * sizeof *diff);
    const int32_t *lo[8], *up[8];
    for (int64_t d = 0; d < j; d++) {
        const int64_t at = axis[d] * (s->max_e + 1) + exps[axis[d]];
        lo[d] = s->spans[at];
        up[d] = s->spans[at] + s->n;
    }
    for (int64_t r = 0; r < s->n; r++)
        for (int64_t corner = 0; corner < (int64_t)1 << j; corner++) {
            int64_t cell = 0, sign = 1;
            for (int64_t d = 0; d < j; d++) {
                const int upper = corner >> d & 1;
                cell += (upper ? up[d][r] : lo[d][r]) * stride[d];
                sign = upper ? -sign : sign;
            }
            diff[cell] += sign;
        }
    /* Prefix sums along axis d: cell t of every row from cell t - 1. */
    for (int64_t d = 0; d < j; d++) {
        const int64_t row = size[d] * stride[d];
        for (int64_t base = 0; base < cells; base += row)
            for (int64_t t = 1; t < size[d]; t++)
                for (int64_t q = 0; q < stride[d]; q++)
                    diff[base + t * stride[d] + q] +=
                        diff[base + (t - 1) * stride[d] + q];
    }
    /* The core: every coordinate below its axis's ncuts. */
    int64_t most = 0, coord[8] = {0};
    for (int64_t cell = 0;;) {
        if (diff[cell] > most)
            most = diff[cell];
        int64_t d = j - 1;
        while (d >= 0 && coord[d] == size[d] - 2) {
            cell -= coord[d] * stride[d];
            coord[d--] = 0;
        }
        if (d < 0)
            break;
        coord[d]++;
        cell += stride[d];
    }
    return most;
}

/* (maxc, prod, exps) < key, compared as Python compares the tuples. */
static int less(const search *s, int64_t maxc, int64_t prod,
                const int64_t *exps, const int64_t *key)
{
    if (maxc != key[0])
        return maxc < key[0];
    if (prod != key[1])
        return prod < key[1];
    for (int64_t i = 0; i < s->k; i++)
        if (exps[i] != key[2 + i])
            return exps[i] < key[2 + i];
    return 0;
}

/* hypercuts.py's consider: best respects the lo_bound floor, fallback
 * keeps the best smaller combination of at least two children. */
static void consider(search *s, int64_t maxc, int64_t prod,
                     const int64_t *exps)
{
    const int64_t least = s->lo_bound > 2 ? s->lo_bound : 2;
    int64_t *key = prod >= least ? s->best : prod >= 2 ? s->fallback : NULL;
    if (key && (!key[1] || less(s, maxc, prod, exps, key))) {
        key[0] = maxc;
        key[1] = prod;
        memcpy(key + 2, exps, (size_t)s->k * sizeof *exps);
    }
}

/* Every admissible exponent vector, axis i onwards: the exhaustive
 * branch's recursion.  0 when out of memory. */
static int enumerate(search *s, int64_t i, int64_t *exps, int64_t prod)
{
    if (i == s->k) {
        const int64_t maxc = evaluate(s, exps);
        if (maxc < 0)
            return 0;
        consider(s, maxc, prod, exps);
        return 1;
    }
    for (int64_t e = 0;; e++) {
        exps[i] = e;
        if (!enumerate(s, i + 1, exps, prod << e))
            return 0;
        if (e + 1 > s->max_exp[i] || (prod << (e + 1)) > s->hi_bound)
            break;
    }
    exps[i] = 0;
    return 1;
}

/* The greedy branch: add one bit of cutting to the axis that minimises
 * the largest child, the lower axis on a tie.  0 when out of memory. */
static int ascend(search *s, int64_t *exps)
{
    for (int64_t prod = 1; prod < s->hi_bound;) {
        int64_t step_maxc = 0, step_axis = -1;
        for (int64_t i = 0; i < s->k; i++) {
            if (exps[i] >= s->max_exp[i] || prod * 2 > s->hi_bound)
                continue;
            exps[i]++;
            const int64_t maxc = evaluate(s, exps);
            exps[i]--;
            if (maxc < 0)
                return 0;
            if (step_axis < 0 || maxc < step_maxc) {
                step_maxc = maxc;
                step_axis = i;
            }
        }
        if (step_axis < 0)
            break;
        exps[step_axis]++;
        prod <<= 1;
        consider(s, step_maxc, prod, exps);
    }
    return 1;
}

/* One node's combination search over k candidate axes of n rules:
 * bounds (k, 2, n) and region (k, 2) as _axis_bounds gives them,
 * max_exp (k) each axis's largest exponent, exhaustive the branch the
 * caller chose.  out gets the best then the fallback (maxc, prod,
 * exps[k]), prod 0 for none; evals[j] (k + 1 cells) the combinations of
 * j cut axes evaluated, *n_spans the spans computed.  REFUSED (nothing
 * written) when a rule lies outside the region on some axis, or the
 * search is outside what this file sizes for (more than 8 axes, more
 * than 2^30 cuts on one); on that and on ERR_MEMORY the caller takes
 * the NumPy search. */
int cs_search(const int64_t *bounds, const int64_t *region,
              const int64_t *max_exp, int64_t k, int64_t n,
              int64_t lo_bound, int64_t hi_bound, int64_t exhaustive,
              int64_t *out, int64_t *evals, int64_t *n_spans)
{
    if (k < 1 || k > 8 || n < 1 || hi_bound < 2)
        return REFUSED;
    int64_t max_e = 0;
    for (int64_t i = 0; i < k; i++) {
        if (max_exp[i] < 0 || max_exp[i] > 30
            || region[2 * i] > region[2 * i + 1])
            return REFUSED;
        max_e = max_exp[i] > max_e ? max_exp[i] : max_e;
        const int64_t *rlo = bounds + 2 * i * n, *rhi = rlo + n;
        for (int64_t r = 0; r < n; r++)
            if (rlo[r] > region[2 * i + 1] || rhi[r] < region[2 * i]
                || rlo[r] > rhi[r])
                return REFUSED;
    }
    const int64_t n_spans_max = k * (max_e + 1);
    int64_t exps[8] = {0};
    search s = {k, n, lo_bound, hi_bound, bounds, region, max_exp, max_e,
                calloc((size_t)n_spans_max, sizeof(int32_t *)),
                malloc(((size_t)hi_bound << k) * sizeof(int64_t)),
                out, out + 2 + k, evals, n_spans};
    memset(out, 0, (size_t)(2 * (2 + k)) * sizeof *out);
    memset(evals, 0, (size_t)(k + 1) * sizeof *evals);
    *n_spans = 0;
    int ok = s.spans && s.diff;
    if (ok)
        ok = exhaustive ? enumerate(&s, 0, exps, 1) : ascend(&s, exps);
    for (int64_t at = 0; s.spans && at < n_spans_max; at++)
        free(s.spans[at]);
    free(s.spans), free(s.diff);
    return ok ? OK : ERR_MEMORY;
}
