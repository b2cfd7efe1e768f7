/* ClassBench trace text into uint32 header rows (core/packet.py, whose
 * text-mode loop is the oracle).  The pass accepts a strict subset of
 * what that loop reads: fields of 1-10 ASCII digits, each at most
 * 4294967295, separated by spaces and tabs; '#' comments and blank
 * lines; trailing columns of printable ASCII, skipped; lines ended by
 * '\n' or "\r\n" (both one line end to the loop's universal newlines).
 * Anything else (a '\r' not before '\n', a byte >= 0x80, a sign, a dot,
 * a NUL, too few columns, an overflow) refuses the call, and the caller
 * hands the whole block to the text-mode loop, so the rows never depend
 * on which side read them.  A field's digits are found and converted eight
 * bytes at a time (little-endian words, as the library's other loops
 * assume).  A call splits its lines into k contiguous slices, one a job
 * (_flat_walk.c's split_count and split_run); a line gives at most one
 * row, so each slice writes its rows where one thread would if every line
 * before it gave one, and the gaps are closed after the join. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* How many leading bytes of w are ASCII digits (0-8).  A byte carries
 * out of the + 6 only if it is >= 0xfa, not a digit, so every byte up to
 * the first non-digit is tested exactly. */
static inline int tt_run(uint64_t w)
{
    const uint64_t hi = 0xF0F0F0F0F0F0F0F0ULL, zeros = 0x3030303030303030ULL;
    uint64_t bad = ((w & hi) ^ zeros)
                 | (((w + 0x0606060606060606ULL) & hi) ^ zeros);
    return bad ? __builtin_ctzll(bad) >> 3 : 8;
}

/* The value of eight digit bytes, the first the most significant. */
static inline uint64_t tt_eight(uint64_t w)
{
    w = (w & 0x0F0F0F0F0F0F0F0FULL) * 2561 >> 8;
    w = (w & 0x00FF00FF00FF00FFULL) * 6553601 >> 16;
    return (uint32_t)((w & 0x0000FFFF0000FFFFULL) * 42949672960001ULL >> 32);
}

/* The digits at q as *value; returns how many, 0 for none or more than
 * ten.  Reads 16 bytes from q. */
static inline int tt_field(const uint8_t *q, uint64_t *value)
{
    static const uint64_t scale[] = {1, 10, 100};
    uint64_t w, w2;
    memcpy(&w, q, 8);
    int n = tt_run(w);
    if (n < 8) {  /* shift the n digits up: the zero bytes below are 0s */
        *value = n ? tt_eight(w << (64 - 8 * n)) : 0;
        return n;
    }
    memcpy(&w2, q + 8, 8);
    int m = tt_run(w2);
    if (m > 2)
        return 0;
    *value = tt_eight(w) * scale[m] + (m ? tt_eight(w2 << (64 - 8 * m)) : 0);
    return 8 + m;
}

static inline int tt_blank(uint8_t c) { return c == ' ' || c == '\t'; }

/* Whether a line ends at q: '\n', or '\r' then '\n' (q[1] is inside the
 * window whenever q[0] is a '\r' before its line's '\n'). */
static inline int tt_eol(const uint8_t *q)
{
    return *q == '\n' || (*q == '\r' && q[1] == '\n');
}

/* Sixteen bytes, compared lane by lane (GCC's vector extension: SSE2 on
 * x86-64, NEON on AArch64). */
typedef uint8_t tt_v16 __attribute__((vector_size(16)));

/* The '\n' bytes of w: bit 7 of each set, every other bit clear (exact:
 * no borrow crosses a byte). */
static inline uint64_t tt_newlines(uint64_t w)
{
    const uint64_t low7 = 0x7F7F7F7F7F7F7F7FULL;
    uint64_t x = w ^ 0x0A0A0A0A0A0A0A0AULL;
    return ~(((x & low7) + low7) | x | low7);
}

/* Cut [buf, end) (end just past a '\n') for k slices: cut t (0 < t < k)
 * ends the first line that is the (t * lines / k)-th or ends at least
 * t / k of the bytes in, so the lines before the last cut fit `lines`
 * rows whatever they hold; cut[t] is where it ends and at[t] the lines
 * before it.  Returns the slices the cuts make, fewer than k when the
 * lines run out.  Eight bytes at a time, and 64 when they hold no cut;
 * reads up to seven bytes past end. */
static int64_t tt_cuts(const uint8_t *buf, const uint8_t *end,
                       int64_t lines, int64_t k, const uint8_t **cut,
                       int64_t *at)
{
    const tt_v16 nl = (tt_v16){0} + '\n';
    const int64_t len = end - buf;
    int64_t seen = 0, t = 1, line = lines / k, byte = len / k;
    for (const uint8_t *p = buf; p < end; p += 8) {
        uint64_t w, m;
        if (end - p >= 64 && p + 64 - buf < byte) {
            tt_v16 v, lanes = {0};
            for (int i = 0; i < 4; i++) {
                memcpy(&v, p + 16 * i, 16);
                lanes -= (tt_v16)(v == nl);
            }
            uint64_t half[2];
            memcpy(half, &lanes, 16);
            int64_t c = (int64_t)(((half[0] + half[1]) * 0x0101010101010101ULL)
                                  >> 56);
            if (seen + c < line) {
                seen += c;
                p += 56;
                continue;
            }
        }
        memcpy(&w, p, 8);
        m = tt_newlines(w);
        if (end - p < 8)  /* the bytes past end are not the window's */
            m &= (1ULL << (8 * (end - p))) - 1;
        for (; m; m &= m - 1) {
            const uint8_t *q = p + (__builtin_ctzll(m) >> 3) + 1;
            for (seen++; seen >= line || q - buf >= byte; ) {
                cut[t] = q;
                at[t] = seen;
                if (++t == k)
                    return k;
                line = lines * t / k;
                byte = len * t / k;
            }
        }
    }
    return t;
}

/* One slice: whole lines [p, end) into rows at out, at most max_lines
 * lines and max_rows rows; each column's largest value raises maxes[]. */
typedef struct {
    const uint8_t *p, *end;
    int64_t ndim, max_lines, max_rows;
    uint32_t *out, *maxes;
    int64_t rows, lines;  /* parsed; p is then just past the last line */
    int code;
} tt_slice;

static void tt_lines(void *slices, int64_t t)
{
    tt_slice *s = (tt_slice *)slices + t;
    const uint8_t *p = s->p;
    const int64_t ndim = s->ndim;
    int64_t rows = 0, lines = 0;
    s->code = REFUSED;
    for (; p < s->end && lines < s->max_lines; lines++) {
        const uint8_t *q = p;
        while (tt_blank(*q))
            q++;
        if (!tt_eol(q) && *q != '#') {  /* a header row */
            if (rows == s->max_rows)
                break;
            uint32_t *row = s->out + rows * ndim;
            for (int64_t d = 0; d < ndim; d++) {
                if (d) {  /* a separator, then the next field */
                    if (!tt_blank(*q))
                        return;
                    while (tt_blank(*++q))
                        ;
                }
                uint64_t v;
                int n = tt_field(q, &v);
                if (!n || v > 0xFFFFFFFFULL)
                    return;
                row[d] = (uint32_t)v;
                if (row[d] > s->maxes[d])
                    s->maxes[d] = row[d];
                q += n;
            }
            if (!tt_eol(q) && *q != '#' && !tt_blank(*q))
                return;  /* "5x", "5.0", "5_0" */
            rows++;
        }
        /* The rest: a comment or the trailing columns, and a '\r' that
         * ends the line. */
        for (; *q != '\n'; q++)
            if ((uint8_t)(*q - 0x20) > 0x7e - 0x20 && *q != '\t'
                && !tt_eol(q))
                return;
        p = q + 1;
    }
    s->p = p;
    s->rows = rows;
    s->lines = lines;
    s->code = OK;
}

/* Parse whole lines of buf[0, len) into rows of ndim uint32 fields at
 * out, stopping after max_lines lines, before a row that would be the
 * (max_rows + 1)-th, or at the last '\n' (a line it does not end waits
 * for the next call).  used[] = {rows, bytes, lines} consumed and the
 * slices the call ran on; maxes[d] is raised to column d's largest
 * value.  Returns OK, or REFUSED on a line outside the grammar (used[]
 * and maxes[] then mean nothing).  Rows of out past used[0] are scratch.
 * buf must be readable 16 bytes past len.
 *
 * The lines are cut (tt_cuts) into up to k = split_count(lines, threads,
 * least) slices, one a job (split_run), where lines is what max_lines,
 * max_rows and the bytes allow.  Slice t < k - 1 writes the rows of its
 * lines from the row of its first line; the last parses on from its cut
 * under what is left of max_lines, and of max_rows as though every line
 * before it were a row.  After the join the rows are moved up, in order,
 * a refusal in any slice is the call's, and the calling thread parses on
 * from where the last slice stopped, with the room really left.  So the
 * rows, used[0..2], maxes and the return code are one thread's. */
int tt_parse(const uint8_t *buf, int64_t len, int64_t ndim,
             int64_t max_lines, uint32_t *out, int64_t max_rows,
             int64_t *used, uint32_t *maxes, int64_t threads, int64_t least)
{
    const uint8_t *end = buf + len;
    while (end > buf && end[-1] != '\n')
        end--;
    /* Lines that fit whatever they hold; and lines are at most bytes.
     * With none, a cut would give a slice a line it has no row for. */
    const int64_t fit = max_lines < max_rows ? max_lines : max_rows;
    const int64_t most = fit < end - buf ? fit : end - buf;
    int64_t k = most ? split_count(most, threads, least) : 1;
    const uint8_t *cut[MAX_THREADS] = {buf};
    int64_t at[MAX_THREADS] = {0};
    if (k > 1) {
        k = tt_cuts(buf, end, fit, k, cut, at);
        if (at[1] < least)  /* short lines fooled the byte count */
            k = 1;
    }
    uint32_t *max = k > 1 ? calloc((size_t)(k * ndim), sizeof *max) : NULL;
    if (!max)
        k = 1;
    tt_slice slice[MAX_THREADS];
    for (int64_t t = 0; t < k; t++) {
        const int64_t lines = t + 1 < k ? at[t + 1] - at[t] : -1;
        slice[t] = (tt_slice){cut[t], t + 1 < k ? cut[t + 1] : end, ndim,
                              lines < 0 ? max_lines - at[t] : lines,
                              lines < 0 ? max_rows - at[t] : lines,
                              out + at[t] * ndim, k > 1 ? max + t * ndim
                              : maxes, 0, 0, OK};
    }
    split_run(k, tt_lines, NULL, slice);
    /* In order: a refusal is the call's; later slices are dropped. */
    int64_t rows = 0, code = OK;
    for (int64_t t = 0; t < k && !code; t++) {
        tt_slice *s = &slice[t];
        code = s->code;
        if (s->out != out + rows * ndim)
            memmove(out + rows * ndim, s->out,
                    (size_t)(s->rows * ndim) * sizeof *out);
        rows += s->rows;
        for (int64_t d = 0; k > 1 && d < ndim; d++)
            maxes[d] = s->maxes[d] > maxes[d] ? s->maxes[d] : maxes[d];
    }
    free(max);
    if (code)
        return REFUSED;
    /* The last slice stopped at max_lines, at the window's end, or at a
     * row its share of the room lacked: parse on with the room left. */
    const tt_slice *last = &slice[k - 1];
    tt_slice tail = {last->p, end, ndim,
                     last->max_lines - last->lines, max_rows - rows,
                     out + rows * ndim, maxes, 0, 0, OK};
    tt_lines(&tail, 0);
    used[0] = rows + tail.rows;
    used[1] = tail.p - buf;
    used[2] = at[k - 1] + last->lines + tail.lines;
    used[3] = k;
    return tail.code;
}
