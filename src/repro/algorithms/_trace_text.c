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
 * assume). */
#include <stdint.h>
#include <string.h>

enum { TT_REFUSED = 1 };

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

/* Parse whole lines of buf[0, len) into rows of ndim uint32 fields at
 * out, stopping after max_lines lines, before a row that would be the
 * (max_rows + 1)-th, or at the last '\n' (a line it does not end waits
 * for the next call).  used[] = {rows, bytes, lines} consumed.  Returns
 * 0, or TT_REFUSED on a line outside the grammar (used[] then means
 * nothing).  buf must be readable 16 bytes past len. */
int tt_parse(const uint8_t *buf, int64_t len, int64_t ndim,
             int64_t max_lines, uint32_t *out, int64_t max_rows,
             int64_t *used)
{
    const uint8_t *p = buf, *end = buf + len;
    while (end > buf && end[-1] != '\n')
        end--;
    int64_t rows = 0, lines = 0;
    for (; p < end && lines < max_lines; lines++) {
        const uint8_t *q = p;
        while (tt_blank(*q))
            q++;
        if (!tt_eol(q) && *q != '#') {  /* a header row */
            if (rows == max_rows)
                break;
            uint32_t *row = out + rows * ndim;
            for (int64_t d = 0; d < ndim; d++) {
                if (d) {  /* a separator, then the next field */
                    if (!tt_blank(*q))
                        return TT_REFUSED;
                    while (tt_blank(*++q))
                        ;
                }
                uint64_t v;
                int n = tt_field(q, &v);
                if (!n || v > 0xFFFFFFFFULL)
                    return TT_REFUSED;
                row[d] = (uint32_t)v;
                q += n;
            }
            if (!tt_eol(q) && *q != '#' && !tt_blank(*q))
                return TT_REFUSED;  /* "5x", "5.0", "5_0" */
            rows++;
        }
        /* The rest: a comment or the trailing columns, and a '\r' that
         * ends the line. */
        for (; *q != '\n'; q++)
            if ((uint8_t)(*q - 0x20) > 0x7e - 0x20 && *q != '\t'
                && !tt_eol(q))
                return TT_REFUSED;
        p = q + 1;
    }
    used[0] = rows;
    used[1] = p - buf;
    used[2] = lines;
    return 0;
}
