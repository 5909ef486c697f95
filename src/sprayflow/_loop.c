/* The closed loop of `harness.run_closed_loop` and the trajectory CSV of
   `cli`, in C, bit for bit and byte for byte.

   `_native` builds this file with -O2 -ffp-contract=off and without
   -ffast-math, and defines MAX_ORDER as plant.MAX_ORDER. Every double
   operation below is then one IEEE operation on the operands and in the
   order of the Python code it stands for: no multiply-add is fused, no
   sum reassociated. It holds no mutable static state, so threads may run
   it at once.

   sprayflow_loop runs one scenario, statement for statement as the
   plain Python loop (`harness._plain_loop`) does:
   - the plant step of `plant.step`: each dot product is accumulated
     left to right from 0.0 (`dot`, as `plant.dot`);
   - the disturbances of each port, in declaration order;
   - the PID law of `pid.pid_law`, and for fuzzy-PID the gain update of
     `adaptive.floored_gains` with its floor at zero;
   - the fuzzy inference of `fuzzy.infer`: both inputs located (`locate`,
     as `fuzzy.locate`), the four rule strengths, each output label
     clipped at the largest strength naming it, and one centroid per
     output over all seven labels (`centroid`, as `fuzzy.centroid`).
   The sum tables are `fuzzy._P_SUMS` and `fuzzy._R_SUMS`, passed in.

   sprayflow_format_rows writes CSV rows as `cli._csv_rows` writes them,
   by integer arithmetic, and refuses a block it does not cover;
   sprayflow_parse_rows reads the rows the writer writes, and refuses any
   other text. `cli` takes its Python path where either refuses. */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Defuzzification grid intervals per label spacing, fuzzy.GRID_INTERVALS. */
#define N 200.0

/* a[0] * x[0] + ... + a[n-1] * x[n-1], left to right from 0.0. The
   leading 0.0 turns a sum of -0.0 terms into 0.0. */
static double dot(const double *a, const double *x, int64_t n)
{
    double acc = 0.0;
    for (int64_t j = 0; j < n; j++)
        acc += a[j] * x[j];
    return acc;
}

/* The label k of a universe value x, and the degree w = s - k of label
   k + 1, where s = (x + 6.0) * 0.5 is clamped to [0, 6], as in
   `fuzzy.locate`; label k has degree 1.0 - w. */
static int64_t locate(double x, double *w)
{
    double s = (x + 6.0) * 0.5;
    if (s < 0.0)
        s = 0.0;
    if (s > 6.0)
        s = 6.0;
    int64_t k = (int64_t)s;
    if (k > 5)
        k = 5;
    *w = s - (double)k;
    return k;
}

/* The discrete centroid of one output's aggregate from its seven clip
   heights, as `fuzzy.centroid`. A row of p_sums holds, for
   q = floor(N - N h), the plateau length p = min(q + 1, N), the ramp sum,
   the plateau moment and the ramp moment; a row of r_sums, for
   r = floor(N g), the tent sum and the flat points of an overlap. */
static double centroid(const double heights[7], const double *p_sums, const double *r_sums)
{
    double mass = 0.0, moment = 0.0, prev = 0.0;
    for (int k = 0; k < 7; k++) {
        double h = heights[k];
        if (h > 0.0) {
            const double *p = p_sums + 4 * (int64_t)(N - N * h);
            double side = p[0] * h + p[1];
            double center = -6.0 + 2.0 * k;
            if (k == 0 || k == 6) {
                /* Cut at the universe edge: only the inner side remains. */
                double side_moment = h * p[2] + p[3];
                mass += side;
                moment += center * side + (k == 0 ? 0.01 : -0.01) * side_moment;
            } else {
                /* Both sides share the center point. */
                double full = side + side - h;
                mass += full;
                moment += center * full;
            }
            if (prev > 0.0) {
                double g = prev < h ? prev : h;
                const double *r = r_sums + 2 * (int64_t)(N * g);
                double overlap = r[0] + r[1] * g + (g < 0.5 ? g : 0.5);
                mass -= overlap;
                moment -= (center - 1.0) * overlap;
            }
        }
        prev = h;
    }
    return moment / mass;
}

/* The crisp (dKp, dKi, dKd) of the universe values qe and qec, each
   finite or an infinity. cells[3 * (7 * e + ec) + out] is the label of
   output out in the rule of error label e and rate label ec. */
static void infer(double qe, double qec, const unsigned char *cells,
                  const double *p_sums, const double *r_sums, double delta[3])
{
    double w, v;
    int64_t i = locate(qe, &w);
    int64_t j = locate(qec, &v);
    double a = 1.0 - w, b = w, c = 1.0 - v, d = v;
    int64_t rule[4] = {7 * i + j, 7 * i + j + 1, 7 * (i + 1) + j, 7 * (i + 1) + j + 1};
    double strength[4] = {a < c ? a : c, a < d ? a : d, b < c ? b : c, b < d ? b : d};
    double clips[3][7] = {{0.0}};
    for (int n = 0; n < 4; n++) {
        for (int out = 0; out < 3; out++) {
            double *h = &clips[out][cells[3 * rule[n] + out]];
            if (strength[n] > *h)
                *h = strength[n];
        }
    }
    for (int out = 0; out < 3; out++)
        delta[out] = centroid(clips[out], p_sums, r_sums);
}

/* Logs rows 0 to n_rows - 1 into u_log and y_log (and, for fuzzy-PID,
   the gains into kp_log, ki_log and kd_log) and returns the number of rows
   logged, as `harness._plain_loop` does. An input disturbance n
   acts from step us[n] on, an output one from step ys[n] on. rows holds
   the order rows of the plant step, order + 1 entries each, and c the
   output row. gains holds the resting kp, ki and kd; factors is NULL for
   PID and otherwise holds ke, kec, kup, kui and kud, with the rule labels
   in cells (see `infer`). Returns -1 for an order out of 1 .. MAX_ORDER. */
int64_t sprayflow_loop(int64_t n_rows, double dt, double r,
                       int64_t n_u, const int64_t *us, const double *um,
                       int64_t n_y, const int64_t *ys, const double *ym,
                       double *u_log, double *y_log,
                       double *kp_log, double *ki_log, double *kd_log,
                       int64_t order, const double *rows, const double *c,
                       const double *gains, const double *factors,
                       const unsigned char *cells,
                       const double *p_sums, const double *r_sums)
{
    /* The state, then the input: a row of rows dotted with it is the
       next value of one state entry. */
    double x[MAX_ORDER + 1], next[MAX_ORDER];
    double kp = gains[0], ki = gains[1], kd = gains[2];
    if (order < 1 || order > MAX_ORDER)
        return -1;
    for (int64_t i = 0; i < order; i++)
        x[i] = 0.0;
    double y = 0.0;
    for (int64_t n = 0; n < n_y; n++)
        if (ys[n] <= 0)
            y += ym[n];
    double e = r - y;
    if (!isfinite(e))
        return 0;
    y_log[0] = y;
    /* e - e is +0.0 for a finite e, so the first step's rate is 0.0. */
    double e_prev = e;
    double integral = 0.0;
    for (int64_t k = 1; k < n_rows; k++) {
        /* Step k: the controller acts on row k-1, then the plant advances. */
        double rate = (e - e_prev) / dt;
        e_prev = e;
        if (factors) {
            double delta[3];
            infer(e * factors[0], rate * factors[1], cells, p_sums, r_sums, delta);
            kp = gains[0] + factors[2] * delta[0];
            if (!(kp > 0.0))
                kp = 0.0;
            ki = gains[1] + factors[3] * delta[1];
            if (!(ki > 0.0))
                ki = 0.0;
            kd = gains[2] + factors[4] * delta[2];
            if (!(kd > 0.0))
                kd = 0.0;
            kp_log[k] = kp;
            ki_log[k] = ki;
            kd_log[k] = kd;
        }
        integral += e * dt;
        double u = kp * e + ki * integral + kd * rate;
        for (int64_t n = 0; n < n_u; n++)
            if (k >= us[n])
                u += um[n];
        x[order] = u;
        for (int64_t i = 0; i < order; i++)
            next[i] = dot(rows + i * (order + 1), x, order + 1);
        for (int64_t i = 0; i < order; i++)
            x[i] = next[i];
        y = dot(c, x, order);
        for (int64_t n = 0; n < n_y; n++)
            if (k >= ys[n])
                y += ym[n];
        e = r - y;
        if (!isfinite(e))
            return k;
        u_log[k] = u;
        y_log[k] = y;
    }
    return n_rows;
}


/* The digits of 0 to 99, two per number. */
static const char DIGITS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Writes the CSV rows of a block of n_rows rows of n_cols doubles into
   out and returns the number of bytes written, at most 19 per value.
   Value (i, j) is the double at values + i * row_step + j * col_step
   bytes, so a transposed or sliced array is read in place. Each value v
   is written as `cli._csv_rows` writes it, the exact value v * 10**9
   rounded to an integer, ties to even, printed with nine fractional
   digits: with x = v * 1e9 and n = rint(x), a '-' when v < 0, the whole
   part of |n| / 10**9 with no leading zero, the point, nine fraction
   digits and a comma, or LF after the last value of a row. That n is
   the integer `cli._csv_rows` prints when |x| < 2**52 and
   |x - n| != 0.5: then ulp(x) <= 0.5, so x - n and 0.5 are both
   multiples of ulp(x) and |x - n| <= 0.5 - ulp(x), while the exact
   product lies within ulp(x) / 2 of x, hence strictly within 0.5 of n.
   Returns -1, having written part of out, where a value is not finite
   or has |x| >= 2**52 or |x - n| == 0.5, which that arithmetic does not
   cover. */
int64_t sprayflow_format_rows(const char *values, int64_t n_rows, int64_t n_cols,
                              int64_t row_step, int64_t col_step, char *out)
{
    char *p = out;
    for (int64_t i = 0; i < n_rows; i++) {
        for (int64_t j = 0; j < n_cols; j++) {
            double v;
            memcpy(&v, values + i * row_step + j * col_step, sizeof v);
            double x = v * 1e9;
            double n = rint(x);
            if (!(fabs(x) < 0x1p52 && fabs(x - n) != 0.5))
                return -1;
            /* |n| < 2**52, so the whole part has at most 7 digits. */
            int64_t scaled = (int64_t)fabs(n);
            int32_t whole = (int32_t)(scaled / 1000000000);
            int32_t frac = (int32_t)(scaled - (int64_t)whole * 1000000000);
            if (v < 0.0)
                *p++ = '-';
            char digits[7];
            int k = 7;
            do {
                digits[--k] = (char)('0' + whole % 10);
                whole /= 10;
            } while (whole);
            memcpy(p, digits + k, (size_t)(7 - k));
            p += 7 - k;
            *p++ = '.';
            /* The first 4 and the last 5 fraction digits, in two chains
               of divisions that do not wait on each other. */
            int32_t hi = frac / 100000, lo = frac - 100000 * hi;
            memcpy(p + 2, DIGITS + 2 * (hi % 100), 2);
            memcpy(p, DIGITS + 2 * (hi / 100), 2);
            memcpy(p + 7, DIGITS + 2 * (lo % 100), 2);
            memcpy(p + 5, DIGITS + 2 * (lo / 100 % 100), 2);
            p[4] = (char)('0' + lo / 10000);
            p += 9;
            *p++ = j + 1 < n_cols ? ',' : '\n';
        }
    }
    return p - out;
}

/* 2**53: every integer below it is a double. */
#define EXACT_LIMIT 9007199254740992u

/* Reads the field at *at: an optional '-', 1 to 7 whole digits, the
   point, 9 fraction digits, then the byte sep. Stores its value, moves
   *at past sep and returns 1; returns 0 where the field may go on past
   end, and -1 where a byte differs from that form or the integer n of all
   its digits is 2**53 or more. The value is n / 1e9, negated after a '-':
   n and 1e9 are doubles, so the one division rounds the decimal value
   correctly, to the bits of Python's float() of the field. */
static int field(const char **at, const char *end, char sep, double *value)
{
    const char *p = *at;
    int negative = p < end && *p == '-';
    p += negative;
    uint64_t whole = 0;
    int digits = 0;
    while (p < end && *p >= '0' && *p <= '9') {
        if (++digits > 7)
            return -1;
        whole = 10 * whole + (uint64_t)(*p++ - '0');
    }
    if (p == end)
        return 0;
    if (digits == 0 || *p++ != '.')
        return -1;
    if (end - p < 10)
        return 0;
    uint32_t hi = 0, lo = 0;
    for (int k = 0; k < 4; k++) {
        uint32_t d = (uint32_t)(unsigned char)p[k] - '0';
        if (d > 9)
            return -1;
        hi = 10 * hi + d;
    }
    for (int k = 4; k < 9; k++) {
        uint32_t d = (uint32_t)(unsigned char)p[k] - '0';
        if (d > 9)
            return -1;
        lo = 10 * lo + d;
    }
    uint64_t n = (whole * 10000 + hi) * 100000 + lo;
    if (p[9] != sep || n >= EXACT_LIMIT)
        return -1;
    /* Through int64_t, whose conversion to double is one instruction on
       x86-64 where that of uint64_t is not; n < 2**53 either way. */
    double v = (double)(int64_t)n / 1e9;
    *value = negative ? -v : v;
    *at = p + 10;
    return 1;
}

/* Reads the whole rows of text[0 .. len) into values, n_cols fields per
   row (see `field`), the last followed by LF and every other by a comma,
   and sets *used to the end of the last whole row read. Returns the
   number of rows read, at most max_rows, or -1 where a byte differs from
   that form or more than max_rows rows begin. A row cut off by the end
   of text is left unread, for the caller to pass again with the text
   that follows it. */
int64_t sprayflow_parse_rows(const char *text, int64_t len, int64_t n_cols,
                             double *values, int64_t max_rows, int64_t *used)
{
    const char *p = text, *end = text + len;
    int64_t rows = 0;
    *used = 0;
    while (p < end) {
        if (rows == max_rows)
            return -1;
        for (int64_t j = 0; j < n_cols; j++) {
            int status = field(&p, end, j + 1 < n_cols ? ',' : '\n', values + rows * n_cols + j);
            if (status <= 0)
                return status < 0 ? -1 : rows;
        }
        rows++;
        *used = p - text;
    }
    return rows;
}
