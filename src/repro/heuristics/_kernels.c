/*
 * Whole-run greedy kernels, loaded through ctypes by native.py.
 *
 * Each entry point maps every task of one ETC matrix under the
 * deterministic tie policy and writes the commits (task row, machine
 * column, start time, in commit order) into caller-owned arrays; the
 * ready-time vector is advanced in place.  No entry point allocates or
 * keeps state, so calls from several threads never interfere.
 *
 * Decisions match the Python kernels exactly:
 *   - completion times are the IEEE sums ETC + ready, built with
 *     -ffp-contract=off and without -ffast-math;
 *   - two times tie when their difference is within
 *     max(ABS_TOL, REL_TOL * v), v the larger one (every completion
 *     time is strictly positive, see repro.core.ties);
 *   - task ties go to the oldest row, machine ties to the lowest index.
 *
 * values[r * ld + m] is the ETC of task row r on machine m.
 */

#include <stdint.h>
#include <string.h>

#define ABS_TOL 1e-12
#define REL_TOL 1e-9

/* Tolerance scale of a strictly positive value. */
static double tol_of(double v)
{
    double tol = REL_TOL * v;
    return tol < ABS_TOL ? ABS_TOL : tol;
}

/* Exact minimum of v[m] + ready[m] over the machines. */
static double row_min(const double *v, const double *ready, int64_t M)
{
    double best = v[0] + ready[0];
    for (int64_t m = 1; m < M; m++) {
        double ct = v[m] + ready[m];
        if (ct < best)
            best = ct;
    }
    return best;
}

/* First machine whose completion time ties with the minimum ``best``. */
static int64_t first_tied(const double *v, const double *ready, int64_t M,
                          double best)
{
    for (int64_t m = 0; m < M; m++) {
        double ct = v[m] + ready[m];
        if (ct - best <= tol_of(ct))
            return m;
    }
    return 0; /* unreachable: the minimum ties with itself */
}

/*
 * Two-phase Min-Min (sign > 0) or Max-Min (sign < 0).
 *
 * live[] holds the unmapped rows in ascending order and best[] each
 * one's minimum completion time.  A commit raises one machine's ready
 * time, so only rows whose minimum sat in that column are re-reduced.
 * Workspace: live and best, T entries each.
 */
void rk_two_phase(const double *values, int64_t ld, int64_t T, int64_t M,
                  int sign, double *ready, int64_t *rows, int64_t *cols,
                  double *starts, int64_t *live, double *best)
{
    int64_t n = T;
    for (int64_t r = 0; r < T; r++) {
        live[r] = r;
        best[r] = row_min(values + r * ld, ready, M);
    }
    for (int64_t k = 0; k < T; k++) {
        int64_t p = 0;
        if (sign > 0) {
            double target = best[0];
            for (int64_t i = 1; i < n; i++)
                if (best[i] < target)
                    target = best[i];
            while (best[p] - target > tol_of(best[p]))
                p++;
        } else {
            double peak = best[0];
            for (int64_t i = 1; i < n; i++)
                if (best[i] > peak)
                    peak = best[i];
            double tol = tol_of(peak);
            while (peak - best[p] > tol)
                p++;
        }
        int64_t r = live[p];
        const double *v = values + r * ld;
        int64_t c = first_tied(v, ready, M, best[p]);
        double start = ready[c];
        ready[c] = start + v[c];
        rows[k] = r;
        cols[k] = c;
        starts[k] = start;

        n--;
        memmove(live + p, live + p + 1, (size_t)(n - p) * sizeof *live);
        memmove(best + p, best + p + 1, (size_t)(n - p) * sizeof *best);
        for (int64_t i = 0; i < n; i++) {
            const double *w = values + live[i] * ld;
            if (w[c] + start <= best[i])
                best[i] = row_min(w, ready, M);
        }
    }
}

/*
 * MCT: every task, in row order, to its earliest-completion machine.
 *
 * With ``subsets`` (T x k machine columns, ascending per row) each task
 * only considers its own row of columns: K-Percent Best.  Pass NULL
 * and k = M for MCT.
 */
void rk_mct(const double *values, int64_t ld, int64_t T, int64_t M,
            const int64_t *subsets, int64_t k, double *ready, int64_t *rows,
            int64_t *cols, double *starts)
{
    for (int64_t r = 0; r < T; r++) {
        const double *v = values + r * ld;
        int64_t c;
        if (subsets == NULL) {
            c = first_tied(v, ready, M, row_min(v, ready, M));
        } else {
            const int64_t *sub = subsets + r * k;
            double best = v[sub[0]] + ready[sub[0]];
            for (int64_t j = 1; j < k; j++) {
                double ct = v[sub[j]] + ready[sub[j]];
                if (ct < best)
                    best = ct;
            }
            c = sub[0];
            for (int64_t j = 0; j < k; j++) {
                double ct = v[sub[j]] + ready[sub[j]];
                if (ct - best <= tol_of(ct)) {
                    c = sub[j];
                    break;
                }
            }
        }
        double start = ready[c];
        ready[c] = start + v[c];
        rows[r] = r;
        cols[r] = c;
        starts[r] = start;
    }
}

/*
 * Sufferage: passes over the pending list until every task is mapped.
 *
 * Each pass gives every pending task its earliest-completion machine
 * and sufferage value (second-earliest minus earliest completion time,
 * 0 with one machine), runs step ii.c as the sequential scan in list
 * order, and commits the machines' holders in row order.  Every task
 * left pending lost its machine to a holder whose commit raised that
 * machine's ready time, so all of them are decided afresh next pass.
 * ``bounds[p]`` receives the commit count after pass p; returns the
 * number of passes.  Workspace: pending, chosen and suff (T entries),
 * holder (M entries).
 */
int64_t rk_sufferage(const double *values, int64_t ld, int64_t T, int64_t M,
                     double *ready, int64_t *rows, int64_t *cols,
                     double *starts, int64_t *bounds, int64_t *pending,
                     int64_t *chosen, double *suff, int64_t *holder)
{
    int64_t n = T, done = 0, passes = 0;
    for (int64_t r = 0; r < T; r++)
        pending[r] = r;
    while (n > 0) {
        for (int64_t i = 0; i < n; i++) {
            const double *v = values + pending[i] * ld;
            int64_t c = first_tied(v, ready, M, row_min(v, ready, M));
            double earliest = v[c] + ready[c];
            double second = 0.0;
            int seen = 0;
            for (int64_t m = 0; m < M; m++) {
                if (m == c)
                    continue;
                double ct = v[m] + ready[m];
                if (!seen || ct < second) {
                    second = ct;
                    seen = 1;
                }
            }
            chosen[i] = c;
            suff[i] = seen ? second - earliest : 0.0;
        }
        for (int64_t m = 0; m < M; m++)
            holder[m] = -1;
        for (int64_t i = 0; i < n; i++) {
            int64_t m = chosen[i], incumbent = holder[m];
            if (incumbent < 0 || suff[incumbent] < suff[i] - ABS_TOL)
                holder[m] = i;
        }
        int64_t kept = 0;
        for (int64_t i = 0; i < n; i++) {
            int64_t r = pending[i], c = chosen[i];
            if (holder[c] == i) {
                double start = ready[c];
                ready[c] = start + values[r * ld + c];
                rows[done] = r;
                cols[done] = c;
                starts[done] = start;
                done++;
            } else {
                pending[kept++] = r;
            }
        }
        n = kept;
        bounds[passes++] = done;
    }
    return passes;
}
