/* The paper's micro-cluster stream-maintenance rule, compiled.
 *
 * A line-for-line port of the scalar reference `_absorb_stream_python`
 * in cf.py.  Every floating-point operation happens in the same order
 * as there, so a build with -ffp-contract=off (no fused multiply-add)
 * and without -ffast-math is bitwise-equal to the reference:
 *
 *   - nearest cluster: a left-to-right fold of squared differences
 *     (centroid - point) from 0.0, strict `<` so ties go to the lowest
 *     index;
 *   - sqrt of that, then the deviation fold over the nearest row, then
 *     the max(deviation, radius_floor) branch;
 *   - absorb (row updates and a fresh centroid), or spawn and, over
 *     budget, merge the first closest pair in row-major order and shift
 *     the later rows up.
 *
 * Cluster rows live in caller-owned row-major buffers with room for
 * max(n, max_clusters) + 1 rows; `ctr` is scratch for the centroids.
 * Returns the final row count; stats[] receives spawned, absorbed and
 * merged event counts.
 */
#include <math.h>
#include <string.h>

static double sq_dist(const double *a, const double *b, long d)
{
    double acc = 0.0;
    for (long k = 0; k < d; k++) {
        double diff = a[k] - b[k];
        acc += diff * diff;
    }
    return acc;
}

static void set_centroid(double *ctr, const double *ls, double c, long d)
{
    for (long k = 0; k < d; k++)
        ctr[k] = ls[k] / c;
}

static void spawn(double *cnt, double *wts, double *ls, double *ss,
                  double *ctr, long j, const double *p, double w, long d)
{
    cnt[j] = 1.0;
    wts[j] = w;
    for (long k = 0; k < d; k++) {
        ls[j * d + k] = p[k];
        ss[j * d + k] = p[k] * p[k];
        ctr[j * d + k] = p[k];
    }
}

static void merge_closest(double *cnt, double *wts, double *ls, double *ss,
                          double *ctr, long n, long d)
{
    long keep = 0, drop = 1;
    double best = INFINITY;
    for (long i = 0; i < n; i++)
        for (long j = i + 1; j < n; j++) {
            double acc = sq_dist(ctr + i * d, ctr + j * d, d);
            if (acc < best) {
                best = acc;
                keep = i;
                drop = j;
            }
        }
    cnt[keep] += cnt[drop];
    wts[keep] += wts[drop];
    for (long k = 0; k < d; k++) {
        ls[keep * d + k] += ls[drop * d + k];
        ss[keep * d + k] += ss[drop * d + k];
    }
    long tail = n - drop - 1;
    memmove(cnt + drop, cnt + drop + 1, tail * sizeof(double));
    memmove(wts + drop, wts + drop + 1, tail * sizeof(double));
    memmove(ls + drop * d, ls + (drop + 1) * d, tail * d * sizeof(double));
    memmove(ss + drop * d, ss + (drop + 1) * d, tail * d * sizeof(double));
    memmove(ctr + drop * d, ctr + (drop + 1) * d, tail * d * sizeof(double));
    set_centroid(ctr + keep * d, ls + keep * d, cnt[keep], d);
}

long absorb_stream(double *cnt, double *wts, double *ls, double *ss,
                   double *ctr, long n, long d, const double *pts,
                   const double *pw, long npts, double radius_floor,
                   long max_clusters, long *stats)
{
    for (long j = 0; j < n; j++)
        set_centroid(ctr + j * d, ls + j * d, cnt[j], d);
    for (long i = 0; i < npts; i++) {
        const double *p = pts + i * d;
        if (n == 0) {
            spawn(cnt, wts, ls, ss, ctr, 0, p, pw[i], d);
            n = 1;
            stats[0]++;
            continue;
        }
        long near = 0;
        double best = INFINITY;
        for (long j = 0; j < n; j++) {
            double acc = sq_dist(ctr + j * d, p, d);
            if (acc < best) {
                near = j;
                best = acc;
            }
        }
        double distance = sqrt(best);
        double total = 0.0, c = cnt[near];
        double *row_ls = ls + near * d, *row_ss = ss + near * d;
        for (long k = 0; k < d; k++) {
            double mean = row_ls[k] / c;
            total += row_ss[k] / c - mean * mean;
        }
        if (0.0 > total)
            total = 0.0;
        double dev = sqrt(total);
        if (distance <= (radius_floor > dev ? radius_floor : dev)) {
            cnt[near] += 1.0;
            wts[near] += pw[i];
            for (long k = 0; k < d; k++) {
                row_ls[k] += p[k];
                row_ss[k] += p[k] * p[k];
            }
            set_centroid(ctr + near * d, row_ls, cnt[near], d);
            stats[1]++;
            continue;
        }
        spawn(cnt, wts, ls, ss, ctr, n, p, pw[i], d);
        n++;
        stats[0]++;
        if (n > max_clusters) {
            merge_closest(cnt, wts, ls, ss, ctr, n, d);
            n--;
            stats[2]++;
        }
    }
    return n;
}
