/*
 * The C kernel tier: the paper's density and force loops (Figs. 1-2) over
 * one contiguous pair slice, and the CSR Verlet list they run over, each
 * entry point one GIL-free call.
 *
 * Built on first use by repro.kernels.c_tier with `cc -O3 -ffp-contract=off
 * -shared -fPIC -lm` (no -ffast-math, no -march, no OpenMP; no fused
 * multiply-add, so every product rounds as NumPy's does) and called
 * through ctypes.
 * Nothing here validates input: the caller checks every index against the
 * arrays it addresses before the call, and routes anything that is not a
 * C-contiguous float64 / int64 ndarray to the NumPy tier.
 *
 * Each pass is three loops: the geometry (the minimum-image fold without a
 * libm call), the potential terms over r, then the scatters.  The
 * arithmetic of the geometry and of the force coefficient is the NumPy
 * tier's, operation for operation; the potential terms follow the NumPy
 * expressions in the same order, with the platform libm's exp where NumPy
 * may use its own.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* keep in step with repro.kernels.lowering */
#define KIND_JOHNSON 0
#define KIND_TABULATED 1

typedef struct {
    double x_lo, x_hi; /* the inside test, tolerance included */
    double x0, h;
    int64_t n;
    const double *y, *m; /* knot values and second derivatives */
} spline;

typedef struct {
    int64_t kind;
    double re, fe, beta, D, a, r_switch, r_cut, F0, rho_e; /* Johnson */
    spline density, pair, embed; /* tabulated; density and pair share a grid */
    double rho_max;
} eam_potential;

/* Box.minimum_image's fold of one component, d - floor(d / L + 0.5) * L,
 * without libm's floor (a call at baseline x86-64).  Most pairs sit in
 * one cell image, floor 0, and are returned as they are (d - 0 * L == d);
 * the rest truncate and step down where truncation rounded up, exact for
 * every finite s (|s| >= 2^52 is integral already, NaN passes through). */
static inline double fold(double d, double L)
{
    const double s = d / L + 0.5;
    if (s >= 0.0 && s < 1.0)
        return d;
    double t = s;
    if (fabs(s) < 4503599627370496.0) {
        t = (double)(int64_t)s;
        if (t > s)
            t -= 1.0;
    }
    return d - t * L;
}

/* delta[k] = pos[i] - pos[j] folded by minimum image (lengths[a] == 0 for
 * an open axis), r[k] = |delta[k]|: the NumPy tier's arithmetic, so both
 * are bit-identical to it. */
static void geometry(const double *pos, const int64_t *ii, const int64_t *jj,
                     int64_t n, const double *lengths, double *delta,
                     double *r)
{
    for (int64_t k = 0; k < n; k++) {
        const double *a = pos + 3 * ii[k], *b = pos + 3 * jj[k];
        double r2 = 0.0;
        for (int axis = 0; axis < 3; axis++) {
            double d = a[axis] - b[axis];
            if (lengths[axis] > 0.0)
                d = fold(d, lengths[axis]);
            delta[3 * k + axis] = d;
            r2 += d * d;
        }
        r[k] = sqrt(r2);
    }
}

/* The NumPy tier's check_pair_separation: the slot of the first minimum
 * of r when it is below min_sep, else -1.  As there, a NaN distance
 * anywhere hides the overlap (the NaN reaches the forces instead). */
static int64_t closest_pair(const double *r, int64_t n, double min_sep)
{
    int64_t closest = -1;
    int nan = 0;
    double best = min_sep;
    for (int64_t k = 0; k < n; k++) {
        if (r[k] < best) {
            best = r[k];
            closest = k;
        }
        nan |= r[k] != r[k];
    }
    return nan ? -1 : closest;
}

/* Locate x on a spline's grid: 0 outside the table, else 1 with the
 * interval k and the offset w into it (CubicSpline.locate). */
static inline int spline_locate(const spline *s, double x, int64_t *k,
                                double *w)
{
    if (!(x >= s->x_lo && x <= s->x_hi))
        return 0;
    double u = (x - s->x0) / s->h;
    int64_t kk = (int64_t)u;
    if (kk < 0)
        kk = 0;
    if (kk > s->n - 2)
        kk = s->n - 2;
    *k = kk;
    *w = (u - (double)kk) * s->h;
    return 1;
}

/* value and slope of interval k at offset w (CubicSpline._interval) */
static inline void spline_eval(const spline *s, int64_t k, double w,
                               double *value, double *slope)
{
    const double h = s->h;
    double y0 = s->y[k], y1 = s->y[k + 1];
    double m0 = s->m[k], m1 = s->m[k + 1];
    double b = (y1 - y0) / h - h * (2.0 * m0 + m1) / 6.0;
    double dm = m1 - m0;
    *value = y0 + b * w + 0.5 * m0 * (w * w) + dm / (6.0 * h) * (w * w * w);
    *slope = b + m0 * w + dm / (2.0 * h) * (w * w);
}

/* (phi, phi', V') per pair into the three arrays; returns sum V */
static double pair_terms(const eam_potential *p, const double *r, int64_t n,
                         double *phi, double *dphi, double *dv)
{
    double energy = 0.0;
    if (p->kind == KIND_JOHNSON) {
        /* JohnsonFePotential.pair_terms */
        const double width = p->r_cut - p->r_switch;
        const double ds_scale = -30.0 / width;
        const double slope = -p->beta / p->re;
        const double dv_scale = 2.0 * p->a * p->D;
        for (int64_t k = 0; k < n; k++) {
            double x = (r[k] - p->r_switch) / width;
            if (x >= 1.0) { /* s = s' = 0: exact zeros from r_cut on */
                phi[k] = dphi[k] = dv[k] = 0.0;
                continue;
            }
            if (x < 0.0)
                x = 0.0;
            double s = 1.0 - x * x * x * (10.0 + x * (6.0 * x - 15.0));
            double ds = x * (1.0 - x);
            ds *= ds;
            ds *= ds_scale;
            double dr = r[k] - p->re;
            double raw = exp(slope * dr) * p->fe;
            double ph = raw * s;
            phi[k] = ph;
            dphi[k] = slope * ph + raw * ds;
            double e2 = exp(-p->a * dr);
            double e1 = e2 * e2;
            double raw_v = p->D * (e1 - 2.0 * e2);
            dv[k] = (e2 - e1) * dv_scale * s + raw_v * ds;
            energy += raw_v * s;
        }
    } else {
        /* TabulatedEAM.pair_terms: one locate serves both tables */
        for (int64_t k = 0; k < n; k++) {
            int64_t cell;
            double w, v;
            if (!spline_locate(&p->density, r[k], &cell, &w)) {
                phi[k] = dphi[k] = dv[k] = 0.0;
                continue;
            }
            spline_eval(&p->density, cell, w, &phi[k], &dphi[k]);
            spline_eval(&p->pair, cell, w, &v, &dv[k]);
            energy += v;
        }
    }
    return energy;
}

/* rho[i] += phi (and rho[j] += phi for a half list), pair by pair */
void eam_scatter_density(const int64_t *ii, const int64_t *jj, int64_t n,
                         const double *phi, int64_t half, double *rho)
{
    for (int64_t k = 0; k < n; k++) {
        rho[ii[k]] += phi[k];
        if (half)
            rho[jj[k]] += phi[k];
    }
}

/*
 * The density pass of one pair slice: geometry into (delta, r), the
 * overlap check, then - with a potential - (phi, phi', V') into the three
 * term arrays, sum V into *energy and, with an accumulator, phi scattered
 * into rho.  Returns the closest overlapping pair's slot (nothing past
 * the geometry written) or -1.  pot == NULL stops after the check: the
 * caller evaluates the terms and calls eam_scatter_density.
 */
int64_t eam_density(const double *pos, const int64_t *ii, const int64_t *jj,
                    int64_t n, const double *lengths, double min_sep,
                    const eam_potential *pot, int64_t half, double *rho,
                    double *delta, double *r, double *phi, double *dphi,
                    double *dv, double *energy)
{
    geometry(pos, ii, jj, n, lengths, delta, r);
    const int64_t closest = closest_pair(r, n, min_sep);
    if (closest >= 0 || pot == 0)
        return closest;
    *energy = pair_terms(pot, r, n, phi, dphi, dv);
    if (rho != 0)
        eam_scatter_density(ii, jj, n, phi, half, rho);
    return -1;
}

/*
 * The force pass of a slice the density pass handed over: Eq. 2's
 * coefficient -(V' + (F'_i + F'_j) phi') / r times delta, written per pair
 * into pair_forces and/or scattered into forces (+ on i, - on j for a half
 * list).  min_sep > 0 first checks r for an overlap and returns its slot
 * before anything is written; returns -1 otherwise.
 */
int64_t eam_force(const int64_t *ii, const int64_t *jj, int64_t n,
                  const double *fp, const double *delta, const double *r,
                  const double *dphi, const double *dv, double min_sep,
                  int64_t half, double *forces, double *pair_forces)
{
    if (min_sep > 0.0) {
        int64_t closest = closest_pair(r, n, min_sep);
        if (closest >= 0)
            return closest;
    }
    for (int64_t k = 0; k < n; k++) {
        const int64_t i = ii[k], j = jj[k];
        const double coeff = -(dv[k] + (fp[i] + fp[j]) * dphi[k]) / r[k];
        for (int axis = 0; axis < 3; axis++) {
            const double f = coeff * delta[3 * k + axis];
            if (pair_forces != 0)
                pair_forces[3 * k + axis] = f;
            if (forces != 0) {
                forces[3 * i + axis] += f;
                if (half)
                    forces[3 * j + axis] -= f;
            }
        }
    }
    return -1;
}

/* F'(rho) per atom into fp; returns sum F(rho) (eam_embedding_phase) */
double eam_embedding(const eam_potential *p, const double *rho, int64_t n,
                     double *fp)
{
    double energy = 0.0;
    if (p->kind == KIND_JOHNSON) {
        const double scale = -0.5 * p->F0;
        for (int64_t k = 0; k < n; k++) {
            const double x = rho[k];
            energy += -p->F0 * sqrt((x < 0.0 ? 0.0 : x) / p->rho_e);
            fp[k] = scale / sqrt((x < 1e-12 ? 1e-12 : x) * p->rho_e);
        }
    } else {
        for (int64_t k = 0; k < n; k++) {
            double x = rho[k], value = 0.0, slope = 0.0, w;
            int64_t cell;
            x = x < 0.0 ? 0.0 : (x > p->rho_max ? p->rho_max : x);
            if (spline_locate(&p->embed, x, &cell, &w))
                spline_eval(&p->embed, cell, w, &value, &slope);
            energy += value;
            fp[k] = slope;
        }
    }
    return energy;
}

/* ------------------------------------------------------------------------
 * The neighbour build: repro.md.neighbor.verlet's CSR Verlet list.
 * ------------------------------------------------------------------------ */

/* CellList.forward_stencil's 13 offsets, (dx, dy, dz) > (0, 0, 0) */
static const int64_t FORWARD[13][3] = {
    {0, 0, 1},  {0, 1, -1},  {0, 1, 0},  {0, 1, 1},  {1, -1, -1},
    {1, -1, 0}, {1, -1, 1},  {1, 0, -1}, {1, 0, 0},  {1, 0, 1},
    {1, 1, -1}, {1, 1, 0},   {1, 1, 1},
};

/* Slot a against slots [b0, b1), whose atoms are seen at xs[b] + shift:
 * NumPy's arithmetic, d = x_j - (x_i - shift) and r^2 = ((0 + dx^2) + dy^2)
 * + dz^2 (adding to an exact 0 is exact).  Each survivor is counted, and
 * stored as atom indices (min, max) while count < cap. */
static int64_t scan(const double *xs, const int64_t *order, int64_t a,
                    const double *shift, int64_t b0, int64_t b1,
                    double reach2, int64_t count, int64_t cap,
                    int64_t *first, int64_t *second)
{
    const double x = xs[3 * a] - shift[0], y = xs[3 * a + 1] - shift[1],
                 z = xs[3 * a + 2] - shift[2];
    for (int64_t b = b0; b < b1; b++) {
        const double dx = xs[3 * b] - x, dy = xs[3 * b + 1] - y,
                     dz = xs[3 * b + 2] - z;
        if (dx * dx + dy * dy + dz * dz <= reach2) {
            if (count < cap) {
                const int64_t i = order[a], j = order[b];
                first[count] = i < j ? i : j;
                second[count] = i < j ? j : i;
            }
            count++;
        }
    }
    return count;
}

/* One row of a CSR payload into ascending order: rows are short, so
 * insertion sort, with qsort for the long rows of a dense clump. */
static int compare_i64(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

static void sort_row(int64_t *v, int64_t len)
{
    if (len > 64) {
        qsort(v, (size_t)len, sizeof *v, compare_i64);
        return;
    }
    for (int64_t k = 1; k < len; k++) {
        const int64_t x = v[k];
        int64_t p = k;
        for (; p > 0 && v[p - 1] > x; p--)
            v[p] = v[p - 1];
        v[p] = x;
    }
}

/*
 * Pairs (first[k], second[k]) packed into n CSR rows, with (second[k],
 * first[k]) too when mirror is set: a counting sort on the row, then each
 * row sorted.  offsets holds n + 1 entries, values m (2m mirrored).  The
 * same rows as NumPy's sort on the key i*n + j, duplicates included.
 */
void nbr_pack(const int64_t *first, const int64_t *second, int64_t m,
              int64_t n, int64_t mirror, int64_t *offsets, int64_t *values)
{
    for (int64_t k = 0; k <= n; k++)
        offsets[k] = 0;
    for (int64_t k = 0; k < m; k++) {
        offsets[first[k] + 1]++;
        if (mirror)
            offsets[second[k] + 1]++;
    }
    for (int64_t k = 0; k < n; k++)
        offsets[k + 1] += offsets[k];
    /* offsets[i] is the write cursor of row i; each stops at the next
     * row's start, so shifting them up one restores the starts */
    for (int64_t k = 0; k < m; k++) {
        values[offsets[first[k]]++] = second[k];
        if (mirror)
            values[offsets[second[k]]++] = first[k];
    }
    for (int64_t k = n; k > 0; k--)
        offsets[k] = offsets[k - 1];
    offsets[0] = 0;
    for (int64_t k = 0; k < n; k++)
        sort_row(values + offsets[k], offsets[k + 1] - offsets[k]);
}

/*
 * The Verlet list of n atoms whose positions xs (n x 3) are in cell order
 * (slot s holds atom order[s]; cell c holds slots [starts[c], starts[c+1])
 * of an n_cells grid): every pair within sqrt(reach2) once, found by
 * CellList.forward_stencil's walk - each cell's interior, then each of its
 * 13 forward neighbours, wrapped with a +-L shift on a periodic axis and
 * dropped off an open one.  Returns the number of pairs m.  With m <= cap
 * the pairs are in first/second and packed by nbr_pack into offsets and
 * values (room for cap, 2 cap mirrored); with m > cap nothing past cap
 * was written and the caller retries with cap >= m.
 */
int64_t nbr_build(const double *xs, const int64_t *order, int64_t n,
                  const int64_t *starts, const int64_t *n_cells,
                  const int64_t *periodic, const double *lengths,
                  double reach2, int64_t mirror, int64_t cap,
                  int64_t *first, int64_t *second, int64_t *offsets,
                  int64_t *values)
{
    static const double zero[3] = {0.0, 0.0, 0.0};
    int64_t count = 0, cell[3];
    for (cell[0] = 0; cell[0] < n_cells[0]; cell[0]++)
    for (cell[1] = 0; cell[1] < n_cells[1]; cell[1]++)
    for (cell[2] = 0; cell[2] < n_cells[2]; cell[2]++) {
        const int64_t c = (cell[0] * n_cells[1] + cell[1]) * n_cells[2] + cell[2];
        const int64_t a0 = starts[c], a1 = starts[c + 1];
        for (int64_t a = a0; a < a1; a++)
            count = scan(xs, order, a, zero, a + 1, a1, reach2, count, cap,
                         first, second);
        for (int o = 0; a0 < a1 && o < 13; o++) {
            int64_t target[3];
            double shift[3];
            int open_step = 0;
            for (int axis = 0; axis < 3; axis++) {
                const int64_t t = cell[axis] + FORWARD[o][axis];
                const int64_t image = t < 0 ? -1 : (t >= n_cells[axis] ? 1 : 0);
                open_step |= image != 0 && !periodic[axis];
                target[axis] = t - image * n_cells[axis];
                shift[axis] = (double)image * lengths[axis];
            }
            if (open_step)
                continue;
            const int64_t d =
                (target[0] * n_cells[1] + target[1]) * n_cells[2] + target[2];
            for (int64_t a = a0; a < a1; a++)
                count = scan(xs, order, a, shift, starts[d], starts[d + 1],
                             reach2, count, cap, first, second);
        }
    }
    if (count <= cap)
        nbr_pack(first, second, count, n, mirror, offsets, values);
    return count;
}
