/*
 * The C kernel tier: the paper's density and force loops (Figs. 1-2) over
 * one contiguous pair slice, the whole SDC parallel region of one worker
 * (Figs. 7-8: every colour, the embedding and every barrier) and the team
 * of helpers - threads, or processes over a shared block - that walks it
 * beside the caller, the two halves of a
 * velocity-Verlet step, and the CSR Verlet list they run over (its bin
 * pass, its scan and its pack), each entry point one GIL-free call.
 *
 * Built on first use by repro.kernels.c_tier with `cc -O3 -ffp-contract=off
 * -shared -fPIC -pthread -lm` (no fast-math, no CPU-specific target flags,
 * no OpenMP; no fused multiply-add, so every product rounds as NumPy's does)
 * and called through ctypes.  One function, johnson_block, is compiled once
 * per SIMD width and the dynamic loader picks the widest the CPU runs.
 * Nothing here validates input but the Verlet passes' species indices and
 * the bin pass's finite coordinates: the caller checks every other index
 * against the arrays it addresses before the call, and routes anything
 * that is not a C-contiguous float64 / int64 (int32 types) ndarray to the
 * NumPy tier.
 *
 * Each pass is three loops: the geometry (the minimum-image fold without a
 * libm call), the potential terms over r, then the scatters.  The
 * arithmetic of the geometry and of the force coefficient is the NumPy
 * tier's, operation for operation; the potential terms follow the NumPy
 * expressions in the same order, with an exp of this file's own where
 * NumPy may use its own.
 */

#define _GNU_SOURCE
#include <limits.h>
#include <math.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>
#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#endif

/* One function compiled per SIMD width: the loader's ifunc resolver picks
 * the clone once, at load, from what the CPU reports - so the flags, and
 * the library's cache key, name no CPU.  x86-64 glibc only (ifunc);
 * anywhere else LANES is empty and the function is plain. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define EAM_CLONES 1
#define LANES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef LANES
#define LANES
#endif

/* The clone of johnson_block the loader picked, by the resolver's own
 * test: "avx512f", "avx2", or "default" (also wherever there are none) */
const char *eam_simd(void)
{
#ifdef EAM_CLONES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "default";
}

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

/* A double's bits, and back: integer operations on these are the
 * branch-free tests and selects below (a comparison's 0/1, or a
 * conditional, may not vectorize at all) */
static inline uint64_t bits_of(double d)
{
    uint64_t bits;
    memcpy(&bits, &d, sizeof bits);
    return bits;
}

static inline double double_of(uint64_t bits)
{
    double d;
    memcpy(&d, &bits, sizeof d);
    return d;
}

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
 * are bit-identical to it.  |d| < L/4 puts d / L + 0.5 inside [0, 1), where
 * fold returns d unchanged, so only a component near half a box pays the
 * division (md_kick_drift's rule).  Returns 0 when every r is at least
 * min_sep: for r >= 0 that is bits(r) >= bits(min_sep), and a word whose
 * top bit collects bits(r) - bits(min_sep) keeps the common case out of
 * closest_pair's second pass.  A NaN r may or may not set it: either way
 * the answer is closest_pair's, -1. */
static int geometry(const double *pos, const int64_t *ii, const int64_t *jj,
                    int64_t n, const double *lengths, double min_sep,
                    double *delta, double *r)
{
    const uint64_t sep = bits_of(min_sep);
    uint64_t below = 0;
    double quarter[3];
    for (int axis = 0; axis < 3; axis++)
        quarter[axis] = 0.25 * lengths[axis];
    for (int64_t k = 0; k < n; k++) {
        const double *a = pos + 3 * ii[k], *b = pos + 3 * jj[k];
        double r2 = 0.0;
        for (int axis = 0; axis < 3; axis++) {
            double d = a[axis] - b[axis];
            if (lengths[axis] > 0.0 && !(fabs(d) < quarter[axis]))
                d = fold(d, lengths[axis]);
            delta[3 * k + axis] = d;
            r2 += d * d;
        }
        const double rk = sqrt(r2);
        r[k] = rk;
        below |= bits_of(rk) - sep;
    }
    return (int)(below >> 63);
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

/* Pairs per Johnson block: the V buffer's length */
#define BLOCK 256

/* exp(x) for |x| < 700, within 2 ulp of the exact value (1.44 ulp the
 * largest error against long-double expl over 2e7 arguments, half of them
 * uniform on |x| < 700, half on |x| < 12): Cody-Waite
 * reduction x = k ln2 + t (|t| <= ln2 / 2; ln2's high part has its low
 * bits zero, so k * LN2_HI is exact), the Taylor series of e^t to t^13
 * by Estrin's scheme, and 2^k from the bits of the rounding shift - a
 * normal double for every |k| <= 1010.  Branch-free scalar IEEE
 * arithmetic, so every lane of every SIMD width rounds alike. */
static inline double poly_exp(double x)
{
    const double LOG2E = 1.4426950408889634, SHIFT = 6755399441055744.0;
    const double LN2_HI = 6.93147180369123816490e-01,
                 LN2_LO = 1.90821492927058770002e-10;
    const double shifted = x * LOG2E + SHIFT; /* k rounded, in the low bits */
    const double k = shifted - SHIFT;
    const double t = (x - k * LN2_HI) - k * LN2_LO;
    const double t2 = t * t, t4 = t2 * t2, t8 = t4 * t4;
    const double p23 = 1.0 / 2 + t * (1.0 / 6),
                 p45 = 1.0 / 24 + t * (1.0 / 120),
                 p67 = 1.0 / 720 + t * (1.0 / 5040),
                 p89 = 1.0 / 40320 + t * (1.0 / 362880),
                 p1011 = 1.0 / 3628800 + t * (1.0 / 39916800),
                 p1213 = 1.0 / 479001600 + t * (1.0 / 6227020800);
    const double p13 = t + t2 * p23, p47 = p45 + t2 * p67,
                 p811 = p89 + t2 * p1011;
    const double p17 = p13 + t4 * p47, p813 = p811 + t4 * p1213;
    /* the leading 1 added last, to a sum of at most 0.42 */
    const double poly = 1.0 + (p17 + t8 * p813);
    /* shifted and SHIFT share an exponent: their bits differ by k */
    return poly * double_of((bits_of(shifted) - bits_of(SHIFT) + 1023) << 52);
}

/* all ones where d's sign bit is set, else 0 */
static inline uint64_t sign_mask(double d)
{
    return -(bits_of(d) >> 63);
}

/*
 * JohnsonFePotential.pair_terms over n <= BLOCK pairs, with no branch:
 * (phi, phi', V') into the three arrays and V into v.  x is the NumPy
 * clip's, (r - r_switch) / width above r_switch and 0 below, and from
 * r_cut on (x >= 1) every output is masked to an exact zero.  Returns
 * nonzero when any exponent's argument is NaN or outside |x| < 700, where
 * poly_exp does not hold: the caller redoes such a block with libm.
 */
LANES static int johnson_block(const eam_potential *p,
                               const double *restrict r, int64_t n,
                               double *restrict phi, double *restrict dphi,
                               double *restrict dv, double *restrict v)
{
    const double r_switch = p->r_switch, re = p->re, fe = p->fe, D = p->D;
    const double width = p->r_cut - r_switch;
    const double ds_scale = -30.0 / width;
    const double slope = -p->beta / re;
    const double minus_a = -p->a;
    const double dv_scale = 2.0 * p->a * D;
    /* below 700.0's bits, as an integer, lie exactly the non-negative
     * doubles < 700: NaN and everything from 700 on sit above */
    const uint64_t limit = bits_of(700.0) - 1;
    uint64_t outside = 0;
    for (int64_t k = 0; k < n; k++) {
        const double rk = r[k];
        const double above = (rk - r_switch) / width;
        /* NumPy's clip at 0: a negative quotient becomes +0 */
        const double x = double_of(bits_of(above) & ~sign_mask(above));
        /* all ones below r_cut, where x - 1 < 0 */
        const uint64_t near = sign_mask(x - 1.0);
        const double s = 1.0 - x * x * x * (10.0 + x * (6.0 * x - 15.0));
        double ds = x * (1.0 - x);
        ds *= ds;
        ds *= ds_scale;
        const double dr = rk - re;
        const double arg_phi = slope * dr, arg_v = minus_a * dr;
        /* the top bit set where |arg| >= 700 or NaN */
        outside |= (limit - bits_of(fabs(arg_phi))) |
                   (limit - bits_of(fabs(arg_v)));
        const double raw = poly_exp(arg_phi) * fe;
        const double ph = raw * s;
        const double e2 = poly_exp(arg_v);
        const double e1 = e2 * e2;
        const double raw_v = D * (e1 - 2.0 * e2);
        phi[k] = double_of(bits_of(ph) & near);
        dphi[k] = double_of(bits_of(slope * ph + raw * ds) & near);
        dv[k] = double_of(bits_of((e2 - e1) * dv_scale * s + raw_v * ds) & near);
        v[k] = double_of(bits_of(raw_v * s) & near);
    }
    return (int)(outside >> 63);
}

/* The same terms pair by pair with libm's exp: the block's fallback */
static void johnson_libm(const eam_potential *p, const double *r, int64_t n,
                         double *phi, double *dphi, double *dv, double *v)
{
    const double width = p->r_cut - p->r_switch;
    const double ds_scale = -30.0 / width;
    const double slope = -p->beta / p->re;
    const double dv_scale = 2.0 * p->a * p->D;
    for (int64_t k = 0; k < n; k++) {
        double x = (r[k] - p->r_switch) / width;
        if (x >= 1.0) { /* s = s' = 0: exact zeros from r_cut on */
            phi[k] = dphi[k] = dv[k] = v[k] = 0.0;
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
        v[k] = raw_v * s;
    }
}

/* (phi, phi', V') per pair into the three arrays; returns sum V, added
 * pair by pair in slot order */
static double pair_terms(const eam_potential *p, const double *r, int64_t n,
                         double *phi, double *dphi, double *dv)
{
    double energy = 0.0;
    if (p->kind == KIND_JOHNSON) {
        /* JohnsonFePotential.pair_terms, a block at a time */
        double v[BLOCK];
        for (int64_t lo = 0; lo < n; lo += BLOCK) {
            const int64_t m = n - lo < BLOCK ? n - lo : BLOCK;
            if (johnson_block(p, r + lo, m, phi + lo, dphi + lo, dv + lo, v))
                johnson_libm(p, r + lo, m, phi + lo, dphi + lo, dv + lo, v);
            for (int64_t k = 0; k < m; k++)
                energy += v[k];
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
    const int64_t closest = geometry(pos, ii, jj, n, lengths, min_sep, delta, r)
                                ? closest_pair(r, n, min_sep)
                                : -1;
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
 * The SDC walker: one worker's share of a whole evaluation, barriers
 * included - the per-colour Python path of repro.core.strategies (and of
 * the process workers) in one call.
 * ------------------------------------------------------------------------ */

/* keep in step with repro.parallel.backends.workers.BARRIER_SPINS */
#define BARRIER_SPINS 64
/* int64 words per barrier line: one cache line each */
#define LINE 8

/* What every worker of one evaluation shares.  The barrier block is
 * ColorBarrier's, word for word: word 0 the abort word, word LINE*(1+k)
 * waiter k's arrival generation. */
typedef struct {
    const eam_potential *pot;
    double *pos;
    const int64_t *pair_i, *pair_j;
    double lengths[3];
    double min_sep;
    int64_t n_colors;
    double *rho, *fp, *forces;
    double *delta, *r, *phi, *dphi, *dv; /* slot-aligned with pair_i */
    int64_t *barrier;
    int64_t n_waiters;
    int64_t parent; /* > 0: a forked waiter exits once this pid is not its parent */
    /* Worker 0 of a forked team - their parent - watches helper k's pipe end
     * watch[k - 1] and gives up at CLOCK_MONOTONIC `deadline`; NULL: no watch */
    const int32_t *watch;
    double deadline;
    /* A step ring (kick != 0): velocity Verlet's halves around the walk,
     * each over the worker's rows.  KICK_DRIFT: md_kick_drift from ref (its
     * max squared displacement into slot word 0), the rows' rho and forces
     * zeroed, one barrier, then SDC_REBUILD unless every worker moved at
     * most half_skin; KICK: md_kick last, its 7 moments into words 1..7.
     * slots: LINE doubles per waiter. */
    int64_t kick;
    double *vel, *slots;
    const double *ref, *scale, *mass;
    const int32_t *types;
    int64_t n_types;
    double half_dt, dt, half_skin;
} sdc_shared;

static double clock_s(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)((int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec) / 1e9;
}

/* Whether the parent gives up on forked helper k: its pipe stirs (it died,
 * or left the team and wrote) or the walk's deadline passed. */
static int helper_lost(const sdc_shared *s, int64_t k)
{
    struct pollfd end = {.fd = s->watch[k - 1], .events = POLLIN};
    return clock_s() > s->deadline || poll(&end, 1, 0) > 0;
}

/* ColorBarrier.wait: arrive at `generation`, return 1 once every waiter
 * has, 0 when the abort word reaches `base` (a sibling left).  Every 1024
 * spins a forked waiter checks for its parent and the parent for its
 * helpers; a lost helper sets the abort word. */
static int barrier_wait(const sdc_shared *s, int64_t waiter,
                        int64_t generation, int64_t base)
{
    int64_t *words = s->barrier;
    __atomic_thread_fence(__ATOMIC_SEQ_CST); /* my scatters before my arrival */
    __atomic_store_n(&words[LINE * (1 + waiter)], generation, __ATOMIC_RELEASE);
    for (int64_t spins = 0;; spins++) {
        int64_t k = 0;
        while (k < s->n_waiters &&
               __atomic_load_n(&words[LINE * (1 + k)], __ATOMIC_ACQUIRE) >=
                   generation)
            k++;
        if (k == s->n_waiters)
            break;
        if (__atomic_load_n(&words[0], __ATOMIC_ACQUIRE) >= base)
            return 0;
        if (spins <= BARRIER_SPINS)
            continue;
        sched_yield();
        if (spins % 1024)
            continue;
        if (s->parent > 0 && getppid() != s->parent && getpid() != s->parent)
            _exit(1);
        for (k = 1; s->watch && waiter == 0 && k < s->n_waiters; k++)
            if (helper_lost(s, k)) {
                __atomic_store_n(&words[0], generation, __ATOMIC_RELEASE);
                return 0;
            }
    }
    __atomic_thread_fence(__ATOMIC_SEQ_CST);
    return 1;
}

#define SDC_DONE (-1)
#define SDC_ABORTED (-2)
#define SDC_LOST (-3)    /* a forked helper its parent gave up on */
#define SDC_REBUILD (-4) /* a step ring's atoms moved past half the skin */
#define KICK_DRIFT 1
#define KICK 2

int64_t md_kick_drift(double *restrict pos, double *restrict vel,
                      const double *restrict forces,
                      const int32_t *restrict types,
                      const double *restrict scale, int64_t n_types,
                      int64_t n, double half_dt, double dt,
                      const double *lengths, const double *restrict ref,
                      double *moved2);
int64_t md_kick(double *restrict vel, const double *restrict forces,
                const int32_t *restrict types, const double *restrict scale,
                const double *restrict mass, int64_t n_types, int64_t n,
                double half_dt, double *out);

/*
 * Worker `waiter`'s share of one SDC evaluation: its pair range of each
 * colour through eam_density (ranges[2c], ranges[2c + 1]), a barrier
 * after each; eam_embedding over its rows [row_lo, row_hi), a barrier;
 * its ranges again through eam_force, a barrier after each - 2C + 1
 * barriers, generations base, base + 1, ...  energies[c] is colour c's
 * pair-energy partial and energies[C] the embedding energy; marks (when
 * given) gets CLOCK_MONOTONIC seconds at the start, at every barrier's
 * entry and exit, and at the end.  Returns SDC_DONE; SDC_ABORTED when a
 * sibling left; or the pair slot of an overlap this worker found, after
 * setting the abort word (nothing past the pair's geometry written).  A
 * step ring (s->kick) runs the kick-drift and its barrier first - one
 * barrier more, SDC_REBUILD after it when an atom moved too far - and the
 * closing kick after the last barrier, before the end mark.
 */
int64_t sdc_walk(const sdc_shared *s, const int64_t *ranges, int64_t row_lo,
                 int64_t row_hi, int64_t waiter, int64_t base,
                 double *energies, double *marks)
{
    const int64_t n_colors = s->n_colors, rows = row_hi - row_lo;
    int64_t generation = base, m = 0;
    if (marks)
        marks[m++] = clock_s();
#define MEET()                                                               \
    do {                                                                     \
        if (marks)                                                           \
            marks[m++] = clock_s();                                          \
        if (!barrier_wait(s, waiter, generation++, base))                    \
            return SDC_ABORTED;                                              \
        if (marks)                                                           \
            marks[m++] = clock_s();                                          \
    } while (0)
    if (s->kick & KICK_DRIFT) {
        if (md_kick_drift(s->pos + 3 * row_lo, s->vel + 3 * row_lo,
                          s->forces + 3 * row_lo, s->types + row_lo, s->scale,
                          s->n_types, rows, s->half_dt, s->dt, s->lengths,
                          s->ref + 3 * row_lo, s->slots + LINE * waiter)) {
            __atomic_store_n(&s->barrier[0], generation, __ATOMIC_RELEASE);
            return SDC_ABORTED;
        }
        memset(s->rho + row_lo, 0, (size_t)rows * sizeof(double));
        memset(s->forces + 3 * row_lo, 0, 3 * (size_t)rows * sizeof(double));
        MEET();
        double most = 0.0;
        int nan = 0;
        for (int64_t k = 0; k < s->n_waiters; k++) {
            const double moved2 = s->slots[LINE * k];
            most = moved2 > most ? moved2 : most;
            nan |= moved2 != moved2;
        }
        /* Simulation.ensure_neighbor_list's test; half_skin < 0 forces it */
        if (nan || !(sqrt(most) <= s->half_skin))
            return SDC_REBUILD;
    }
    for (int64_t c = 0; c < n_colors; c++) {
        const int64_t lo = ranges[2 * c], n = ranges[2 * c + 1] - lo;
        const int64_t closest = eam_density(
            s->pos, s->pair_i + lo, s->pair_j + lo, n, s->lengths, s->min_sep,
            s->pot, 1, s->rho, s->delta + 3 * lo, s->r + lo, s->phi + lo,
            s->dphi + lo, s->dv + lo, &energies[c]);
        if (closest >= 0) {
            __atomic_store_n(&s->barrier[0], generation, __ATOMIC_RELEASE);
            return lo + closest;
        }
        MEET();
    }
    energies[n_colors] = eam_embedding(s->pot, s->rho + row_lo,
                                       row_hi - row_lo, s->fp + row_lo);
    MEET();
    for (int64_t c = 0; c < n_colors; c++) {
        const int64_t lo = ranges[2 * c], n = ranges[2 * c + 1] - lo;
        /* the density pass checked these distances */
        eam_force(s->pair_i + lo, s->pair_j + lo, n, s->fp, s->delta + 3 * lo,
                  s->r + lo, s->dphi + lo, s->dv + lo, 0.0, 1, s->forces, 0);
        MEET();
    }
#undef MEET
    if ((s->kick & KICK) &&
        md_kick(s->vel + 3 * row_lo, s->forces + 3 * row_lo, s->types + row_lo,
                s->scale, s->mass, s->n_types, rows, s->half_dt,
                s->slots + LINE * waiter + 1))
        return SDC_ABORTED;
    if (marks)
        marks[m] = clock_s();
    return SDC_DONE;
}

/* ------------------------------------------------------------------------
 * The team: the OpenMP team of the paper's region.  The caller is worker 0,
 * the master thread, and runs its own share through sdc_walk between
 * sdc_team_ring and sdc_team_settle; helpers 1 .. p - 1 persist between
 * walks.  A helper waits on the doorbell - BARRIER_SPINS spins,
 * sched_yield() for up to TEAM_SPIN_S, then a futex sleep (sched_yield
 * elsewhere) - walks its job of the ring, and posts the walk's status and
 * the ring's number to its own cache line.  One loop serves two kinds of
 * team: sdc_team_start makes p - 1 threads around a malloc'd block (a
 * private futex), and sdc_team_place lays a block out in a shared mapping
 * for helpers the caller forks, each of which runs sdc_team_serve (a
 * shared futex, its sleep bounded so that it sees its parent die).
 * ------------------------------------------------------------------------ */

/* After a walk a helper keeps yielding this long before it sleeps: the
 * caller's gap between the walks of two MD steps (8,192 atoms, p = 2) is
 * 55-75 us (p50) of driver alone where a step is one ring, 0.25-0.45 ms
 * where the integrator's halves run between walks (the process engine),
 * and a futex wake costs ~15 us where a yielding helper answers in ~1 us */
#define TEAM_SPIN_S 1e-3
/* A forked helper's longest futex sleep: how soon it sees its parent gone */
#define ORPHAN_CHECK_NS 100000000L

/* Worker k's share of one walk: sdc_walk's per-worker arguments */
typedef struct {
    const int64_t *ranges;
    int64_t row_lo, row_hi;
    double *energies, *marks;
} sdc_job;

/* A helper's line, written by that helper alone but for `cpu` */
typedef struct {
    int64_t ring;   /* the last ring it answered */
    int64_t status; /* that ring's walk: SDC_DONE, SDC_ABORTED or a slot */
    int64_t cpu;    /* the CPU it is bound to, or -1 */
    int64_t pad[LINE - 3];
} team_line;

typedef struct sdc_team sdc_team;

typedef struct {
    sdc_team *team;
    int64_t k; /* its worker index */
    pthread_t thread;
} team_helper;

struct sdc_team {
    /* written by the caller alone: the doorbell and the ring's walk */
    uint32_t bell; /* the ring count: the futex word */
    uint32_t stop; /* set before the last ring: the helpers exit */
    int64_t n_workers, base;
    const sdc_shared *shared;
    const sdc_job *jobs; /* jobs[k] for 0 < k < n_workers */
    int64_t n_helpers, home; /* home: cpus[0], or -1 */
    int64_t futex_flags;     /* FUTEX_PRIVATE_FLAG for a team of threads */
    team_helper *helpers;    /* the threads of sdc_team_start */
    _Alignas(64) int64_t sleepers; /* helpers in (or entering) a futex wait */
    _Alignas(64) team_line lines[]; /* lines[k - 1]: helper k's */
};

/* Worker 0 walks on cpus[0].  The caller is not bound - it is the
 * program's own thread - so where it stands on a helper's CPU, left
 * there by whatever it ran before, it steps home and keeps its mask. */
static void team_home(const sdc_team *t)
{
#ifdef __linux__
    const int here = sched_getcpu();
    cpu_set_t mask, home;
    for (int64_t k = 0; k < t->n_helpers; k++)
        if (t->lines[k].cpu == here) {
            if (sched_getaffinity(0, sizeof mask, &mask) ||
                !CPU_ISSET((int)t->home, &mask))
                return;
            CPU_ZERO(&home);
            CPU_SET((int)t->home, &home);
            if (!sched_setaffinity(0, sizeof home, &home))
                sched_setaffinity(0, sizeof mask, &mask);
            return;
        }
#else
    (void)t;
#endif
}

static void team_ring(sdc_team *t)
{
    __atomic_add_fetch(&t->bell, 1, __ATOMIC_SEQ_CST);
#ifdef __linux__
    if (__atomic_load_n(&t->sleepers, __ATOMIC_SEQ_CST))
        syscall(SYS_futex, &t->bell, FUTEX_WAKE | (int)t->futex_flags, INT_MAX,
                NULL, NULL, 0);
#endif
}

/* The first ring past `seen`.  A sleeper counts itself in before it
 * reads the bell and the ringer reads the count after it rings, so one
 * of the two sees the other.  A forked helper (`parent` > 0) exits once
 * its parent is gone. */
static uint32_t team_wait(sdc_team *t, uint32_t seen, int64_t parent)
{
    const double until = clock_s() + TEAM_SPIN_S;
    for (int64_t spins = 0;; spins++) {
        const uint32_t bell = __atomic_load_n(&t->bell, __ATOMIC_ACQUIRE);
        if (bell != seen)
            return bell;
        if (spins < BARRIER_SPINS)
            continue;
        if (clock_s() < until) {
            sched_yield();
            continue;
        }
#ifdef __linux__
        const struct timespec bound = {0, ORPHAN_CHECK_NS};
        __atomic_add_fetch(&t->sleepers, 1, __ATOMIC_SEQ_CST);
        if (__atomic_load_n(&t->bell, __ATOMIC_SEQ_CST) == seen)
            syscall(SYS_futex, &t->bell, FUTEX_WAIT | (int)t->futex_flags, seen,
                    parent > 0 ? &bound : NULL, NULL, 0);
        __atomic_sub_fetch(&t->sleepers, 1, __ATOMIC_SEQ_CST);
#else
        sched_yield();
#endif
        if (parent > 0 && getppid() != parent)
            _exit(1);
    }
}

/* Helper k's loop, until the team is stopped: a thread of sdc_team_start,
 * or a process the caller of sdc_team_place forked (`parent`: its pid). */
int64_t sdc_team_serve(sdc_team *t, int64_t k, int64_t parent)
{
    team_line *line = &t->lines[k - 1];
    for (uint32_t seen = (uint32_t)line->ring;;) {
        seen = team_wait(t, seen, parent);
        if (__atomic_load_n(&t->stop, __ATOMIC_ACQUIRE))
            return 0;
        int64_t status = SDC_DONE;
        if (k < t->n_workers) { /* a narrower walk leaves it out */
            const sdc_job *job = &t->jobs[k];
            status = sdc_walk(t->shared, job->ranges, job->row_lo, job->row_hi,
                              k, t->base, job->energies, job->marks);
        }
        line->status = status;
        __atomic_store_n(&line->ring, (int64_t)seen, __ATOMIC_RELEASE);
    }
}

static void *team_main(void *arg)
{
    const team_helper *h = arg;
#ifdef __linux__
    const int64_t cpu = h->team->lines[h->k - 1].cpu;
    if (cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET((int)cpu, &set);
        sched_setaffinity(0, sizeof set, &set);
    }
#endif
    sdc_team_serve(h->team, h->k, 0);
    return NULL;
}

/* Bytes of the block of a team of n_workers */
int64_t sdc_team_bytes(int64_t n_workers)
{
    const int64_t n = n_workers > 1 ? n_workers - 1 : 0;
    return (int64_t)(sizeof(sdc_team) + (size_t)n * sizeof(team_line));
}

/* Lay out a team of n_workers in `block` (sdc_team_bytes of it, 64-byte
 * aligned), helper k's CPU cpus[k] when cpus is given; no helper runs. */
sdc_team *sdc_team_place(void *block, int64_t n_workers, const int64_t *cpus)
{
    sdc_team *t = block;
    memset(t, 0, (size_t)sdc_team_bytes(n_workers));
    t->n_helpers = n_workers > 1 ? n_workers - 1 : 0;
    t->home = cpus ? cpus[0] : -1;
    for (int64_t k = 1; k <= t->n_helpers; k++)
        t->lines[k - 1].cpu = cpus ? cpus[k] : -1;
    return t;
}

void sdc_team_close(sdc_team *t);

/* A team of n_workers: helper threads 1 .. n_workers - 1, helper k bound
 * to cpus[k] when cpus is given.  The helpers block every signal.  NULL
 * when a thread cannot be made (none is left running). */
sdc_team *sdc_team_start(int64_t n_workers, const int64_t *cpus)
{
    sdc_team *t = NULL;
    if (posix_memalign((void **)&t, 64, (size_t)sdc_team_bytes(n_workers)))
        return NULL;
    sdc_team_place(t, n_workers, cpus);
    const int64_t n = t->n_helpers;
#ifdef __linux__
    t->futex_flags = FUTEX_PRIVATE_FLAG;
#endif
    t->n_helpers = 0; /* the threads started so far */
    t->helpers = calloc(n ? (size_t)n : 1, sizeof(team_helper));
    if (!t->helpers) {
        free(t);
        return NULL;
    }
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    for (int64_t k = 1; k <= n; k++) {
        team_helper *h = &t->helpers[k - 1];
        h->team = t;
        h->k = k;
        if (pthread_create(&h->thread, NULL, team_main, h))
            break;
        t->n_helpers = k;
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    if (t->n_helpers < n) {
        sdc_team_close(t);
        return NULL;
    }
    return t;
}

/* Ring the doorbell for one walk: n_workers workers, generations from
 * base, worker k's share jobs[k].  The caller then walks jobs[0] itself. */
void sdc_team_ring(sdc_team *t, const sdc_shared *s, const sdc_job *jobs,
                   int64_t n_workers, int64_t base)
{
    t->shared = s;
    t->jobs = jobs;
    t->n_workers = n_workers;
    t->base = base;
    if (t->home >= 0)
        team_home(t);
    team_ring(t);
}

/* Wait until every helper answered the last ring; status[k] gets helper
 * k's walk status (status[0] is the caller's, not written), or SDC_LOST
 * where the walk watches its forked helpers and gave up on k. */
void sdc_team_settle(sdc_team *t, int64_t *status)
{
    const uint32_t bell = t->bell;
    const sdc_shared *s = t->shared;
    for (int64_t k = 1; k <= t->n_helpers; k++) {
        const team_line *line = &t->lines[k - 1];
        status[k] = SDC_LOST;
        for (int64_t spins = 0;; spins++) {
            if ((uint32_t)__atomic_load_n(&line->ring, __ATOMIC_ACQUIRE) == bell) {
                status[k] = line->status;
                break;
            }
            if (spins <= BARRIER_SPINS)
                continue;
            sched_yield();
            if (s->watch && !(spins % 1024) && helper_lost(s, k))
                break;
        }
    }
}

/* The last ring: every helper leaves its loop. */
void sdc_team_stop(sdc_team *t)
{
    __atomic_store_n(&t->stop, 1, __ATOMIC_SEQ_CST);
    team_ring(t);
}

/* Stop and join the helper threads, then free the team. */
void sdc_team_close(sdc_team *t)
{
    sdc_team_stop(t);
    for (int64_t k = 0; k < t->n_helpers; k++)
        pthread_join(t->helpers[k].thread, NULL);
    free(t->helpers);
    free(t);
}

/* ------------------------------------------------------------------------
 * Velocity Verlet: repro.md.integrators.VelocityVerlet's two halves, each
 * one pass over the atom rows, bit for bit the NumPy tier's arithmetic.
 * ------------------------------------------------------------------------ */

/* Box.wrap of one coordinate on an edge L > 0: NumPy's floor-mod (fmod,
 * then + L where the signs differ, +0 for a zero remainder), folded onto
 * 0 where it rounds up to L.  Inside (0, L) - almost every atom - fmod is
 * the identity and is skipped.  NaN stays NaN; +-inf becomes NaN. */
static inline double wrap_coord(double x, double L)
{
    if (x > 0.0 && x < L)
        return x;
    double m = fmod(x, L);
    if (m == 0.0)
        return 0.0;
    if (m < 0.0)
        m += L;
    return m >= L ? 0.0 : m;
}

/* 1 when every type indexes a scale, [0, n_types): a negative type is a
 * huge unsigned one, and the loop has no branch */
static int types_ok(const int32_t *types, int64_t n, int64_t n_types)
{
    int bad = 0;
    for (int64_t k = 0; k < n; k++)
        bad |= (uint64_t)(int64_t)types[k] >= (uint64_t)n_types;
    return !bad;
}

/*
 * The first half of a step, in place, one pass over the rows: the
 * half-kick v += half_dt * (f * scale[type]), the drift x += dt * v and
 * the periodic wrap (lengths[a] == 0 for an open axis); then into *moved2
 * the largest squared minimum-image displacement of the new x from ref
 * (NeighborList.reference_positions; 0 without one).  The maximum is NaN
 * when any displacement is - a plain `>` would skip it, and a poisoned atom
 * must reach the Verlet check.  Returns 0, or -1 for a type outside [0,
 * n_types), with nothing written.
 */
int64_t md_kick_drift(double *restrict pos, double *restrict vel,
                      const double *restrict forces,
                      const int32_t *restrict types,
                      const double *restrict scale, int64_t n_types,
                      int64_t n, double half_dt, double dt,
                      const double *lengths, const double *restrict ref,
                      double *moved2)
{
    if (!types_ok(types, n, n_types))
        return -1;
    /* |d| < L/4 puts d / L + 0.5 inside [0, 1): fold returns d unchanged,
     * so the division is only paid near a half-box displacement */
    double quarter[3];
    for (int axis = 0; axis < 3; axis++)
        quarter[axis] = 0.25 * lengths[axis];
    double best = 0.0;
    int nan = 0;
    for (int64_t k = 0; k < n; k++) {
        const double s = scale[types[k]];
        double d2 = 0.0;
        for (int axis = 0; axis < 3; axis++) {
            const int64_t c = 3 * k + axis;
            const double L = lengths[axis];
            const double v = vel[c] + half_dt * (forces[c] * s);
            double x = pos[c] + dt * v;
            if (L > 0.0)
                x = wrap_coord(x, L);
            vel[c] = v;
            pos[c] = x;
            if (ref) {
                double d = x - ref[c];
                if (L > 0.0 && !(fabs(d) < quarter[axis]))
                    d = fold(d, L);
                d2 += d * d;
            }
        }
        if (d2 > best)
            best = d2;
        nan |= d2 != d2;
    }
    *moved2 = nan ? NAN : best;
    return 0;
}

/*
 * The closing half-kick, in place; then the step's moments from the same
 * pass into out[7]: sum m v^2 (the kinetic energy before its 0.5 *
 * MVV_TO_EV), sum m v (3) and sum f (3), m = mass[type], each summed atom
 * by atom.  Returns 0, or -1 for a type outside [0, n_types), with nothing
 * written.
 */
int64_t md_kick(double *restrict vel, const double *restrict forces,
                const int32_t *restrict types, const double *restrict scale,
                const double *restrict mass, int64_t n_types, int64_t n,
                double half_dt, double *out)
{
    if (!types_ok(types, n, n_types))
        return -1;
    double sum = 0.0, p[3] = {0.0, 0.0, 0.0}, f[3] = {0.0, 0.0, 0.0};
    for (int64_t k = 0; k < n; k++) {
        const double s = scale[types[k]], m = mass[types[k]];
        double v2 = 0.0;
        for (int axis = 0; axis < 3; axis++) {
            const int64_t c = 3 * k + axis;
            const double v = vel[c] + half_dt * (forces[c] * s);
            vel[c] = v;
            v2 += v * v;
            p[axis] += m * v;
            f[axis] += forces[c];
        }
        sum += m * v2;
    }
    out[0] = sum;
    for (int axis = 0; axis < 3; axis++) {
        out[1 + axis] = p[axis];
        out[4 + axis] = f[axis];
    }
    return 0;
}

/* ------------------------------------------------------------------------
 * The neighbour build: repro.md.neighbor.verlet's CSR Verlet list.
 * ------------------------------------------------------------------------ */

/*
 * The bin pass: Box.wrap, the finite check and CellList's binning of n
 * atoms (pos, n x 3) in one pass.  lengths[a] is a periodic axis's edge, 0
 * on an open one; cell_size and n_cells are the grid's.  Writes the wrapped
 * positions, each atom's flat cell id (floor(x / h), clipped to the grid
 * before it is made an integer), and a counting sort of the ids: order, the
 * atoms cell by cell in index order (NumPy's stable argsort), and starts,
 * n_total + 1 offsets into it.  Returns 0, or -1 when a coordinate is NaN
 * or +-inf, and what was written is then meaningless.
 */
int64_t nbr_bin(const double *pos, int64_t n, const double *lengths,
                const double *cell_size, const int64_t *n_cells,
                double *wrapped, int64_t *cell_of_atom, int64_t *order,
                int64_t *starts)
{
    const int64_t total = n_cells[0] * n_cells[1] * n_cells[2];
    for (int64_t c = 0; c <= total; c++)
        starts[c] = 0;
    for (int64_t k = 0; k < n; k++) {
        int64_t id = 0;
        for (int axis = 0; axis < 3; axis++) {
            double x = pos[3 * k + axis];
            if (!isfinite(x))
                return -1;
            if (lengths[axis] > 0.0)
                x = wrap_coord(x, lengths[axis]);
            wrapped[3 * k + axis] = x;
            const double top = (double)(n_cells[axis] - 1),
                         q = floor(x / cell_size[axis]);
            id = id * n_cells[axis] + (int64_t)(q < 0.0 ? 0.0 : (q > top ? top : q));
        }
        cell_of_atom[k] = id;
        starts[id + 1]++;
    }
    for (int64_t c = 0; c < total; c++)
        starts[c + 1] += starts[c];
    /* starts[c] is cell c's write cursor and stops at cell c + 1's start,
     * so shifting the cursors up one restores the starts (as nbr_pack) */
    for (int64_t k = 0; k < n; k++)
        order[starts[cell_of_atom[k]]++] = k;
    for (int64_t c = total; c > 0; c--)
        starts[c] = starts[c - 1];
    starts[0] = 0;
    return 0;
}

/* CellList.forward_stencil's 13 offsets, (dx, dy, dz) > (0, 0, 0), as
 * five columns (dx, dy) with dz from the third entry up to +1 */
static const int64_t COLUMNS[5][3] = {
    {0, 0, 1}, {0, 1, -1}, {1, -1, -1}, {1, 0, -1}, {1, 1, -1},
};

/* Cell coordinate v stepped by delta on an axis of count cells: 1 with the
 * wrapped coordinate in *t and the lattice image (-1, 0 or +1) in *image,
 * or 0 when the step leaves an open axis */
static inline int step(int64_t v, int64_t delta, int64_t count,
                       int64_t periodic, int64_t *t, int64_t *image)
{
    const int64_t to = v + delta;
    *image = to < 0 ? -1 : (to >= count ? 1 : 0);
    *t = to - *image * count;
    return *image == 0 || periodic;
}

/*
 * Pairs (first[k], second[k]) packed into n CSR rows, with (second[k],
 * first[k]) too when mirror is set: the same rows as NumPy's sort on the
 * key i*n + j, duplicates included.  Two stable counting sorts, by column
 * and then by row, so each row comes out ascending with no sort of its
 * own.  offsets holds n + 1 entries, values m (2m mirrored).  Returns 0,
 * or -1 when the scratch cannot be allocated.
 */
int64_t nbr_pack(const int64_t *first, const int64_t *second, int64_t m,
                 int64_t n, int64_t mirror, int64_t *offsets, int64_t *values)
{
    const int64_t entries = mirror ? 2 * m : m;
    int64_t *rows = malloc(((size_t)entries + (size_t)n + 1) * sizeof(int64_t));
    if (!rows)
        return -1;
    /* by column: rows[] gets each entry's row in column order, and ends[c]
     * the end of column c's entries */
    int64_t *ends = rows + entries;
    for (int64_t k = 0; k <= n; k++)
        ends[k] = offsets[k] = 0;
    for (int64_t k = 0; k < m; k++) {
        ends[second[k] + 1]++;
        offsets[first[k] + 1]++;
        if (mirror) {
            ends[first[k] + 1]++;
            offsets[second[k] + 1]++;
        }
    }
    for (int64_t k = 0; k < n; k++) {
        ends[k + 1] += ends[k];
        offsets[k + 1] += offsets[k];
    }
    for (int64_t k = 0; k < m; k++) {
        rows[ends[second[k]]++] = first[k];
        if (mirror)
            rows[ends[first[k]]++] = second[k];
    }
    /* by row, column by column: offsets[i] is row i's write cursor and
     * stops at row i + 1's start, so shifting the cursors up one restores
     * the starts */
    for (int64_t c = 0, k = 0; c < n; c++)
        for (; k < ends[c]; k++)
            values[offsets[rows[k]]++] = c;
    for (int64_t k = n; k > 0; k--)
        offsets[k] = offsets[k - 1];
    offsets[0] = 0;
    free(rows);
    return 0;
}

/* r^2 of the slots [b0, b1) of the cell order (xs, ys, zs) seen from two
 * atoms less their shift, u[] into du and v[] into dv, at b - b0: one load
 * of each candidate for the two rows */
static inline void distances(const double *restrict xs,
                             const double *restrict ys,
                             const double *restrict zs, int64_t b0,
                             int64_t b1, const double *u, const double *v,
                             double *restrict du, double *restrict dv)
{
    const double ux = u[0], uy = u[1], uz = u[2], vx = v[0], vy = v[1],
                 vz = v[2];
    for (int64_t b = b0; b < b1; b++) {
        const double x = xs[b], y = ys[b], z = zs[b];
        double dx = x - ux, dy = y - uy, dz = z - uz;
        du[b - b0] = dx * dx + dy * dy + dz * dz;
        dx = x - vx, dy = y - vy, dz = z - vz;
        dv[b - b0] = dx * dx + dy * dy + dz * dz;
    }
}

/*
 * The Verlet list of n atoms at pos (n x 3, wrapped), binned by order and
 * starts (cell c holds atoms order[starts[c] .. starts[c+1]) of an n_cells
 * grid): every pair within sqrt(reach2) once, found by
 * CellList.forward_stencil's walk.  The positions are copied into cell
 * order, one array per axis, so a cell's own atoms and its 13 forward
 * neighbours - wrapped with a +-L shift on a periodic axis, dropped off an
 * open one - are a few runs of consecutive slots: cells next to each other
 * along z are next to each other in the order, and a run is cut where the
 * shift changes.  Each atom of the cell is tested against every later
 * candidate with NumPy's arithmetic, d = x_j - (x_i - shift) and r^2 = ((0
 * + dx^2) + dy^2) + dz^2 (adding to an exact 0 is exact): the distances of
 * two rows at a time first, then per row a branch-free pass that stores
 * every candidate's atom and advances by r^2 <= reach2.  A row whose
 * candidates could pass cap stores only survivors while count < cap.
 * Returns the number of pairs m, each stored as (min, max) atom indices:
 * with m <= cap they are in first/second and packed by nbr_pack into
 * offsets and values (room for cap, 2 cap mirrored); with m > cap nothing
 * past cap was written and the caller retries with cap >= m.  -1 when the
 * scratch cannot be allocated.
 */
int64_t nbr_build(const double *pos, const int64_t *order, int64_t n,
                  const int64_t *starts, const int64_t *n_cells,
                  const int64_t *periodic, const double *lengths,
                  double reach2, int64_t mirror, int64_t cap,
                  int64_t *first, int64_t *second, int64_t *offsets,
                  int64_t *values)
{
    const int64_t total = n_cells[0] * n_cells[1] * n_cells[2];
    int64_t most = 0;
    for (int64_t c = 0; c < total; c++)
        if (starts[c + 1] - starts[c] > most)
            most = starts[c + 1] - starts[c];
    /* x, y, z in cell order; then, each <= 14 cells long, the distances
     * of the two rows at hand, one cell's candidate atoms and the second
     * row's survivors */
    const size_t room = 14 * (size_t)most + 1;
    double *xs = malloc((3 * (size_t)n + 4 * room) * sizeof(double));
    if (!xs)
        return -1;
    double *ys = xs + n, *zs = xs + 2 * n, *d2[2] = {zs + n, zs + n + room};
    int64_t *cand = (int64_t *)(d2[1] + room), *spare = cand + room;
    for (int64_t b = 0; b < n; b++) {
        const int64_t a = order[b];
        xs[b] = pos[3 * a];
        ys[b] = pos[3 * a + 1];
        zs[b] = pos[3 * a + 2];
    }
    int64_t count = 0;
    for (int64_t cx = 0; cx < n_cells[0]; cx++)
    for (int64_t cy = 0; cy < n_cells[1]; cy++) {
        /* the five forward columns: first cell's flat id, x and y shifts */
        int64_t base[5];
        double sx[5], sy[5];
        int column[5];
        for (int q = 0; q < 5; q++) {
            int64_t tx, ix, ty = 0, iy = 0;
            column[q] = step(cx, COLUMNS[q][0], n_cells[0], periodic[0], &tx, &ix)
                        && step(cy, COLUMNS[q][1], n_cells[1], periodic[1], &ty, &iy);
            base[q] = (tx * n_cells[1] + ty) * n_cells[2];
            sx[q] = (double)ix * lengths[0];
            sy[q] = (double)iy * lengths[1];
        }
        for (int64_t cz = 0; cz < n_cells[2]; cz++) {
            const int64_t a0 = starts[base[0] + cz], a1 = starts[base[0] + cz + 1];
            if (a0 == a1)
                continue;
            /* run r: the slots [lo[r], hi[r]) seen through shift[r], from the
             * cell's candidate place at[r]; run 0 starts with the cell itself */
            int64_t lo[14] = {a0}, hi[14] = {a1}, at[15] = {0};
            double shift[14][3] = {{0.0, 0.0, 0.0}};
            int runs = 1;
            for (int q = 0; q < 5; q++)
                for (int64_t dz = COLUMNS[q][2], tz, iz; column[q] && dz <= 1; dz++) {
                    if (!step(cz, dz, n_cells[2], periodic[2], &tz, &iz))
                        continue;
                    const int64_t d = base[q] + tz;
                    const double sz = (double)iz * lengths[2];
                    const int r = runs - 1;
                    if (starts[d] == hi[r] && sx[q] == shift[r][0]
                        && sy[q] == shift[r][1] && sz == shift[r][2]) {
                        hi[r] = starts[d + 1];
                        continue;
                    }
                    lo[runs] = starts[d];
                    hi[runs] = starts[d + 1];
                    shift[runs][0] = sx[q];
                    shift[runs][1] = sy[q];
                    shift[runs][2] = sz;
                    runs++;
                }
            for (int r = 0; r < runs; r++) {
                at[r + 1] = at[r] + hi[r] - lo[r];
                for (int64_t b = lo[r]; b < hi[r]; b++)
                    cand[at[r] + b - lo[r]] = order[b];
            }
            const int64_t width = at[runs];
            for (int64_t a = a0; a < a1; a += 2) {
                /* rows a and a + 1 (a again when the cell has no a + 1): row w
                 * tests the cell's candidates p >= a + w + 1 - a0, whose r^2 is
                 * d2[w][p]; all but the pair itself come off shared loads */
                const int64_t rows = a + 1 < a1 ? 2 : 1, b = a + rows;
                if (rows == 2) {
                    const double dx = xs[a + 1] - xs[a], dy = ys[a + 1] - ys[a],
                                 dz = zs[a + 1] - zs[a];
                    d2[0][b - 1 - a0] = dx * dx + dy * dy + dz * dz;
                }
                for (int r = 0; r < runs; r++) {
                    const int64_t b0 = r ? lo[r] : b, p0 = r ? at[r] : b - a0;
                    const double u[3] = {xs[a] - shift[r][0], ys[a] - shift[r][1],
                                         zs[a] - shift[r][2]},
                                 v[3] = {xs[b - 1] - shift[r][0],
                                         ys[b - 1] - shift[r][1],
                                         zs[b - 1] - shift[r][2]};
                    distances(xs, ys, zs, b0, hi[r], u, v, d2[0] + p0, d2[1] + p0);
                }
                const int64_t p1 = a + 1 - a0, i = order[a], i1 = order[b - 1];
                if (p1 == width)  /* a last atom with no candidate */
                    continue;
                if (count + 2 * (width - p1) <= cap) {
                    /* both rows in one branch-free pass: row a's candidates
                     * stored at count, row a + 1's in spare, then moved behind */
                    const int64_t row = count;
                    int64_t more = 0;
                    first[count] = cand[p1];
                    count += d2[0][p1] <= reach2;
                    for (int64_t p = p1 + 1; p < width; p++) {
                        const int64_t c = cand[p];
                        first[count] = c;
                        count += d2[0][p] <= reach2;
                        spare[more] = c;
                        more += d2[1][p] <= reach2;
                    }
                    more *= rows == 2;
                    for (int64_t k = 0; k < more; k++)
                        first[count + k] = spare[k];
                    for (int64_t k = row; k < count + more; k++) {
                        const int64_t j = first[k], own = k < count ? i : i1;
                        first[k] = own < j ? own : j;
                        second[k] = own < j ? j : own;
                    }
                    count += more;
                    continue;
                }
                /* near cap: survivors only, while count < cap */
                for (int64_t w = 0; w < rows; w++)
                    for (int64_t p = p1 + w; p < width; p++) {
                        if (!(d2[w][p] <= reach2))
                            continue;
                        if (count < cap) {
                            const int64_t j = cand[p], own = w ? i1 : i;
                            first[count] = own < j ? own : j;
                            second[count] = own < j ? j : own;
                        }
                        count++;
                    }
            }
        }
    }
    free(xs);
    if (count > cap)
        return count;
    return nbr_pack(first, second, count, n, mirror, offsets, values) ? -1 : count;
}
