"""The primal RK4 loop and the tangent and adjoint sweeps of Lorenz and
Kuramoto-Sivashinsky, and a band eigensolver, in C, compiled at first
use.

The library exports three entries, ``primal``, ``sweep`` and
``band_eigh``; the model, the direction and the forcing are arguments,
and each loop takes what its array loop takes.  ``rk4`` steps each row
of a stack of states with the element operations of
``timestep.rk4_kernel`` over the model's ``rhs`` in their order, and
``sweep`` tangent rows with those of ``timestep.tangent_step`` over
``jacobian_apply`` and ``param_deriv``, or adjoint rows with those of
``timestep.adjoint_step_at`` over ``jacobian_transpose_apply``, so all
are bit-identical to the array loops, which stay the reference and the
fallback.  A sweep runs a window of steps in one call, with no Python
between them: the tangent sweep writes each step's rows into a table,
the adjoint sweep adds a table's row after each step.  ``band_eigh``,
the eigensolver of analysis' band route, returns the eigenvalues of a
symmetric band matrix and U^T y for its eigenvectors U and a block y,
without forming U.  The source below is compiled by ``sysconfig``'s C
compiler at -O3, with flags that forbid contraction and reordering, at
the first loop of a process, into a shared library in the package's
``__pycache__`` named by the CRC-32 of the source and the flags; the
build removes the libraries of earlier sources from that folder, and
later processes load it with ``ctypes`` without looking up the
compiler; the source needs GNU C's vector extension (built with GCC;
Clang untried).
The KS tangent kernel makes one pass over a block of rows per RK4
stage, with the stencil read through a register window; with GCC 12 on
x86-64 Linux it is built for x86-64-v4 and v3 besides the baseline, and
the CPU picks one at each sweep.  Without a compiler, when the compile
fails, or when ``__pycache__`` holds no library and is not writable,
``serves`` and ``sweeps`` are false and the array loops run, and
analysis takes its dense route.
"""

import ctypes
import os
import zlib

import numpy as np

from .dynsys import KuramotoSivashinsky, Lorenz, own_model
from .errors import DimensionMismatch, DivergenceError, ShadowingError

_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-x", "c", "-",
          "-lm")

# The library exports three entries; the model (0 Lorenz, 1 KS), the
# direction and the forcing are arguments.  primal(model, n, m, steps,
# every, h, par, u, states, fvals, s2, s3, s4) steps the rows of u (m,
# n) in place, in lockstep as the array loop does, and returns 0, the
# step at which a row is found non-finite (checked after step j + 1 when
# j % every == 0 and after the last), or -1 when out of memory.  Row r
# after step j goes to slot j m + r of states, the rhs and RK4 stages
# 2-4 of that step to slot j m + r of fvals, s2, s3 and s4, and fvals
# slot steps m + r gets the rhs of row r's end state.  Any output may be
# NULL.  Stage i is u + w_i k_i and the update u + h/6 (((k1 + 2 k2) +
# 2 k3) + k4): the order of timestep.rk4_kernel over Lorenz.rhs or
# KuramotoSivashinsky.rhs.  sweep(model, transpose, forcing, n, m, j0,
# steps, h, par, offs, u, s2, s3, s4, v, table) runs lorenz_tangent or
# ks_tangent (table their trace), or with transpose adjoint (table its
# source); see there.  The Lorenz loops pass n = 3 as a literal, so that
# rk4 and adjoint specialise for it; the KS tangent kernel takes the
# stage and the forcing as literals, and its vector width per build.
_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

/* f(n, par, x, q, out): out = rhs(x); x has two writable slots before
   and after its n entries, q n + 4 of work */
typedef void (*rhs_fn)(long, const double *, double *, double *, double *);

/* jt(n, par, x, l, out): out = J(x)^T l; l has two writable slots before
   and after its n entries */
typedef void (*jt_fn)(long, const double *, const double *, double *,
                      double *);

/* par: sigma, rho, beta; the expressions of Lorenz.rhs */
static void lorenz_f(long n, const double *par, double *x, double *q,
                     double *out)
{
    out[0] = par[0] * (x[1] - x[0]);
    out[1] = x[0] * (par[1] - x[2]) - x[1];
    out[2] = x[0] * x[1] - par[2] * x[2];
}

/* par: c, b1 = 1 / (2 dx), a4, b24, c24, read into locals where par
   could alias an output.  p = x - 2 gets zero boundary nodes and
   mirrored ghosts as in _pad; out = -D1 q - (D2 + D4) p with
   q = p 0.5 p + p c, in the operations and order of
   KuramotoSivashinsky.rhs under timestep.rk4_kernel */
static void ks_f(long n, const double *par, double *x, double *q,
                 double *out)
{
    double *p = x - 2, b1 = par[1];
    p[0] = p[2];
    p[n + 3] = p[n + 1];
    for (long i = 1; i < n + 3; i++)
        q[i] = p[i] * 0.5 * p[i] + p[i] * par[0];
    for (long i = 0; i < n; i++) {
        double v = (p[i + 4] + p[i]) * par[2] + (p[i + 3] + p[i + 1]) * par[3];
        out[i] = (q[i + 1] - q[i + 3]) * b1 - (v + p[i + 2] * par[4]);
    }
}

/* the expressions of Lorenz.jacobian_transpose_apply */
static void lorenz_jt(long n, const double *par, const double *x, double *l,
                      double *out)
{
    out[0] = -par[0] * l[0] + (par[1] - x[2]) * l[1] + x[1] * l[2];
    out[1] = par[0] * l[0] - l[1] + x[0] * l[2];
    out[2] = -x[0] * l[1] - par[2] * l[2];
}

/* p = l - 2 padded as in ks_f; out = (x + c) D1 p - (D2 + D4) p, the
   order of KuramotoSivashinsky.jacobian_transpose_apply */
static void ks_jt(long n, const double *par, const double *x, double *l,
                  double *out)
{
    double *p = l - 2, b1 = par[1];
    p[0] = p[2];
    p[n + 3] = p[n + 1];
    for (long i = 0; i < n; i++) {
        double v = (p[i + 4] + p[i]) * par[2] + (p[i + 3] + p[i + 1]) * par[3];
        out[i] = (x[i] + par[0]) * ((p[i + 3] - p[i + 1]) * b1)
                 - (v + p[i + 2] * par[4]);
    }
}

static int all_finite(const double *u, long n)
{
    for (long i = 0; i < n; i++)
        if (!isfinite(u[i]))
            return 0;
    return 1;
}

static void put(double *rows, long j, const double *u, long n)
{
    if (rows)
        memcpy(rows + j * n, u, n * sizeof(double));
}

static long rk4(rhs_fn f, long n, long m, long steps, long every,
                double h, const double *par, double *u, double *states,
                double *fvals, double *s2, double *s3, double *s4)
{
    /* k1..k4, then x with two zero slots either side, then q */
    double *k = calloc(6 * n + 8, sizeof(double));
    if (!k)
        return -1;
    double *x = k + 4 * n + 2, *q = x + n + 2;
    double w[3] = {0.5 * h, 0.5 * h, h}, h6 = h / 6.0;
    double *stage[3] = {s2, s3, s4};
    long status = 0;
    for (long j = 0; j < steps && !status; j++) {
        for (long r = 0; r < m; r++) {
            double *v = u + r * n;
            memcpy(x, v, n * sizeof(double));
            f(n, par, x, q, k);
            put(fvals, j * m + r, k, n);
            /* unrolled, the Lorenz loop keeps w and stage in registers:
               30 against 43 ns a step with GCC 12 on a Xeon VM */
            #pragma GCC unroll 3
            for (int s = 0; s < 3; s++) {
                const double *ks = k + s * n;
                for (long i = 0; i < n; i++)
                    x[i] = v[i] + w[s] * ks[i];
                put(stage[s], j * m + r, x, n);
                f(n, par, x, q, k + (s + 1) * n);
            }
            for (long i = 0; i < n; i++)
                v[i] += h6 * (k[i] + 2.0 * k[n + i] + 2.0 * k[2 * n + i]
                              + k[3 * n + i]);
        }
        put(states, j, u, m * n);
        if (j % every == 0 && !all_finite(u, m * n))
            status = j + 1;
    }
    for (long r = 0; r < m && !status && fvals; r++) {
        memcpy(x, u + r * n, n * sizeof(double));
        f(n, par, x, q, fvals + (steps * m + r) * n);
    }
    free(k);
    if (!status && !all_finite(u, m * n))
        status = steps;
    return status;
}

long primal(long model, long n, long m, long steps, long every, double h,
            const double *par, double *u, double *states, double *fvals,
            double *s2, double *s3, double *s4)
{
    if (model)
        return rk4(ks_f, n, m, steps, every, h, par, u, states, fvals, s2,
                   s3, s4);
    return rk4(lorenz_f, 3, m, steps, every, h, par, u, states, fvals, s2,
               s3, s4);
}

/* lorenz_tangent is ks_tangent (see below) for Lorenz, n = 3, a row at
   a time: stage s takes k_s = J(x_s) w_s + df/drho(x_s) at w_0 = v, w_s
   = v + k_{s-1} c_s, and the update is v + (((k_0 + k_1 2) + k_2 2) +
   k_3) h/6, the order of timestep.tangent_step.  Unforced, df/drho is
   -0.0, which leaves every value as it is; forced, param_deriv's (+0.0,
   x, +0.0) */
static long lorenz_tangent(long m, long j0, long steps, double h,
                           long forcing, const double *par, const long *offs,
                           const double *u, const double *s2,
                           const double *s3, const double *s4, double *v,
                           double *trace)
{
    const double *xs[4] = {u, s2, s3, s4};
    double c[4] = {0.0, 0.5 * h, 0.5 * h, h}, h6 = h / 6.0;
    double z = forcing ? 0.0 : -0.0, k[4][3], w[3];
    for (long i = 0; i < m; i++) {
        double *r = v + 3 * i;
        for (long j = j0; j < j0 + steps; j++) {
            for (int s = 0; s < 4; s++) {
                const double *x = xs[s] + 3 * (offs[i] + j);
                for (int e = 0; e < 3; e++)
                    w[e] = s ? r[e] + k[s - 1][e] * c[s] : r[e];
                k[s][0] = par[0] * (w[1] - w[0]) + z;
                k[s][1] = (par[1] - x[2]) * w[0] - w[1] - x[0] * w[2]
                          + (forcing ? x[0] : z);
                k[s][2] = x[1] * w[0] + x[0] * w[1] - par[2] * w[2] + z;
            }
            for (int e = 0; e < 3; e++)
                r[e] += (k[0][e] + k[1][e] * 2.0 + k[2][e] * 2.0 + k[3][e]) * h6;
            put(trace, (j - j0) * m + i, r, 3);
        }
    }
    return 0;
}

/* rows that ks_tangent steps together: entries on the outer axis and
   KB rows on the inner one, so each stencil loop runs across rows */
#define KB 8

/* inlined at each call, so that the literals passed specialise it */
#define INLINE static inline __attribute__((always_inline))

/* a block's buffers: its rows v (n + 4, KB) from node 2, with zero
   nodes 1 and n + 2, the next stage's input w likewise, the stage sum
   acc, and the stage state's padded rows t with their x + c and -D1 x */
struct ks_block {
    double *v, *w, *acc, *t, *xc, *fd;
};

/* KuramotoSivashinsky.jacobian_apply's pu + c and param_deriv of the
   stage state rows r[b] of a block, padded as in _pad, into xc (nodes 1
   .. n + 2) and, when forced, fd (nodes 0 .. n - 1) at node stride ls:
   KB, a column per row, or 1, one column for rows that share a state */
INLINE void ks_lay(long n, const double *par, const double *const *r,
                   long ls, int forced, struct ks_block *k)
{
    double *restrict t = k->t, *restrict xc = k->xc, *restrict fd = k->fd;
    for (long b = 0; b < ls; b++) {
        t[ls + b] = t[(n + 2) * ls + b] = 0.0;
        xc[ls + b] = xc[(n + 2) * ls + b] = 0.0 + par[0];
    }
    for (long i = 0; i < n; i++)
        for (long b = 0; b < ls; b++)
            xc[(i + 2) * ls + b] = (t[(i + 2) * ls + b] = r[b][i]) + par[0];
    for (long i = 0; forced && i < n * ls; i++)
        fd[i] = (t[i + ls] - t[i + 3 * ls]) * par[1];
}

/* lanes h .. h + W - 1 of node i of a block buffer, and x in every lane
   (x - +0 is x, -0 included) */
#define AT(p, i) (*(vec *)((p) + (i) * KB + h))
#define SPLAT(x) ((x) - (vec){0})
#define XC(i) (wide ? AT(xc, i) : SPLAT(xc[i]))

/* ks_window##W(n, par, s, forced, wide, hc, k): stage s of a block in one
   pass per W of its rows, W lanes a vector.  At each node it takes the
   derivative of the stage input p (w, or v at s = 0): J p, -D1 q - (D2
   + D4) p with q = (x + c) p in the order of ks_f, plus fd when forced,
   with xc and fd as ks_lay laid them out (wide: a column per row), and
   applies the update that follows it in the order of
   timestep.rk4_kernel: w = v + d hc and acc = d (s = 0) or acc + d 2 (s
   = 1, 2), after the last stage v + (acc + d) hc.  The five stencil
   nodes and q at three of them stay in registers as the pass moves up,
   so w is overwritten at a node only after the window holds it.  s,
   forced and wide are literals at each call, so that each body
   specialises */
#define KS_WINDOW(W)                                                        \
INLINE void ks_window##W(long n, const double *par, int s, int forced,     \
                         int wide, double hc, struct ks_block *k)          \
{                                                                           \
    typedef double vec __attribute__((vector_size(W * sizeof(double))));    \
    double *p = s ? k->w : k->v, *w = k->w, *restrict v = k->v;             \
    double *restrict acc = k->acc;                                          \
    const double *restrict xc = k->xc, *restrict fd = k->fd;                \
    vec b1 = SPLAT(par[1]), a4 = SPLAT(par[2]), b24 = SPLAT(par[3]);        \
    vec c24 = SPLAT(par[4]), c = SPLAT(hc), two = SPLAT(2.0);               \
    for (long h = 0; h < KB; h += W) {                                      \
        AT(p, 0) = AT(p, 2);                                                \
        AT(p, n + 3) = AT(p, n + 1);                                        \
        vec p0 = AT(p, 0), p1 = AT(p, 1), p2 = AT(p, 2), p3 = AT(p, 3);     \
        vec q1 = XC(1) * p1, q2 = XC(2) * p2;                               \
        for (long i = 0; i < n; i++) {                                      \
            vec p4 = AT(p, i + 4), q3 = XC(i + 3) * p3;                     \
            vec d = (q1 - q3) * b1                                          \
                    - ((p4 + p0) * a4 + (p3 + p1) * b24 + p2 * c24);        \
            if (forced)                                                     \
                d = d + (wide ? AT(fd, i) : SPLAT(fd[i]));                  \
            if (s < 3)                                                      \
                AT(w, i + 2) = AT(v, i + 2) + d * c;                        \
            if (s == 0)                                                     \
                AT(acc, i) = d;                                             \
            else if (s < 3)                                                 \
                AT(acc, i) = AT(acc, i) + d * two;                          \
            else                                                            \
                AT(v, i + 2) = AT(v, i + 2) + (AT(acc, i) + d) * c;         \
            p0 = p1, p1 = p2, p2 = p3, p3 = p4, q1 = q2, q2 = q3;           \
        }                                                                   \
    }                                                                       \
}

KS_WINDOW(2)
KS_WINDOW(4)
KS_WINDOW(8)
#define KS_PASS(W, ...) (W == 8 ? ks_window8(__VA_ARGS__)                    \
                         : W == 4 ? ks_window4(__VA_ARGS__)                 \
                         : ks_window2(__VA_ARGS__))

/* one RK4 step of a block: each stage's states laid out, then its pass;
   the middle stages share a body */
INLINE void ks_step(long n, const double *par, int W, int forced, int wide,
                    long j, const double *const *xs, const long *lane,
                    const double *hc, struct ks_block *k)
{
    for (int s = 0; s < 4; s++) {
        const double *r[KB];
        for (int b = 0; b < KB; b++)
            r[b] = xs[s] + n * (lane[b] + j);
        ks_lay(n, par, r, wide ? KB : 1, forced, k);
        if (s == 0)
            KS_PASS(W, n, par, 0, forced, wide, hc[s], k);
        else if (s < 3)
            KS_PASS(W, n, par, 1, forced, wide, hc[s], k);
        else
            KS_PASS(W, n, par, 3, forced, wide, hc[s], k);
    }
}

/* ks_tangent(n, m, j0, steps, h, forcing, par, offs, u, s2, s3, s4, v,
   trace) runs steps j0 .. j0 + steps - 1 of the discrete tangent RK4 map,
   forced or not, on each row i of v (m, n) in place, at the stage rows
   offs[i] + j, writes row i after step j to trace (steps, m, n) at [j -
   j0][i] when trace is not NULL, and returns 0, or -1 when out of
   memory; par is that of ks_f.  Blocks of KB rows are stepped at once,
   entry-major, one pass per RK4 stage, in vectors of W lanes, with each
   stage state's x + c (and -D1 x) laid out once per stage and step, one
   column for the block when its rows share a segment */
INLINE long ks_blocks(long n, long m, long j0, long steps, double h,
                      long forcing, const double *par, const long *offs,
                      const double *u, const double *s2, const double *s3,
                      const double *s4, double *v, double *trace, int W)
{
    long e = (n + 4) * KB;
    /* 64-byte aligned, so that no vector of a node's rows splits */
    double *buf = aligned_alloc(64, 6 * e * sizeof(double));
    if (!buf)
        return -1;
    memset(buf, 0, 6 * e * sizeof(double));
    struct ks_block k = {buf, buf + e, buf + 2 * e, buf + 3 * e, buf + 4 * e,
                         buf + 5 * e};
    const double *xs[4] = {u, s2, s3, s4};
    double hc[4] = {0.5 * h, 0.5 * h, h, h / 6.0};
    for (long r0 = 0; r0 < m; r0 += KB) {
        /* lanes past the last row repeat its segment and step zeros */
        long rows = m - r0 < KB ? m - r0 : KB, lane[KB];
        int shared = 1;
        for (int b = 0; b < KB; b++) {
            lane[b] = offs[r0 + (b < rows ? b : rows - 1)];
            shared &= lane[b] == lane[0];
        }
        for (long i = 0; i < n; i++)
            for (int b = 0; b < KB; b++)
                k.v[(i + 2) * KB + b] = b < rows ? v[(r0 + b) * n + i] : 0.0;
        for (long j = j0; j < j0 + steps; j++) {
            /* forced sweeps lay out a column per row, which saves the
               compile of a fourth body */
            if (forcing)
                ks_step(n, par, W, 1, 1, j, xs, lane, hc, &k);
            else if (shared)
                ks_step(n, par, W, 0, 0, j, xs, lane, hc, &k);
            else
                ks_step(n, par, W, 0, 1, j, xs, lane, hc, &k);
            for (int b = 0; trace && b < rows; b++)
                for (long i = 0, at = ((j - j0) * m + r0 + b) * n; i < n; i++)
                    trace[at + i] = k.v[(i + 2) * KB + b];
        }
        for (long i = 0; i < n; i++)
            for (int b = 0; b < rows; b++)
                v[(r0 + b) * n + i] = k.v[(i + 2) * KB + b];
    }
    free(buf);
    return 0;
}

#define KS_ARGS long n, long m, long j0, long steps, double h, long forcing, \
    const double *par, const long *offs, const double *u, const double *s2, \
    const double *s3, const double *s4, double *v, double *trace
#define KS_CALL n, m, j0, steps, h, forcing, par, offs, u, s2, s3, s4, v, trace

/* with GCC 12 or later (the oldest tried) on x86-64 Linux, the kernel is
   built for AVX-512 (x86-64-v4) in vectors of 8 lanes and for AVX2
   (x86-64-v3) in vectors of 4, and the CPU picks at each sweep; in
   vectors of 2 elsewhere and in the baseline, where wider windows
   spill */
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 \
    && defined(__x86_64__) && defined(__gnu_linux__)
__attribute__((target("arch=x86-64-v4"))) static long ks_tangent8(KS_ARGS)
{
    return ks_blocks(KS_CALL, 8);
}

__attribute__((target("arch=x86-64-v3"))) static long ks_tangent4(KS_ARGS)
{
    return ks_blocks(KS_CALL, 4);
}
#define ISA(level, f) if (__builtin_cpu_supports(level)) return f(KS_CALL)
#else
#define ISA(level, f)
#endif

static long ks_tangent(KS_ARGS)
{
    ISA("x86-64-v4", ks_tangent8);
    ISA("x86-64-v3", ks_tangent4);
    return ks_blocks(KS_CALL, 2);
}

/* steps j0 + steps - 1 down to j0 of the adjoint RK4 map on each row i
   of w (m, n) in place, at the stage rows offs[i] + j; returns 0, or -1
   when out of memory.  par is that of the model's rhs.  Stage s takes
   t_s = J(x_s)^T l_s at l_4 = w h/6, l_3 = w h/3 + t_4 h, l_2 = w h/3 +
   t_3 h/2, l_1 = w h/6 + t_2 h/2, and the update is (((w + t_1) + t_2) +
   t_3) + t_4: the order of timestep.adjoint_step_at.  When src (steps,
   m, n) is not NULL, row i then gets + src[j - j0][i] */
static long adjoint(jt_fn jt, long n, long m, long j0, long steps, double h,
                    const double *par, const long *offs, const double *u,
                    const double *s2, const double *s3, const double *s4,
                    double *w, const double *src)
{
    /* t_1..t_4, then l with two zero slots either side */
    double *t = calloc(5 * n + 4, sizeof(double));
    if (!t)
        return -1;
    double *l = t + 4 * n + 2;
    const double *xs[4] = {u, s2, s3, s4};
    double cw[4] = {h / 6.0, h / 3.0, h / 3.0, h / 6.0};
    double ct[3] = {0.5 * h, 0.5 * h, h};
    for (long i = 0; i < m; i++) {
        double *r = w + n * i;
        for (long j = j0 + steps - 1; j >= j0; j--) {
            for (int s = 3; s >= 0; s--) {
                const double *tn = t + (s + 1) * n;
                for (long e = 0; e < n; e++)
                    l[e] = s == 3 ? cw[s] * r[e]
                                  : cw[s] * r[e] + ct[s] * tn[e];
                jt(n, par, xs[s] + n * (offs[i] + j), l, t + s * n);
            }
            for (long e = 0; e < n; e++)
                r[e] = r[e] + t[e] + t[n + e] + t[2 * n + e] + t[3 * n + e];
            for (long e = 0; src && e < n; e++)
                r[e] = r[e] + src[((j - j0) * m + i) * n + e];
        }
    }
    free(t);
    return 0;
}

long sweep(long model, long transpose, long forcing, long n, long m,
           long j0, long steps, double h, const double *par, const long *offs,
           const double *u, const double *s2, const double *s3,
           const double *s4, double *v, double *table)
{
    if (transpose)
        return model ? adjoint(ks_jt, n, m, j0, steps, h, par, offs, u, s2,
                               s3, s4, v, table)
                     : adjoint(lorenz_jt, 3, m, j0, steps, h, par, offs, u,
                               s2, s3, s4, v, table);
    return model ? ks_tangent(n, m, j0, steps, h, forcing, par, offs, u, s2,
                              s3, s4, v, table)
                 : lorenz_tangent(m, j0, steps, h, forcing, par, offs, u, s2,
                                  s3, s4, v, table);
}

/* (u_k, v_k) <- (c u_k + s v_k, c v_k - s u_k) for k < m */
static void turn(double *u, double *v, long m, double c, double s)
{
    for (long k = 0; k < m; k++) {
        double f = u[k];
        u[k] = c * f + s * v[k];
        v[k] = c * v[k] - s * f;
    }
}

/* sqrt(f^2 + g^2), by hypot only where the squares could overflow or
   lose their digits, as dlartg scales only there */
static double norm2(double f, double g)
{
    double r = sqrt(f * f + g * g);
    return r > 1e-150 && r < 1e150 ? r : hypot(f, g);
}

/* A <- G A G^T for G turning indices r and r + 1 by (c, s) as turn does,
   A (n, n) held as its lower band at column stride w: a[j w + i] is
   A[j + i][j], i < w */
static void similar(double *a, long w, long n, long r, double c, double s)
{
    double *x = a + r * w, *z = x + w;
    for (long k = r + 2 > w ? r + 2 - w : 0; k < r; k++)
        turn(a + k * w + r - k, a + k * w + r - k + 1, 1, c, s);
    turn(x + 2, z + 1, (n - r < w ? n - r : w) - 2, c, s);
    double t0 = c * x[0] + s * x[1], t1 = c * x[1] + s * z[0];
    double t2 = c * x[1] - s * x[0], t3 = c * z[0] - s * x[1];
    x[0] = c * t0 + s * t1;
    x[1] = c * t2 + s * t3;
    z[0] = c * t3 - s * t2;
}

/* band_eigh(n, kd, m, ab, y, d) puts in d the eigenvalues, unordered, of
   the symmetric (n, n) A whose lower band ab (kd + 1, n) holds A[j + i][j]
   at ab[i n + j], turns the rows of y (n, m) by every rotation applied to
   A, which leaves U^T y there, and returns 0; -1 when out of memory, 1
   when QL has not converged after 30 n sweeps.  Givens rotations chase
   each bulge down the band, kept with one more diagonal, to a tridiagonal
   matrix (Schwarz 1968), and implicit-shift QL with LAPACK dsteqr's
   deflation test |e_i|^2 <= eps^2 |d_i d_i+1| + safmin diagonalises it */
long band_eigh(long n, long kd, long m, const double *ab, double *y, double *d)
{
    long w = kd + 2, left = 30 * n;
    double *a = calloc(n * w + n, sizeof(double)), *e = a + n * w;
    if (!a)
        return -1;
    for (long j = 0; j < n; j++)
        for (long i = 0; i <= kd; i++)
            a[j * w + i] = ab[i * n + j];
    for (long j = 0; j + 2 < n; j++)
        for (long i = kd < n - 1 - j ? kd : n - 1 - j; i >= 2; i--)
            for (long col = j, q = j + i; q < n; col = q - 1, q += kd) {
                /* zero A[q][col] against A[q - 1][col]; the rotation of
                   q - 1 and q fills A[q + kd][q - 1], the next target */
                double *x = a + col * w + q - 1 - col, r = norm2(x[0], x[1]);
                if (x[1] == 0.0)
                    break;
                double c = x[0] / r, s = x[1] / r;
                similar(a, w, n, q - 1, c, s);
                x[0] = r;
                x[1] = 0.0;
                turn(y + (q - 1) * m, y + q * m, m, c, s);
            }
    for (long j = 0; j < n; j++) {
        d[j] = a[j * w];
        e[j] = j + 1 < n ? a[j * w + 1] : 0.0;
    }
    double eps2 = 0.25 * DBL_EPSILON * DBL_EPSILON;
    for (long l = 0; l < n; l++)
        for (;;) {
            long mm = l;
            while (mm + 1 < n && e[mm] * e[mm]
                   > eps2 * fabs(d[mm]) * fabs(d[mm + 1]) + DBL_MIN)
                mm++;
            if (mm == l)
                break;
            if (left-- == 0) {
                free(a);
                return 1;
            }
            double g = (d[l + 1] - d[l]) / (2.0 * e[l]), r = norm2(g, 1.0);
            double s = 1.0, c = 1.0, p = 0.0;
            g = d[mm] - d[l] + e[l] / (g + copysign(r, g));
            long i = mm - 1;
            for (; i >= l; i--) {
                double f = s * e[i], b = c * e[i];
                e[i + 1] = r = norm2(f, g);
                if (r == 0.0) {
                    d[i + 1] -= p;
                    e[mm] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                turn(y + i * m, y + (i + 1) * m, m, c, -s);
            }
            if (r == 0.0 && i >= l)
                continue;
            d[l] -= p;
            e[l] = g;
            e[mm] = 0.0;
        }
    free(a);
    return 0;
}
"""

# the loaded library; None before the first attempt, False after a
# failed one
_lib = None


def _compiler():
    """sysconfig's C compiler command as a list, or None."""
    import sysconfig  # only a compile reads the build configuration
    cc = sysconfig.get_config_var("CC")
    return cc.split() if cc else None


def _build(path):
    """Compile the source to path, through a temporary name so that a
    concurrent process never loads a half-written file, and remove the
    libraries of other sources and flags from its folder.  No compiler,
    or a failed compile, raises OSError."""
    cc = _compiler()
    if cc is None:
        raise OSError("no C compiler")
    import subprocess  # only a compile pays for its import
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        done = subprocess.run([*cc, "-o", tmp, *_FLAGS], input=_SOURCE,
                              text=True, capture_output=True)
        if done.returncode:
            raise OSError(f"C compiler exited {done.returncode}: "
                          f"{done.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    folder, name = os.path.split(path)
    for stale in os.listdir(folder):
        if (stale != name and stale.startswith("msshadow_rk4_")
                and stale.endswith(".so")):
            try:
                os.remove(os.path.join(folder, stale))
            except OSError:  # removed by a concurrent build, or not ours
                pass


def _path():
    """The library's path in the package's __pycache__, which is trusted
    as the package's own bytecode is."""
    tag = zlib.crc32(" ".join([_SOURCE, *_FLAGS]).encode())
    return os.path.join(os.path.dirname(__file__), "__pycache__",
                        f"msshadow_rk4_{tag:08x}.so")


def _load():
    path = _path()
    try:
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _build(path)
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    long, ptr = ctypes.c_long, ctypes.c_void_p
    for fn, longs, ptrs in ((lib.primal, 5, 7), (lib.sweep, 7, 8)):
        fn.restype = long
        fn.argtypes = (long,) * longs + (ctypes.c_double,) + (ptr,) * ptrs
    lib.band_eigh.restype = long
    lib.band_eigh.argtypes = (long,) * 3 + (ptr,) * 3
    return lib


def library():
    """The compiled loops, built or loaded at the first call of a
    process; None when no compiler is found, the compile fails, or the
    library is not cached and cannot be written."""
    global _lib
    if _lib is None:
        _lib = _load() or False
    return _lib or None


def serves(system):
    """Whether the C loop steps system's states: it has Lorenz's or
    KuramotoSivashinsky's own model (dynsys.own_model) and the library
    is loaded."""
    return (any(own_model(system, c) for c in (Lorenz, KuramotoSivashinsky))
            and library() is not None)


def sweeps(traj):
    """Whether the C sweeps, tangent and adjoint, step traj's rows: the
    loop ``serves`` its system, and its states and stages are
    C-contiguous float rows."""
    return serves(traj.system) and all(
        a.dtype == float and a.flags.c_contiguous
        for a in (traj.states, *traj.stages()))


def _model(system):
    """The C model number (0 Lorenz, 1 KS) and the parameters of
    system's own model."""
    if own_model(system, Lorenz):
        return 0, (system.sigma, system.rho, system.beta)
    return 1, (system.c, system._b1, system._a4, system._b24, system._c24)


def sweep(traj, segments, v, j0, g, forcing=False, adjoint=False,
          table=None):
    """timestep.tangent_sweep_many of the rows of v (m, N) over steps j0
    .. j0 + g - 1, with its trace ``table``, or with ``adjoint`` its
    adjoint_sweep_many, with its source ``table``, checked by it, in C
    for a trajectory that ``sweeps``: one call for all g steps."""
    model, par = _model(traj.system)
    offs = np.asarray(segments * traj.stride, dtype=ctypes.c_long)
    par, out = np.array(par), np.array(v, dtype=float, order="C")
    # referenced here, so alive through the call
    args = [a.ctypes.data for a in (par, offs, traj.states, *traj.stages(),
                                    out)]
    if library().sweep(model, adjoint, forcing, traj.system.dim, len(out), j0,
                       g, traj.h, *args,
                       None if table is None else table.ctypes.data) < 0:
        raise MemoryError("sweep work buffers")
    return out


def rk4(system, u, h, n, states=None, check_every=1, kept=None):
    """n RK4 steps of each row of a stack of states u (..., N), left
    unchanged, in C, for a system the loop ``serves``; returns the end
    states.

    ``states`` (n + 1, *u.shape), when given, receives the states after
    each step in rows 1..n.  ``kept``, when given, is (fvals, s2, s3,
    s4): fvals (n + 1, *u.shape) receives the rhs at every state, s2, s3
    and s4 (n, *u.shape) the RK4 stage states of every step; they match
    ``rhs`` and ``Trajectory.stages`` element for element, up to the
    sign of an exact zero.  A non-finite state raises DivergenceError at
    the step timestep._rk4's array loop reports for the whole stack.
    """
    model, par = _model(system)
    u = np.array(u, dtype=float, order="C")
    outs = (None if states is None else states[1:], *(kept or (None,) * 4))
    for a, rows in zip(outs, (n, n + 1, n, n, n)):
        if a is not None and (a.shape != (rows, *u.shape)
                              or a.dtype != float or not a.flags.carray):
            raise DimensionMismatch(
                f"need a writeable C-contiguous float {(rows, *u.shape)}")
    par = np.array(par)  # referenced here, so alive through the call
    status = library().primal(
        model, system.dim, u.size // system.dim, n, check_every, h,
        par.ctypes.data, u.ctypes.data,
        *(None if a is None else a.ctypes.data for a in outs))
    if status < 0:
        raise MemoryError("RK4 work buffers")
    if status:
        raise DivergenceError(status)
    return u


def band_eigh(ab, y=None):
    """(ascending eigenvalues, U^T y or None) of the symmetric matrix
    whose lower band is ab (kd + 1, n), ab[i, j] = A[j + i, j], with U
    its eigenvectors in the same order, for y (n, m) or None, in C for a
    loaded library.  Neither U nor a dense (n, n) array is formed; a QL
    that does not converge raises ShadowingError."""
    ab = np.ascontiguousarray(ab, dtype=float)
    n = ab.shape[1]
    out = None if y is None else np.array(y, dtype=float, order="C")
    if out is not None and (out.ndim != 2 or len(out) != n):
        raise DimensionMismatch(f"need rows ({n}, m)")
    eigs = np.empty(n)
    status = library().band_eigh(
        n, len(ab) - 1, 0 if out is None else out.shape[1], ab.ctypes.data,
        None if out is None else out.ctypes.data, eigs.ctypes.data)
    if status < 0:
        raise MemoryError("band eigensolver work buffers")
    if status:
        raise ShadowingError("band QL did not converge in 30 n sweeps")
    order = np.argsort(eigs, kind="stable")
    return eigs[order], None if out is None else out[order]
