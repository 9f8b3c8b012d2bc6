"""Runtime-compiled C kernels (the ``cext`` tier).

At first use this module compiles a small C file with the system C
compiler (``cc``/``gcc``/``clang``), caches the shared library under
``src/repro/backends/_build`` (override with ``REPRO_CC_CACHE``; falls
back to a temporary directory when the tree is read-only), and binds
it with :mod:`ctypes`.  Nothing is installed; when no compiler exists
:func:`load` returns None (:func:`load_error` says why) and callers run
the numpy pipelines and the pure-python event loop instead.

Four kernel families live in the library:

* ``fs_queue_batch`` / ``fs_loads_batch`` / ``ind_congestion_batch``
  — the Fair Share sorted prefix-sum laws, loop twins of
  :mod:`repro.backends._fs_python` (see that module's bit-identity
  notes; the C side adds a stable argsort — insertion-sorted runs
  merged bottom-up for short rows, LSD radix on order-preserving
  integer keys for long ones — which yields the same permutation as
  ``np.argsort(kind="stable")`` because the stable ascending
  permutation is unique; the key transform collapses ``-0.0`` onto
  ``+0.0`` so the radix tie classes match IEEE comparison ties).
  ``fs_queue_batch`` also takes an optional weight vector, the
  weighted law of :class:`~repro.core.weighted.WeightedFairShare`
  (sorted by ``r / phi``), which has no loop twin: its reference is
  the weighted numpy pipeline.  The queue law and the individual
  measure are static row functions, and the batch entry points are
  loops over them.
  Each checks its input first and returns a nonzero status, writing
  nothing, on a NaN or negative value (and on an infinite rate or a
  weight that is not finite and positive), so
  :mod:`repro.backends.compiled` hands such input to the numpy
  pipeline.
* ``observe_batch`` — the whole observe stage of
  :class:`~repro.core.signals.FeedbackScheme` for an ``(M, N)`` batch
  in one call: per non-empty gateway the FIFO, Fair Share or weighted
  Fair Share law, the aggregate, individual or weighted individual
  measure, ``B(C) = C / (C + 1)``, the MAX scatter and, when asked,
  the Little's-law sojourns with the zero-rate probe.  It runs the
  same row functions as the first family and the numpy loop's
  arithmetic in its order, and returns ``ST_DOMAIN`` on a NaN,
  negative or infinite rate or a NaN or negative measure, so the
  numpy loop then runs (and raises where it raises).  Its per-row
  body, ``observe_row``, is shared with the ensemble loop.
* ``ensemble_loop`` — the loop of
  :meth:`~repro.core.dynamics.FlowControlSystem._run_block` (which
  ``run_ensemble`` and ``run_async_ensemble`` share, and of which
  ``run`` is the ``M = 1`` case) on a whole member block, member after
  member: per step ``observe_row`` on the stale row (on a structural
  plan's damaged view, then ``b = 1`` behind a blackhole), the fault
  injectors (``FI_*`` codes, each member with its own true-signal ring,
  delivered vector and numpy-identical PCG64 stream, also exported as
  ``stream_draws``, and events logged to growable ``EventLog`` s), each
  connection's rule (one of the six built-in rules, by ``RULE_*`` code),
  ``apply_batch``'s and ``clip_nonnegative``'s ``np.maximum``, the
  clock gate (``GATE_*``: round-robin, or coins drawn from a C
  transcription of ``np.random.default_rng([seed, step]).random(n)``,
  also exported as ``coin_stream`` and ``gate_masks``), and the
  divergence and convergence tests, writing each member's delay ring,
  tail and full-history rows, its final state, step count and status,
  and per-step telemetry aggregates.  Under a router-side controller
  (``Control``, an :class:`~repro.core.rcp.RcpBank`) each member
  carries its own advertised rates, and ``control_row`` (the gateway
  update, the path minimum and the clip) replaces the observe, perturb
  and decide stages.  It returns ``ST_DOMAIN`` where
  the observe row does or a delay-reading rule sees ``d <= 0``, so the
  Python loop then runs the block from step 1.
* the FIFO event loop — a C transcription of
  ``FastEngine._run_fifo`` driven through a resume trampoline:
  ``fifo_enter`` copies the event heap, packet pool, and queue chains
  into C-owned growable arrays (fixed-size per-gateway/per-connection
  state stays in caller-owned numpy buffers mutated in place);
  ``fifo_run`` executes events until the horizon, returning
  ``REFILL`` *before* any event whose random draws would exhaust a
  variate block, so Python can refill the
  :class:`~repro.simulation.rng.VariateBuffer` (keeping the generator
  objects — and hence the exact bitstream — on the Python side) and
  resume; ``fifo_extract`` hands the heap/pool/queues back.

Float discipline: compiled with ``-ffp-contract=off -fno-fast-math``
so no FMA contraction or reassociation — every arithmetic operation
maps one-to-one onto the Python/numpy original, which is what makes
the engines bit-identical rather than merely close.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time as _time
from pathlib import Path
from typing import Optional

__all__ = [
    "load", "load_error", "build_seconds",
    "ST_DONE", "ST_REFILL", "ST_MAX_EVENTS", "ST_IDLE_SERVER",
    "ST_OOM", "ST_CONVERGED", "ST_DIVERGED", "LAW_FIFO", "LAW_FAIR_SHARE",
    "MEASURE_AGGREGATE", "MEASURE_INDIVIDUAL", "MEASURE_WEIGHTED",
    "RULE_TARGET", "RULE_PROPORTIONAL_TARGET", "RULE_DECBIT_RATE",
    "RULE_DECBIT_WINDOW", "RULE_BINARY_AIMD", "RULE_TCP_LIKE",
    "GATE_NONE", "GATE_ROUND_ROBIN", "GATE_COINS", "SI_DEGRADE",
    "SI_BLACKHOLE", "SI_RESTORE", "EventLog", "Perturb", "Control",
]

# Status codes shared with the C side.
ST_DONE = 0
ST_REFILL = 1
ST_MAX_EVENTS = 3
ST_IDLE_SERVER = 4
ST_OOM = 5
ST_CONVERGED = 7
ST_DIVERGED = 8

# Queue-law and congestion-measure codes of observe_batch.
LAW_FIFO = 0
LAW_FAIR_SHARE = 1
MEASURE_AGGREGATE = 0
MEASURE_INDIVIDUAL = 1
MEASURE_WEIGHTED = 2

# Rule codes of ensemble_loop (see repro.core.ratecontrol's rule table).
RULE_TARGET = 0
RULE_PROPORTIONAL_TARGET = 1
RULE_DECBIT_RATE = 2
RULE_DECBIT_WINDOW = 3
RULE_BINARY_AIMD = 4
RULE_TCP_LIKE = 5

# Clock-gate codes of ensemble_loop (see repro.core.asynchronous's gate
# table).
GATE_NONE = 0
GATE_ROUND_ROBIN = 1
GATE_COINS = 2

# Structural injector and event kinds of ensemble_loop's perturbation
# (see repro.chaos.structural); a fault injector's code is its stage.
SI_DEGRADE = 0
SI_BLACKHOLE = 1
SI_RESTORE = 2

_SOURCE = r"""
#include <stdlib.h>
#include <string.h>
#include <stdint.h>
#include <math.h>

typedef int64_t i64;
typedef uint64_t u64;

#define K_EMIT 0
#define K_COMPLETE 1
#define K_HANDOFF 2
#define K_SINK 3

#define ST_DONE 0
#define ST_REFILL 1
#define ST_MAX_EVENTS 3
#define ST_IDLE_SERVER 4
#define ST_OOM 5
#define ST_DOMAIN 6

/* ------------------------------------------------------------------ */
/* Fair Share sorted prefix-sum kernels                               */
/* ------------------------------------------------------------------ */

/* Runs of this many entries are insertion-sorted before the merges. */
#define SORT_RUN 8

/* Stable ascending argsort (insertion-sorted runs of SORT_RUN, then a
 * bottom-up mergesort on an index array).  Stability + ascending order
 * determine the permutation uniquely, so this matches numpy's
 * kind="stable" argsort exactly. */
static void stable_argsort(const double *v, i64 n, i64 *idx, i64 *tmp)
{
    i64 *src = idx, *dst = tmp, width;
    for (i64 lo = 0; lo < n; lo += SORT_RUN) {
        i64 hi = lo + SORT_RUN < n ? lo + SORT_RUN : n;
        for (i64 i = lo; i < hi; i++) {
            /* an entry moves left past strictly larger ones only */
            i64 j = i;
            double x = v[i];
            while (j > lo && v[idx[j - 1]] > x) {
                idx[j] = idx[j - 1];
                j--;
            }
            idx[j] = i;
        }
    }
    for (width = SORT_RUN; width < n; width *= 2) {
        for (i64 lo = 0; lo < n; lo += 2 * width) {
            i64 mid = lo + width, hi = lo + 2 * width;
            if (mid > n) mid = n;
            if (hi > n) hi = n;
            i64 i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                /* left wins ties: keeps original order (stable) */
                if (v[src[j]] < v[src[i]]) dst[k++] = src[j++];
                else dst[k++] = src[i++];
            }
            while (i < mid) dst[k++] = src[i++];
            while (j < hi) dst[k++] = src[j++];
        }
        i64 *sw = src; src = dst; dst = sw;
    }
    if (src != idx)
        memcpy(idx, src, (size_t)n * sizeof(i64));
}

/* Order-preserving integer key for a non-NaN double: flip the sign
 * bit for nonnegative values, flip every bit for negative ones, and
 * collapse -0.0 onto +0.0 first so the two zeros stay one tie class
 * (IEEE comparison says -0.0 == +0.0, and the radix sort below must
 * reproduce the comparison sort's tie behaviour exactly). */
static inline u64 sort_key(double x)
{
    u64 b;
    memcpy(&b, &x, sizeof b);
    if (b == 0x8000000000000000ULL) b = 0;          /* -0.0 -> +0.0 */
    return (b >> 63) ? ~b : (b | 0x8000000000000000ULL);
}

/* Stable ascending argsort via LSD radix on the 64-bit keys: 8-bit
 * digits, counting passes (stable by construction), single-bucket
 * passes skipped.  Same permutation as the mergesort for any input
 * without NaNs (the dispatch guards keep NaNs out of these kernels);
 * ~4x faster for the row lengths the scale paths use. */
static void radix_argsort(const double *v, i64 n, i64 *idx, i64 *tmp,
                          u64 *keys, u64 *keys_tmp)
{
    i64 count[256];
    i64 *idx0 = idx;
    for (i64 i = 0; i < n; i++) { idx[i] = i; keys[i] = sort_key(v[i]); }
    for (int shift = 0; shift < 64; shift += 8) {
        memset(count, 0, sizeof count);
        for (i64 i = 0; i < n; i++)
            count[(keys[i] >> shift) & 0xff]++;
        if (count[(keys[0] >> shift) & 0xff] == n)
            continue;                     /* whole row in one bucket */
        i64 pos = 0;
        for (int b = 0; b < 256; b++) {
            i64 c = count[b]; count[b] = pos; pos += c;
        }
        for (i64 i = 0; i < n; i++) {
            u64 k = keys[i];
            i64 p = count[(k >> shift) & 0xff]++;
            keys_tmp[p] = k;
            tmp[p] = idx[i];
        }
        u64 *ks = keys; keys = keys_tmp; keys_tmp = ks;
        i64 *is = idx; idx = tmp; tmp = is;
    }
    if (idx != idx0)
        memcpy(idx0, idx, (size_t)n * sizeof(i64));
}

/* Radix wins once the row is long enough to amortise its 8 counting
 * passes; below that the mergesort is cheaper.  Measured per Fair
 * Share row (DESIGN.md, section 13): the mergesort is faster up to
 * width 80 on every kind of row, radix from 112 on all but tied rows. */
#define RADIX_MIN_N 112

static void sort_row(const double *v, i64 n, i64 *idx, i64 *tmp,
                     u64 *keys, u64 *keys_tmp)
{
    if (n >= RADIX_MIN_N)
        radix_argsort(v, n, idx, tmp, keys, keys_tmp);
    else
        stable_argsort(v, n, idx, tmp);
}

/* Tie rule shared by the three kernels: a run of equal sorted values
 * takes the value computed at the run's last rank (where the prefix
 * sum has taken in the whole run), so tied inputs get bit-identical
 * outputs.  Each kernel scans a run, then writes it. */

/* The kernels return ST_DONE, or ST_DOMAIN without writing when an
 * input lies outside the domain on which they match the numpy
 * pipeline bit for bit (the caller then runs that pipeline), or
 * ST_OOM. */
static int all_rates(const double *v, i64 len)
{
    for (i64 i = 0; i < len; i++)
        if (!(v[i] >= 0.0 && v[i] < INFINITY)) return 0;
    return 1;
}

static int all_weights(const double *phi, i64 n)
{
    for (i64 i = 0; i < n; i++)
        if (!(phi[i] > 0.0 && phi[i] < INFINITY)) return 0;
    return 1;
}

/* Work arrays of the sorted row laws, for rows of up to n entries. */
typedef struct {
    i64 *idx, *tmp;
    u64 *keys, *keys_tmp;
    double *v;
    double *w;   /* w[k]: weight at or above sorted rank k; w[n] = 0 */
} RowScratch;

static void scratch_free(RowScratch *s)
{
    free(s->idx); free(s->tmp); free(s->keys); free(s->keys_tmp);
    free(s->v); free(s->w);
}

/* Returns 0, with nothing left allocated, when memory runs out. */
static int scratch_alloc(RowScratch *s, i64 n)
{
    size_t len = (size_t)n + 1;
    s->idx = (i64 *)malloc(len * sizeof(i64));
    s->tmp = (i64 *)malloc(len * sizeof(i64));
    s->keys = (u64 *)malloc(len * sizeof(u64));
    s->keys_tmp = (u64 *)malloc(len * sizeof(u64));
    s->v = (double *)malloc(len * sizeof(double));
    s->w = (double *)malloc(len * sizeof(double));
    if (!s->idx || !s->tmp || !s->keys || !s->keys_tmp || !s->v || !s->w) {
        scratch_free(s);
        return 0;
    }
    return 1;
}

/* The Fair Share queue law of one row of n rates.  phi, when not
 * NULL, holds the n weights of the weighted law: the row is sorted
 * by the normalised rate v = r / phi, class k's load is
 * (prefix of r + v_(k) * weight strictly above k) / mu, and its
 * occupancy increment is split by phi_j / (weight at or above k).
 * NULL is the unweighted law (v = r, every weight 1), which is the
 * equal-weight case bit for bit: the weight sums are then exact
 * integers and every product by a weight of 1 is exact.  The top run
 * has no weight above it and adds no cap term, so an overflowing v
 * never meets a zero weight. */
static void fs_queue_row(const double *rr, const double *phi, i64 n,
                         double mu, double *oo, RowScratch *s)
{
    const double *vv = rr;
    i64 *idx = s->idx;
    double *w = s->w;
    if (phi) {
        for (i64 i = 0; i < n; i++) s->v[i] = rr[i] / phi[i];
        vv = s->v;
    }
    sort_row(vv, n, idx, s->tmp, s->keys, s->keys_tmp);
    w[n] = 0.0;
    for (i64 k = n - 1; k >= 0; k--)
        w[k] = (phi ? phi[idx[k]] : 1.0) + w[k + 1];
    double prefix = 0.0, g_prev = 0.0, acc = 0.0;
    for (i64 k = 0; k < n;) {
        i64 end = k;
        prefix += rr[idx[k]];
        while (end + 1 < n && vv[idx[end + 1]] == vv[idx[k]])
            prefix += rr[idx[++end]];
        double cap = (end + 1 < n) ? vv[idx[end]] * w[end + 1] : 0.0;
        double sigma = (prefix + cap) / mu;
        double gs = (sigma < 1.0) ? (sigma / (1.0 - sigma)) : INFINITY;
        for (; k <= end; k++) {
            i64 j = idx[k];
            double q;
            if (isfinite(gs)) {
                acc += (gs - g_prev) / w[k];
                q = phi ? acc * phi[j] : acc;
            } else {
                acc += 0.0; /* the masked cumsum adds literal zero */
                q = INFINITY;
            }
            if (rr[j] == 0.0) q = 0.0;
            oo[j] = q;
            g_prev = gs;
        }
    }
}

/* The individual congestion measure of one row of n queues. */
static void ind_congestion_row(const double *qq, i64 n, double *oo,
                               RowScratch *s)
{
    i64 *idx = s->idx;
    sort_row(qq, n, idx, s->tmp, s->keys, s->keys_tmp);
    double prefix = -0.0;   /* the additive identity: a -0.0 row sums
                             * to -0.0, as np.cumsum does */
    for (i64 k = 0; k < n;) {
        i64 end = k;
        prefix += qq[idx[k]];
        while (end + 1 < n && qq[idx[end + 1]] == qq[idx[k]])
            prefix += qq[idx[++end]];
        double v = qq[idx[end]];
        double c = isinf(v) ? INFINITY
                            : (prefix + v * (double)(n - 1 - end));
        for (; k <= end; k++)
            oo[idx[k]] = c;
    }
}

/* The Fair Share queue law of an (m, n) rate batch, row by row (see
 * fs_queue_row; phi NULL is the unweighted law). */
int fs_queue_batch(const double *rates, const double *phi, i64 m, i64 n,
                   double mu, double *out)
{
    if (!all_rates(rates, m * n)) return ST_DOMAIN;
    if (phi && !all_weights(phi, n)) return ST_DOMAIN;
    if (m == 0 || n == 0) return ST_DONE;
    RowScratch s;
    if (!scratch_alloc(&s, n)) return ST_OOM;
    for (i64 row = 0; row < m; row++)
        fs_queue_row(rates + row * n, phi, n, mu, out + row * n, &s);
    scratch_free(&s);
    return ST_DONE;
}

int fs_loads_batch(const double *sorted_rates, i64 m, i64 n,
                   double mu, double *out)
{
    if (!all_rates(sorted_rates, m * n)) return ST_DOMAIN;
    for (i64 row = 0; row < m; row++) {
        const double *rr = sorted_rates + row * n;
        double *oo = out + row * n;
        double prefix = 0.0;
        for (i64 k = 0; k < n;) {
            i64 end = k;
            prefix += rr[k];
            while (end + 1 < n && rr[end + 1] == rr[k])
                prefix += rr[++end];
            double load = (prefix + rr[end] * (double)(n - 1 - end)) / mu;
            for (; k <= end; k++)
                oo[k] = load;
        }
    }
    return ST_DONE;
}

/* Queues may be inf, not NaN or negative. */
static int all_queues(const double *q, i64 len)
{
    for (i64 i = 0; i < len; i++)
        if (!(q[i] >= 0.0)) return 0;
    return 1;
}

int ind_congestion_batch(const double *queues, i64 m, i64 n,
                         double *out)
{
    if (!all_queues(queues, m * n)) return ST_DOMAIN;
    if (m == 0 || n == 0) return ST_DONE;
    RowScratch s;
    if (!scratch_alloc(&s, n)) return ST_OOM;
    for (i64 row = 0; row < m; row++)
        ind_congestion_row(queues + row * n, n, out + row * n, &s);
    scratch_free(&s);
    return ST_DONE;
}

/* ------------------------------------------------------------------ */
/* The observe stage: every gateway's law, measure, signal and MAX     */
/* ------------------------------------------------------------------ */

#define LAW_FIFO 0
#define LAW_FAIR_SHARE 1
#define MEASURE_AGGREGATE 0
#define MEASURE_INDIVIDUAL 1
#define MEASURE_WEIGHTED 2

/* The FIFO queue law of one row, as Fifo.queue_lengths_batch: the
 * total load is a strict left fold (row_sums); an overloaded row has
 * inf queues where rho > 0 and 0 elsewhere. */
static void fifo_queue_row(const double *rr, i64 n, double mu, double *oo)
{
    double total = rr[0] / mu;
    for (i64 k = 1; k < n; k++) total += rr[k] / mu;
    if (total >= 1.0) {
        for (i64 k = 0; k < n; k++)
            oo[k] = (rr[k] / mu > 0.0) ? INFINITY : 0.0;
    } else {
        double idle = 1.0 - total;
        for (i64 k = 0; k < n; k++) oo[k] = (rr[k] / mu) / idle;
    }
}

static void queue_row(int law, const double *rr, const double *law_phi,
                      i64 n, double mu, double *oo, RowScratch *s)
{
    if (law == LAW_FIFO) fifo_queue_row(rr, n, mu, oo);
    else fs_queue_row(rr, law_phi, n, mu, oo, s);
}

/* As weighted_individual_congestion_batch: c_i is the left fold over
 * j of np.minimum(q_j, (phi_j / phi_i) * q_i), where np.minimum
 * returns a NaN operand (the first of two) and otherwise the second
 * operand unless the first is strictly smaller. */
static void weighted_congestion_row(const double *q, const double *phi,
                                    const i64 *cols, i64 n, double *oo)
{
    for (i64 i = 0; i < n; i++) {
        double pi = phi[cols[i]], c = 0.0;
        for (i64 j = 0; j < n; j++) {
            double a = q[j], b = (phi[cols[j]] / pi) * q[i];
            double x = (isnan(a) || a < b) ? a : b;
            c = (j == 0) ? x : c + x;
        }
        oo[i] = c;
    }
}

/* The static arguments of the observe stage for one scheme: the
 * gateway CSR, the service rates, the law (with law_phi the weighted
 * Fair Share weights by local position), the congestion measure (with
 * phi the per-connection weights of the weighted measure) and, when
 * the delays are wanted, the path latencies (NULL otherwise). */
typedef struct {
    i64 n, n_gw;
    const i64 *gw_ptr, *members;
    const double *mu;
    int law, measure;
    const double *law_phi, *phi, *path_latency;
} ObservePlan;

/* Work arrays of observe_row: the row laws' scratch and five vectors
 * as wide as the widest gateway. */
typedef struct {
    RowScratch s;
    double *local, *q, *c, *probe, *q_probe;  /* one block at local */
} ObserveScratch;

static void observe_scratch_free(ObserveScratch *o)
{
    free(o->local);
    scratch_free(&o->s);
}

/* Returns 0, with nothing left allocated, when memory runs out. */
static int observe_scratch_alloc(ObserveScratch *o, const ObservePlan *p)
{
    i64 width = 0;
    for (i64 a = 0; a < p->n_gw; a++)
        if (p->gw_ptr[a + 1] - p->gw_ptr[a] > width)
            width = p->gw_ptr[a + 1] - p->gw_ptr[a];
    if (!scratch_alloc(&o->s, width)) return 0;
    size_t len = (size_t)width + 1;
    o->local = (double *)malloc(5 * len * sizeof(double));
    if (!o->local) {
        scratch_free(&o->s);
        return 0;
    }
    o->q = o->local + len;
    o->c = o->local + 2 * len;
    o->probe = o->local + 3 * len;
    o->q_probe = o->local + 4 * len;
    return 1;
}

/* The observe stage of one row rr of n rates, gateway by gateway in
 * CSR order: the queue law, the congestion measure, the signal
 * B(C) = C / (C + 1) (1 for C = inf), and the MAX into bb, where the
 * old value stays only when strictly larger (np.maximum(b, s)).  With
 * path_latency not NULL it also writes the round-trip delays into dd:
 * the latencies plus each gateway's Little's-law sojourns q / r, and
 * for r <= 0 the probe q_probe / eps with eps = mu * 1e-9 and q_probe
 * the law on the row with those rates set to eps.  Each step is the
 * numpy loop's arithmetic in its order, so the bits are the same.
 * Returns ST_DOMAIN, possibly having written bb and dd, on a NaN,
 * negative or infinite rate, or a NaN or negative measure. */
static int observe_row(const double *rr, const ObservePlan *p,
                       double *bb, double *dd, ObserveScratch *o)
{
    i64 n = p->n;
    if (!all_rates(rr, n)) return ST_DOMAIN;
    double *local = o->local, *q = o->q, *c = o->c;
    for (i64 i = 0; i < n; i++) bb[i] = 0.0;
    if (p->path_latency)
        memcpy(dd, p->path_latency, (size_t)n * sizeof(double));
    for (i64 a = 0; a < p->n_gw; a++) {
        const i64 *cols = p->members + p->gw_ptr[a];
        i64 k = p->gw_ptr[a + 1] - p->gw_ptr[a];
        if (k == 0) continue;
        for (i64 j = 0; j < k; j++) local[j] = rr[cols[j]];
        queue_row(p->law, local, p->law_phi, k, p->mu[a], q, &o->s);
        if (p->measure == MEASURE_AGGREGATE) {
            double total = q[0];
            for (i64 j = 1; j < k; j++) total += q[j];
            for (i64 j = 0; j < k; j++) c[j] = total;
        } else if (p->measure == MEASURE_INDIVIDUAL) {
            /* a NaN or negative queue sends the numpy loop to its own
             * measure pipeline: hand the row back */
            if (!all_queues(q, k)) return ST_DOMAIN;
            ind_congestion_row(q, k, c, &o->s);
        } else {
            weighted_congestion_row(q, p->phi, cols, k, c);
        }
        if (!all_queues(c, k)) return ST_DOMAIN;
        for (i64 j = 0; j < k; j++) {
            double sig = isinf(c[j]) ? 1.0 : c[j] / (c[j] + 1.0);
            if (!(bb[cols[j]] > sig)) bb[cols[j]] = sig;
        }
        if (!p->path_latency) continue;
        double eps = p->mu[a] * 1e-9;
        int idle = 0;
        for (i64 j = 0; j < k; j++) {
            o->probe[j] = (local[j] > 0.0) ? local[j] : eps;
            idle |= !(local[j] > 0.0);
        }
        if (idle)
            queue_row(p->law, o->probe, p->law_phi, k, p->mu[a],
                      o->q_probe, &o->s);
        for (i64 j = 0; j < k; j++)
            dd[cols[j]] += (local[j] > 0.0) ? q[j] / local[j]
                                            : o->q_probe[j] / eps;
    }
    return ST_DONE;
}

/* The observe stage of an (m, n) rate batch, row by row (see
 * observe_row): b and, with path_latency not NULL, d.  Returns
 * ST_DOMAIN on the first row outside the kernel's domain. */
int observe_batch(const double *rates, i64 m, i64 n, i64 n_gw,
                  const i64 *gw_ptr, const i64 *members, const double *mu,
                  int law, const double *law_phi, int measure,
                  const double *phi, const double *path_latency,
                  double *b, double *d)
{
    ObservePlan p = {n, n_gw, gw_ptr, members, mu, law, measure,
                     law_phi, phi, path_latency};
    ObserveScratch o;
    if (!observe_scratch_alloc(&o, &p)) return ST_OOM;
    int status = ST_DONE;
    for (i64 row = 0; row < m && status == ST_DONE; row++)
        status = observe_row(rates + row * n, &p, b + row * n,
                             path_latency ? d + row * n : NULL, &o);
    observe_scratch_free(&o);
    return status;
}

/* ------------------------------------------------------------------ */
/* The clock gate: numpy's default_rng([seed, step]).random(n) coins   */
/* ------------------------------------------------------------------ */

typedef uint32_t u32;
typedef unsigned __int128 u128;

/* numpy's SeedSequence constants (pool of 4 words). */
#define SS_INIT_A 0x43b0d7e5U
#define SS_MULT_A 0x931e8875U
#define SS_INIT_B 0x8b51f9ddU
#define SS_MULT_B 0x58f38dedU
#define SS_MIX_MULT_L 0xca01f9ddU
#define SS_MIX_MULT_R 0x4973f715U

static inline u32 ss_hashmix(u32 value, u32 *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    value ^= value >> 16;
    return value;
}

static inline u32 ss_mix(u32 x, u32 y)
{
    u32 result = SS_MIX_MULT_L * x - SS_MIX_MULT_R * y;
    result ^= result >> 16;
    return result;
}

#define PCG_MULT (((u128)2549297995355413924ULL << 64) \
                  + 4865540595714422341ULL)

typedef struct { u128 state, inc; } Pcg64;

static inline void pcg_step(Pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
}

/* PCG64's XSL-RR output after one step. */
static inline u64 pcg_next64(Pcg64 *g)
{
    pcg_step(g);
    u64 x = (u64)(g->state >> 64) ^ (u64)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

static inline double pcg_double(Pcg64 *g)
{
    return (double)(pcg_next64(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* np.random.default_rng(entropy) for entropy words ent[0..len): the
 * SeedSequence pool mix (with the extra loop for words past the
 * fourth), its generate_state(4, uint64), and PCG64's seeding. */
static void pcg_seed(Pcg64 *g, const u32 *ent, i64 len)
{
    u32 pool[4], hc = SS_INIT_A, hb = SS_INIT_B, st[8];
    for (int i = 0; i < 4; i++)
        pool[i] = ss_hashmix(i < len ? ent[i] : 0U, &hc);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst], ss_hashmix(pool[src], &hc));
    for (i64 src = 4; src < len; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = ss_mix(pool[dst], ss_hashmix(ent[src], &hc));
    for (int i = 0; i < 8; i++) {
        u32 v = pool[i % 4] ^ hb;
        hb *= SS_MULT_B;
        v *= hb;
        st[i] = v ^ (v >> 16);
    }
    u64 w[4];
    for (int k = 0; k < 4; k++)
        w[k] = (u64)st[2 * k] | ((u64)st[2 * k + 1] << 32);
    g->state = 0;
    g->inc = ((((u128)w[2] << 64) | w[3]) << 1) | 1U;
    pcg_step(g);
    g->state += ((u128)w[0] << 64) | w[1];
    pcg_step(g);
}

/* Append the little-endian 32-bit words of v (one word for 0) to ent
 * at len; returns the new length. */
static i64 push_words(u32 *ent, i64 len, u64 v)
{
    do {
        ent[len++] = (u32)v;
        v >>= 32;
    } while (v);
    return len;
}

/* default_rng([seed, step]).random(n) into out, with the seed given as
 * its n_seed entropy words (at most 8). */
int coin_stream(const u32 *seed, i64 n_seed, u64 step, i64 n, double *out)
{
    u32 ent[10];
    if (n_seed < 1 || n_seed > 8) return ST_DOMAIN;
    memcpy(ent, seed, (size_t)n_seed * sizeof(u32));
    Pcg64 g;
    pcg_seed(&g, ent, push_words(ent, n_seed, step));
    for (i64 i = 0; i < n; i++) out[i] = pcg_double(&g);
    return ST_DONE;
}

#define GATE_NONE 0
#define GATE_ROUND_ROBIN 1
#define GATE_COINS 2

/* A shared schedule's gate: no gate, round-robin, or coins, where
 * source i ticks at schedule step t when u_i < its threshold, u being
 * default_rng([seed, t]).random(n).  The threshold is on[i], or with
 * off not NULL (a bursty clock) off[i] in the odd bursts, those with
 * ((t + offsets[i]) / burst_len) % 2 == 1. */
typedef struct {
    int code;
    const u32 *seed;
    i64 n_seed, burst_len;
    const double *on, *off;
    const i64 *offsets;
} GatePlan;

/* The plans gate_row can draw with: a coin gate needs one to eight seed
 * words and its thresholds, and a bursty one a burst length >= 1. */
static int gate_valid(const GatePlan *g)
{
    if (g->code == GATE_COINS && (g->n_seed < 1 || g->n_seed > 8 || !g->on))
        return 0;
    return !(g->off && g->burst_len < 1);
}

static void gate_row(const GatePlan *g, i64 t, i64 n, unsigned char *mask)
{
    if (g->code != GATE_COINS) {
        for (i64 i = 0; i < n; i++)
            mask[i] = g->code == GATE_NONE || i == t % n;
        return;
    }
    u32 ent[10];
    memcpy(ent, g->seed, (size_t)g->n_seed * sizeof(u32));
    Pcg64 rng;
    pcg_seed(&rng, ent, push_words(ent, g->n_seed, (u64)t));
    for (i64 i = 0; i < n; i++) {
        double u = pcg_double(&rng), thr = g->on[i];
        if (g->off && ((t + g->offsets[i]) / g->burst_len) % 2)
            thr = g->off[i];
        mask[i] = u < thr;
    }
}

/* The masks of schedule steps t0 .. t0 + steps - 1 into out, row by
 * row (what the ensemble loop gates with). */
int gate_masks(int code, const u32 *seed, i64 n_seed, const double *on,
               const double *off, const i64 *offsets, i64 burst_len,
               i64 t0, i64 steps, i64 n, unsigned char *out)
{
    GatePlan g = {code, seed, n_seed, burst_len, on, off, offsets};
    if (!gate_valid(&g)) return ST_DOMAIN;
    for (i64 k = 0; k < steps; k++)
        gate_row(&g, t0 + k, n, out + k * n);
    return ST_DONE;
}

/* ------------------------------------------------------------------ */
/* The ensemble loop: FlowControlSystem._run_block on a member block    */
/* ------------------------------------------------------------------ */

#define ST_CONVERGED 7
#define ST_DIVERGED 8

#define RULE_TARGET 0
#define RULE_PROPORTIONAL_TARGET 1
#define RULE_DECBIT_RATE 2
#define RULE_DECBIT_WINDOW 3
#define RULE_BINARY_AIMD 4
#define RULE_TCP_LIKE 5

/* np.maximum on floats: a when a is larger or NaN, else b (so a tie of
 * two zeros takes b's sign, as numpy does). */
static inline double np_maximum(double a, double b)
{
    return (a > b || isnan(a)) ? a : b;
}

/* The decide and clip stages of one row: each connection's rule
 * (codes, with up to three parameters each in params) on its rate r,
 * signal b and delay d, as the rule's delta_batch, then
 * np.maximum(0.0, r + delta) (apply_batch) and np.maximum(x, 0.0)
 * (clip_nonnegative), operation for operation.  Returns ST_DOMAIN when
 * a delay-reading rule sees d <= 0, where delta_batch raises. */
static int decide_row(const double *rr, const double *bb, const double *dd,
                      i64 n, const i64 *codes, const double *params,
                      double *out)
{
    for (i64 i = 0; i < n; i++) {
        const double *p = params + 3 * i;
        double r = rr[i], b = bb[i], delta;
        switch (codes[i]) {
        case RULE_TARGET:
            delta = p[0] * (p[1] - b);
            break;
        case RULE_PROPORTIONAL_TARGET:
            delta = p[0] * r * (p[1] - b);
            break;
        case RULE_DECBIT_RATE:
            delta = (1.0 - b) * p[0] - p[1] * b * r;
            break;
        case RULE_DECBIT_WINDOW: {
            double d = dd[i], decrease = p[1] * b * r;
            if (d <= 0.0) return ST_DOMAIN;
            delta = isinf(d) ? -decrease : (1.0 - b) * p[0] / d - decrease;
            break;
        }
        case RULE_BINARY_AIMD:
            delta = (b < p[2]) ? p[0] : -p[1] * r;
            break;
        default: /* RULE_TCP_LIKE */
            if (dd[i] <= 0.0) return ST_DOMAIN;
            delta = (b < p[2]) ? p[0] / dd[i] : -p[1] * r;
        }
        out[i] = np_maximum(np_maximum(0.0, r + delta), 0.0);
    }
    return ST_DONE;
}

/* ------------------------------------------------------------------ */
/* The router-side controller: RcpBank.update, then advertised         */
/* ------------------------------------------------------------------ */

/* np.clip on floats: np.minimum(np.maximum(x, lo), hi), where a NaN in
 * either operand wins. */
static inline double np_clip(double x, double lo, double hi)
{
    x = (isnan(x) || x > lo) ? x : lo;
    return (isnan(x) || x < hi) ? x : hi;
}

/* An RcpBank as ensemble_loop runs it in place of the observe, perturb
 * and decide stages: n_gw gateways, the connections through each
 * (gw_ptr, members, in Gamma(a) order) and the gateways on each route
 * (route_ptr, routes), the service rates mu and the advertised-rate
 * floors, the gains alpha and beta, the factor envelope [factor_min,
 * factor_max] and the initial advertised rates state0, which every
 * member starts from. */
typedef struct {
    i64 n_gw;
    const i64 *gw_ptr, *members, *route_ptr, *routes;
    const double *mu, *floor, *state0;
    double alpha, beta, factor_min, factor_max;
} Control;

/* One controlled step of the row rr of n rates
 * (FlowControlSystem._controlled_row), operation for operation: each
 * gateway's load y, summed left to right over its connections
 * (RcpBank._loads, 0 where none crosses it), advances its advertised
 * rate in state (RcpBank._advance: the gain, the queue term
 * x / max(spare, 1e-12), 1e12 when saturated, only when beta > 0,
 * then the clipped factor and the clipped rate); then each connection
 * adopts the smallest advertised rate on its route (advertised) and
 * the clip at zero (clip_nonnegative) writes it to out. */
static void control_row(const Control *c, const double *rr, i64 n,
                        double *state, double *out)
{
    for (i64 a = 0; a < c->n_gw; a++) {
        const i64 *cols = c->members + c->gw_ptr[a];
        i64 k = c->gw_ptr[a + 1] - c->gw_ptr[a];
        double y = 0.0;
        if (k) {
            y = rr[cols[0]];
            for (i64 j = 1; j < k; j++) y += rr[cols[j]];
        }
        double x = y / c->mu[a];
        double gain = c->alpha * (1.0 - x);
        if (c->beta > 0.0) {
            double spare = 1.0 - x;
            double queue = spare > 1e-12 ? x / np_maximum(spare, 1e-12)
                                         : 1e12;
            gain = gain - c->beta * queue;
        }
        double factor = np_clip(1.0 + gain, c->factor_min, c->factor_max);
        state[a] = np_clip(state[a] * factor, c->floor[a], c->mu[a]);
    }
    for (i64 i = 0; i < n; i++) {
        const i64 *route = c->routes + c->route_ptr[i];
        i64 len = c->route_ptr[i + 1] - c->route_ptr[i];
        double v = state[route[0]];
        for (i64 j = 1; j < len; j++) {
            double s = state[route[j]];
            v = (v < s || isnan(v)) ? v : s;
        }
        out[i] = np_maximum(v, 0.0);
    }
}

/* ------------------------------------------------------------------ */
/* The perturb stages: structural damage and signal-path faults        */
/* ------------------------------------------------------------------ */

/* Fault injector codes (their stage numbers) and structural kinds. */
#define FI_SKEW 0
#define FI_DELAY 1
#define FI_OUTAGE 2
#define FI_LOSS 3
#define FI_NOISE 4
#define FI_QUANTISE 5
#define SI_DEGRADE 0
#define SI_BLACKHOLE 1
#define SI_RESTORE 2

/* A growable event log: four integers (step, member, index, kind) and
 * a detail per event.  The caller frees it with event_log_free. */
typedef struct {
    i64 len, cap;
    i64 *ints;
    double *detail;
} EventLog;

void event_log_free(EventLog *log)
{
    free(log->ints);
    free(log->detail);
    log->ints = NULL;
    log->detail = NULL;
    log->len = log->cap = 0;
}

/* Returns 0 when memory runs out. */
static int log_event(EventLog *log, i64 step, i64 member, i64 index,
                     i64 kind, double detail)
{
    if (log->len == log->cap) {
        i64 cap = log->cap ? 2 * log->cap : 256;
        i64 *ints = (i64 *)realloc(log->ints, (size_t)cap * 4 * sizeof(i64));
        if (!ints) return 0;
        log->ints = ints;
        double *det = (double *)realloc(log->detail,
                                        (size_t)cap * sizeof(double));
        if (!det) return 0;
        log->detail = det;
        log->cap = cap;
    }
    i64 *e = log->ints + 4 * log->len;
    e[0] = step;
    e[1] = member;
    e[2] = index;
    e[3] = kind;
    log->detail[log->len++] = detail;
    return 1;
}

/* A numpy Generator(PCG64) stream: the bit generator and the spare
 * upper half of the last 64-bit output a 32-bit draw split (numpy's
 * has_uint32 / uinteger), which the next 32-bit draw takes first, also
 * across calls and across random() draws, which never touch it. */
typedef struct {
    Pcg64 g;
    int has_half;
    u32 half;
} Stream;

static inline u32 stream_next32(Stream *s)
{
    if (s->has_half) {
        s->has_half = 0;
        return s->half;
    }
    u64 x = pcg_next64(&s->g);
    s->has_half = 1;
    s->half = (u32)(x >> 32);
    return (u32)x;
}

/* One draw of Generator.integers(0, rng + 1) for 1 <= rng < 2**32 - 1:
 * Lemire's multiply-and-reject on 32-bit draws, as numpy's
 * buffered_bounded_lemire_uint32. */
static u32 stream_bounded(Stream *s, u32 rng)
{
    u32 excl = rng + 1;
    u64 m = (u64)stream_next32(s) * excl;
    u32 left = (u32)m;
    if (left < excl) {
        u32 threshold = (UINT32_MAX - rng) % excl;
        while (left < threshold) {
            m = (u64)stream_next32(s) * excl;
            left = (u32)m;
        }
    }
    return (u32)(m >> 32);
}

/* A scheduled window (GatewayOutage.active, the structural windows):
 * steps start .. start + duration - 1, repeating every period steps
 * (period 0: once). */
static int window_active(i64 step, i64 start, i64 duration, i64 period)
{
    i64 offset = step - start;
    if (offset < 0) return 0;
    return (period ? offset % period : offset) < duration;
}

/* The perturb stages of ensemble_loop.  A structural plan of n_si
 * injectors in plan order (si: gateway, SI_ kind, duration, period per
 * injector; si_factor; si_start: each member's n_si window starts) and
 * a fault plan of n_fi injectors in stage order (fi: FI_ code, three
 * integer parameters, and the offset into fi_sets and length of its
 * connection list, length -1 for every connection; fi_real: two real
 * parameters), with cap rows of true-signal history and per member
 * n_skew rows of n start-time skew lags and a stream of six words (the
 * PCG64 state's high and low halves, the increment's, has_uint32 and
 * uinteger).  Events go to flog and slog. */
typedef struct {
    i64 n_si;
    const i64 *si;
    const double *si_factor;
    const i64 *si_start;
    i64 n_fi, cap, n_skew;
    const i64 *fi;
    const double *fi_real;
    const i64 *fi_sets;
    const i64 *skew;
    const u64 *streams;
    EventLog flog, slog;
} Perturb;

/* One member's perturbation state: its view of the observe plan (the
 * service rates below), the active windows, the true-signal ring of
 * cap rows (count recorded so far), the delivered vector, its stream,
 * and draw buffers. */
typedef struct {
    Perturb *pt;
    const ObservePlan *base;
    ObservePlan view;
    double *mu, *fac, *hist, *delivered, *draws, *noise;
    unsigned char *active;
    Stream rng;
    i64 count;
} PerturbWork;

static void perturb_free(PerturbWork *w)
{
    free(w->mu);
    free(w->active);
}

/* Returns 0, with nothing left allocated, when memory runs out. */
static int perturb_alloc(PerturbWork *w, Perturb *pt, const ObservePlan *p)
{
    i64 n = p->n, n_gw = p->n_gw;
    w->pt = pt;
    w->base = p;
    w->view = *p;
    w->mu = (double *)malloc(
        (size_t)(2 * n_gw + (pt->cap + 3) * n + 1) * sizeof(double));
    w->active = (unsigned char *)malloc((size_t)pt->n_si + 1);
    if (!w->mu || !w->active) {
        perturb_free(w);
        return 0;
    }
    w->fac = w->mu + n_gw;
    w->hist = w->fac + n_gw;
    w->delivered = w->hist + pt->cap * n;
    w->draws = w->delivered + n;
    w->noise = w->draws + n;
    w->view.mu = w->mu;
    return 1;
}

/* Member k starts: intact rates, no window open, no signal delivered
 * (zeros), no history, and its stream as the caller started it. */
static void perturb_start(PerturbWork *w, i64 k)
{
    const u64 *s = w->pt->streams;
    memcpy(w->mu, w->base->mu, (size_t)w->base->n_gw * sizeof(double));
    memset(w->active, 0, (size_t)w->pt->n_si + 1);
    for (i64 i = 0; i < w->base->n; i++) w->delivered[i] = 0.0;
    w->count = 0;
    if (!s) return;
    s += 6 * k;
    w->rng.g.state = ((u128)s[0] << 64) | s[1];
    w->rng.g.inc = ((u128)s[2] << 64) | s[3];
    w->rng.has_half = (int)s[4];
    w->rng.half = (u32)s[5];
}

/* The structural stage of member k at step (StructuralFaultState.
 * resolve): each window that opens or closes logs its event, in plan
 * order, and when one did the view's service rates become each
 * gateway's mu times the product of its open degradations' factors in
 * plan order (Network.with_mu_factors).  Returns 0 when memory runs
 * out. */
static int resolve_view(PerturbWork *w, i64 k, i64 step)
{
    Perturb *pt = w->pt;
    i64 n_gw = w->base->n_gw;
    int changed = 0;
    for (i64 j = 0; j < pt->n_si; j++) {
        const i64 *s = pt->si + 4 * j;
        int on = window_active(step, pt->si_start[k * pt->n_si + j],
                               s[2], s[3]);
        if (on == w->active[j]) continue;
        changed = 1;
        w->active[j] = (unsigned char)on;
        if (!log_event(&pt->slog, step, k, j, on ? s[1] : SI_RESTORE,
                       on ? pt->si_factor[j] : 1.0))
            return 0;
    }
    if (!changed) return 1;
    for (i64 a = 0; a < n_gw; a++) w->fac[a] = 1.0;
    for (i64 j = 0; j < pt->n_si; j++)
        if (w->active[j] && pt->si[4 * j + 1] == SI_DEGRADE)
            w->fac[pt->si[4 * j]] *= pt->si_factor[j];
    for (i64 a = 0; a < n_gw; a++) w->mu[a] = w->base->mu[a] * w->fac[a];
    return 1;
}

/* The perturb stage of member k at step on its observed signals b:
 * b = 1 on every connection through a blackholed gateway, then
 * FaultState.apply: the true signals enter the history and each fault
 * injector rewrites b in stage order, drawing from the member's stream
 * as numpy does (n doubles per loss, 2n per noise, n bounded integers
 * per jittered delay) and logging each event; b is then the delivered
 * vector.  Returns 0 when memory runs out. */
static int perturb_signals(PerturbWork *w, i64 k, i64 step, double *b)
{
    Perturb *pt = w->pt;
    const ObservePlan *p = w->base;
    i64 n = p->n, cap = pt->cap;
    for (i64 j = 0; j < pt->n_si; j++) {
        if (!w->active[j] || pt->si[4 * j + 1] != SI_BLACKHOLE) continue;
        i64 a = pt->si[4 * j];
        for (i64 c = p->gw_ptr[a]; c < p->gw_ptr[a + 1]; c++)
            b[p->members[c]] = 1.0;
    }
    if (!pt->n_fi) return 1;
    memcpy(w->hist + (w->count % cap) * n, b, (size_t)n * sizeof(double));
    w->count++;
    i64 avail = (w->count < cap ? w->count : cap) - 1;
    for (i64 f = 0; f < pt->n_fi; f++) {
        const i64 *fi = pt->fi + 6 * f;
        const i64 *set = fi[5] < 0 ? NULL : pt->fi_sets + fi[4];
        i64 len = fi[5] < 0 ? n : fi[5];
        double rate = pt->fi_real[2 * f];
        switch (fi[0]) {
        case FI_SKEW:
        case FI_DELAY: {
            const i64 *lags = fi[0] == FI_SKEW
                ? pt->skew + (k * pt->n_skew + fi[1]) * n : NULL;
            for (i64 i = 0; i < n; i++) {
                i64 lag = lags ? lags[i] : fi[1];
                if (fi[0] == FI_DELAY && fi[2])
                    lag += stream_bounded(&w->rng, (u32)fi[2]);
                if (lag > avail) lag = avail;
                if (lag <= 0) continue;
                b[i] = w->hist[((w->count - 1 - lag) % cap) * n + i];
                if (!log_event(&pt->flog, step, k, i, fi[0], (double)lag))
                    return 0;
            }
            break;
        }
        case FI_OUTAGE:
            if (!window_active(step, fi[1], fi[2], fi[3])) break;
            for (i64 x = 0; x < len; x++) {
                i64 i = set ? set[x] : x;
                b[i] = w->delivered[i];
                if (!log_event(&pt->flog, step, k, i, FI_OUTAGE, b[i]))
                    return 0;
            }
            break;
        case FI_LOSS:
            for (i64 i = 0; i < n; i++) w->draws[i] = pcg_double(&w->rng.g);
            for (i64 x = 0; x < len; x++) {
                i64 i = set ? set[x] : x;
                if (w->draws[i] < rate) {
                    b[i] = w->delivered[i];
                    if (!log_event(&pt->flog, step, k, i, FI_LOSS, b[i]))
                        return 0;
                }
            }
            break;
        case FI_NOISE: {
            /* Generator.uniform(-amp, amp): low + (high - low) * u */
            double amp = pt->fi_real[2 * f + 1], low = -amp;
            double range = amp - low;
            for (i64 i = 0; i < n; i++) w->draws[i] = pcg_double(&w->rng.g);
            for (i64 i = 0; i < n; i++)
                w->noise[i] = low + range * pcg_double(&w->rng.g);
            for (i64 i = 0; i < n; i++) {
                if (!(w->draws[i] < rate)) continue;
                double old = b[i], v = old + w->noise[i];
                v = v > 0.0 ? v : 0.0;  /* min(1.0, max(0.0, v)) */
                v = v < 1.0 ? v : 1.0;
                b[i] = v;
                if (!log_event(&pt->flog, step, k, i, FI_NOISE, v - old))
                    return 0;
            }
            break;
        }
        default: { /* FI_QUANTISE: round half to even onto levels - 1 */
            double grid = (double)fi[1];
            for (i64 i = 0; i < n; i++) {
                double q = nearbyint(b[i] * grid) / grid;
                if (q == b[i]) continue;
                if (!log_event(&pt->flog, step, k, i, FI_QUANTISE, q - b[i]))
                    return 0;
                b[i] = q;
            }
        }
        }
    }
    memcpy(w->delivered, b, (size_t)n * sizeof(double));
    return 1;
}

/* Draws from a stream of six words (see Perturb) into out, one call of
 * n draws per op in ops: 0 for random(n), -1 for uniform(-amp, amp, n)
 * and k >= 1 for integers(0, k + 1, n), as the perturb stage draws
 * them; the stream's words afterwards go to stream.  Returns ST_DOMAIN
 * for an op below -1 or of 2**32 - 1 or more. */
int stream_draws(u64 *stream, const i64 *ops, i64 n_ops, i64 n, double amp,
                 double *out)
{
    Stream s = {{((u128)stream[0] << 64) | stream[1],
                 ((u128)stream[2] << 64) | stream[3]},
                (int)stream[4], (u32)stream[5]};
    for (i64 c = 0; c < n_ops; c++)
        if (ops[c] < -1 || ops[c] >= (i64)UINT32_MAX) return ST_DOMAIN;
    for (i64 c = 0; c < n_ops; c++, out += n)
        for (i64 i = 0; i < n; i++) {
            if (ops[c] == 0) out[i] = pcg_double(&s.g);
            else if (ops[c] > 0) out[i] = stream_bounded(&s, (u32)ops[c]);
            else out[i] = -amp + (amp - -amp) * pcg_double(&s.g);
        }
    stream[0] = (u64)(s.g.state >> 64);
    stream[1] = (u64)s.g.state;
    stream[2] = (u64)(s.g.inc >> 64);
    stream[3] = (u64)s.g.inc;
    stream[4] = (u64)s.has_half;
    stream[5] = s.half;
    return ST_DONE;
}

/* The largest mask table a block caches: a shared schedule's mask
 * depends only on the step, so members after the first reuse it. */
#define MASK_CACHE_MAX ((i64)1 << 24)

/* FlowControlSystem._run_block on m members of n connections, member
 * by member (members are independent, so the order does not change a
 * bit).  Each member starts from its row of r0 and at each step
 * observes its stale row (ring slot step % (tau + 1), or the current
 * row at tau = 0) on its structural view, perturbs the signals, when
 * pt is not NULL (see Perturb: a member's events carry its position k
 * in the block), decides, gates (a source whose clock does not tick
 * keeps its rate: np.where(mask, new, r)), clips, and writes the ring
 * slot, the tail row step % tcap of its (tcap, n) block of tail and the
 * row step of its (max_steps + 1, n) block of full (either may be NULL;
 * row 0 is the caller's).  The member diverges when !(peak <= limit),
 * with peak the row maximum (NaN when any entry is NaN); a step is
 * quiet when change <= tol * max(1, peak), with change the largest
 * |r_next - r|; settle[k] quiet steps in a row converge it unless it
 * diverged.  Its last state, step count and status (ST_CONVERGED,
 * ST_DIVERGED, or ST_DONE for a spent budget) go to finals, steps and
 * status.  agg, when not NULL, receives at each step the largest
 * change among the members still running after it (inf when none is).
 * With ctl not NULL (and pt NULL) each member also carries its own
 * n_gw advertised rates, from ctl->state0, and a step is control_row
 * on its current row in place of observe, perturb and decide; the
 * observe plan and the rule table are then not read.
 * Returns ST_DONE, or ST_DOMAIN where observe_row or decide_row does
 * (the caller then runs the block on the Python loop, from step 1), or
 * ST_OOM. */
int ensemble_loop(const double *r0, i64 m, i64 n, i64 max_steps,
                  double tol, const i64 *settle, double limit, i64 tau,
                  i64 n_gw, const i64 *gw_ptr, const i64 *members,
                  const double *mu, int law, const double *law_phi,
                  int measure, const double *phi, const double *path_latency,
                  const i64 *codes, const double *params,
                  int gate, const u32 *seed, i64 n_seed, const double *on,
                  const double *off, const i64 *offsets, i64 burst_len,
                  double *finals, i64 *steps, i64 *status,
                  double *tail, i64 tcap, double *full, double *agg,
                  Perturb *pt, const Control *ctl)
{
    ObservePlan p = {n, n_gw, gw_ptr, members, mu, law, measure,
                     law_phi, phi, path_latency};
    GatePlan g = {gate, seed, n_seed, burst_len, on, off, offsets};
    if (!gate_valid(&g)) return ST_DOMAIN;
    ObserveScratch o;
    if (!observe_scratch_alloc(&o, &p)) return ST_OOM;
    PerturbWork w;
    if (pt && !perturb_alloc(&w, pt, &p)) {
        observe_scratch_free(&o);
        return ST_OOM;
    }
    const ObservePlan *view = pt ? &w.view : &p;
    /* cur, next, b, d, then the tau + 1 ring rows, then the advertised
     * rates */
    i64 n_state = ctl ? ctl->n_gw : 0;
    double *work = (double *)malloc(
        ((size_t)(5 + tau) * n + n_state) * sizeof(double));
    unsigned char *mask = (unsigned char *)malloc((size_t)n + 1);
    int use_cache = gate == GATE_COINS && m > 1
                    && max_steps * n <= MASK_CACHE_MAX;
    unsigned char *cache = NULL, *cached = NULL;
    if (use_cache) {
        cache = (unsigned char *)malloc((size_t)(max_steps * n) + 1);
        cached = (unsigned char *)calloc((size_t)max_steps + 1, 1);
    }
    int status_all = ST_DONE;
    if (!work || !mask || (use_cache && (!cache || !cached))) {
        status_all = ST_OOM;
        goto out;
    }
    double *b = work + 2 * n, *d = work + 3 * n, *ring = work + 4 * n;
    double *state = ring + (tau + 1) * n;
    if (agg)
        for (i64 s = 0; s < max_steps; s++) agg[s] = -1.0;
    for (i64 k = 0; k < m; k++) {
        double *cur = work, *next = work + n;
        double *ktail = tail ? tail + k * tcap * n : NULL;
        double *kfull = full ? full + k * (max_steps + 1) * n : NULL;
        i64 quiet = 0, done_at = max_steps;
        int outcome = ST_DONE;
        memcpy(cur, r0 + k * n, (size_t)n * sizeof(double));
        for (i64 s = 0; tau && s <= tau; s++)
            memcpy(ring + s * n, cur, (size_t)n * sizeof(double));
        if (pt) perturb_start(&w, k);
        if (ctl)
            memcpy(state, ctl->state0, (size_t)n_state * sizeof(double));
        for (i64 step = 1; step <= max_steps; step++) {
            double *slot = tau ? ring + (step % (tau + 1)) * n : cur;
            if (ctl) {
                control_row(ctl, cur, n, state, next);
            } else {
                if (pt && !resolve_view(&w, k, step)) {
                    status_all = ST_OOM;
                    goto out;
                }
                status_all = observe_row(slot, view, b, d, &o);
                if (status_all == ST_DONE && pt
                        && !perturb_signals(&w, k, step, b))
                    status_all = ST_OOM;
                if (status_all == ST_DONE)
                    status_all = decide_row(cur, b, d, n, codes, params,
                                            next);
                if (status_all != ST_DONE) goto out;
            }
            if (gate != GATE_NONE) {
                unsigned char *mk = mask;
                if (cache) {
                    mk = cache + (step - 1) * n;
                    if (!cached[step - 1]) {
                        gate_row(&g, step - 1, n, mk);
                        cached[step - 1] = 1;
                    }
                } else {
                    gate_row(&g, step - 1, n, mk);
                }
                for (i64 i = 0; i < n; i++)
                    if (!mk[i]) next[i] = np_maximum(cur[i], 0.0);
            }
            if (tau) memcpy(slot, next, (size_t)n * sizeof(double));
            if (ktail)
                memcpy(ktail + (step % tcap) * n, next,
                       (size_t)n * sizeof(double));
            if (kfull)
                memcpy(kfull + step * n, next, (size_t)n * sizeof(double));
            double peak = next[0], change = 0.0;
            for (i64 i = 1; i < n && !isnan(peak); i++)
                peak = (next[i] > peak || isnan(next[i])) ? next[i] : peak;
            for (i64 i = 0; i < n; i++) {
                double x = fabs(next[i] - cur[i]);
                if (x > change) change = x;
            }
            int diverged = !(peak <= limit);
            if (change <= tol * (peak > 1.0 ? peak : 1.0)) quiet++;
            else quiet = 0;
            double *sw = cur; cur = next; next = sw;
            if (diverged || quiet >= settle[k]) {
                outcome = diverged ? ST_DIVERGED : ST_CONVERGED;
                done_at = step;
                break;
            }
            if (agg && change > agg[step - 1]) agg[step - 1] = change;
        }
        memcpy(finals + k * n, cur, (size_t)n * sizeof(double));
        steps[k] = done_at;
        status[k] = outcome;
    }
    if (agg)
        for (i64 s = 0; s < max_steps; s++)
            if (agg[s] < 0.0) agg[s] = INFINITY;
    status_all = ST_DONE;
out:
    free(cache); free(cached); free(mask); free(work);
    observe_scratch_free(&o);
    if (pt) perturb_free(&w);
    return status_all;
}

/* ------------------------------------------------------------------ */
/* FIFO event loop (transcription of FastEngine._run_fifo)            */
/* ------------------------------------------------------------------ */

typedef struct {
    /* dimensions / horizon */
    i64 n_gw, n_conn, block;
    double t_end;
    i64 max_events;
    /* borrowed fixed-size state (numpy-owned, mutated in place) */
    const double *latency, *mu_scale, *scale;
    const i64 *buffer_cap, *pos_flat, *first_hop;
    const i64 *gw_ptr, *path_ptr, *path_arr;
    i64 *serving, *in_sys;
    const i64 *arr_epoch;
    double *st_last, *st_integral;
    i64 *st_count, *st_arrivals, *st_departures, *st_drops;
    i64 *e2e_delivered;
    double *e2e_delay;
    i64 *q_head, *q_tail;
    double *rng_vals;
    i64 *rng_idx;
    /* C-owned growable state */
    double *h_time;
    i64 *h_seq, *h_kind, *h_a, *h_b;
    i64 heap_len, heap_cap;
    i64 *p_conn;
    double *p_created;
    i64 *p_hop;
    double *p_rem;
    i64 pool_len, pool_cap;
    i64 *p_free;
    i64 free_len;
    i64 *q_next;
    /* loop registers */
    double now;
    i64 seq, processed, need_stream;
} FifoState;

static int heap_reserve(FifoState *s, i64 need)
{
    if (need <= s->heap_cap) return 1;
    i64 cap = s->heap_cap > 0 ? s->heap_cap : 16;
    while (cap < need) cap *= 2;
    double *ht = (double *)realloc(s->h_time,
                                   (size_t)cap * sizeof(double));
    if (!ht) return 0;
    s->h_time = ht;
    i64 **cols[4] = {&s->h_seq, &s->h_kind, &s->h_a, &s->h_b};
    for (int c = 0; c < 4; c++) {
        i64 *p = (i64 *)realloc(*cols[c], (size_t)cap * sizeof(i64));
        if (!p) return 0;
        *cols[c] = p;
    }
    s->heap_cap = cap;
    return 1;
}

static int pool_reserve(FifoState *s, i64 need)
{
    if (need <= s->pool_cap) return 1;
    i64 cap = s->pool_cap > 0 ? s->pool_cap : 16;
    while (cap < need) cap *= 2;
    i64 *pc = (i64 *)realloc(s->p_conn, (size_t)cap * sizeof(i64));
    if (!pc) return 0;
    s->p_conn = pc;
    double *pd = (double *)realloc(s->p_created,
                                   (size_t)cap * sizeof(double));
    if (!pd) return 0;
    s->p_created = pd;
    i64 *ph = (i64 *)realloc(s->p_hop, (size_t)cap * sizeof(i64));
    if (!ph) return 0;
    s->p_hop = ph;
    double *pr = (double *)realloc(s->p_rem,
                                   (size_t)cap * sizeof(double));
    if (!pr) return 0;
    s->p_rem = pr;
    i64 *pf = (i64 *)realloc(s->p_free, (size_t)cap * sizeof(i64));
    if (!pf) return 0;
    s->p_free = pf;
    i64 *qn = (i64 *)realloc(s->q_next, (size_t)cap * sizeof(i64));
    if (!qn) return 0;
    s->q_next = qn;
    s->pool_cap = cap;
    return 1;
}

/* Entries are totally ordered by (time, seq): seq is unique, so any
 * valid binary min-heap pops them in the same order python's heapq
 * pops its (time, seq, -1, kind, ...) tuples. */
static int heap_push(FifoState *s, double t, i64 sq, i64 kind,
                     i64 a, i64 b)
{
    if (!heap_reserve(s, s->heap_len + 1)) return 0;
    i64 i = s->heap_len++;
    while (i > 0) {
        i64 up = (i - 1) >> 1;
        if (s->h_time[up] < t ||
            (s->h_time[up] == t && s->h_seq[up] < sq))
            break;
        s->h_time[i] = s->h_time[up];
        s->h_seq[i] = s->h_seq[up];
        s->h_kind[i] = s->h_kind[up];
        s->h_a[i] = s->h_a[up];
        s->h_b[i] = s->h_b[up];
        i = up;
    }
    s->h_time[i] = t;
    s->h_seq[i] = sq;
    s->h_kind[i] = kind;
    s->h_a[i] = a;
    s->h_b[i] = b;
    return 1;
}

static void heap_pop(FifoState *s)
{
    i64 n = --s->heap_len;
    if (n == 0) return;
    double t = s->h_time[n];
    i64 sq = s->h_seq[n], kd = s->h_kind[n];
    i64 a = s->h_a[n], b = s->h_b[n];
    i64 i = 0;
    for (;;) {
        i64 l = 2 * i + 1;
        if (l >= n) break;
        i64 c = l, r = l + 1;
        if (r < n && (s->h_time[r] < s->h_time[l] ||
                      (s->h_time[r] == s->h_time[l] &&
                       s->h_seq[r] < s->h_seq[l])))
            c = r;
        if (s->h_time[c] < t ||
            (s->h_time[c] == t && s->h_seq[c] < sq)) {
            s->h_time[i] = s->h_time[c];
            s->h_seq[i] = s->h_seq[c];
            s->h_kind[i] = s->h_kind[c];
            s->h_a[i] = s->h_a[c];
            s->h_b[i] = s->h_b[c];
            i = c;
        } else {
            break;
        }
    }
    s->h_time[i] = t;
    s->h_seq[i] = sq;
    s->h_kind[i] = kd;
    s->h_a[i] = a;
    s->h_b[i] = b;
}

/* A packet reaches gateway g: drop check, service draw, statistics,
 * enqueue-or-serve.  Mirrors the inlined arrive block of _run_fifo
 * statement for statement.  Returns 0 on allocation failure. */
static int arrive(FifoState *s, i64 g, i64 pid, i64 conn, double now)
{
    i64 base = s->gw_ptr[g];
    if (s->in_sys[g] >= s->buffer_cap[g]) {
        double dt = now - s->st_last[g];
        if (dt > 0.0) {
            i64 nloc = s->gw_ptr[g + 1] - base;
            for (i64 j = 0; j < nloc; j++) {
                i64 c = s->st_count[base + j];
                if (c) s->st_integral[base + j] += (double)c * dt;
            }
            s->st_last[g] = now;
        }
        s->st_drops[base + s->pos_flat[g * s->n_conn + conn]] += 1;
        s->p_free[s->free_len++] = pid;
    } else {
        i64 i = s->rng_idx[g]; /* capacity guaranteed by preflight */
        s->rng_idx[g] = i + 1;
        s->p_rem[pid] = s->mu_scale[g] * s->rng_vals[g * s->block + i];
        double dt = now - s->st_last[g];
        if (dt > 0.0) {
            if (s->in_sys[g]) { /* all counts zero when empty */
                i64 nloc = s->gw_ptr[g + 1] - base;
                for (i64 j = 0; j < nloc; j++) {
                    i64 c = s->st_count[base + j];
                    if (c) s->st_integral[base + j] += (double)c * dt;
                }
            }
            s->st_last[g] = now;
        }
        i64 pos = base + s->pos_flat[g * s->n_conn + conn];
        s->st_count[pos] += 1;
        s->st_arrivals[pos] += 1;
        s->in_sys[g] += 1;
        if (s->serving[g] < 0) {
            s->serving[g] = pid;
            if (!heap_push(s, now + s->p_rem[pid], s->seq++,
                           K_COMPLETE, g, -1))
                return 0;
        } else {
            s->q_next[pid] = -1;
            if (s->q_tail[g] < 0) s->q_head[g] = pid;
            else s->q_next[s->q_tail[g]] = pid;
            s->q_tail[g] = pid;
        }
    }
    return 1;
}

i64 fifo_run(void *handle)
{
    FifoState *s = (FifoState *)handle;
    for (;;) {
        if (s->heap_len == 0) return ST_DONE;
        double time = s->h_time[0];
        if (time > s->t_end) return ST_DONE;
        i64 kind = s->h_kind[0];
        i64 a = s->h_a[0];
        i64 b0 = s->h_b[0];

        /* Preflight: yield for a refill *before* popping any event
         * whose draws would exhaust a variate block, and reserve pool
         * growth, so an event never stops half-committed.  An early
         * refill never changes which variate is the k-th draw of a
         * stream, so the bitstream is untouched. */
        if (kind == K_EMIT) {
            if (b0 == s->arr_epoch[a]) {
                i64 g = s->first_hop[a];
                if (s->in_sys[g] < s->buffer_cap[g] &&
                    s->rng_idx[g] >= s->block) {
                    s->need_stream = g;
                    return ST_REFILL;
                }
                if (s->rng_idx[s->n_gw + a] >= s->block) {
                    s->need_stream = s->n_gw + a;
                    return ST_REFILL;
                }
                if (s->free_len == 0 &&
                    !pool_reserve(s, s->pool_len + 1))
                    return ST_OOM;
            }
        } else if (kind == K_HANDOFF) {
            i64 conn = s->p_conn[a];
            i64 g = s->path_arr[s->path_ptr[conn] + b0];
            if (s->in_sys[g] < s->buffer_cap[g] &&
                s->rng_idx[g] >= s->block) {
                s->need_stream = g;
                return ST_REFILL;
            }
        }

        heap_pop(s);

        if (kind == K_EMIT) {
            i64 conn = a;
            if (b0 != s->arr_epoch[conn])
                continue; /* arrival cancelled by a rate change */
            double now = time;
            s->now = now;
            s->processed += 1;
            i64 pid;
            if (s->free_len > 0) {
                pid = s->p_free[--s->free_len];
            } else {
                pid = s->pool_len++;
                s->p_rem[pid] = 0.0;
            }
            s->p_conn[pid] = conn;
            s->p_created[pid] = now;
            s->p_hop[pid] = 0;
            i64 g = s->first_hop[conn];
            if (!arrive(s, g, pid, conn, now)) return ST_OOM;
            /* schedule the next arrival (epoch-validated payload) */
            i64 stream = s->n_gw + conn;
            i64 i = s->rng_idx[stream];
            s->rng_idx[stream] = i + 1;
            double gap = s->scale[conn] *
                         s->rng_vals[stream * s->block + i];
            if (!heap_push(s, now + gap, s->seq++, K_EMIT, conn,
                           s->arr_epoch[conn]))
                return ST_OOM;

        } else if (kind == K_COMPLETE) {
            double now = time;
            s->now = now;
            s->processed += 1;
            i64 g = a;
            i64 base = s->gw_ptr[g];
            i64 nloc = s->gw_ptr[g + 1] - base;
            double lat = s->latency[g];
            for (;;) {
                i64 pid = s->serving[g];
                if (pid < 0) return ST_IDLE_SERVER;
                i64 conn = s->p_conn[pid];
                double dt = now - s->st_last[g];
                if (dt > 0.0) {
                    for (i64 j = 0; j < nloc; j++) {
                        i64 c = s->st_count[base + j];
                        if (c)
                            s->st_integral[base + j] += (double)c * dt;
                    }
                    s->st_last[g] = now;
                }
                i64 pos = base + s->pos_flat[g * s->n_conn + conn];
                s->st_count[pos] -= 1;
                s->st_departures[pos] += 1;
                s->in_sys[g] -= 1;
                i64 h = s->p_hop[pid] + 1;
                double t = now + lat;
                i64 plen = s->path_ptr[conn + 1] - s->path_ptr[conn];
                if (h < plen) {
                    if (!heap_push(s, t, s->seq++, K_HANDOFF, pid, h))
                        return ST_OOM;
                } else if (t <= s->t_end) {
                    /* eager sink delivery */
                    s->e2e_delivered[conn] += 1;
                    s->e2e_delay[conn] += t - s->p_created[pid];
                    s->p_free[s->free_len++] = pid;
                    s->processed += 1;
                } else {
                    if (!heap_push(s, t, s->seq++, K_SINK, pid, -1))
                        return ST_OOM;
                }
                i64 nxt = s->q_head[g];
                if (nxt < 0) {
                    s->serving[g] = -1;
                    break;
                }
                s->q_head[g] = s->q_next[nxt];
                if (s->q_head[g] < 0) s->q_tail[g] = -1;
                s->serving[g] = nxt;
                double t_next = now + s->p_rem[nxt];
                /* burst: absorb the next completion without heap
                 * traffic when it strictly precedes every pending
                 * event */
                if (t_next <= s->t_end &&
                    s->processed < s->max_events) {
                    if (s->heap_len == 0 || t_next < s->h_time[0]) {
                        now = t_next;
                        s->now = now;
                        s->processed += 1;
                        continue;
                    }
                }
                if (!heap_push(s, t_next, s->seq++, K_COMPLETE, g, -1))
                    return ST_OOM;
                break;
            }

        } else if (kind == K_HANDOFF) {
            double now = time;
            s->now = now;
            s->processed += 1;
            i64 pid = a;
            i64 conn = s->p_conn[pid];
            s->p_hop[pid] = b0;
            i64 g = s->path_arr[s->path_ptr[conn] + b0];
            if (!arrive(s, g, pid, conn, now)) return ST_OOM;

        } else { /* K_SINK */
            double now = time;
            s->now = now;
            s->processed += 1;
            i64 pid = a;
            i64 conn = s->p_conn[pid];
            s->e2e_delivered[conn] += 1;
            s->e2e_delay[conn] += now - s->p_created[pid];
            s->p_free[s->free_len++] = pid;
        }

        if (s->processed > s->max_events) return ST_MAX_EVENTS;
    }
}

void *fifo_enter(
    i64 n_gw, i64 n_conn, i64 block, double t_end, i64 max_events,
    double now, i64 seq,
    double *latency, double *mu_scale, i64 *buffer_cap,
    i64 *pos_flat, i64 *first_hop,
    i64 *gw_ptr, i64 *path_ptr, i64 *path_arr,
    i64 *serving, i64 *in_sys, i64 *arr_epoch,
    double *st_last, double *st_integral,
    i64 *st_count, i64 *st_arrivals, i64 *st_departures,
    i64 *st_drops,
    i64 *e2e_delivered, double *e2e_delay,
    i64 *q_head, i64 *q_tail, i64 *q_next_in,
    double *scale, double *rng_vals, i64 *rng_idx,
    double *h_time, i64 *h_seq, i64 *h_kind, i64 *h_a, i64 *h_b,
    i64 heap_len,
    i64 *p_conn, double *p_created, i64 *p_hop, double *p_rem,
    i64 pool_len, i64 *p_free, i64 free_len)
{
    FifoState *s = (FifoState *)calloc(1, sizeof(FifoState));
    if (!s) return NULL;
    s->n_gw = n_gw;
    s->n_conn = n_conn;
    s->block = block;
    s->t_end = t_end;
    s->max_events = max_events;
    s->now = now;
    s->seq = seq;
    s->processed = 0;
    s->need_stream = -1;
    s->latency = latency;
    s->mu_scale = mu_scale;
    s->scale = scale;
    s->buffer_cap = buffer_cap;
    s->pos_flat = pos_flat;
    s->first_hop = first_hop;
    s->gw_ptr = gw_ptr;
    s->path_ptr = path_ptr;
    s->path_arr = path_arr;
    s->serving = serving;
    s->in_sys = in_sys;
    s->arr_epoch = arr_epoch;
    s->st_last = st_last;
    s->st_integral = st_integral;
    s->st_count = st_count;
    s->st_arrivals = st_arrivals;
    s->st_departures = st_departures;
    s->st_drops = st_drops;
    s->e2e_delivered = e2e_delivered;
    s->e2e_delay = e2e_delay;
    s->q_head = q_head;
    s->q_tail = q_tail;
    s->rng_vals = rng_vals;
    s->rng_idx = rng_idx;
    if (!heap_reserve(s, heap_len > 16 ? heap_len : 16) ||
        !pool_reserve(s, pool_len > 16 ? pool_len : 16)) {
        free(s->h_time); free(s->h_seq); free(s->h_kind);
        free(s->h_a); free(s->h_b);
        free(s->p_conn); free(s->p_created); free(s->p_hop);
        free(s->p_rem); free(s->p_free); free(s->q_next);
        free(s);
        return NULL;
    }
    s->heap_len = heap_len;
    memcpy(s->h_time, h_time, (size_t)heap_len * sizeof(double));
    memcpy(s->h_seq, h_seq, (size_t)heap_len * sizeof(i64));
    memcpy(s->h_kind, h_kind, (size_t)heap_len * sizeof(i64));
    memcpy(s->h_a, h_a, (size_t)heap_len * sizeof(i64));
    memcpy(s->h_b, h_b, (size_t)heap_len * sizeof(i64));
    s->pool_len = pool_len;
    memcpy(s->p_conn, p_conn, (size_t)pool_len * sizeof(i64));
    memcpy(s->p_created, p_created, (size_t)pool_len * sizeof(double));
    memcpy(s->p_hop, p_hop, (size_t)pool_len * sizeof(i64));
    memcpy(s->p_rem, p_rem, (size_t)pool_len * sizeof(double));
    memcpy(s->q_next, q_next_in, (size_t)pool_len * sizeof(i64));
    s->free_len = free_len;
    memcpy(s->p_free, p_free, (size_t)free_len * sizeof(i64));
    return s;
}

i64 fifo_need_stream(void *handle)
{
    return ((FifoState *)handle)->need_stream;
}

double fifo_now(void *handle) { return ((FifoState *)handle)->now; }
i64 fifo_seq(void *handle) { return ((FifoState *)handle)->seq; }
i64 fifo_processed(void *handle)
{
    return ((FifoState *)handle)->processed;
}
i64 fifo_heap_len(void *handle)
{
    return ((FifoState *)handle)->heap_len;
}
i64 fifo_pool_len(void *handle)
{
    return ((FifoState *)handle)->pool_len;
}
i64 fifo_free_len(void *handle)
{
    return ((FifoState *)handle)->free_len;
}

void fifo_extract(void *handle,
                  double *h_time, i64 *h_seq, i64 *h_kind, i64 *h_a,
                  i64 *h_b,
                  i64 *p_conn, double *p_created, i64 *p_hop,
                  double *p_rem, i64 *p_free, i64 *q_next)
{
    FifoState *s = (FifoState *)handle;
    memcpy(h_time, s->h_time, (size_t)s->heap_len * sizeof(double));
    memcpy(h_seq, s->h_seq, (size_t)s->heap_len * sizeof(i64));
    memcpy(h_kind, s->h_kind, (size_t)s->heap_len * sizeof(i64));
    memcpy(h_a, s->h_a, (size_t)s->heap_len * sizeof(i64));
    memcpy(h_b, s->h_b, (size_t)s->heap_len * sizeof(i64));
    memcpy(p_conn, s->p_conn, (size_t)s->pool_len * sizeof(i64));
    memcpy(p_created, s->p_created,
           (size_t)s->pool_len * sizeof(double));
    memcpy(p_hop, s->p_hop, (size_t)s->pool_len * sizeof(i64));
    memcpy(p_rem, s->p_rem, (size_t)s->pool_len * sizeof(double));
    memcpy(p_free, s->p_free, (size_t)s->free_len * sizeof(i64));
    memcpy(q_next, s->q_next, (size_t)s->pool_len * sizeof(i64));
}

void fifo_release(void *handle)
{
    FifoState *s = (FifoState *)handle;
    if (!s) return;
    free(s->h_time); free(s->h_seq); free(s->h_kind);
    free(s->h_a); free(s->h_b);
    free(s->p_conn); free(s->p_created); free(s->p_hop);
    free(s->p_rem); free(s->p_free); free(s->q_next);
    free(s);
}
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off",
           "-fno-fast-math"]

_LOADED = False
_LIB: Optional[ctypes.CDLL] = None
_ERR: Optional[str] = None
_BUILD_SECONDS = 0.0
_FROM_CACHE = False


def _find_compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_CC_CACHE")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "_build"


def _ensure_built(cc: str) -> Path:
    """Compile (or reuse) the shared library; returns its path."""
    global _BUILD_SECONDS, _FROM_CACHE
    digest = hashlib.sha256(
        (_SOURCE + "\0" + cc + "\0" + " ".join(_CFLAGS))
        .encode()).hexdigest()[:16]
    name = f"repro_cext_{digest}.so"
    try:
        cache = _cache_dir()
        cache.mkdir(parents=True, exist_ok=True)
        probe = cache / f".probe-{os.getpid()}"
        probe.write_text("")
        probe.unlink()
    except OSError:
        cache = Path(tempfile.mkdtemp(prefix="repro-cext-"))
    target = cache / name
    if target.exists():
        _FROM_CACHE = True
        return target
    src = cache / f"repro_cext_{digest}.c"
    src.write_text(_SOURCE)
    tmp = cache / f".{name}.{os.getpid()}.tmp"
    t0 = _time.perf_counter()
    proc = subprocess.run([cc, *_CFLAGS, "-o", str(tmp), str(src),
                           "-lm"], capture_output=True, text=True)
    _BUILD_SECONDS = _time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"{cc} failed ({proc.returncode}): "
            f"{(proc.stderr or proc.stdout).strip()[:500]}")
    os.replace(tmp, target)  # atomic under concurrent builders
    return target


_I = ctypes.c_longlong
_D = ctypes.c_double
_P = ctypes.c_void_p


class EventLog(ctypes.Structure):
    """The C ``EventLog``: ``len`` events of four int64s (step, member,
    index, kind) at ``ints`` and a double at ``detail``, in buffers the
    library allocates; ``event_log_free`` releases them."""

    _fields_ = [("len", _I), ("cap", _I), ("ints", _P), ("detail", _P)]


class Perturb(ctypes.Structure):
    """The C ``Perturb``: the structural and fault plans of a member
    block, as ``ensemble_loop`` reads them, and its two event logs."""

    _fields_ = [("n_si", _I), ("si", _P), ("si_factor", _P),
                ("si_start", _P), ("n_fi", _I), ("cap", _I),
                ("n_skew", _I), ("fi", _P), ("fi_real", _P),
                ("fi_sets", _P), ("skew", _P), ("streams", _P),
                ("flog", EventLog), ("slog", EventLog)]


class Control(ctypes.Structure):
    """The C ``Control``: a router-side controller's index arrays,
    service rates, floors and initial state, as ``ensemble_loop`` reads
    them, and its gains and factor envelope."""

    _fields_ = [("n_gw", _I), ("gw_ptr", _P), ("members", _P),
                ("route_ptr", _P), ("routes", _P), ("mu", _P),
                ("floor", _P), ("state0", _P), ("alpha", _D),
                ("beta", _D), ("factor_min", _D), ("factor_max", _D)]


def _configure(lib: ctypes.CDLL) -> None:
    lib.fs_queue_batch.argtypes = [_P, _P, _I, _I, _D, _P]
    lib.fs_queue_batch.restype = ctypes.c_int
    lib.fs_loads_batch.argtypes = [_P, _I, _I, _D, _P]
    lib.fs_loads_batch.restype = ctypes.c_int
    lib.ind_congestion_batch.argtypes = [_P, _I, _I, _P]
    lib.ind_congestion_batch.restype = ctypes.c_int
    lib.observe_batch.argtypes = (
        [_P, _I, _I]                          # rates, m, n
        + [_I, _P, _P, _P]                    # n_gw, gw_ptr, members, mu
        + [ctypes.c_int, _P, ctypes.c_int, _P]  # law, law_phi, measure, phi
        + [_P, _P, _P])                       # path_latency, b, d
    lib.observe_batch.restype = ctypes.c_int
    lib.coin_stream.argtypes = [_P, _I, ctypes.c_uint64, _I, _P]
    lib.coin_stream.restype = ctypes.c_int
    lib.gate_masks.argtypes = (
        [ctypes.c_int, _P, _I, _P, _P, _P, _I]  # the gate
        + [_I, _I, _I, _P])                   # t0, steps, n, out
    lib.gate_masks.restype = ctypes.c_int
    lib.ensemble_loop.argtypes = (
        [_P, _I, _I, _I, _D, _P, _D, _I]      # r0, m, n, max_steps, tol,
                                              # settle, limit, tau
        + [_I, _P, _P, _P]                    # n_gw, gw_ptr, members, mu
        + [ctypes.c_int, _P, ctypes.c_int, _P]  # law, law_phi, measure, phi
        + [_P, _P, _P]                        # path_latency, codes, params
        + [ctypes.c_int, _P, _I, _P, _P, _P, _I]  # the gate
        + [_P, _P, _P, _P, _I, _P, _P]        # finals, steps, status,
                                              # tail, tcap, full, agg
        + [ctypes.POINTER(Perturb)]           # the perturbation or NULL
        + [ctypes.POINTER(Control)])          # the controller or NULL
    lib.ensemble_loop.restype = ctypes.c_int
    lib.stream_draws.argtypes = [_P, _P, _I, _I, _D, _P]
    lib.stream_draws.restype = ctypes.c_int
    lib.event_log_free.argtypes = [ctypes.POINTER(EventLog)]
    lib.event_log_free.restype = None
    lib.fifo_enter.argtypes = (
        [_I, _I, _I, _D, _I, _D, _I]          # dims, horizon, now, seq
        + [_P] * 3                            # latency, mu_scale, cap
        + [_P] * 2                            # pos_flat, first_hop
        + [_P] * 3                            # gw_ptr, path_ptr/arr
        + [_P] * 3                            # serving, in_sys, epoch
        + [_P] * 2                            # st_last, st_integral
        + [_P] * 4                            # counts/arr/dep/drops
        + [_P] * 2                            # e2e delivered/delay
        + [_P] * 3                            # q_head, q_tail, q_next
        + [_P] * 3                            # scale, rng_vals, rng_idx
        + [_P] * 5 + [_I]                     # heap columns + len
        + [_P] * 4 + [_I]                     # pool columns + len
        + [_P, _I])                           # free stack + len
    lib.fifo_enter.restype = _P
    for fn in ("fifo_run", "fifo_need_stream", "fifo_seq",
               "fifo_processed", "fifo_heap_len", "fifo_pool_len",
               "fifo_free_len"):
        getattr(lib, fn).argtypes = [_P]
        getattr(lib, fn).restype = _I
    lib.fifo_now.argtypes = [_P]
    lib.fifo_now.restype = _D
    lib.fifo_extract.argtypes = [_P] + [_P] * 11
    lib.fifo_extract.restype = None
    lib.fifo_release.argtypes = [_P]
    lib.fifo_release.restype = None


def load() -> Optional[ctypes.CDLL]:
    """The compiled library, building it on first call; None when no
    compiler exists or the build failed (see :func:`load_error`)."""
    global _LOADED, _LIB, _ERR
    if _LOADED:
        return _LIB
    _LOADED = True
    cc = _find_compiler()
    if cc is None:
        _ERR = "no C compiler (cc/gcc/clang) on PATH"
        return None
    try:
        lib = ctypes.CDLL(str(_ensure_built(cc)))
        _configure(lib)
        _LIB = lib
    except Exception as exc:  # loud via load_error(), never raises
        _ERR = f"{type(exc).__name__}: {exc}"
    return _LIB


def load_error() -> Optional[str]:
    """Why :func:`load` returned None (None when it succeeded)."""
    return _ERR


def build_seconds() -> float:
    """Wall time of the actual C compilation (0.0 on a cache hit)."""
    return _BUILD_SECONDS


def built_from_cache() -> bool:
    return _FROM_CACHE
