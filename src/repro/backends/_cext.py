"""Runtime-compiled C kernels (the ``cext`` tier).

At first use this module compiles a small C file with the system C
compiler (``cc``/``gcc``/``clang``), caches the shared library under
``src/repro/backends/_build`` (override with ``REPRO_CC_CACHE``; falls
back to a temporary directory when the tree is read-only), and binds
it with :mod:`ctypes`.  Nothing is installed; when no compiler exists
:func:`load` returns None (:func:`load_error` says why) and callers run
the numpy pipelines and the pure-python event loop instead.

Two kernel families live in the library:

* ``fs_queue_batch`` / ``fs_loads_batch`` / ``ind_congestion_batch``
  — the Fair Share sorted prefix-sum laws, loop twins of
  :mod:`repro.backends._fs_python` (see that module's bit-identity
  notes; the C side adds a stable argsort — bottom-up mergesort for
  short rows, LSD radix on order-preserving integer keys for long
  ones — which yields the same permutation as
  ``np.argsort(kind="stable")`` because the stable ascending
  permutation is unique; the key transform collapses ``-0.0`` onto
  ``+0.0`` so the radix tie classes match IEEE comparison ties).
  ``fs_queue_batch`` also takes an optional weight vector, the
  weighted law of :class:`~repro.core.weighted.WeightedFairShare`
  (sorted by ``r / phi``), which has no loop twin: its reference is
  the weighted numpy pipeline.
  Each checks its input first and returns a nonzero status, writing
  nothing, on a NaN or negative value (and on an infinite rate or a
  weight that is not finite and positive), so
  :mod:`repro.backends.compiled` hands such input to the numpy
  pipeline.
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
    "ST_OOM",
]

# Status codes shared with the C side.
ST_DONE = 0
ST_REFILL = 1
ST_MAX_EVENTS = 3
ST_IDLE_SERVER = 4
ST_OOM = 5

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

/* Stable ascending argsort (bottom-up mergesort on an index array).
 * Stability + ascending order determine the permutation uniquely, so
 * this matches numpy's kind="stable" argsort exactly. */
static void stable_argsort(const double *v, i64 n, i64 *idx, i64 *tmp)
{
    i64 *src = idx, *dst = tmp, width;
    for (i64 i = 0; i < n; i++) idx[i] = i;
    for (width = 1; width < n; width *= 2) {
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
 * passes; below that the branchy mergesort is cheaper. */
#define RADIX_MIN_N 48

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

/* The Fair Share queue law of an (m, n) rate batch.  phi, when not
 * NULL, holds the n weights of the weighted law: each row is sorted
 * by the normalised rate v = r / phi, class k's load is
 * (prefix of r + v_(k) * weight strictly above k) / mu, and its
 * occupancy increment is split by phi_j / (weight at or above k).
 * NULL is the unweighted law (v = r, every weight 1), which is the
 * equal-weight case bit for bit: the weight sums are then exact
 * integers and every product by a weight of 1 is exact.  The top run
 * has no weight above it and adds no cap term, so an overflowing v
 * never meets a zero weight. */
int fs_queue_batch(const double *rates, const double *phi, i64 m, i64 n,
                   double mu, double *out)
{
    if (!all_rates(rates, m * n)) return ST_DOMAIN;
    if (phi && !all_weights(phi, n)) return ST_DOMAIN;
    if (m == 0 || n == 0) return ST_DONE;
    i64 *idx = (i64 *)malloc((size_t)n * sizeof(i64));
    i64 *tmp = (i64 *)malloc((size_t)n * sizeof(i64));
    u64 *keys = (u64 *)malloc((size_t)n * sizeof(u64));
    u64 *keys_tmp = (u64 *)malloc((size_t)n * sizeof(u64));
    double *v = (double *)malloc((size_t)n * sizeof(double));
    /* w[k]: weight at or above sorted rank k; w[n] = 0 */
    double *w = (double *)malloc((size_t)(n + 1) * sizeof(double));
    if (!idx || !tmp || !keys || !keys_tmp || !v || !w) {
        free(idx); free(tmp); free(keys); free(keys_tmp); free(v); free(w);
        return ST_OOM;
    }
    for (i64 row = 0; row < m; row++) {
        const double *rr = rates + row * n;
        const double *vv = rr;
        double *oo = out + row * n;
        if (phi) {
            for (i64 i = 0; i < n; i++) v[i] = rr[i] / phi[i];
            vv = v;
        }
        sort_row(vv, n, idx, tmp, keys, keys_tmp);
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
            double gs = (sigma < 1.0) ? (sigma / (1.0 - sigma))
                                      : INFINITY;
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
    free(idx);
    free(tmp);
    free(keys);
    free(keys_tmp);
    free(v);
    free(w);
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

int ind_congestion_batch(const double *queues, i64 m, i64 n,
                         double *out)
{
    for (i64 i = 0; i < m * n; i++)   /* queues may be inf, not NaN */
        if (!(queues[i] >= 0.0)) return ST_DOMAIN;
    if (m == 0 || n == 0) return ST_DONE;
    i64 *idx = (i64 *)malloc((size_t)n * sizeof(i64));
    i64 *tmp = (i64 *)malloc((size_t)n * sizeof(i64));
    u64 *keys = (u64 *)malloc((size_t)n * sizeof(u64));
    u64 *keys_tmp = (u64 *)malloc((size_t)n * sizeof(u64));
    if (!idx || !tmp || !keys || !keys_tmp) {
        free(idx); free(tmp); free(keys); free(keys_tmp);
        return ST_OOM;
    }
    for (i64 row = 0; row < m; row++) {
        const double *qq = queues + row * n;
        double *oo = out + row * n;
        sort_row(qq, n, idx, tmp, keys, keys_tmp);
        double prefix = 0.0;
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
    free(idx);
    free(tmp);
    free(keys);
    free(keys_tmp);
    return ST_DONE;
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


def _configure(lib: ctypes.CDLL) -> None:
    lib.fs_queue_batch.argtypes = [_P, _P, _I, _I, _D, _P]
    lib.fs_queue_batch.restype = ctypes.c_int
    lib.fs_loads_batch.argtypes = [_P, _I, _I, _D, _P]
    lib.fs_loads_batch.restype = ctypes.c_int
    lib.ind_congestion_batch.argtypes = [_P, _I, _I, _P]
    lib.ind_congestion_batch.restype = ctypes.c_int
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
