"""The compiled kernel behind the vectorized backend.

A replica of the reference engine's wormhole-VC pipeline over flat
per-mesh arrays -- decision for decision: VC allocation order, switch
allocation round-robins, credit timing, ejection order -- as a small C
translation unit, compiled on demand with whatever ``cc``/``gcc``/
``clang`` the host provides and loaded through :mod:`ctypes`.

The compiled object is cached in the system temp directory under a name
keyed by the SHA-256 of the embedded source and its compile flags
(``_CFLAGS``), so each kernel revision compiles once per machine and a
flag change never loads a stale build; publication is an atomic
:func:`os.replace` so concurrent sweep workers never observe a
half-written library.  The flags include ``-ffp-contract=off``: no host
may fuse a multiply-add that CPython rounds twice.  When
no compiler is available, compilation fails, or ``REPRO_NOC_NATIVE=0``
disables the path, :func:`available` returns False, :func:`execute`
declines every run, and the vectorized backend runs it on the reference
engine -- same results, just slower.

Division of labour with the Python driver:

- the kernel owns the traffic process: it carries a port of CPython's
  MT19937 seeded from ``Random.getstate()`` of the generator
  ``spec.traffic.build()`` returns, and draws each cycle's packets on
  demand with exactly the calls ``TrafficGenerator.packets_for_cycle``
  makes (one ``random()`` per endpoint, then ``randrange(k-1)`` -- or,
  for hotspot traffic, ``random()`` followed by ``randrange`` -- for
  random destinations; fixed permutations come precomputed from the
  generator itself), so the packet stream is the reference stream bit
  for bit and no cycle is ever drawn that the run does not simulate;
- the kernel returns the latencies and hop counts of measured packets
  in ejection order, and the library's ``fold_stats`` folds them once
  the chain has run: ``RunningStats.add``'s running means in exactly
  the reference sequence, then the three latency percentiles from one
  sort, with the same floating-point operations as
  :func:`repro.util.stats.percentile`;
- each router keeps bitmasks of the VCs that can act (occupied, VA
  pending, out-VC without credit, free out-VCs), so VC and switch
  allocation visit only candidates that might move; at the end of every
  call the kernel checks the masks against the state they mirror and
  credit conservation on every link, and a failed check raises
  :class:`RuntimeError` instead of falling back;
- ``spec.gating`` timeout gating runs inside the kernel: its idle
  timeout and protected nodes come in as inputs, the kernel applies
  :class:`~repro.noc.power_gating.TimeoutGatingPolicy`'s gate-off rule
  every cycle together with the reference network's demand wakeups,
  and the gate, wake and gated-cycle counts come back as the result's
  ``gating`` statistics;
- telemetry runs batch their per-interval activity capture inside the
  kernel (sample cycle, flits in flight, per-router buffer occupancy,
  gating flags and cumulative injected and ejected flits land in flat
  arrays), and Python replays them as the same spans, sample events and
  metrics the reference emits;
- fault schedules run as a *chain* of kernel segments, one per region
  configuration (an unfaulted run is a chain of one): the kernel stops
  at the next fault boundary and hands back its unejected packets in
  pid order, the driver replays the reference's drop-and-retransmit
  policy in Python, and the survivors re-enter the next segment through
  the normal NI path ahead of that cycle's creations, keeping their
  original creation cycles.  The MT state runs on across the chain, and
  the kernel drops creations whose endpoint falls outside a degraded
  region.  Each segment starts with every router powered, as the
  reference's rebuilt network does.
"""

from __future__ import annotations

import array
import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from types import MappingProxyType

import numpy as np

from repro.noc.activity import NetworkActivity, RouterActivity
from repro.noc.power_gating import GatingStats
from repro.noc.result import SimulationResult
from repro.noc.routing import PORT_COUNT, PORT_TO_DIRECTION, REVERSE_PORT
from repro.noc.spec import SimulationSpec
from repro.telemetry import active

# each router's VC masks are single 64-bit words:
# PORT_COUNT * vcs bits must fit (5 * 12 = 60)
_MAX_VCS = 12

# Nothing sets this any more: the kernel draws its own traffic, so there is
# no pre-drawn horizon to run past.  perfbench/layers.py still tests out[1]
# against it.
_FLAG_UNFINISHED = 1
_FLAG_BOUNDARY = 4  # stopped at a fault boundary (stop_cycle) for the driver

# how the kernel picks a packet's destination endpoint
_PATTERN_FIXED = 0    # a permutation table, precomputed from the generator
_PATTERN_UNIFORM = 1  # randrange(k - 1), skipping the source
_PATTERN_HOTSPOT = 2  # random() < fraction picks the hotspot, else uniform

_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;
typedef uint32_t u32;

#define NEVER (1LL << 60)
#define MAX_VCS 12  /* per-router masks are one 64-bit word of 5*vcs bits */
#define BIT(s_) (1LL << (s_))
#define CTZ(m_) ((i64)__builtin_ctzll((unsigned long long)(m_)))
#define FLAG_BOUNDARY 4
#define CHECK_MASKS 2   /* self-check statuses, see execute() */
#define CHECK_CREDITS 3
#define WAKEUP_LATENCY 8  /* Network's default wakeup_latency */
#define PATTERN_FIXED 0
#define PATTERN_HOTSPOT 2
#define P_MEAS 1
#define P_STARTED 2    /* >= 1 flit left the source NI */
#define P_EJECTED 4

/* CPython's MT19937 (Modules/_randommodule.c) word for word: `st` is
 * Random.getstate()[1], the 624 state words followed by the position */
static u32 mt_word(u32 *st)
{
    static const u32 mag01[2] = {0x0U, 0x9908b0dfU};
    u32 y, i = st[624];
    if (i >= 624) {
        int kk;
        for (kk = 0; kk < 624 - 397; kk++) {
            y = (st[kk] & 0x80000000U) | (st[kk + 1] & 0x7fffffffU);
            st[kk] = st[kk + 397] ^ (y >> 1) ^ mag01[y & 1U];
        }
        for (; kk < 623; kk++) {
            y = (st[kk] & 0x80000000U) | (st[kk + 1] & 0x7fffffffU);
            st[kk] = st[kk + (397 - 624)] ^ (y >> 1) ^ mag01[y & 1U];
        }
        y = (st[623] & 0x80000000U) | (st[0] & 0x7fffffffU);
        st[623] = st[396] ^ (y >> 1) ^ mag01[y & 1U];
        i = 0;
    }
    y = st[i];
    st[624] = i + 1;
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

/* Random.random(): genrand_res53 */
static double mt_random(u32 *st)
{
    u32 a = mt_word(st) >> 5, b = mt_word(st) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Random.randrange(n), 1 <= n < 2**32: _randbelow_with_getrandbits,
 * rejection over getrandbits(n.bit_length()) */
static i64 mt_below(u32 *st, i64 n)
{
    int shift = __builtin_clzll((unsigned long long)n) - 32;
    u32 r;
    do r = mt_word(st) >> shift; while (r >= n);
    return r;
}

/* one buffered flit: its buffer-write cycle, index in its packet and
 * packet row */
typedef struct {
    i64 arr;
    int32_t idx, pkt;
} flit_t;

/* one packet row; rows are created in pid order */
typedef struct {
    i64 created;
    int32_t src, dest, hops, next, flags;
} pkt_t;

/* One cycle-exact replica of the reference wormhole-VC pipeline over
 * flat arrays, fed by the reference traffic process.  Every arbitration
 * order (VC allocation request order, free-VC assignment, both
 * switch-allocation round-robins), every pipeline delay (VA at
 * arrival+2, head SA one cycle after VA, body SA at arrival+1, credits
 * at +1, links at +2) and the ejection sequence match the reference
 * engine bit for bit.
 *
 * Each router keeps one bit per VC slot (port * vcs + vc) in four
 * masks, so allocation visits only the VCs that might move:
 *   occ   input VCs holding a flit;
 *   vap   occupied input VCs without an out-VC (VA pending);
 *   nocr  input VCs whose out-VC has no downstream credit -- SA skips
 *         them, and the credit's arrival wakes the router anyway;
 *   freeo out-VCs nobody owns -- a VA request to a port without one
 *         is dropped before it is grouped.
 * At the end of every call the kernel checks the masks, and the
 * head_route and sa_ready caches, against the arrays they mirror, and
 * credit conservation on every link.
 *
 * With `idle_timeout` >= 0 the kernel also runs TimeoutGatingPolicy's
 * rules: a router outside `protect` with no buffered flit, an idle NI
 * and no activity for `idle_timeout` cycles is gated; link arrivals,
 * NI pressure and blocked switch nominations request a wake, which
 * completes WAKEUP_LATENCY cycles later.
 *
 * Fault schedules run as a chain of segments: each reconfiguration
 * tears the network down to fresh state anyway, so the driver invokes
 * the kernel once per region with `start_cycle` at the boundary,
 * `stop_cycle` at the next one, and the previous segment's survivors
 * as seed rows (they re-enter ahead of that cycle's creations,
 * preserving the reference's re-injection order). */
#define KERNEL_PARAMS                                                        \
    i64 count, i64 vcs, i64 depth, i64 mesh,                                 \
    const i64 *neighbor,   /* count*5 router indices, -1 when absent   */    \
    const i64 *route,      /* count*mesh output port per dest node id;       \
                            * adaptive candidate pairs are packed as         \
                            * 8 | (c0 << 4) | (c1 << 8)                */    \
    const i64 *rev,        /* 5: reverse port map                      */    \
    i64 n_ep,              /* traffic endpoints                        */    \
    const i64 *ep_router,  /* n_ep: router index, -1 outside the region */   \
    const i64 *ep_node,    /* n_ep: node id, the destination route key */    \
    const i64 *perm,       /* n_ep: PATTERN_FIXED destination endpoint,      \
                            * -1 when the endpoint sends nothing       */    \
    i64 pattern,           /* PATTERN_FIXED, _UNIFORM or _HOTSPOT      */    \
    i64 length,            /* flits per packet                         */    \
    i64 hot,               /* hotspot endpoint index                   */    \
    double prob,           /* packets per endpoint per cycle           */    \
    double hot_frac,       /* hotspot fraction                         */    \
    u32 *mt,               /* 625: MT19937 state, advanced in place    */    \
    i64 start_cycle,       /* first cycle (a fault-segment boundary)   */    \
    i64 stop_cycle,        /* break before this cycle, -1 for never    */    \
    i64 warmup, i64 measure_end, i64 deadline,                               \
    i64 n_seed,                                                              \
    const i64 *seeds,      /* n_seed*4: src router, dest node, created       \
                            * cycle, measured -- in pid order          */    \
    i64 *out,              /* 11 scalars, see execute()                */    \
    i64 *survivors,        /* at a boundary, 5 per unejected row: src        \
                            * router, dest, created, measured, started */    \
    i64 *ej_lat,           /* measured ejections, in ejection order:  */     \
    i64 *ej_hops,          /*   latency and hop count                  */    \
    i64 *counters,         /* count*5: writes, reads, links, va grants,      \
                            * powered cycles                          */     \
    i64 interval,          /* telemetry sample period, 0 = no capture  */    \
    i64 s_cap,             /* capacity of the sample arrays            */    \
    i64 *s_cycle,          /* s_cap: sample instants                   */    \
    i64 *s_inflight,       /* s_cap: flits in flight at the instant    */    \
    i64 *s_occ,            /* s_cap*count: per-router buffered flits   */    \
    i64 *s_ej,             /* s_cap*count: cumulative ejected flits    */    \
    i64 *s_inj,            /* s_cap*count: cumulative injected flits   */    \
    i64 *ej_out,           /* count: final cumulative ejected flits    */    \
    i64 *inj_out,          /* count: final cumulative injected flits   */    \
    i64 idle_timeout,      /* gating policy timeout, -1 = no gating    */    \
    const i64 *protect,    /* count: 1 where the policy never gates    */    \
    i64 *s_gated           /* s_cap*count: gated flags at the instant  */

#define KERNEL_ARGS                                                          \
    count, vcs, depth, mesh, neighbor, route, rev, n_ep, ep_router,          \
    ep_node, perm, pattern, length, hot, prob, hot_frac, mt, start_cycle,    \
    stop_cycle, warmup, measure_end, deadline, n_seed, seeds, out,           \
    survivors, ej_lat, ej_hops, counters, interval, s_cap, s_cycle,          \
    s_inflight, s_occ, s_ej, s_inj, ej_out, inj_out, idle_timeout,           \
    protect, s_gated

static inline __attribute__((always_inline)) i64 kernel(
    const int gating, KERNEL_PARAMS)
{
    if (vcs < 1 || vcs > MAX_VCS) return 1;
    i64 slots = 5 * vcs;
    i64 gslots = count * slots;
    i64 vmask = (1LL << vcs) - 1;
    i64 status = 0;
    i64 port_of[5 * MAX_VCS];  /* slot -> port, so the loop never divides */
    for (i64 s = 0; s < slots; s++) port_of[s] = s / vcs;

    /* per-slot flit FIFOs as rings of capacity `depth` (credits bound
     * occupancy), plus flat allocation state */
    flit_t *fifo = malloc((size_t)gslots * depth * sizeof(flit_t));
    i64 *rh = calloc((size_t)gslots, sizeof(i64));
    i64 *fl = calloc((size_t)gslots, sizeof(i64));
    i64 *vc_out = malloc((size_t)gslots * sizeof(i64));
    /* the cycle from which a VC's front flit may bid for the switch: a
     * head's VA grant + 1, a body's buffer write + 1 */
    i64 *sa_ready = calloc((size_t)gslots, sizeof(i64));
    i64 *owner = malloc((size_t)gslots * sizeof(i64));
    i64 *credits = calloc((size_t)gslots, sizeof(i64));
    /* a VA-pending head's route word, read once it is ready; -1 until
     * then and again after its grant */
    i64 *head_route = malloc((size_t)gslots * sizeof(i64));
    i64 *tally = calloc((size_t)gslots, sizeof(i64));  /* self-check */
    i64 *va_ptr = calloc((size_t)count * 5, sizeof(i64));
    i64 *sa_in = calloc((size_t)count * 5, sizeof(i64));
    i64 *sa_out = calloc((size_t)count * 5, sizeof(i64));
    i64 *occ = calloc((size_t)count, sizeof(i64));
    i64 *vap = calloc((size_t)count, sizeof(i64));
    i64 *nocr = calloc((size_t)count, sizeof(i64));
    i64 *freeo = malloc((size_t)count * sizeof(i64));
    i64 *buffered = calloc((size_t)count, sizeof(i64));
    i64 *ej_cum = calloc((size_t)count, sizeof(i64));
    i64 *inj_cum = calloc((size_t)count, sizeof(i64));
    i64 *wake = calloc((size_t)count, sizeof(i64));
    /* power gating: gated flag, requested wake cycle (-1: none) and the
     * last cycle a flit arrived, left or the router woke */
    i64 *gated = calloc((size_t)count, sizeof(i64));
    i64 *wake_at = malloc((size_t)count * sizeof(i64));
    i64 *last_active = calloc((size_t)count, sizeof(i64));
    /* network interfaces: packet queues as linked lists over the rows */
    i64 *qhead = malloc((size_t)count * sizeof(i64));
    i64 *qtail = malloc((size_t)count * sizeof(i64));
    i64 *cur_pkt = malloc((size_t)count * sizeof(i64));
    i64 *cur_idx = calloc((size_t)count, sizeof(i64));
    i64 *cur_vc = calloc((size_t)count, sizeof(i64));
    i64 *ni_ptr = calloc((size_t)count, sizeof(i64));
    /* in-flight event rings: credits land at +1, link flits at +2 */
    i64 ring_cap = 5 * count + 8;
    i64 *cring = malloc((size_t)2 * ring_cap * 2 * sizeof(i64));
    i64 *aring = malloc((size_t)3 * ring_cap * 4 * sizeof(i64));
    i64 cring_n[2] = {0, 0};
    i64 aring_n[3] = {0, 0, 0};
    /* the packet table, grown by doubling */
    i64 rows_cap = n_seed + 1024, n_rows = 0;
    pkt_t *rows = malloc((size_t)rows_cap * sizeof(pkt_t));

    if (!fifo || !rh || !fl || !vc_out || !sa_ready ||
        !owner || !credits || !head_route || !tally || !va_ptr || !sa_in ||
        !sa_out || !occ || !vap || !nocr || !freeo ||
        !buffered || !ej_cum || !inj_cum || !wake || !gated || !wake_at ||
        !last_active || !qhead || !qtail || !cur_pkt || !cur_idx ||
        !cur_vc || !ni_ptr || !cring || !aring || !rows) {
        status = 1;
        goto done;
    }

/* append a row and queue it at its source NI */
#define ENQUEUE(src_, dest_, created_, meas_) do {                        \
        if (n_rows == rows_cap) {                                         \
            pkt_t *grown = realloc(rows, (size_t)rows_cap * 2             \
                                             * sizeof(pkt_t));            \
            if (!grown) { status = 1; goto done; }                        \
            rows = grown;                                                 \
            rows_cap *= 2;                                                \
        }                                                                 \
        pkt_t *row_ = rows + n_rows;                                      \
        row_->created = (created_);                                       \
        row_->src = (int32_t)(src_);                                      \
        row_->dest = (int32_t)(dest_);                                    \
        row_->hops = 0;                                                   \
        row_->next = -1;                                                  \
        row_->flags = (meas_) ? P_MEAS : 0;                               \
        if (qtail[src_] < 0) qhead[src_] = n_rows;                        \
        else rows[qtail[src_]].next = (int32_t)n_rows;                    \
        qtail[src_] = n_rows;                                             \
        n_rows++;                                                         \
        in_flight += length;                                              \
    } while (0)

/* one telemetry sample row: instant, in-flight count, per-router buffer
 * occupancy and cumulative ejected/injected flits -- captured after the
 * cycle's creations and before its event deliveries, where the
 * reference samples */
#define CAPTURE(c_) do {                                                  \
        if (n_s < s_cap) {                                                \
            s_cycle[n_s] = (c_);                                          \
            s_inflight[n_s] = in_flight;                                  \
            memcpy(s_occ + n_s * count, buffered,                         \
                   (size_t)count * sizeof(i64));                          \
            memcpy(s_ej + n_s * count, ej_cum,                            \
                   (size_t)count * sizeof(i64));                          \
            memcpy(s_inj + n_s * count, inj_cum,                          \
                   (size_t)count * sizeof(i64));                          \
            memcpy(s_gated + n_s * count, gated,                          \
                   (size_t)count * sizeof(i64));                          \
            n_s++;                                                        \
        }                                                                 \
    } while (0)

/* a demand wake of gated router r_ (the first request sets the time) */
#define REQUEST_WAKE(r_) do {                                             \
        if (wake_at[r_] < 0) wake_at[r_] = cycle + WAKEUP_LATENCY;        \
    } while (0)

/* buffer write of flit idx_ of row pk_ into input VC s_ of router i_;
 * only a body flit can land in an empty VC that holds an out-VC */
#define PUSH(i_, s_, idx_, pk_) do {                                      \
        i64 g_ = (i_) * slots + (s_);                                     \
        i64 pos_ = rh[g_] + fl[g_];                                       \
        if (pos_ >= depth) pos_ -= depth;                                 \
        flit_t *f_ = fifo + g_ * depth + pos_;                            \
        f_->arr = cycle;                                                  \
        f_->idx = (int32_t)(idx_);                                        \
        f_->pkt = (int32_t)(pk_);                                         \
        if (vc_out[g_] < 0) vap[i_] |= BIT(s_);                           \
        else if (!fl[g_]) sa_ready[g_] = cycle + 1;                       \
        fl[g_]++;                                                         \
        buffered[i_]++;                                                   \
        occ[i_] |= BIT(s_);                                               \
        wake[i_] = cycle;                                                 \
        if (win) counters[(i_) * 5]++;                                    \
    } while (0)

    for (i64 g = 0; g < gslots; g++) {
        vc_out[g] = -1; owner[g] = -1; head_route[g] = -1;
    }
    for (i64 i = 0; i < count; i++) {
        qhead[i] = -1; qtail[i] = -1; cur_pkt[i] = -1; wake_at[i] = -1;
        freeo[i] = BIT(slots) - 1;
        for (i64 v = 0; v < vcs; v++)
            credits[i * slots + v] = 1LL << 30;  /* ejection: unbounded */
        for (i64 port = 1; port < 5; port++)
            if (neighbor[i * 5 + port] >= 0)
                for (i64 v = 0; v < vcs; v++)
                    credits[i * slots + port * vcs + v] = depth;
    }

    i64 cycle = start_cycle, cycles_run = 0, flags = 0;
    i64 in_flight = 0, events_pending = 0;
    i64 outstanding = 0;  /* measured packets alive, seeds included */
    i64 created_measured = 0, measured_flits = 0, dropped = 0;
    i64 n_ej = 0, n_s = 0, n_sv = 0;
    i64 win_cycles = 0;  /* measured cycles, each powering every router */
    i64 gates = 0, wakes = 0, gated_cycles = 0;  /* GatingStats */

    /* the previous segment's survivors re-enter first, in pid order */
    for (i64 q = 0; q < n_seed; q++) {
        const i64 *sd = seeds + q * 4;
        ENQUEUE(sd[0], sd[1], sd[2], sd[3]);
        if (sd[3]) outstanding++;
    }

    for (;;) {
        if (cycle >= deadline) { cycles_run = deadline; break; }

        /* fault boundary: hand control back to the driver, which
         * rebuilds the region and re-seeds the survivors (deadline
         * wins over a boundary, exactly like the reference loop) */
        if (cycle == stop_cycle) {
            cycles_run = cycle;
            flags |= FLAG_BOUNDARY;
            break;
        }

        /* this cycle's creations: TrafficGenerator.packets_for_cycle */
        {
            int meas = warmup <= cycle && cycle < measure_end;
            for (i64 e = 0; e < n_ep; e++) {
                if (mt_random(mt) >= prob) continue;
                i64 j;
                if (pattern == PATTERN_FIXED) {
                    j = perm[e];
                    if (j < 0) continue;
                } else if (pattern == PATTERN_HOTSPOT
                           && mt_random(mt) < hot_frac && hot != e) {
                    j = hot;
                } else {
                    if (n_ep < 2) continue;
                    j = mt_below(mt, n_ep - 1);
                    if (j >= e) j++;
                }
                i64 src = ep_router[e];
                if (src < 0 || ep_router[j] < 0) {
                    /* an endpoint outside the degraded region: lost at
                     * the NI before it is ever created */
                    dropped++;
                    continue;
                }
                ENQUEUE(src, ep_node[j], cycle, meas);
                inj_cum[src] += length;
                if (meas) { created_measured++; outstanding++; }
            }
        }

        if (interval && cycle % interval == 0) CAPTURE(cycle);

        int win = warmup <= cycle && cycle < measure_end;

        /* the gating policy observes the state the previous cycle left
         * (plus this cycle's creations), then due wakeups complete before
         * anything moves; each router's decisions read only its own
         * state, so one pass does both.  Powered routers bill the cycle. */
        if (gating) {
            for (i64 i = 0; i < count; i++) {
                if (gated[i]) {
                    gated_cycles++;
                    if (wake_at[i] == cycle) wakes++;
                    if (wake_at[i] >= 0 && cycle >= wake_at[i]) {
                        gated[i] = 0;
                        wake_at[i] = -1;
                        last_active[i] = cycle;
                        wake[i] = cycle;
                    }
                } else if (!protect[i] && !buffered[i] && cur_pkt[i] < 0
                           && qhead[i] < 0
                           && cycle - last_active[i] >= idle_timeout) {
                    gated[i] = 1;
                    wake_at[i] = -1;
                    gates++;
                }
                if (win && !gated[i]) counters[i * 5 + 4]++;
            }
        } else if (win) {
            win_cycles++;
        }

        /* a whole-mesh idle cycle steps nothing */
        if (!in_flight && !events_pending) goto next_cycle;

        /* deliver credits scheduled for this cycle */
        {
            i64 r = cycle % 2, n = cring_n[r];
            for (i64 e = 0; e < n; e++) {
                i64 i = cring[(r * ring_cap + e) * 2];
                i64 g = i * slots + cring[(r * ring_cap + e) * 2 + 1];
                credits[g]++;
                if (owner[g] >= 0) nocr[i] &= ~BIT(owner[g]);
                wake[i] = cycle;
            }
            cring_n[r] = 0;
            events_pending -= n;
        }

        /* deliver link arrivals scheduled for this cycle */
        {
            i64 r = cycle % 3, n = aring_n[r];
            for (i64 e = 0; e < n; e++) {
                const i64 *ev = aring + (r * ring_cap + e) * 4;
                i64 i = ev[0];
                PUSH(i, ev[1], ev[2], ev[3]);
                if (gating) {
                    last_active[i] = cycle;
                    if (gated[i]) REQUEST_WAKE(i);  /* raced the gate-off */
                }
            }
            aring_n[r] = 0;
            events_pending -= n;
        }

        /* NI injection: one flit per node per cycle into a claimed VC */
        for (i64 i = 0; i < count; i++) {
            i64 cp = cur_pkt[i];
            if (cp < 0 && qhead[i] < 0) continue;
            if (gating && gated[i]) {  /* NI pressure */
                REQUEST_WAKE(i);
                continue;
            }
            if (cp < 0) {
                i64 chosen = -1;
                for (i64 k = 0; k < vcs; k++) {
                    i64 v = ni_ptr[i] + k;
                    if (v >= vcs) v -= vcs;
                    i64 g = i * slots + v;
                    if (fl[g] == 0 && vc_out[g] < 0) { chosen = v; break; }
                }
                if (chosen < 0) continue;
                ni_ptr[i] = chosen + 1 < vcs ? chosen + 1 : 0;
                cp = qhead[i];
                cur_pkt[i] = cp; cur_idx[i] = 0; cur_vc[i] = chosen;
                qhead[i] = rows[cp].next;
                if (qhead[i] < 0) qtail[i] = -1;
            }
            i64 v = cur_vc[i];
            if (fl[i * slots + v] >= depth) continue;
            PUSH(i, v, cur_idx[i], cp);
            rows[cp].flags |= P_STARTED;  /* a fault would retransmit */
            cur_idx[i]++;
            if (cur_idx[i] >= length) cur_pkt[i] = -1;
        }

        /* per-router VC allocation + switch allocation + traversal */
        for (i64 i = 0; i < count; i++) {
            if (!buffered[i] || wake[i] > cycle || (gating && gated[i]))
                continue;
            int acted = 0;
            i64 min_wait = NEVER;
            i64 base_g = i * slots;

            /* VA: ready heads of unallocated occupied VCs request
             * out-VCs, grouped by output port in first-encounter order;
             * a request to a port without a free out-VC cannot be
             * granted, so it is dropped before grouping */
            i64 m = vap[i];
            if (m) {
                const i64 *route_i = route + i * mesh;
                i64 fm = freeo[i];
                i64 req_order[5], n_req = 0;
                i64 req_m[5] = {0, 0, 0, 0, 0};
                while (m) {
                    i64 s = CTZ(m);
                    m &= m - 1;
                    i64 g = base_g + s;
                    i64 out_p = head_route[g];
                    if (out_p < 0) {
                        const flit_t *head = fifo + g * depth + rh[g];
                        i64 ready = head->arr + 2;  /* BW, RC, then VA */
                        if (cycle < ready) {
                            if (ready < min_wait) min_wait = ready;
                            continue;
                        }
                        out_p = route_i[rows[head->pkt].dest];
                        head_route[g] = out_p;
                    }
                    if (out_p >= 8) {
                        /* packed adaptive candidate pair: prefer a free
                         * out-VC, then most downstream credits; strict
                         * improvement only, so ties keep the first
                         * (turn-model-preferred) candidate */
                        i64 c0 = (out_p >> 4) & 7, c1 = (out_p >> 8) & 7;
                        int f0 = ((fm >> (c0 * vcs)) & vmask) != 0;
                        int f1 = ((fm >> (c1 * vcs)) & vmask) != 0;
                        out_p = c0;
                        if (f1 > f0) {
                            out_p = c1;
                        } else if (f1 == f0) {
                            i64 cr0 = 0, cr1 = 0;
                            for (i64 v = 0; v < vcs; v++) {
                                cr0 += credits[base_g + c0 * vcs + v];
                                cr1 += credits[base_g + c1 * vcs + v];
                            }
                            if (cr1 > cr0) out_p = c1;
                        }
                    }
                    if (!((fm >> (out_p * vcs)) & vmask)) continue;
                    if (!req_m[out_p]) req_order[n_req++] = out_p;
                    req_m[out_p] |= BIT(s);
                }
                /* each port grants its free out-VCs in ascending order to
                 * its requesters in round-robin order from va_ptr: slots
                 * at or after the pointer first, then the ones before */
                for (i64 r = 0; r < n_req; r++) {
                    i64 out_p = req_order[r];
                    i64 ob = out_p * vcs;
                    i64 fv = (fm >> ob) & vmask;
                    i64 before = BIT(va_ptr[i * 5 + out_p]) - 1;
                    i64 turns[2] = {req_m[out_p] & ~before,
                                    req_m[out_p] & before};
                    for (int h = 0; h < 2; h++) {
                        for (i64 t = turns[h]; t && fv; t &= t - 1) {
                            i64 s = CTZ(t), os = ob + CTZ(fv);
                            fv &= fv - 1;
                            vc_out[base_g + s] = os;
                            sa_ready[base_g + s] = cycle + 1;
                            head_route[base_g + s] = -1;
                            owner[base_g + os] = s;
                            freeo[i] &= ~BIT(os);
                            if (credits[base_g + os] <= 0) nocr[i] |= BIT(s);
                            va_ptr[i * 5 + out_p] = s + 1 < slots ? s + 1 : 0;
                            vap[i] &= ~BIT(s);
                            acted = 1;
                            if (win) counters[i * 5 + 3]++;
                        }
                    }
                }
            }

            /* SA stage 1: each input port nominates one ready VC among
             * those holding an out-VC with credit, in round-robin order
             * from sa_in (the port's mask rotated by the pointer) */
            i64 cand = occ[i] & ~vap[i] & ~nocr[i];
            i64 nom_in[5], nom_v[5], nom_s[5], nom_os[5], nom_op[5];
            i64 n_nom = 0;
            for (i64 in_p = 0; cand; in_p++, cand >>= vcs) {
                i64 pm = cand & vmask;
                if (!pm) continue;
                i64 start = sa_in[i * 5 + in_p];
                i64 turn = ((pm >> start) | (pm << (vcs - start))) & vmask;
                for (; turn; turn &= turn - 1) {
                    i64 v = start + CTZ(turn);
                    if (v >= vcs) v -= vcs;
                    i64 s = in_p * vcs + v, g = base_g + s;
                    i64 ready = sa_ready[g];
                    if (cycle < ready) {
                        if (ready < min_wait) min_wait = ready;
                        continue;
                    }
                    i64 os = vc_out[g], op = port_of[os];
                    if (gating && op) {
                        i64 down = neighbor[i * 5 + op];
                        if (gated[down]) {
                            /* blocked on a gated next hop: wake it and
                             * try this input port's next VC */
                            REQUEST_WAKE(down);
                            if (wake_at[down] < min_wait)
                                min_wait = wake_at[down];
                            continue;
                        }
                    }
                    nom_in[n_nom] = in_p; nom_v[n_nom] = v;
                    nom_s[n_nom] = s; nom_os[n_nom] = os; nom_op[n_nom] = op;
                    n_nom++;
                    break;
                }
            }
            if (!n_nom) {
                wake[i] = acted ? cycle + 1 : min_wait;
                continue;
            }

            /* SA stage 2: one grant per output port, groups resolved in
             * first-nomination order */
            i64 win_idx[5], n_win = 0;
            if (n_nom == 1) {
                win_idx[0] = 0; n_win = 1;
            } else {
                i64 seen_out[5], n_out = 0;
                for (i64 a = 0; a < n_nom; a++) {
                    i64 op = nom_op[a];
                    int dup = 0;
                    for (i64 b = 0; b < n_out; b++)
                        if (seen_out[b] == op) { dup = 1; break; }
                    if (!dup) seen_out[n_out++] = op;
                }
                for (i64 b = 0; b < n_out; b++) {
                    i64 op = seen_out[b];
                    i64 ptr = sa_out[i * 5 + op];
                    i64 best = -1, best_k = 5;
                    for (i64 a = 0; a < n_nom; a++) {
                        if (nom_op[a] != op) continue;
                        i64 kk = nom_in[a] - ptr;
                        if (kk < 0) kk += 5;
                        if (kk < best_k) { best_k = kk; best = a; }
                    }
                    win_idx[n_win++] = best;
                }
            }

            /* traversal */
            for (i64 w = 0; w < n_win; w++) {
                i64 a = win_idx[w];
                i64 in_p = nom_in[a], v = nom_v[a];
                i64 s = nom_s[a], os = nom_os[a], out_p = nom_op[a];
                i64 g = base_g + s;
                const flit_t *front = fifo + g * depth + rh[g];
                i64 fi = front->idx, pk = front->pkt;
                int is_tail = fi == length - 1;
                pkt_t *row = rows + pk;
                fl[g]--;
                if (fl[g] == 0) {
                    rh[g] = 0;
                    occ[i] &= ~BIT(s);
                } else {
                    rh[g] = rh[g] + 1 >= depth ? 0 : rh[g] + 1;
                    /* the packet's next flit, or the next packet's head */
                    if (!is_tail)
                        sa_ready[g] = fifo[g * depth + rh[g]].arr + 1;
                }
                buffered[i]--;
                if (--credits[base_g + os] <= 0) nocr[i] |= BIT(s);
                if (win) counters[i * 5 + 1]++;
                if (in_p) {  /* return a credit upstream at +1 */
                    i64 up = neighbor[i * 5 + in_p];
                    i64 slot_up = rev[in_p] * vcs + v;
                    i64 r = (cycle + 1) % 2;
                    i64 e = cring_n[r]++;
                    cring[(r * ring_cap + e) * 2] = up;
                    cring[(r * ring_cap + e) * 2 + 1] = slot_up;
                    events_pending++;
                }
                if (is_tail) {
                    owner[base_g + os] = -1;
                    freeo[i] |= BIT(os);
                    vc_out[g] = -1;
                    nocr[i] &= ~BIT(s);
                    if (occ[i] & BIT(s)) vap[i] |= BIT(s);
                }
                if (!out_p) {  /* LOCAL output: ejection */
                    in_flight--;
                    if (is_tail) {
                        ej_cum[i] += length;
                        row->flags |= P_EJECTED;
                        if (row->flags & P_MEAS) {
                            outstanding--;
                            measured_flits += length;
                            ej_lat[n_ej] = cycle + 2 - row->created;
                            ej_hops[n_ej] = row->hops;
                            n_ej++;
                        }
                    }
                } else {       /* link traversal, arrival at +2 */
                    if (win) counters[i * 5 + 2]++;
                    if (fi == 0) row->hops++;
                    i64 down = neighbor[i * 5 + out_p];
                    i64 slot_down = rev[out_p] * vcs + (os - out_p * vcs);
                    i64 r = (cycle + 2) % 3;
                    i64 e = aring_n[r]++;
                    i64 *ev = aring + (r * ring_cap + e) * 4;
                    ev[0] = down; ev[1] = slot_down; ev[2] = fi; ev[3] = pk;
                    events_pending++;
                }
                sa_in[i * 5 + in_p] = v + 1 < vcs ? v + 1 : 0;
                sa_out[i * 5 + out_p] = in_p + 1 < 5 ? in_p + 1 : 0;
            }
            if (gating) last_active[i] = cycle;
            wake[i] = cycle + 1;
        }

    next_cycle:
        cycle++;
        if (cycle > measure_end && !outstanding) {
            cycles_run = cycle;
            break;
        }
    }

    /* a stopped segment's survivors: its unejected rows, in pid order */
    if (flags & FLAG_BOUNDARY) {
        for (i64 r = 0; r < n_rows; r++) {
            const pkt_t *row = rows + r;
            if (row->flags & P_EJECTED) continue;
            i64 *sv = survivors + n_sv * 5;
            sv[0] = row->src; sv[1] = row->dest; sv[2] = row->created;
            sv[3] = row->flags & P_MEAS ? 1 : 0;
            sv[4] = row->flags & P_STARTED ? 1 : 0;
            n_sv++;
        }
    }

    /* self-check: every mask and cache equals the state it mirrors ... */
    for (i64 i = 0; i < count; i++) {
        i64 o = 0, p = 0, n = 0, f = 0, b = 0, base_g = i * slots;
        for (i64 s = 0; s < slots; s++) {
            i64 g = base_g + s, os = vc_out[g], in_s = owner[g];
            if (fl[g]) {
                const flit_t *front = fifo + g * depth + rh[g];
                o |= BIT(s);
                b += fl[g];
                if (os < 0) p |= BIT(s);
                else if (front->idx && sa_ready[g] != front->arr + 1)
                    status = CHECK_MASKS;
            }
            if (os >= 0) {
                if (owner[base_g + os] != s) status = CHECK_MASKS;
                if (credits[base_g + os] <= 0) n |= BIT(s);
            }
            if (in_s < 0) f |= BIT(s);
            else if (vc_out[base_g + in_s] != s) status = CHECK_MASKS;
            if (head_route[g] >= 0 && !(p & BIT(s))) status = CHECK_MASKS;
        }
        if (o != occ[i] || p != vap[i] || n != nocr[i] || f != freeo[i]
            || b != buffered[i])
            status = CHECK_MASKS;
    }
    /* ... and on every link the upstream's credits, the downstream
     * buffer and the flits and credits in flight between them add up to
     * `depth` (the pending events are tallied by upstream out-VC) */
    for (i64 r = 0; r < 2; r++)
        for (i64 e = 0; e < cring_n[r]; e++) {
            const i64 *ev = cring + (r * ring_cap + e) * 2;
            tally[ev[0] * slots + ev[1]]++;
        }
    for (i64 r = 0; r < 3; r++)
        for (i64 e = 0; e < aring_n[r]; e++) {
            const i64 *ev = aring + (r * ring_cap + e) * 4;
            i64 p = port_of[ev[1]], up = neighbor[ev[0] * 5 + p];
            if (up < 0) status = CHECK_CREDITS;
            else tally[up * slots + ev[1] + (rev[p] - p) * vcs]++;
        }
    for (i64 i = 0; i < count; i++)
        for (i64 p = 1; p < 5; p++) {
            i64 d = neighbor[i * 5 + p];
            if (d < 0) continue;
            for (i64 v = 0; v < vcs; v++) {
                i64 gu = i * slots + p * vcs + v;
                i64 gd = d * slots + rev[p] * vcs + v;
                if (credits[gu] + tally[gu] + fl[gd] != depth)
                    status = CHECK_CREDITS;
            }
        }
    if (status) goto done;

    out[0] = cycles_run;
    out[1] = flags;
    out[2] = n_ej;
    out[3] = created_measured;
    out[4] = measured_flits;
    out[5] = dropped;
    out[6] = n_s;
    out[7] = n_sv;
    out[8] = gates;
    out[9] = wakes;
    out[10] = gated_cycles;
    if (!gating)
        for (i64 i = 0; i < count; i++) counters[i * 5 + 4] = win_cycles;
    memcpy(ej_out, ej_cum, (size_t)count * sizeof(i64));
    memcpy(inj_out, inj_cum, (size_t)count * sizeof(i64));

done:
    free(fifo); free(rh); free(fl);
    free(vc_out); free(sa_ready); free(owner); free(credits);
    free(head_route); free(tally); free(va_ptr); free(sa_in); free(sa_out);
    free(occ); free(vap); free(nocr); free(freeo);
    free(buffered); free(ej_cum); free(inj_cum); free(wake); free(gated);
    free(wake_at); free(last_active); free(qhead); free(qtail);
    free(cur_pkt); free(cur_idx); free(cur_vc); free(ni_ptr); free(cring);
    free(aring); free(rows);
    return status;
}
#undef ENQUEUE
#undef CAPTURE
#undef REQUEST_WAKE
#undef PUSH

/* the body is inlined twice with `gating` a compile-time constant, so a
 * run without a gating policy executes the loop without its checks */
i64 run_kernel(KERNEL_PARAMS)
{
    return idle_timeout >= 0 ? kernel(1, KERNEL_ARGS)
                             : kernel(0, KERNEL_ARGS);
}
#undef KERNEL_PARAMS
#undef KERNEL_ARGS

static int cmp_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* The run's statistics over its n >= 1 measured ejections, in ejection
 * order: RunningStats.add's running mean of the latencies and of the hop
 * counts, then util.stats.percentile at 50, 95 and 99 from one sort of
 * the latencies (sorted in place).  These are the Python's IEEE
 * operations in the Python's order; the library is built with
 * -ffp-contract=off, so no multiply-add is fused where CPython rounds
 * twice.  out: latency mean, hop mean, max latency, p50, p95, p99. */
void fold_stats(i64 n, i64 *lat, const i64 *hops, double *out)
{
    static const double qs[3] = {50.0, 95.0, 99.0};
    double lat_mean = 0.0, hop_mean = 0.0;
    for (i64 k = 0; k < n; k++) {
        lat_mean += ((double)lat[k] - lat_mean) / (double)(k + 1);
        hop_mean += ((double)hops[k] - hop_mean) / (double)(k + 1);
    }
    qsort(lat, (size_t)n, sizeof(i64), cmp_i64);
    out[0] = lat_mean;
    out[1] = hop_mean;
    out[2] = (double)lat[n - 1];
    for (int j = 0; j < 3; j++) {
        double rank = qs[j] / 100.0 * (double)(n - 1);
        i64 low = (i64)rank, high = low + 1 < n ? low + 1 : n - 1;
        double frac = rank - (double)low;
        out[3 + j] = n == 1 ? (double)lat[0]
            : (double)lat[low] * (1.0 - frac) + (double)lat[high] * frac;
    }
}
"""

_OUT_LEN = 11  # scalars the kernel writes to `out`
# kernel statuses: 1 means it could not allocate its state (the run falls
# back to the reference engine); the others are failed self-checks
_SELF_CHECKS = {
    2: "the allocation masks or caches disagree with the VC state",
    3: "credits are not conserved on a link",
}
# compile flags: no host may fuse a multiply-add that CPython rounds twice
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_lock = threading.Lock()
_lib = None
_load_failed = False


def _find_compiler() -> str | None:
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def _library_path(source: str, flags: tuple[str, ...]) -> str:
    """Where the library built from ``source`` with ``flags`` is cached:
    the name hashes both, so a flag change never loads a stale build."""
    key = "\0".join((source, *flags)).encode("utf-8")
    digest = hashlib.sha256(key).hexdigest()[:16]
    return os.path.join(tempfile.gettempdir(), f"repro-noc-kernel-{digest}.so")


def _compile(source: str, flags: tuple[str, ...], target: str) -> None:
    """Compile ``source`` with ``flags`` and publish it at ``target``."""
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler on PATH")
    workdir = tempfile.mkdtemp(prefix="repro-noc-kernel-")
    try:
        path = os.path.join(workdir, "kernel.c")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        built = os.path.join(workdir, "kernel.so")
        subprocess.run(
            [compiler, *flags, "-o", built, path],
            check=True,
            capture_output=True,
        )
        os.replace(built, target)  # atomic publish for parallel workers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _build() -> ctypes.CDLL:
    if array.array("I").itemsize != 4:  # how the driver holds MT19937 words
        raise RuntimeError("no 32-bit unsigned int array type on this host")
    cached = _library_path(_KERNEL_SOURCE, _CFLAGS)
    if not os.path.exists(cached):
        _compile(_KERNEL_SOURCE, _CFLAGS, cached)
    return _declare(ctypes.CDLL(cached))


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Give ``lib``'s exported functions their argument types.

    Arrays pass as bare addresses: the driver allocates every one of them
    itself, contiguous and of the kernel's type, so a per-call dtype check
    could never fail -- and on a small region it cost more than the
    simulation.  ``out`` alone stays an int64 ndarray argument, because
    the repository benchmark's kernel wrapper reads it by position.
    """
    addr = ctypes.c_void_p
    out = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    c64 = ctypes.c_longlong
    f64 = ctypes.c_double
    lib.fold_stats.restype = None
    lib.fold_stats.argtypes = [c64, addr, addr, addr]  # n, lat, hops, out
    lib.run_kernel.restype = c64
    lib.run_kernel.argtypes = [
        c64, c64, c64, c64,          # count, vcs, depth, mesh
        addr, addr, addr,            # neighbor, route, rev
        c64, addr, addr, addr,       # n_ep, ep_router, ep_node, perm
        c64, c64, c64,               # pattern, length, hot
        f64, f64, addr,              # prob, hot_frac, mt
        c64, c64,                    # start_cycle, stop_cycle
        c64, c64, c64,               # warmup, measure_end, deadline
        c64, addr,                   # n_seed, seeds
        out, addr, addr, addr, addr,  # out, survivors, ej_lat, ej_hops, counters
        c64, c64,                    # interval, s_cap
        addr, addr, addr, addr, addr,  # s_cycle, s_inflight, s_occ, s_ej, s_inj
        addr, addr,                  # ej_out, inj_out
        c64, addr, addr,             # idle_timeout, protect, s_gated
    ]
    return lib


def _load() -> ctypes.CDLL | None:
    global _lib, _load_failed
    if _lib is not None or _load_failed:
        return _lib
    with _lock:
        if _lib is None and not _load_failed:
            try:
                _lib = _build()
            except Exception:
                _load_failed = True
    return _lib


def available() -> bool:
    """Whether the compiled kernel can run on this machine.

    False when ``REPRO_NOC_NATIVE`` is set to ``0``/``no``/``off``, when
    no C compiler is on the PATH, or when compilation failed once in
    this process (the failure is remembered, not retried).
    """
    if os.environ.get("REPRO_NOC_NATIVE", "").strip().lower() in ("0", "no", "off"):
        return False
    return _load() is not None


def _pinned(array: np.ndarray) -> tuple[np.ndarray, int]:
    """A read-only table and its address; the pair keeps the address valid."""
    array.flags.writeable = False
    return array, array.ctypes.data


_REV, _REV_ADDRESS = _pinned(np.array(
    [REVERSE_PORT.get(p, 0) for p in range(PORT_COUNT)], dtype=np.int64
))


class _Workspace:
    """One fresh int64 buffer holding, by name, every array of a call.

    ``address[name]`` is what the kernel gets; ``self[name]`` is a view
    for the driver to fill or read.  Views keep the buffer alive.
    """

    def __init__(self, sizes: dict):
        self.sizes = sizes
        self.start = start = {}
        total = 0
        for name, size in sizes.items():
            start[name] = total
            total += size or 1  # an empty array still gets its own address
        self.buffer = np.empty(total, dtype=np.int64)
        base = self.buffer.ctypes.data
        self.address = {name: base + 8 * at for name, at in start.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        at = self.start[name]
        return self.buffer[at:at + self.sizes[name]]


@functools.lru_cache(maxsize=64)
def _region_arrays(topology, routing):
    """Flattened routing/neighbor tables for one region, kernel-ready.

    Returns ``(nodes, index_of, route, neighbor)`` where ``route`` maps
    ``router_index * mesh_size + dest_node`` to an output port (adaptive
    candidate pairs packed as ``8 | (c0 << 4) | (c1 << 8)``) and
    ``neighbor`` maps ``router_index * 5 + port`` to the neighboring
    router index (-1 when unconnected), each a ``(table, address)`` pair.
    Memoized per ``(topology, routing)`` -- a grid revisits a handful of
    regions -- so every caller shares the result, which is read-only
    throughout.
    """
    from repro.noc.routing import build_table

    nodes = tuple(topology.active_nodes)
    count = len(nodes)
    index_of = {node: i for i, node in enumerate(nodes)}
    mesh_size = topology.width * topology.height

    route = np.zeros(count * mesh_size, dtype=np.int64)
    for (current, dest), port in build_table(topology, routing).items():
        if type(port) is tuple:
            # adaptive tables hold candidate tuples; singletons collapse
            # to a plain port, pairs pack into one word for the kernel
            port = port[0] if len(port) == 1 else 8 | (port[0] << 4) | (port[1] << 8)
        route[index_of[current] * mesh_size + dest] = port
    neighbor = np.full(count * PORT_COUNT, -1, dtype=np.int64)
    for i, node in enumerate(nodes):
        for port in range(1, PORT_COUNT):
            other = topology.neighbor(node, PORT_TO_DIRECTION[port])
            if other is not None and other in index_of:
                neighbor[i * PORT_COUNT + port] = index_of[other]
    return nodes, MappingProxyType(index_of), _pinned(route), _pinned(neighbor)


def _traffic_inputs(traffic):
    """``(pattern, perm, hot)`` telling the kernel how to pick destinations.

    Permutation patterns consume no randomness, so their per-endpoint
    destination comes straight from the generator (``perm[e]`` is the
    destination endpoint index, -1 when the endpoint sends nothing);
    uniform and hotspot destinations are drawn in the kernel.
    """
    index = traffic._index
    pattern = {"uniform": _PATTERN_UNIFORM, "hotspot": _PATTERN_HOTSPOT}.get(
        traffic.pattern, _PATTERN_FIXED
    )
    perm = [-1] * len(traffic.endpoints)
    if pattern == _PATTERN_FIXED:
        for e, node in enumerate(traffic.endpoints):
            dest = traffic._destination(node)
            if dest is not None:
                perm[e] = index[dest]
    return pattern, perm, index[traffic.hotspot_endpoint]


def execute(spec: SimulationSpec, telemetry=None) -> SimulationResult | None:
    """Run ``spec`` on the compiled kernel; None means "not covered".

    Returns None -- meaning "run the reference engine instead" -- when
    the kernel is unavailable (see :func:`available`), when the
    configuration exceeds its fixed-width state (more than ``_MAX_VCS``
    virtual channels), or when the endpoint list repeats a node (the
    kernel indexes endpoints by position).  A run is a chain of
    fresh-network kernel segments, one per region configuration (timeout
    gating from ``spec.gating`` runs in each): a fault boundary in the
    reference engine tears the network down and rebuilds it on the
    reconfigured region, re-injecting every surviving packet through the
    normal NI path, so the only state that crosses a boundary is the
    survivor list, the MT19937 state, the fault and gating counters and
    the cumulative telemetry.  Between segments this function replays
    the reference's drop-and-retransmit policy.  With active telemetry the
    kernel batches per-interval activity captures, replayed here as the
    spans, samples and metrics the reference emits.

    Raises :class:`RuntimeError` naming the check when a kernel call
    fails its self-check (allocation masks out of step with the VC
    state, or credits not conserved on a link): that is a kernel bug,
    not a run to hand to the reference engine.
    """
    gating = spec.gating
    idle_timeout, protected = -1, frozenset()  # -1: no gating
    if gating is not None:
        # idle spans never reach 2**62, so the clamp changes no decision
        idle_timeout = min(gating.idle_timeout, 1 << 62)
        protected = gating.protected_nodes
    cfg = spec.config
    vcs = cfg.vcs_per_port
    if vcs > _MAX_VCS or not available():
        return None
    lib = _lib
    traffic = spec.traffic.build()
    endpoints = traffic.endpoints
    n_ep = len(endpoints)
    if len(traffic._index) != n_ep:
        return None
    tel = active(telemetry)
    interval = tel.sample_interval if tel is not None else 0

    depth = cfg.buffers_per_vc
    planned = spec.topology
    faults = spec.faults
    boundaries = faults.boundaries() if faults else []
    mesh_size = planned.width * planned.height
    warmup = spec.warmup_cycles
    measure_cycles = spec.measure_cycles
    measure_end = warmup + measure_cycles
    deadline = measure_end + spec.drain_cycles
    length = traffic.packet_length
    prob = traffic.injection_rate / length

    pattern, perm, hot = _traffic_inputs(traffic)
    # the MT19937 words and index as C unsigned ints (32 bits on every
    # supported host), advanced in place across the chain
    mt = array.array("I", traffic._rng.getstate()[1])
    mt_address = mt.buffer_info()[0]
    s_cap = deadline // interval + 2 if interval else 1

    counters = {
        "dropped": 0, "retransmitted": 0, "rerouted": 0,
        "lost_measured": 0, "reconfigurations": 0,
    }
    min_level = planned.level if boundaries else 0
    created_measured = measured_ejected = measured_flits = 0
    ej_lats: list[np.ndarray] = []  # per segment, in ejection order
    ej_hop_counts: list[np.ndarray] = []
    activity = NetworkActivity()
    routers = activity.routers
    gating_totals = [0, 0, 0]  # gate events, wake events, gated cycles
    segments: list[tuple] = []  # (nodes, samples, workspace) to replay
    reconf_events: list[tuple[int, int]] = []  # (boundary cycle, new level)

    region, routing = planned, spec.routing
    seed_rows: list[tuple] = []  # (src node, dest, created, measured), pid order
    seg_start = 0
    while True:
        stop = (
            boundaries[len(reconf_events)]
            if len(reconf_events) < len(boundaries) else -1
        )
        # the tables hold their arrays: keep them referenced through the call
        tables = _region_arrays(region, routing)
        nodes, index_of, (_, route), (_, neighbor) = tables
        count = len(nodes)
        n_seed = len(seed_rows)
        # creations happen only on the segment's own cycles, so these
        # bound the rows a stopped segment leaves unejected and the
        # measured packets any segment can eject
        end = stop if stop >= 0 else deadline
        sv_cap = n_seed + n_ep * (end - seg_start) if stop >= 0 else 0
        ej_cap = n_seed + n_ep * max(
            0, min(measure_end, end) - max(warmup, seg_start)
        )
        # every array of the call is a slice of one buffer: the kernel
        # gets addresses, the driver fills the inputs and reads the
        # outputs through views
        ws = _Workspace({
            "out": _OUT_LEN, "counters": count * 5,
            "ep_router": n_ep, "ep_node": n_ep, "perm": n_ep,
            "seeds": n_seed * 4, "protect": count,
            "survivors": sv_cap * 5, "ej_lat": ej_cap, "ej_hops": ej_cap,
            "s_cycle": s_cap, "s_inflight": s_cap, "s_occ": s_cap * count,
            "s_ej": s_cap * count, "s_inj": s_cap * count,
            "s_gated": s_cap * count, "ej_out": count, "inj_out": count,
        })
        addr = ws.address
        ws.buffer[:_OUT_LEN + count * 5] = 0  # out and counters lead it
        ws["ep_router"][:] = [index_of.get(node, -1) for node in endpoints]
        ws["ep_node"][:] = endpoints
        ws["perm"][:] = perm
        if n_seed:
            ws["seeds"][:] = [
                value for src, dest, created, meas in seed_rows
                for value in (index_of[src], dest, created, meas)
            ]
        ws["protect"][:] = [node in protected for node in nodes]
        out = ws["out"]
        status = lib.run_kernel(
            count, vcs, depth, mesh_size, neighbor, route, _REV_ADDRESS,
            n_ep, addr["ep_router"], addr["ep_node"], addr["perm"],
            pattern, length, hot, prob, traffic.hotspot_fraction, mt_address,
            seg_start, stop, warmup, measure_end, deadline,
            n_seed, addr["seeds"], out, addr["survivors"],
            addr["ej_lat"], addr["ej_hops"], addr["counters"],
            interval, s_cap, addr["s_cycle"], addr["s_inflight"],
            addr["s_occ"], addr["s_ej"], addr["s_inj"],
            addr["ej_out"], addr["inj_out"],
            idle_timeout, addr["protect"], addr["s_gated"],
        )
        if status in _SELF_CHECKS:
            raise RuntimeError(
                f"native kernel self-check failed: {_SELF_CHECKS[status]}"
            )
        if status != 0:
            return None  # nothing emitted yet; fall back cleanly
        (seg_cycles, flags, n_ej, seg_created, seg_flits, seg_dropped,
         n_s, n_sv, *seg_gating) = out.tolist()
        gating_totals = [a + b for a, b in zip(gating_totals, seg_gating)]

        # fold this segment's activity counters (buffer reads double as
        # crossbar traversals and switch arbitrations, as in the reference)
        per_router = ws["counters"].tolist()
        writes, reads, links, grants, powered = (
            per_router[k::5] for k in range(5)
        )
        # RouterActivity in field order: buffer writes and reads, crossbar
        # traversals, link traversals, VC allocations, switch arbitrations,
        # powered cycles
        for node, counts in zip(nodes, map(
            RouterActivity, writes, reads, reads, links, grants, reads, powered
        )):
            if node in routers:
                routers[node].merge(counts)
            else:
                routers[node] = counts

        created_measured += seg_created
        measured_ejected += n_ej
        measured_flits += seg_flits
        counters["dropped"] += seg_dropped
        ej_lats.append(ws["ej_lat"][:n_ej])
        ej_hop_counts.append(ws["ej_hops"][:n_ej])

        if tel is not None:
            segments.append((nodes, n_s, ws))

        if not flags & _FLAG_BOUNDARY:
            cycles_run = seg_cycles
            break

        # boundary: reconfigure and replay drop-and-retransmit (survivor
        # order is pid order, exactly like Network.extract_in_flight)
        from repro.core.faults import reconfigured_topology

        region = reconfigured_topology(planned, faults, stop)
        keep = set(region.active_nodes)
        seed_rows = []
        for src, dest, created, meas, started in (
            ws["survivors"][:n_sv * 5].reshape(n_sv, 5).tolist()
        ):
            src = nodes[src]
            if src in keep and dest in keep:
                seed_rows.append((src, dest, created, meas))
                counters["retransmitted" if started else "rerouted"] += 1
            else:
                counters["dropped"] += 1
                counters["lost_measured"] += meas
        counters["reconfigurations"] += 1
        min_level = min(min_level, region.level)
        reconf_events.append((stop, region.level))
        # reconfigured regions always route CDOR (sound on any convex
        # region, equals XY on the restored full mesh)
        routing = "cdor"
        seg_start = stop

    saturated = (
        measured_ejected < created_measured - counters["lost_measured"]
    )
    summary = [0.0] * 6  # latency mean, hop mean, max latency, p50, p95, p99
    if measured_ejected:
        lat = np.concatenate(ej_lats)  # sorted in place by the fold
        hops = np.concatenate(ej_hop_counts)
        folded = array.array("d", summary)
        lib.fold_stats(measured_ejected, lat.ctypes.data, hops.ctypes.data,
                       folded.buffer_info()[0])
        summary = folded.tolist()

    if tel is not None:
        _emit_run_telemetry(
            tel, spec, traffic, segments, reconf_events, cycles_run,
            saturated, created_measured, measured_ejected, measured_flits,
            counters,
        )

    return SimulationResult(
        avg_latency=summary[0],
        avg_hops=summary[1],
        max_latency=int(summary[2]),
        p50_latency=summary[3],
        p95_latency=summary[4],
        p99_latency=summary[5],
        packets_measured=created_measured,
        packets_ejected=measured_ejected,
        offered_flits_per_cycle=traffic.injection_rate,
        accepted_flits_per_cycle=(
            measured_flits / (measure_cycles * n_ep)
            if measure_cycles and n_ep
            else 0.0
        ),
        saturated=saturated,
        cycles_run=cycles_run,
        measure_cycles=measure_cycles,
        activity=activity,
        endpoint_count=n_ep,
        packets_dropped=counters["dropped"],
        packets_retransmitted=counters["retransmitted"],
        packets_rerouted=counters["rerouted"],
        reconfigurations=counters["reconfigurations"],
        min_region_level=min_level,
        gating=GatingStats(*gating_totals) if gating is not None else None,
    )


def _emit_run_telemetry(
    tel, spec, traffic, segments, reconf_events, cycles_run, saturated,
    created_measured, measured_ejected, measured_flits, counters,
) -> None:
    """Replay a run's batched activity capture as telemetry.

    Reconstructs what the reference engine emits live: the
    simulate/phase span tree, one sample event per captured instant
    (a router gated at the instant is charged the whole sampling
    interval, as the reference sampler does), and the end-of-run metrics
    fold.  The kernel steps every cycle in ``[0, cycles_run)``,
    so the phase transitions happen at the thresholds themselves
    whenever the run reached them, and a reconfigure span lands in the
    reference order: boundary processing precedes the phase check, so a
    boundary that coincides with a transition stays in the outgoing
    phase's span.  Samples replay per segment with the cumulative
    injection/ejection maps carried across boundaries, like the
    reference's live dicts (re-injected survivors are not new
    injections).
    """
    from repro.noc.backends.reference import _record_sim_metrics

    warmup = spec.warmup_cycles
    measure_end = warmup + spec.measure_cycles

    tracer = tel.tracer
    sim_span = tracer.span(
        "simulate",
        level=spec.topology.level,
        routing=spec.routing,
        rate=round(traffic.injection_rate, 6),
    )
    phase_span = tracer.span("phase:warmup", parent=sim_span.id)
    phase = 0

    def cross_phases(upto: int) -> None:
        """Take every phase transition at a cycle before ``upto``."""
        nonlocal phase, phase_span
        if phase == 0 and warmup < upto:
            phase = 1
            phase_span.annotate(end_cycle=warmup)
            phase_span.end()
            phase_span = tracer.span(
                "phase:measure", parent=sim_span.id, start_cycle=warmup
            )
        if phase == 1 and measure_end < upto:
            phase = 2
            phase_span.annotate(end_cycle=measure_end)
            phase_span.end()
            phase_span = tracer.span(
                "phase:drain", parent=sim_span.id, start_cycle=measure_end
            )

    for boundary, level in reconf_events:
        cross_phases(boundary)
        reconf_span = tracer.span(
            "reconfigure", parent=phase_span.id, cycle=boundary
        )
        reconf_span.annotate(level=level)
        reconf_span.end()
    cross_phases(cycles_run)

    inj: dict[int, int] = {}
    ej: dict[int, int] = {}
    gated_cycles: dict[int, int] = {}
    for nodes, n_s, seg in segments:
        count = len(nodes)
        s_occ = seg["s_occ"][:n_s * count].tolist()
        s_ej = seg["s_ej"][:n_s * count].tolist()
        s_inj = seg["s_inj"][:n_s * count].tolist()
        s_gated = seg["s_gated"][:n_s * count].tolist()
        for k, (c, in_flight) in enumerate(zip(
            seg["s_cycle"][:n_s].tolist(), seg["s_inflight"][:n_s].tolist()
        )):
            base = k * count
            inj_map = {
                node: inj.get(node, 0) + s_inj[base + i]
                for i, node in enumerate(nodes)
            }
            ej_map = {
                node: ej.get(node, 0) + s_ej[base + i]
                for i, node in enumerate(nodes)
            }
            _emit_flat_sample(
                tel, sim_span.id, c, nodes, s_occ[base:base + count],
                s_gated[base:base + count], in_flight, inj_map, ej_map,
                gated_cycles,
            )
        for totals, final in ((inj, seg["inj_out"]), (ej, seg["ej_out"])):
            for node, flits in zip(nodes, final.tolist()):
                if flits:
                    totals[node] = totals.get(node, 0) + flits

    _record_sim_metrics(
        tel, cycles_run, created_measured,
        {"measured": measured_ejected, "measured_flits": measured_flits},
        counters, saturated, inj, ej, gated_cycles,
    )
    phase_span.annotate(end_cycle=cycles_run)
    phase_span.end()
    sim_span.annotate(
        cycles=cycles_run,
        packets=created_measured,
        saturated=saturated,
        reconfigurations=counters["reconfigurations"],
    )
    sim_span.end()


def _emit_flat_sample(
    tel, span_id, cycle, nodes, occupancy, gated, in_flight, inj_flits,
    ej_flits, gated_cycles,
) -> None:
    """One captured sample, byte-compatible with the reference backend's
    :func:`~repro.noc.backends.reference._emit_router_sample` payload."""
    interval = tel.sample_interval
    routers = {}
    for node, occ, is_gated in zip(nodes, occupancy, gated):
        if is_gated:
            gated_cycles[node] = gated_cycles.get(node, 0) + interval
        routers[str(node)] = {
            "inj": inj_flits.get(node, 0),
            "ej": ej_flits.get(node, 0),
            "occ": occ,
            "gated": is_gated,
        }
    buffered_total = sum(occupancy)
    tel.metrics.histogram(
        "noc_buffer_occupancy_flits",
        help="total buffered flits at sample instants",
        buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
    ).observe(buffered_total)
    tel.tracer.sample(
        {
            "cycle": cycle,
            "in_flight": in_flight,
            "buffered": buffered_total,
            "routers": routers,
        },
        parent=span_id,
    )


__all__ = ["available", "execute"]
