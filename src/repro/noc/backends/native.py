"""The compiled kernel behind the vectorized backend.

A replica of the reference engine's wormhole-VC pipeline over flat
per-mesh arrays -- decision for decision: VC allocation order, switch
allocation round-robins, credit timing, ejection order -- as a small C
translation unit, compiled on demand with whatever ``cc``/``gcc``/
``clang`` the host provides and loaded through :mod:`ctypes`.

The compiled object is cached in the system temp directory under a name
keyed by the SHA-256 of the embedded source, so each kernel revision
compiles once per machine; publication is an atomic :func:`os.replace`
so concurrent sweep workers never observe a half-written library.  When
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
  in ejection order, and Python folds them through the same
  ``RunningStats`` so the Welford mean accumulates in exactly the
  reference sequence;
- a :class:`~repro.noc.power_gating.TimeoutGatingPolicy` runs inside
  the kernel: its idle timeout and protected nodes come in as inputs,
  the kernel applies the policy's gate-off rule every cycle together
  with the reference network's demand wakeups, and the gate, wake and
  gated-cycle counts come back to be added to the policy's ``stats``;
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

from repro.noc.activity import NetworkActivity
from repro.noc.result import SimulationResult
from repro.noc.routing import PORT_COUNT, PORT_TO_DIRECTION, REVERSE_PORT
from repro.noc.spec import SimulationSpec
from repro.util.stats import RunningStats, percentile

# occupancy and allocation-pending masks are single 64-bit words:
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
#define FLAG_BOUNDARY 4
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
    i64 slots = 5 * vcs;
    i64 gslots = count * slots;
    i64 vmask = (1LL << vcs) - 1;
    i64 status = 0;

    /* per-slot flit FIFOs as rings of capacity `depth` (credits bound
     * occupancy), plus flat allocation state */
    i64 *f_arr = malloc((size_t)gslots * depth * sizeof(i64));
    i64 *f_idx = malloc((size_t)gslots * depth * sizeof(i64));
    i64 *f_pkt = malloc((size_t)gslots * depth * sizeof(i64));
    i64 *rh = calloc((size_t)gslots, sizeof(i64));
    i64 *fl = calloc((size_t)gslots, sizeof(i64));
    i64 *vc_out = malloc((size_t)gslots * sizeof(i64));
    i64 *vc_elig = calloc((size_t)gslots, sizeof(i64));
    i64 *owner = malloc((size_t)gslots * sizeof(i64));
    i64 *credits = calloc((size_t)gslots, sizeof(i64));
    i64 *va_ptr = calloc((size_t)count * 5, sizeof(i64));
    i64 *sa_in = calloc((size_t)count * 5, sizeof(i64));
    i64 *sa_out = calloc((size_t)count * 5, sizeof(i64));
    i64 *occ = calloc((size_t)count, sizeof(i64));
    i64 *vap = calloc((size_t)count, sizeof(i64));
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

    if (!f_arr || !f_idx || !f_pkt || !rh || !fl || !vc_out || !vc_elig ||
        !owner || !credits || !va_ptr || !sa_in || !sa_out || !occ || !vap ||
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

    for (i64 g = 0; g < gslots; g++) { vc_out[g] = -1; owner[g] = -1; }
    for (i64 i = 0; i < count; i++) {
        qhead[i] = -1; qtail[i] = -1; cur_pkt[i] = -1; wake_at[i] = -1;
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
                i64 s = cring[(r * ring_cap + e) * 2 + 1];
                credits[i * slots + s]++;
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
                i64 i = ev[0], s = ev[1];
                i64 g = i * slots + s;
                i64 pos = rh[g] + fl[g];
                if (pos >= depth) pos -= depth;
                f_arr[g * depth + pos] = cycle;
                f_idx[g * depth + pos] = ev[2];
                f_pkt[g * depth + pos] = ev[3];
                fl[g]++;
                buffered[i]++;
                occ[i] |= 1LL << s;
                if (vc_out[g] < 0) vap[i] |= 1LL << s;
                wake[i] = cycle;
                if (gating) {
                    last_active[i] = cycle;
                    if (gated[i]) REQUEST_WAKE(i);  /* raced the gate-off */
                }
                if (win) counters[i * 5]++;
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
            i64 v = cur_vc[i], g = i * slots + v;
            if (fl[g] >= depth) continue;
            i64 pos = rh[g] + fl[g];
            if (pos >= depth) pos -= depth;
            f_arr[g * depth + pos] = cycle;
            f_idx[g * depth + pos] = cur_idx[i];
            f_pkt[g * depth + pos] = cp;
            fl[g]++;
            buffered[i]++;
            occ[i] |= 1LL << v;
            if (vc_out[g] < 0) vap[i] |= 1LL << v;
            wake[i] = cycle;
            if (win) counters[i * 5]++;
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

            /* VA: heads of unallocated occupied VCs request out-VCs,
             * grouped by output port in first-encounter order */
            i64 m = vap[i];
            i64 req_order[5], n_req = 0;
            i64 req_cnt[5] = {0, 0, 0, 0, 0};
            i64 req_s[5][60];
            if (m) {
                const i64 *route_i = route + i * mesh;
                while (m) {
                    i64 s = __builtin_ctzll((unsigned long long)m);
                    m &= m - 1;
                    i64 g = base_g + s;
                    i64 fpos = g * depth + rh[g];
                    i64 ready = f_arr[fpos] + 2;  /* BW, RC, then VA */
                    if (cycle < ready) {
                        if (ready < min_wait) min_wait = ready;
                        continue;
                    }
                    i64 out_p = route_i[rows[f_pkt[fpos]].dest];
                    if (out_p >= 8) {
                        /* packed adaptive candidate pair: prefer a free
                         * out-VC, then most downstream credits; strict
                         * improvement only, so ties keep the first
                         * (turn-model-preferred) candidate */
                        i64 cand[2] = {(out_p >> 4) & 7, (out_p >> 8) & 7};
                        i64 bf = -1, bc = -1;
                        for (int ci = 0; ci < 2; ci++) {
                            i64 ob = base_g + cand[ci] * vcs;
                            i64 fr = 0, cr = 0;
                            for (i64 v = 0; v < vcs; v++) {
                                if (owner[ob + v] < 0) fr = 1;
                                cr += credits[ob + v];
                            }
                            if (fr > bf || (fr == bf && cr > bc)) {
                                bf = fr; bc = cr; out_p = cand[ci];
                            }
                        }
                    }
                    if (req_cnt[out_p] == 0) req_order[n_req++] = out_p;
                    req_s[out_p][req_cnt[out_p]++] = s;
                }
                for (i64 r = 0; r < n_req; r++) {
                    i64 out_p = req_order[r];
                    i64 free_s[12], nf = 0;
                    i64 ob = out_p * vcs;
                    for (i64 v = 0; v < vcs; v++)
                        if (owner[base_g + ob + v] < 0) free_s[nf++] = ob + v;
                    if (!nf) continue;
                    i64 nr = req_cnt[out_p];
                    i64 *rs = req_s[out_p];
                    if (nr > 1) {
                        i64 ptr = va_ptr[i * 5 + out_p];
                        for (i64 a = 1; a < nr; a++) {
                            i64 x = rs[a];
                            i64 kx = (x - ptr) % slots;
                            if (kx < 0) kx += slots;
                            i64 b = a - 1;
                            while (b >= 0) {
                                i64 kb = (rs[b] - ptr) % slots;
                                if (kb < 0) kb += slots;
                                if (kb <= kx) break;
                                rs[b + 1] = rs[b];
                                b--;
                            }
                            rs[b + 1] = x;
                        }
                    }
                    i64 nz = nr < nf ? nr : nf;
                    for (i64 a = 0; a < nz; a++) {
                        i64 s = rs[a], os = free_s[a];
                        vc_out[base_g + s] = os;
                        vc_elig[base_g + s] = cycle + 1;
                        owner[base_g + os] = s;
                        va_ptr[i * 5 + out_p] = (s + 1) % slots;
                        vap[i] &= ~(1LL << s);
                        acted = 1;
                        if (win) counters[i * 5 + 3]++;
                    }
                }
            }

            /* SA stage 1: each input port nominates one ready VC */
            i64 mask = occ[i];
            i64 nom_in[5], nom_v[5], nom_s[5], nom_os[5], n_nom = 0;
            for (i64 in_p = 0; in_p < 5; in_p++) {
                i64 pm = (mask >> (in_p * vcs)) & vmask;
                if (!pm) continue;
                i64 start = sa_in[i * 5 + in_p];
                for (i64 k = 0; k < vcs; k++) {
                    i64 v = start + k;
                    if (v >= vcs) v -= vcs;
                    if (!((pm >> v) & 1)) continue;
                    i64 s = in_p * vcs + v, g = base_g + s;
                    i64 os = vc_out[g];
                    if (os < 0) continue;
                    i64 fpos = g * depth + rh[g];
                    if (f_idx[fpos] == 0) {   /* head: VA + one cycle   */
                        i64 ready = vc_elig[g];
                        if (cycle < ready) {
                            if (ready < min_wait) min_wait = ready;
                            continue;
                        }
                    } else {                  /* body: buffer write + 1 */
                        i64 ready = f_arr[fpos] + 1;
                        if (cycle < ready) {
                            if (ready < min_wait) min_wait = ready;
                            continue;
                        }
                    }
                    if (credits[base_g + os] <= 0) continue;
                    if (gating && os >= vcs) {
                        i64 down = neighbor[i * 5 + os / vcs];
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
                    nom_s[n_nom] = s; nom_os[n_nom] = os;
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
                    i64 op = nom_os[a] / vcs;
                    int dup = 0;
                    for (i64 b = 0; b < n_out; b++)
                        if (seen_out[b] == op) { dup = 1; break; }
                    if (!dup) seen_out[n_out++] = op;
                }
                for (i64 b = 0; b < n_out; b++) {
                    i64 op = seen_out[b];
                    i64 ptr = sa_out[i * 5 + op];
                    i64 best = -1, best_k = 1LL << 30;
                    for (i64 a = 0; a < n_nom; a++) {
                        if (nom_os[a] / vcs != op) continue;
                        i64 kk = (nom_in[a] - ptr) % 5;
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
                i64 s = nom_s[a], os = nom_os[a];
                i64 g = base_g + s;
                i64 fpos = g * depth + rh[g];
                i64 fi = f_idx[fpos], pk = f_pkt[fpos];
                pkt_t *row = rows + pk;
                fl[g]--;
                if (fl[g] == 0) {
                    rh[g] = 0;
                    occ[i] &= ~(1LL << s);
                } else {
                    rh[g] = rh[g] + 1 >= depth ? 0 : rh[g] + 1;
                }
                buffered[i]--;
                credits[base_g + os]--;
                if (win) counters[i * 5 + 1]++;
                int is_tail = fi == length - 1;
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
                    vc_out[g] = -1;
                    if (occ[i] & (1LL << s)) vap[i] |= 1LL << s;
                }
                if (os < vcs) {  /* LOCAL output: ejection */
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
                } else {         /* link traversal, arrival at +2 */
                    if (win) counters[i * 5 + 2]++;
                    if (fi == 0) row->hops++;
                    i64 out_p = os / vcs;
                    i64 down = neighbor[i * 5 + out_p];
                    i64 slot_down = rev[out_p] * vcs + (os - out_p * vcs);
                    i64 r = (cycle + 2) % 3;
                    i64 e = aring_n[r]++;
                    i64 *ev = aring + (r * ring_cap + e) * 4;
                    ev[0] = down; ev[1] = slot_down; ev[2] = fi; ev[3] = pk;
                    events_pending++;
                }
                sa_in[i * 5 + in_p] = v + 1 < vcs ? v + 1 : 0;
                sa_out[i * 5 + os / vcs] = (in_p + 1) % 5;
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
    free(f_arr); free(f_idx); free(f_pkt); free(rh); free(fl);
    free(vc_out); free(vc_elig); free(owner); free(credits);
    free(va_ptr); free(sa_in); free(sa_out); free(occ); free(vap);
    free(buffered); free(ej_cum); free(inj_cum); free(wake); free(gated);
    free(wake_at); free(last_active); free(qhead); free(qtail);
    free(cur_pkt); free(cur_idx); free(cur_vc); free(ni_ptr); free(cring);
    free(aring); free(rows);
    return status;
}
#undef ENQUEUE
#undef CAPTURE
#undef REQUEST_WAKE

/* the body is inlined twice with `gating` a compile-time constant, so a
 * run without a gating policy executes the loop without its checks */
i64 run_kernel(KERNEL_PARAMS)
{
    return idle_timeout >= 0 ? kernel(1, KERNEL_ARGS)
                             : kernel(0, KERNEL_ARGS);
}
#undef KERNEL_PARAMS
#undef KERNEL_ARGS
"""

_OUT_LEN = 11  # scalars the kernel writes to `out`

_lock = threading.Lock()
_lib = None
_load_failed = False


def _find_compiler() -> str | None:
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def _build() -> ctypes.CDLL:
    digest = hashlib.sha256(_KERNEL_SOURCE.encode("utf-8")).hexdigest()[:16]
    cached = os.path.join(tempfile.gettempdir(), f"repro-noc-kernel-{digest}.so")
    if not os.path.exists(cached):
        compiler = _find_compiler()
        if compiler is None:
            raise RuntimeError("no C compiler on PATH")
        workdir = tempfile.mkdtemp(prefix="repro-noc-kernel-")
        try:
            source = os.path.join(workdir, "kernel.c")
            with open(source, "w", encoding="utf-8") as handle:
                handle.write(_KERNEL_SOURCE)
            built = os.path.join(workdir, "kernel.so")
            subprocess.run(
                [compiler, "-O2", "-fPIC", "-shared", "-o", built, source],
                check=True,
                capture_output=True,
            )
            os.replace(built, cached)  # atomic publish for parallel workers
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    lib = ctypes.CDLL(cached)
    # arrays pass straight through, checked for dtype and contiguity
    ptr = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    words = np.ctypeslib.ndpointer(dtype=np.uint32, flags="C_CONTIGUOUS")
    c64 = ctypes.c_longlong
    f64 = ctypes.c_double
    lib.run_kernel.restype = c64
    lib.run_kernel.argtypes = [
        c64, c64, c64, c64,          # count, vcs, depth, mesh
        ptr, ptr, ptr,               # neighbor, route, rev
        c64, ptr, ptr, ptr,          # n_ep, ep_router, ep_node, perm
        c64, c64, c64,               # pattern, length, hot
        f64, f64, words,             # prob, hot_frac, mt
        c64, c64,                    # start_cycle, stop_cycle
        c64, c64, c64,               # warmup, measure_end, deadline
        c64, ptr,                    # n_seed, seeds
        ptr, ptr, ptr, ptr, ptr,     # out, survivors, ej_lat, ej_hops, counters
        c64, c64,                    # interval, s_cap
        ptr, ptr, ptr, ptr, ptr,     # s_cycle, s_inflight, s_occ, s_ej, s_inj
        ptr, ptr,                    # ej_out, inj_out
        c64, ptr, ptr,               # idle_timeout, protect, s_gated
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


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_REV = _frozen(np.array(
    [REVERSE_PORT.get(p, 0) for p in range(PORT_COUNT)], dtype=np.int64
))


@functools.lru_cache(maxsize=64)
def _region_arrays(topology, routing):
    """Flattened routing/neighbor tables for one region, kernel-ready.

    Returns ``(nodes, index_of, route, neighbor)`` where ``route`` maps
    ``router_index * mesh_size + dest_node`` to an output port (adaptive
    candidate pairs packed as ``8 | (c0 << 4) | (c1 << 8)``) and
    ``neighbor`` maps ``router_index * 5 + port`` to the neighboring
    router index (-1 when unconnected).  Memoized per ``(topology,
    routing)`` -- a grid revisits a handful of regions -- so every
    caller shares the result, which is read-only throughout.
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
    return nodes, MappingProxyType(index_of), _frozen(route), _frozen(neighbor)


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
    perm = np.full(len(traffic.endpoints), -1, dtype=np.int64)
    if pattern == _PATTERN_FIXED:
        for e, node in enumerate(traffic.endpoints):
            dest = traffic._destination(node)
            if dest is not None:
                perm[e] = index[dest]
    return pattern, perm, index[traffic.hotspot_endpoint]


def execute(
    spec: SimulationSpec, telemetry=None, gating_policy=None
) -> SimulationResult | None:
    """Run ``spec`` on the compiled kernel; None means "not covered".

    Returns None -- meaning "run the reference engine instead" -- when
    the kernel is unavailable (see :func:`available`), when the
    configuration exceeds its fixed-width state (more than ``_MAX_VCS``
    virtual channels), when the endpoint list repeats a node (the kernel
    indexes endpoints by position), or when ``gating_policy`` is not
    exactly a :class:`~repro.noc.power_gating.TimeoutGatingPolicy` with
    an integer ``idle_timeout`` (the kernel runs that policy's rules,
    not arbitrary Python).  A run is a chain of fresh-network kernel
    segments, one per region configuration: a fault boundary in the
    reference engine tears the network down and rebuilds it on the
    reconfigured region, re-injecting every surviving packet through the
    normal NI path, so the only state that crosses a boundary is the
    survivor list, the MT19937 state, the fault and gating counters and
    the cumulative telemetry.  Between segments this function replays
    the reference's drop-and-retransmit policy.  The policy's ``stats`` are
    updated once the whole chain has run, so a declined run leaves them
    for the reference engine to count.  With active telemetry the
    kernel batches per-interval activity captures, replayed here as the
    spans, samples and metrics the reference emits.
    """
    from repro.core.faults import reconfigured_topology
    from repro.noc.power_gating import TimeoutGatingPolicy
    from repro.telemetry import active as _active_telemetry

    idle_timeout, protected = -1, frozenset()
    if gating_policy is not None:
        if (type(gating_policy) is not TimeoutGatingPolicy
                or type(gating_policy.idle_timeout) is not int):
            return None
        # idle spans are never negative, so clamping changes no decision
        idle_timeout = min(max(gating_policy.idle_timeout, 0), 1 << 62)
        protected = gating_policy.protected_nodes
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
    tel = _active_telemetry(telemetry)
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
    mt = np.array(traffic._rng.getstate()[1], dtype=np.uint32)
    ep_node = np.array(endpoints, dtype=np.int64)
    s_cap = deadline // interval + 2 if interval else 1

    counters = {
        "dropped": 0, "retransmitted": 0, "rerouted": 0,
        "lost_measured": 0, "reconfigurations": 0,
    }
    min_level = planned.level if boundaries else 0
    created_measured = measured_ejected = measured_flits = 0
    latency = RunningStats()
    hops_stats = RunningStats()
    latencies: list[int] = []
    activity = NetworkActivity()
    gating_totals = [0, 0, 0]  # gate events, wake events, gated cycles
    segments: list[dict] = []  # per-segment telemetry replay payloads
    reconf_events: list[tuple[int, int]] = []  # (boundary cycle, new level)

    region, routing = planned, spec.routing
    seed_rows: list[tuple] = []  # (src node, dest, created, measured), pid order
    seg_start = 0
    while True:
        stop = (
            boundaries[len(reconf_events)]
            if len(reconf_events) < len(boundaries) else -1
        )
        nodes, index_of, route, neighbor = _region_arrays(region, routing)
        count = len(nodes)
        ep_router = np.array(
            [index_of.get(node, -1) for node in endpoints], dtype=np.int64
        )
        n_seed = len(seed_rows)
        seeds = np.array(
            [(index_of[src], dest, created, meas)
             for src, dest, created, meas in seed_rows] or [(0, 0, 0, 0)],
            dtype=np.int64,
        )
        # creations happen only on the segment's own cycles, so these
        # bound the rows a stopped segment leaves unejected and the
        # measured packets any segment can eject
        end = stop if stop >= 0 else deadline
        sv_cap = n_seed + n_ep * (end - seg_start) if stop >= 0 else 0
        ej_cap = n_seed + n_ep * max(
            0, min(measure_end, end) - max(warmup, seg_start)
        )
        out = np.zeros(_OUT_LEN, dtype=np.int64)
        survivors = np.empty(max(sv_cap, 1) * 5, dtype=np.int64)
        ej_lat = np.empty(max(ej_cap, 1), dtype=np.int64)
        ej_hops = np.empty(max(ej_cap, 1), dtype=np.int64)
        kcounters = np.zeros(count * 5, dtype=np.int64)
        s_cycle = np.empty(s_cap, dtype=np.int64)
        s_inflight = np.empty(s_cap, dtype=np.int64)
        s_occ = np.empty(s_cap * count, dtype=np.int64)
        s_ej = np.empty(s_cap * count, dtype=np.int64)
        s_inj = np.empty(s_cap * count, dtype=np.int64)
        s_gated = np.empty(s_cap * count, dtype=np.int64)
        ej_out = np.empty(count, dtype=np.int64)
        inj_out = np.empty(count, dtype=np.int64)
        protect = np.array([node in protected for node in nodes],
                           dtype=np.int64)
        status = lib.run_kernel(
            count, vcs, depth, mesh_size, neighbor, route, _REV,
            n_ep, ep_router, ep_node, perm,
            pattern, length, hot, prob, traffic.hotspot_fraction, mt,
            seg_start, stop, warmup, measure_end, deadline, n_seed, seeds,
            out, survivors, ej_lat, ej_hops, kcounters, interval, s_cap,
            s_cycle, s_inflight, s_occ, s_ej, s_inj, ej_out, inj_out,
            idle_timeout, protect, s_gated,
        )
        if status != 0:
            return None  # nothing emitted yet; fall back cleanly
        (seg_cycles, flags, n_ej, seg_created, seg_flits, seg_dropped,
         n_s, n_sv, *seg_gating) = out.tolist()
        gating_totals = [a + b for a, b in zip(gating_totals, seg_gating)]

        # fold this segment's activity counters (buffer reads double as
        # crossbar traversals and switch arbitrations, as in the reference)
        per_router = kcounters.tolist()
        for i, node in enumerate(nodes):
            writes, reads, links, grants, powered = per_router[i * 5:i * 5 + 5]
            ra = activity.router(node)
            ra.buffer_writes += writes
            ra.buffer_reads += reads
            ra.crossbar_traversals += reads
            ra.switch_arbitrations += reads
            ra.link_traversals += links
            ra.vc_allocations += grants
            ra.cycles_powered += powered

        created_measured += seg_created
        measured_ejected += n_ej
        measured_flits += seg_flits
        counters["dropped"] += seg_dropped
        seg_latencies = ej_lat[:n_ej].tolist()
        latency.extend(seg_latencies)
        latencies.extend(seg_latencies)
        hops_stats.extend(ej_hops[:n_ej].tolist())

        if tel is not None:
            segments.append(dict(
                nodes=nodes, n_s=n_s, s_cycle=s_cycle, s_inflight=s_inflight,
                s_occ=s_occ, s_ej=s_ej, s_inj=s_inj, s_gated=s_gated,
                ej_out=ej_out, inj_out=inj_out,
            ))

        if not flags & _FLAG_BOUNDARY:
            cycles_run = seg_cycles
            break

        # boundary: reconfigure and replay drop-and-retransmit (survivor
        # order is pid order, exactly like Network.extract_in_flight)
        region = reconfigured_topology(planned, faults, stop)
        keep = set(region.active_nodes)
        seed_rows = []
        for src, dest, created, meas, started in (
            survivors[:n_sv * 5].reshape(n_sv, 5).tolist()
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
    if gating_policy is not None:
        stats = gating_policy.stats
        stats.gate_events += gating_totals[0]
        stats.wake_events += gating_totals[1]
        stats.gated_router_cycles += gating_totals[2]

    if tel is not None:
        _emit_run_telemetry(
            tel, spec, traffic, segments, reconf_events, cycles_run,
            saturated, created_measured, measured_ejected, measured_flits,
            counters,
        )

    return SimulationResult(
        avg_latency=latency.mean if latency.count else 0.0,
        avg_hops=hops_stats.mean if hops_stats.count else 0.0,
        max_latency=int(latency.maximum) if latency.count else 0,
        p50_latency=percentile(latencies, 50) if latencies else 0.0,
        p95_latency=percentile(latencies, 95) if latencies else 0.0,
        p99_latency=percentile(latencies, 99) if latencies else 0.0,
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
    for seg in segments:
        nodes = seg["nodes"]
        count = len(nodes)
        n_s = seg["n_s"]
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
