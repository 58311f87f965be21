"""Event loop of the discrete-event simulator.

The loop is plain CPython.  Random numbers come in fixed-size float64
blocks from three numpy Generators (arrivals, service, provisioning)
and are read as Python lists.  Arrival gaps are divided by the rate and
exponential service times multiplied by their mean in numpy, one
correctly rounded operation each, so every value has the same bits as
the scalar expression.  A block draw yields the same values as the same
number of scalar draws, and each stream refills at the same points as
it would one draw at a time, so the block size only bounds memory.

Arrival times are computed a block at a time: the gaps' cumulative sum,
with the last arrival time of the previous block added to the first
gap.  ``np.cumsum`` adds left to right, one rounding per element, so
each time has the same bits as the running ``t + gap`` of a scalar loop.

One section runs the control events (the per-second monitor, the scale
evaluator and the provisioning engine) for both service models.  Event
kinds at equal timestamps fire in the fixed priority
departure < monitor < evaluation < provisioning < arrival, which makes
runs bit-reproducible for a given seed.  The ready containers are a
list of slots in slot order, changed only at provisioning events, which
routing scans for the least-loaded slot, and a stack of the same slots
in the order they became ready, from which scale-down pops the newest
container.  A scaled-down container keeps its in-flight jobs, and its
slot is free once they are gone: scale-up takes the lowest slot that is
not ready and holds no jobs.  The stable window keeps a running integer
sum of its per-second samples, which are counts, so the windowed value
is exact.

Under processor sharing the next departure depends on the busy count,
so between two control events an inner loop processes each arrival and
departure in turn and routes each arrival as it comes.

Under infinite-server service a job's departure is fixed when its block
is drawn: ``d = a + s`` (``a + mean`` for deterministic service) and its
response time ``d - a``, one rounding each.  So are the departure order
and the count of jobs in flight at any instant, whatever the routing.
``_InfiniteServer`` merges the pending departures and each new block's
into one stable time order, so equal departure times leave in arrival
order.  Once a block's last arrival a is drawn, every later job arrives
and departs at or after a, so the control events up to a read final
counts: each monitor's in-flight total and arrivals in the second are
``searchsorted`` counts, and at each refill the departed prefix is
folded into per-second response-time sums with ``np.bincount`` and into
the post-warmup sum with ``np.add.accumulate``.  Both add left to right
in departure order from the carried partial sum, so each sum has the
bits of a scalar ``+=`` per departure, which ``np.sum`` (pairwise) and
``math.fsum`` (exact) would not.

Routing changes a result only through containers that were scaled down:
the cc sample is the in-flight total minus the jobs still on them, the
rps sample is the second's arrivals minus those that went to a container
removed before the tick, and scale-up reuses a slot only once its jobs
are gone.  So arrivals are routed, by the least-loaded rule, only when a
provisioning event fires, from a routing cursor up to that event; the
in-flight jobs of a container scaled down join a sorted list that the
monitor drains.  At a point where no job is in flight every count is
zero, so the cursor may restart there and skip the arrivals before it.
Under rps those arrivals must also precede the latest monitor tick at or
before the event, whose reset the zero counts then stand in for.  At
each block refill the cursor moves to the block's last such point or
else routes the block, so it holds at most two blocks and the jobs in
flight, and no arrival is routed twice.  With one container nothing is
ever provisioned, so nothing is routed.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort

import numpy as np

from .config import _DIST_DETERMINISTIC, METRIC_RPS, WORKLOAD_PROCESSOR_SHARING

# Random numbers drawn per Generator call.
_BLOCK = 4096

_INF = math.inf


def _arrival_times(arr_rng, lam, block, t_last):
    """The next block of arrival times after t_last."""
    a = arr_rng.standard_exponential(block) / lam
    a[0] += t_last
    return np.cumsum(a, out=a)


def _fold(times, rts, qh, marks, warmup, sec_rt, sec_n, rt_sec, n_sec, rt_pw, n_pw):
    """Fold the departed jobs, queue positions [0, qh), into the sums.

    marks holds the head position at each monitor since the queue was
    built.  The sum and count of each second it closes are appended to
    sec_rt and sec_n, the first starting from the open second's rt_sec
    and n_sec.  Returns the new open second's sum and count and the
    post-warmup sum and count, which start from rt_pw and n_pw.
    """
    sizes = np.diff(np.array([0, *marks, qh]))
    ids = np.repeat(np.arange(sizes.size), sizes)
    sums = np.bincount(np.concatenate(([0], ids)),
                       np.concatenate(([rt_sec], rts[:qh])), sizes.size).tolist()
    sizes[0] += n_sec
    sizes = sizes.tolist()
    sec_rt += sums[:-1]
    sec_n += sizes[:-1]
    late = rts[:qh][times[:qh] > warmup]
    rt_pw = np.add.accumulate(np.concatenate(([rt_pw], late)))[-1].item()
    return sums[-1], sizes[-1], rt_pw, n_pw + late.size


def _second_means(sec_rt, sec_n, wl_mean):
    """Mean response time per second, in place of the sums; a second
    without completions carries the last mean forward, the workload mean
    before the first, and its count becomes the carried flag."""
    last_rt = wl_mean
    for i, n in enumerate(sec_n):
        if n:
            last_rt = sec_rt[i] / n
        sec_rt[i] = last_rt
        sec_n[i] = 0 if n else 1


class _InfiniteServer:
    """The arrivals and departures of an infinite-server run, one arrival
    block at a time, and the routing cursor.

    ``base`` holds a sample per monitor tick of the block, up to ``stop``,
    the block's last arrival or the horizon if that comes first: the jobs
    in flight (cc) or the arrivals in the second (rps), on every
    container.  ``final`` says whether the last arrival lies past the
    horizon.  ``route_to`` brings ``conc`` and ``arr_count``, which the
    control section shares, to a provisioning event.
    """

    def __init__(self, sim_cfg, arr_rng, svc_rng, conc, arr_count, ready):
        workload = sim_cfg.workload
        self.rps = sim_cfg.autoscaler.metric_kind == METRIC_RPS
        self.deterministic = workload.distribution == _DIST_DETERMINISTIC
        self.wl_mean = workload.mean_s
        self.lam, self.duration, self.warmup = (sim_cfg.arrival_rate, sim_cfg.duration_s,
                                                sim_cfg.warmup_s)
        self.arr_rng, self.svc_rng = arr_rng, svc_rng
        self.conc, self.arr_count, self.ready = conc, arr_count, ready
        self.block = _BLOCK
        # Departures after the last fold and the current block's, in time
        # order, with their response times; the sums they fold into.
        self.times = self.rts = np.empty(0)
        self.sec_rt = []
        self.sec_n = []
        self.rt_sec = self.rt_pw = 0.0
        self.n_sec = self.n_pw = 0
        # Arrivals before the block, departures folded, monitor ticks
        # before the block and arrivals before the last of them; the last
        # arrival and the latest departure drawn before the block.
        self.arr_base = self.done = self.n_ticks = self.seen = 0
        self.t_last = self.m_last = 0.0
        # The cursor: the next arrival to route; the arrival and departure
        # times of the jobs from index u_base to the end of the block; the
        # departure times and slots of the routed jobs in flight, in time
        # order; and the next monitor tick, at which arr_count resets.
        self.ci = self.u_base = 0
        self.u_arr = self.u_dep = self.r_dep = np.empty(0)
        self.r_slot = np.empty(0, dtype=np.int64)
        self.c_tick = 1.0
        self._load()

    def _load(self):
        """Draw the next arrival block and count its monitor ticks."""
        arr = _arrival_times(self.arr_rng, self.lam, self.block, self.t_last)
        if self.deterministic:
            dep = arr + self.wl_mean
        else:
            dep = arr + self.svc_rng.standard_exponential(arr.size) * self.wl_mean
        # The block's restart points: the arrivals that find no job in
        # flight, with the instant the last job before them left and the
        # arrival before them.
        m = np.maximum.accumulate(np.concatenate(([self.m_last], dep)))
        empty = np.flatnonzero(m[:-1] <= arr)
        self.e_idx = (self.arr_base + empty).tolist()
        self.e_m = m[empty].tolist()
        self.e_prev = np.concatenate(([self.t_last], arr[:-1]))[empty].tolist()
        self.m_last = m[-1]
        lo = self.ci - self.u_base
        self.u_arr = np.concatenate((self.u_arr[lo:], arr))
        self.u_dep = np.concatenate((self.u_dep[lo:], dep))
        self.u_base = self.ci

        times = np.concatenate((self.times, dep))
        order = np.argsort(times, kind="stable")
        self.times = times = times[order]
        self.rts = rts = np.concatenate((self.rts, dep - arr))[order]
        self.arr = arr
        self.t_last = arr[-1].item()
        self.final = self.t_last > self.duration
        self.stop = min(self.t_last, self.duration)
        ticks = np.arange(self.n_ticks + 1, math.floor(self.stop) + 1, dtype=np.float64)
        self.n_ticks += ticks.size
        # A job departing at a tick leaves before the monitor if it arrived
        # before it (response time > 0), and such jobs head the run of
        # equal times.
        marks = np.searchsorted(times, ticks)
        ends = np.searchsorted(times, ticks, "right")
        for i in np.flatnonzero(ends > marks):
            marks[i] += np.count_nonzero(rts[marks[i]:ends[i]])
        self.marks = marks.tolist()
        arrived = self.arr_base + np.searchsorted(arr, ticks)
        if self.rps:
            self.base = np.diff(arrived, prepend=self.seen).tolist()
            if ticks.size:
                self.seen = arrived[-1]
        else:
            self.base = (arrived - self.done - marks).tolist()

    def _fold_block(self):
        """Fold the departures up to the block's stop into the sums."""
        qf = int(np.searchsorted(self.times, self.stop, "right"))
        self.rt_sec, self.n_sec, self.rt_pw, self.n_pw = _fold(
            self.times, self.rts, qf, self.marks, self.warmup, self.sec_rt, self.sec_n,
            self.rt_sec, self.n_sec, self.rt_pw, self.n_pw)
        self.times, self.rts = self.times[qf:], self.rts[qf:]
        self.done += qf

    def refill(self):
        """Fold the block, move the cursor to its last restart point or
        else route it, and load the next block."""
        self._fold_block()
        if not self._restart(self.t_last):
            self._route(self.arr_base + self.block)
        self.arr_base += self.block
        self._load()

    def _restart(self, t):
        """Move the cursor to the block's last restart point that is
        valid at t, with every count zero; returns whether it moved.

        A point is valid once the jobs before it have arrived before t and
        left by t; under rps they must have arrived before the latest
        monitor tick at or before t.
        """
        k = min(bisect_right(self.e_m, t),
                bisect_left(self.e_prev, math.floor(t) if self.rps else t))
        if k == 0 or self.e_idx[k - 1] <= self.ci:
            return False
        self.ci = self.e_idx[k - 1]
        zeros = [0] * len(self.conc)
        self.conc[:] = zeros
        self.arr_count[:] = zeros
        self.r_dep = np.empty(0)
        self.r_slot = np.empty(0, dtype=np.int64)
        return True

    def route_to(self, t):
        """Bring the counts to a provisioning event at t: route the
        arrivals before t and free the jobs due at or before it."""
        self._restart(t)
        self._route(self.u_base + int(np.searchsorted(self.u_arr, t)), t)

    def _route(self, end, t_free=-_INF):
        """Route the arrivals before index end, each to the least-loaded
        ready container, the lowest slot among equals, after freeing the
        jobs due at or before it; then free those due at or before t_free
        and reset arr_count at any monitor tick up to it."""
        conc, arr_count, ready, rps = self.conc, self.arr_count, self.ready, self.rps
        lo, hi = self.ci - self.u_base, end - self.u_base
        n_routed = self.r_dep.size
        # The routed jobs and the new ones in one stable time order, with
        # slot -1 until routed: a job not routed yet arrives at or after
        # the next arrival and leaves no earlier, since fl(a + s) >= a.
        times = np.concatenate((self.r_dep, self.u_dep[lo:hi]))
        order = np.argsort(times, kind="stable")
        times = times[order]
        q_time = times.tolist()
        q_time.append(_INF)
        q_slot = np.concatenate((self.r_slot, np.full(hi - lo, -1, dtype=np.int64)))[order]
        q_slot = q_slot.tolist()
        q_slot.append(-1)
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        qh = 0
        c_tick = self.c_tick
        multi = len(ready) > 1
        for t, p in zip(self.u_arr[lo:hi].tolist(), pos[n_routed:].tolist()):
            while q_time[qh] <= t and q_slot[qh] >= 0:
                conc[q_slot[qh]] -= 1
                qh += 1
            best = ready[0]
            best_c = conc[best]
            if multi:
                for k in ready:
                    c = conc[k]
                    if c < best_c:
                        best = k
                        best_c = c
            conc[best] = best_c + 1
            if rps:
                if t >= c_tick:
                    for k in ready:
                        arr_count[k] = 0
                    c_tick = math.floor(t) + 1.0
                arr_count[best] += 1
            q_slot[p] = best
        while q_time[qh] <= t_free and q_slot[qh] >= 0:
            conc[q_slot[qh]] -= 1
            qh += 1
        if rps and t_free >= c_tick:
            for k in ready:
                arr_count[k] = 0
            c_tick = math.floor(t_free) + 1.0
        self.ci, self.c_tick = end, c_tick
        self.r_dep = times[qh:]
        self.r_slot = np.array(q_slot[qh:-1], dtype=np.int64)

    def in_flight_on(self, slot):
        """Departure times of the jobs on slot, after ``route_to``."""
        return self.r_dep[self.r_slot == slot].tolist()

    def finish(self):
        """Fold the departures up to the horizon.  Returns the per-second
        mean response times and carried flags, the post-warmup sum and
        count, and the arrivals and completions."""
        self._fold_block()
        _second_means(self.sec_rt, self.sec_n, self.wl_mean)
        arrivals = self.arr_base + int(np.searchsorted(self.arr, self.duration, "right"))
        return self.sec_rt, self.sec_n, self.rt_pw, self.n_pw, arrivals, self.done


def run_simulation(sim_cfg, arr_rng, svc_rng, prov_rng):
    """Run the validated SimulationConfig sim_cfg on the three streams.

    Returns the per-second ready counts, windowed metric per container,
    mean response times and carried flags, then the post-warmup replica
    integral, response-time sum and completion count, and the arrivals,
    completions and jobs in flight at the horizon.
    """
    cfg = sim_cfg.autoscaler
    rps = cfg.metric_kind == METRIC_RPS
    tv, n_max, t_eva = cfg.target_value, cfg.n_max, cfg.t_eva_s
    window_len, mu_pro, mu_dep = cfg.window_length, cfg.mu_pro, cfg.mu_dep
    workload = sim_cfg.workload
    sharing = workload.kind == WORKLOAD_PROCESSOR_SHARING
    wl_mean = workload.mean_s
    lam, duration, warmup = sim_cfg.arrival_rate, sim_cfg.duration_s, sim_cfg.warmup_s
    init_replicas = sim_cfg.initial_replicas
    # The run has floor(duration) monitor ticks, so a longer window never
    # fills or wraps and gives the same result as one that long.
    window_len = min(window_len, math.floor(duration))
    block = _BLOCK
    prov = []
    prov_i = block

    # Container slots.  A slot's index doubles as the container id for
    # dispatch tie-breaks.  A slot is free when it is not ready and holds
    # no jobs; a provisioned container takes the lowest free slot, or a
    # new one at the end.  Under infinite server, conc and arr_count hold
    # the counts as of the routing cursor.
    conc = [0] * init_replicas
    # Arrivals this second per ready slot (rps only); zeroed when a slot
    # stops being ready.
    arr_count = [0] * init_replicas
    # Ready slots in slot order; only provisioning events change it.
    ready = list(range(init_replicas))
    # The same slots in the order they became ready: scale-down pops the
    # newest.
    by_birth = list(range(init_replicas))
    j_ready = init_replicas
    order = init_replicas

    if sharing:
        # Random blocks: a stream refills when its index reaches the
        # block size, so the service stream draws nothing until first
        # used.  Service times are pre-multiplied by the mean.
        arr_t = _arrival_times(arr_rng, lam, block, 0.0).tolist()
        arr_i = 0
        t_arrival = arr_t[0]
        # Arrivals before the current block; every job that has not left
        # is still counted in conc, so completions follow at the end.
        arr_base = 0
        svc = []
        svc_i = block
        uni = []
        uni_i = block
        # Arrival times of each slot's in-flight jobs.
        ps_times = [[] for _ in range(init_replicas)]
        busy = 0
        t_dep = _INF
        # Response-time sum and count of each closed second, of the open
        # second, and after warmup.
        sec_rt = []
        sec_n = []
        rt_sum_sec = 0.0
        n_sec = 0
        rt_sum_pw = 0.0
        completions_pw = 0
    else:
        inf_server = _InfiniteServer(sim_cfg, arr_rng, svc_rng, conc, arr_count, ready)
        base, stop, final = inf_server.base, inf_server.stop, inf_server.final
        k_tick = 0
        # Departure times of the jobs on scaled-down containers, in order
        # (cc), and this second's arrivals at them (rps).
        drained = []
        removed = 0

    # Stable window of per-second samples of the aggregate metric over
    # ready containers (in-flight sum for cc, arrival count for rps).
    wbuf = [0] * window_len
    w_count = 0
    w_idx = 0
    w_sum = 0
    ov = 0.0

    tick_ready = []
    tick_ov = []

    area_replica = 0.0
    j_since = 0.0

    t_monitor = 1.0
    t_eval = t_eva
    t_prov = _INF
    # Earliest of the three control events, kept current by the branch
    # that moves any of them.
    t_ctrl = min(t_monitor, t_eval)

    while True:
        if sharing:
            # A departure fires at or before dep_stop, an arrival strictly
            # before arr_stop: ties go to the departure, then the control
            # event, and nothing fires after the horizon.
            if t_ctrl <= duration:
                dep_stop = arr_stop = t_ctrl
            else:
                dep_stop = duration
                arr_stop = math.nextafter(duration, _INF)

            while True:
                # Departures fire up to the next arrival, or up to the
                # stop when no arrival is left before it.  arr_stop is
                # dep_stop or the float after it, so an arrival before it
                # lies at or before dep_stop.
                t_next = t_arrival if t_arrival < arr_stop else dep_stop
                if t_dep <= t_next:
                    # --- departure ---
                    # Pick the departing container uniformly among busy
                    # ones, then the finishing job uniformly within it:
                    # exponential demands make every busy container
                    # equally likely to produce the next departure
                    # regardless of its job count.  A uniform u is below
                    # 1, and so is the rounded u * n for any count n < 2**53.
                    t = t_dep
                    if uni_i + 2 > block:
                        uni = svc_rng.random(block).tolist()
                        uni_i = 0
                    pick = int(uni[uni_i] * busy)
                    idx_u = uni[uni_i + 1]
                    uni_i += 2
                    seen = 0
                    for slot, c in enumerate(conc):
                        if c > 0:
                            if seen == pick:
                                break
                            seen += 1
                    jobs = ps_times[slot]
                    idx = int(idx_u * c)
                    rt = t - jobs[idx]
                    jobs[idx] = jobs[-1]
                    jobs.pop()
                    conc[slot] = c - 1
                    if c == 1:
                        busy -= 1
                    if busy > 0:
                        if svc_i == block:
                            svc = (svc_rng.standard_exponential(block) * wl_mean).tolist()
                            svc_i = 0
                        t_dep = t + svc[svc_i] / busy
                        svc_i += 1
                    else:
                        t_dep = _INF
                    rt_sum_sec += rt
                    n_sec += 1
                    if t > warmup:
                        rt_sum_pw += rt
                        completions_pw += 1
                    continue
                if t_arrival >= arr_stop:
                    break

                # --- arrival: to the least-loaded ready container ---
                t = t_arrival
                best = ready[0]
                best_c = conc[best]
                if j_ready > 1:
                    for k in ready:
                        c = conc[k]
                        if c < best_c:
                            best = k
                            best_c = c
                if rps:
                    arr_count[best] += 1
                conc[best] = best_c + 1
                ps_times[best].append(t)
                if best_c == 0:
                    busy += 1
                    if svc_i == block:
                        svc = (svc_rng.standard_exponential(block) * wl_mean).tolist()
                        svc_i = 0
                    t_dep = t + svc[svc_i] / busy
                    svc_i += 1
                arr_i += 1
                if arr_i == block:
                    arr_t = _arrival_times(arr_rng, lam, block, t).tolist()
                    arr_base += block
                    arr_i = 0
                t_arrival = arr_t[arr_i]
        else:
            # The counts are final up to the block's stop.
            while t_ctrl > stop and not final:
                inf_server.refill()
                base, stop, final = inf_server.base, inf_server.stop, inf_server.final
                k_tick = 0

        # The next event is a control event, or nothing is left before
        # the horizon.
        if t_ctrl > duration:
            break
        t_from = -1.0
        if t_monitor <= t_ctrl:
            # --- per-second monitor ---
            if sharing:
                sample = 0
                for k in ready:
                    sample += arr_count[k] if rps else conc[k]
                    arr_count[k] = 0
                # Close the second's response times.
                sec_rt.append(rt_sum_sec)
                sec_n.append(n_sec)
                rt_sum_sec = 0.0
                n_sec = 0
            else:
                # Every container's count, less the scaled-down ones':
                # their jobs in flight (cc) or arrivals (rps).
                sample = base[k_tick]
                k_tick += 1
                if drained:
                    del drained[:bisect_right(drained, t_monitor)]
                    sample -= len(drained)
                if removed:
                    sample -= removed
                    removed = 0
            w_sum += sample - wbuf[w_idx]
            wbuf[w_idx] = sample
            if w_count < window_len:
                w_count += 1
            w_idx += 1
            if w_idx == window_len:
                w_idx = 0
            ov = w_sum / w_count

            tick_ready.append(j_ready)
            # Reported per container: the aggregate window over the
            # current ready count.
            tick_ov.append(ov / j_ready)
            t_monitor += 1.0

        elif t_eval <= t_ctrl:
            # --- scale evaluator ---
            # Knative's KPA: the aggregate windowed metric over the
            # per-container target, clamped to [1, n_max]; the top clamp
            # comes first, as the ceiling of an infinite ratio raises.
            q = ov / tv
            desired = n_max if q > n_max else max(1, math.ceil(q))
            if desired != order:
                order = desired
                t_from = t_eval
            t_eval += t_eva

        else:
            # --- provisioning engine: one container becomes ready or leaves ---
            t = t_prov
            if t > warmup:
                lo = j_since if j_since > warmup else warmup
                area_replica += j_ready * (t - lo)
            j_since = t
            if not sharing:
                inf_server.route_to(t)
            if j_ready < order:
                # A free slot already holds no jobs and no arrivals.
                slot = 0
                while slot < len(conc) and (conc[slot] or slot in ready):
                    slot += 1
                if slot == len(conc):
                    conc.append(0)
                    arr_count.append(0)
                    if sharing:
                        ps_times.append([])
                insort(ready, slot)
                by_birth.append(slot)
                j_ready += 1
            else:
                # Graceful scale-down of the newest ready container: it
                # finishes in-flight requests but gets no new ones.
                slot = by_birth.pop()
                ready.remove(slot)
                if not sharing:
                    if rps:
                        removed += arr_count[slot]
                    else:
                        drained += inf_server.in_flight_on(slot)
                        drained.sort()
                arr_count[slot] = 0
                j_ready -= 1
            t_from = t

        if t_from >= 0.0:
            # Next provisioning event after a new order or a finished
            # one: each missing container provisions at mu_pro, each
            # surplus one leaves at mu_dep.
            if j_ready == order:
                t_prov = _INF
            else:
                if prov_i == block:
                    prov = prov_rng.standard_exponential(block).tolist()
                    prov_i = 0
                if j_ready < order:
                    rate = (order - j_ready) * mu_pro
                else:
                    rate = (j_ready - order) * mu_dep
                t_prov = t_from + prov[prov_i] / rate
                prov_i += 1
        t_ctrl = min(t_monitor, t_eval, t_prov)

    if sharing:
        _second_means(sec_rt, sec_n, wl_mean)
        arrivals = arr_base + arr_i
        completions = arrivals - sum(conc)
    else:
        sec_rt, sec_n, rt_sum_pw, completions_pw, arrivals, completions = inf_server.finish()

    # Close the replica-count integral at the horizon.
    if duration > warmup:
        lo = j_since if j_since > warmup else warmup
        if duration > lo:
            area_replica += j_ready * (duration - lo)

    return (tick_ready, tick_ov, sec_rt, sec_n,
            area_replica, rt_sum_pw, completions_pw,
            arrivals, completions, arrivals - completions)
