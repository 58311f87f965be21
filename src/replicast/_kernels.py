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

An outer loop runs the control events (the per-second monitor, the
scale evaluator and the provisioning engine), and between two of them
one inner loop runs arrivals and departures for both service models.
Each step sets t_next to the next arrival if it fires before the stop,
else to the stop, fires the departures due at or before t_next, then
routes, counts and records the arrival and refills the arrival block.
Routing to the least-loaded ready container happens in that one place.
Event kinds at equal timestamps fire in the fixed priority
departure < monitor < evaluation < provisioning < arrival, which makes
runs bit-reproducible for a given seed.

Under infinite-server service a job's departure is fixed when its block
is drawn: ``d = a + s`` (``a + mean`` for deterministic service) and its
response time ``d - a``, one rounding each.  The departures still
pending and the new block's are merged into one time-ordered queue, and
each arriving job writes the slot it is routed to into its queue
position.  The queue holds the jobs in flight plus one block, and is
rebuilt, dropping departed jobs, at each arrival-block refill.  The
merge is stable, so equal departure times leave in arrival order, and
jobs not yet arrived (slot -1) come last in each run of equal times.

Routing, the monitor and scaling read only in-flight counts, so the
queue is drained only before them: before routing an arrival at t, or
before a control event, the loop frees the arrived jobs due at or before
it (a job whose service rounds to zero leaves right after its own
arrival).  Freeing a job only decrements its container's count.  The
monitor records the queue head, and at each refill and at the end of
the run the departed prefix is folded into per-second response-time
sums with ``np.bincount`` and into the post-warmup sum with
``np.add.accumulate``.
Both add left to right in departure order from the carried partial sum,
so each sum has the bits of a scalar ``+=`` per departure, which
``np.sum`` (pairwise) and ``math.fsum`` (exact) would not.

Under processor sharing the next departure depends on the busy count,
so each departure is processed, and its response time summed, in turn.

One infinite-server container (n_max 1) skips the loop.  Nothing is
routed, the desired count always clamps to 1, so no provisioning event
fires, and the container's in-flight count is its arrivals minus its
departures.  ``_one_container`` draws the same blocks and builds the
same queue order, then takes each monitor's sample from searchsorted
counts, the window from a running sum of the integer samples, and the
response-time sums from ``_fold``, all exact, so it returns the loop's
result bit for bit.

The ready containers are a list of slots in slot order, changed only at
provisioning events, which routing scans for the least-loaded slot, and
a stack of the same slots in the order they became ready, from which
scale-down pops the newest container.  A scaled-down container keeps its
in-flight jobs and its slot is free once they are gone: scale-up takes
the lowest slot that is not ready and holds no jobs, which is the slot a
per-departure check would have freed, because every departure up to
then has been processed.  The stable window keeps a running integer sum
of its per-second samples, which are counts, so the windowed value is
exact.
"""

from __future__ import annotations

import math
from bisect import insort

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


def _merge(times, rts, arr, svc_rng, wl_mean, deterministic):
    """The pending departures (times, rts) and those of the block of
    arrivals arr in one stable time order: their times, their response
    times, and the order that sorted them (the pending jobs, then arr)."""
    if deterministic:
        dep = arr + wl_mean
    else:
        dep = arr + svc_rng.standard_exponential(arr.size) * wl_mean
    times = np.concatenate((times, dep))
    order = np.argsort(times, kind="stable")
    return times[order], np.concatenate((rts, dep - arr))[order], order


def _merge_departures(times, rts, q_slot, qh, arr, svc_rng, wl_mean, deterministic):
    """Departure queue of the pending jobs (times, rts, q_slot from qh on)
    and the block of arrivals arr: its times as a list and an array, its
    response times, its slots and the queue position of each arrival.

    The block's jobs get slot -1 until they arrive.  The lists end with a
    sentinel whose time never fires.
    """
    n_pend = times.size - qh
    times, rts, order = _merge(times[qh:], rts[qh:], arr, svc_rng, wl_mean, deterministic)
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    slots = np.concatenate((np.array(q_slot[qh:-1], dtype=np.int64),
                            np.full(arr.size, -1, dtype=np.int64)))[order]
    q_time = times.tolist()
    q_time.append(_INF)
    q_slot = slots.tolist()
    q_slot.append(-1)
    return q_time, times, rts, q_slot, pos[n_pend:].tolist()


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


def _one_container(rps, window_len, deterministic, wl_mean, lam, duration, warmup,
                   arr_rng, svc_rng):
    """run_simulation's result for one infinite-server container, one
    arrival block at a time in numpy.

    In-flight jobs are arrivals minus departures, and the queue order is
    the stable time order of the departures, so the monitor's samples and
    the folds follow from searchsorted counts.  Once a block's last
    arrival a is drawn, every later job arrives and departs at or after
    a: the monitors at or before a are final, and the departures at or
    before it come before every later one.
    """
    times = rts = np.empty(0)
    samples = []
    sec_rt = []
    sec_n = []
    rt_sec = rt_pw = 0.0
    n_sec = n_pw = 0
    # Arrivals before the block, departures folded, monitors sampled and
    # arrivals before the last of them.
    arr_base = done = n_ticks = seen = 0
    t_last = 0.0
    while True:
        arr = _arrival_times(arr_rng, lam, _BLOCK, t_last)
        times, rts, _ = _merge(times, rts, arr, svc_rng, wl_mean, deterministic)
        t_last = arr[-1].item()
        stop = min(t_last, duration)
        ticks = np.arange(n_ticks + 1, math.floor(stop) + 1, dtype=np.float64)
        # A job departing at a tick leaves before the monitor if it arrived
        # before it (response time > 0), and such jobs head the run of
        # equal times.
        marks = np.searchsorted(times, ticks)
        ends = np.searchsorted(times, ticks, "right")
        for i in np.flatnonzero(ends > marks):
            marks[i] += np.count_nonzero(rts[marks[i]:ends[i]])
        arrived = arr_base + np.searchsorted(arr, ticks)
        if rps:
            samples.append(np.diff(arrived, prepend=seen))
            if ticks.size:
                seen = arrived[-1]
        else:
            samples.append(arrived - done - marks)
        qh = int(np.searchsorted(times, stop, "right"))
        rt_sec, n_sec, rt_pw, n_pw = _fold(times, rts, qh, marks.tolist(), warmup,
                                           sec_rt, sec_n, rt_sec, n_sec, rt_pw, n_pw)
        times, rts = times[qh:], rts[qh:]
        done += qh
        n_ticks += ticks.size
        if t_last > duration:
            break
        arr_base += _BLOCK

    # The stable window: a running sum of the integer samples.
    window = np.cumsum(np.concatenate(samples))
    window[window_len:] -= window[:-window_len].copy()
    tick_ov = (window / np.minimum(np.arange(1, n_ticks + 1), window_len)).tolist()
    _second_means(sec_rt, sec_n, wl_mean)
    # One container is ready from the start to the horizon.
    area_replica = duration - warmup if duration > warmup else 0.0
    arrivals = arr_base + int(np.searchsorted(arr, duration, "right"))
    return ([1] * n_ticks, tick_ov, sec_rt, sec_n, area_replica, rt_pw, n_pw,
            arrivals, done, arrivals - done)


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
    deterministic = workload.distribution == _DIST_DETERMINISTIC
    wl_mean = workload.mean_s
    lam, duration, warmup = sim_cfg.arrival_rate, sim_cfg.duration_s, sim_cfg.warmup_s
    init_replicas = sim_cfg.initial_replicas
    # The run has floor(duration) monitor ticks, so a longer window never
    # fills or wraps and gives the same result as one that long.
    window_len = min(window_len, math.floor(duration))
    if n_max == 1 and not sharing:
        return _one_container(rps, window_len, deterministic, wl_mean, lam, duration,
                              warmup, arr_rng, svc_rng)
    block = _BLOCK

    # Random blocks: a stream refills when its index reaches the block
    # size, so the processor-sharing service and the provisioning
    # streams draw nothing until first used.  Service times are
    # pre-multiplied by the mean.
    arr_block = _arrival_times(arr_rng, lam, block, 0.0)
    arr_t = arr_block.tolist()
    svc = []
    svc_i = block
    uni = []
    uni_i = block
    prov = []
    prov_i = block

    # Container slots.  A slot's index doubles as the container id for
    # dispatch tie-breaks.  A slot is free when it is not ready and holds
    # no jobs; a provisioned container takes the lowest free slot, or a
    # new one at the end.
    conc = [0] * init_replicas
    # Arrivals this second per ready slot (rps only); zeroed when a slot
    # stops being ready.
    arr_count = [0] * init_replicas
    # Arrival times of each slot's in-flight jobs (processor sharing only).
    ps_times = [[] for _ in range(init_replicas)]
    # Ready slots in slot order; only provisioning events change it.
    ready = list(range(init_replicas))
    # The same slots in the order they became ready: scale-down pops the
    # newest.
    by_birth = list(range(init_replicas))
    busy = 0
    j_ready = init_replicas
    order = init_replicas

    # Departure queue (infinite server only): time and slot lists from
    # the head qh on, with the times and response times as arrays for
    # the fold; q_pos[i] is the queue position of the block's arrival i.
    # marks holds the head position at each monitor since the last fold.
    marks = []
    qh = 0
    # Next departure: the queue head under infinite server, the next
    # completion of the processor-sharing containers otherwise.
    if sharing:
        t_dep = _INF
    else:
        q_time, times, rts, q_slot, q_pos = _merge_departures(
            np.empty(0), np.empty(0), [-1], qh, arr_block, svc_rng, wl_mean, deterministic)
        t_dep = q_time[0]

    # Stable window of per-second samples of the aggregate metric over
    # ready containers (in-flight sum for cc, arrival count for rps).
    wbuf = [0] * window_len
    w_count = 0
    w_idx = 0
    w_sum = 0
    ov = 0.0

    tick_ready = []
    tick_ov = []

    # Response-time sum and count of each closed second, of the open
    # second, and after warmup.
    sec_rt = []
    sec_n = []
    rt_sum_sec = 0.0
    n_sec = 0
    rt_sum_pw = 0.0
    completions_pw = 0

    # Arrivals before the current block; every job that has not left is
    # still counted in conc, so completions follow at the end.
    arr_base = 0
    area_replica = 0.0
    j_since = 0.0

    arr_i = 0
    t_arrival = arr_t[0]
    t_monitor = 1.0
    t_eval = t_eva
    t_prov = _INF
    # Earliest of the three control events, kept current by the branch
    # that moves any of them.
    t_ctrl = min(t_monitor, t_eval)

    while True:
        # A departure fires at or before dep_stop, an arrival strictly
        # before arr_stop: ties go to the departure, then the control
        # event, and nothing fires after the horizon.
        if t_ctrl <= duration:
            dep_stop = arr_stop = t_ctrl
        else:
            dep_stop = duration
            arr_stop = math.nextafter(duration, _INF)

        while True:
            # Departures fire up to the next arrival, or up to the stop
            # when no arrival is left before it.  arr_stop is dep_stop or
            # the float after it, so an arrival before it lies at or
            # before dep_stop.
            t_next = t_arrival if t_arrival < arr_stop else dep_stop
            if sharing:
                if t_dep <= t_next:
                    # --- departure ---
                    # Pick the departing container uniformly among busy
                    # ones, then the finishing job uniformly within it:
                    # exponential demands make every busy container
                    # equally likely to produce the next departure
                    # regardless of its job count.  A uniform u is below 1,
                    # and so is the rounded u * n for any count n < 2**53.
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
            else:
                # --- departures of arrived jobs ---
                # A job not routed yet (slot -1) arrives at or after the
                # next arrival and leaves no earlier, since fl(a + s) >= a
                # for s >= 0.
                while t_dep <= t_next and q_slot[qh] >= 0:
                    conc[q_slot[qh]] -= 1
                    qh += 1
                    t_dep = q_time[qh]
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
            if sharing:
                ps_times[best].append(t)
                if best_c == 0:
                    busy += 1
                    if svc_i == block:
                        svc = (svc_rng.standard_exponential(block) * wl_mean).tolist()
                        svc_i = 0
                    t_dep = t + svc[svc_i] / busy
                    svc_i += 1
            else:
                q_slot[q_pos[arr_i]] = best
            arr_i += 1
            if arr_i == block:
                if not sharing:
                    rt_sum_sec, n_sec, rt_sum_pw, completions_pw = _fold(
                        times, rts, qh, marks, warmup, sec_rt, sec_n, rt_sum_sec, n_sec,
                        rt_sum_pw, completions_pw)
                    marks = []
                arr_block = _arrival_times(arr_rng, lam, block, t)
                arr_t = arr_block.tolist()
                arr_base += block
                arr_i = 0
                if not sharing:
                    q_time, times, rts, q_slot, q_pos = _merge_departures(
                        times, rts, q_slot, qh, arr_block, svc_rng, wl_mean, deterministic)
                    qh = 0
                    t_dep = q_time[0]
            t_arrival = arr_t[arr_i]

        # The next event is a control event, or nothing is left before
        # the horizon.
        if t_ctrl > duration:
            break
        t_from = -1.0
        if t_monitor <= t_ctrl:
            # --- per-second monitor ---
            sample = 0
            for k in ready:
                sample += arr_count[k] if rps else conc[k]
                arr_count[k] = 0
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
            # Close the second's response times, or mark where the
            # departure queue closes them for the next fold.
            if sharing:
                sec_rt.append(rt_sum_sec)
                sec_n.append(n_sec)
                rt_sum_sec = 0.0
                n_sec = 0
            else:
                marks.append(qh)
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
            if j_ready < order:
                # A free slot already holds no jobs and no arrivals.
                slot = 0
                while slot < len(conc) and (conc[slot] or slot in ready):
                    slot += 1
                if slot == len(conc):
                    conc.append(0)
                    arr_count.append(0)
                    ps_times.append([])
                insort(ready, slot)
                by_birth.append(slot)
                j_ready += 1
            else:
                # Graceful scale-down of the newest ready container: it
                # finishes in-flight requests but gets no new ones.
                slot = by_birth.pop()
                ready.remove(slot)
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

    if not sharing:
        rt_sum_sec, n_sec, rt_sum_pw, completions_pw = _fold(
            times, rts, qh, marks, warmup, sec_rt, sec_n, rt_sum_sec, n_sec,
            rt_sum_pw, completions_pw)

    _second_means(sec_rt, sec_n, wl_mean)

    # Close the replica-count integral at the horizon.
    if duration > warmup:
        lo = j_since if j_since > warmup else warmup
        if duration > lo:
            area_replica += j_ready * (duration - lo)

    arrivals = arr_base + arr_i
    in_flight = sum(conc)
    return (tick_ready, tick_ov, sec_rt, sec_n,
            area_replica, rt_sum_pw, completions_pw,
            arrivals, arrivals - in_flight, in_flight)
