"""Event loop of the discrete-event simulator.

The loop is plain CPython.  Random numbers come in fixed-size float64
blocks from three numpy Generators (arrivals, service, provisioning)
and are read as Python lists.  Arrival gaps are divided by the rate and
exponential service times multiplied by their mean in numpy, one
correctly rounded operation each, so every value has the same bits as
the scalar expression.  A block draw yields the same values as the same
number of scalar draws, and each stream refills at the same points as
it would one draw at a time, so the block size only bounds memory.

An inner loop runs arrivals and infinite-server departures (or the next
processor-sharing departure) up to the next control event: the
per-second monitor, the scale evaluator or the provisioning engine.
Event kinds at equal timestamps fire in the fixed priority
departure < monitor < evaluation < provisioning < arrival, which makes
runs bit-reproducible for a given seed.

The ready containers are a list of slots in slot order, changed only at
provisioning events: routing scans it for the least-loaded slot, and
scale-down for the newest container.  The stable window keeps a running
integer sum of its per-second samples, which are counts, so the
windowed value is exact.
"""

from __future__ import annotations

import math
from bisect import insort
from heapq import heappop, heappush

# Workload encodings for the kernel.
WL_INFINITE_EXP = 0
WL_INFINITE_DET = 1
WL_SHARING_EXP = 2

# Metric encodings.
MT_CONCURRENCY = 0
MT_RPS = 1

# Random numbers drawn per Generator call.
_BLOCK = 4096

_INF = math.inf


def run_simulation(metric_kind, tv, n_max, t_eva, window_len, mu_pro, mu_dep,
                   wl_kind, wl_mean, lam, duration, warmup, init_replicas,
                   arr_rng, svc_rng, prov_rng):
    sharing = wl_kind == WL_SHARING_EXP
    deterministic = wl_kind == WL_INFINITE_DET
    rps = metric_kind == MT_RPS
    block = _BLOCK
    push = heappush
    pop = heappop

    # Random blocks: a stream refills when its index reaches the block
    # size, so the service and provisioning streams draw nothing until
    # first used.  Service times are pre-multiplied by the mean.
    gaps = (arr_rng.standard_exponential(block) / lam).tolist()
    svc = []
    svc_i = block
    uni = []
    uni_i = block
    prov = []
    prov_i = block

    # Container slots.  state: 0 free, 1 ready, 2 draining.  A slot's
    # index doubles as the container id for dispatch tie-breaks; birth
    # order decides which container a scale-down removes.  A provisioned
    # container takes the lowest free slot, or a new one at the end.
    state = [1] * init_replicas
    conc = [0] * init_replicas
    # Arrivals this second per ready slot (rps only); zeroed when a slot
    # stops being ready.
    arr_count = [0] * init_replicas
    birth = list(range(init_replicas))
    # Arrival times of each slot's in-flight jobs (processor sharing only).
    ps_times = [[] for _ in range(init_replicas)]
    # Ready slots in slot order; only provisioning events change it.
    ready = list(range(init_replicas))
    busy = 0
    birth_seq = init_replicas
    j_ready = init_replicas
    order = init_replicas

    # Pending completions (infinite server only): (time, slot, arrival
    # time).  The sentinel never fires, so heap[0] always exists.
    heap = [(_INF, -1, 0.0)]

    # Stable window of per-second samples of the aggregate metric over
    # ready containers (in-flight sum for cc, arrival count for rps).
    wbuf = [0] * window_len
    w_count = 0
    w_idx = 0
    w_sum = 0
    ov = 0.0

    tick_ready = []
    tick_ov = []
    tick_rt = []
    tick_carried = []

    arrivals = 0
    completions = 0
    rt_sum_pw = 0.0
    completions_pw = 0
    rt_sum_sec = 0.0
    n_sec = 0
    last_rt = wl_mean  # gap-fill seed until the first completion
    area_replica = 0.0
    j_since = 0.0

    t_arrival = gaps[0]
    arr_i = 1
    # Next departure: heap[0][0] under infinite server, the next
    # completion of the processor-sharing containers otherwise.
    t_dep = _INF
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
            if t_dep <= t_arrival:
                if t_dep > dep_stop:
                    break
                # --- departure ---
                t = t_dep
                if sharing:
                    # Pick the departing container uniformly among busy
                    # ones, then the finishing job uniformly within it:
                    # exponential demands make every busy container
                    # equally likely to produce the next departure
                    # regardless of its job count.
                    if uni_i + 2 > block:
                        uni = svc_rng.random(block).tolist()
                        uni_i = 0
                    pick = int(uni[uni_i] * busy)
                    idx_u = uni[uni_i + 1]
                    uni_i += 2
                    if pick >= busy:
                        pick = busy - 1
                    seen = 0
                    for slot, c in enumerate(conc):
                        if c > 0:
                            if seen == pick:
                                break
                            seen += 1
                    jobs = ps_times[slot]
                    idx = int(idx_u * c)
                    if idx >= c:
                        idx = c - 1
                    rt = t - jobs[idx]
                    jobs[idx] = jobs[-1]
                    jobs.pop()
                    conc[slot] = c - 1
                    if c == 1:
                        busy -= 1
                        if state[slot] == 2:
                            state[slot] = 0
                    if busy > 0:
                        if svc_i == block:
                            svc = (svc_rng.standard_exponential(block) * wl_mean).tolist()
                            svc_i = 0
                        t_dep = t + svc[svc_i] / busy
                        svc_i += 1
                    else:
                        t_dep = _INF
                else:
                    _, slot, t_in = pop(heap)
                    t_dep = heap[0][0]
                    rt = t - t_in
                    c = conc[slot] - 1
                    conc[slot] = c
                    if c == 0 and state[slot] == 2:
                        state[slot] = 0
                completions += 1
                rt_sum_sec += rt
                n_sec += 1
                if t > warmup:
                    rt_sum_pw += rt
                    completions_pw += 1
            else:
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
                arrivals += 1
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
                    if deterministic:
                        push(heap, (t + wl_mean, best, t))
                    else:
                        if svc_i == block:
                            svc = (svc_rng.standard_exponential(block) * wl_mean).tolist()
                            svc_i = 0
                        push(heap, (t + svc[svc_i], best, t))
                        svc_i += 1
                    t_dep = heap[0][0]
                if arr_i == block:
                    gaps = (arr_rng.standard_exponential(block) / lam).tolist()
                    arr_i = 0
                t_arrival = t + gaps[arr_i]
                arr_i += 1

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
            if n_sec > 0:
                last_rt = rt_sum_sec / n_sec
                tick_carried.append(0)
            else:
                tick_carried.append(1)
            tick_rt.append(last_rt)
            rt_sum_sec = 0.0
            n_sec = 0
            t_monitor += 1.0

        elif t_eval <= t_ctrl:
            # --- scale evaluator ---
            # Knative's KPA: the aggregate windowed metric over the
            # per-container target, clamped to [1, n_max].
            desired = int(math.ceil(ov / tv))
            if desired < 1:
                desired = 1
            if desired > n_max:
                desired = n_max
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
                if 0 in state:
                    # A free slot already holds no jobs and no arrivals.
                    slot = state.index(0)
                    state[slot] = 1
                    birth[slot] = birth_seq
                else:
                    slot = len(state)
                    state.append(1)
                    conc.append(0)
                    arr_count.append(0)
                    birth.append(birth_seq)
                    ps_times.append([])
                insort(ready, slot)
                birth_seq += 1
                j_ready += 1
            else:
                # Graceful scale-down of the newest ready container: it
                # finishes in-flight requests but gets no new ones.
                slot = ready[0]
                for k in ready:
                    if birth[k] > birth[slot]:
                        slot = k
                ready.remove(slot)
                arr_count[slot] = 0
                state[slot] = 2 if conc[slot] else 0
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

    # Close the replica-count integral at the horizon.
    if duration > warmup:
        lo = j_since if j_since > warmup else warmup
        if duration > lo:
            area_replica += j_ready * (duration - lo)

    return (tick_ready, tick_ov, tick_rt, tick_carried,
            area_replica, rt_sum_pw, completions_pw,
            arrivals, completions, sum(conc))
