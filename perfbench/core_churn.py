"""core-churn: an in-process ParallelScheduler under insert/delete churn.

p = 2 servers, the k-cursor substrate, delta = 0.5, Delta = 2^16.  Each
setup prefills 16 384 active jobs whose sizes are log-uniform over
[1, Delta], so every size class is populated; the churn is then 50/50
insert/delete with uniformly random victims.  Only ``kcursor`` and
``core`` do work here: the journal, wire and replica layers are absent,
so a change to them must read "no change" on this workload.

Counts (reallocations, cost ratio, k-cursor work) come from a fixed
window of ``COUNT_OPS`` ops right after the prefill, so they repeat
exactly for one seed; wall-time metrics come from the timed window.
"""

from __future__ import annotations

import gc
import math
import random
import time
from typing import Any

from repro.core.parallel import ParallelScheduler

from common import (
    CAL_EVERY_S,
    SETUP_REPEATS,
    CoreProbe,
    Window,
    check,
    cost_ratio,
    host_slowness,
    median,
    self_peak_rss_mb,
)

P = 2
DELTA = 0.5
MAX_SIZE = 2 ** 16
PREFILL = 16_384
COUNT_OPS = 32_768
WARMUP_OPS = 1_000
#: prefill windows (insert ordinals) timed for ``core.insert_us.*``
N1K = range(768, 1280)
N16K = range(PREFILL - 512, PREFILL)


class Churn:
    """The seeded op stream: prefill inserts, then 50/50 churn."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"core-churn:{seed}")
        self.active: list[int] = []
        self.next_name = 0
        self.log_max = math.log2(MAX_SIZE)

    def size(self) -> int:
        return min(MAX_SIZE, int(2 ** self.rng.uniform(0.0, self.log_max)))

    def insert(self) -> tuple[str, int, int]:
        name = self.next_name
        self.next_name += 1
        self.active.append(name)
        return "insert", name, self.size()

    def next(self) -> tuple[str, int, int]:
        if self.rng.random() < 0.5:
            return self.insert()
        i = self.rng.randrange(len(self.active))
        self.active[i], self.active[-1] = self.active[-1], self.active[i]
        return "delete", self.active.pop(), 0


def apply(sched: Any, op: tuple[str, int, int]) -> None:
    if op[0] == "insert":
        sched.insert(op[1], op[2])
    else:
        sched.delete(op[1])


def setup(seed: int) -> tuple[Any, Churn, dict[str, float]]:
    churn = Churn(seed)
    sched = ParallelScheduler(P, MAX_SIZE, delta=DELTA)
    n1k = n16k = 0.0
    for i in range(PREFILL):
        op = churn.insert()
        t0 = time.perf_counter()
        sched.insert(op[1], op[2])
        dt = time.perf_counter() - t0
        if i in N1K:
            n1k += dt
        elif i in N16K:
            n16k += dt
    return sched, churn, {
        "core.insert_us.n1k": n1k / len(N1K) * 1e6,
        "core.insert_us.n16k": n16k / len(N16K) * 1e6,
    }


def count_window(sched: Any, churn: Churn) -> dict[str, float]:
    """The fixed, seeded count window: hardware-independent per-op counts."""
    probe = CoreProbe()
    probe.attach(sched)
    for _ in range(COUNT_OPS):
        apply(sched, churn.next())
    probe.detach()
    probe.check_ledgers()
    m = probe.metrics()
    keep = (
        "kcursor.slots_moved_per_op", "kcursor.slots_scanned_per_op",
        "kcursor.rebalances_per_op", "core.migrations_per_op",
        "realloc_moved_per_op", "realloc_volume_per_op",
    )
    out = {k: m[k] for k in keep}
    out["cost_ratio"] = cost_ratio([sched])
    return out


def timed_window(sched: Any, churn: Churn, seconds: float, probe: CoreProbe | None) -> Window:
    win = Window()
    if probe is not None:
        probe.attach(sched)
    record = win.record
    clock = time.perf_counter
    win.start = clock()
    deadline = win.start + seconds
    next_cal = win.start
    busy = 0.0
    while True:
        op = churn.next()
        t0 = clock()
        apply(sched, op)
        t1 = clock()
        record("write", t0, t1)
        busy += t1 - t0
        if t1 >= deadline:
            break
        if t1 >= next_cal:
            win.calibrate()
            next_cal += CAL_EVERY_S
    win.seconds = clock() - win.start
    win.attempted = len(win.samples["write"])
    if probe is not None:
        probe.detach()
        probe.core_busy = busy
    return win


def run(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    setup_times = []
    raw_setup_times = []
    sched = churn = None
    # A traced run reports no setup_s, so it sets up once.
    for _ in range(1 if trace else SETUP_REPEATS):
        sched = churn = None
        gc.collect()
        before = host_slowness()
        t0 = time.perf_counter()
        sched, churn, prefill = setup(seed)
        raw_setup_times.append(time.perf_counter() - t0)
        setup_times.append(raw_setup_times[-1] / median([before, host_slowness()]))
    assert sched is not None and churn is not None
    counts = count_window(sched, churn)
    for _ in range(WARMUP_OPS):
        apply(sched, churn.next())
    # Read after a fixed number of churn ops (the count window and the
    # warm-up, the same traffic as the timed window): it covers what
    # churn allocates, but not the timed window, whose op count -- and with
    # it the ledger's per-op reports -- grows with throughput.
    peak_rss_mb = self_peak_rss_mb()

    metrics: dict[str, float] = {"setup_s": median(setup_times)}
    if trace:
        plain = timed_window(sched, churn, seconds / 2, None)
        probe = CoreProbe()
        win = timed_window(sched, churn, seconds / 2, probe)
        probe.check_ledgers()
        layer = probe.metrics()
        metrics.update({k: layer[k] for k in (
            "kcursor.busy_us_per_op", "core.busy_us_per_op", "core.self_us_per_op")})
        metrics["tracing.throughput_delta_ops_s"] = win.throughput() - plain.throughput()
        metrics.update(prefill)
        metrics.update(counts)
    else:
        win = timed_window(sched, churn, seconds, None)
        metrics.update(counts)

    sched.check_schedule()
    sched.check_invariant5()
    check(len(sched) == len(churn.active), "scheduler and op stream disagree on active jobs")

    metrics.update(win.latency_metrics())
    metrics["throughput_ops_s"] = win.throughput()
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["error_rate"] = 0.0
    return {
        "window": win,
        "metrics": metrics,
        "env": {
            "connections": 0,
            "threads": 1,
            "flush_policy": "none (in-process)",
            "warmup_ops": WARMUP_OPS + COUNT_OPS,
            "count_ops": COUNT_OPS,
            "prefill_jobs": PREFILL,
            "raw": {**win.raw_metrics(), "setup_s": round(median(raw_setup_times), 6)},
        },
    }
