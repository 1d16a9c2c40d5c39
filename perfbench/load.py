"""Closed-loop load for the server workloads, and one server lifetime.

Each worker owns a disjoint set of sessions and waits for every reply
before it issues its next op, as the scheduler's callers do: they need
the placement before they act on it.  Because a session is driven by one
worker only, its acked ops have one well-defined order, which the
reference replay relies on.

:class:`Target` is what a server workload runs against (serve.py: one
``repro serve``; cluster.py: a replicated shard group); :func:`run_target`
does everything the two share: set-ups, warm-up, the measured window,
the untraced and traced halves of a traced run, checks and metrics.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.obs.trace import Tracer
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError, SessionConfig
from repro.service.sessions import build_scheduler, take_snapshot

from common import (
    CAL_EVERY_S,
    SETUP_REPEATS,
    CoreProbe,
    SessionLog,
    Window,
    host_slowness,
    median,
    proc_peak_rss_mb,
    proc_write_bytes,
    server_layer_metrics,
    service_metrics,
)

#: Window sample kind of each client op.
KIND = {"insert": "write", "delete": "write", "query": "read", "snapshot": "snapshot"}


@dataclass(frozen=True)
class Mix:
    """Per-session op mix of one workload."""

    max_size: int
    prefill: int
    cap: int
    #: share of inserts among mutations
    insert_p: float
    #: share of ``query`` reads among all ops
    read_p: float = 0.0
    #: a ``snapshot`` after this many ops on a session (0: never)
    snapshot_every: int = 0
    #: sessions per worker that get ``hot_p`` of its ops (0: uniform)
    hot: int = 0
    hot_p: float = 0.0
    #: prefill in-process and hand each session over with ``migrate_in``
    #: instead of inserting every prefill job over the wire
    adopt: bool = False


class Plan:
    """The seeded op stream of one worker over its own sessions."""

    def __init__(self, rng: random.Random, logs: list[SessionLog], mix: Mix) -> None:
        self.rng = rng
        self.logs = logs
        self.mix = mix
        self.log_max = math.log2(mix.max_size)
        self._since_snapshot = {log.sid: 0 for log in logs}

    def size(self) -> int:
        return min(self.mix.max_size, int(2 ** self.rng.uniform(0.0, self.log_max)))

    def session(self) -> SessionLog:
        mix, rng = self.mix, self.rng
        if mix.hot and rng.random() < mix.hot_p:
            return self.logs[rng.randrange(mix.hot)]
        if mix.hot:
            return self.logs[mix.hot + rng.randrange(len(self.logs) - mix.hot)]
        return self.logs[rng.randrange(len(self.logs))]

    def next_op(self) -> tuple[str, SessionLog, Optional[str], int]:
        mix, rng = self.mix, self.rng
        log = self.session()
        if mix.snapshot_every:
            n = self._since_snapshot[log.sid] + 1
            if n > mix.snapshot_every:
                self._since_snapshot[log.sid] = 0
                return "snapshot", log, None, 0
            self._since_snapshot[log.sid] = n
        if mix.read_p and rng.random() < mix.read_p and log.active:
            return "query", log, log.active[rng.randrange(len(log.active))], 0
        n_active = len(log.active)
        if n_active == 0 or (n_active < mix.cap and rng.random() < mix.insert_p):
            return "insert", log, log.new_name(), self.size()
        i = rng.randrange(n_active)
        log.active[i], log.active[-1] = log.active[-1], log.active[i]
        return "delete", log, log.active.pop(), 0


async def call(client: Any, kind: str, log: SessionLog, name: Optional[str], size: int) -> None:
    if kind == "insert":
        await client.insert(log.sid, name, size)
    elif kind == "delete":
        await client.delete(log.sid, name)
    elif kind == "query":
        await client.query(log.sid, name)
    else:
        await client.snapshot(log.sid)


def acked(kind: str, log: SessionLog, name: Optional[str], size: int) -> None:
    if kind == "insert":
        assert name is not None
        log.ops.append(("insert", name, size))
        log.active.append(name)
    elif kind == "delete":
        assert name is not None
        log.ops.append(("delete", name, 0))


async def prefill(client: Any, plan: Plan) -> None:
    """Create the worker's sessions holding ``mix.prefill`` jobs each."""
    for log in plan.logs:
        if plan.mix.adopt:
            sched = build_scheduler(SessionConfig.from_mapping(log.config))
            for _ in range(plan.mix.prefill):
                name, size = log.new_name(), plan.size()
                sched.insert(name, size)
                acked("insert", log, name, size)
            await client.call("migrate_in", session=log.sid, snapshot=take_snapshot(sched), config=log.config)
            continue
        await client.open(log.sid, log.config)
        for _ in range(plan.mix.prefill):
            name, size = log.new_name(), plan.size()
            await client.insert(log.sid, name, size)
            acked("insert", log, name, size)


async def run_ops(
    client: Any,
    plan: Plan,
    win: Optional[Window],
    *,
    count: Optional[int] = None,
    deadline: Optional[float] = None,
) -> None:
    """Closed loop until ``count`` ops are done or ``deadline`` passes."""
    clock = time.perf_counter
    done = 0
    while (count is None or done < count) and (deadline is None or clock() < deadline):
        kind, log, name, size = plan.next_op()
        t0 = clock()
        try:
            await call(client, kind, log, name, size)
        except ServiceError:
            if win is None:
                raise
            win.attempted += 1
            win.failed += 1
            continue
        t1 = clock()
        acked(kind, log, name, size)
        done += 1
        if win is not None:
            win.attempted += 1
            win.record(KIND[kind], t0, t1)
            if win.attempted >= RSS_AFTER_OPS and win.at_rss_ops is not None:
                win.at_rss_ops()
                win.at_rss_ops = None


async def calibrate(win: Window, deadline: float) -> None:
    """Run the window's calibration every ``CAL_EVERY_S`` until ``deadline``.

    It runs on the event loop, so it holds up the replies due meanwhile;
    the window leaves those ops out."""
    while time.perf_counter() < deadline:
        win.calibrate()
        await asyncio.sleep(CAL_EVERY_S)


# ---------------------------------------------------------------------------
# One server lifetime


#: Window ops after which the servers' peak RSS is read: late enough to
#: cover served traffic (evictions, rehydrations, replica shipping), and
#: a fixed count, so the figure does not grow with throughput (every
#: scheduler ledger keeps a report per op).
RSS_AFTER_OPS = 2000


class Target:
    """The server processes of one lifetime of a server workload.

    Subclasses say how the processes are spawned, reached, checked and
    stopped; :func:`run_target` drives them.  A lifetime's outcome (set-up
    time, window, acked-op logs, ``stats`` at the window's ends, disk
    bytes, peak RSS, extra layer metrics) is kept on the object.
    """

    #: the client span :func:`server_layer_metrics` joins to server spans
    client_span = "client.call"
    #: warm-up ops per worker, excluded from timing
    warmup_ops = 200

    def __init__(self, workdir: str, seed: int, trace: bool) -> None:
        self.dir = workdir
        self.seed = seed
        self.trace = trace
        self.clients: list[Any] = []
        self.t_spawn = 0.0
        #: host slowness just before the spawn; set-up time is scaled by
        #: the median of it and the slowness right after the prefill
        self.slowness0 = 1.0
        self.setup_raw_s = 0.0
        self.setup_s = 0.0
        self.window = Window()
        self.logs: list[SessionLog] = []
        self.stats0: list[dict[str, Any]] = []
        self.stats1: list[dict[str, Any]] = []
        self.disk_bytes = 0
        self.peak_rss_mb = 0.0
        self.peak_rss_ops = 0
        self.layer: dict[str, float] = {}

    # -- supplied by subclasses ------------------------------------------

    def spawn(self) -> None:
        raise NotImplementedError

    def endpoints(self) -> list[tuple[str, int]]:
        """(host, port) of every server process."""
        raise NotImplementedError

    def stats_endpoints(self) -> list[tuple[str, int]]:
        """The processes whose ``stats`` count the clients' ops."""
        return self.endpoints()

    def pids(self) -> list[int]:
        raise NotImplementedError

    async def connect(self, tracer: Optional[Tracer]) -> list[Any]:
        """One async client per worker (workers may share one)."""
        raise NotImplementedError

    def plans(self) -> list[Plan]:
        """One seeded op stream per worker, over its own sessions."""
        raise NotImplementedError

    def layer_begin(self) -> None:
        """Called when the window starts."""

    def layer_end(self, ops: int) -> dict[str, float]:
        """Extra per-layer metrics, called when the window ends."""
        return {}

    def verify(self) -> tuple[CoreProbe, dict[str, Any]]:
        """Correctness checks after the window; returns the reference replay."""
        raise NotImplementedError

    def stop(self) -> dict[str, float]:
        """Graceful stop; returns the summed ``--metrics`` exit counters."""
        raise NotImplementedError

    def kill(self) -> None:
        raise NotImplementedError

    def trace_paths(self) -> list[str]:
        raise NotImplementedError

    def env(self) -> dict[str, Any]:
        raise NotImplementedError

    # -- shared ----------------------------------------------------------

    @property
    def client_trace(self) -> str:
        return os.path.join(self.dir, "client.trace.jsonl")

    def each(self, op: str, endpoints: list[tuple[str, int]]) -> list[dict[str, Any]]:
        out = []
        for host, port in endpoints:
            with ServiceClient(host, port, timeout=30.0) as c:
                out.append(c.call(op))
        return out

    def retries(self) -> int:
        return sum(c.retries for c in {id(c): c for c in self.clients}.values())

    def read_peak_rss(self) -> None:
        self.peak_rss_mb = sum(proc_peak_rss_mb(p) for p in self.pids())
        self.peak_rss_ops = self.window.attempted

    async def drive(self, seconds: Optional[float], tracer: Optional[Tracer]) -> None:
        """Prefill (the end of set-up), then warm up and measure one window
        of ``seconds`` unless it is None."""
        self.clients = await self.connect(tracer)
        try:
            plans = self.plans()
            await asyncio.gather(*(prefill(c, p) for c, p in zip(self.clients, plans)))
            self.setup_raw_s = time.perf_counter() - self.t_spawn
            self.setup_s = self.setup_raw_s / median([self.slowness0, host_slowness()])
            if seconds is None:
                return
            await asyncio.gather(*(
                run_ops(c, p, None, count=self.warmup_ops) for c, p in zip(self.clients, plans)
            ))
            self.logs = [log for p in plans for log in p.logs]
            for log in self.logs:
                log.window_start = len(log.ops)
            self.each("health", self.endpoints())
            self.stats0 = self.each("stats", self.stats_endpoints())
            bytes0 = sum(proc_write_bytes(p) for p in self.pids())
            retries0 = self.retries()
            self.layer_begin()
            win = self.window
            win.at_rss_ops = self.read_peak_rss
            win.start = time.perf_counter()
            deadline = win.start + seconds
            await asyncio.gather(calibrate(win, deadline), *(
                run_ops(c, p, win, deadline=deadline) for c, p in zip(self.clients, plans)
            ))
            win.seconds = time.perf_counter() - win.start
            if win.at_rss_ops is not None:  # fewer than RSS_AFTER_OPS ops
                self.read_peak_rss()
            win.retries = self.retries() - retries0
            self.layer = self.layer_end(win.completed)
            self.disk_bytes = sum(proc_write_bytes(p) for p in self.pids()) - bytes0
            self.stats1 = self.each("stats", self.stats_endpoints())
            self.each("health", self.endpoints())
        finally:
            for c in {id(c): c for c in self.clients}.values():
                await c.close()


def run_target(make: Callable[[str, bool], Target], seconds: float, trace: bool, workdir: str) -> dict[str, Any]:
    """Run one server workload: ``make(dir, traced)`` builds a lifetime.

    Untraced: ``SETUP_REPEATS - 1`` spare set-ups, then one set-up and a
    window of ``seconds``.  Traced: half of ``seconds`` untraced and half
    traced, each on a fresh set-up (the difference is the tracing
    overhead).  Every measured lifetime passes its correctness checks.
    """
    targets: list[Target] = []

    def lifetime(name: str, window_s: Optional[float], traced: bool) -> Target:
        t = make(os.path.join(workdir, name), traced)
        targets.append(t)
        os.makedirs(t.dir, exist_ok=True)
        tracer = Tracer(t.client_trace, label="perfbench") if traced else None
        try:
            t.slowness0 = host_slowness()
            t.t_spawn = time.perf_counter()
            t.spawn()
            asyncio.run(t.drive(window_s, tracer))
        finally:
            if tracer is not None:
                tracer.close()
        return t

    try:
        setup_times = []
        raw_setup_times = []
        if trace:
            plain = lifetime("plain", seconds / 2, False)
            plain.verify()
            plain.stop()
            cur = lifetime("traced", seconds / 2, True)
        else:
            for i in range(SETUP_REPEATS - 1):
                spare = lifetime(f"setup{i}", None, False)
                setup_times.append(spare.setup_s)
                raw_setup_times.append(spare.setup_raw_s)
                spare.kill()
            cur = lifetime("run", seconds, False)
        setup_times.append(cur.setup_s)
        raw_setup_times.append(cur.setup_raw_s)

        win = cur.window
        probe, refs = cur.verify()
        metrics = service_metrics(
            win, cur.stats0, cur.stats1, cur.disk_bytes, cur.stop(), cur.peak_rss_mb, probe, refs.values(),
        )
        metrics.update(cur.layer)
        metrics["setup_s"] = median(setup_times)
        env = {
            **cur.env(),
            "warmup_ops": cur.warmup_ops * len(cur.clients),
            "peak_rss_after_ops": cur.peak_rss_ops,
            "samples": win.sample_counts(),
            "evictions": round(metrics["sessions.evictions_per_op"] * win.completed),
            "raw": {**win.raw_metrics(), "setup_s": round(median(raw_setup_times), 6)},
        }
        if trace:
            layer, env["hit_miss"] = server_layer_metrics(
                cur.trace_paths(), cur.client_trace, cur.client_span, win.completed,
            )
            metrics.update(layer)
            metrics["tracing.throughput_delta_ops_s"] = win.throughput() - plain.window.throughput()
        return {"window": win, "metrics": metrics, "env": env}
    finally:
        for t in targets:
            t.kill()
