"""cluster-quorum: a replicated two-shard cluster behind one cluster client.

``ShardGroup(shards=2, replicas=1, ack_mode="quorum", fsync="interval")``
driven through one pipelined ``AsyncClusterClient``, which holds one
connection per primary shard.  One closed-loop worker drives eight
sessions, four on each shard (Delta = 1024, about 200 active jobs, 50/50
insert/delete, so session sizes and with them the per-op costs do not
drift with the number of ops a run completes).  One op is in flight at a
time: with two, five processes contended for two vCPUs and the figures
followed the host's scheduling more than the program.  Every acked write
has been shipped to and made durable on its shard's replica, so this is
the one workload that exercises ``service.replica`` shipping, quorum waits
and ``cluster.client`` routing.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Optional

from repro.cluster.client import AsyncClusterClient, ClusterClient
from repro.cluster.group import ShardGroup
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.client import RetryPolicy, ServiceClient

from common import CoreProbe, SessionLog, check, child_stdout, parse_metrics_dump, verify_sessions
from load import Mix, Plan, Target, run_target

WORKERS = 1
SESSIONS_PER_SHARD = 4
MIX = Mix(max_size=1024, prefill=200, cap=256, insert_p=0.5)


class TracedGroup(ShardGroup):
    """A ``ShardGroup`` whose every shard process writes its own ``--trace`` file."""

    def _spawn(self, name: str, port: int, **kw: Any) -> Any:
        self.extra_args = ("--metrics", "--trace", os.path.join(self.root, f"{name}.trace.jsonl"))
        return super()._spawn(name, port, **kw)


def _sync_client(spec: Any) -> ServiceClient:
    return ServiceClient(spec.host, spec.port, timeout=30.0)


class Cluster(Target):
    """Two primaries with one replica each, one shared cluster client."""

    client_span = "cluster.call"

    def __init__(self, workdir: str, seed: int, trace: bool) -> None:
        super().__init__(workdir, seed, trace)
        self.group: Optional[ShardGroup] = None
        self.out_path = os.path.join(workdir, "shards.out")
        self.registry = MetricsRegistry()

    def spawn(self) -> None:
        cls = TracedGroup if self.trace else ShardGroup
        self.group = cls(self.dir, shards=2, replicas=1, ack_mode="quorum", fsync="interval",
                         extra_args=("--metrics",))
        with child_stdout(self.out_path):
            self.specs = self.group.start()
        self.primaries = [s for s in self.specs if s.of is None]
        self.replicas = [s for s in self.specs if s.of is not None]

    def endpoints(self) -> list[tuple[str, int]]:
        return [(s.host, s.port) for s in self.specs]

    def stats_endpoints(self) -> list[tuple[str, int]]:
        return [(s.host, s.port) for s in self.primaries]

    def pids(self) -> list[int]:
        assert self.group is not None
        pids = [self.group.pid(s.name) for s in self.specs]
        return [p for p in pids if p is not None]

    async def connect(self, tracer: Optional[Tracer]) -> list[Any]:
        client = AsyncClusterClient(
            self.specs, retry=RetryPolicy(attempts=6, base=0.01, max_delay=0.5),
            registry=self.registry, tracer=tracer,
        )
        return [client] * WORKERS

    def plans(self) -> list[Plan]:
        """Four sessions per primary shard, shared out over the workers."""
        placement = self.clients[0].placement
        by_shard: dict[str, list[str]] = {s.name: [] for s in self.primaries}
        i = 0
        while min(len(v) for v in by_shard.values()) < SESSIONS_PER_SHARD:
            sid = f"c{i:03d}"
            owned = by_shard[placement.owner(sid)]
            if len(owned) < SESSIONS_PER_SHARD:
                owned.append(sid)
            i += 1
        plans = []
        for w in range(WORKERS):
            logs = [
                SessionLog(sid=sid, config={"max_size": MIX.max_size})
                for shard in sorted(by_shard) for sid in by_shard[shard][w::WORKERS]
            ]
            plans.append(Plan(random.Random(f"cluster-quorum:{self.seed}:{w}"), logs, MIX))
        return plans

    def layer_begin(self) -> None:
        self.hops0 = self.registry.value("cluster.ops")
        self.redirects0 = self.clients[0].redirects

    def layer_end(self, ops: int) -> dict[str, float]:
        return {
            "replica.lag_records": float(self.lag()),
            "cluster.hops_per_op": (self.registry.value("cluster.ops") - self.hops0) / max(ops, 1),
            "cluster.redirects_per_op": (self.clients[0].redirects - self.redirects0) / max(ops, 1),
        }

    def lag(self) -> int:
        """Journal records the primaries hold durably that their replicas do not."""
        totals = {
            spec.name: r["total"] for spec, r in zip(self.specs, self.each("repl_status", self.endpoints()))
        }
        return sum(totals[r.of] - totals[r.name] for r in self.replicas)

    def verify(self) -> tuple[CoreProbe, dict[str, Any]]:
        """Replicas catch up to their primary's durable LSNs and hold the
        same schedules; the primaries' schedules equal the reference."""
        deadline = time.perf_counter() + 30.0
        while self.lag() and time.perf_counter() < deadline:
            time.sleep(0.05)
        by_name = {s.name: s for s in self.primaries}
        for rspec in self.replicas:
            pspec = by_name[rspec.of]
            with _sync_client(pspec) as pc, _sync_client(rspec) as rc:
                plsn, rlsn = pc.repl_status()["sessions"], rc.repl_status()["sessions"]
                check(plsn == rlsn, f"{rspec.name} durable LSNs {rlsn} differ from {pspec.name}'s {plsn}")
                for sid in plsn:
                    check(pc.query(sid, jobs=True)["jobs"] == rc.query(sid, jobs=True)["jobs"],
                          f"session {sid}: {rspec.name} schedule differs from {pspec.name}'s")
        with ClusterClient(self.specs) as c:
            return verify_sessions(self.logs, c)

    def stop(self) -> dict[str, float]:
        assert self.group is not None
        self.group.stop()
        return parse_metrics_dump(self.out_path)

    def kill(self) -> None:
        if self.group is not None:
            for spec in self.group.all_specs():
                self.group.kill(spec.name)

    def trace_paths(self) -> list[str]:
        return [os.path.join(self.dir, f"{s.name}.trace.jsonl") for s in self.specs]

    def env(self) -> dict[str, Any]:
        return {
            "connections": len(self.primaries),
            "workers": WORKERS,
            "flush_policy": "fsync=interval, ack_mode=quorum, replicas=1",
            "sessions": SESSIONS_PER_SHARD * len(self.primaries),
        }


def run(seed: int, seconds: float, trace: bool, workdir: str) -> dict[str, Any]:
    return run_target(lambda d, traced: Cluster(d, seed, traced), seconds, trace, workdir)
