"""serve-durable-write and serve-evict-mixed: one ``repro serve`` process.

Both drive the server over one connection from one process, closed loop:
one op in flight at a time.  With two in flight on the 2-vCPU host the
figures followed how the host scheduled the client and the server more
than the program, and their spread between runs exceeded every bound.

* ``serve-durable-write`` (``--fsync interval``): two sessions, Delta =
  64, at most 256 active jobs, a 60/40 insert/delete mix and a
  ``snapshot`` every 256 ops of a session, so checkpoints cycle beside
  appends.  The journal and the wire dominate; the core is cheap;
  no session is ever evicted and nothing is replicated.  ``--fsync
  always`` would put the disk's fsync latency in every write, and on a
  virtual disk its tail moved ``write_p99_ms`` by over a third between
  runs of one seed: more than any bound allows.
* ``serve-evict-mixed`` (``--fsync interval``, ``--max-live 8``): 64
  sessions of about 200 jobs (Delta = 1024), half ``query`` reads and half
  insert/delete.  90% of the ops go to 6 hot sessions and the rest
  uniformly to the 58 cold ones.  The hot sessions fit the
  ``max_live`` cache, the whole working set does not: cheap live hits and
  costly evict-and-rehydrate misses both occur, on reads and on writes.
  Its 12 800 prefill jobs are built in-process and handed to the server
  with ``migrate_in``; inserting them over the wire would take longer
  than the measured window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.trace import Tracer
from repro.service.client import AsyncServiceClient, RetryPolicy

from common import CoreProbe, ServerProc, SessionLog, verify_sessions
from load import Mix, Plan, Target, run_target

CONNECTIONS = 1


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    fsync: str
    max_live: int
    sessions: int
    mix: Mix
    warmup_ops: int


WORKLOADS = {
    "serve-durable-write": ServeWorkload(
        name="serve-durable-write",
        fsync="interval",
        max_live=64,
        sessions=2,
        mix=Mix(max_size=64, prefill=192, cap=256, insert_p=0.6, snapshot_every=256),
        warmup_ops=200,
    ),
    "serve-evict-mixed": ServeWorkload(
        name="serve-evict-mixed",
        fsync="interval",
        max_live=8,
        sessions=64,
        mix=Mix(max_size=1024, prefill=200, cap=256, insert_p=0.5, read_p=0.5, hot=6, hot_p=0.9, adopt=True),
        warmup_ops=200,
    ),
}


class Server(Target):
    """One ``repro serve`` process, one async client per connection."""

    def __init__(self, wl: ServeWorkload, workdir: str, seed: int, trace: bool) -> None:
        super().__init__(workdir, seed, trace)
        self.wl = wl
        self.warmup_ops = wl.warmup_ops
        self.srv: Optional[ServerProc] = None

    @property
    def server(self) -> ServerProc:
        assert self.srv is not None
        return self.srv

    def spawn(self) -> None:
        args = ["--fsync", self.wl.fsync, "--max-live", str(self.wl.max_live)]
        self.srv = ServerProc(self.dir, args, trace=self.trace)

    def endpoints(self) -> list[tuple[str, int]]:
        return [("127.0.0.1", self.server.port)]

    def pids(self) -> list[int]:
        return [self.server.pid]

    async def connect(self, tracer: Optional[Tracer]) -> list[Any]:
        retry = RetryPolicy(attempts=6, base=0.01, max_delay=0.5)
        return [
            await AsyncServiceClient(port=self.server.port, retry=retry, tracer=tracer).connect()
            for _ in range(CONNECTIONS)
        ]

    def plans(self) -> list[Plan]:
        wl, plans = self.wl, []
        for w in range(CONNECTIONS):
            logs = [
                SessionLog(sid=f"s{i:02d}", config={"max_size": wl.mix.max_size})
                for i in range(w, wl.sessions, CONNECTIONS)
            ]
            plans.append(Plan(random.Random(f"{wl.name}:{self.seed}:{w}"), logs, wl.mix))
        return plans

    def verify(self) -> tuple[CoreProbe, dict[str, Any]]:
        with self.server.client() as c:
            return verify_sessions(self.logs, c)

    def stop(self) -> dict[str, float]:
        self.server.shutdown()
        return self.server.exit_counters()

    def kill(self) -> None:
        if self.srv is not None:
            self.srv.kill()

    def trace_paths(self) -> list[str]:
        assert self.server.trace_path is not None
        return [self.server.trace_path]

    def env(self) -> dict[str, Any]:
        return {
            "connections": CONNECTIONS,
            "flush_policy": f"fsync={self.wl.fsync}",
            "max_live": self.wl.max_live,
            "sessions": self.wl.sessions,
        }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict[str, Any]:
    wl = WORKLOADS[workload]
    return run_target(lambda d, traced: Server(wl, d, seed, traced), seconds, trace, workdir)
