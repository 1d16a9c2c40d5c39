"""Shared harness for the perfbench workloads.

Everything here measures the program from outside, through the entry
points a user has: scheduler ``insert``/``delete``, ``repro.obs.attach``
observers, the server's ``stats``/``repl_status``/``health`` ops, its
``--trace`` span file and ``--metrics`` exit dump, ``/proc`` accounting of
the server processes, and client-side timing.  No program code changes.
"""

from __future__ import annotations

import bisect
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional

import repro
from repro.analysis.opt import opt_sum_completion
from repro.obs.instrument import KCursorObserver, attach
from repro.obs.metrics import MetricsRegistry, percentile
from repro.obs.trace import read_trace
from repro.service.client import ServiceClient
from repro.service.introspect import Span, collect_spans
from repro.service.protocol import SessionConfig
from repro.service.sessions import build_scheduler

#: The directory holding the ``repro`` package the benchmark imported;
#: server subprocesses get it on their ``PYTHONPATH``.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Setups per run; ``setup_s`` is their median, the last one is measured.
SETUP_REPEATS = 3

#: Client ops every server workload may issue (the ones timed).
CLIENT_OPS = frozenset({"insert", "delete", "query", "snapshot"})


class CheckFailed(Exception):
    """A correctness check failed: the run reports ``correct: false``."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Latency samples and per-run bookkeeping


#: Iterations of :func:`calibration_loop`, about 2 ms of pure Python.
CAL_ITERATIONS = 25_000
#: Seconds :func:`calibration_loop` takes on the reference host.  Timings
#: are scaled to it: they read as if measured on a host where the loop
#: takes this long (a 2-vCPU x86-64 VM, CPython 3.11, at its faster pace).
CAL_REF_S = 0.002
#: Seconds between calibrations in a timed window.
CAL_EVERY_S = 0.25
#: A one-second slice counts only if the hypervisor took at most this
#: many seconds of it from the benchmark's vCPU (see :class:`Window`).
STEAL_MAX_S = 0.01


def calibration_loop() -> float:
    """Time a fixed loop of Python integer arithmetic: how fast the host
    runs the interpreter right now.  Of the loops tried (this one, dict
    updates, object allocation and sorting), its pace followed the
    scheduler's own most closely as the host's changed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def vcpu_steal_s() -> float:
    """Seconds so far that the hypervisor ran other guests instead of the
    vCPU this process is pinned to (its ``steal`` in ``/proc/stat``)."""
    name = f"cpu{min(os.sched_getaffinity(0))}"
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] == name:
                return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    raise RuntimeError(f"no {name} line in /proc/stat")


def host_slowness(repeats: int = 11) -> float:
    """Median calibration time over :data:`CAL_REF_S`: 1 on the
    reference host, 1.3 on one running 30% slower."""
    return median(calibration_loop() for _ in range(repeats)) / CAL_REF_S


@dataclass
class Window:
    """Client-observed outcomes of one timed window.

    The host this runs on is shared: its pace changes by a third for
    seconds to minutes at a time.  So a window runs
    :func:`calibration_loop` every :data:`CAL_EVERY_S` and scales each
    one-second slice's timings by that slice's median calibration.  Ops in
    flight while the loop ran are left out: it held up their replies.
    At times the hypervisor also stops the vCPU outright for milliseconds
    (steal), which stalls the ops in flight and the loop rarely sees; so
    only slices it stole at most :data:`STEAL_MAX_S` from count, and at
    least the least-stolen half of them.  ``raw=True`` gives the timings
    of every slice, unscaled.
    """

    start: float = 0.0
    seconds: float = 0.0
    #: kind ("write", "read", "snapshot") -> [(completion time in window, latency)]
    samples: dict[str, list[tuple[float, float]]] = field(
        default_factory=lambda: {"write": [], "read": [], "snapshot": []}
    )
    #: (start, end) of each calibration, in window time
    cals: list[tuple[float, float]] = field(default_factory=list)
    #: (window time, :func:`vcpu_steal_s`) at the start of each calibration
    steals: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    retries: int = 0
    #: called once when ``attempted`` first reaches ``load.RSS_AFTER_OPS``
    at_rss_ops: Optional[Callable[[], None]] = None

    def record(self, kind: str, t0: float, t1: float) -> None:
        self.samples[kind].append((t1 - self.start, t1 - t0))

    def calibrate(self) -> None:
        t0 = time.perf_counter() - self.start
        self.steals.append((t0, vcpu_steal_s()))
        self.cals.append((t0, t0 + calibration_loop()))

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def latencies(self, kind: str) -> list[float]:
        return [lat for _, lat in self.samples[kind]]

    def _kept(self, kinds: Iterable[str]) -> Iterator[tuple[float, float]]:
        """(completion time, latency) of the ops of ``kinds`` that no
        calibration held up."""
        ends = [end for _, end in self.cals]
        for kind in kinds:
            for t, lat in self.samples[kind]:
                i = bisect.bisect_right(ends, t - lat)
                if i == len(ends) or self.cals[i][0] >= t:
                    yield t, lat

    def _slice(self, t: float, n: int) -> int:
        return min(n - 1, int(t / self.seconds * n))

    def _slices(self, n: int, kinds: Iterable[str]) -> list[list[float]]:
        out: list[list[float]] = [[] for _ in range(n)]
        for t, lat in self._kept(kinds):
            out[self._slice(t, n)].append(lat)
        return out

    def _slowness(self, n: int) -> list[float]:
        """Per slice: its median calibration time over :data:`CAL_REF_S`
        (the window's median for a slice that ran none)."""
        per: list[list[float]] = [[] for _ in range(n)]
        for a, b in self.cals:
            per[self._slice(a, n)].append(b - a)
        every = [b - a for a, b in self.cals]
        whole = median(every) / CAL_REF_S if every else 1.0
        return [median(c) / CAL_REF_S if c else whole for c in per]

    def _counted(self, n: int, raw: bool) -> list[bool]:
        """Which of the ``n`` slices count (all of them if ``raw``)."""
        if raw:
            return [True] * n
        stolen = [0.0] * n
        for (_, a), (t, b) in zip(self.steals, self.steals[1:]):
            stolen[self._slice(t, n)] += b - a
        least = sorted(range(n), key=lambda i: stolen[i])[: (n + 1) // 2]
        return [stolen[i] <= STEAL_MAX_S or i in least for i in range(n)]

    def _cal_time(self, n: int) -> list[float]:
        per = [0.0] * n
        for a, b in self.cals:
            per[self._slice(a, n)] += b - a
        return per

    def throughput(self, raw: bool = False) -> float:
        """Ops per second of the time not spent calibrating: the median
        over one-second slices."""
        n = max(1, int(self.seconds))
        slow = [1.0] * n if raw else self._slowness(n)
        return median(
            len(s) / (self.seconds / n - c) * k
            for s, c, k, counted in zip(
                self._slices(n, self.samples), self._cal_time(n), slow, self._counted(n, raw)
            )
            if counted
        )

    def latency_metrics(self, raw: bool = False) -> dict[str, float]:
        """p50: the median over one-second slices of each slice's p50.
        p99: over all the counted slices' ops, each scaled by its own slice
        (in a 12-s window of any workload that is 1 500 or more, so 15 or
        more lie beyond it)."""
        n = max(1, int(self.seconds))
        slow = [1.0] * n if raw else self._slowness(n)
        counted = self._counted(n, raw)
        out = {}
        for kind in ("write", "read"):
            p50s = [
                percentile(sorted(s), 0.50) / k
                for s, k, c in zip(self._slices(n, [kind]), slow, counted) if s and c
            ]
            scaled = sorted(
                lat / slow[i] for t, lat in self._kept([kind]) if counted[i := self._slice(t, n)]
            )
            out[f"{kind}_p50_ms"] = median(p50s) * 1e3 if p50s else 0.0
            out[f"{kind}_p99_ms"] = percentile(scaled, 0.99) * 1e3 if scaled else 0.0
        return out

    def raw_metrics(self) -> dict[str, float]:
        """Unscaled throughput and write latencies, and the host's median
        slowness over the window, for the ``env`` line."""
        lat = self.latency_metrics(raw=True)
        return {
            "throughput_ops_s": round(self.throughput(raw=True), 3),
            "write_p50_ms": round(lat["write_p50_ms"], 6),
            "write_p99_ms": round(lat["write_p99_ms"], 6),
            "host_slowness": round(self._slowness(1)[0], 4),
            "slices_counted": sum(self._counted(max(1, int(self.seconds)), False)),
        }

    def sample_counts(self) -> dict[str, int]:
        return {kind: len(v) for kind, v in self.samples.items()}


def median(values: Iterable[float]) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of nothing")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_write_bytes(pid: int) -> int:
    """Bytes the process caused to be written to storage (``/proc/PID/io``)."""
    with open(f"/proc/{pid}/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    raise RuntimeError(f"no write_bytes for pid {pid}")


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the machine so far, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def environment(seed: int, **extra: Any) -> dict[str, Any]:
    """What a result must carry so gates compare like with like."""
    return {
        "machine": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        **extra,
    }


# ---------------------------------------------------------------------------
# In-process scheduler measurement (kcursor + core layers)


class TimedKCursorObserver(KCursorObserver):
    """``KCursorObserver`` that also sums the wall time between its
    ``before_op``/``after_op`` hooks: the k-cursor table's busy time."""

    __slots__ = ("busy", "_t")

    def __init__(self, registry: MetricsRegistry) -> None:
        super().__init__(registry)
        self.busy = 0.0
        self._t = 0.0

    def before_op(self, table: Any, kind: str, district: int) -> None:
        self._t = time.perf_counter()

    def after_op(self, table: Any, op: Any, units: int) -> None:
        super().after_op(table, op, units)
        self.busy += time.perf_counter() - self._t


class CoreProbe:
    """Attach registry observers (and a timed k-cursor observer) to one or
    more schedulers; read per-op counts and busy times afterwards."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.timed = TimedKCursorObserver(self.registry)
        self.core_busy = 0.0
        self._attachments: list[Any] = []
        self._ledgers: list[tuple[Any, tuple[int, int, int]]] = []

    def attach(self, sched: Any) -> None:
        self._attachments.append(attach(sched, self.registry))
        for server in getattr(sched, "servers", [sched]):
            server.segments.table._observer = self.timed
        self._ledgers.append((sched.ledger, ledger_totals(sched.ledger)))

    def detach(self) -> None:
        for at in self._attachments:
            at.detach()
        self._attachments.clear()

    def value(self, name: str) -> float:
        return self.registry.value(name)

    def check_ledgers(self) -> None:
        """Ledger deltas since attach equal the observers' ``sched.*`` counts."""
        jobs = volume = migrations = 0
        for ledger, (j0, v0, m0) in self._ledgers:
            j1, v1, m1 = ledger_totals(ledger)
            jobs, volume, migrations = jobs + j1 - j0, volume + v1 - v0, migrations + m1 - m0
        check(jobs == self.value("sched.realloc.jobs"),
              f"ledger moved {jobs} jobs, observer counted {self.value('sched.realloc.jobs')}")
        check(volume == self.value("sched.realloc.volume"),
              f"ledger moved volume {volume}, observer counted {self.value('sched.realloc.volume')}")
        check(migrations == self.value("sched.migrations"),
              f"ledger counted {migrations} migrations, observer {self.value('sched.migrations')}")

    def metrics(self, timed: bool = True) -> dict[str, float]:
        """Per-scheduler-op metrics of the ops run while attached.

        ``timed=False`` leaves out the busy times: a client-side replay of
        a server's ops has counts equal to the server's, but not its times.
        """
        ops = self.value("sched.op.count")
        check(ops > 0, "no scheduler ops observed")
        out = {
            "kcursor.slots_moved_per_op": self.value("kcursor.slots.moved") / ops,
            "kcursor.slots_scanned_per_op": self.value("kcursor.slots.scanned") / ops,
            "kcursor.rebalances_per_op": self.value("kcursor.rebalance.count") / ops,
            "core.migrations_per_op": self.value("sched.migrations") / ops,
            "realloc_moved_per_op": self.value("sched.realloc.jobs") / ops,
            "realloc_volume_per_op": self.value("sched.realloc.volume") / ops,
        }
        if timed:
            kc_busy = self.timed.busy
            out["kcursor.busy_us_per_op"] = kc_busy / ops * 1e6
            out["core.busy_us_per_op"] = self.core_busy / ops * 1e6
            out["core.self_us_per_op"] = (self.core_busy - kc_busy) / ops * 1e6
        return out


def ledger_totals(ledger: Any) -> tuple[int, int, int]:
    """(jobs moved, volume moved, migrations) from a scheduler ledger."""
    volume = sum(w * c for w, c in ledger.realloc_hist.items())
    return ledger.moved_jobs_total(), volume, ledger.total_migrations


def cost_ratio(scheds: Iterable[Any]) -> float:
    """Sum over schedulers of final sum-of-completion-times over OPT."""
    got = opt = 0
    for sched in scheds:
        got += sched.sum_completion_times()
        opt += opt_sum_completion([pj.size for pj in sched.jobs()], getattr(sched, "p", 1))
    check(opt > 0, "empty schedule: no cost ratio")
    return got / opt


def schedule_rows(sched: Any) -> list[list[Any]]:
    """A scheduler's placements in the ``query(jobs=True)`` row format."""
    return sorted(
        ([str(pj.name), pj.size, pj.klass, pj.start, pj.server] for pj in sched.jobs()),
        key=lambda row: (row[4], row[3], row[0]),
    )


# ---------------------------------------------------------------------------
# Server-side acked-op logs and the in-process reference replay


@dataclass
class SessionLog:
    """Acked mutations of one session, in execution order."""

    sid: str
    config: dict[str, Any]
    ops: list[tuple[str, str, int]] = field(default_factory=list)
    active: list[str] = field(default_factory=list)
    #: index into ``ops`` where the measured window starts
    window_start: int = 0
    next_job: int = 0

    def new_name(self) -> str:
        self.next_job += 1
        return f"j{self.next_job}"


def replay_reference(logs: list[SessionLog], probe: CoreProbe) -> dict[str, Any]:
    """Replay each session's acked ops through ``build_scheduler``.

    Ops before ``window_start`` run detached; the window ops run with
    ``probe`` attached, so its per-op counts cover exactly the window.
    Returns ``{sid: scheduler}``.
    """
    out: dict[str, Any] = {}
    for log in logs:
        sched = build_scheduler(SessionConfig.from_mapping(log.config))
        for i, (kind, name, size) in enumerate(log.ops):
            if i == log.window_start:
                probe.attach(sched)
            if kind == "insert":
                sched.insert(name, size)
            else:
                sched.delete(name)
        if log.window_start >= len(log.ops):
            probe.attach(sched)
        out[log.sid] = sched
    probe.detach()
    return out


# ---------------------------------------------------------------------------
# Server processes


class ServerProc:
    """One ``repro serve`` subprocess with its own data dir and files."""

    def __init__(self, workdir: str, args: list[str], *, trace: bool) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.dir = workdir
        self.data = os.path.join(workdir, "data")
        self.trace_path = os.path.join(workdir, "server.trace.jsonl") if trace else None
        self.out_path = os.path.join(workdir, "server.out")
        ready = os.path.join(workdir, "ready.json")
        cmd = [
            sys.executable, "-m", "repro", "serve", self.data,
            "--port", "0", "--ready-file", ready, "--metrics", *args,
        ]
        if self.trace_path is not None:
            cmd += ["--trace", self.trace_path]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        with open(self.out_path, "wb") as out, open(os.path.join(workdir, "server.err"), "wb") as err:
            self.proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, cwd=workdir)
        self.port = _await_ready(self.proc, ready)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=30.0)

    def shutdown(self) -> None:
        """Graceful stop (the ``--metrics`` dump is written on exit)."""
        if self.proc.poll() is None:
            with self.client() as c:
                c.shutdown()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)

    def exit_counters(self) -> dict[str, float]:
        return parse_metrics_dump(self.out_path)


def _await_ready(proc: "subprocess.Popen[bytes]", ready: str, timeout: float = 60.0) -> int:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode} before ready")
        try:
            with open(ready, encoding="utf-8") as fh:
                info = json.load(fh)
            if isinstance(info.get("port"), int):
                return int(info["port"])
        except (OSError, json.JSONDecodeError):
            pass
        time.sleep(0.01)
    proc.kill()
    proc.wait(timeout=30)
    raise RuntimeError("server not ready in time")


def parse_metrics_dump(path: str) -> dict[str, float]:
    """Sum the ``counters:`` of every ``repro serve --metrics`` block in a file."""
    totals: dict[str, float] = {}
    section = ""
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if not line.startswith("  "):
                section = line.strip()
                continue
            if section != "counters:":
                continue
            name, _, value = line.strip().rpartition(" ")
            totals[name.strip()] = totals.get(name.strip(), 0.0) + float(value)
    return totals


@contextmanager
def child_stdout(path: str) -> Iterator[None]:
    """Point fd 1 at ``path`` while subprocesses are spawned (they keep it)."""
    sys.stdout.flush()
    saved = os.dup(1)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.dup2(fd, 1)
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)
        os.close(fd)


def counters_of(stats: dict[str, Any]) -> dict[str, float]:
    return {k: float(v) for k, v in stats.get("counters", {}).items()}


def delta(after: dict[str, float], before: dict[str, float], name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def service_metrics(
    win: Window,
    stats0: list[dict[str, Any]],
    stats1: list[dict[str, Any]],
    disk_bytes: int,
    exit_counters: dict[str, float],
    peak_rss_mb: float,
    probe: CoreProbe,
    refs: Iterable[Any],
) -> dict[str, float]:
    """Metrics every server workload reports in every run.

    ``stats0``/``stats1`` are the ``stats`` replies of each server process
    at the window's start and end; ``exit_counters`` sums their
    ``--metrics`` dumps; ``probe`` covered the reference replay of the
    window's ops, whose final schedulers are ``refs`` (its counts are the
    servers', its times are not, so none are reported).  ``peak_rss_mb``
    is read after a fixed number of window ops (``load.RSS_AFTER_OPS``).
    """
    ops = win.completed
    check(ops > 0, "no op completed in the window")
    c0: dict[str, float] = {}
    c1: dict[str, float] = {}
    for before, after in zip(stats0, stats1):
        for name, v in counters_of(before).items():
            c0[name] = c0.get(name, 0.0) + v
        for name, v in counters_of(after).items():
            c1[name] = c1.get(name, 0.0) + v
    # the closing ``stats`` call is itself a counted server op
    check(delta(c1, c0, "service.op.count") >= ops,
          f"servers counted {delta(c1, c0, 'service.op.count')} ops, clients completed {ops}")
    m = probe.metrics(timed=False)
    m.update(win.latency_metrics())
    m.update({
        "throughput_ops_s": win.throughput(),
        "cost_ratio": cost_ratio(refs),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": (win.failed + win.retries) / (win.attempted + win.retries),
        "client.retries_per_op": win.retries / ops,
        "sessions.evictions_per_op": delta(c1, c0, "service.evictions") / ops,
        "sessions.shed_per_op": delta(c1, c0, "service.shed") / ops,
        "sessions.dedup_hits_per_op": delta(c1, c0, "service.dedup.hits") / ops,
        "journal.disk_bytes_per_op": disk_bytes / ops,
        "journal.bytes_per_op": exit_counters["service.journal.bytes"]
        / exit_counters["service.journal.appends"],
        "journal.checkpoint_ms": median(win.latencies("snapshot")) * 1e3 if win.samples["snapshot"] else 0.0,
    })
    return m


def verify_sessions(logs: list[SessionLog], client: Any) -> tuple[CoreProbe, dict[str, Any]]:
    """Each session's schedule as ``client`` reads it equals the reference
    replay of its acked ops through ``build_scheduler``."""
    probe = CoreProbe()
    refs = replay_reference(logs, probe)
    probe.check_ledgers()
    for log in logs:
        got = client.query(log.sid, jobs=True)["jobs"]
        check(got == schedule_rows(refs[log.sid]),
              f"session {log.sid}: server schedule differs from the reference replay")
    return probe, refs


# ---------------------------------------------------------------------------
# Trace files


def window_spans(path: str) -> dict[int, Any]:
    """Spans of a server trace that started between its two ``health``
    markers -- the measured window -- as :class:`introspect.Span` objects."""
    records = list(read_trace(path, tolerant=True))
    marks = [
        i for i, rec in enumerate(records)
        if rec.get("type") == "span_end" and rec.get("name") == "server.op"
        and rec.get("op") == "health"
    ]
    check(len(marks) == 2, f"{path}: expected 2 window markers, found {len(marks)}")
    return collect_spans(records[marks[0] + 1: marks[1]])


def client_spans(path: str, name: str) -> dict[str, float]:
    """``{trace id: seconds}`` of every closed client span called ``name``."""
    out: dict[str, float] = {}
    for span in collect_spans(read_trace(path, tolerant=True)).values():
        if span.name == name and span.t_end is not None and span.fields.get("outcome") == "ok":
            out[span.fields["trace"]] = span.t_end - span.t_start
    return out


def server_layer_metrics(
    server_traces: list[str], client_trace: str, client_span: str, ops: int
) -> tuple[dict[str, float], dict[str, dict[str, int]]]:
    """Server/sessions/journal/replica/wire metrics from traced windows.

    Also returns, for reads and writes, how many window ops hit a live
    session and how many missed (the op's session was rehydrated while
    it ran: a ``recovery`` span on that session's directory), in all and
    among the ops slower than the kind's client-observed p99.
    """
    client = client_spans(client_trace, client_span)
    # trace id -> the answering server span of each measured client op
    #: (a retried op's earlier attempts end with another outcome)
    joined: dict[str, Span] = {}
    #: session -> start times of its rehydrations
    recoveries: dict[str, list[float]] = {}
    journal = 0.0
    fsyncs = 0
    ships: list[float] = []
    applies = installs = 0
    for path in server_traces:
        for span in window_spans(path).values():
            f = span.fields
            if span.name == "journal.fsync":
                fsyncs += 1
            elif span.name == "replica.ship" and span.t_end is not None:
                ships.append(span.t_end - span.t_start)
            elif span.name == "recovery":
                recoveries.setdefault(os.path.basename(f["dir"]), []).append(span.t_start)
            elif span.name == "server.op":
                journal += f.get("journal", 0.0)
                if f.get("op") == "repl_apply":
                    applies += 1
                elif f.get("op") == "repl_install":
                    installs += 1
                elif f.get("op") in CLIENT_OPS and f.get("trace") in client and f.get("outcome") == "ok":
                    joined[f["trace"]] = span
    check(len(joined) == ops, f"joined {len(joined)} of {ops} window ops to server spans")
    fields = [span.fields for span in joined.values()]
    totals = [f["total"] for f in fields]
    writes = sum(1 for f in fields if f["op"] in ("insert", "delete"))
    n = len(totals)
    metrics = {
        "server.total_ms": sum(totals) / n * 1e3,
        "sessions.queue_wait_ms": sum(f.get("queue_wait", 0.0) for f in fields) / n * 1e3,
        "sessions.execute_ms": sum(f.get("execute", 0.0) for f in fields) / n * 1e3,
        "wire.residual_ms": (sum(client[tid] for tid in joined) - sum(totals)) / n * 1e3,
        "journal.ms_per_op": journal / ops * 1e3,
        "journal.fsyncs_per_op": fsyncs / ops,
        "replica.ship_ms": (sum(ships) / len(ships) * 1e3) if ships else 0.0,
        "replica.applies_per_write": (applies / writes) if applies else 0.0,
        "replica.installs": float(installs),
    }

    def missed(span: Span) -> bool:
        end = span.t_end if span.t_end is not None else span.t_start
        return any(span.t_start <= t <= end for t in recoveries.get(span.fields["session"], ()))

    hit_miss: dict[str, dict[str, int]] = {}
    for kind, names in (("read", ("query",)), ("write", ("insert", "delete"))):
        ops_k = [(client[tid], missed(span)) for tid, span in joined.items() if span.fields["op"] in names]
        if not ops_k:
            continue
        p99 = percentile(sorted(lat for lat, _ in ops_k), 0.99)
        misses = sum(m for _, m in ops_k)
        tail = [m for lat, m in ops_k if lat > p99]
        hit_miss[kind] = {
            "hits": len(ops_k) - misses, "misses": misses,
            "hits_beyond_p99": len(tail) - sum(tail), "misses_beyond_p99": sum(tail),
        }
    return metrics, hit_miss
