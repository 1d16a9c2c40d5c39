"""Cost-oblivious reallocating makespan balancer (extension).

``p | f(w) realloc | C_max``: keep the maximum server load within a small
factor of ``OPT = max(ceil(V/p), max_j w_j)`` under online insertions and
deletions, while paying little reallocation under any subadditive ``f``
*without knowing f* -- the objective of the paper's predecessor [8]
(storage footprint ~ makespan), driven with this paper's machinery:

* jobs are grouped into ``(1+delta)`` size classes;
* per class, per-server job counts stay within 1 of each other (the
  Section-3 Invariant 5), so each server holds at most
  ``ceil(n_j / p)`` class-``j`` jobs;
* insertions never migrate; a deletion migrates at most one same-class
  job (largest-first would also work; we take any).

Guarantee (elementary, documented honestly -- weaker than [8]'s):

    load(s) <= sum_j ceil(n_j/p) * wmax_j
            <= (1+delta) * V/p + sum over nonempty classes of wmax_j
            <= (1+delta) * OPT + O(OPT * min(#nonempty classes,
                                             (1+delta)/delta))

i.e. a constant-factor approximation whenever job sizes span O(1)
magnitude classes per doubling (the typical case; measured ratios in
``benchmarks/bench_makespan.py`` are ~1.1-1.3), degrading at worst to
``O(log_{1+delta} Delta)`` on adversarial one-job-per-class inputs.
Reallocation accounting is identical to the core scheduler's ledger, so
the cost-oblivious pricing applies unchanged.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.events import Ledger, ReallocKind
from repro.core.jobs import Job, PlacedJob, SizeClasser


class MakespanReallocator:
    """Online size-class-balanced makespan maintenance on ``p`` servers."""

    def __init__(self, p: int, max_job_size: int, *, delta: float = 0.5):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p
        self.delta = delta
        self.classer = SizeClasser(delta, max_job_size)
        k = self.classer.num_classes
        # _members[j][s]: names of class-j jobs on server s, in insertion
        # order (a dict, not a set: the migration victim must not depend
        # on PYTHONHASHSEED).
        self._members: list[list[dict[Hashable, None]]] = [
            [{} for _ in range(p)] for _ in range(k)
        ]
        self._jobs: dict[Hashable, PlacedJob] = {}
        self._loads = [0] * p
        self.ledger = Ledger()

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, name: Hashable) -> bool:
        return name in self._jobs

    def jobs(self) -> list[PlacedJob]:
        return sorted(self._jobs.values(), key=lambda pj: (pj.server, pj.start))

    def loads(self) -> list[int]:
        return list(self._loads)

    def makespan(self) -> int:
        return max(self._loads) if any(self._loads) else 0

    def opt_lower_bound(self) -> int:
        total = sum(pj.size for pj in self._jobs.values())
        wmax = max((pj.size for pj in self._jobs.values()), default=0)
        return max(-(-total // self.p), wmax)

    def ratio(self) -> float:
        lb = self.opt_lower_bound()
        return self.makespan() / lb if lb else 1.0

    def class_counts(self, j: int) -> list[int]:
        return [len(self._members[j][s]) for s in range(self.p)]

    def sum_completion_times(self) -> int:
        """Secondary metric (jobs stack back-to-back per server)."""
        return sum(pj.completion for pj in self._jobs.values())

    # ------------------------------------------------------------------

    def insert(self, name: Hashable, size: int) -> PlacedJob:
        if name in self._jobs:
            raise KeyError(f"job {name!r} already active")
        j = self.classer.class_of(size)
        counts = self.class_counts(j)
        # Fewest class-j jobs; break ties toward the lighter server.
        server = min(range(self.p), key=lambda s: (counts[s], self._loads[s], s))
        self.ledger.begin("insert", name, size)
        placed = self._attach(Job(name, size), j, server)
        self.ledger.record(name, size, ReallocKind.PLACE)
        self.ledger.commit()
        return placed

    def delete(self, name: Hashable) -> Job:
        placed = self._jobs.get(name)
        if placed is None:
            raise KeyError(f"job {name!r} not active")
        j = placed.klass
        self.ledger.begin("delete", name, placed.size)
        self._detach(placed)
        self.ledger.record(name, placed.size, ReallocKind.REMOVE)
        # Restore Invariant 5 with at most one same-class migration.
        counts = self.class_counts(j)
        donor = max(range(self.p), key=lambda s: (counts[s], self._loads[s], -s))
        if counts[donor] - counts[placed.server] > 1:
            vname = next(iter(self._members[j][donor]))
            victim = self._jobs[vname]
            self._detach(victim)
            moved = self._attach(victim.job, j, placed.server)
            self.ledger.record(moved.name, moved.size, ReallocKind.MIGRATE)
        self.ledger.commit()
        return placed.job

    # ------------------------------------------------------------------

    def _attach(self, job: Job, j: int, server: int) -> PlacedJob:
        placed = PlacedJob(job=job, klass=j, start=self._loads[server], server=server)
        self._jobs[job.name] = placed
        self._members[j][server][job.name] = None
        self._loads[server] += job.size
        return placed

    def _detach(self, placed: PlacedJob) -> None:
        del self._jobs[placed.name]
        del self._members[placed.klass][placed.server][placed.name]
        self._loads[placed.server] -= placed.size
        # Close the gap in the server's stack: later jobs shift down.
        # (Start positions are bookkeeping only; no reallocation is charged
        # for same-server compaction in the makespan objective, where only
        # the *assignment* matters -- matching [8]'s footprint accounting.)
        for pj in self._jobs.values():
            if pj.server == placed.server and pj.start > placed.start:
                pj.start -= placed.size

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        loads = [0] * self.p
        for pj in self._jobs.values():
            loads[pj.server] += pj.size
        if loads != self._loads:
            raise AssertionError("load bookkeeping mismatch")
        for j in range(self.classer.num_classes):
            counts = self.class_counts(j)
            if max(counts) - min(counts) > 1:
                raise AssertionError(f"Invariant 5 violated for class {j}: {counts}")
