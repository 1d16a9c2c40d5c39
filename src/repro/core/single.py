"""The single-server cost-oblivious reallocating scheduler (Section 2).

Implements Theorem 1: for constant ``0 < epsilon <= 1``, a
``(1 + epsilon, O((1/eps^5) log^3 log Delta))``-competitive reallocating
scheduler for ``1 | f(w) realloc | sum C_j`` over all subadditive cost
functions (``O(1/eps^3)`` over strongly subadditive ones), *without ever
looking at f*.

Operation per request (insertion; deletions mirror it):

1. update the class volume ``V(j)`` and sync district ``j`` of the
   k-cursor table to ``floor(V(j)(1+delta))`` elements;
2. read the (possibly moved) district boundaries -- *no jobs moved yet*;
3. collect jobs now overlapping lost slots (outside their class's new
   segment), largest class first -- but only in the classes the table
   reports as dirty: ``[j, end of the subtree of the parent of the
   highest rebuilt chunk)``.  This is exact, not a heuristic: a rebuild
   is one-directional and trades space only with its parent (Theorem
   19), so every other class kept its extent, and the previous op left
   all of its jobs inside it.  The op after an aborted one has no such
   postcondition to rely on and checks every class;
4. re-place each within its own segment (Claim 2's procedure,
   :mod:`repro.core.placement`);
5. place the new job.

The ledger records which jobs moved; costs are priced later (cost
obliviousness is structural, see :mod:`repro.core.events`).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.core.events import Ledger, ReallocKind
from repro.core.jobs import Job, PlacedJob, SizeClasser
from repro.core.placement import ClassLayout
from repro.core.segments import SegmentManager


class SingleServerScheduler:
    """Cost-oblivious reallocating scheduler for one server.

    Parameters
    ----------
    max_job_size:
        the paper's ``Delta`` (largest job length ever inserted).  With
        ``dynamic=True`` the scheduler instead grows its class table on
        demand (the paper's "creating more cursors" extension).
    epsilon:
        approximation target: the maintained sum of completion times stays
        within ``1 + epsilon`` of optimal.  Internally ``delta =
        epsilon/17`` (Lemma 4 proves a ``1 + 17*delta`` ratio).
    delta:
        set the class-width parameter directly (overrides ``epsilon``).
    server:
        server id stamped on placements (used by the parallel scheduler).
    """

    def __init__(
        self,
        max_job_size: int,
        *,
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        dynamic: bool = False,
        server: int = 0,
        ledger: Optional[Ledger] = None,
        tau_factor: Optional[int] = None,
        padding_enabled: bool = True,
    ) -> None:
        if delta is None:
            eps = 0.5 if epsilon is None else epsilon
            if not (0.0 < eps <= 1.0):
                raise ValueError("epsilon must be in (0, 1]")
            delta = max(min(eps / 17.0, 1.0), 1e-3)
        if not (0.0 < delta <= 1.0):
            raise ValueError("delta must be in (0, 1]")
        self.delta = delta
        self.server = server
        self.dynamic = dynamic
        self.classer = SizeClasser(delta, max_job_size)
        k = self.classer.num_classes
        self.segments = SegmentManager(
            k,
            delta,
            tau_mode="local" if dynamic else "global",
            tau_factor=tau_factor,
        )
        self.padding_enabled = padding_enabled
        self.layouts: list[ClassLayout] = [
            ClassLayout(j, self.classer.min_size(j), delta, padding_enabled=padding_enabled)
            for j in range(k)
        ]
        self.ledger = ledger if ledger is not None else Ledger()
        self._jobs: dict[Hashable, PlacedJob] = {}
        # Set when an op aborts: it may have moved boundaries without
        # repairing them, so the next repair checks every class.
        self._repair_all = False

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, name: Hashable) -> bool:
        return name in self._jobs

    @property
    def num_classes(self) -> int:
        return len(self.layouts)

    def jobs(self) -> list[PlacedJob]:
        return sorted(self._jobs.values(), key=lambda pj: pj.start)

    def placement(self, name: Hashable) -> PlacedJob:
        return self._jobs[name]

    def sum_completion_times(self) -> int:
        """Objective value of the current schedule: sum of job end slots."""
        return sum(pj.completion for pj in self._jobs.values())

    def total_volume(self) -> int:
        return sum(l.volume for l in self.layouts)

    def makespan(self) -> int:
        return max((pj.end for pj in self._jobs.values()), default=0)

    # ------------------------------------------------------------------
    # Requests

    def insert(self, name: Hashable, size: int) -> PlacedJob:
        """<INSERTJOB, name, length>: add a job and repair the schedule."""
        if name in self._jobs:
            raise KeyError(f"job {name!r} already active")
        if self.dynamic and size > self.classer.max_size:
            self._grow_for(size)
        job = Job(name, size)
        j = self.classer.class_of(size)
        self.ledger.begin("insert", name, size)
        try:
            dirty = self.segments.apply_volume_change(j, size)
            # Insertions repair from the largest affected class downward.
            self._repair(dirty, largest_first=True)
            placed = self._place(job, j)
            self.ledger.record(name, size, ReallocKind.PLACE)
            self._jobs[name] = placed
        except BaseException:
            self._abort()
            raise
        self.ledger.commit()
        return placed

    def bulk_load(self, jobs: Iterable[tuple[Hashable, int]]) -> None:
        """Load an initial job set efficiently.

        Inserting in ascending size order fills classes left to right, so
        each insertion's boundary movement affects only empty classes to
        the right -- the cheapest possible build (one pass, no repairs of
        already-placed larger jobs).
        """
        for name, size in sorted(jobs, key=lambda item: item[1]):
            self.insert(name, size)

    def delete(self, name: Hashable) -> Job:
        """<DELETEJOB, name>: remove a job and repair the schedule."""
        placed = self._jobs.pop(name, None)
        if placed is None:
            raise KeyError(f"job {name!r} not active")
        j = placed.klass
        self.ledger.begin("delete", name, placed.size)
        try:
            self.layouts[j].remove(placed)
            self.ledger.record(name, placed.size, ReallocKind.REMOVE)
            dirty = self.segments.apply_volume_change(j, -placed.size)
            # Deletions repair from the smallest affected class upward.
            self._repair(dirty, largest_first=False)
        except BaseException:
            self._abort()
            raise
        self.ledger.commit()
        return placed.job

    # ------------------------------------------------------------------
    # Internals

    def _repair(self, dirty: tuple[int, int], *, largest_first: bool) -> None:
        """Re-place every job overlapping lost slots of its class.

        Only the classes in the half-open range ``dirty`` can have moved
        (see the module docstring, step 3).  The segment manager decides
        that range: the k-cursor's one-directionality starts it at the
        updated class, while substrates without that property report
        every class.
        """
        lo, hi = (0, self.num_classes) if self._repair_all else dirty
        for jj in range(hi - 1, lo - 1, -1) if largest_first else range(lo, hi):
            layout = self.layouts[jj]
            if len(layout) == 0:
                continue
            seg = self.segments.extent(jj)
            for pj in layout.evicted(seg):
                layout.remove(pj)
                new_pj = layout.place(pj.job, seg, on_move=self._on_move, server=self.server)
                self._jobs[pj.name] = new_pj
                self.ledger.record(pj.name, pj.size, ReallocKind.MOVE)
        self._repair_all = False

    def _abort(self) -> None:
        self._repair_all = True
        self.ledger.abort()

    def _place(self, job: Job, j: int) -> PlacedJob:
        seg = self.segments.extent(j)
        return self.layouts[j].place(job, seg, on_move=self._on_move, server=self.server)

    def _on_move(self, pj: PlacedJob) -> None:
        self.ledger.record(pj.name, pj.size, ReallocKind.MOVE)

    def _grow_for(self, size: int) -> None:
        self.classer.grow(size)
        k = self.classer.num_classes
        self.segments.grow_classes(k)
        while len(self.layouts) < k:
            j = len(self.layouts)
            self.layouts.append(
                ClassLayout(
                    j,
                    self.classer.min_size(j),
                    self.delta,
                    padding_enabled=self.padding_enabled,
                )
            )

    # ------------------------------------------------------------------
    # Validation (tests / harness)

    def check_schedule(self) -> None:
        """Full self-check: Property 1, job containment, disjointness."""
        self.segments.check_property1()
        for j, layout in enumerate(self.layouts):
            seg = self.segments.extent(j)
            layout.check_disjoint(seg)
            vol = sum(pj.size for pj in layout)
            if vol != layout.volume or vol != self.segments.volumes[j]:
                raise AssertionError(f"class {j}: volume bookkeeping mismatch")
            for pj in layout:
                if self.classer.class_of(pj.size) != j:
                    raise AssertionError(f"job {pj.name} in wrong class {j}")
