"""Dirty-range lost-slot repair.

The scheduler re-reads the extent of only the classes the k-cursor op
could have moved (``KCursorSparseTable.last_dirty``).  That must be
exact: over seeded random traces it gives the same placements and the
same ledger as a reference whose repair walks its whole class order.
After an aborted op the next repair must check every class again.
"""

from __future__ import annotations

import errno
import math
import random
import types

import pytest

from repro import faults
from repro.baselines.pma_sched import PMABackedScheduler
from repro.core.parallel import ParallelScheduler
from repro.core.segments import SegmentManager
from repro.core.single import SingleServerScheduler


def _full_order_repair(self, dirty, *, largest_first):
    # Classes left of the updated one never move (Theorem 19), so the
    # range's left end stays; the right end is ignored.
    SingleServerScheduler._repair(
        self, (dirty[0], self.num_classes), largest_first=largest_first
    )


def full_order(sched):
    """Make ``sched`` (or every server of a parallel one) repair its whole
    class order, from the updated class to the last one, as the scheduler
    did before it had a dirty range."""
    for child in getattr(sched, "servers", [sched]):
        child._repair = types.MethodType(_full_order_repair, child)
    return sched


def _trace(seed, ops, max_size):
    """Seeded insert/delete trace with log-uniform sizes in [1, max_size]."""
    rng = random.Random(seed)
    active, out = [], []
    log_max = math.log2(max_size)
    for step in range(ops):
        if rng.random() < 0.55 or not active:
            size = min(max_size, int(2 ** rng.uniform(0.0, log_max)))
            out.append(("insert", step, size))
            active.append(step)
        else:
            i = rng.randrange(len(active))
            active[i], active[-1] = active[-1], active[i]
            out.append(("delete", active.pop(), 0))
    return out


def _state(sched):
    led = sched.ledger
    return (
        sorted((pj.server, pj.start, pj.name, pj.size, pj.klass) for pj in sched.jobs()),
        led.alloc_hist,
        led.realloc_hist,
        led.migrate_hist,
        led.total_migrations,
    )


def _events(sched):
    return [(ev.name, ev.size, ev.kind) for ev in sched.ledger.last.events]


def _small_tau(par):
    """Give every (still empty) server of ``par`` a 1/tau of 2(H+1), so
    chunks turn BUFFERED at small volumes and most cascades stop below
    the root: at the default tau a short trace rebuilds the root on
    every op, and the dirty range is then the whole class order."""
    for child in par.servers:
        child.segments = SegmentManager(child.num_classes, child.delta, tau_factor=2)
    return par


CASES = {
    "single-global": (lambda: SingleServerScheduler(2**10, delta=0.5, tau_factor=2), 2**10),
    "single-nopad": (
        lambda: SingleServerScheduler(
            2**10, delta=0.5, tau_factor=2, padding_enabled=False
        ),
        2**10,
    ),
    # dynamic=True runs local tau and grows the class table past Delta.
    "single-dynamic": (
        lambda: SingleServerScheduler(4, delta=0.5, dynamic=True, tau_factor=2),
        2**9,
    ),
    "parallel-p1": (lambda: _small_tau(ParallelScheduler(1, 2**10, delta=0.5)), 2**10),
    "parallel-p2": (lambda: _small_tau(ParallelScheduler(2, 2**10, delta=0.5)), 2**10),
    "parallel-p3": (lambda: _small_tau(ParallelScheduler(3, 2**10, delta=0.5)), 2**10),
    "pma": (lambda: PMABackedScheduler(2**8, delta=0.5), 2**8),
}


def _count_extent_reads(sched):
    reads = [0]
    for child in getattr(sched, "servers", [sched]):
        extent = child.segments.extent

        def counted(j, extent=extent):
            reads[0] += 1
            return extent(j)

        child.segments.extent = counted
    return reads


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", sorted(CASES))
def test_dirty_repair_matches_full_order_repair(case, seed):
    make, max_size = CASES[case]
    ops = 300 if case == "pma" else 1500
    dirty, full = make(), full_order(make())
    reads_dirty, reads_full = _count_extent_reads(dirty), _count_extent_reads(full)
    for kind, name, size in _trace(seed, ops, max_size):
        for sched in (dirty, full):
            if kind == "insert":
                sched.insert(name, size)
            else:
                sched.delete(name)
        assert _events(dirty) == _events(full), (kind, name)
    assert _state(dirty) == _state(full)
    if case == "pma":
        assert reads_dirty == reads_full  # PMA ranges are always (0, k)
    else:
        assert reads_dirty[0] < reads_full[0]  # the ranges did cut reads
    dirty.check_schedule()


def test_pma_repairs_every_class():
    s = PMABackedScheduler(2**8, delta=0.5)
    s.insert("a", 3)
    assert s.segments.apply_volume_change(0, 1) == (0, s.num_classes)


def _contained(sched):
    for j, layout in enumerate(sched.layouts):
        layout.check_disjoint(sched.segments.extent(j))


@pytest.fixture
def _no_leaked_plan():
    yield
    faults.deactivate()


@pytest.mark.usefixtures("_no_leaked_plan")
def test_op_after_abort_repairs_every_class():
    s = SingleServerScheduler(2**10, delta=0.5)
    for kind, name, size in _trace(3, 400, 2**10):
        if kind == "insert":
            s.insert(name, size)
        else:
            s.delete(name)
    top = s.num_classes - 1
    # A rebuild raises half way through its cascade: the op aborts.
    faults.activate(faults.parse_plan("kcursor.rebuild.exit=error:EIO@times1"))
    with pytest.raises(OSError) as exc:
        for i in range(10_000):
            s.insert(f"x{i}", 1 + i % 7)
    assert exc.value.errno == errno.EIO
    faults.deactivate()
    assert s._repair_all

    read: list[int] = []
    extent = s.segments.extent

    def spy(j):
        read.append(j)
        return extent(j)

    s.segments.extent = spy
    # The table reports only the top class as dirty for this op, yet the
    # repair after an abort reads every non-empty class.
    s.insert("after", 2**10)
    nonempty = {j for j, layout in enumerate(s.layouts) if len(layout)}
    assert nonempty - {top} <= set(read)
    assert not s._repair_all
    _contained(s)

    read.clear()
    s.insert("next", 2**10)
    assert set(read) == {top}  # the flag is cleared: dirty range only
    _contained(s)
