"""Gap machinery (Section 4.2, Invariant 11, Figure 5).

Gaps arise only when a right chunk is drastically larger than its left
sibling; these tests construct that asymmetry deliberately.
"""

import random

import pytest

from repro.kcursor import KCursorSparseTable, Params, check_invariants
from tests.conftest import drive_table


def lopsided_table(k=4, factor=2, right_load=3000):
    t = KCursorSparseTable(k, params=Params.explicit(k, factor))
    t.extend(k - 1, right_load)
    return t


def test_gaps_appear_under_asymmetry():
    t = lopsided_table()
    check_invariants(t)
    gap_chunks = [c for c in t.iter_chunks() if c.gaps > 0]
    assert gap_chunks, "drastic right-heavy load must create gaps"


def test_gap_invariant_offsets():
    t = lopsided_table()
    for c in t.iter_chunks():
        if c.gaps:
            assert c.gap_offset >= c.min_gap_offset(c.it)
            assert c.last_gap_offset(c.it) <= c.right.S


def test_gap_consumption_on_left_growth():
    t = lopsided_table()
    before = sum(c.gaps for c in t.iter_chunks())
    assert before > 0
    for i in range(before + 50):
        t.insert(0)
    check_invariants(t)
    assert t.counter.gaps_consumed > 0


def test_gap_creation_on_left_shrink():
    t = lopsided_table()
    t.extend(0, 500)  # grow the left, consuming gaps / sliding
    check_invariants(t)
    created_before = t.counter.gaps_created
    t.shrink(0, 500)  # shrink it back: front gaps should be re-introduced
    check_invariants(t)
    assert t.counter.gaps_created >= created_before


def test_gaps_bounded_by_tau_fraction():
    """Invariant 10's gap half: G(c) <= tau * S(c_R)."""
    t = lopsided_table(k=8, right_load=5000)
    drive_table(t, 2000, seed=3)
    for c in t.iter_chunks():
        if not c.is_leaf:
            assert c.gaps * c.it <= c.right.S


def test_no_gaps_on_leaves():
    t = lopsided_table()
    for c in t.iter_chunks():
        if c.is_leaf:
            assert c.gaps == 0


def test_gaps_elided_from_child_space():
    """Parent gaps interleave the right child but never count toward it."""
    t = lopsided_table()
    for c in t.iter_chunks():
        assert c.S == c.recompute_S()


def test_unbuffered_chunks_contain_no_gaps():
    """Invariant 11's 2/tau^2 offset implies UNBUFFERED chunks are gapless."""
    t = KCursorSparseTable(8, params=Params.explicit(8, 2))
    drive_table(t, 3000, seed=4)
    for c in t.iter_chunks():
        if not c.is_leaf and not c.buffered and c.gaps:
            # gaps demand at least 2/tau^2 right-child slots
            assert c.right.S >= 2 * c.it * c.it


def test_churn_with_gaps_keeps_invariants():
    t = lopsided_table(k=8, right_load=4000)
    rng = random.Random(5)
    for step in range(4000):
        j = rng.randrange(3) if rng.random() < 0.7 else rng.randrange(8)
        if rng.random() < 0.5 or t.district_len(j) == 0:
            t.insert(j)
        else:
            t.delete(j)
        if step % 200 == 0:
            check_invariants(t)
    check_invariants(t)
    assert t.counter.gaps_created > 0


def test_gap_positions_materialize_with_spacing():
    from repro.kcursor.layout import materialize, SlotKind

    t = lopsided_table()
    slots = materialize(t)
    # Between two consecutive gaps of the same level there are >= 1/tau slots.
    last_gap_at = {}
    for i, s in enumerate(slots):
        if s.kind is SlotKind.GAP:
            if s.level in last_gap_at:
                assert i - last_gap_at[s.level] >= 2  # at least some spacing
            last_gap_at[s.level] = i


def test_district_extent_walk_matches_per_slot_walks():
    """district_extent resolves both ends in one ancestor walk; it must
    equal the per-slot walks at every step, including steps where an end
    lands exactly on a gap offset (the load on the last two districts
    makes both ends cross gap offsets)."""
    k = 8
    t = KCursorSparseTable(k, params=Params.explicit(k, 2))
    rng = random.Random(2)
    for step in range(4500):
        j = k - 1 - rng.randrange(2) if rng.random() < 0.8 else rng.randrange(k)
        if rng.random() < 0.75 or t.district_len(j) == 0:
            t.insert(j)
        else:
            t.delete(j)
        for d in range(k):
            n = t.district_len(d)
            if n:
                want = (t.element_position(d, 0), t.element_position(d, n - 1) + 1)
            else:
                start = t._abs_pos(t.leaves[d], 0)
                want = (start, start)
            assert t.district_extent(d) == want, (step, d)
    assert t.counter.gaps_created > 0 and t.counter.gaps_consumed > 0
