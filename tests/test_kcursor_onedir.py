"""Theorem 19 / Property 2: one-directional rebalances and lost slots."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.kcursor import KCursorSparseTable, Params, check_invariants


def test_ops_never_move_left_districts():
    k = 8
    t = KCursorSparseTable(k, params=Params.explicit(k, 2))
    rng = random.Random(21)
    for step in range(5000):
        j = rng.randrange(k)
        before = [t.district_extent(i) for i in range(j)]
        if rng.random() < 0.55 or t.district_len(j) == 0:
            t.insert(j)
        else:
            t.delete(j)
        after = [t.district_extent(i) for i in range(j)]
        assert before == after, f"op on district {j} moved a left district (step {step})"


def test_no_op_on_untouched_district_positions():
    """Inserting into the last district never moves anything else."""
    k = 8
    t = KCursorSparseTable(k, params=Params.explicit(k, 2))
    for j in range(k):
        t.extend(j, 100)
    before = [t.district_extent(i) for i in range(k - 1)]
    for _ in range(500):
        t.insert(k - 1)
    after = [t.district_extent(i) for i in range(k - 1)]
    assert before == after


def test_lost_slots_bounded_per_op_amortized():
    """Sum over ops of lost slots stays within a polylog(k) multiple of ops
    (the Theorem 19 shape; constants absorbed generously)."""
    k = 8
    t = KCursorSparseTable(k, params=Params.explicit(k, 2))
    rng = random.Random(22)
    for j in range(k):
        t.extend(j, 200)
    total_lost = 0
    ops = 3000
    for _ in range(ops):
        j = rng.randrange(k)
        before = t.district_extents()
        if rng.random() < 0.5 or t.district_len(j) == 0:
            t.insert(j)
        else:
            t.delete(j)
        after = t.district_extents()
        for (b0, b1), (a0, a1) in zip(before, after):
            overlap = max(0, min(b1, a1) - max(b0, a0))
            total_lost += (b1 - b0) - overlap
    H1 = 4  # ceil(lg 8) + 1
    assert total_lost / ops <= 50 * H1**3  # generous constant, shape check


def test_rebuild_records_one_per_level_max():
    """A single op rebuilds each level at most once (insert path)."""
    t = KCursorSparseTable(8, params=Params.explicit(8, 2))
    rng = random.Random(23)
    for step in range(4000):
        j = rng.randrange(8)
        if rng.random() < 0.55 or t.district_len(j) == 0:
            t.insert(j)
        else:
            t.delete(j)
        levels = [r.level for r in t.last_op.rebuilds if r.grow]
        assert len(levels) == len(set(levels))


# ---------------------------------------------------------------------------
# last_dirty: the range of districts an op could have moved.  The
# scheduler repairs only that range, so every district outside it must
# keep its exact extent.

TABLE_CONFIGS = [
    (tau_mode, gaps) for tau_mode in ("global", "local") for gaps in (True, False)
]


def _apply_table_op(t, op):
    """One extend/shrink/insert/delete/append_district; False if skipped."""
    kind, pick, m = op
    if kind == "append":
        if t.k >= t.capacity and t.tau_mode != "local":
            return False
        t.append_district()
        return True
    j = pick % t.k
    if kind == "extend":
        t.extend(j, m)
    elif kind == "insert":
        t.insert(j)
    elif kind == "shrink":
        m = min(m, t.district_len(j))
        if m == 0:
            return False
        t.shrink(j, m)
    elif t.district_len(j):
        t.delete(j)
    else:
        return False
    return True


def _assert_clean_outside_dirty(t, before):
    lo, hi = t.last_dirty
    assert 0 <= lo <= hi <= t.k
    for d, ext in enumerate(before):
        if not lo <= d < hi:
            assert t.district_extent(d) == ext, (
                f"district {d} moved outside last_dirty {t.last_dirty}"
            )


_table_op = st.tuples(
    st.sampled_from(["extend", "extend", "shrink", "shrink", "insert", "delete", "append"]),
    st.integers(0, 63),
    st.integers(1, 300),
)


@pytest.mark.parametrize("tau_mode,gaps", TABLE_CONFIGS)
@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), ops=st.lists(_table_op, min_size=1, max_size=80))
def test_last_dirty_covers_every_moved_district(tau_mode, gaps, k, ops):
    t = KCursorSparseTable(
        k, params=Params.explicit(k, 2), tau_mode=tau_mode, gaps_enabled=gaps
    )
    for op in ops:
        before = t.district_extents()
        if _apply_table_op(t, op):
            _assert_clean_outside_dirty(t, before)


@pytest.mark.parametrize("tau_mode,gaps", TABLE_CONFIGS)
def test_last_dirty_seeded_long_run(tau_mode, gaps):
    """A longer seeded drive: the property holds while the ranges really
    are narrower than [j, k), and gaps and root rebuilds both occur."""
    k = 8
    t = KCursorSparseTable(
        k, params=Params.explicit(k, 2), tau_mode=tau_mode, gaps_enabled=gaps
    )
    rng = random.Random(31)
    narrow = 0
    for _ in range(3000):
        j = rng.randrange(t.k)
        # Lopsided extends to the right districts build the gaps.
        kind = rng.choice(["extend", "extend", "shrink", "insert", "delete"])
        op = (kind, j, rng.randint(1, 4 if j < t.k // 2 else 60))
        before = t.district_extents()
        if _apply_table_op(t, op):
            _assert_clean_outside_dirty(t, before)
            narrow += t.last_dirty[1] < t.k
    check_invariants(t)
    assert narrow > 1000
    assert t.counter.rebuilds_by_level.get(t.root.level, 0) > 0
    if gaps:
        assert t.counter.gaps_created > 0
