"""Dynamic district creation ("Creating more cursors", Section 4.3)."""

import random

import pytest

from repro.kcursor import KCursorSparseTable, Params, check_invariants


def test_append_within_capacity():
    t = KCursorSparseTable(2, delta=0.5)  # capacity 2
    # k=2 fills capacity; global mode cannot grow beyond.
    with pytest.raises(RuntimeError):
        t.append_district()


def test_append_local_tau_grows_tree():
    t = KCursorSparseTable(2, delta=0.5, tau_mode="local")
    assert t.capacity == 2
    j = t.append_district()
    assert j == 2
    assert t.capacity == 4
    assert t.k == 3
    t.insert(2)
    check_invariants(t)


def test_growth_preserves_existing_content():
    t = KCursorSparseTable(2, delta=1.0, tau_mode="local", track_values=True)
    for i in range(60):
        t.insert(i % 2, value=i)
    before = [t.district_values(j) for j in range(2)]
    spans_before = [t.district_extent(j) for j in range(2)]
    for _ in range(5):
        t.append_district()
    # Growing the tree moves nothing: old extents and values unchanged.
    assert [t.district_values(j) for j in range(2)] == before
    assert [t.district_extent(j) for j in range(2)] == spans_before
    check_invariants(t)


def test_interleaved_growth_and_ops():
    t = KCursorSparseTable(1, delta=1.0, tau_mode="local", track_values=True)
    rng = random.Random(31)
    for round_ in range(6):
        j = t.append_district() if round_ else 0
        for step in range(200):
            d = rng.randrange(t.k)
            if rng.random() < 0.6 or t.district_len(d) == 0:
                t.insert(d, value=step)
            else:
                t.delete(d)
        check_invariants(t)


def test_local_tau_assignment():
    t = KCursorSparseTable(8, delta=0.5, tau_mode="local")
    # Chunks covering fewer districts get smaller 1/tau (bigger tau).
    for c in t.iter_chunks():
        assert c.it <= t.root.it
    # Left-most leaf covers district 0 only: lg(1) = 0 -> factor * 1.
    leftmost = t.leaves[0]
    assert leftmost.it == t.params.delta_prime_inv * 1


def test_global_tau_uniform():
    t = KCursorSparseTable(8, delta=0.5, tau_mode="global")
    its = {c.it for c in t.iter_chunks()}
    assert len(its) == 1


def test_costs_comparable_between_modes():
    results = {}
    for mode in ("global", "local"):
        t = KCursorSparseTable(8, params=Params.explicit(8, 2), tau_mode=mode)
        rng = random.Random(33)
        for _ in range(20000):
            j = rng.randrange(8)
            if rng.random() < 0.55 or t.district_len(j) == 0:
                t.insert(j)
            else:
                t.delete(j)
        check_invariants(t, density=False, positions=False)
        results[mode] = t.counter.amortized_cost
    # Same asymptotics: within a small constant factor of each other.
    hi, lo = max(results.values()), min(results.values())
    assert hi <= 5 * lo + 5


def test_grown_root_is_buffered_when_large():
    # the fresh root inherits the old root's space; once N >= 2/tau^2 the
    # rest-state discipline needs it BUFFERED right away, not at the
    # next grow
    t = KCursorSparseTable(1, params=Params.explicit(1, 2), tau_mode="local")
    t.extend(0, 26)
    check_invariants(t)
    t.append_district()
    root = t.root
    assert root.N >= 2 * root.it * root.it and root.buffered
    check_invariants(t)
    t.extend(1, 3)
    t.shrink(0, 5)
    check_invariants(t)
