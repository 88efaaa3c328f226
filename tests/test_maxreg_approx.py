"""Approximate (k-multiplicative) bounded max register."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxobj import check, maxreg_approx_spec
from relaxobj.maxreg_approx import ApproxMaxRegister, floor_log
from relaxobj.shmem import Memory, distinct_histories
from support import solo


def fresh(k, m):
    mem = Memory()
    return mem, ApproxMaxRegister(mem, k, m)


def test_floor_log_exact_powers():
    # boundaries like v = k**j are exactly where float log goes wrong
    for base in (2, 3, 4, 10):
        for e in range(0, 12):
            v = base**e
            assert floor_log(base, v) == e
            expected_up = e if v + 1 < base ** (e + 1) else e + 1
            assert floor_log(base, v + 1) == expected_up
            if v > 1:
                assert floor_log(base, v - 1) == e - 1


def test_floor_log_validation():
    with pytest.raises(ValueError):
        floor_log(1, 5)
    with pytest.raises(ValueError):
        floor_log(2, 0)


def test_write_maps_to_magnitude_index():
    mem, reg = fresh(2, 2**16)
    solo(reg, mem, [("write", (5,))])  # floor(log2 5) + 1 == 3
    assert solo(reg, mem, [("read", ())]) == [8]
    assert 5 <= 8 <= 5 * 2


def test_k4_boundary_indexes():
    mem, reg = fresh(4, 4**6)
    assert floor_log(4, 1) + 1 == 1
    assert floor_log(4, 4) + 1 == 2
    got = solo(reg, mem, [("write", (1,)), ("read", ()),
                          ("write", (4,)), ("read", ())])
    assert got[1] == 4  # k**1
    assert got[3] == 16  # k**2


def test_fresh_read_is_zero():
    mem, reg = fresh(2, 256)
    assert solo(reg, mem, [("read", ())]) == [0]


def test_writes_1_4_3_with_k4():
    mem, reg = fresh(4, 4**6)
    ops = [("write", (v,)) for v in (1, 4, 3)] + [("read", ())]
    got = solo(reg, mem, ops)[-1]
    assert got == 16  # max index written is 2
    assert 4 <= got <= 4 * 4  # window around true max 4, upper bound tight


def test_validation():
    mem = Memory()
    with pytest.raises(ValueError):
        ApproxMaxRegister(mem, 1, 256)
    with pytest.raises(ValueError):
        ApproxMaxRegister(mem, 2, 1)
    _, reg = fresh(2, 256)
    with pytest.raises(ValueError):
        reg.program(0, "write", (0,))
    with pytest.raises(ValueError):
        reg.program(0, "write", (256,))
    with pytest.raises(ValueError, match="unknown operation"):
        reg.program(0, "inc", ())


def test_inner_capacity():
    _, reg = fresh(2, 256)
    assert reg.capacity == floor_log(2, 255) + 2 == 9
    _, reg = fresh(2, 2**64)
    assert reg.capacity == 65


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(1, 10**6 - 1), min_size=1, max_size=10))
def test_window_and_return_shape_sequential(k, values):
    m = 10**6
    mem, reg = fresh(k, m)
    top = 0
    for v in values:
        solo(reg, mem, [("write", (v,))])
        top = max(top, v)
        (got,) = solo(reg, mem, [("read", ())])
        assert top <= got <= top * k
        # nonzero reads are exact powers k**p with p in [1, floor_log(k, m-1)+1]
        p = floor_log(k, got)
        assert got == k**p
        assert 1 <= p <= floor_log(k, m - 1) + 1


def test_step_bound_every_operation():
    for k, m in [(2, 256), (2, 2**16), (3, 3**9), (5, 10**6)]:
        mem, reg = fresh(k, m)
        bound = reg.step_bound
        for op in [("read", ()), ("write", (1,)), ("write", (m - 1,)),
                   ("read", ()), ("write", (m // 2,)), ("read", ())]:
            before = mem.steps
            solo(reg, mem, [op])
            assert mem.steps - before <= bound
            assert mem.steps - before <= reg.inner.depth  # one inner root-to-leaf walk


def test_wait_freedom_bound_is_schedule_independent():
    # every operation completes within step_bound slots of its own process
    from relaxobj import enumerate_interleavings

    factory = lambda mem: ApproxMaxRegister(mem, 2, 256)
    workload = [[("write", (200,)), ("read", ())], [("write", (9,)), ("read", ())]]
    for result in enumerate_interleavings(factory, workload):
        bound = result.instance.step_bound
        assert all(s <= bound for ops in result.report.per_op for s in ops)


def test_exhaustive_accuracy_window_tiny():
    factory = lambda mem: ApproxMaxRegister(mem, 2, 256)
    workload = [[("write", (40,)), ("read", ())], [("write", (3,)), ("read", ())]]
    spec = maxreg_approx_spec(2)
    for history in distinct_histories(factory, workload):
        assert check(history, spec).valid
