"""Exact bounded max register."""

from __future__ import annotations

import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxobj import check, maxreg_exact_spec, run, seeded
from relaxobj.bench import NativeMemory, drive
from relaxobj.maxreg_exact import BoundedMaxRegister
from relaxobj.shmem import Memory, distinct_histories
from support import solo


def fresh(capacity):
    mem = Memory()
    return mem, BoundedMaxRegister(mem, capacity)


def test_single_write_then_read():
    mem, reg = fresh(8)
    assert solo(reg, mem, [("write", (5,)), ("read", ())]) == [None, 5]


def test_max_of_writes():
    mem, reg = fresh(8)
    got = solo(reg, mem, [("write", (5,)), ("write", (3,)), ("read", ())])
    assert got[-1] == 5


def test_fresh_register_reads_zero():
    mem, reg = fresh(16)
    assert solo(reg, mem, [("read", ())]) == [0]


def test_max_of_write_set():
    mem, reg = fresh(8)
    ops = [("write", (v,)) for v in (3, 7, 2)] + [("read", ())]
    assert solo(reg, mem, ops)[-1] == 7


def test_capacity_one_is_always_zero():
    mem, reg = fresh(1)
    assert solo(reg, mem, [("write", (0,)), ("read", ())]) == [None, 0]
    assert reg.depth == 0


def test_capacity_validation():
    mem = Memory()
    with pytest.raises(ValueError):
        BoundedMaxRegister(mem, 0)
    _, reg = fresh(8)
    with pytest.raises(ValueError):
        reg.program(0, "write", (8,))
    with pytest.raises(ValueError):
        reg.program(0, "write", (-1,))
    with pytest.raises(ValueError):
        reg.program(0, "push", ())


def test_depth_is_ceil_log2():
    for capacity, depth in [(1, 0), (2, 1), (3, 2), (8, 3), (9, 4), (1024, 10),
                            (2**64, 64)]:
        _, reg = fresh(capacity)
        assert reg.depth == depth


def test_construction_allocates_at_most_one_cell():
    for capacity in (2**20, 2**64):
        mem, reg = fresh(capacity)
        assert len(mem.cells) <= 1


def test_untouched_read_allocates_only_its_path():
    for capacity in (1000, 2**20, 2**64):
        mem, reg = fresh(capacity)
        assert solo(reg, mem, [("read", ())]) == [0]
        assert mem.steps == reg.depth
        assert len(mem.cells) <= reg.depth


def test_write_step_bound_m_1024():
    mem, reg = fresh(1024)
    for v in (0, 1, 511, 512, 1023):
        before = mem.steps
        solo(reg, mem, [("write", (v,))])
        assert mem.steps - before <= reg.depth == 10  # ceil(log2 1024) accesses


def test_read_step_bound_m_2_20():
    mem, reg = fresh(2**20)
    before = mem.steps
    solo(reg, mem, [("read", ())])
    assert mem.steps - before <= 20
    solo(reg, mem, [("write", (2**20 - 1,))])
    before = mem.steps
    solo(reg, mem, [("read", ())])
    assert mem.steps - before <= 20


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 64),
       st.lists(st.tuples(st.booleans(), st.integers(0, 63)), max_size=12))
def test_sequential_oracle_equivalence(capacity, script):
    mem, reg = fresh(capacity)
    running = 0
    for is_write, value in script:
        if is_write:
            v = value % capacity
            solo(reg, mem, [("write", (v,))])
            running = max(running, v)
        else:
            assert solo(reg, mem, [("read", ())]) == [running]
    assert solo(reg, mem, [("read", ())]) == [running]


def test_exhaustive_linearizability_small():
    factory = lambda mem: BoundedMaxRegister(mem, 8)
    workload = [[("write", (5,)), ("read", ())],
                [("write", (6,)), ("read", ())]]
    spec = maxreg_exact_spec()
    for history in distinct_histories(factory, workload):
        assert check(history, spec).valid


def test_exhaustive_linearizability_three_processes():
    factory = lambda mem: BoundedMaxRegister(mem, 8)
    workload = [[("write", (5,)), ("read", ())],
                [("write", (7,))],
                [("read", ())]]
    spec = maxreg_exact_spec()
    histories = distinct_histories(factory, workload)
    assert len(histories) > 10
    for history in histories:
        assert check(history, spec).valid


def test_monotone_reads_per_process():
    factory = lambda mem: BoundedMaxRegister(mem, 32)
    workload = [
        [("write", (7,)), ("read", ()), ("write", (29,)), ("read", ()), ("read", ())],
        [("read", ()), ("write", (18,)), ("read", ()), ("read", ())],
    ]
    for seed in range(200):
        result = run(factory, workload, seeded(seed))
        last_by_proc: dict[int, int] = {}
        for e in result.history:
            if e.kind == "respond" and e.op == "read":
                assert e.payload >= last_by_proc.get(e.proc, 0)
                last_by_proc[e.proc] = e.payload


def test_writes_use_only_reads_and_writes():
    # implementable from historyless read/write alone: no test&set cells
    mem, reg = fresh(64)
    random_ops = [("write", (v,)) for v in random.Random(4).sample(range(64), 10)]
    before = mem.steps
    solo(reg, mem, random_ops + [("read", ())])
    assert mem.steps > before
    assert len(mem.cells) > 1
    assert all(c.kind == "register" for c in mem.cells)


class _SlowAllocMemory(NativeMemory):
    """Widens the window in which two threads find the same node untouched."""

    def alloc(self, kind, initial):
        time.sleep(0.001)
        return super().alloc(kind, initial)


def test_native_threads_share_lazily_allocated_switches():
    # 7 raises the root's right child, 5 reads it on the way to its left
    # child; if both threads built their own copy of that node, one copy
    # would be lost and the final read would return 5
    for trial in range(50):
        memory = _SlowAllocMemory()
        reg = BoundedMaxRegister(memory, 8)
        barrier = threading.Barrier(2)

        def writer(pid, v):
            barrier.wait()
            drive(reg.program(pid, "write", (v,)), memory)

        values = (7, 5) if trial % 2 == 0 else (5, 7)
        threads = [threading.Thread(target=writer, args=(pid, v))
                   for pid, v in enumerate(values)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert drive(reg.program(0, "read", ()), memory) == 7
