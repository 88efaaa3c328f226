"""Substrate and scheduler behavior."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxobj import shmem
from relaxobj.shmem import (History, IllegalAccess, LazyCells, Memory, NativeMemory,
                            enumerate_interleavings, explicit, run, seeded,
                            trace_lines)
from support import SpinInstance, spin_workload


def test_alloc_initial_values():
    mem = Memory()
    bit = mem.alloc("tas", 0)
    assert bit.value == 0
    reg = mem.alloc("register", 7)
    assert reg.value == 7
    with pytest.raises(ValueError):
        mem.alloc("tas", 1)
    with pytest.raises(ValueError):
        mem.alloc("pair", 3)
    with pytest.raises(ValueError):
        mem.alloc("bogus", 0)


def test_access_semantics_and_step_charging():
    mem = Memory()
    bit = mem.alloc("tas", 0)
    reg = mem.alloc("register", 0)
    pair = mem.alloc("pair", (0, 0))
    assert mem.access(0, bit, "tas") == 0
    assert bit.value == 1
    assert mem.access(0, bit, "tas") == 1  # stays set
    assert bit.value == 1
    assert mem.access(1, reg, "write", 5) is None
    assert mem.access(1, reg, "read") == 5
    mem.access(0, pair, "write", (3, 4))
    assert mem.access(0, pair, "read") == (3, 4)
    assert mem.steps == 6


@pytest.mark.parametrize("memory_class", [Memory, NativeMemory],
                         ids=lambda c: c.__name__)
def test_illegal_primitive_kind_combinations(memory_class):
    mem = memory_class()
    bit = mem.alloc("tas", 0)
    reg = mem.alloc("register", 0)
    with pytest.raises(IllegalAccess):
        mem.access(0, reg, "tas")
    with pytest.raises(IllegalAccess):
        mem.access(0, bit, "write", 1)
    with pytest.raises(IllegalAccess):
        mem.access(0, reg, "frobnicate")
    with pytest.raises(ValueError):
        mem.alloc("tas", 1)
    with pytest.raises(ValueError):
        mem.alloc("pair", 7)
    with pytest.raises(ValueError):
        mem.alloc("bogus", 0)


@pytest.mark.parametrize("kind", [shmem.TAS, shmem.REGISTER])
def test_lazy_cells_allocate_on_first_touch_without_steps(kind):
    mem = Memory()
    cells = LazyCells(mem, kind)
    cell = cells.cell(70)
    assert mem.cells == [cell]  # touching index 70 allocates exactly one cell
    assert (cell.kind, cell.value) == (kind, 0)
    assert cell is cells.cell(70)
    assert mem.steps == 0  # allocation is never a charged step


def test_sequential_schedule_completes_both_processes():
    factory = lambda mem: SpinInstance(mem)
    result = run(factory, spin_workload(2, 2), explicit([0, 0, 1, 1]))
    kinds = [(e.kind, e.proc) for e in result.history]
    assert kinds == [("invoke", 0), ("invoke", 1),
                     ("respond", 0), ("respond", 1)]
    assert result.report.total_steps == 4


def test_skipped_slots_recorded_not_fatal():
    factory = lambda mem: SpinInstance(mem)
    result = run(factory, spin_workload(1, 1), explicit([0, 0, 0, 1]))
    assert result.runner.skipped == [(1, 0), (2, 0)]
    assert result.report.total_steps == 2


def test_replay_determinism():
    factory = lambda mem: SpinInstance(mem)
    workload = spin_workload(3, 2, 4)
    a = run(factory, workload, seeded(42), record_trace=True)
    b = run(factory, workload, seeded(42), record_trace=True)
    assert a.history.signature() == b.history.signature()
    assert a.trace == b.trace
    assert a.report == b.report
    c = run(factory, workload, seeded(43), record_trace=True)
    assert c.trace != a.trace


def test_step_conservation():
    factory = lambda mem: SpinInstance(mem)
    # the truncated schedule leaves both operations in flight
    for schedule in (seeded(7), explicit([0, 1, 1])):
        result = run(factory, spin_workload(3, 5), schedule)
        report = result.report
        per_op_total = sum(sum(ops) for ops in report.per_op)
        assert per_op_total == result.memory.steps == report.total_steps
        assert report.histogram == Counter(steps for ops in report.per_op for steps in ops)
        assert report.op_count == sum(report.histogram.values())


@pytest.mark.parametrize("steps,expected", [((1, 1), 2), ((2, 2), 6), ((3, 3), 20)])
def test_interleaving_counts_are_binomial(steps, expected):
    factory = lambda mem: SpinInstance(mem)
    results = list(enumerate_interleavings(factory, spin_workload(*steps)))
    assert len(results) == expected
    assert len({r.schedule for r in results}) == expected  # each exactly once


def test_single_process_has_one_interleaving():
    factory = lambda mem: SpinInstance(mem)
    results = list(enumerate_interleavings(factory, spin_workload(4)))
    assert len(results) == 1


def test_enumerate_workload_of_iterators_matches_lists():
    # every leaf replays its prefix, so one pass over an iterator must suffice
    factory = lambda mem: SpinInstance(mem)
    workload = [[("spin", (1,)), ("spin", (2,))], [("spin", (2,))], [("spin", (1,))]]
    as_lists = [r.schedule for r in enumerate_interleavings(factory, workload)]
    as_iterators = [r.schedule for r in
                    enumerate_interleavings(factory, [iter(ops) for ops in workload])]
    assert as_iterators == as_lists
    assert len(as_lists) == 60  # 6! / (3! 2! 1!)


def test_history_json_roundtrip():
    factory = lambda mem: SpinInstance(mem)
    result = run(factory, spin_workload(1, 2), seeded(3))
    text = result.history.to_json()
    parsed = json.loads(text)
    assert all(doc["type"] in ("invoke", "respond") for doc in parsed)
    back = History.from_json(text)
    assert back.signature() == result.history.signature()


def test_trace_format():
    factory = lambda mem: SpinInstance(mem)
    result = run(factory, spin_workload(2), explicit([0, 0]), record_trace=True)
    lines = trace_lines(result.trace)
    assert len(lines) == 2
    step, pid, oid, primitive, arg, res = lines[0].split("\t")
    assert (step, pid, primitive, arg, res) == ("0", "0", "read", "-", "0")


def test_atomicity_reads_see_latest_write():
    # replay a trace with all three primitives in play: every read observes
    # the most recent prior write/test&set to that object in step order
    from relaxobj.counter import ApproxCounter

    factory = lambda mem: ApproxCounter(mem, 3, 2)
    workload = [[("inc", ())] * 6 + [("read", ())] for _ in range(3)]
    result = run(factory, workload, seeded(11), record_trace=True)
    assert {t[3] for t in result.trace} == {"read", "write", "tas"}
    shadow: dict[int, object] = {}
    initial = {c.oid: c for c in result.memory.cells}
    for _step, _pid, oid, primitive, arg, res in result.trace:
        if primitive == "read":
            assert res == shadow.get(oid, 0 if initial[oid].kind != "pair" else (0, 0))
        elif primitive == "write":
            shadow[oid] = arg
        elif primitive == "tas":
            assert res == shadow.get(oid, 0)
            shadow[oid] = 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3), st.integers(0, 2**31))
def test_random_schedules_complete_everything(step_counts, seed):
    factory = lambda mem: SpinInstance(mem)
    result = run(factory, spin_workload(*step_counts), seeded(seed))
    assert not result.runner.active
    assert result.report.op_count == len(step_counts)
    responded = [e for e in result.history if e.kind == "respond"]
    assert len(responded) == len(step_counts)
    assert result.report.total_steps == sum(step_counts)


def test_history_alternates_invoke_respond_per_process():
    factory = lambda mem: SpinInstance(mem)
    result = run(factory, spin_workload(2, 3), seeded(5))
    state: dict[int, str] = {}
    for e in result.history:
        if e.kind == "invoke":
            assert state.get(e.proc) != "open"
            state[e.proc] = "open"
        else:
            assert state.get(e.proc) == "open"
            state[e.proc] = "closed"


def test_explicit_schedule_rejects_undeclared_process():
    factory = lambda mem: SpinInstance(mem)
    with pytest.raises(ValueError):
        run(factory, spin_workload(1), explicit([0, 3]))
