"""Substrate and scheduler behavior."""

from __future__ import annotations

import hashlib
import json
import random
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxobj import bench, check, counter_spec, shmem
from relaxobj.cli import parse_workload
from relaxobj.counter import ApproxCounter
from relaxobj.shmem import (History, IllegalAccess, LazyCells, Memory, NativeMemory,
                            Runner, distinct_histories, enumerate_interleavings, run,
                            seeded, trace_lines)
from support import SpinInstance, history_from_json, random_counter_workload, spin_workload


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
    pair = mem.alloc("register", (0, 0))
    assert mem.access(("tas", bit)) == 0
    assert bit.value == 1
    assert mem.access(("tas", bit)) == 1  # stays set
    assert bit.value == 1
    assert mem.access(("write", reg, 5)) is None
    assert mem.access(("read", reg)) == 5
    mem.access(("write", pair, (3, 4)))  # a register holds a pair as one value
    assert mem.access(("read", pair)) == (3, 4)
    assert mem.steps == 6


@pytest.mark.parametrize("memory_class", [Memory, NativeMemory],
                         ids=lambda c: c.__name__)
def test_illegal_primitive_kind_combinations(memory_class):
    mem = memory_class()
    bit = mem.alloc("tas", 0)
    reg = mem.alloc("register", 0)
    with pytest.raises(IllegalAccess):
        mem.access(("tas", reg))
    with pytest.raises(IllegalAccess):
        mem.access(("write", bit, 1))
    with pytest.raises(IllegalAccess):
        mem.access(("frobnicate", reg))
    with pytest.raises(IllegalAccess):
        mem.access(("write", reg))  # a write request without a value
    assert (reg.value, bit.value, mem.steps) == (0, 0, 0)  # no illegal access changed state
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
    cell = cells[70]
    assert mem.cells == [cell]  # touching index 70 allocates exactly one cell
    assert (cell.kind, cell.value) == (kind, 0)
    assert cell is cells[70]
    assert mem.steps == 0  # allocation is never a charged step


def test_lazy_cells_concurrent_first_touch_shares_the_first_published_cell():
    mem = NativeMemory()
    cells = LazyCells(mem, shmem.TAS)
    both_allocated = threading.Barrier(2, timeout=10)
    alloc = mem.alloc

    def alloc_then_wait(kind, initial):
        # both threads allocate before either publishes its cell
        cell = alloc(kind, initial)
        both_allocated.wait()
        return cell

    mem.alloc = alloc_then_wait
    touched = [None, None]

    def touch(i):
        touched[i] = cells[3]

    threads = [threading.Thread(target=touch, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert touched[0] is touched[1]
    assert len(mem.cells) == 2  # each thread allocated a cell
    assert cells == {3: touched[0]}  # only the first one published


def test_sequential_schedule_completes_both_processes():
    factory = lambda mem: SpinInstance(mem)
    # a one-shot iterator runs as the equal list does
    for schedule in ([0, 0, 1, 1], iter([0, 0, 1, 1])):
        result = run(factory, spin_workload(2, 2), schedule)
        kinds = [(e.kind, e.proc) for e in result.history]
        assert kinds == [("invoke", 0), ("invoke", 1),
                         ("respond", 0), ("respond", 1)]
        assert result.report.total_steps == 4


def test_skipped_slots_recorded_not_fatal():
    factory = lambda mem: SpinInstance(mem)
    result = run(factory, spin_workload(1, 1), [0, 0, 0, 1],
                 record_trace=True)
    assert result.schedule == (0, 0, 0, 1)
    assert [t[1] for t in result.trace] == [0, 1]  # slots 1 and 2 ran nothing
    assert result.report.total_steps == 2


REPLAY_CASES = {
    **{f"counter seed {seed}": (bench.factory("counter", 2, 2, None),
                                parse_workload("p0:inc,inc,read;p1:inc,read"), seeded(seed))
       for seed in range(5)},
    # slots 1 and 2 find process 0 with nothing to run
    "skipped slots": (lambda mem: SpinInstance(mem), spin_workload(1, 1),
                      [0, 0, 0, 1]),
}


@pytest.mark.parametrize("name", REPLAY_CASES)
def test_run_schedule_replays_the_run(name):
    factory, workload, schedule = REPLAY_CASES[name]
    first = run(factory, workload, schedule, record_trace=True)
    again = run(factory, workload, first.schedule, record_trace=True)
    assert again.schedule == first.schedule
    assert again.trace == first.trace
    assert again.history.signature() == first.history.signature()
    assert again.report == first.report


def test_run_without_history_keeps_no_per_slot_list():
    # bench records no history, so its runs of 10^6 ops keep no schedule
    runner = Runner(lambda mem: SpinInstance(mem), spin_workload(2, 1), record_history=False)
    runner.advance(seeded(1)(runner))
    result = runner.result()
    assert result.runner.schedule is None and result.schedule is None
    assert result.report.total_steps == 3


def test_mid_run_result_is_a_snapshot():
    # a result taken mid-run keeps the run as it stood, which its schedule replays
    factory = bench.factory("counter", 2, 2, None)
    workload = [[("inc", ()), ("read", ())] for _ in range(2)]
    runner = Runner(factory, workload, record_trace=True)
    runner.advance([0, 1])
    result = runner.result()
    trace, events = list(result.trace), list(result.history)
    runner.advance(seeded(1)(runner))
    assert not runner.active and len(runner.trace) > len(trace)
    assert result.trace == trace
    assert list(result.history) == events
    again = run(factory, workload, list(result.schedule), record_trace=True)
    assert again.trace == result.trace
    assert list(again.history) == list(result.history)


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


def test_seeded_picks_as_random_choice_does():
    # Random.choice is the reference for the inlined draw; the five spins end
    # at different times, so the active list takes every length from 5 to 1
    lengths = set()
    for seed in range(60):
        runner = Runner(SpinInstance, spin_workload(2, 4, 6, 9, 13))
        reference = random.Random(seed)
        for p in seeded(seed)(runner):
            lengths.add(len(runner.active))
            assert p == reference.choice(runner.active)
            runner.step(p)
        assert runner.memory.steps == 34
    assert lengths == {1, 2, 3, 4, 5}


def _advance_runner(pids):
    runner = Runner(SpinInstance, spin_workload(1, 2, 1))
    return runner, iter(pids)


def test_advance_with_target_met_runs_no_slot():
    runner, pids = _advance_runner([0, 1])
    runner.advance(pids, until_ops=0)
    assert runner.ops_completed == 0
    assert runner.schedule == [] and runner.memory.steps == 0
    assert next(pids) == 0


def test_advance_stops_at_the_completing_slot_and_resumes():
    runner, pids = _advance_runner([0, 1, 2, 1, 0])
    # slot 0 completes an operation short of the target; slot 2 reaches it
    runner.advance(pids, until_ops=2)
    assert runner.schedule == [0, 1, 2] and runner.ops_completed == 2
    runner.advance(pids, until_ops=3)
    assert runner.schedule == [0, 1, 2, 1] and runner.ops_completed == 3
    runner.advance(pids, until_ops=4)  # the last slot is a skip, short of the target
    assert runner.schedule == [0, 1, 2, 1, 0] and runner.ops_completed == 3


def test_step_conservation():
    factory = lambda mem: SpinInstance(mem)
    # the truncated schedule leaves both operations in flight
    for schedule in (seeded(7), [0, 1, 1]):
        result = run(factory, spin_workload(3, 5), schedule)
        report = result.report
        per_op_total = sum(sum(ops) for ops in report.per_op)
        assert per_op_total == result.runner.memory.steps == report.total_steps
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


def _explored(factory, workload, reduction):
    """(leaves, {signature: {per-op step vectors}}, worst per-op steps) of one exploration."""
    steps: dict[tuple, set] = {}
    leaves = worst = 0
    for result in enumerate_interleavings(factory, workload, reduction=reduction):
        leaves += 1
        report, signature = result.report, result.history.signature()
        steps.setdefault(signature, set()).add(tuple(map(tuple, report.per_op)))
        worst = max(worst, report.max_op_steps())
        if reduction:  # a reduced leaf's schedule replays it too
            assert run(factory, workload, result.schedule).history.signature() == signature
    return leaves, steps, worst


def _reduced_leaves_if_agreeing(factory, workload) -> int:
    """Leaves of the reduced exploration, once it matches the full one."""
    full = _explored(factory, workload, None)
    reduced = _explored(factory, workload, "dpor")
    assert reduced[1] == full[1]  # same histories, each with the same per-op steps
    assert reduced[2] == full[2]
    assert reduced[0] <= full[0]
    return reduced[0]


# (object, n, k, m, workload, leaves of the reduced exploration)
ORACLE_WORKLOADS = {
    "criterion 2": ("maxreg-exact", 2, 2, 8,
                    "p0:write(5),write(3),read;p1:write(6),read,read", 44),
    "criterion 3a": ("maxreg-approx", 2, 2, 256,
                     "p0:write(16),write(250),read;p1:write(2),read,write(130)", 103),
    "criterion 5a": ("counter", 2, 2, None, "p0:inc,inc,read,inc;p1:inc,read,inc,read", 71),
    "exact three processes": ("maxreg-exact", 3, 2, 8, "p0:write(5),read;p1:write(7);p2:read",
                              68),
    "counter low count": ("counter", 4, 2, None, "p0:inc,inc;p1:inc;p2:inc;p3:inc,read",
                          202),
    "counter three processes": ("counter", 3, 2, None,
                                "p0:inc,read;p1:inc,read;p2:inc,read", 90),
    # two writes of 3 set the same switches, the later one without changing them
    "exact same-value writes": ("maxreg-exact", 3, 2, 4,
                                "p0:write(3),read;p1:write(3);p2:write(2)", 48),
    # four increments race for ladder bit 0 and the one unit bit; each loser's tas finds a set bit
    "counter one unit bit": ("counter", 5, 2, None, "p0:inc;p1:inc;p2:inc;p3:inc;p4:read",
                             120),
    # one execution ends blocked: once p1's write(5) has set the root switch
    # and p2's write(2) has returned on reading it, p0 alone is armed, asleep
    "exact blocked execution": ("maxreg-exact", 3, 2, 8, "p0:write(3);p1:write(5);p2:write(2)",
                                20),
}


@pytest.mark.parametrize("name", ORACLE_WORKLOADS)
def test_dpor_agrees_with_full_enumeration(name):
    obj, n, k, m, ops, leaves = ORACLE_WORKLOADS[name]
    factory = bench.factory(obj, n, k, m)
    assert _reduced_leaves_if_agreeing(factory, parse_workload(ops, n)) == leaves


@pytest.mark.parametrize("name, digest", [("criterion 3a", "c7a8551b3be79463"),
                                          ("criterion 5a", "0df3dc5d7d8a858f")])
def test_dpor_leaf_order_is_pinned(name, digest):
    # a change to the explorer that keeps its leaves must keep their order too
    obj, n, k, m, ops, leaves = ORACLE_WORKLOADS[name]
    schedules = [leaf.schedule for leaf in enumerate_interleavings(
        bench.factory(obj, n, k, m), parse_workload(ops, n), reduction="dpor")]
    assert len(schedules) == leaves
    assert hashlib.sha256(repr(schedules).encode()).hexdigest()[:16] == digest


# (object, n, k, m, workload, leaves, digest of every leaf's schedule, history and per-op steps)
_PINNED_LEAVES = {
    "criterion 3a": (*ORACLE_WORKLOADS["criterion 3a"][:5], 103, "569f03fc374dbeb3"),
    "criterion 5a": (*ORACLE_WORKLOADS["criterion 5a"][:5], 71, "e012a14428d045af"),
    "counter three processes, two incs": (
        "counter", 3, 2, None, "p0:inc,inc,read;p1:inc,inc,read;p2:inc,inc,read", 2808,
        "a1f254f09daa59b5"),
    "exact blocked execution": (*ORACLE_WORKLOADS["exact blocked execution"], "0c566f5d57298b1a"),
}


@pytest.mark.parametrize("name", _PINNED_LEAVES)
def test_dpor_leaf_content_is_pinned(name):
    # a change to the explorer that keeps its leaves must keep each leaf's
    # history and per-op steps byte for byte, not only its schedule
    obj, n, k, m, ops, leaves, digest = _PINNED_LEAVES[name]
    content = hashlib.sha256()
    count = 0
    for leaf in enumerate_interleavings(bench.factory(obj, n, k, m), parse_workload(ops, n),
                                        reduction="dpor"):
        count += 1
        content.update(repr((leaf.schedule, leaf.history.to_json(),
                             leaf.report.per_op)).encode())
    assert count == leaves
    assert content.hexdigest()[:16] == digest


def test_sleep_set_blocked_execution_is_explored_but_not_yielded(monkeypatch):
    # an execution whose armed processes are all asleep still has its races
    # reversed, but it is no leaf: the exploration runs one execution more
    obj, n, k, m, ops, leaves = ORACLE_WORKLOADS["exact blocked execution"]
    executions = []
    add_reversals = shmem._add_reversals

    def counted(path, start, index):
        executions.append(start)
        add_reversals(path, start, index)

    monkeypatch.setattr(shmem, "_add_reversals", counted)
    stats: dict = {}
    histories = distinct_histories(bench.factory(obj, n, k, m), parse_workload(ops, n), stats)
    assert stats == {"leaves": leaves}
    assert len(executions) == leaves + 1
    assert len(histories) == 6


@pytest.mark.parametrize("name", ORACLE_WORKLOADS)
def test_happens_before_masks_are_the_closure_of_dependence(name):
    # the race index must give each slot of a replayed leaf the earlier slots
    # that happen before it: the transitive closure of pairwise _dependent
    obj, n, k, m, ops, _ = ORACLE_WORKLOADS[name]
    factory, workload = bench.factory(obj, n, k, m), parse_workload(ops, n)
    for leaf in enumerate_interleavings(factory, workload, reduction="dpor"):
        runner, path = Runner(factory, workload), []
        for pid in leaf.schedule:
            request = runner._armed[pid][2]
            node = shmem._Node(pid, {})
            effect = shmem._effect(request)  # before the step can change the cell
            node.slot = (pid, request[1].oid, effect, runner.step(pid))
            path.append(node)
        shmem._add_reversals(path, 0, shmem._Index())
        closure: list[int] = []
        for j, node in enumerate(path):
            closure.append(0)
            for i in range(j):
                if shmem._dependent(path[i].slot, node.slot):
                    closure[j] |= 1 << i | closure[i]
        assert [node.before for node in path] == closure, leaf.schedule


# (factory, workload): every object the harness runs, and the test object
_RESTORE_CASES = {
    "counter": (bench.factory("counter", 3, 2, None),
                [[("inc", ()), ("inc", ()), ("read", ()), ("inc", ()), ("read", ())],
                 [("inc", ()), ("read", ()), ("inc", ()), ("inc", ()), ("read", ())],
                 [("read", ()), ("inc", ()), ("inc", ()), ("read", ())]]),
    "maxreg-exact": (bench.factory("maxreg-exact", 3, 2, 64),
                     [[("write", (5,)), ("read", ()), ("write", (40,))],
                      [("write", (33,)), ("read", ()), ("write", (2,))],
                      [("read", ()), ("write", (63,)), ("read", ())]]),
    "maxreg-approx": (bench.factory("maxreg-approx", 3, 2, 256),
                      [[("write", (16,)), ("write", (250,)), ("read", ())],
                       [("write", (2,)), ("read", ()), ("write", (130,))],
                       [("read", ()), ("write", (7,))]]),
    # a spin of 0 completes at its invocation, as a private increment does
    "spin": (SpinInstance, [[("spin", (2,)), ("spin", (0,)), ("spin", (3,))],
                            [("spin", (1,))], [("spin", (0,)), ("spin", (4,))]]),
}
assert set(bench.OBJECTS) < set(_RESTORE_CASES)


def _state(runner):
    """What a runner's future depends on, and what it has recorded, oids aside."""
    report = runner.report()
    trace = [(step, pid, primitive, arg, result)
             for step, pid, _oid, primitive, arg, result in runner.trace or ()]
    return (History(runner.events).to_json(), tuple(runner.schedule), report.per_op,
            report.histogram, report.total_steps, report.op_count, runner.ops_completed,
            list(runner.active), trace)


@pytest.mark.parametrize("name", _RESTORE_CASES)
def test_restored_runner_continues_as_a_fresh_run(name):
    # the reduced explorer's runner, cut back to slot k after running some
    # other continuation, must go on exactly as a run that never left the
    # path: same history, per-op steps and response of every access
    factory, workload = _RESTORE_CASES[name]
    for seed in range(6):
        fresh = run(factory, workload, seeded(seed), record_trace=True)
        schedule = fresh.schedule
        runner = shmem._Restorable(factory, workload, record_trace=True)
        for k in sorted({0, 1, len(schedule) // 3, len(schedule) // 2, len(schedule) - 1},
                        reverse=True):
            runner.advance(schedule[len(runner.schedule):k])
            runner.advance(seeded(seed + 100 + k)(runner))  # another continuation
            runner.restore(k)
            prefix = Runner(factory, workload, record_trace=True)
            prefix.advance(schedule[:k])
            assert _state(runner) == _state(prefix), (seed, k)
            runner.advance(schedule[k:])
            assert _state(runner) == _state(fresh.runner), (seed, k)
            runner.restore(k)  # the next, smaller k starts from this one


def test_explored_objects_declare_their_process_state():
    # the reduced explorer restores each process's state from the attribute
    # that the object names; an object that names none cannot be explored
    for obj in bench.OBJECTS:
        instance = bench.factory(obj, 3, 2, 64)(Memory())
        name = type(instance).process_state
        assert name is None or len(getattr(instance, name)) == 3

    class Undeclared:
        def __init__(self, memory):
            self.cell = memory.alloc("register", 0)

        def program(self, pid, op, args=()):
            return None

    with pytest.raises(AttributeError, match="process_state"):
        next(enumerate_interleavings(Undeclared, [[("op", ())]], reduction="dpor"))


def test_effect_classifies_accesses_that_change_nothing_as_reads():
    mem = Memory()
    reg, bit = mem.alloc("register", 5), mem.alloc("tas", 0)
    pair = mem.alloc("register", (1, 2))
    assert shmem._effect(("read", reg)) == "read"
    assert shmem._effect(("write", reg, 5)) == "read"
    assert shmem._effect(("write", reg, 6)) == "write"
    assert shmem._effect(("write", pair, (1, 2))) == "read"
    assert shmem._effect(("write", pair, (2, 1))) == "write"
    assert shmem._effect(("tas", bit)) == "tas"
    mem.access(("tas", bit))
    assert shmem._effect(("tas", bit)) == "read"
    assert mem.steps == 1  # classifying a request performs no access


@st.composite
def _small_workloads(draw):
    # m = 4 and m = 8 give two-level trees; with at most five operations in
    # all, the full enumeration stays fast
    obj, m = draw(st.sampled_from([("counter", None), ("maxreg-exact", 4),
                                   ("maxreg-approx", 8)]))
    if obj == "counter":
        op = st.sampled_from([("inc", ()), ("read", ())])
    else:
        op = st.one_of(st.just(("read", ())),
                       st.builds(lambda v: ("write", (v,)), st.integers(1, m - 1)))
    workload = draw(st.lists(st.lists(op, min_size=1, max_size=3), min_size=2, max_size=3)
                    .filter(lambda w: sum(map(len, w)) <= 5))
    return obj, m, workload


@settings(max_examples=100, deadline=None)
@given(_small_workloads())
def test_dpor_agrees_with_full_enumeration_on_small_workloads(case):
    obj, m, workload = case
    _reduced_leaves_if_agreeing(bench.factory(obj, len(workload), 2, m), workload)


def test_distinct_histories_reproducible_and_counts_leaves():
    factory = bench.factory("maxreg-approx", 2, 2, 256)
    workload = parse_workload(ORACLE_WORKLOADS["criterion 3a"][4])
    stats: dict = {}
    first = [h.to_json() for h in distinct_histories(factory, workload, stats)]
    assert stats == {"leaves": 103}
    assert [h.to_json() for h in distinct_histories(factory, workload)] == first
    assert len(first) == 38


_THREE_PROCESS_COUNTER = "counter three processes, two incs"


@pytest.mark.parametrize("case", [*ORACLE_WORKLOADS.values(),
                                  _PINNED_LEAVES[_THREE_PROCESS_COUNTER]],
                         ids=[*ORACLE_WORKLOADS, _THREE_PROCESS_COUNTER])
def test_distinct_histories_keeps_the_first_reduced_leaf_of_each_signature(case):
    # what distinct_histories keeps must be the first reduced leaf's history
    # of each signature, in order and steps included, and it counts every leaf
    obj, n, k, m, ops = case[:5]
    factory, workload = bench.factory(obj, n, k, m), parse_workload(ops, n)
    first: dict[tuple, str] = {}
    leaves = 0
    for leaf in enumerate_interleavings(factory, workload, reduction="dpor"):
        leaves += 1
        first.setdefault(leaf.history.signature(), leaf.history.to_json())
    stats: dict = {}
    kept = [h.to_json() for h in distinct_histories(factory, workload, stats)]
    assert kept == list(first.values())
    assert stats == {"leaves": leaves}


@pytest.mark.parametrize("name", ORACLE_WORKLOADS)
def test_reduced_leaves_stay_snapshots_after_the_explorer_moves_on(name):
    # the explorer restores one runner between leaves; a leaf kept past that
    # must still hold the run its schedule replays, and the report it builds
    # when first read must be that run's
    obj, n, k, m, ops, leaves = ORACLE_WORKLOADS[name]
    factory, workload = bench.factory(obj, n, k, m), parse_workload(ops, n)
    kept = list(enumerate_interleavings(factory, workload, reduction="dpor"))
    assert len(kept) == leaves
    for leaf in kept:
        fresh = run(factory, workload, leaf.schedule)
        assert leaf.schedule == fresh.schedule
        assert leaf.history.to_json() == fresh.history.to_json()
        assert leaf.report == fresh.report


def test_dpor_reaches_three_process_counter():
    # the full enumeration of this workload does not finish in 100 s
    factory = bench.factory("counter", 3, 2, None)
    stats: dict = {}
    histories = distinct_histories(factory, parse_workload(
        "p0:inc,inc,read;p1:inc,inc,read;p2:inc,inc,read"), stats)
    assert stats == {"leaves": 2808}
    assert len(histories) == 780
    spec = counter_spec(2)
    assert all(check(h, spec).valid for h in histories)


def test_unknown_reduction_rejected():
    with pytest.raises(ValueError):
        enumerate_interleavings(lambda mem: SpinInstance(mem), spin_workload(1), "por")


def test_history_json_roundtrip():
    factory = lambda mem: SpinInstance(mem)
    result = run(factory, spin_workload(1, 2), seeded(3))
    text = result.history.to_json()
    parsed = json.loads(text)
    assert all(doc["type"] in ("invoke", "respond") for doc in parsed)
    back = history_from_json(text)
    assert back.signature() == result.history.signature()
    assert list(back) == list(result.history)  # steps included
    assert back.signature() == tuple((e.kind, e.proc, e.op, e.payload) for e in back)
    with pytest.raises(AttributeError):
        list(back)[0].step = 1
    # a tuple return value comes back from JSON's list as a tuple
    pair = History([shmem.Event("invoke", 0, "read", (), 0),
                    shmem.Event("respond", 0, "read", (3, 1), 1)])
    assert list(history_from_json(pair.to_json())) == list(pair)


def _operation_tuples(history):
    return [(o.proc, o.index, o.name, o.args, o.ret, o.invoked, o.responded)
            for o in history.operations()]


def _check_outcome(history, spec):
    result = check(history, spec)
    witness = None if result.witness is None else [(o.proc, o.index) for o in result.witness]
    return result.verdict, result.states_explored, witness


def test_runner_records_plain_tuples_and_history_hands_out_events():
    # the Runner records plain tuples, built far faster than named tuples;
    # a History rebuilt from its Event views reads, serializes and checks
    # exactly as the recorded one does
    leaves = []
    for seed in range(20):
        rng = random.Random(seed)
        workload = random_counter_workload(rng, 4, 24)
        leaves.append(run(lambda mem: ApproxCounter(mem, 4, 2), workload,
                          seeded(rng.randrange(2**62))))
    criterion_5a = [[("inc", ()), ("inc", ()), ("read", ()), ("inc", ())],
                    [("inc", ()), ("read", ()), ("inc", ()), ("read", ())]]
    leaves += enumerate_interleavings(lambda mem: ApproxCounter(mem, 2, 2), criterion_5a,
                                      reduction="dpor")
    spec = counter_spec(2)
    for result in leaves:
        history = result.history
        assert all(type(e) is tuple for e in result.runner.events)
        assert all(type(e) is shmem.Event for e in history)
        copy = History(list(history))
        assert copy.signature() == history.signature()
        assert copy.to_json() == history.to_json()
        assert _operation_tuples(copy) == _operation_tuples(history)
        assert _check_outcome(copy, spec) == _check_outcome(history, spec)


@pytest.mark.parametrize("events", [
    [{"type": "invoke", "proc": 0, "op": "inc"}, {"type": "invoke", "proc": 0, "op": "inc"}],
    [{"type": "respond", "proc": 0, "op": "inc", "ret": None}],
    [{"type": "invoke", "proc": 0, "op": "inc"}, {"type": "cancel", "proc": 0, "op": "inc"}],
], ids=["double invoke", "unmatched response", "unknown kind"])
def test_malformed_history_operations_rejected(events):
    history = history_from_json(json.dumps(events))
    with pytest.raises(ValueError):
        history.operations()


def test_trace_format():
    factory = lambda mem: SpinInstance(mem)
    result = run(factory, spin_workload(2), [0, 0], record_trace=True)
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
    announce = result.instance.announce_oid_to_proc()  # the cells that start at (0, 0)
    shadow: dict[int, object] = {oid: (0, 0) for oid in announce}
    for _step, _pid, oid, primitive, arg, res in result.trace:
        if primitive == "read":
            assert res == shadow.get(oid, 0)
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


@pytest.mark.parametrize("pids", [[0, 3], [-1]], ids=["above-n", "negative"])
def test_run_rejects_undeclared_process(pids):
    memories = []

    def factory(mem):
        memories.append(mem)
        return SpinInstance(mem)

    with pytest.raises(ValueError, match="undeclared process"):
        run(factory, spin_workload(1), pids)
    assert [mem.steps for mem in memories] == [0]  # no slot ran, not even the valid one


@pytest.mark.parametrize("pids, steps", [([-1], 0), ([0, 3], 1)],
                         ids=["negative", "above-n"])
def test_schedule_function_rejects_undeclared_process(pids, steps):
    memories = []

    def factory(mem):
        memories.append(mem)
        return SpinInstance(mem)

    with pytest.raises(ValueError, match="undeclared process"):
        run(factory, spin_workload(1, 1), lambda runner: iter(pids))
    assert [mem.steps for mem in memories] == [steps]  # the bad pid's slot never ran
