"""Approximate counter: hand-derived fixtures and structural invariants."""

from __future__ import annotations

import inspect
import random

import pytest

from relaxobj import bench, check, counter_spec, return_value, run, seeded
from relaxobj.bench import BenchConfig
from relaxobj.counter import ApproxCounter
from relaxobj.shmem import Memory, drive
from support import oid_to_index, random_counter_workload, set_indexes, solo, traced

INC = ("inc", ())
READ = ("read", ())


def test_return_value_k4():
    assert return_value(0, 0, 4) == 4
    assert return_value(1, 0, 4) == 20
    assert return_value(0, 1, 4) == 68


def _summed_return_value(p, q, k):
    # the defining sum k*(1 + p*k**(q+1) + sum of k**(l+1) for l = 1..q), term by term
    ret = 1 + p * k ** (q + 1)
    for l in range(1, q + 1):
        ret += k ** (l + 1)
    return k * ret


def test_return_value_equals_its_defining_sum():
    for k in range(2, 9):
        for q in range(41):
            for p in range(k + 1):
                assert return_value(p, q, k) == _summed_return_value(p, q, k), (p, q, k)


def test_seeded_deep_ladder_reads_are_pinned():
    # read values appear in no bench report, so a wrong return value shows here
    config = BenchConfig(object="counter", n=16, k=4, total_ops=10**5,
                         read_fraction=0.1, seed=1)
    result = run(bench.factory("counter", 16, 4, None), bench._workload(config), seeded(2))
    reads = [e.payload for e in result.history if e.kind == "respond" and e.op == "read"]
    assert (len(reads), sum(reads), max(reads)) == (9974, 360131960, 87364)
    assert max(set_indexes(result.instance)) == 24


def test_return_value_rejects_bad_args():
    with pytest.raises(ValueError):
        return_value(0, 0, 1)
    with pytest.raises(ValueError):
        return_value(-1, 0, 2)


def test_first_increment_sets_bit_zero():
    mem = Memory()
    counter = ApproxCounter(mem, 1, 4)
    solo(counter, mem, [INC])
    st = counter.states[0]
    assert set_indexes(counter) == [0]
    assert (st.lcounter, st.limit, st.limit_exp) == (0, 4, 1)
    assert mem.steps == 1  # a single test&set


def test_fifth_increment_claims_bit_one():
    mem = Memory()
    counter = ApproxCounter(mem, 1, 4)
    solo(counter, mem, [INC] * 5)
    st = counter.states[0]
    assert set_indexes(counter) == [0, 1]
    assert st.sn == 1
    assert counter.announce[0].value == (1, 1)
    assert st.lcounter == 0
    assert st.limit == 4  # bit 1 is not the interval end, threshold unchanged
    assert st.l0 == 2


def test_interval_end_claim_grows_the_threshold():
    # k=2: the third increment claims bit 1, the fifth bit 2, the end of interval 1
    mem = Memory()
    counter = ApproxCounter(mem, 1, 2)
    solo(counter, mem, [INC] * 5)
    st = counter.states[0]
    assert set_indexes(counter) == [0, 1, 2]
    assert counter.announce[0].value == (2, 2)
    assert (st.lcounter, st.limit, st.limit_exp, st.sn, st.l0) == (0, 4, 2, 2, 1)
    assert mem.steps == 5
    factory = lambda memory: ApproxCounter(memory, 1, 2)
    assert run(factory, [[INC] * 5], [0] * 10).report.per_op == [[1, 0, 2, 0, 2]]


def test_read_after_one_increment():
    mem = Memory()
    counter = ApproxCounter(mem, 1, 4)
    solo(counter, mem, [INC])
    before = mem.steps
    assert solo(counter, mem, [READ]) == [4]
    assert mem.steps - before == 2  # bit 0 then bit 1
    assert 1 / 4 <= 4 <= 1 * 4  # window around v=1, upper bound tight


def test_read_after_five_increments():
    mem = Memory()
    counter = ApproxCounter(mem, 1, 4)
    solo(counter, mem, [INC] * 5)
    before = mem.steps
    assert solo(counter, mem, [READ]) == [20]
    assert mem.steps - before == 3  # bits 0, 1, then 4
    assert 5 / 4 <= 20 <= 5 * 4


def test_fresh_counter_reads_zero():
    mem = Memory()
    counter = ApproxCounter(mem, 2, 4)
    assert solo(counter, mem, [READ]) == [0]


def test_two_process_switch_contention():
    # both processes reach their threshold; the second finds bit 1 taken
    factory = lambda mem: ApproxCounter(mem, 2, 4)
    workload = [[INC] * 5, [INC] * 4]
    result = run(factory, workload, [0, 1, 0, 0, 1, 1, 1])
    counter = result.instance
    assert set_indexes(counter) == [0, 1, 2]
    assert counter.announce[0].value == (1, 1)
    assert counter.announce[1].value == (2, 1)
    assert counter.states[1].l0 == 3
    # per-op steps: p0's winning announce costs 2, p1 pays one failed attempt
    assert result.report.per_op[0] == [1, 0, 0, 0, 2]
    assert result.report.per_op[1] == [1, 0, 0, 3]


def test_repeated_reads_stay_stable_without_new_increments():
    # a later read whose scan never enters the loop reuses the last
    # confirmed bit instead of returning stale garbage or zero
    mem = Memory()
    counter = ApproxCounter(mem, 1, 4)
    solo(counter, mem, [INC] * 5)
    first = solo(counter, mem, [READ])
    again = solo(counter, mem, [READ])
    assert first == again == [20]
    assert counter.states[0].last == 4
    assert counter.states[0].last_confirmed == 1


def test_read_resumes_scan_from_last():
    mem = Memory()
    counter = ApproxCounter(mem, 1, 4)
    solo(counter, mem, [INC] * 5 + [READ])
    assert counter.states[0].last == 4
    steps_before = mem.steps
    solo(counter, mem, [INC] * 4)  # threshold hit again: claims bit 2
    assert set_indexes(counter) == [0, 1, 2]
    got = solo(counter, mem, [READ])
    # resumed at bit 4 (still 0): loop never entered, and bits interior to
    # the interval are intentionally invisible; confirmed bit stays 1
    assert got == [20]
    assert mem.steps - steps_before == 3  # tas + announce write + 1 read


def test_last_visits_only_interval_endpoints():
    mem = Memory()
    counter = ApproxCounter(mem, 1, 4)
    k = 4
    solo(counter, mem, [INC] * 1000)
    seen = set()
    st = counter.states[0]
    for _ in range(30):
        seen.add(st.last)
        solo(counter, mem, [READ])
    valid = {0} | {q * k + 1 for q in range(20)} | {q * k for q in range(1, 20)}
    assert seen <= valid


def test_prefix_invariant_random_runs():
    for n, k in [(2, 2), (4, 2), (4, 4)]:
        factory = lambda mem: ApproxCounter(mem, n, k)
        for seed in range(300):
            rng = random.Random(seed)
            workload = random_counter_workload(rng, n, 14)
            result = traced(factory, workload, rng.randrange(2**62))
            counter = result.instance
            claimed = [t[2] for t in result.trace if t[3] == "tas" and t[5] == 0]
            for index_of in (oid_to_index(counter.switches.items()),
                             oid_to_index(enumerate(counter.units))):
                wins = [index_of[oid] for oid in claimed if oid in index_of]
                assert wins == list(range(len(wins)))


def test_quota_before_deep_attempts():
    # a process attempting a bit in interval q has k**(q+1) increments behind it
    k = 2
    factory = lambda mem: ApproxCounter(mem, 3, k)
    for seed in range(120):
        rng = random.Random(seed)
        workload = random_counter_workload(rng, 3, 24, read_fraction=0.1)
        result = run(factory, workload, seeded(rng.randrange(2**62)),
                     record_trace=True)
        index_of = oid_to_index(result.instance.switches.items())
        attempts = [(t[0], t[1], index_of[t[2]]) for t in result.trace
                    if t[3] == "tas"]
        events = list(result.history)
        incs = {p: 0 for p in range(3)}
        ei = 0
        for step, proc, index in attempts:
            # invoke events with e.step <= step happened before this access
            while ei < len(events) and events[ei].step <= step:
                e = events[ei]
                if e.kind == "invoke" and e.op == "inc":
                    incs[e.proc] += 1
                ei += 1
            if index >= 1:
                q = (index - 1) // k
                assert incs[proc] >= k ** (q + 1)


def test_accuracy_flag():
    mem = Memory()
    assert ApproxCounter(mem, 4, 2).accuracy_guaranteed
    assert not ApproxCounter(mem, 5, 2).accuracy_guaranteed
    assert ApproxCounter(mem, 16, 4).accuracy_guaranteed


def test_low_count_window_escape_below_k_eq_n_minus_1():
    # with k < n-1, up to 1 + n*(k-1) increments can complete behind ladder
    # bit 0 alone; p2 (pid >= k) lost bit 0 and claimed unit bit 0, so the
    # read counts it and returns k*(1 + 1) instead of undershooting with k
    factory = lambda mem: ApproxCounter(mem, 4, 2)
    workload = [[INC, INC], [INC], [INC], [INC, READ]]
    result = run(factory, workload, [0, 1, 2, 2, 3, 3, 3, 3, 3, 3])
    assert not result.runner.active
    assert set_indexes(result.instance) == [0]
    incs = sum(1 for e in result.history if e.kind == "respond" and e.op == "inc")
    reads = [e.payload for e in result.history
             if e.kind == "respond" and e.op == "read"]
    assert incs == 5
    assert reads == [4]
    assert incs / 2 <= reads[0] <= incs * 2
    assert check(result.history, counter_spec(2)).valid


def test_unit_bit_count():
    # ceil((1 + n*(k-1)) / k**2) - 1 unit bits; none once k >= n - 1
    mem = Memory()
    for n, k, bits in [(4, 2, 1), (5, 3, 1), (9, 2, 2), (9, 3, 2), (16, 4, 3),
                       (16, 2, 4)]:
        assert len(ApproxCounter(mem, n, k).units) == bits, (n, k)
    for n in range(1, 12):
        for k in range(max(2, n - 1), n + 3):
            assert ApproxCounter(mem, n, k).units == []


def test_construction_allocates_no_ladder_cell():
    # n announce cells and J unit bits up front; ladder bits on first touch
    for n, k, bits in [(1, 2, 0), (4, 2, 1), (16, 4, 3)]:
        mem = Memory()
        counter = ApproxCounter(mem, n, k)
        assert len(mem.cells) == n + bits
        solo(counter, mem, [INC])
        assert len(mem.cells) == n + bits + 1
        assert oid_to_index(counter.switches.items()) == {n + bits: 0}


def test_read_rechecks_bit_one_when_units_grow():
    factory = lambda mem: ApproxCounter(mem, 4, 2)
    # p2 claims unit bit 0 after p3's read saw bit 1 unset; the re-read
    # of bit 1 finds it still unset, so the read counts the unit bit
    workload = [[INC], [], [INC], [READ, READ]]
    result = run(factory, workload, [0, 3, 3, 2, 2, 3, 3, 3])
    reads = [e.payload for e in result.history
             if e.kind == "respond" and e.op == "read"]
    assert reads == [4, 4]
    assert result.report.per_op[3] == [4, 1]  # the second read resumes at bit 1
    assert check(result.history, counter_spec(2)).valid
    # p0 claims bit 1 before the re-read: the read continues up the ladder
    workload = [[INC] * 3, [], [INC], [READ]]
    result = run(factory, workload, [0, 3, 3, 2, 2, 3, 0, 0, 3, 3])
    assert not result.runner.active
    assert [e.payload for e in result.history
            if e.kind == "respond" and e.op == "read"] == [return_value(1, 0, 2)]
    assert result.report.per_op[3] == [5]
    assert check(result.history, counter_spec(2)).valid


def test_validation():
    mem = Memory()
    with pytest.raises(ValueError):
        ApproxCounter(mem, 0, 2)
    with pytest.raises(ValueError):
        ApproxCounter(mem, 2, 1)
    counter = ApproxCounter(mem, 2, 2)
    with pytest.raises(ValueError):
        counter.program(2, "inc", ())
    with pytest.raises(ValueError):
        counter.program(0, "decrement", ())


def test_private_increment_is_not_a_step_machine():
    # program returns None exactly when the increment stays below the
    # announce threshold, and the publishing step machine when it reaches it
    mem = Memory()
    counter = ApproxCounter(mem, 3, 2)
    published = 0
    for i in range(300):
        pid = i % 3
        st = counter.states[pid]
        private = st.lcounter + 1 != st.limit
        steps = mem.steps
        gen = counter.program(pid, "inc", ())
        if private:
            assert gen is None
            assert drive(gen, mem) is None
            assert mem.steps == steps
        else:
            assert inspect.isgenerator(gen)
            assert drive(gen, mem) is None
            assert mem.steps > steps
            published += 1
    assert 0 < published < 300


def test_private_increments_complete_at_invocation_with_zero_steps():
    factory = lambda mem: ApproxCounter(mem, 4, 2)
    for seed in range(20):
        rng = random.Random(seed)
        workload = random_counter_workload(rng, 4, 40)
        returned_none = [[] for _ in range(4)]  # per process, per operation

        def recording(mem):
            counter = factory(mem)
            program = counter.program

            def traced(pid, op, args=()):
                gen = program(pid, op, args)
                returned_none[pid].append(gen is None)
                return gen
            counter.program = traced
            return counter

        result = run(recording, workload, seeded(rng.randrange(2**62)))
        assert not result.runner.active
        responses = [[] for _ in range(4)]
        for e in result.history:
            if e.kind == "respond":
                responses[e.proc].append(e)
        for pid, ops in enumerate(workload):
            assert len(returned_none[pid]) == len(ops)
            for (name, _), private, steps, response in zip(
                    ops, returned_none[pid], result.report.per_op[pid], responses[pid]):
                if private:
                    assert name == "inc"
                    assert steps == 0
                    assert response.payload is None
                elif name == "inc":
                    assert steps >= 1  # the publishing step machine takes a step
        assert check(result.history, counter_spec(2)).valid


@pytest.mark.parametrize("pid, op", [(2, "inc"), (-1, "inc"), (0, "decrement"),
                                     (1, "incr")])
def test_invalid_invocation_changes_no_state(pid, op):
    mem = Memory()
    counter = ApproxCounter(mem, 2, 4)
    solo(counter, mem, [INC] * 3, pid=0)
    solo(counter, mem, [INC] * 2, pid=1)
    before = [(st.lcounter, st.limit) for st in counter.states]
    with pytest.raises(ValueError):
        counter.program(pid, op, ())
    assert [(st.lcounter, st.limit) for st in counter.states] == before
