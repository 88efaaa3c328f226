"""Relaxed-linearizability checker."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxobj import (ApproxCounter, check, check_bruteforce, counter_spec,
                      maxreg_approx_spec, maxreg_exact_spec, run, seeded)
from relaxobj import bench
from relaxobj.shmem import Event, History
from support import history_from_json


def H(*events):
    """Shorthand history: ('i'|'r', proc, op, payload)."""
    kinds = {"i": "invoke", "r": "respond"}
    return History([Event(kinds[k], proc, op, payload, step)
                    for step, (k, proc, op, payload) in enumerate(events)])


def assert_witness_replays(h, spec, witness):
    """The witness holds every completed op, respects real time and replays."""
    assert {(o.proc, o.index) for o in h.operations() if not o.pending} \
        <= {(o.proc, o.index) for o in witness}
    for i, a in enumerate(witness):
        for b in witness[i + 1:]:
            # nothing later in the witness may precede a in real time
            assert b.responded is None or b.responded > a.invoked
    state = spec.initial
    for o in witness:
        assert o.pending or spec.accepts(state, o.name, o.args, o.ret)
        state = spec.apply(state, o.name, o.args)


def test_sequential_exact_maxreg_valid():
    h = H(("i", 0, "write", (3,)), ("r", 0, "write", None),
          ("i", 0, "write", (7,)), ("r", 0, "write", None),
          ("i", 0, "read", ()), ("r", 0, "read", 7))
    result = check(h, maxreg_exact_spec())
    assert result.valid
    assert [o.name for o in result.witness] == ["write", "write", "read"]


def test_counter_read_too_large_invalid():
    # one inc fully precedes a read returning 5: x <= v*k needs v >= 3
    h = H(("i", 0, "inc", ()), ("r", 0, "inc", None),
          ("i", 1, "read", ()), ("r", 1, "read", 5))
    assert check(h, counter_spec(2)).verdict == "invalid"


def test_counter_concurrent_read_valid():
    # read returning 4 concurrent with a single inc: linearize inc first
    h = H(("i", 1, "read", ()), ("i", 0, "inc", ()),
          ("r", 0, "inc", None), ("r", 1, "read", 4))
    result = check(h, counter_spec(4))
    assert result.valid
    assert [o.name for o in result.witness] == ["inc", "read"]


def test_builtin_window_predicates():
    specs = {name: spec(4) for name, (_, spec) in bench.OBJECTS.items()}
    counter = specs["counter"]
    assert counter.accepts(5, "read", (), 20)  # 5/4 <= 20 <= 20
    assert not counter.accepts(5, "read", (), 21)
    assert counter.accepts(0, "read", (), 0)
    assert not counter.accepts(1, "read", (), 0)
    exact = specs["maxreg-exact"]
    assert exact.accepts(0, "read", (), 0)
    assert not exact.accepts(3, "read", (), 2)
    assert not exact.accepts(3, "read", (), 4)  # no overshoot either
    approx = specs["maxreg-approx"]
    assert approx.accepts(3, "read", (), 4)
    assert approx.accepts(3, "read", (), 12)
    assert not approx.accepts(3, "read", (), 2)  # no undershoot
    assert not approx.accepts(0, "read", (), 1)
    assert approx.accepts(0, "read", (), 0)


def test_witness_respects_precedence_and_replays():
    h = H(("i", 0, "inc", ()), ("r", 0, "inc", None),
          ("i", 0, "inc", ()), ("i", 1, "read", ()),
          ("r", 1, "read", 2), ("r", 0, "inc", None),
          ("i", 1, "read", ()), ("r", 1, "read", 2))
    spec = counter_spec(2)
    result = check(h, spec)
    assert result.valid
    assert len(result.witness) == len(h.operations())  # everything completed
    assert_witness_replays(h, spec, result.witness)


def test_pending_update_may_count_either_way():
    # pending inc: a read of 1 needs it included, a read of 0 needs it dropped
    for ret, expected in [(1, "valid"), (0, "valid")]:
        h = H(("i", 0, "inc", ()),
              ("i", 1, "read", ()), ("r", 1, "read", ret))
        assert check(h, counter_spec(2)).verdict == expected
    # but it cannot count twice
    h = H(("i", 0, "inc", ()),
          ("i", 1, "read", ()), ("r", 1, "read", 2),
          ("i", 1, "read", ()), ("r", 1, "read", 5))
    assert check(h, counter_spec(2)).verdict == "invalid"


def test_pending_read_is_dropped():
    h = H(("i", 0, "read", ()),
          ("i", 1, "inc", ()), ("r", 1, "inc", None))
    result = check(h, counter_spec(2))
    assert result.valid
    assert all(o.name != "read" for o in result.witness)


def test_inconclusive_on_tiny_budget():
    events = []
    for i in range(6):
        events.append(("i", i, "inc", ()))
    for i in range(6):
        events.append(("r", i, "inc", None))
    h = H(*events)
    result = check(h, counter_spec(2), state_budget=3)
    assert result.verdict == "inconclusive"
    # never a false verdict: full budget says valid
    assert check(h, counter_spec(2)).valid


def _seeded_counter_history(n, ops, seed):
    rng = random.Random(seed)
    workload = [[("read", ()) if rng.random() < 0.3 else ("inc", ())
                 for _ in range(ops)] for _ in range(n)]
    return run(lambda memory: ApproxCounter(memory, n, 2), workload,
               seeded(seed)).history


@pytest.mark.parametrize("h, spec", [
    (H(*[("i", p, "inc", ()) for p in range(6)],
       *[("r", p, "inc", None) for p in range(6)]), counter_spec(2)),
    (H(("i", 0, "inc", ()), ("i", 1, "read", ()), ("r", 1, "read", 2),
       ("i", 1, "read", ()), ("r", 1, "read", 5)), counter_spec(2)),
    (H(("i", 0, "write", (3,)), ("i", 1, "read", ()), ("r", 0, "write", None),
       ("i", 0, "write", (5,)), ("r", 1, "read", 5), ("r", 0, "write", None),
       ("i", 1, "read", ()), ("r", 1, "read", 3)), maxreg_exact_spec()),
    (_seeded_counter_history(9, 8, 5), counter_spec(2)),
], ids=["concurrent-incs", "invalid-counter", "invalid-maxreg", "seeded-n9"])
def test_budget_boundary_is_exact(h, spec):
    full = check(h, spec)
    explored = full.states_explored
    short = check(h, spec, state_budget=explored - 1)
    assert short.verdict == "inconclusive"
    assert short.states_explored == explored
    exact = check(h, spec, state_budget=explored)
    assert (exact.verdict, exact.states_explored) == (full.verdict, explored)
    assert exact.witness == full.witness


@pytest.mark.parametrize("n, ops, seed, states", [
    (9, 8, 5, 284), (9, 8, 1, 75), (9, 16, 4, 164),
])
def test_seeded_search_is_pinned(n, ops, seed, states):
    # the exact state count pins the search order, not only the verdict
    h = _seeded_counter_history(n, ops, seed)
    result = check(h, counter_spec(2))
    assert (result.verdict, result.states_explored) == ("valid", states)
    assert_witness_replays(h, counter_spec(2), result.witness)


def _check_long_history(n, ops, seed, index):
    """History ``index`` of a pool drawn as perfbench's check-long draws it."""
    rng = random.Random(seed)
    for _ in range(index + 1):
        workload = [[] for _ in range(n)]
        for i in range(ops):
            op = ("read", ()) if rng.random() < 0.3 else ("inc", ())
            workload[i % n].append(op)
        run_seed = rng.randrange(2**62)
    return run(lambda memory: ApproxCounter(memory, n, 2), workload,
               seeded(run_seed)).history


CHECK_LONG_WITNESS = (
    "0312031123111221102223311111110000011202223330032000111222233322"
    "2022222222223333111111222211133211102222211112222220002222222222"
    "2200003333322200033311111113300111222201333300111111111011031111"
    "1103333000000000000000333333333333333330003300003333330330000000")


@pytest.mark.parametrize("n, ops, index, verdict, states, procs", [
    (4, 256, 0, "valid", 262, CHECK_LONG_WITNESS),
    (9, 64, 8, "invalid", 6_658, None),  # the backtracking case
], ids=["check-long-256", "invalid-n9"])
def test_search_order_is_pinned(n, ops, index, verdict, states, procs):
    # a witness that replays lists each process's operations in their
    # order, so its sequence of processes pins the whole (proc, index) list
    h = _check_long_history(n, ops, 1, index)
    result = check(h, counter_spec(2))
    witness = result.witness and "".join(str(o.proc) for o in result.witness)
    assert (result.verdict, result.states_explored, witness) == (verdict, states, procs)
    if result.valid:
        assert_witness_replays(h, counter_spec(2), result.witness)


def test_long_histories_return_a_verdict():
    # sequential, like perfbench's depth probe: every fourth op is a read
    events, count = [], 0
    for i in range(10_000):
        if i % 4 == 3:
            events += [("i", 0, "read", ()), ("r", 0, "read", count)]
        else:
            count += 1
            events += [("i", 0, "inc", ()), ("r", 0, "inc", None)]
    sequential = H(*events)
    assert check(sequential, counter_spec(2)).valid
    concurrent = _seeded_counter_history(4, 2_500, 2)
    assert len(concurrent.operations()) == 10_000
    assert check(concurrent, counter_spec(2)).valid


def _bench_counter_history(ops):
    """bench's seeded ApproxCounter(4, 2) workload (seed 1) under schedule seed 2."""
    config = bench.BenchConfig(object="counter", n=4, k=2, total_ops=ops, seed=1)
    return run(bench.factory("counter", 4, 2, None), bench._workload(config),
               seeded(2)).history


def test_hundred_thousand_op_history_gets_a_verdict():
    result = check(_bench_counter_history(100_000), counter_spec(2))
    assert (result.verdict, result.states_explored) == ("valid", 100_003)


def _check_peak_bytes(h):
    tracemalloc.start()
    try:
        assert check(h, counter_spec(2)).valid
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_memory_grows_linearly_with_history_length():
    # a quadratic search (full-width linearized sets) gives about 2.9 here
    short, long = _bench_counter_history(10_000), _bench_counter_history(20_000)
    assert _check_peak_bytes(long) < 2.5 * _check_peak_bytes(short)


def test_bruteforce_matches_examples():
    h = H(("i", 0, "inc", ()), ("r", 0, "inc", None),
          ("i", 1, "read", ()), ("r", 1, "read", 5))
    assert check_bruteforce(h, counter_spec(2)).verdict == "invalid"
    h2 = H(("i", 1, "read", ()), ("i", 0, "inc", ()),
           ("r", 0, "inc", None), ("r", 1, "read", 4))
    assert check_bruteforce(h2, counter_spec(4)).valid


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_checker_agrees_with_bruteforce_on_random_histories(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    if rng.random() < 0.5:
        update, returns = "inc", [0, 1, 2, 3, 4, 6, 8]
        spec = counter_spec(rng.choice([2, 4]))
    else:
        update, returns = "write", [0, 1, 2, 3, 4, 5, 8, 16]
        spec = rng.choice([maxreg_exact_spec(), maxreg_approx_spec(2)])
    events: list[tuple] = []
    open_op: dict[int, str] = {}
    for _ in range(rng.randint(2, 10)):
        proc = rng.randrange(n)
        if proc in open_op and rng.random() < 0.6:
            name = open_op.pop(proc)
            ret = None if name == update else rng.choice(returns)
            events.append(("r", proc, name, ret))
        elif proc not in open_op:
            name = rng.choice([update, "read"])
            open_op[proc] = name
            args = (rng.choice([1, 2, 3, 5, 8]),) if name == "write" else ()
            events.append(("i", proc, name, args))
    h = H(*events)
    fast = check(h, spec)
    slow = check_bruteforce(h, spec)
    assert fast.verdict == slow.verdict
    if fast.valid:
        assert_witness_replays(h, spec, fast.witness)


def test_check_accepts_json_history():
    h = H(("i", 0, "inc", ()), ("r", 0, "inc", None),
          ("i", 0, "read", ()), ("r", 0, "read", 2))
    parsed = history_from_json(h.to_json())
    result = check(parsed, counter_spec(2))
    assert result.valid


def test_spec_validation():
    with pytest.raises(ValueError):
        counter_spec(1)
    with pytest.raises(ValueError):
        maxreg_approx_spec(0)
