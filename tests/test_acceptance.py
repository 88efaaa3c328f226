"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned in this file; nothing is deferred to later calibration.

Criterion 5b (n = 4, k = 2, where k < n - 1) covers the low-count
regime, in which up to 1 + n*(k-1) increments complete while only ladder
bit 0 is set; the counter's unit bits keep reads inside the k-window
there (see test_counter.test_low_count_window_escape_below_k_eq_n_minus_1
and the README).  Its assertion is exact: no schedule may break the
window.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from relaxobj import (check, check_bruteforce, counter_spec, maxreg_approx_spec,
                      maxreg_exact_spec, return_value, run, seeded)
from relaxobj.bench import (BenchConfig, drive, measure_amortized,
                            measure_worst_case, run_native)
from relaxobj.counter import ApproxCounter
from relaxobj.maxreg_approx import ApproxMaxRegister, floor_log
from relaxobj.maxreg_exact import BoundedMaxRegister
from relaxobj.shmem import Memory, Runner, distinct_histories
from support import (oid_to_index, random_counter_workload, random_maxreg_workload,
                     sequential, set_indexes, solo, traced)

_shared: dict = {}  # lazily computed inputs reused across criteria


@contextmanager
def criterion(label: str, seconds: float | None = None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL ({time.monotonic() - started:.1f}s)")
        raise
    elapsed = time.monotonic() - started
    if seconds is not None:
        assert elapsed < seconds, f"{label}: took {elapsed:.1f}s, budget {seconds}s"
    print(f"{label}: PASS ({elapsed:.1f}s)")


# -- criterion 1 -------------------------------------------------------------

def test_criterion_01_exact_maxreg_oracle_equivalence():
    with criterion("criterion 1 (exact max register oracle equivalence)", 5.0):
        for m in (2, 8, 1024):
            memory = Memory()
            register = BoundedMaxRegister(memory, m)
            switches = memory.cells  # switch values are the only run state
            for sequence in range(10**4):
                rng = random.Random(m * 100_000 + sequence)
                running = 0
                for _ in range(10):
                    if rng.random() < 0.45:
                        got = drive(register.program(0, "read", ()), memory)
                        assert got == running
                    else:
                        v = rng.randrange(m)
                        drive(register.program(0, "write", (v,)), memory)
                        running = max(running, v)
                for cell in switches:  # reset == fresh register
                    cell.value = 0


# -- criterion 2 -------------------------------------------------------------

def test_criterion_02_exact_maxreg_linearizability_exhaustive():
    with criterion("criterion 2 (exact max register linearizability)", 60.0):
        factory = lambda memory: BoundedMaxRegister(memory, 8)
        workload = [[("write", (5,)), ("write", (3,)), ("read", ())],
                    [("write", (6,)), ("read", ()), ("read", ())]]
        histories = distinct_histories(factory, workload)
        assert len(histories) > 1
        spec = maxreg_exact_spec()
        for history in histories:
            result = check(history, spec)
            assert result.valid, history.to_json()


# -- criterion 3 -------------------------------------------------------------

def _approx_maxreg_histories():
    if "approx_histories" not in _shared:
        factory = lambda memory: ApproxMaxRegister(memory, 2, 256)
        workload = [[("write", (16,)), ("write", (250,)), ("read", ())],
                    [("write", (2,)), ("read", ()), ("write", (130,))]]
        _shared["approx_histories"] = distinct_histories(factory, workload)
    return _shared["approx_histories"]


def test_criterion_03a_approx_maxreg_window_exhaustive():
    started = time.monotonic()
    with criterion("criterion 3a (approx max register window, exhaustive)"):
        spec = maxreg_approx_spec(2)  # tight window: v <= x <= 2v
        histories = _approx_maxreg_histories()
        assert len(histories) > 1
        for history in histories:
            result = check(history, spec)
            assert result.valid, history.to_json()
    _shared["crit3a_elapsed"] = time.monotonic() - started


def test_criterion_03b_approx_maxreg_window_randomized():
    started = time.monotonic()
    with criterion("criterion 3b (approx max register window, randomized)"):
        spec = maxreg_approx_spec(2)
        factory = lambda memory: ApproxMaxRegister(memory, 2, 256)
        invalid = 0
        for seed in range(1000):
            rng = random.Random(seed)
            workload = random_maxreg_workload(rng, 4, 12, 256)
            result = run(factory, workload, seeded(rng.randrange(2**62)))
            verdict = check(result.history, spec)
            assert verdict.verdict != "inconclusive"
            if verdict.verdict == "invalid":
                invalid += 1
        assert invalid == 0
        combined = _shared.get("crit3a_elapsed", 0.0) + (time.monotonic() - started)
        assert combined < 120.0, f"criterion 3 combined runtime {combined:.1f}s"


# -- criterion 4 -------------------------------------------------------------

def test_criterion_04_approx_maxreg_worst_case_steps():
    with criterion("criterion 4 (approx max register worst-case steps)", 10.0):
        observed = []
        for m in (2**8, 2**16, 2**32, 2**64):
            config = BenchConfig(object="maxreg-approx", n=2, k=2, m=m,
                                 total_ops=400, read_fraction=0.3, seed=1)
            report = measure_worst_case(config)
            capacity = floor_log(2, m - 1) + 2
            bound = (capacity - 1).bit_length() + 1  # ceil(log2(capacity)) + 1
            assert report.step_bound == bound
            assert report.max_op_steps <= bound  # exact integers, no tolerance
            observed.append(report.max_op_steps)
        for smaller, larger in zip(observed, observed[1:]):
            assert larger - smaller <= 1  # squaring m adds at most one step


# -- criterion 5 -------------------------------------------------------------

def _counter_histories():
    if "counter_histories" not in _shared:
        factory = lambda memory: ApproxCounter(memory, 2, 2)
        workload = [[("inc", ()), ("inc", ()), ("read", ()), ("inc", ())],
                    [("inc", ()), ("read", ()), ("inc", ()), ("read", ())]]
        _shared["counter_histories"] = distinct_histories(factory, workload)
    return _shared["counter_histories"]


def test_criterion_05a_counter_relaxed_linearizability_exhaustive():
    started = time.monotonic()
    with criterion("criterion 5a (counter relaxed linearizability, exhaustive)"):
        spec = counter_spec(2)
        histories = _counter_histories()
        assert len(histories) > 1
        for history in histories:
            result = check(history, spec)
            assert result.valid, history.to_json()
    _shared["crit5a_elapsed"] = time.monotonic() - started


def test_criterion_05b_counter_relaxed_linearizability_randomized():
    # With k = 2 < n - 1 = 3, up to 1 + n*(k-1) = 5 increments can complete
    # while only ladder bit 0 is set; a bare ladder read would return 2 with
    # 5/2 > 2.  The unit bits make such a read return 2*(1 + j) instead.
    started = time.monotonic()
    with criterion("criterion 5b (counter relaxed linearizability, randomized)"):
        spec = counter_spec(2)
        factory = lambda memory: ApproxCounter(memory, 4, 2)
        invalid_seeds = []
        for seed in range(1000):
            rng = random.Random(seed)
            workload = random_counter_workload(rng, 4, 16)
            result = run(factory, workload, seeded(rng.randrange(2**62)))
            verdict = check(result.history, spec)
            assert verdict.verdict != "inconclusive"
            if verdict.verdict == "invalid":
                invalid_seeds.append(seed)
        combined = _shared.get("crit5a_elapsed", 0.0) + (time.monotonic() - started)
        assert combined < 300.0, f"criterion 5 combined runtime {combined:.1f}s"
        assert not invalid_seeds, (
            f"{len(invalid_seeds)} of 1000 schedules violate the k-window "
            f"(seeds {invalid_seeds[:5]}...): low-count escape, reads taken "
            f"while only ladder bit 0 is set undershoot v/k for k < n-1")


# -- criterion 6 -------------------------------------------------------------

def test_criterion_06_counter_hand_fixtures():
    with criterion("criterion 6 (counter hand-simulation fixtures)"):
        # fixture 1: first increment, then a read returning 4
        memory = Memory()
        counter = ApproxCounter(memory, 1, 4)
        solo(counter, memory, [("inc", ())])
        assert memory.steps == 1  # exactly one test&set
        assert set_indexes(counter) == [0]
        before = memory.steps
        assert solo(counter, memory, [("read", ())]) == [4]
        assert memory.steps - before == 2  # reads bit 0 then bit 1

        # fixture 2: increments 2..5 claim bit 1; read returns 20
        memory = Memory()
        counter = ApproxCounter(memory, 1, 4)
        solo(counter, memory, [("inc", ())] * 5)
        state = counter.states[0]
        assert set_indexes(counter) == [0, 1]
        assert (state.sn, state.lcounter, state.limit, state.l0) == (1, 0, 4, 2)
        assert counter.announce[0].value == (1, 1)
        assert solo(counter, memory, [("read", ())]) == [20]

        # fixture 3: two processes contend; loser claims the next bit
        factory = lambda memory: ApproxCounter(memory, 2, 4)
        workload = [[("inc", ())] * 5, [("inc", ())] * 4]
        result = run(factory, workload, [0, 1, 0, 0, 1, 1, 1])
        counter = result.instance
        assert set_indexes(counter) == [0, 1, 2]
        assert counter.announce[0].value == (1, 1)
        assert counter.announce[1].value == (2, 1)
        assert counter.states[1].l0 == 3
        assert result.report.per_op[0] == [1, 0, 0, 0, 2]
        assert result.report.per_op[1] == [1, 0, 0, 3]


# -- criterion 7 -------------------------------------------------------------

# Frozen amortized budget. Derivation, from the per-process accounting of the
# implementation (with i_p the deepest interval process p can have reached
# after s_p increments, and i the deepest interval overall after s of them):
#   increment side:  sum_p (2*(i_p+1)*k + 1) / (sum_p k**(i_p+1) + r)
#   read side:       4*(i+2)*n / (k**(i+1) + r)
# where a process reaching interval i_p has performed >= k**(i_p+1)
# increments (the quota property), so i_p <= floor(log_k s_p) - 1.
# Instantiated at n=16, k=4, 90% increments, the maximum over checkpoints
# 10^3..10^6 is 592/356 ~= 1.66 (at 10^3); frozen with headroom to 2.
AMORTIZED_BUDGET = 2


def _analytic_amortized_budget(n: int, k: int, total: int,
                               read_fraction: float) -> Fraction:
    r = round(total * read_fraction)
    s = total - r
    s_p = max(1, s // n)
    i_p = max(0, floor_log(k, s_p) - 1)
    i = max(0, floor_log(k, max(1, s)) - 1)
    inc_side = Fraction(n * (2 * (i_p + 1) * k + 1), n * k ** (i_p + 1) + r)
    read_side = Fraction(4 * (i + 2) * n, k ** (i + 1) + r)
    return inc_side + read_side


def test_criterion_07_counter_amortized_constancy():
    with criterion("criterion 7 (counter amortized constancy)", 120.0):
        analytic = max(_analytic_amortized_budget(16, 4, t, 0.1)
                       for t in (10**3, 10**4, 10**5, 10**6))
        assert analytic <= 16  # the accounting stays within the expected ceiling
        assert AMORTIZED_BUDGET >= analytic
        config = BenchConfig(object="counter", n=16, k=4, total_ops=10**6,
                             read_fraction=0.1, seed=1)
        report = measure_amortized(config)
        assert len(report.checkpoints) == 4
        for checkpoint in report.checkpoints:
            assert checkpoint.amortized <= AMORTIZED_BUDGET, checkpoint
        for earlier, later in zip(report.checkpoints, report.checkpoints[1:]):
            # at most 5% growth checkpoint-over-checkpoint, exact rationals
            assert later.amortized * 20 <= earlier.amortized * 21, (earlier, later)


# -- criterion 8 -------------------------------------------------------------

def test_criterion_08_counter_wait_freedom_under_starvation():
    with criterion("criterion 8 (counter wait-freedom under starvation)"):
        workload = ([[("read", ())]] + [[("inc", ())] * 300_000]
                    + [[] for _ in range(14)])
        runner = Runner(lambda memory: ApproxCounter(memory, 16, 2), workload,
                        record_trace=True)
        memory, counter = runner.memory, runner.instance

        # the incrementer keeps the ladder ahead of the reader
        while len(set_indexes(counter)) < 30:
            runner.step(1)
        # reader: 16 scan iterations, then its announce-array snapshot
        for _ in range(32):
            runner.step(0)
        snapshot_step = memory.steps
        baseline = counter.announce[1].value[1]
        # the incrementer claims bits 30 and 31 inside the reader's window,
        # keeping the ladder set everywhere the reader will look while its
        # published sequence number advances by two past the snapshot
        while len(set_indexes(counter)) < 32:
            runner.step(1)
        assert counter.announce[1].value[1] == baseline + 2
        # reader scans on; the next boundary rescan must rescue it
        slots = 0
        while 0 in runner.active:
            runner.step(0)
            slots += 1
            assert slots < 64, "reader failed to terminate via helping"

        result = runner.result()
        history = result.history
        reads = [e for e in history if e.kind == "respond" and e.op == "read"]
        assert len(reads) == 1
        respond_step = reads[0].step
        # exact: adopted announcement was (30, baseline+2)
        assert reads[0].payload == return_value(30 % 2, 30 // 2, 2) == 262138

        # trace: the read returned via helping (final access is a pair read
        # of the announce array, not a ladder bit)
        reader_steps = [t for t in result.trace if t[1] == 0]
        announce_of = counter.announce_oid_to_proc()
        final = reader_steps[-1]
        assert final[3] == "read" and announce_of.get(final[2]) == 1
        # the reader never observed an unset ladder bit: genuinely starved
        ladder = oid_to_index(counter.switches.items())
        assert all(t[5] == 1 for t in reader_steps if t[2] in ladder)
        # exact path: 16 ladder bits, the snapshot of all 16 announce
        # entries, 16 more bits, then the rescan stops at entry 1
        cells = [("bit", ladder[t[2]]) if t[2] in ladder else ("announce", announce_of[t[2]])
                 for t in reader_steps]
        assert cells == ([("bit", i) for i in range(16)]
                         + [("announce", p) for p in range(16)]
                         + [("bit", i) for i in range(16, 32)]
                         + [("announce", 0), ("announce", 1)])
        # and the rescuing process claimed >= 2 bits after the snapshot,
        # within the read's invocation..response window
        claims = [t for t in result.trace
                  if t[1] == 1 and t[3] == "tas" and t[5] == 0
                  and snapshot_step <= t[0] < respond_step]
        assert len(claims) >= 2


# -- criterion 9 -------------------------------------------------------------

def test_criterion_09_prefix_invariant():
    with criterion("criterion 9 (ladder prefix invariant)", 300.0):
        runs_per_config = 25_000
        for n, k in ((2, 2), (4, 2), (4, 4), (16, 4)):
            factory = lambda memory: ApproxCounter(memory, n, k)
            for seed in range(runs_per_config):
                rng = random.Random(seed * 4 + n * 1_000_003 + k)
                workload = random_counter_workload(rng, n, 3 * n)
                result = traced(factory, workload, rng.randrange(2**62))
                counter = result.instance
                # bits are claimed in index order: after every step the set
                # bits form the contiguous prefix 0..h, on the ladder and
                # among the unit bits alike
                claimed = [t[2] for t in result.trace if t[3] == "tas" and t[5] == 0]
                for index_of in (oid_to_index(counter.switches.items()),
                                 oid_to_index(enumerate(counter.units))):
                    wins = [index_of[oid] for oid in claimed if oid in index_of]
                    assert wins == list(range(len(wins))), (n, k, seed)


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_checker_selftest():
    with criterion("criterion 10 (checker vs permutation oracle)"):
        jobs = [(maxreg_approx_spec(2), _approx_maxreg_histories()),
                (counter_spec(2), _counter_histories())]
        compared = 0
        for spec, histories in jobs:
            for history in histories:
                assert len(history.operations()) <= 8
                fast = check(history, spec)
                slow = check_bruteforce(history, spec)
                assert fast.verdict == slow.verdict, history.to_json()
                compared += 1
        assert compared > 50


# -- criterion 11 ------------------------------------------------------------

def test_criterion_11_native_mode_sanity():
    with criterion("criterion 11 (native-mode sanity)"):
        config = BenchConfig(object="counter", n=4, k=2, total_ops=100_000,
                             read_fraction=0.1, seed=5, mode="native")
        report = run_native(config)
        assert report.total_ops == 100_000
        increments = sum(1 for per_thread in report.responses
                         for value in per_thread if value is None)
        for per_thread in report.responses:
            for value in per_thread:
                if value is not None:
                    assert 0 <= value <= 2 * increments

        single = BenchConfig(object="counter", n=1, k=4, total_ops=20_000,
                             read_fraction=0.2, seed=9, mode="native")
        assert run_native(single).responses == sequential(single)
