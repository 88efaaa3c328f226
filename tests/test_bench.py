"""Metrics engine: amortized and worst-case step measurements, native mode."""

from __future__ import annotations

import hashlib
import json
import random
import threading
import tracemalloc
from fractions import Fraction

import pytest

from relaxobj import bench
from relaxobj.bench import (MAX_PROCESSES, BenchConfig, NativeMemory,
                            measure_amortized, measure_worst_case, run_native)
from relaxobj.maxreg_approx import floor_log
from support import sequential


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(object="counter", n=0)
    with pytest.raises(ValueError, match="n must be at most"):
        BenchConfig(object="counter", n=MAX_PROCESSES + 1)
    BenchConfig(object="counter", n=MAX_PROCESSES)
    with pytest.raises(ValueError):
        BenchConfig(object="counter", total_ops=0)
    with pytest.raises(ValueError):
        BenchConfig(object="counter", read_fraction=1.5)
    with pytest.raises(ValueError):
        BenchConfig(object="stack")
    for obj in ("maxreg-approx", "maxreg-exact"):
        for m in (1, None):
            with pytest.raises(ValueError, match="m must be"):
                BenchConfig(object=obj, m=m)
    for obj in ("counter", "maxreg-approx"):
        with pytest.raises(ValueError, match="k must be"):
            BenchConfig(object=obj, k=1, m=10)
    BenchConfig(object="maxreg-exact", k=1, m=2)  # k is unused there


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode must be"):
        BenchConfig(object="counter", mode="bogus")


@pytest.mark.parametrize("measure, config", [
    (measure_amortized, BenchConfig(object="counter", total_ops=10, mode="native")),
    (measure_worst_case, BenchConfig(object="maxreg-exact", m=16, total_ops=10,
                                     mode="native")),
])
def test_step_measurement_rejects_native_config(measure, config):
    with pytest.raises(ValueError, match="mode='simulated'"):
        measure(config)


def test_run_native_rejects_simulated_config_before_threads(monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("run_native started a thread")

    monkeypatch.setattr(threading, "Thread", no_threads)
    with pytest.raises(ValueError, match="mode='native'"):
        run_native(BenchConfig(object="counter", n=2, total_ops=10))


def test_single_process_inc_read_exact_steps():
    config = BenchConfig(object="counter", n=1, k=4, total_ops=2,
                         read_fraction=0.0, seed=0)
    # force inc then read deterministically
    from relaxobj import shmem
    from relaxobj.counter import ApproxCounter

    runner = shmem.Runner(lambda memory: ApproxCounter(memory, 1, 4),
                          [[("inc", ()), ("read", ())]])
    while runner.active:
        runner.step(0)
    report = runner.report()
    assert report.per_op == [[1, 2]]
    assert report.total_steps == 3
    idle = shmem.Runner(lambda memory: ApproxCounter(memory, 1, 4), [[]])
    assert idle.report().amortized == 0  # no operation invoked


def test_measure_amortized_checkpoints_and_determinism():
    config = BenchConfig(object="counter", n=4, k=2, total_ops=5000,
                         read_fraction=0.1, seed=3)
    a = measure_amortized(config)
    b = measure_amortized(config)
    assert [c.ops for c in a.checkpoints] == [c.ops for c in b.checkpoints]
    assert a.total_steps == b.total_steps
    assert a.amortized == b.amortized
    assert a.checkpoints[0].ops >= 1000
    assert sum(a.histogram.values()) == a.total_ops == 5000
    assert a.amortized * a.total_ops == a.total_steps


def test_checkpoints_recorded_at_the_slot_that_reaches_them():
    # the first slot completes 20000 increments, crossing the 10^3 and
    # 10^4 marks at once; both are recorded after that one step
    config = BenchConfig(object="counter", n=1, k=20000, total_ops=10**5,
                         read_fraction=0.0, seed=0)
    report = measure_amortized(config)
    assert [(c.ops, c.total_steps) for c in report.checkpoints] == [
        (20000, 1), (20000, 1), (100000, 9)]


def test_measure_amortized_requires_counter():
    with pytest.raises(ValueError):
        measure_amortized(BenchConfig(object="maxreg-approx", m=16))
    with pytest.raises(ValueError, match="max register"):
        measure_worst_case(BenchConfig(object="counter"))


def test_worst_case_bound_and_growth():
    maxima = []
    for m in (2**8, 2**16):
        config = BenchConfig(object="maxreg-approx", n=2, k=2, m=m,
                             total_ops=400, read_fraction=0.3, seed=1)
        report = measure_worst_case(config)
        capacity = floor_log(2, m - 1) + 2
        assert report.step_bound == (capacity - 1).bit_length() + 1
        assert report.max_op_steps <= report.step_bound
        maxima.append(report.max_op_steps)
    assert maxima[1] - maxima[0] <= 1  # squaring m costs at most one step


def test_worst_case_tiny_register():
    config = BenchConfig(object="maxreg-approx", n=1, k=2, m=2,
                         total_ops=50, read_fraction=0.5, seed=2)
    report = measure_worst_case(config)
    assert report.step_bound == 2
    assert report.max_op_steps <= 2


def test_worst_case_exact_register_m_2_64():
    config = BenchConfig(object="maxreg-exact", n=2, m=2**64, total_ops=1000,
                         read_fraction=0.5, seed=1)
    report = measure_worst_case(config)
    assert report.total_ops == 1001  # plus the forced full-depth read
    assert report.max_op_steps <= 64


# (ops, total_steps, max_op_steps, amortized) per checkpoint, and the
# histogram where pinned: a wrongly dealt or wrongly counted operation
# stream changes these.  ops counts completed operations, but amortized
# divides by the operations invoked, so it pins the ones in flight too.
PINNED = [
    (measure_amortized,
     BenchConfig(object="counter", n=16, k=4, total_ops=10**5, read_fraction=0.1, seed=1),
     [(1013, 377, 9, Fraction(377, 1029)), (10006, 1495, 9, Fraction(1495, 10022)),
      (100000, 10634, 9, Fraction(5317, 50000))],
     {0: 89899, 1: 9837, 2: 131, 3: 27, 4: 88, 5: 10, 6: 6, 7: 1, 9: 1}),
    (measure_worst_case,
     BenchConfig(object="maxreg-exact", n=2, m=2**20, total_ops=10**4,
                 read_fraction=0.5, seed=1),
     [(1000, 10819, 20, Fraction(10819, 1002)), (10000, 110478, 20, Fraction(110478, 10001)),
      (10001, 110498, 20, Fraction(110498, 10001))],
     None),
    (measure_worst_case,
     BenchConfig(object="maxreg-approx", n=4, k=2, m=2**16, total_ops=3000,
                 read_fraction=0.3, seed=5),
     [(1000, 3774, 5, Fraction(1887, 502)), (3001, 11366, 5, Fraction(11366, 3001))],
     {1: 8, 2: 101, 3: 413, 4: 2478, 5: 1}),
]


@pytest.mark.parametrize("measure,config,checkpoints,histogram", PINNED,
                         ids=["counter", "maxreg-exact", "maxreg-approx"])
def test_pinned_outputs(measure, config, checkpoints, histogram):
    report = measure(config)
    assert [(c.ops, c.total_steps, c.max_op_steps, c.amortized)
            for c in report.checkpoints] == checkpoints
    if histogram is not None:
        assert report.histogram == histogram


@pytest.mark.parametrize("measure,config,digest", [
    (measure_worst_case,
     BenchConfig(object="maxreg-exact", n=2, m=2**20, total_ops=10**4,
                 read_fraction=0.5, seed=1), "26b1d962d9780e84"),
    (measure_worst_case,
     BenchConfig(object="maxreg-approx", n=3, k=2, m=10**5, total_ops=10**4,
                 read_fraction=0.5, seed=2), "a89f8816c267b360"),
    (measure_amortized,
     BenchConfig(object="counter", n=16, k=4, total_ops=10**5, read_fraction=0.1, seed=1),
     "145d6e2f79c4a4d6"),
], ids=["maxreg-exact", "maxreg-approx", "counter"])
def test_report_bytes_are_pinned(measure, config, digest):
    # every byte of the JSON report: its checkpoints, histogram and echo, and
    # so every seeded pick of the run
    text = measure(config).to_json()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("measure,config", [
    (measure_amortized,
     BenchConfig(object="counter", n=16, k=4, total_ops=10**5, read_fraction=0.1, seed=1)),
    (measure_worst_case,
     BenchConfig(object="maxreg-exact", n=2, m=2**20, total_ops=10**4,
                 read_fraction=0.5, seed=1)),
], ids=["counter", "maxreg-exact"])
def test_simulated_bench_streams_its_workload(measure, config):
    # memory must not grow with the operation count: the operations are
    # drawn as processes invoke them and no per-op list is kept
    tracemalloc.start()
    try:
        measure(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_json_report():
    config = BenchConfig(object="counter", n=2, k=2, total_ops=1500,
                         read_fraction=0.2, seed=0)
    report = measure_amortized(config)
    doc = json.loads(report.to_json())
    assert doc["config"].startswith("object=counter")
    assert len(doc["checkpoints"]) == len(report.checkpoints)
    assert doc["amortized"]["num"] == report.amortized.numerator


def test_run_native_releases_started_threads_when_a_start_fails(monkeypatch):
    started, barriers = [], []
    real_start = threading.Thread.start

    def start_once(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        real_start(thread)

    class RecordedBarrier(threading.Barrier):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            barriers.append(self)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    monkeypatch.setattr(threading, "Barrier", RecordedBarrier)
    try:
        with pytest.raises(RuntimeError):
            run_native(BenchConfig(object="counter", n=2, total_ops=10, mode="native"))
        assert [t for t in started if t.is_alive()] == []
    finally:
        # so that a run that leaves a worker blocked fails here instead of hanging
        for barrier in barriers:
            barrier.abort()
        for thread in started:
            thread.join(timeout=10)


def test_native_memory_semantics():
    mem = NativeMemory()
    bit = mem.alloc("tas", 0)
    assert mem.access(("tas", bit)) == 0
    assert mem.access(("tas", bit)) == 1
    reg = mem.alloc("register", 0)
    mem.access(("write", reg, 9))
    assert mem.access(("read", reg)) == 9
    with pytest.raises(ValueError):
        mem.alloc("tas", 1)


def test_native_single_thread_matches_sequential():
    config = BenchConfig(object="counter", n=1, k=3, total_ops=2000,
                         read_fraction=0.25, seed=11, mode="native")
    native = run_native(config)
    assert native.responses == sequential(config)
    assert native.total_ops == 2000
    assert native.per_thread_ops == [2000]


def test_sequential_reference_runs_every_dealt_operation():
    # process 0 runs first and draws the whole sequence; the others still
    # get the operations dealt to them
    config = BenchConfig(object="maxreg-exact", n=3, m=100, total_ops=10,
                         read_fraction=0.5, seed=2)
    assert [len(r) for r in sequential(config)] == [4, 3, 3]


def test_native_counter_sanity_envelope():
    config = BenchConfig(object="counter", n=4, k=2, total_ops=20000,
                         read_fraction=0.1, seed=7, mode="native")
    report = run_native(config)
    incs = sum(1 for tl in report.responses for x in tl if x is None)
    for tl in report.responses:
        for x in tl:
            if x is not None:
                assert 0 <= x <= 2 * incs
    assert report.total_ops == 20000
    doc = json.loads(report.to_json())
    assert doc["total_ops"] == 20000


@pytest.mark.parametrize("obj", ["maxreg-approx", "maxreg-exact"])
def test_native_maxreg_single_thread_matches_sequential(obj):
    config = BenchConfig(object=obj, n=1, k=2, m=1024,
                         total_ops=500, read_fraction=0.4, seed=5, mode="native")
    assert run_native(config).responses == sequential(config)


def _dealt_reference(config):
    """The global sequence drawn eagerly, op j dealt to process j mod n."""
    rng = random.Random(config.seed)
    ops = []
    for _ in range(config.total_ops):
        if rng.random() < config.read_fraction:
            ops.append(("read", ()))
        elif config.object == "counter":
            ops.append(("inc", ()))
        else:
            ops.append(("write", (rng.randrange(1, config.m),)))
    return [ops[p::config.n] for p in range(config.n)]


def _drain_round_robin(streams):
    out = [[] for _ in streams]
    live = list(range(len(streams)))
    while live:
        for p in list(live):
            op = next(streams[p], None)
            if op is None:
                live.remove(p)
            else:
                out[p].append(op)
    return out


BLOCK = bench._BLOCK_OPS


@pytest.mark.parametrize("config", [
    BenchConfig(object="counter", n=16, k=4, total_ops=BLOCK // 2 + 3, seed=1),
    BenchConfig(object="counter", n=3, total_ops=3 * BLOCK + 1, read_fraction=0.3,
                seed=2),
    BenchConfig(object="counter", n=1, total_ops=2 * BLOCK + 5, seed=3),
    BenchConfig(object="counter", n=2 * BLOCK + 1, total_ops=5 * BLOCK, seed=4),
    BenchConfig(object="maxreg-exact", n=7, m=1000, total_ops=2 * BLOCK + 11,
                read_fraction=0.4, seed=5),
    BenchConfig(object="maxreg-exact", n=5, m=2, total_ops=BLOCK - 2, seed=6),
    BenchConfig(object="maxreg-approx", n=4, k=2, m=256, total_ops=BLOCK + 3,
                read_fraction=0.5, seed=7),
    BenchConfig(object="maxreg-approx", n=1, k=3, m=100, total_ops=BLOCK // 3,
                seed=8),
], ids=["counter-below-block", "counter-above-block", "counter-n1",
        "counter-n-above-block", "exact-above-block", "exact-below-block",
        "approx-above-block", "approx-n1"])
def test_workload_deals_the_global_sequence(config):
    # the dealer draws in blocks; every op lands where an eager draw puts it,
    # however the processes take their streams
    reference = _dealt_reference(config)
    assert _drain_round_robin(bench._workload(config)) == reference
    assert [list(ops) for ops in bench._workload(config)] == reference
