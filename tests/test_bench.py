"""Metrics engine: amortized and worst-case step measurements, native mode."""

from __future__ import annotations

import json

import pytest

from relaxobj.bench import (MAX_PROCESSES, BenchConfig, NativeMemory,
                            measure_amortized, measure_worst_case, run_native,
                            run_sequential)
from relaxobj.maxreg_approx import floor_log


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
        BenchConfig(object="maxreg-approx", m=None)
    with pytest.raises(ValueError):
        BenchConfig(object="stack")
    for obj in ("maxreg-approx", "maxreg-exact"):
        with pytest.raises(ValueError, match="m must be"):
            BenchConfig(object=obj, m=1)
    for obj in ("counter", "maxreg-approx"):
        with pytest.raises(ValueError, match="k must be"):
            BenchConfig(object=obj, k=1, m=10)
    BenchConfig(object="maxreg-exact", k=1, m=2)  # k is unused there


def test_single_process_inc_read_exact_steps():
    config = BenchConfig(object="counter", n=1, k=4, total_ops=2,
                         read_fraction=0.0, seed=0)
    # force inc then read deterministically
    from relaxobj import shmem
    from relaxobj.counter import ApproxCounter

    memory = shmem.Memory()
    counter = ApproxCounter(memory, 1, 4)
    runner = shmem.Runner(memory, counter, [[("inc", ()), ("read", ())]])
    while runner.active:
        runner.step(0)
    report = runner.report()
    assert report.per_op == [[1, 2]]
    assert report.total_steps == 3


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


def test_csv_and_json_reports():
    config = BenchConfig(object="counter", n=2, k=2, total_ops=1500,
                         read_fraction=0.2, seed=0)
    report = measure_amortized(config)
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("# config: object=counter")
    assert lines[1] == "ops,total_steps,amortized,max_op_steps"
    assert len(lines) == 2 + len(report.checkpoints)
    doc = json.loads(report.to_json())
    assert doc["config"].startswith("object=counter")
    assert doc["amortized"]["num"] == report.amortized.numerator


def test_native_memory_semantics():
    mem = NativeMemory()
    bit = mem.alloc("tas", 0)
    assert mem.access(0, bit, "tas") == 0
    assert mem.access(0, bit, "tas") == 1
    reg = mem.alloc("register", 0)
    mem.access(0, reg, "write", 9)
    assert mem.access(1, reg, "read") == 9
    with pytest.raises(ValueError):
        mem.alloc("tas", 1)


def test_native_single_thread_matches_sequential():
    config = BenchConfig(object="counter", n=1, k=3, total_ops=2000,
                         read_fraction=0.25, seed=11, mode="native")
    native = run_native(config)
    assert native.responses == run_sequential(config)
    assert native.total_ops == 2000
    assert native.per_thread_ops == [2000]


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


def test_native_maxreg_single_thread_matches_sequential():
    config = BenchConfig(object="maxreg-approx", n=1, k=2, m=1024,
                         total_ops=500, read_fraction=0.4, seed=5, mode="native")
    assert run_native(config).responses == run_sequential(config)
