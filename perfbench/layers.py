"""Which relaxobj calls the traced run wraps, and the per-layer metrics.

Layers are relaxobj's modules.  The wrapped calls are the boundaries the
benchmark's workloads cross: the CLI entry points, the simulator's
memory, scheduler and enumerator, the checker, the bench entry points,
the relaxed objects' op invocations and the exact max register's
constructor.
"""

from __future__ import annotations

import os
import statistics

from relaxobj import bench, cli, counter, lincheck, maxreg_approx, maxreg_exact, shmem
from relaxobj.shmem import Event, History

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("shmem.enum_leaves", "leaves", "lower"),
    ("shmem.leaves_per_history", "leaves/history", "lower"),
    ("shmem.replayed_steps", "steps", "lower"),
    ("shmem.enum_s", "s", "lower"),
    ("shmem.alloc_calls", "cells", "lower"),
    ("shmem.alloc_s", "s", "lower"),
    ("shmem.access_us", "us", "lower"),
    ("shmem.runner_step_us", "us", "lower"),
    ("shmem.runner_steps", "steps", "lower"),
    ("shmem.run_us", "us", "lower"),
    ("lincheck.check_ms_p50", "ms", "lower"),
    ("lincheck.check_ms_tail", "ms", "lower"),
    ("lincheck.states", "states", "lower"),
    ("lincheck.states_max", "states", "lower"),
    ("lincheck.states_per_s", "states/s", "higher"),
    ("lincheck.valid", "histories", "higher"),
    ("lincheck.invalid", "histories", "lower"),
    ("lincheck.inconclusive", "histories", "lower"),
    ("lincheck.max_sequential_ops", "ops", "higher"),
    ("counter.steps_per_inc", "steps/op", "lower"),
    ("counter.steps_per_read", "steps/op", "lower"),
    ("counter.tas_win_ratio", "wins/tas", "higher"),
    ("counter.helped_reads", "reads", "lower"),
    ("maxreg_exact.build_s", "s", "lower"),
    ("maxreg_exact.cells", "cells", "lower"),
    ("maxreg_exact.depth", "levels", "lower"),
    ("maxreg_approx.max_op_steps", "steps", "lower"),
    ("maxreg_approx.step_bound", "steps", "lower"),
    ("bench.measure_self_s", "s", "lower"),
    ("bench.checkpoint_overshoot_ops", "ops", "lower"),
    ("bench.max_op_steps", "steps", "lower"),
    ("bench.native_ops_per_s", "ops/s", "higher"),
    ("cli.check_self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

#: threads of the native probe; it must not exceed the cores available
NATIVE_THREADS = 2
NATIVE_OPS = 2 * 10**5
#: the sequential-history probe doubles from here up to the cap
SEQUENTIAL_START = 250
SEQUENTIAL_CAP = 4000


def install(tracer) -> None:
    """Wrap every layer boundary the workloads cross; undo with ``tracer.restore()``."""
    memory, runner = shmem.Memory, shmem.Runner
    tracer.patch(memory, "access", tracer.hot("shmem.access", memory.access))
    tracer.patch(memory, "alloc", tracer.hot("shmem.alloc", memory.alloc))
    tracer.patch(runner, "step", tracer.hot("shmem.runner_step", runner.step))
    tracer.patch(shmem, "run", tracer.span("shmem.run", shmem.run))
    tracer.patch(shmem, "enumerate_interleavings",
                 tracer.enumerator("shmem.enumerate_interleavings",
                                   shmem.enumerate_interleavings))

    def checked(result, args):
        tracer.add("lincheck.states", result.states_explored)
        tracer.peak("lincheck.states_max", result.states_explored)
        tracer.add(f"lincheck.{result.verdict}")

    tracer.patch(lincheck, "check", tracer.span("lincheck.check", lincheck.check, checked))
    # op invocations; the operation's accesses run later, inside Runner.step
    for module, cls in ((counter, counter.ApproxCounter),
                        (maxreg_approx, maxreg_approx.ApproxMaxRegister)):
        name = f"{module.__name__.rsplit('.', 1)[-1]}.program"
        tracer.patch(cls, "program", tracer.hot(name, cls.program))
    for name in ("measure_amortized", "measure_worst_case"):
        tracer.patch(bench, name, tracer.span(f"bench.{name}", getattr(bench, name)))
    tracer.patch(cli, "main", tracer.span("cli.main", cli.main))
    tracer.patch(cli, "cmd_check", tracer.span("cli.cmd_check", cli.cmd_check))

    register = maxreg_exact.BoundedMaxRegister
    build = tracer.span("maxreg_exact.build", register.__init__)
    allocs = tracer.stats["shmem.alloc"]

    def init(self, memory, capacity):
        before = allocs[0]
        build(self, memory, capacity)
        tracer.add("maxreg_exact.cells", allocs[0] - before)
        tracer.peak("maxreg_exact.depth", self.depth)

    tracer.patch(register, "__init__", init)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    Below 20 samples that percentile would not lie above the median, so
    the maximum (percentile 100) is reported instead.
    """
    ordered = sorted(samples)
    if len(ordered) < 20:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def derive(tracer, passes: int) -> dict[str, float | None]:
    """Per-layer metrics of one traced phase; None where a layer was not used.

    Counts are per pass over the workload's inputs, so they do not depend
    on how many passes fit in the run.
    """
    stats, facts = tracer.stats, tracer.facts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats[name][1]

    def own(name):
        return stats[name][2]

    out: dict[str, float | None] = {name: None for name, _, _ in PER_LAYER}
    if calls("shmem.enumerate_interleavings"):
        out["shmem.enum_leaves"] = facts["enum.leaves"] / passes
        out["shmem.leaves_per_history"] = facts["enum.leaves"] / facts["enum.histories"]
        out["shmem.replayed_steps"] = facts["enum.replayed_steps"] / passes
        out["shmem.enum_s"] = own("shmem.enumerate_interleavings") / passes
    if calls("shmem.alloc"):
        out["shmem.alloc_calls"] = calls("shmem.alloc") / passes
        out["shmem.alloc_s"] = total("shmem.alloc") / passes
    if calls("shmem.access"):
        out["shmem.access_us"] = 1e6 * total("shmem.access") / calls("shmem.access")
    if calls("shmem.runner_step"):
        out["shmem.runner_step_us"] = (1e6 * total("shmem.runner_step")
                                       / calls("shmem.runner_step"))
        out["shmem.runner_steps"] = calls("shmem.runner_step") / passes
    if calls("shmem.run"):
        out["shmem.run_us"] = 1e6 * total("shmem.run") / calls("shmem.run")
    if calls("lincheck.check"):
        checks = [1e3 * d for d in tracer.durations("lincheck.check")]
        out["lincheck.check_ms_p50"] = statistics.median(checks)
        out["lincheck.check_ms_tail"] = tail(checks)[0]
        out["lincheck.states"] = facts["lincheck.states"] / passes
        out["lincheck.states_max"] = facts["lincheck.states_max"]
        out["lincheck.states_per_s"] = facts["lincheck.states"] / total("lincheck.check")
        for verdict in ("valid", "invalid", "inconclusive"):
            out[f"lincheck.{verdict}"] = facts.get(f"lincheck.{verdict}", 0) / passes
    if facts.get("counter.incs") and facts.get("counter.reads"):
        out["counter.steps_per_inc"] = facts["counter.inc_steps"] / facts["counter.incs"]
        out["counter.steps_per_read"] = facts["counter.read_steps"] / facts["counter.reads"]
        out["counter.tas_win_ratio"] = facts["counter.tas_wins"] / facts["counter.tas"]
        out["counter.helped_reads"] = facts.get("counter.helped_reads", 0) / passes
    if calls("maxreg_exact.build"):
        out["maxreg_exact.build_s"] = total("maxreg_exact.build") / calls("maxreg_exact.build")
        out["maxreg_exact.cells"] = facts["maxreg_exact.cells"] / calls("maxreg_exact.build")
        out["maxreg_exact.depth"] = facts["maxreg_exact.depth"]
    if "maxreg_approx.step_bound" in facts:
        out["maxreg_approx.max_op_steps"] = facts["maxreg_approx.max_op_steps"]
        out["maxreg_approx.step_bound"] = facts["maxreg_approx.step_bound"]
    measures = [n for n in ("bench.measure_amortized", "bench.measure_worst_case")
                if calls(n)]
    if measures:
        out["bench.measure_self_s"] = sum(own(n) for n in measures) / passes
        out["bench.checkpoint_overshoot_ops"] = (facts["bench.checkpoint_overshoot_ops"]
                                                 / passes)
        out["bench.max_op_steps"] = facts["bench.max_op_steps"]
    if calls("cli.cmd_check"):
        out["cli.check_self_s"] = own("cli.cmd_check") / passes
    return out


# ---------------------------------------------------------------------------
# Probes: capabilities and native throughput, measured the same way on
# every workload's traced run
# ---------------------------------------------------------------------------


def _sequential_history(length: int) -> History:
    events, count = [], 0
    for i in range(length):
        if i % 4 == 3:
            events += [Event("invoke", 0, "read", (), 0), Event("respond", 0, "read", count, 0)]
        else:
            count += 1
            events += [Event("invoke", 0, "inc", (), 0), Event("respond", 0, "inc", None, 0)]
    return History(events)


def max_sequential_ops() -> int:
    """Longest sequential counter history, doubling from 250, that ``check`` finishes.

    Returns 0 if even the first size fails, and stops at the cap.
    """
    spec = lincheck.counter_spec(2)
    longest, length = 0, SEQUENTIAL_START
    while length <= SEQUENTIAL_CAP:
        try:
            verdict = lincheck.check(_sequential_history(length), spec).verdict
        except RecursionError:
            break
        if verdict != "valid":
            break
        longest, length = length, 2 * length
    return longest


def check_thread_count(n: int) -> None:
    """Reject a native thread count above the cores this process may use."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    if n > cores:
        raise ValueError(f"native probe wants {n} threads but only {cores} cores")


def native_probe(seed: int) -> tuple[float, list[str]]:
    """ops/s of ``run_native`` with NATIVE_THREADS threads, and any bad reads."""
    check_thread_count(NATIVE_THREADS)
    config = bench.BenchConfig(object="counter", n=NATIVE_THREADS, k=2,
                               total_ops=NATIVE_OPS, read_fraction=0.1, seed=seed,
                               mode="native")
    report = bench.run_native(config)
    problems = []
    if report.total_ops != NATIVE_OPS:
        problems.append(f"native run completed {report.total_ops} of {NATIVE_OPS} ops")
    increments = sum(v is None for values in report.responses for v in values)
    for values in report.responses:
        for value in values:
            if value is not None and not 0 <= value <= config.k * increments:
                problems.append(f"native read {value} outside [0, k * {increments}]")
    return report.ops_per_second, problems
