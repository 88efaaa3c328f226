"""Step-complexity metrics engine.

Measures what the constructions promise: amortized shared-memory steps
per operation for the counter (flat in the operation count once
k*k >= n) and worst-case steps per operation for the approximate max
register (doubly logarithmic in the value bound).  Simulated mode runs
under the deterministic seeded scheduler and is exactly reproducible;
native mode runs the same step-machine code over mutual-exclusion cells
with real threads and reports throughput only.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from . import shmem
from .shmem import NativeMemory, drive
from .counter import ApproxCounter
from .maxreg_approx import ApproxMaxRegister
from .maxreg_exact import BoundedMaxRegister

#: geometric sampling points for growth series
CHECKPOINTS = (10**3, 10**4, 10**5, 10**6)

#: most processes a workload may declare; per-process state grows with n
MAX_PROCESSES = 10**4

#: most threads native mode starts (one per process)
MAX_NATIVE_THREADS = 64

_OP_INC = ("inc", ())
_OP_READ = ("read", ())


@dataclass(frozen=True)
class BenchConfig:
    object: str  # "counter" | "maxreg-approx" | "maxreg-exact"
    n: int = 1
    k: int = 2
    m: int | None = None
    total_ops: int = 1000
    read_fraction: float = 0.1
    seed: int = 0
    mode: str = "simulated"  # "simulated" | "native"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n > MAX_PROCESSES:
            raise ValueError(f"n must be at most {MAX_PROCESSES}, not {self.n}")
        if self.total_ops < 1:
            raise ValueError("total_ops must be >= 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.object not in ("counter", "maxreg-approx", "maxreg-exact"):
            raise ValueError(f"unknown object {self.object!r}")
        if self.object.startswith("maxreg"):
            if self.m is None:
                raise ValueError("max registers need the value bound m")
            if self.m < 2:
                raise ValueError(f"m must be >= 2 for {self.object}, not {self.m}")
        if self.object != "maxreg-exact" and self.k < 2:
            raise ValueError(f"k must be >= 2 for {self.object}, not {self.k}")

    def echo(self) -> str:
        return (f"object={self.object} n={self.n} k={self.k} "
                f"m={self.m if self.m is not None else '-'} ops={self.total_ops} "
                f"read_fraction={self.read_fraction} seed={self.seed} mode={self.mode}")


@dataclass
class Checkpoint:
    ops: int
    total_steps: int
    amortized: Fraction
    max_op_steps: int


@dataclass
class ComplexityReport:
    config: BenchConfig
    checkpoints: list[Checkpoint]
    total_ops: int
    total_steps: int
    amortized: Fraction
    max_op_steps: int
    histogram: dict[int, int]
    step_bound: int | None = None  # analytic per-op bound, where one exists

    def to_json(self) -> str:
        doc: dict[str, Any] = {
            "config": self.config.echo(),
            "checkpoints": [
                {"ops": c.ops, "total_steps": c.total_steps,
                 "amortized": {"num": c.amortized.numerator,
                               "den": c.amortized.denominator,
                               "value": float(c.amortized)},
                 "max_op_steps": c.max_op_steps}
                for c in self.checkpoints
            ],
            "total_ops": self.total_ops,
            "total_steps": self.total_steps,
            "amortized": {"num": self.amortized.numerator,
                          "den": self.amortized.denominator,
                          "value": float(self.amortized)},
            "max_op_steps": self.max_op_steps,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }
        if self.step_bound is not None:
            doc["step_bound"] = self.step_bound
        return json.dumps(doc, indent=2)

    def to_csv(self) -> str:
        # amortized rounds to 6 decimals here; to_json carries it exactly
        lines = [f"# config: {self.config.echo()}",
                 "ops,total_steps,amortized,max_op_steps"]
        for c in self.checkpoints:
            lines.append(f"{c.ops},{c.total_steps},{float(c.amortized):.6f},"
                         f"{c.max_op_steps}")
        return "\n".join(lines) + "\n"


def _workload(config: BenchConfig, rng: random.Random) -> list[list[tuple]]:
    """Per-process operation lists; round-robin split of total_ops."""
    ops: list[list[tuple]] = [[] for _ in range(config.n)]
    for i in range(config.total_ops):
        if rng.random() < config.read_fraction:
            op = _OP_READ
        elif config.object == "counter":
            op = _OP_INC
        else:
            op = ("write", (rng.randrange(1, config.m),))
        ops[i % config.n].append(op)
    return ops


def factory(obj: str, n: int, k: int, m: int | None):
    """Builder of the named object over a given memory."""
    if obj == "counter":
        return lambda memory: ApproxCounter(memory, n, k)
    if obj == "maxreg-approx":
        return lambda memory: ApproxMaxRegister(memory, k, m)
    return lambda memory: BoundedMaxRegister(memory, m)


def _factory(config: BenchConfig):
    return factory(config.object, config.n, config.k, config.m)


def _checkpoint(runner: shmem.Runner) -> Checkpoint:
    report = runner.report()
    return Checkpoint(runner.ops_completed, report.total_steps, report.amortized,
                      report.max_op_steps())


def _measure(config: BenchConfig, workload) -> ComplexityReport:
    memory = shmem.Memory()
    instance = _factory(config)(memory)
    runner = shmem.Runner(memory, instance, workload, record_history=False)
    slots = shmem.seeded(config.seed + 1).slots(runner)  # scheduling stream
    checkpoints: list[Checkpoint] = []
    for mark in CHECKPOINTS:
        if mark > config.total_ops:
            break
        # one slot may complete enough operations to cross several marks
        if runner.ops_completed < mark and not runner.advance(slots, until_ops=mark):
            break
        checkpoints.append(_checkpoint(runner))
    runner.advance(slots)
    if not checkpoints or checkpoints[-1].ops != runner.ops_completed:
        checkpoints.append(_checkpoint(runner))
    report = runner.report()
    bound = getattr(instance, "step_bound", None)
    return ComplexityReport(config, checkpoints, report.op_count, report.total_steps,
                            report.amortized, report.max_op_steps(),
                            report.histogram(), bound)


def measure_amortized(config: BenchConfig) -> ComplexityReport:
    """Amortized steps/op for the counter, sampled at geometric checkpoints."""
    if config.object != "counter":
        raise ValueError("measure_amortized expects object='counter'")
    rng = random.Random(config.seed)
    return _measure(config, _workload(config, rng))


def measure_worst_case(config: BenchConfig) -> ComplexityReport:
    """Worst single-operation step count for a max register workload.

    The first operation of process 0 is forced to be a read against the
    untouched register: it descends the full leftmost path, so the
    deepest possible operation is always exercised regardless of seed.
    """
    if config.object not in ("maxreg-approx", "maxreg-exact"):
        raise ValueError("measure_worst_case expects a max register object")
    rng = random.Random(config.seed)
    workload = _workload(config, rng)
    workload[0].insert(0, _OP_READ)
    return _measure(config, workload)


# ---------------------------------------------------------------------------
# Native mode
# ---------------------------------------------------------------------------


def run_sequential(config: BenchConfig) -> list[list[Any]]:
    """Responses of the seeded workload executed one process at a time.

    Reference output for single-thread native runs.
    """
    rng = random.Random(config.seed)
    workload = _workload(config, rng)
    memory = shmem.Memory()
    instance = _factory(config)(memory)
    responses: list[list[Any]] = []
    for pid, ops in enumerate(workload):
        responses.append([drive(instance.program(pid, name, args), memory, pid)
                          for name, args in ops])
    return responses


@dataclass
class NativeReport:
    config: BenchConfig
    total_ops: int
    seconds: float
    ops_per_second: float
    per_thread_ops: list[int]
    responses: list[list[Any]] = field(repr=False)

    def to_json(self) -> str:
        return json.dumps({
            "config": self.config.echo(),
            "total_ops": self.total_ops,
            "seconds": self.seconds,
            "ops_per_second": self.ops_per_second,
            "per_thread_ops": self.per_thread_ops,
        }, indent=2)


def run_native(config: BenchConfig) -> NativeReport:
    """Run the workload over locked cells with one thread per process."""
    if config.n > MAX_NATIVE_THREADS:
        raise ValueError(f"native mode runs at most {MAX_NATIVE_THREADS} threads, "
                         f"not n={config.n}")
    rng = random.Random(config.seed)
    workload = _workload(config, rng)
    memory = NativeMemory()
    instance = _factory(config)(memory)
    responses: list[list[Any]] = [[] for _ in range(config.n)]
    barrier = threading.Barrier(config.n)

    def worker(pid: int) -> None:
        out = responses[pid]
        barrier.wait()
        for name, args in workload[pid]:
            out.append(drive(instance.program(pid, name, args), memory, pid))

    threads = [threading.Thread(target=worker, args=(p,)) for p in range(config.n)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seconds = time.perf_counter() - start
    total = sum(len(r) for r in responses)
    return NativeReport(config, total, seconds,
                        total / seconds if seconds > 0 else float("inf"),
                        [len(r) for r in responses], responses)
