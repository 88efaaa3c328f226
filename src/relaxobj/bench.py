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

import itertools
import json
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterator

from . import lincheck, shmem
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
#: most operations native mode runs; each thread holds its whole op list
MAX_NATIVE_OPS = 10**6

_OP_INC = ("inc", ())
_OP_READ = ("read", ())

#: every object the harness runs, by name: (builder over (memory, n, k, m),
#: specification given k); key order is the order --help lists them in
OBJECTS = {
    "counter": (lambda memory, n, k, m: ApproxCounter(memory, n, k),
                lincheck.counter_spec),
    "maxreg-exact": (lambda memory, n, k, m: BoundedMaxRegister(memory, m),
                     lambda k: lincheck.maxreg_exact_spec()),
    "maxreg-approx": (lambda memory, n, k, m: ApproxMaxRegister(memory, k, m),
                      lincheck.maxreg_approx_spec),
}


def config_echo(**fields: Any) -> str:
    """A report's config echo: ``key=value`` pairs joined by spaces, ``-`` for unset."""
    return " ".join(f"{key}={'-' if value is None else value}" for key, value in fields.items())


@dataclass(frozen=True)
class BenchConfig:
    object: str  # a key of OBJECTS
    n: int = 1
    k: int = 2
    m: int | None = None
    total_ops: int = 1000
    read_fraction: float = 0.1
    seed: int = 0
    mode: str = "simulated"  # "simulated" | "native"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, not {self.n}")
        if self.n > MAX_PROCESSES:
            raise ValueError(f"n must be at most {MAX_PROCESSES}, not {self.n}")
        if self.total_ops < 1:
            raise ValueError("total_ops must be >= 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.object not in OBJECTS:
            raise ValueError(f"unknown object {self.object!r}")
        if self.mode not in ("simulated", "native"):
            raise ValueError(f"mode must be 'simulated' or 'native', not {self.mode!r}")
        if self.object.startswith("maxreg") and (self.m is None or self.m < 2):
            raise ValueError(f"m must be >= 2 for {self.object}, not {self.m}")
        if self.object != "maxreg-exact" and self.k < 2:
            raise ValueError(f"k must be >= 2 for {self.object}, not {self.k}")

    def echo(self) -> str:
        return config_echo(object=self.object, n=self.n, k=self.k, m=self.m,
                           ops=self.total_ops, read_fraction=self.read_fraction,
                           seed=self.seed, mode=self.mode)


@dataclass
class Checkpoint:
    ops: int  # operations completed
    total_steps: int
    amortized: Fraction  # total_steps over operations invoked: ops plus up to n in flight
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
        def exact(f: Fraction) -> dict:
            return {"num": f.numerator, "den": f.denominator, "value": float(f)}

        doc: dict[str, Any] = {
            "config": self.config.echo(),
            "checkpoints": [
                {"ops": c.ops, "total_steps": c.total_steps,
                 "amortized": exact(c.amortized), "max_op_steps": c.max_op_steps}
                for c in self.checkpoints
            ],
            "total_ops": self.total_ops,
            "total_steps": self.total_steps,
            "amortized": exact(self.amortized),
            "max_op_steps": self.max_op_steps,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }
        if self.step_bound is not None:
            doc["step_bound"] = self.step_bound
        return json.dumps(doc, indent=2)


#: operations drawn per dealt block, rounded down to whole rounds of n (at least one)
_BLOCK_OPS = 1024


def _workload(config: BenchConfig) -> list[Iterator[tuple]]:
    """One operation stream per process: process p's j-th is global op j*n + p.

    The seeded global sequence is drawn a block of whole rounds at a time,
    when some process has used up the operations dealt to it, and each
    process's share of a block (every n-th op from its pid) is queued for
    it.  A stream chains its dealt lists, so taking the next operation
    resumes no Python generator; only the operations drawn ahead of a
    process stay buffered.
    """
    n, total = config.n, config.total_ops
    rng = random.Random(config.seed)
    draw, randrange = rng.random, rng.randrange
    read_fraction, m = config.read_fraction, config.m
    size = max(1, _BLOCK_OPS // n) * n

    def block(count: int) -> list[tuple]:
        # per op: one draw, then a value draw for a write, as in one global loop
        if config.object == "counter":
            return [_OP_READ if draw() < read_fraction else _OP_INC
                    for _ in range(count)]
        return [_OP_READ if draw() < read_fraction else ("write", (randrange(1, m),))
                for _ in range(count)]

    blocks = (block(min(size, total - start)) for start in range(0, total, size))
    queues: list[deque] = [deque() for _ in range(n)]

    def dealt(queue: deque) -> Iterator[list[tuple]]:
        while True:
            while queue:
                yield queue.popleft()
            ops = next(blocks, None)
            if ops is None:
                return
            for p, q in enumerate(queues):  # a block starts at a multiple of n
                q.append(ops[p::n])

    return [itertools.chain.from_iterable(dealt(queue)) for queue in queues]


def factory(obj: str, n: int, k: int, m: int | None):
    """Builder of the named object over a given memory."""
    build = OBJECTS[obj][0]
    return lambda memory: build(memory, n, k, m)


def _checkpoint(runner: shmem.Runner) -> Checkpoint:
    report = runner.report()
    return Checkpoint(runner.ops_completed, report.total_steps, report.amortized,
                      report.max_op_steps())


def _measure(config: BenchConfig, workload) -> ComplexityReport:
    if config.mode != "simulated":
        raise ValueError(f"step measurement needs mode='simulated', not {config.mode!r}")
    runner = shmem.Runner(factory(config.object, config.n, config.k, config.m), workload,
                          record_history=False)
    slots = shmem.seeded(config.seed + 1)(runner)  # scheduling stream
    checkpoints: list[Checkpoint] = []
    for mark in CHECKPOINTS:
        if mark > config.total_ops:
            break
        # one slot may complete enough operations to cross several marks;
        # advance then runs no slot for the later ones
        runner.advance(slots, until_ops=mark)
        checkpoints.append(_checkpoint(runner))
    runner.advance(slots)
    if not checkpoints or checkpoints[-1].ops != runner.ops_completed:
        checkpoints.append(_checkpoint(runner))
    report = runner.report()
    bound = getattr(runner.instance, "step_bound", None)
    return ComplexityReport(config, checkpoints, report.op_count, report.total_steps,
                            report.amortized, report.max_op_steps(),
                            report.histogram, bound)


def measure_amortized(config: BenchConfig) -> ComplexityReport:
    """Amortized steps/op for the counter, sampled at geometric checkpoints."""
    if config.object != "counter":
        raise ValueError("measure_amortized expects object='counter'")
    return _measure(config, _workload(config))


def measure_worst_case(config: BenchConfig) -> ComplexityReport:
    """Worst single-operation step count for a max register workload.

    The first operation of process 0 is forced to be a read against the
    untouched register: it descends the full leftmost path, so the
    deepest possible operation is always exercised regardless of seed.
    """
    if config.object not in ("maxreg-approx", "maxreg-exact"):
        raise ValueError("measure_worst_case expects a max register object")
    workload = _workload(config)
    workload[0] = itertools.chain([_OP_READ], workload[0])
    return _measure(config, workload)


# ---------------------------------------------------------------------------
# Native mode
# ---------------------------------------------------------------------------


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
    if config.mode != "native":
        raise ValueError(f"run_native needs mode='native', not {config.mode!r}")
    if config.n > MAX_NATIVE_THREADS or config.total_ops > MAX_NATIVE_OPS:
        raise ValueError(f"native mode runs at most {MAX_NATIVE_THREADS} threads and "
                         f"{MAX_NATIVE_OPS} ops, not n={config.n} and {config.total_ops} ops")
    # lists, so the threads share no dealer inside the timed loop
    workload = [list(ops) for ops in _workload(config)]
    memory = NativeMemory()
    instance = factory(config.object, config.n, config.k, config.m)(memory)
    responses: list[list[Any]] = [[] for _ in range(config.n)]
    barrier = threading.Barrier(config.n)

    def worker(pid: int) -> None:
        out = responses[pid]
        try:
            barrier.wait()
        except threading.BrokenBarrierError:  # a later thread failed to start
            return
        for name, args in workload[pid]:
            out.append(drive(instance.program(pid, name, args), memory))

    threads = [threading.Thread(target=worker, args=(p,)) for p in range(config.n)]
    start = time.perf_counter()
    try:
        for t in threads:
            t.start()
    except BaseException:
        barrier.abort()  # the threads already started return instead of waiting forever
        raise
    finally:
        for t in threads:
            if t.ident is not None:  # only a started thread can be joined
                t.join()
    seconds = time.perf_counter() - start
    total = sum(len(r) for r in responses)
    return NativeReport(config, total, seconds,
                        total / seconds if seconds > 0 else float("inf"),
                        [len(r) for r in responses], responses)
