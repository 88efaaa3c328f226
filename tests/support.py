"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import random

from relaxobj import bench
from relaxobj.shmem import History, Memory, Runner, drive, seeded


class SpinInstance:
    """Test object whose single op performs a fixed number of reads."""

    def __init__(self, memory):
        self.cell = memory.alloc("register", 0)

    def program(self, pid, op, args=()):
        assert op == "spin"
        return self._spin(args[0])

    def _spin(self, count):
        for _ in range(count):
            yield ("read", self.cell)
        return count


def spin_workload(*step_counts):
    return [[("spin", (c,))] for c in step_counts]


def solo(instance, memory: Memory, ops, pid: int = 0):
    """Run ops sequentially for one process; returns the responses."""
    return [drive(instance.program(pid, name, args), memory)
            for name, args in ops]


def sequential(config: bench.BenchConfig):
    """Responses of the bench workload run one process at a time, via ``solo``.

    Native mode's reference: a single-thread native run must return these.
    """
    memory = Memory()
    instance = bench.factory(config.object, config.n, config.k, config.m)(memory)
    return [solo(instance, memory, ops, pid)
            for pid, ops in enumerate(bench._workload(config))]


def traced(factory, workload, seed: int) -> Runner:
    """The finished runner of ``run(factory, workload, seeded(seed), record_trace=True)``.

    It records no history; the picks are the same, as ``seeded`` reads only
    ``runner.active``.
    """
    runner = Runner(factory, workload, record_history=False, record_trace=True)
    runner.advance(seeded(seed)(runner))
    return runner


def set_indexes(counter) -> list[int]:
    """Indexes of the counter's set ladder bits, in order."""
    return sorted(i for i, cell in counter.switches.items() if cell.value)


def oid_to_index(pairs) -> dict[int, int]:
    """Cell oid to index, over ``counter.switches.items()`` or ``enumerate(counter.units)``."""
    return {cell.oid: i for i, cell in pairs}


def history_from_json(text: str) -> History:
    """Parse ``History.to_json`` output; a list return value comes back as a tuple."""
    events = []
    for doc in json.loads(text):
        if doc["type"] == "invoke":
            payload = tuple(doc.get("args", ()))
        else:
            payload = doc.get("ret")
            if isinstance(payload, list):
                payload = tuple(payload)
        events.append((doc["type"], doc["proc"], doc["op"], payload, doc.get("step", 0)))
    return History(events)


def random_counter_workload(rng: random.Random, n: int, max_ops: int,
                            read_fraction: float = 0.3):
    total = rng.randint(max(2, n), max_ops)
    workload = [[] for _ in range(n)]
    for i in range(total):
        op = ("read", ()) if rng.random() < read_fraction else ("inc", ())
        workload[i % n].append(op)
    return workload


def random_maxreg_workload(rng: random.Random, n: int, max_ops: int, m: int,
                           read_fraction: float = 0.4):
    total = rng.randint(max(2, n), max_ops)
    workload = [[] for _ in range(n)]
    for i in range(total):
        if rng.random() < read_fraction:
            op = ("read", ())
        else:
            op = ("write", (rng.randrange(1, m),))
        workload[i % n].append(op)
    return workload
