"""Shared helpers for the test suite."""

from __future__ import annotations

import random

from relaxobj.shmem import Memory, drive


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
