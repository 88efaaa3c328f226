"""Multiplicatively accurate bounded max register.

Instead of the written value v in [1, m-1], only its magnitude index
floor(log_k v) + 1 is stored, in an exact bounded max register of
capacity floor(log_k (m-1)) + 2.  A read returns k**index (0 while
nothing was written), which lands within a factor k above the true
maximum: if v is the largest value written so far and p its stored
index, then k**(p-1) <= v <= k**p - 1, hence v <= k**p <= v*k.

The payoff is step complexity doubly logarithmic in m: each operation
performs one inner-register operation on a tree of depth
ceil(log2(floor(log_k (m-1)) + 2)).
"""

from __future__ import annotations

from . import maxreg_exact, shmem


def floor_log(base: int, value: int) -> int:
    """Largest e with base**e <= value, by exact integer arithmetic.

    Floating-point logarithms can misround near exact powers of the
    base, which would corrupt magnitude indices; this never does.
    """
    if not isinstance(base, int) or base < 2:
        raise ValueError("base must be an integer >= 2")
    if not isinstance(value, int) or value < 1:
        raise ValueError("value must be a positive integer")
    e = 0
    power = base
    while power <= value:
        e += 1
        power *= base
    return e


class ApproxMaxRegister:
    """k-multiplicative-accurate m-bounded max register.

    Operations: ``("write", (v,))`` with v in [1, m-1] and ``("read", ())``.
    Every nonzero read returns an exact power k**p with
    1 <= p <= floor_log(k, m-1) + 1, and satisfies v <= read <= v*k for
    the maximum v written before it.
    """

    process_state = None  # no per-process variables to restore (``shmem._Restorable``)

    def __init__(self, memory: shmem.Memory, k: int, m: int) -> None:
        if not isinstance(k, int) or k < 2:
            raise ValueError("accuracy factor k must be an integer >= 2")
        if not isinstance(m, int) or m < 2:
            raise ValueError("value bound m must be an integer >= 2")
        self.k = k
        self.m = m
        self.capacity = floor_log(k, m - 1) + 2
        self.inner = maxreg_exact.BoundedMaxRegister(memory, self.capacity)
        #: analytic worst case accesses for any single operation
        self.step_bound = self.inner.depth + 1

    def program(self, pid: int, op: str, args: tuple = ()):
        if op == "write":
            (v,) = args
            if not isinstance(v, int) or not 1 <= v <= self.m - 1:
                raise ValueError(f"write value {v!r} outside [1, {self.m - 1}]")
            return self.inner.program(pid, "write", (floor_log(self.k, v) + 1,))
        if op == "read":
            return self._read(pid)
        raise ValueError(f"unknown operation {op!r}")

    def _read(self, pid: int):
        index = yield from self.inner.program(pid, "read")
        return 0 if index == 0 else self.k ** index
