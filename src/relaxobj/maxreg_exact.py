"""Exact bounded max register built from read/write registers only.

A capacity-M register is a tournament tree: the root owns a one-shot
switch register (written only with 1) and splits the value range between
a left child of capacity ceil(M/2) (values below the split) and a right
child of capacity floor(M/2) (values at or above it, stored relative to
the split).  A write for the upper half first records the remainder in
the right subtree and only then raises the switch, so a reader that sees
the switch up always finds the value that justified it; a write for the
lower half is dominated and abandoned as soon as it sees the switch up.
Both operations walk one root-to-leaf path, so every operation performs
at most ceil(log2 M) accesses and is wait-free unconditionally.

The tree is allocated lazily: a node's switch register is created the
first time an operation reaches the node, and, like every allocation,
this costs no step.  Memory therefore grows with the paths operations
have touched, not with M, and capacities up to 2**64 and beyond are
usable.  Switches are :class:`shmem.LazyCells` registers keyed by heap
index (root 1, children 2i and 2i+1).
"""

from __future__ import annotations

from . import shmem


class BoundedMaxRegister:
    """Wait-free linearizable max register over values [0, capacity).

    Operations: ``("write", (v,))`` and ``("read", ())``.  A read returns
    the maximum value of all writes linearized before it (0 if none).
    """

    def __init__(self, memory: shmem.Memory, capacity: int) -> None:
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError("capacity must be a positive integer")
        self.capacity = capacity
        self.depth = (capacity - 1).bit_length()  # == ceil(log2 capacity)
        self.switches = shmem.LazyCells(memory, shmem.REGISTER)  # by heap index

    def program(self, pid: int, op: str, args: tuple = ()):
        if op == "write":
            (v,) = args
            if not isinstance(v, int) or not 0 <= v < self.capacity:
                raise ValueError(f"write value {v!r} outside [0, {self.capacity})")
            return self._write(v)
        if op == "read":
            return self._read()
        raise ValueError(f"unknown operation {op!r}")

    def _write(self, v: int):
        # descend without raising anything, then raise bottom-up
        node, capacity, raises = 1, self.capacity, []
        while capacity > 1:
            split = (capacity + 1) // 2
            switch = self.switches.cell(node)
            if v >= split:
                raises.append(switch)
                node, capacity, v = 2 * node + 1, capacity // 2, v - split
            elif (yield ("read", switch)) == 0:
                node, capacity = 2 * node, split
            else:
                break
        for switch in reversed(raises):
            yield ("write", switch, 1)

    def _read(self):
        node, capacity, value = 1, self.capacity, 0
        while capacity > 1:
            split = (capacity + 1) // 2
            if (yield ("read", self.switches.cell(node))) == 1:
                node, capacity, value = 2 * node + 1, capacity // 2, value + split
            else:
                node, capacity = 2 * node, split
        return value
