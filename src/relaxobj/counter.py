"""Wait-free multiplicatively accurate unbounded counter.

The shared state is an unbounded ladder of one-shot test&set bits, a
short row of unit test&set bits, and an announce array of registers,
one per process, each holding an (index, sequence number) pair.  Bit 0
stands for one increment; past it the ladder is partitioned into
intervals of k bits, and each bit set within interval q (indices
qk+1 .. (q+1)k) stands for k**(q+1) increments made by whoever set it.

Increments are counted privately in ``lcounter`` until it reaches the
announce threshold ``limit`` (always a power of k); the process then
tries to publish the batch by claiming one bit of the interval matching
its threshold, walking at most the k bits of that interval.  Claiming a
bit resets the private count and publishes (bit index, sequence number)
in the announce array; exhausting the interval without a claim means
enough other announcements happened that the batch can be abandoned to
the error margin, and the threshold grows by a factor k.  A private
increment is not a step machine: ``program`` counts it and returns
``None``, as the rule in :mod:`relaxobj.shmem` allows.  Only the
increment that reaches ``limit`` gets a step machine, the one that
publishes.

While only bit 0 is set, the winner of bit 0 and every loser can each
keep up to k-1 completed increments private, 1 + n(k-1) in all, and a
read reporting k covers at most k*k of them.  The unit bits close that
gap: a process with pid >= k that loses bit 0 claims the first free
unit bit, so the set unit bits form a prefix whose length j counts
distinct increments, and a read that confirms only bit 0 returns
k(1 + j).  There are J = ceil((1 + n(k-1)) / k**2) - 1 unit bits,
none at all when k >= n - 1; processes 0..k-1 keep their lost increment
private, which with the winner's k is at most k*k increments.

Reads walk the ladder visiting only the first and last bit of each
interval (plus bit 0), resuming from where the previous read stopped,
and derive the result from the last bit they confirmed set.  A read
that stops at bit 0 reads the unit prefix, skipping the bits it
already knows are set; if the prefix grew during the read it re-reads bit 1 and
either returns k(1 + j) or continues up the ladder.  Because concurrent
increments could keep extending the ladder forever, a read snapshots
the announce sequence numbers after its first n iterations and
thereafter rescans every n iterations: a sequence number that grew by
two or more proves some bit was claimed entirely inside this read's
interval, so the read adopts that bit's value and terminates.  Both
operations are therefore wait-free: an increment performs at most
max(k, 1 + J) test&set attempts plus one announce write, and a read,
which reads at most J unit bits and bit 1 once more, is bounded once
any single process claims two more bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import shmem


def return_value(p: int, q: int, k: int) -> int:
    """Counter value encoded by a confirmed ladder bit at index q*k + p.

    Sums the increments guaranteed by bit 0 (one), by the k bits of each
    full interval l = 1 .. q below (k**(l+1) each), and by p bits of
    interval q itself, then scales by k to center the estimate in the
    accuracy window.  The interval terms form a geometric series, summed
    in closed form: k**2 + ... + k**(q+1) = (k**(q+2) - k**2) / (k - 1),
    a division that is exact.  Pure arithmetic; charges no steps.
    """
    if k < 2 or p < 0 or q < 0:
        raise ValueError("need k >= 2 and p, q >= 0")
    return k * (1 + p * k ** (q + 1) + (k ** (q + 2) - k * k) // (k - 1))


@dataclass
class ProcessState:
    """Persistent per-process counter variables."""

    lcounter: int = 0  # increments not yet announced
    limit: int = 1  # announce threshold, always k**limit_exp
    limit_exp: int = 0
    sn: int = 0  # announcements made so far (sequence number)
    l0: int = 1  # scan start offset within the current interval, in [1, k]
    last: int = 0  # highest ladder index this process has read
    last_confirmed: int | None = None  # highest ladder index this process saw set
    units: int = 0  # length of the unit-bit prefix this process knows is set


class ApproxCounter:
    """k-multiplicative-accurate counter shared by n processes.

    Operations: ``("inc", ())`` and ``("read", ())``.  Reads return 0 or
    k times an achievable announcement total; with k >= sqrt(n) the
    amortized number of shared-memory steps per operation is constant.

    The construction is permitted for any k >= 2; the k-window on reads
    is guaranteed once k*k >= n, which ``accuracy_guaranteed`` reports.
    In the low-count regime (only ladder bit 0 set) the unit bits keep
    reads inside the window; with k >= n - 1 there are none and the
    counter behaves exactly as the bare ladder.
    """

    #: ``states[pid]`` holds process pid's variables, which the reduced explorer
    #: captures and restores (``shmem._Restorable``)
    process_state = "states"

    def __init__(self, memory: shmem.Memory, n: int, k: int) -> None:
        if not isinstance(n, int) or n < 1:
            raise ValueError("process count n must be a positive integer")
        if not isinstance(k, int) or k < 2:
            raise ValueError("accuracy factor k must be an integer >= 2")
        self.n = n
        self.k = k
        self.accuracy_guaranteed = k * k >= n
        self.switches = shmem.LazyCells(memory, shmem.TAS)  # the ladder
        self.announce = [memory.alloc(shmem.REGISTER, (0, 0)) for _ in range(n)]
        unit_bits = -(-(1 + n * (k - 1)) // (k * k)) - 1
        self.units = [memory.alloc(shmem.TAS, 0) for _ in range(unit_bits)]
        self.states = [ProcessState() for _ in range(n)]

    def program(self, pid: int, op: str, args: tuple = ()):
        if not 0 <= pid < self.n:
            raise ValueError(f"process id {pid} outside [0, {self.n})")
        if op == "inc":
            st = self.states[pid]
            st.lcounter += 1
            if st.lcounter != st.limit:
                return None  # a private increment: complete, no step taken
            return self._publish(pid)
        if op == "read":
            return self._read(pid)
        raise ValueError(f"unknown operation {op!r}")

    def _publish(self, pid: int):
        st = self.states[pid]
        k = self.k
        j = st.limit_exp  # limit == k**j == lcounter
        if j > 0:
            for index in range((j - 1) * k + st.l0, j * k + 1):
                if (yield ("tas", self.switches[index])) == 0:
                    st.sn += 1
                    yield ("write", self.announce[pid], (index, st.sn))
                    st.lcounter = 0
                    if index < j * k:
                        st.l0 = 1 + index % k
                        return
                    break  # the interval's last bit: the threshold grows
            st.l0 = 1
        elif (yield ("tas", self.switches[0])) == 0:
            st.lcounter = 0
        elif pid >= k:
            # Claim the first free unit bit; st.units bits are known set.
            while st.units < len(self.units):
                won = (yield ("tas", self.units[st.units])) == 0
                st.units += 1
                if won:
                    break
        st.limit *= k
        st.limit_exp += 1

    def _read(self, pid: int):
        st = self.states[pid]
        k = self.k
        n = self.n
        iterations = 0
        baseline = []  # announce sequence numbers at the first boundary
        rechecked = False
        while True:
            while (yield ("read", self.switches[st.last])) != 0:
                st.last_confirmed = st.last
                if st.last % k == 0:
                    st.last += 1
                else:
                    st.last += k - 1
                iterations += 1
                # Helping is vacuous solo: a process cannot advance its own
                # sequence number while it is reading.
                if n > 1 and iterations % n == 0:
                    for other in range(n):
                        index, sn = yield ("read", self.announce[other])
                        if iterations == n:
                            baseline.append(sn)
                        elif sn - baseline[other] >= 2:
                            return return_value(index % k, index // k, k)
            if st.last_confirmed != 0 or rechecked:
                break
            # Only bit 0 confirmed: count the unit bits claimed so far.
            seen = st.units
            while (st.units < len(self.units)
                   and (yield ("read", self.units[st.units])) != 0):
                st.units += 1
            if st.units == seen:
                break
            rechecked = True  # the prefix grew: re-read bit 1 once
        if st.last_confirmed is None:
            return 0
        if st.last_confirmed == 0:
            return k * (1 + st.units)
        return return_value(st.last_confirmed % k, st.last_confirmed // k, k)

    # never charges steps; kept here because perfbench/workloads.py::counter_facts reads it

    def announce_oid_to_proc(self) -> dict[int, int]:
        return {cell.oid: p for p, cell in enumerate(self.announce)}
