"""Instrumented shared memory and a deterministic step-machine scheduler.

Shared state lives in :class:`Cell` objects (base objects) of two kinds:
multi-valued registers, whose value may be any Python value (a tuple is
read and written as a single atomic unit), and one-shot test&set bits.

Operations are expressed as *step machines*: generator functions that
yield one access request per resumption and eventually ``return`` the
operation's response.  An object's ``program(pid, op, args)`` returns the
operation's step machine, or ``None`` for an operation that has already
completed, with response ``None`` and no step taken (the counter's
private increments).  A request is a tuple:

    ("read", cell)           -> current value
    ("write", cell, value)   -> None
    ("tas", cell)            -> previous bit value; the bit becomes 1

:meth:`Memory.access` executes one request exactly as it was yielded.
Exactly one step is charged per executed access; local computation
between accesses is free.  Under the scheduler (:class:`Runner`) every
access is atomic by construction, and a run is fully determined by the
workload plus the sequence of scheduled process ids.  :func:`drive` runs
one step machine to completion instead: over :class:`Memory` for
sequential reference runs, or over :class:`NativeMemory` from threads.

Invocations are eager: at start-up, and whenever an operation completes,
the owning process immediately invokes its next operations, completing
any access-free ones (``None``, or a step machine that returns before its
first request) with zero steps, until an operation arms an access.  A
scheduled slot then executes exactly one armed access.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, NamedTuple

REGISTER = "register"
TAS = "tas"


class IllegalAccess(ValueError):
    """A primitive was applied to a cell kind that does not support it."""


class Cell:
    """An atomically accessed base object."""

    __slots__ = ("oid", "kind", "value")

    def __init__(self, oid: int, kind: str, value: Any) -> None:
        self.oid = oid
        self.kind = kind
        self.value = value

    def __repr__(self) -> str:
        return f"Cell({self.oid}, {self.kind!r}, {self.value!r})"


class Memory:
    """Cell allocation plus atomic access with step accounting.

    ``steps`` counts every access ever performed; allocation is free.
    """

    def __init__(self) -> None:
        self.cells: list[Cell] = []
        self.steps = 0

    def alloc(self, kind: str, initial: Any) -> Cell:
        if kind == TAS:
            if initial != 0:
                raise ValueError("test&set bits always start at 0")
        elif kind != REGISTER:
            raise ValueError(f"unknown cell kind {kind!r}")
        cell = Cell(len(self.cells), kind, initial)
        self.cells.append(cell)
        return cell

    def access(self, request: tuple) -> Any:
        primitive, cell = request[0], request[1]
        if primitive == "read":
            result = cell.value
        elif primitive == "write":
            if cell.kind == TAS or len(request) != 3:
                raise IllegalAccess(f"a write needs a register and a value: {request!r}")
            cell.value = request[2]
            result = None
        elif primitive == "tas":
            if cell.kind != TAS:
                raise IllegalAccess(f"test&set applied to {cell.kind!r} cell")
            result = cell.value
            cell.value = 1
        else:
            raise IllegalAccess(f"unknown primitive {primitive!r}")
        self.steps += 1
        return result


class NativeMemory(Memory):
    """Thread-shared memory: each access runs :meth:`Memory.access` under its cell's lock.

    The same object factories and step machines run unchanged, over the
    same primitives and ``IllegalAccess`` checks.  ``steps`` is not a step
    count here: threads increment it without a common lock, so
    increments can be lost.
    """

    def __init__(self) -> None:
        super().__init__()
        self.locks: list[threading.Lock] = []  # indexed by oid
        self._alloc_lock = threading.Lock()

    def alloc(self, kind: str, initial: Any) -> Cell:
        with self._alloc_lock:
            cell = super().alloc(kind, initial)
            self.locks.append(threading.Lock())
        return cell

    def access(self, request: tuple) -> Any:
        with self.locks[request[1].oid]:
            return Memory.access(self, request)


def drive(gen, memory: Memory) -> Any:
    """Run a step machine to completion, performing accesses immediately.

    ``gen`` may be ``None``, as ``program`` returns it (see the module docstring).
    """
    if gen is None:
        return None
    try:
        request = next(gen)
        while True:
            request = gen.send(memory.access(request))
    except StopIteration as stop:
        return stop.value


class LazyCells(dict):
    """Cells of one kind, keyed by integer index, each allocated on first touch.

    A dict from each touched index to its cell, which starts at 0: looking
    up an index no operation has touched allocates its cell.  A touched
    index is found by the dict's own lookup, with no Python call.
    Allocation is a simulator-level event and never charges a step, so
    memory grows with the indexes operations touch, not with the range
    they could touch.  A new cell is published with ``dict.setdefault``,
    so two threads that touch the same untouched index at once under
    native threads share the one cell that was published first.
    """

    __slots__ = ("_memory", "_kind")

    def __init__(self, memory: Memory, kind: str) -> None:
        self._memory = memory
        self._kind = kind

    def __missing__(self, index: int) -> Cell:
        return self.setdefault(index, self._memory.alloc(self._kind, 0))


# ---------------------------------------------------------------------------
# Histories and step accounting
# ---------------------------------------------------------------------------


class Event(NamedTuple):
    """The named view of one recorded history event.

    ``step`` is the number of steps executed before it.  The :class:`Runner`
    records each event as a plain ``(kind, proc, op, payload, step)`` tuple
    in these fields' order: two per operation, each about 0.3 µs cheaper to
    build than an ``Event`` (about 40 against 360 ns on CPython 3.11), and
    unpacked on CPython's exact-tuple fast path.  :class:`History` hands
    each one out as an ``Event`` when it is read.
    """

    kind: str  # "invoke" | "respond"
    proc: int
    op: str
    payload: Any  # argument tuple for invoke, return value for respond
    step: int

    def to_json(self) -> dict:
        # reads its fields by unpacking, so History.to_json can pass it the
        # plain tuples it stores
        kind, proc, op, payload, step = self
        doc = {"type": kind, "proc": proc, "op": op, "step": step}
        if kind == "invoke":
            doc["args"] = list(payload)
        else:
            doc["ret"] = payload
        return doc


@dataclass(slots=True)
class OpRecord:
    """One operation extracted from a history."""

    proc: int
    index: int  # per-process ordinal
    name: str
    args: tuple
    ret: Any = None
    invoked: int = 0  # position in the event sequence
    responded: int | None = None

    @property
    def pending(self) -> bool:
        return self.responded is None


class History:
    """A totally ordered sequence of invoke/respond events.

    Keeps the list it is given as its one record: 5-tuples in
    :class:`Event`'s field order, plain ones as the :class:`Runner` builds
    them, or ``Event`` values, which are 5-tuples too.  :meth:`signature`,
    :meth:`operations` and :meth:`to_json` read the stored tuples; the
    events are read by iterating the history, which hands each out as an
    ``Event``, built when it is read.
    """

    def __init__(self, events: list[tuple]) -> None:
        self._events = events

    def __iter__(self) -> Iterator[Event]:
        return map(Event._make, self._events)

    def signature(self) -> tuple:
        """Hashable identity ignoring step indices (used to deduplicate)."""
        return tuple([e[:4] for e in self._events])

    def operations(self) -> list[OpRecord]:
        ops: list[OpRecord] = []
        open_by_proc: dict[int, OpRecord] = {}
        counts: dict[int, int] = {}
        for pos, e in enumerate(self._events):
            kind, proc, op, payload, _ = e
            if kind == "invoke":
                if proc in open_by_proc:
                    raise ValueError(f"process {proc} invoked twice without response")
                index = counts.get(proc, 0)
                rec = OpRecord(proc, index, op, tuple(payload), None, pos)
                counts[proc] = index + 1
                open_by_proc[proc] = rec
                ops.append(rec)
            elif kind == "respond":
                rec = open_by_proc.pop(proc, None)
                if rec is None or rec.name != op:
                    raise ValueError(f"response without matching invoke: {Event._make(e)}")
                rec.ret = payload
                rec.responded = pos
            else:
                raise ValueError(f"unknown event kind {kind!r}")
        return ops

    def to_json(self) -> str:
        return json.dumps([Event.to_json(e) for e in self._events])


@dataclass
class StepReport:
    """Step accounting for one run.

    ``amortized * op_count == total_steps`` exactly (Fraction arithmetic).
    """

    per_op: list[list[int]] | None  # [proc][op ordinal] -> steps; None without history
    total_steps: int
    op_count: int  # operations invoked: completed plus in flight
    histogram: dict[int, int]  # operations by step count, in-flight ones by steps so far

    @property
    def amortized(self) -> Fraction:
        if self.op_count == 0:
            return Fraction(0)
        return Fraction(self.total_steps, self.op_count)

    def max_op_steps(self) -> int:
        return max(self.histogram, default=0)


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


class Runner:
    """Drives step machines: one base-object access per scheduled slot.

    ``factory`` builds the object under test over the runner's own fresh
    ``memory``, whose steps it charges.  Each process pulls its next
    ``(name, args)`` operation from its own iterable when it invokes it.
    With ``record_history`` the runner keeps the events (plain tuples in
    :class:`Event`'s field order), per-op step lists and ``schedule``, the
    pid of every slot (skips included); without it, only a step histogram.
    With ``record_trace`` each access appends
    ``(step_index, pid, oid, primitive, arg, result)`` to ``trace``.
    """

    def __init__(self, factory: Callable[[Memory], Any],
                 workload: list[Iterable[tuple[str, tuple]]],
                 record_history: bool = True, record_trace: bool = False) -> None:
        self.memory = Memory()
        self.instance = factory(self.memory)
        self._ops = [iter(ops) for ops in workload]
        self.n = len(self._ops)
        # each process's in-flight operation: (gen, name, request, steps so far)
        self._armed: list[tuple | None] = [None] * self.n
        self.active: list[int] = []  # pids with an armed access, arming order
        self.completed: dict[int, int] = {}  # completed operations by step count
        self.per_op = [[] for _ in range(self.n)] if record_history else None  # completed
        self.events: list[tuple] | None = [] if record_history else None
        self.schedule: list[int] | None = [] if record_history else None
        self.trace: list[tuple] | None = [] if record_trace else None
        self.ops_completed = 0
        for p in range(self.n):
            self._invoke_until_armed(p)

    def _invoke_until_armed(self, p: int) -> None:
        # Access-free operations complete in full at invocation time, with
        # zero steps.  No access runs here, so the step count is bound once.
        # ``instance.program(...)`` is called as a method: binding the method
        # itself would allocate one per call, and in exploration most calls
        # invoke one operation.
        events, instance, steps = self.events, self.instance, self.memory.steps
        done = 0
        for name, args in self._ops[p]:
            if events is not None:
                events.append(("invoke", p, name, tuple(args), steps))
            gen = instance.program(p, name, args)
            if gen is None:
                value = None
            else:
                try:
                    self._armed[p] = (gen, name, next(gen), 0)
                except StopIteration as stop:
                    value = stop.value
                else:
                    self.active.append(p)
                    break
            done += 1
            if events is not None:  # per_op is kept exactly when events are
                self.per_op[p].append(0)
                events.append(("respond", p, name, value, steps))
        if done:
            self.ops_completed += done
            self.completed[0] = self.completed.get(0, 0) + done

    def step(self, p: int) -> bool:
        """Run one slot for p (its armed access or a skip); True if it completed p's op."""
        if self.schedule is not None:
            self.schedule.append(p)
        armed = self._armed[p]
        if armed is None:
            return False
        gen, name, request, steps = armed
        result = self.memory.access(request)
        if self.trace is not None:
            self.trace.append((self.memory.steps - 1, p, request[1].oid, request[0],
                               request[2] if len(request) > 2 else None, result))
        steps += 1
        try:
            self._armed[p] = (gen, name, gen.send(result), steps)
        except StopIteration as stop:
            self._armed[p] = None
            self.active.remove(p)
            self.ops_completed += 1
            self.completed[steps] = self.completed.get(steps, 0) + 1
            if self.events is not None:  # per_op is kept exactly when events are
                self.per_op[p].append(steps)
                self.events.append(("respond", p, name, stop.value, self.memory.steps))
            self._invoke_until_armed(p)
            return True
        return False

    def advance(self, pids, until_ops: int | None = None) -> None:
        """Run one slot per pid until ``ops_completed >= until_ops``.

        Stops at the slot that reaches the target, so an iterator of pids can
        resume in a later call; a target already met runs no slot.
        """
        if until_ops is not None and self.ops_completed >= until_ops:
            return
        step = self.step
        for p in pids:
            # only a slot that completes an operation moves ops_completed
            if step(p) and until_ops is not None and self.ops_completed >= until_ops:
                return

    def report(self) -> StepReport:
        """Step accounting so far; each in-flight operation counts its steps so far."""
        in_flight = [armed[3] for armed in self._armed if armed]
        histogram = dict(self.completed)
        for steps in in_flight:
            histogram[steps] = histogram.get(steps, 0) + 1
        per_op = None if self.per_op is None else [
            done + [armed[3]] if armed else done[:]
            for done, armed in zip(self.per_op, self._armed)]
        return StepReport(per_op, self.memory.steps, self.ops_completed + len(in_flight),
                          histogram)

    def result(self) -> RunResult:
        """A snapshot of the run so far; its schedule replays it if history is recorded."""
        # built from a list, CPython takes the tuple from its free list;
        # tuple(<generator>) would resize one and grow that list instead
        schedule = None if self.schedule is None else tuple(self.schedule)
        history = History([] if self.events is None else self.events[:])
        trace = None if self.trace is None else self.trace[:]
        return RunResult(history, self.report(), trace, self.instance, self, schedule)


# ---------------------------------------------------------------------------
# Schedules and run entry points
# ---------------------------------------------------------------------------


def seeded(seed: int) -> Callable[[Runner], Iterator[int]]:
    """A schedule of seeded random picks among the processes with an armed access.

    Each pick is the one ``random.Random(seed).choice(runner.active)`` would
    make.  It is drawn inline, as ``Random.choice`` draws it on CPython 3.10
    to 3.13: ``getrandbits(n.bit_length())`` for n active processes, drawn
    again while it is ``>= n``.  That saves the two Python calls per slot
    that ``choice`` and its ``_randbelow`` make.
    """
    def slots(runner: Runner) -> Iterator[int]:
        getrandbits = random.Random(seed).getrandbits
        active = runner.active
        while n := len(active):
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            yield active[r]
    return slots


@dataclass
class RunResult:
    """History plus step accounting for one run (handles kept for inspection)."""

    history: History
    report: StepReport
    trace: list[tuple] | None
    instance: Any
    runner: Runner
    schedule: tuple[int, ...] | None  # the pid of every slot; None without history


def run(factory: Callable[[Memory], Any], workload, schedule,
        *, record_trace: bool = False) -> RunResult:
    """Run a workload deterministically under a schedule.

    ``factory`` builds the object under test against a fresh Memory, and
    ``schedule`` is a function of the runner, such as :func:`seeded`
    returns, or pids, one per slot.  Every pid is checked to be a declared
    process: a pid list before any slot runs, a function's pid before its
    slot runs.  Equal (workload, schedule) inputs yield identical histories,
    reports and traces; the history is always recorded, and the result's
    ``schedule`` replays it.  A finished process's slot is a recorded skip, not an error.
    """
    runner = Runner(factory, workload, record_trace=record_trace)
    if callable(schedule):
        slots = _declared(schedule(runner), runner.n)
    else:
        slots = tuple(_declared(schedule, runner.n))  # a one-shot iterator is read once
    runner.advance(slots)
    return runner.result()


def _declared(pids, n: int) -> Iterator[int]:
    """The pids, each checked to lie in ``[0, n)`` as it is reached."""
    for p in pids:
        if not 0 <= p < n:
            raise ValueError(f"schedule references undeclared process {p}")
        yield p


def enumerate_interleavings(factory: Callable[[Memory], Any], workload,
                            reduction: str | None = None) -> Iterator[RunResult]:
    """Yield maximal interleavings of the workload, each exactly once.

    Interleavings branch on which process performs the next base-object
    access.  Every leaf replays its prefix from fresh memory, so the
    workload is turned into lists once.  Leaves carry the full pid
    ``schedule`` that replays them.

    With ``reduction=None`` every interleaving is yielded.  Their number
    grows combinatorially with the total step count; keep workloads at
    desk scale.  With ``reduction="dpor"`` one interleaving per trace
    class is yielded, by source-set and sleep-set dynamic partial-order
    reduction (Abdulla et al., POPL 2014), and the leaves reach every
    history and every per-operation step count of the full enumeration;
    :func:`_source_dpor` gives the dependence relation and why it is sound.
    """
    workload = [list(ops) for ops in workload]
    if reduction == "dpor":
        return _source_dpor(factory, workload)
    if reduction is not None:
        raise ValueError(f"unknown reduction {reduction!r}")
    return _every_interleaving(factory, workload)


def _every_interleaving(factory, workload) -> Iterator[RunResult]:
    stack: list[tuple[int, ...]] = [()]
    while stack:
        runner = Runner(factory, workload)
        runner.advance(stack.pop())
        while runner.active:
            choices = sorted(runner.active)
            # alternatives are replayed later; the first choice continues here
            for p in reversed(choices[1:]):
                stack.append((*runner.schedule, p))
            runner.step(choices[0])
        yield runner.result()


class _Node:
    """A state on the reduced explorer's current path, and the slot explored from it.

    The slot's record and happens-before mask are built once, when the slot
    is first explored; every execution that replays the slot reads them.
    """

    __slots__ = ("slot", "before", "backtrack", "sleep")

    def __init__(self, pid: int, sleep: dict[int, tuple]) -> None:
        self.slot: tuple = ()  # (pid, oid, effect, emitted), built when the slot first runs
        self.before = 0  # bitmask of the path's slots that happen before this one
        self.backtrack = {pid}  # processes to explore from here
        self.sleep = sleep  # processes needing no exploration from here -> their slot records


def _effect(request: tuple) -> str:
    """The primitive that a request counts as for dependence, in the state before it runs.

    A ``write`` of the value its cell already holds, or a ``tas`` on a set
    bit, changes nothing: it returns what a read would and leaves the state
    as a read would, so it counts as a ``"read"``.
    """
    primitive, value = request[0], request[1].value
    if primitive == "write" and request[2] == value or primitive == "tas" and value == 1:
        return "read"
    return primitive


def _dependent(a: tuple, b: tuple) -> bool:
    """Whether two slots ``(pid, oid, effect, emitted)`` fail to commute."""
    return (a[0] == b[0] or (a[3] and b[3])
            or (a[1] == b[1] and (a[2] != "read" or b[2] != "read")))


def _source_dpor(factory, workload) -> Iterator[RunResult]:
    """Stateless source-set and sleep-set DPOR: one maximal execution per trace class.

    Each execution replays the current path from fresh memory through
    :meth:`Runner.advance`, extends it by the lowest-numbered process that
    is not asleep until no process is armed (a leaf) or every armed one is
    asleep (a blocked execution, not yielded), then adds the reversals of
    its races to the backtrack sets.  Slot records compare cells by oid: a
    record's cell was allocated before its node's state, and every
    execution that reaches that node allocates the same cells in the same
    order, so the records stay valid across executions.

    Two slots of different processes are dependent when they touch the
    same cell and one of them changes the cell's value, or when both emit
    history events (a response, or the invocations that follow it).  The
    relation is value-aware, the refined dependency of Godefroid &
    Pirottin (CAV 1993): :func:`_effect` classifies each slot on the state
    before it runs, once, when the slot is first explored, and a sleeping
    process keeps the record its slot had then (point 4).  It is sound
    because:

    1. A non-modifying access returns what a read would return, and leaves
       the state as a read would, so it commutes with every other
       non-modifying access to its cell.
    2. Every modifying access to a cell depends on every other access to
       that cell.  So in every member of a trace class the same modifying
       access is the last one before a given slot, the cell holds the same
       value when the slot runs, and the slot gets the same classification
       in each member.
    3. So swaps within a class still preserve history signatures and
       per-operation step counts, as with a static relation, and the
       reduced leaves reach every history and every per-operation step
       count of the full enumeration.
    4. A sleeping process's cell is modified by no slot that is
       independent of its pending slot: a modifying slot on that cell
       would be dependent.  So its classification now equals the one it
       had when it fell asleep, and it stays asleep exactly as long as
       the slots run since then are independent of that one.
    """
    path: list[_Node] = []
    node = pid = None  # set by a backtrack: the node to explore next, with process pid
    while True:
        runner = Runner(factory, workload)
        runner.advance([n.slot[0] for n in path])
        start, sleep = len(path), {}
        while True:
            if node is None:
                awake = [p for p in sorted(runner.active) if p not in sleep]
                if not awake:
                    break
                pid = awake[0]
                node = _Node(pid, sleep)
            request = runner._armed[pid][2]
            effect = _effect(request)  # before the step can change the cell
            # only a slot that completes an operation emits history events
            slot = node.slot = (pid, request[1].oid, effect, runner.step(pid))
            path.append(node)
            sleep = {q: s for q, s in node.sleep.items() if not _dependent(slot, s)}
            node = None
        _add_reversals(path, start)
        if not runner.active:
            yield runner.result()
        while path:
            node = path.pop()
            node.sleep[node.slot[0]] = node.slot
            pending = node.backtrack.difference(node.sleep)
            if pending:
                pid = min(pending)
                break
        else:
            return


def _add_reversals(path: list[_Node], start: int) -> None:
    """Race detection over the path's slots from slot ``start`` on.

    Reads each node's slot record and sets the ``before`` mask of each node
    from ``start`` on.  Slot i races with a later slot j of another process
    when i happens before j with no slot in between.  To reverse the race,
    the node before slot i needs a backtrack process that can start the
    sequence v: the slots between i and j that do not happen after i, then
    j.  Races whose both slots an earlier execution ran were handled then.
    """
    for j in range(start, len(path)):
        slot = path[j].slot
        mask = covered = 0  # covered: slots that happen before j through another slot
        for i in range(j - 1, -1, -1):
            if not mask >> i & 1 and _dependent(path[i].slot, slot):
                before = path[i].before
                mask |= before | 1 << i
                covered |= before
        path[j].before = mask
        racing = mask & ~covered
        for i in range(j):
            if not racing >> i & 1 or path[i].slot[0] == slot[0]:
                continue
            v = [k for k in range(i + 1, j) if not path[k].before >> i & 1] + [j]
            v_mask = sum(1 << k for k in v)
            initials = {path[k].slot[0] for k in v if not path[k].before & v_mask}
            node = path[i]
            if not initials & node.backtrack:
                node.backtrack.add(min(initials))


def distinct_histories(factory: Callable[[Memory], Any], workload,
                       stats: dict | None = None) -> list[History]:
    """The first history seen for each signature, in exploration order.

    Explores with ``reduction="dpor"``, which reaches every history of the
    full enumeration.  If ``stats`` is given, ``stats["leaves"]`` is set to
    the number of leaves explored.
    """
    seen: dict[tuple, History] = {}
    leaves = 0
    for result in enumerate_interleavings(factory, workload, reduction="dpor"):
        leaves += 1
        seen.setdefault(result.history.signature(), result.history)
    if stats is not None:
        stats["leaves"] = leaves
    return list(seen.values())


# ---------------------------------------------------------------------------
# Trace output
# ---------------------------------------------------------------------------


def _field(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def trace_lines(trace: list[tuple]) -> list[str]:
    """One tab-separated line per step: step pid oid primitive arg result."""
    return [
        f"{step}\t{pid}\t{oid}\t{primitive}\t{_field(arg)}\t{_field(result)}"
        for step, pid, oid, primitive, arg, result in trace
    ]
