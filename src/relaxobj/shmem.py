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
import operator
import random
import threading
from dataclasses import dataclass
from functools import cached_property
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


def _recorded_report(events: list[tuple], schedule: Iterable[int], n: int) -> StepReport:
    """A recorded run's step accounting, read from its events and schedule.

    A slot is an access when its process has an operation in flight, which
    the events say, and a skip otherwise; an event that an access emits
    carries the step count it made.  An operation's steps are its process's
    accesses between its invocation and its response, or so far if it is in
    flight.  The histogram is in completion order, then the in-flight
    operations', as an unrecorded run's is.
    """
    per_op: list[list[int]] = [[] for _ in range(n)]
    running: list[int | None] = [None] * n  # each in-flight operation's steps so far
    histogram: dict[int, int] = {}
    slots = iter(schedule)
    steps = 0
    for kind, p, _, _, step in events:
        while steps < step:
            q = next(slots)
            if running[q] is not None:
                running[q] += 1
                steps += 1
        if kind == "invoke":
            running[p] = 0
        else:
            done, running[p] = running[p], None
            per_op[p].append(done)
            histogram[done] = histogram.get(done, 0) + 1
    for q in slots:  # the accesses after the last event, all of in-flight operations
        if running[q] is not None:
            running[q] += 1
    for p, done in enumerate(running):
        if done is not None:
            per_op[p].append(done)
            histogram[done] = histogram.get(done, 0) + 1
    return StepReport(per_op, sum(map(sum, per_op)), sum(map(len, per_op)), histogram)


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


class Runner:
    """Drives step machines: one base-object access per scheduled slot.

    ``factory`` builds the object under test over the runner's own fresh
    ``memory``, whose steps it charges.  Each process pulls its next
    ``(name, args)`` operation from its own iterable when it invokes it.
    With ``record_history`` the runner keeps the events (plain tuples in
    :class:`Event`'s field order) and ``schedule``, the pid of every slot
    (skips included), and its report is read from them; without it, it
    keeps ``completed``, a histogram of the completed operations by step
    count.  With ``record_trace`` each access appends
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
        self.completed: dict[int, int] | None = None if record_history else {}
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
            if events is not None:
                events.append(("respond", p, name, value, steps))
        if done:
            self.ops_completed += done
            if events is None:  # completed is kept exactly when events are not
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
            if self.events is None:  # completed is kept exactly when events are not
                self.completed[steps] = self.completed.get(steps, 0) + 1
            else:
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
        if self.events is not None:
            return _recorded_report(self.events, self.schedule, self.n)
        in_flight = [armed[3] for armed in self._armed if armed]
        histogram = dict(self.completed)
        for steps in in_flight:
            histogram[steps] = histogram.get(steps, 0) + 1
        return StepReport(None, self.memory.steps, self.ops_completed + len(in_flight),
                          histogram)

    def result(self) -> RunResult:
        """A snapshot of the run so far; its schedule replays it if history is recorded."""
        return RunResult(self)


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


class RunResult:
    """A snapshot of a run: history plus step accounting (handles kept for inspection).

    ``history``, ``schedule`` (the pid of every slot; ``None`` without
    history) and ``trace`` are copies, which later slots do not change;
    ``runner`` and ``instance`` are the live ones.  An unrecorded run's
    ``report`` is taken at once, and a recorded run's is read from the
    copies when it is first read, so :func:`distinct_histories` builds none.
    """

    def __init__(self, runner: Runner) -> None:
        self.runner, self.instance = runner, runner.instance
        self.history = History([] if runner.events is None else runner.events[:])
        # built from a list, CPython takes the tuple from its free list;
        # tuple(<generator>) would resize one and grow that list instead
        self.schedule = None if runner.schedule is None else tuple(runner.schedule)
        self.trace = None if runner.trace is None else runner.trace[:]
        if runner.events is None:
            self.report = runner.report()

    @cached_property
    def report(self) -> StepReport:
        return _recorded_report(self.history._events, self.schedule, self.runner.n)


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
    access.  The workload is turned into lists once, since each process's
    operations are invoked again on every branch.  Leaves carry the full
    pid ``schedule`` that replays them.

    With ``reduction=None`` every interleaving is yielded, and every leaf
    replays its prefix in a fresh runner over fresh memory.  Their number
    grows combinatorially with the total step count; keep workloads at
    desk scale.  With ``reduction="dpor"`` one interleaving per trace
    class is yielded, by source-set and sleep-set dynamic partial-order
    reduction (Abdulla et al., POPL 2014), and the leaves reach every
    history and every per-operation step count of the full enumeration;
    :func:`_source_dpor` gives the dependence relation and why it is sound.
    The reduced explorer drives one runner, which it restores to each
    backtrack point instead of replaying the path, so the object must
    declare its per-process state (see :class:`_Restorable`).  Every leaf
    is a :class:`RunResult`: its ``history``, ``report`` and ``schedule``
    are snapshots, but a reduced leaf's ``runner`` and ``instance`` are the
    explorer's live ones, which later leaves change.
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


class _Restorable(Runner):
    """The reduced explorer's runner: it is cut back to an earlier slot without a replay.

    Each slot runs an armed access (a skip is not supported) and logs its
    pid, its request and the value that the request's cell held before it
    ran, which is also what a read or a ``tas`` returns.  The object under
    test declares its per-process state in its ``process_state`` class
    attribute: the name of an attribute that holds a list, indexed by pid,
    of objects whose attributes are that process's variables, or ``None``
    when it keeps no per-process state.  Whenever a process is about to
    invoke operations, which happens once at start-up and once per
    operation that a slot completes, the runner copies those attributes.
    """

    def __init__(self, factory: Callable[[Memory], Any], workload: list[list[tuple]],
                 record_trace: bool = False) -> None:
        self._workload = workload
        self._log: list[tuple] = []  # per slot: (pid, request, the cell's value before it)
        # per process, one capture per armed operation, oldest first: (the event
        # index of its invocation, and before the invocations that armed it,
        # the process's operations invoked, the slots run and its variables)
        self._captures: list[list[tuple]] = [[] for _ in workload]
        super().__init__(factory, workload, record_trace=record_trace)

    def _invoke_until_armed(self, p: int) -> None:
        # the process's operations invoked so far: a list iterator's hint is exact
        invoked = len(self._workload[p]) - operator.length_hint(self._ops[p])
        name = self.instance.process_state  # an undeclared object fails here
        state = None if name is None else vars(getattr(self.instance, name)[p]).copy()
        Runner._invoke_until_armed(self, p)
        if self._armed[p] is not None:
            self._captures[p].append((len(self.events) - 1, invoked, len(self._log), state))

    def step(self, p: int) -> bool:
        request = self._armed[p][2]
        self._log.append((p, request, request[1].value))
        return Runner.step(self, p)

    def restore(self, slots: int) -> None:
        """Cut the run back to its state after its first ``slots`` slots.

        Undoes each later slot's cell change, newest first, and cuts the
        events, schedule and trace back to that state.  Each process that
        ran a slot since then gets its in-flight operation rebuilt from the
        capture taken before its invocation: its variables are set back in
        place, ``program`` is called again for the operations invoked since,
        and the armed one is sent the responses that the log records, with
        no memory access.  Cells allocated since stay allocated, back at
        their initial 0, so every cell keeps its oid.
        """
        log = self._log
        rebuilt = set()
        for p, request, old in reversed(log[slots:]):
            request[1].value = old
            rebuilt.add(p)
        del log[slots:]
        self.memory.steps = slots  # one access per slot
        del self.schedule[slots:]
        if self.trace is not None:
            del self.trace[slots:]
        events = self.events
        while events and events[-1][4] > slots:  # emitted by a slot after the state
            if events.pop()[0] == "respond":
                self.ops_completed -= 1
        for p in rebuilt:
            self._rebuild(p)
        captures = self._captures
        # in arming order, which is the order of the armed operations' invocations
        self.active[:] = sorted(rebuilt.union(self.active), key=lambda q: captures[q][-1][0])

    def _rebuild(self, p: int) -> None:
        captures, recorded = self._captures[p], len(self.events)
        while captures[-1][0] >= recorded:  # an operation invoked after the state
            captures.pop()
        _, invoked, first_slot, state = captures[-1]
        instance = self.instance
        if state is not None:
            vars(getattr(instance, instance.process_state)[p]).update(state)
        ops = iter(self._workload[p][invoked:])
        for name, args in ops:  # the access-free operations complete again, silently
            gen = instance.program(p, name, args)
            if gen is not None:
                try:
                    request = next(gen)
                except StopIteration:
                    continue
                break
        self._ops[p] = ops
        steps = 0
        for q, sent, old in self._log[first_slot:]:
            if q == p:
                request = gen.send(None if sent[0] == "write" else old)
                steps += 1
        self._armed[p] = (gen, name, request, steps)


class _Node:
    """A state on the reduced explorer's current path, and the slot explored from it.

    The slot's record and happens-before mask are built once, when the slot
    is first explored; every later execution through this node reads them.
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


class _Index:
    """Bitmasks over the path's slots, by the fields that :func:`_dependent` compares.

    Bit i of ``by_pid[p]`` is set when slot i is process p's, of
    ``by_oid[c]`` when slot i accesses cell c, of ``modifying[c]`` when it
    also modifies c, and of ``emitted`` when it emits.  A slot is dependent
    on exactly the earlier slots of its own process, the earlier emitting
    ones if it emits, and the earlier ones on its cell: all of them if it
    modifies the cell, the modifying ones if not.  :func:`_add_reversals`
    reads and extends the masks in place; a backtrack cuts them.
    """

    __slots__ = ("by_pid", "by_oid", "modifying", "emitted")

    def __init__(self) -> None:
        self.by_pid: dict[int, int] = {}
        self.by_oid: dict[int, int] = {}
        self.modifying: dict[int, int] = {}  # by oid
        self.emitted = 0

    def cut(self, length: int) -> None:
        """Forget the slots from ``length`` on."""
        keep = (1 << length) - 1
        for masks in (self.by_pid, self.by_oid, self.modifying):
            for key in masks:
                masks[key] &= keep
        self.emitted &= keep


def _source_dpor(factory, workload) -> Iterator[RunResult]:
    """Stateless source-set and sleep-set DPOR: one maximal execution per trace class.

    One runner, a :class:`_Restorable`, carries every execution, and each
    leaf is yielded as its :meth:`~Runner.result`.  An execution starts at the
    node that the last backtrack popped to, to which the runner was
    restored without a replay.  It extends the path by the lowest-numbered
    process that is not asleep until no process is armed (a leaf) or every
    armed one is asleep (a blocked execution, not yielded), then adds the
    reversals of its races to the backtrack sets.
    Most nodes have an empty sleep set; from one, the explorer takes the
    lowest armed process without filtering, and the child gets a fresh
    empty set without comparing slots.
    Slot records compare cells by oid: every cell lives in the runner's one
    memory for the whole exploration and keeps its oid across restores.

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
    runner = _Restorable(factory, workload)
    path: list[_Node] = []
    index = _Index()
    node = pid = None  # set by a backtrack: the node to explore next, with process pid
    while True:
        start, sleep = len(path), {}
        while True:
            if node is None:
                awake = runner.active
                if sleep:
                    awake = [p for p in awake if p not in sleep]
                if not awake:
                    break
                pid = min(awake)
                node = _Node(pid, sleep)
            request = runner._armed[pid][2]
            effect = _effect(request)  # before the step can change the cell
            # only a slot that completes an operation emits history events
            slot = node.slot = (pid, request[1].oid, effect, runner.step(pid))
            path.append(node)
            if node.sleep:
                sleep = {q: s for q, s in node.sleep.items() if not _dependent(slot, s)}
            else:  # a fresh dict, never node.sleep: a backtrack to the node adds to that one
                sleep = {}
            node = None
        _add_reversals(path, start, index)
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
        runner.restore(len(path))
        index.cut(len(path))


def _add_reversals(path: list[_Node], start: int, index: _Index) -> None:
    """Race detection over the path's slots from slot ``start`` on.

    ``index`` holds the slots before ``start``.  Each slot from ``start`` on
    reads the earlier slots dependent on it from the index's masks and
    joins those masks; its ``before`` mask, the slots that happen before
    it, is the transitive closure of that dependence.  Slot i races with a
    later slot j of another process when i happens before j with no slot in
    between.  To reverse the race, the node before slot i needs a backtrack
    process that can start the sequence v: the slots between i and j that
    do not happen after i, then j.  Races whose both slots an earlier
    execution ran were handled then.
    """
    by_pid, by_oid, modifying, emitting = (index.by_pid, index.by_oid, index.modifying,
                                           index.emitted)
    for j in range(start, len(path)):
        node = path[j]
        pid, oid, effect, emitted = node.slot
        # the earlier slots dependent on j, while j joins the masks
        own, on_cell, bit = by_pid.get(pid, 0), by_oid.get(oid, 0), 1 << j
        by_pid[pid] = own | bit
        by_oid[oid] = on_cell | bit
        if effect == "read":  # dependent on the cell's modifying slots only
            dependents = own | modifying.get(oid, 0)
        else:
            dependents = own | on_cell
            modifying[oid] = modifying.get(oid, 0) | bit
        if emitted:
            dependents |= emitting
            emitting |= bit
        # the latest dependent slot not yet covered happens before j directly
        mask = covered = 0  # covered: slots that happen before j through another slot
        while dependents:
            i = dependents.bit_length() - 1
            before = path[i].before
            mask |= before | 1 << i
            covered |= before
            dependents &= ~mask
        node.before = mask
        racing = mask & ~covered & ~own  # of other processes
        while racing:
            i = racing.bit_length() - 1
            racing ^= 1 << i
            backtrack = path[i].backtrack
            if i == j - 1:  # v is j alone
                backtrack.add(pid)
                continue
            v = [k for k in range(i + 1, j) if not path[k].before >> i & 1] + [j]
            v_mask = sum(1 << k for k in v)
            initials = {path[k].slot[0] for k in v if not path[k].before & v_mask}
            if not initials & backtrack:
                backtrack.add(min(initials))
    index.emitted = emitting


def distinct_histories(factory: Callable[[Memory], Any], workload,
                       stats: dict | None = None) -> list[History]:
    """The first history seen for each signature, in exploration order.

    Explores with ``reduction="dpor"``, which reaches every history of the
    full enumeration, and reads no leaf's report, so none is built.  If
    ``stats`` is given, ``stats["leaves"]`` is set to the number of leaves
    explored.
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
