"""Instrumented shared memory and a deterministic step-machine scheduler.

Shared state lives in :class:`Cell` objects (base objects): plain
multi-valued registers, one-shot test&set bits, and pair registers that
hold an ``(int, int)`` tuple read and written as a single atomic unit.

Operations are expressed as *step machines*: generator functions that
yield one access request per resumption and eventually ``return`` the
operation's response.  A request is a tuple:

    ("read", cell)           -> current value
    ("write", cell, value)   -> None
    ("tas", cell)            -> previous bit value; the bit becomes 1

Exactly one step is charged per executed access; local computation
between accesses is free.  Under the scheduler (:class:`Runner`) every
access is atomic by construction, and a run is fully determined by the
workload plus the sequence of scheduled process ids.  :func:`drive` runs
one step machine to completion instead: over :class:`Memory` for
sequential reference runs, or over :class:`NativeMemory` from threads.

Invocations are eager: at start-up, and whenever an operation completes,
the owning process immediately invokes its next operations, running any
access-free ones to completion, until an operation arms an access.  A
scheduled slot then executes exactly one armed access.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator

REGISTER = "register"
TAS = "tas"
PAIR = "pair"


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
    """Cell allocation plus atomic access with step accounting and tracing.

    ``steps`` counts every access ever performed; allocation is free.
    With ``record_trace=True`` each access appends a tuple
    ``(step_index, pid, oid, primitive, arg, result)`` to ``trace``.
    """

    def __init__(self, record_trace: bool = False) -> None:
        self.cells: list[Cell] = []
        self.steps = 0
        self.trace: list[tuple] | None = [] if record_trace else None

    def alloc(self, kind: str, initial: Any) -> Cell:
        if kind == TAS:
            if initial != 0:
                raise ValueError("test&set bits always start at 0")
        elif kind == PAIR:
            if not (isinstance(initial, tuple) and len(initial) == 2):
                raise ValueError("pair registers hold a 2-tuple")
        elif kind != REGISTER:
            raise ValueError(f"unknown cell kind {kind!r}")
        cell = Cell(len(self.cells), kind, initial)
        self.cells.append(cell)
        return cell

    def access(self, pid: int, cell: Cell, primitive: str, arg: Any = None) -> Any:
        if primitive == "read":
            result = cell.value
        elif primitive == "write":
            if cell.kind == TAS:
                raise IllegalAccess("test&set bits do not support write")
            if cell.kind == PAIR and not (isinstance(arg, tuple) and len(arg) == 2):
                raise IllegalAccess("pair write needs a 2-tuple")
            cell.value = arg
            result = None
        elif primitive == "tas":
            if cell.kind != TAS:
                raise IllegalAccess(f"test&set applied to {cell.kind!r} cell")
            result = cell.value
            cell.value = 1
        else:
            raise IllegalAccess(f"unknown primitive {primitive!r}")
        if self.trace is not None:
            self.trace.append((self.steps, pid, cell.oid, primitive, arg, result))
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

    def access(self, pid: int, cell: Cell, primitive: str, arg: Any = None) -> Any:
        with self.locks[cell.oid]:
            return Memory.access(self, pid, cell, primitive, arg)


def drive(gen, memory: Memory, pid: int) -> Any:
    """Run a step machine to completion, performing accesses immediately."""
    try:
        request = next(gen)
        while True:
            arg = request[2] if len(request) > 2 else None
            request = gen.send(memory.access(pid, request[1], request[0], arg))
    except StopIteration as stop:
        return stop.value


class LazyCells:
    """Cells of one kind, keyed by integer index, each allocated on first touch.

    ``cells`` maps each touched index to its cell, which starts at 0.
    Allocation is a simulator-level event and never charges a step, so
    memory grows with the indexes operations touch, not with the range
    they could touch.  A new cell is published with ``dict.setdefault``,
    so two threads that touch the same untouched index at once under
    native threads share the one cell that was published first.
    """

    def __init__(self, memory: Memory, kind: str) -> None:
        self._memory = memory
        self._kind = kind
        self.cells: dict[int, Cell] = {}

    def cell(self, index: int) -> Cell:
        cell = self.cells.get(index)
        if cell is None:
            cell = self.cells.setdefault(index, self._memory.alloc(self._kind, 0))
        return cell


# ---------------------------------------------------------------------------
# Histories and step accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """One history event.  ``step`` is the number of steps executed before it."""

    kind: str  # "invoke" | "respond"
    proc: int
    op: str
    payload: Any  # argument tuple for invoke, return value for respond
    step: int

    def to_json(self) -> dict:
        doc = {"type": self.kind, "proc": self.proc, "op": self.op, "step": self.step}
        if self.kind == "invoke":
            doc["args"] = list(self.payload)
        else:
            doc["ret"] = self.payload
        return doc


@dataclass
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
    """A totally ordered sequence of invoke/respond events."""

    def __init__(self, events: list[Event]) -> None:
        self.events = events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def signature(self) -> tuple:
        """Hashable identity ignoring step indices (used to deduplicate)."""
        return tuple((e.kind, e.proc, e.op, e.payload) for e in self.events)

    def operations(self) -> list[OpRecord]:
        ops: list[OpRecord] = []
        open_by_proc: dict[int, OpRecord] = {}
        counts: dict[int, int] = {}
        for pos, e in enumerate(self.events):
            if e.kind == "invoke":
                if e.proc in open_by_proc:
                    raise ValueError(f"process {e.proc} invoked twice without response")
                rec = OpRecord(e.proc, counts.get(e.proc, 0), e.op, tuple(e.payload),
                               invoked=pos)
                counts[e.proc] = rec.index + 1
                open_by_proc[e.proc] = rec
                ops.append(rec)
            elif e.kind == "respond":
                rec = open_by_proc.pop(e.proc, None)
                if rec is None or rec.name != e.op:
                    raise ValueError(f"response without matching invoke: {e}")
                rec.ret = e.payload
                rec.responded = pos
            else:
                raise ValueError(f"unknown event kind {e.kind!r}")
        return ops

    def to_json(self) -> str:
        return json.dumps([e.to_json() for e in self.events])

    @classmethod
    def from_json(cls, text: str) -> "History":
        events = []
        for doc in json.loads(text):
            if doc["type"] == "invoke":
                payload: Any = tuple(doc.get("args", ()))
            else:
                payload = doc.get("ret")
                if isinstance(payload, list):
                    payload = tuple(payload)
            events.append(Event(doc["type"], doc["proc"], doc["op"], payload,
                                doc.get("step", 0)))
        return cls(events)


@dataclass
class StepReport:
    """Step accounting for one run.

    ``amortized * op_count == total_steps`` exactly (Fraction arithmetic).
    """

    per_op: list[list[int]]  # [proc][op ordinal] -> steps
    total_steps: int
    op_count: int  # operations invoked

    @property
    def amortized(self) -> Fraction:
        if self.op_count == 0:
            return Fraction(0)
        return Fraction(self.total_steps, self.op_count)

    def max_op_steps(self) -> int:
        return max((max(counts) for counts in self.per_op if counts), default=0)

    def histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for counts in self.per_op:
            for s in counts:
                hist[s] = hist.get(s, 0) + 1
        return hist


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


class Runner:
    """Drives step machines: one base-object access per scheduled slot."""

    def __init__(self, memory: Memory, instance: Any,
                 workload: list[list[tuple[str, tuple]]],
                 record_history: bool = True) -> None:
        self.memory = memory
        self.instance = instance
        self.n = len(workload)
        self._workload = [list(ops) for ops in workload]
        self._next_op = [0] * self.n
        self._gens: list[Any] = [None] * self.n
        self._armed: list[tuple | None] = [None] * self.n  # (op name, request)
        self.active: list[int] = []  # pids with an armed access, arming order
        self.per_op: list[list[int]] = [[] for _ in range(self.n)]
        self.events: list[Event] | None = [] if record_history else None
        self.ops_invoked = 0
        self.ops_completed = 0
        self.slots = 0
        self.skipped: list[tuple[int, int]] = []  # (slot index, pid)
        for p in range(self.n):
            self._invoke_until_armed(p)

    def _invoke_until_armed(self, p: int) -> None:
        # Access-free operations complete in full at invocation time.
        ops = self._workload[p]
        i = self._next_op[p]
        while i < len(ops):
            name, args = ops[i]
            i += 1
            self.ops_invoked += 1
            self.per_op[p].append(0)
            if self.events is not None:
                self.events.append(Event("invoke", p, name, tuple(args), self.memory.steps))
            gen = self.instance.program(p, name, args)
            try:
                request = next(gen)
            except StopIteration as stop:
                self._respond(p, name, stop.value)
                continue
            self._gens[p] = gen
            self._armed[p] = (name, request)
            self.active.append(p)
            break
        self._next_op[p] = i

    def _respond(self, p: int, name: str, value: Any) -> None:
        self.ops_completed += 1
        if self.events is not None:
            self.events.append(Event("respond", p, name, value, self.memory.steps))

    def step(self, p: int) -> bool:
        """Run one slot for process p; returns False for a skipped slot."""
        self.slots += 1
        armed = self._armed[p]
        if armed is None:
            self.skipped.append((self.slots - 1, p))
            return False
        name, request = armed
        arg = request[2] if len(request) > 2 else None
        result = self.memory.access(p, request[1], request[0], arg)
        self.per_op[p][-1] += 1
        try:
            nxt = self._gens[p].send(result)
        except StopIteration as stop:
            self._armed[p] = None
            self._gens[p] = None
            self.active.remove(p)
            self._respond(p, name, stop.value)
            self._invoke_until_armed(p)
        else:
            self._armed[p] = (name, nxt)
        return True

    def advance(self, pids, until_ops: int | None = None) -> bool:
        """Run one slot per pid; returns True once ``ops_completed >= until_ops``.

        Stops at that slot, so an iterator of pids can resume in a later call.
        """
        step = self.step
        for p in pids:
            step(p)
            if until_ops is not None and self.ops_completed >= until_ops:
                return True
        return False

    @property
    def done(self) -> bool:
        return not self.active

    def runnable(self) -> list[int]:
        return sorted(self.active)

    def history(self) -> History:
        return History(self.events if self.events is not None else [])

    def report(self) -> StepReport:
        return StepReport([list(c) for c in self.per_op], self.memory.steps,
                          self.ops_invoked)


# ---------------------------------------------------------------------------
# Schedules and run entry points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """How to pick the next process: an explicit pid sequence or seeded random."""

    mode: str  # "explicit" | "random"
    pids: tuple[int, ...] = ()
    seed: int | None = None

    def slots(self, runner: Runner) -> Iterator[int]:
        """The pid of each slot this schedule runs on ``runner``."""
        if self.mode == "explicit":
            for p in self.pids:
                if not 0 <= p < runner.n:
                    raise ValueError(f"schedule references undeclared process {p}")
                yield p
        elif self.mode == "random":
            rng = random.Random(self.seed)
            active = runner.active
            while active:
                yield rng.choice(active)
        else:
            raise ValueError(f"unknown schedule mode {self.mode!r}")


def explicit(pids) -> Schedule:
    return Schedule("explicit", tuple(pids))


def seeded(seed: int) -> Schedule:
    return Schedule("random", (), seed)


@dataclass
class RunResult:
    """History plus step accounting for one run (handles kept for inspection)."""

    history: History
    report: StepReport
    trace: list[tuple] | None
    memory: Memory
    instance: Any
    runner: Runner
    schedule: tuple[int, ...] | None = None


def run(factory: Callable[[Memory], Any], workload, schedule,
        *, record_history: bool = True, record_trace: bool = False) -> RunResult:
    """Run a workload deterministically under a schedule.

    ``factory`` builds the object under test against a fresh Memory.
    Equal (workload, schedule) inputs yield identical histories, reports
    and traces.  A slot scheduled for a process with nothing to run is
    skipped and recorded, not fatal.
    """
    if not isinstance(schedule, Schedule):
        schedule = explicit(schedule)
    memory = Memory(record_trace=record_trace)
    instance = factory(memory)
    runner = Runner(memory, instance, workload, record_history=record_history)
    runner.advance(schedule.slots(runner))
    return RunResult(runner.history(), runner.report(), memory.trace,
                     memory, instance, runner)


def enumerate_interleavings(factory: Callable[[Memory], Any], workload,
                            step_bound: int | None = None) -> Iterator[RunResult]:
    """Yield every distinct maximal interleaving of the workload exactly once.

    Interleavings branch on which process performs the next base-object
    access.  The number of leaves grows combinatorially with the total
    step count; keep workloads at desk scale.  With ``step_bound`` set,
    exploration stops after that many slots and yields the truncated run.
    """
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        memory = Memory()
        runner = Runner(memory, factory(memory), workload)
        runner.advance(prefix)
        while True:
            if step_bound is not None and runner.slots >= step_bound:
                break
            choices = runner.runnable()
            if not choices:
                break
            # alternatives are replayed later; the first choice continues here
            for p in reversed(choices[1:]):
                stack.append(prefix + (p,))
            runner.step(choices[0])
            prefix = prefix + (choices[0],)
        yield RunResult(runner.history(), runner.report(), None,
                        memory, runner.instance, runner, schedule=prefix)


def distinct_histories(factory: Callable[[Memory], Any], workload) -> list[History]:
    """The first history seen for each signature over every interleaving, in order."""
    seen: dict[tuple, History] = {}
    for result in enumerate_interleavings(factory, workload):
        seen.setdefault(result.history.signature(), result.history)
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
