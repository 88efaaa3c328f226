"""Relaxed-linearizability checker.

Decides whether a history admits a linearization: a total order of its
operations that extends the real-time precedence order (an operation
precedes another iff its response event appears before the other's
invocation event) and is accepted step by step by a sequential
specification.  Specifications may be relaxed: the response predicate
can accept a window of values rather than one exact answer.

Pending operations follow the usual completion convention: a pending
query is dropped; a pending update may have taken effect or not, so the
checker is free to include it or leave it out.

Two search routines are provided.  :func:`check` is the production path:
an iterative depth-first search, with no recursion and so no depth limit,
memoized on (abstract state, bitmask of linearized operations).  Only an
operation invoked before the first response among the unlinearized ones
invoked before it may go next (the frontier rule of Wing & Gong).
:func:`check_bruteforce` enumerates precedence-respecting permutations
outright and replays each one: the ground-truth oracle for small histories.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from .shmem import History, OpRecord

DEFAULT_STATE_BUDGET = 2_000_000


@dataclass(frozen=True)
class RelaxedSpec:
    """Sequential state machine with a (possibly relaxed) response predicate.

    ``apply(state, op, args)`` returns the post state; ``accepts(state,
    op, args, ret)`` judges a response against the pre state.  ``updates``
    names the operations that may linearize without having responded.
    """

    initial: Any
    apply: Callable[[Any, str, tuple], Any]
    accepts: Callable[[Any, str, tuple, Any], bool]
    updates: frozenset[str]


def counter_spec(k: int) -> RelaxedSpec:
    """Counter whose reads may err by a factor k either way.

    A read returning x against exact count v is accepted iff
    v/k <= x <= v*k, evaluated as v <= x*k and x <= v*k in exact
    integers (no division, no floats).
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError("accuracy factor k must be an integer >= 2")

    def apply(state, op, args):
        return state + 1 if op == "inc" else state

    def accepts(state, op, args, ret):
        if op == "inc":
            return True
        return state <= ret * k and ret <= state * k

    return RelaxedSpec(0, apply, accepts, frozenset({"inc"}))


def _maxreg_window_spec(k: int) -> RelaxedSpec:
    """Max register whose reads return x with s <= x <= s*k for running maximum s."""

    def apply(state, op, args):
        return max(state, args[0]) if op == "write" else state

    def accepts(state, op, args, ret):
        return op == "write" or state <= ret <= state * k

    return RelaxedSpec(0, apply, accepts, frozenset({"write"}))


def maxreg_exact_spec() -> RelaxedSpec:
    """Exact max register: reads must return the running maximum (the k = 1 window)."""
    return _maxreg_window_spec(1)


def maxreg_approx_spec(k: int) -> RelaxedSpec:
    """Max register whose reads may overshoot by at most a factor k.

    Reads are accepted iff s <= x <= s*k for running maximum s; in
    particular x = 0 is accepted only while s = 0.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError("accuracy factor k must be an integer >= 2")
    return _maxreg_window_spec(k)


@dataclass
class CheckResult:
    """Outcome of a linearizability check.

    ``verdict`` is one of valid / invalid / inconclusive; inconclusive
    means the state budget ran out and is never a false verdict.  A
    valid result carries a witness: the linearized operations in order.
    """

    verdict: str
    witness: list[OpRecord] | None
    states_explored: int

    @property
    def valid(self) -> bool:
        return self.verdict == "valid"

    def to_json(self) -> dict:
        doc: dict[str, Any] = {
            "verdict": self.verdict,
            "states_explored": self.states_explored,
        }
        if self.witness is not None:
            doc["witness"] = [
                {"proc": o.proc, "op": o.name, "args": list(o.args), "ret": o.ret}
                for o in self.witness
            ]
        return doc


def _usable_ops(history: History, spec: RelaxedSpec) -> list[OpRecord]:
    return [o for o in history.operations() if not o.pending or o.name in spec.updates]


def _precedence_masks(ops: list[OpRecord]) -> list[int]:
    """before[i] = bitmask of ops whose response precedes i's invocation."""
    before = [0] * len(ops)
    for i, oi in enumerate(ops):
        for j, oj in enumerate(ops):
            if i != j and oj.responded is not None and oj.responded < oi.invoked:
                before[i] |= 1 << j
    return before


def check(history: History, spec: RelaxedSpec,
          state_budget: int = DEFAULT_STATE_BUDGET) -> CheckResult:
    """Memoized exhaustive search for a linearization of ``history``.

    Sound and complete within the budget: "valid" comes with a witness
    that replays cleanly, "invalid" means no linearization exists, and
    a blown budget yields "inconclusive".
    """
    ops = _usable_ops(history, spec)
    required = 0
    for i, o in enumerate(ops):
        if not o.pending:
            required |= 1 << i
    failed: set[tuple[Any, int]] = set()

    def children(state, mask):
        """Scan from the first unlinearized op, yielding (op index, child) for each
        unfailed child the frontier rule admits; when done, mark this state failed."""
        earliest = float("inf")  # first response among unlinearized ops passed
        for i in range((~mask & (mask + 1)).bit_length() - 1, len(ops)):
            o = ops[i]
            if o.invoked > earliest:
                break  # ops are in invocation order: later ones are invoked later still
            if mask >> i & 1:
                continue
            if o.responded is not None and o.responded < earliest:
                earliest = o.responded
            if o.pending or spec.accepts(state, o.name, o.args, o.ret):
                child = (spec.apply(state, o.name, o.args), mask | 1 << i)
                if child not in failed:
                    yield i, child
        failed.add((state, mask))

    explored = 0
    path = []  # [children, op index taken] for each state on the current path
    state, mask = spec.initial, 0
    while True:
        if mask & required == required:
            return CheckResult("valid", [ops[i] for _, i in path], explored)
        explored += 1
        if explored > state_budget:
            return CheckResult("inconclusive", None, explored)
        path.append([children(state, mask), None])
        while (step := next(path[-1][0], None)) is None:
            path.pop()
            if not path:
                return CheckResult("invalid", None, explored)
        path[-1][1], (state, mask) = step


def check_bruteforce(history: History, spec: RelaxedSpec) -> CheckResult:
    """Oracle checker: enumerate permutations, then replay each in full.

    Permutations are generated respecting precedence only (never pruned
    by the specification), so the search structure is independent of the
    response predicate.  Exponential; desk-scale histories only.
    """
    ops = _usable_ops(history, spec)
    before = _precedence_masks(ops)
    completed = [i for i, o in enumerate(ops) if not o.pending]
    optional = [i for i, o in enumerate(ops) if o.pending]
    explored = 0

    def orderings(remaining: list[int], placed: int):
        # precedence-respecting permutations; no pruning by the spec
        if not remaining:
            yield []
            return
        for i in remaining:
            if before[i] & ~placed:
                continue
            rest = [x for x in remaining if x != i]
            for tail in orderings(rest, placed | (1 << i)):
                yield [i] + tail

    def replays(order: list[int]) -> bool:
        state = spec.initial
        for i in order:
            o = ops[i]
            if not o.pending and not spec.accepts(state, o.name, o.args, o.ret):
                return False
            state = spec.apply(state, o.name, o.args)
        return True

    for extra_count in range(len(optional) + 1):
        for extra in itertools.combinations(optional, extra_count):
            chosen = sorted(completed + list(extra))
            for order in orderings(chosen, 0):
                explored += 1
                if replays(order):
                    return CheckResult("valid", [ops[i] for i in order], explored)
    return CheckResult("invalid", None, explored)
