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
that keeps one plain frame per state on its path and memoizes failed
states on (abstract state, lo, rel).  ``lo`` is the first unlinearized
operation and ``rel`` the bitmask of linearized ones from ``lo`` on, so
a key and a frame are as wide as the window of operations still open,
not as the history: memory grows linearly with history length, which
lets a seeded 10^5-operation counter history get its verdict.
Only an operation invoked before the first response among the
unlinearized ones invoked before it may go next (the frontier rule of
Wing & Gong).  :func:`check_bruteforce` enumerates precedence-respecting
permutations outright and replays each one: the ground-truth oracle for
small histories.
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
    count = len(ops)
    completed = count - [o.responded for o in ops].count(None)
    failed: set[tuple[Any, int, int]] = set()
    accepts, apply = spec.accepts, spec.apply
    inf = float("inf")

    # One frame per state on the current path: [state, lo, rel, completed ops
    # linearized, next op index to scan, first response among the unlinearized
    # ops scanned (the frontier)]; below the top, the op taken is the one
    # before the next to scan.  Op j is linearized iff j < lo or bit j - lo of
    # rel is set.  Op lo never is, so bit 0 of rel is clear and each
    # linearized set has exactly one (lo, rel).
    explored = 0
    path = []
    state, lo, rel, done, i, earliest = spec.initial, 0, 0, 0, 0, inf
    while True:
        if done == completed:
            return CheckResult("valid", [ops[f[4] - 1] for f in path], explored)
        explored += 1
        if explored > state_budget:
            return CheckResult("inconclusive", None, explored)
        frame = [state, lo, rel, done, i, earliest]
        path.append(frame)
        while True:  # scan the top frame from op i for its next unfailed child
            # ops are in invocation order: the scan stops at the first one
            # invoked after the frontier, as every later one is too
            while i < count and (o := ops[i]).invoked <= earliest:
                bit = i - lo
                i += 1
                if rel >> bit & 1:
                    continue
                responded = o.responded
                if responded is not None and responded < earliest:
                    earliest = responded
                if responded is None or accepts(state, o.name, o.args, o.ret):
                    if bit:
                        child_lo, child_rel = lo, rel | 1 << bit
                    else:  # op lo goes: slide the window past the linearized run
                        child_rel = rel >> 1
                        ones = (~child_rel & (child_rel + 1)).bit_length() - 1
                        child_lo, child_rel = lo + 1 + ones, child_rel >> ones
                    child = (apply(state, o.name, o.args), child_lo, child_rel)
                    if child not in failed:
                        break
            else:
                failed.add((state, lo, rel))
                path.pop()
                if not path:
                    return CheckResult("invalid", None, explored)
                state, lo, rel, done, i, earliest = frame = path[-1]
                continue
            frame[4:] = i, earliest
            state, lo, rel = child
            done += responded is not None
            i, earliest = lo, inf
            break


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
