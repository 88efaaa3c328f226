"""The benchmark's four workloads, each driven through relaxobj's public API.

A workload has a set-up step (input generation plus object
construction, timed on its own as ``setup_s``), a list of *units* that
make one pass over its inputs, and checks on every unit's output.  The
inputs depend only on the seed.  Each workload mostly exercises one
layer and mostly bypasses the others:

* ``explore``      ``relaxobj check --exhaustive`` on two acceptance
                   workloads: ``shmem.enumerate_interleavings`` dominates.
* ``check-long``   seeded 256-op counter histories, one ``run`` then one
                   ``check`` each: ``lincheck.check`` dominates.
* ``bench-counter`` ``bench.measure_amortized`` at 10^6 ops: operation
                   invocation and the scheduler loop, few shared accesses.
* ``bench-maxreg`` ``bench.measure_worst_case`` on a 2^20 exact max
                   register: eager tree allocation and per-access cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

from relaxobj import bench, cli, lincheck, shmem
from relaxobj.counter import ApproxCounter
from relaxobj.maxreg_approx import ApproxMaxRegister
from relaxobj.maxreg_exact import BoundedMaxRegister


def _approx(memory):
    return ApproxMaxRegister(memory, 2, 256)


def _counter(memory):
    return ApproxCounter(memory, 2, 2)


#: (label, CLI arguments, factory and spec the CLI builds from them)
EXPLORE_FULL = (
    ("3a", ["--object", "maxreg-approx", "--k", "2", "--m", "256",
            "--ops", "p0:write(16),write(250),read;p1:write(2),read,write(130)"],
     _approx, lincheck.maxreg_approx_spec(2)),
    ("5a", ["--object", "counter", "--n", "2", "--k", "2",
            "--ops", "p0:inc,inc,read,inc;p1:inc,read,inc,read"],
     _counter, lincheck.counter_spec(2)),
)
EXPLORE_TINY = (
    ("3a-tiny", ["--object", "maxreg-approx", "--k", "2", "--m", "256",
                 "--ops", "p0:write(16),read;p1:write(2),read"],
     _approx, lincheck.maxreg_approx_spec(2)),
    ("5a-tiny", ["--object", "counter", "--n", "2", "--k", "2",
                 "--ops", "p0:inc,read;p1:inc,read"],
     _counter, lincheck.counter_spec(2)),
)

#: the full sizes are the ones BENCHMARK.json describes; tiny ones keep
#: the smoke test and the traced run's layer fallback fast
SIZES = {
    "full": {
        "explore": {"checks": EXPLORE_FULL},
        "check-long": {"histories": 200, "ops": 256, "n": 4, "k": 2,
                       "read_fraction": 0.3},
        "bench-counter": {"n": 16, "k": 4, "ops": 10**6, "read_fraction": 0.1},
        "bench-maxreg": {"m": 2**20, "n": 2, "ops": 10**5, "read_fraction": 0.5},
    },
    "tiny": {
        "explore": {"checks": EXPLORE_TINY},
        "check-long": {"histories": 4, "ops": 32, "n": 4, "k": 2,
                       "read_fraction": 0.3},
        "bench-counter": {"n": 16, "k": 4, "ops": 10**4, "read_fraction": 0.1},
        "bench-maxreg": {"m": 2**10, "n": 2, "ops": 2000, "read_fraction": 0.5},
    },
}

#: states the checker may explore before a verdict turns inconclusive
CHECK_BUDGET = lincheck.DEFAULT_STATE_BUDGET
#: histories up to this many operations are cross-checked by brute force
BRUTEFORCE_MAX_OPS = 8
#: the counts a `relaxobj check` report carries
VERDICT_KEYS = ("histories", "valid", "invalid", "inconclusive")


def witness_problem(history, result, spec) -> str | None:
    """Replay a ``valid`` verdict's witness; describe what is wrong, if anything."""
    ops = history.operations()
    witness = result.witness or []
    completed = {(o.proc, o.index) for o in ops if not o.pending}
    placed = [(o.proc, o.index) for o in witness]
    if len(set(placed)) != len(placed):
        return "witness repeats an operation"
    if not completed <= set(placed):
        return "witness omits a completed operation"
    # an op may not follow one that was invoked after it responded
    earliest_later_response = float("inf")
    for o in reversed(witness):
        if earliest_later_response < o.invoked:
            return "witness breaks real-time order"
        if o.responded is not None:
            earliest_later_response = min(earliest_later_response, o.responded)
    state = spec.initial
    for o in witness:
        if not o.pending and not spec.accepts(state, o.name, o.args, o.ret):
            return f"witness rejects {o.name} -> {o.ret!r} in state {state!r}"
        state = spec.apply(state, o.name, o.args)
    return None


class Unit:
    """One timed call; ``size`` counts the failure-accounting units inside it."""

    def __init__(self, size, call, verify) -> None:
        self.size = size
        self.call = call
        self.verify = verify  # (outcome, tracer) -> (ops, problems found)


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


class Explore:
    """Exhaustive CLI checks; the inputs are fixed, so the seed changes nothing."""

    name = "explore"
    setup_batch = 5000  # set-up takes microseconds: time it in batches
    setup_repeats = 5

    def __init__(self, seed: int, size: dict) -> None:
        self.checks = size["checks"]

    def setup(self) -> None:
        for _, argv, factory, _ in self.checks:
            cli.parse_workload(argv[-1])
            factory(shmem.Memory())

    def prepare(self) -> list[str]:
        """Enumerate and check every distinct history outside the timed phase.

        Gives the verdict tallies each CLI report must match, cross-checks
        every verdict against the permutation oracle and replays every
        witness.
        """
        problems = []
        self.deterministic = {}
        self.bad = set()
        self.ops_per_round = 0
        self.steps = 0
        for label, argv, factory, spec in self.checks:
            workload = cli.parse_workload(argv[-1])
            seen = {}
            leaves = 0
            for leaf in shmem.enumerate_interleavings(factory, workload):
                leaves += 1
                self.ops_per_round += leaf.runner.ops_completed
                self.steps += leaf.report.total_steps
                seen.setdefault(leaf.history.signature(), leaf.history)
            tally = {"valid": 0, "invalid": 0, "inconclusive": 0}
            for history in seen.values():
                result = lincheck.check(history, spec, CHECK_BUDGET)
                tally[result.verdict] += 1
                if result.valid:
                    problem = witness_problem(history, result, spec)
                    if problem:
                        problems.append(f"{label}: {problem}")
                        self.bad.add(label)
                if len(history.operations()) <= BRUTEFORCE_MAX_OPS:
                    oracle = lincheck.check_bruteforce(history, spec)
                    if result.verdict != "inconclusive" and oracle.verdict != result.verdict:
                        problems.append(f"{label}: check says {result.verdict}, "
                                        f"check_bruteforce says {oracle.verdict}")
                        self.bad.add(label)
            self.deterministic[label] = {"leaves": leaves, "histories": len(seen), **tally}
        return problems

    def units(self, traced: bool) -> list[Unit]:
        return [Unit(len(self.checks), self._round, self._verify)]

    def _round(self):
        reports = []
        for label, argv, _, _ in self.checks:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["check", "--exhaustive", *argv])
            reports.append((label, code, out.getvalue()))
        return reports

    def _verify(self, reports, tracer):
        problems = []
        for label, code, text in reports:
            report = json.loads(text)
            want = {key: self.deterministic[label][key] for key in VERDICT_KEYS}
            got = {key: report[key] for key in VERDICT_KEYS}
            want_code = 1 if want["invalid"] else 3 if want["inconclusive"] else 0
            if got != want or code != want_code:
                problems.append(f"{label}: CLI reported {got} (exit {code}), "
                                f"expected {want} (exit {want_code})")
            elif label in self.bad:
                problems.append(f"{label}: CLI verdicts failed the oracle checks")
            if tracer is not None:
                tracer.add("enum.histories", report["histories"])
        return self.ops_per_round, problems

    def steps_per_op(self) -> float:
        return self.steps / self.ops_per_round


# ---------------------------------------------------------------------------
# check-long
# ---------------------------------------------------------------------------


class CheckLong:
    """Seeded counter histories in the k*k >= n regime of criterion 5b."""

    name = "check-long"
    setup_batch = 10
    setup_repeats = 5

    def __init__(self, seed: int, size: dict) -> None:
        self.seed = seed
        self.size = size
        self.spec = lincheck.counter_spec(size["k"])

    def _factory(self, memory):
        return ApproxCounter(memory, self.size["n"], self.size["k"])

    def setup(self):
        size = self.size
        rng = random.Random(self.seed)
        pool = []
        for _ in range(size["histories"]):
            workload = [[] for _ in range(size["n"])]
            for i in range(size["ops"]):
                op = ("read", ()) if rng.random() < size["read_fraction"] else ("inc", ())
                workload[i % size["n"]].append(op)
            pool.append((workload, rng.randrange(2**62)))
        self._factory(shmem.Memory())
        return pool

    def prepare(self) -> list[str]:
        self.pool = self.setup()
        self.first = {}  # pool index -> (verdict, steps, ops, max op steps)
        return []

    def units(self, traced: bool) -> list[Unit]:
        return [Unit(1, self._call(workload, seed, traced), self._verifier(i, workload))
                for i, (workload, seed) in enumerate(self.pool)]

    def _call(self, workload, seed, traced):
        def call():
            result = shmem.run(self._factory, workload, shmem.seeded(seed),
                               record_trace=traced)
            return result, lincheck.check(result.history, self.spec, CHECK_BUDGET)
        return call

    def _verifier(self, index, workload):
        def verify(outcome, tracer):
            result, verdict = outcome
            report = result.report
            seen = (verdict.verdict, report.total_steps, report.op_count,
                    report.max_op_steps())
            problems = []
            if verdict.verdict == "inconclusive":
                problems.append(f"history {index}: inconclusive")
            elif verdict.valid:
                problem = witness_problem(result.history, verdict, self.spec)
                if problem:
                    problems.append(f"history {index}: {problem}")
            if self.first.setdefault(index, seen) != seen:
                problems.append(f"history {index}: the same seeded run gave "
                                f"{seen}, first {self.first[index]}")
            if tracer is not None:
                counter_facts(tracer, result, workload)
            return report.op_count, problems
        return verify

    @property
    def deterministic(self):
        tally = {"valid": 0, "invalid": 0, "inconclusive": 0}
        for verdict, *_ in self.first.values():
            tally[verdict] += 1
        return {**tally, "steps": sum(v[1] for v in self.first.values()),
                "ops": sum(v[2] for v in self.first.values())}

    def steps_per_op(self) -> float:
        d = self.deterministic
        return d["steps"] / d["ops"]


def counter_facts(tracer, result, workload) -> None:
    """Per-op step counts, test&set wins and helped reads of one counter run."""
    counter = result.instance
    announce = counter.announce_oid_to_proc()
    by_pid = {}
    for step in result.trace:
        by_pid.setdefault(step[1], []).append(step)
        if step[3] == "tas":
            tracer.add("counter.tas")
            tracer.add("counter.tas_wins", step[5] == 0)
    for pid, ops in enumerate(workload):
        accesses = iter(by_pid.get(pid, []))
        for (name, _), steps in zip(ops, result.report.per_op[pid]):
            tracer.add(f"counter.{name}s")
            tracer.add(f"counter.{name}_steps", steps)
            last = None
            for _ in range(steps):
                last = next(accesses)
            if name == "read" and last is not None and last[2] in announce:
                tracer.add("counter.helped_reads")


# ---------------------------------------------------------------------------
# bench-counter and bench-maxreg
# ---------------------------------------------------------------------------


class _Bench:
    setup_batch = 1
    extra_ops = 0  # operations measure_* adds to the configured ones

    def __init__(self, seed: int, size: dict) -> None:
        self.config = self._config(seed, size)

    def _workload(self):
        # the same split bench.measure_* generates internally
        config = self.config
        rng = random.Random(config.seed)
        ops = [[] for _ in range(config.n)]
        for i in range(config.total_ops):
            if rng.random() < config.read_fraction:
                op = ("read", ())
            elif config.object == "counter":
                op = ("inc", ())
            else:
                op = ("write", (rng.randrange(1, config.m),))
            ops[i % config.n].append(op)
        return ops

    def prepare(self) -> list[str]:
        self.first = None
        return []

    def units(self, traced: bool) -> list[Unit]:
        return [Unit(1, self.measure, self._verify)]

    def _verify(self, report, tracer):
        problems = self.problems(report)
        if self.first is None:
            self.first = report
        elif report.to_json() != self.first.to_json():
            problems.append("two calls with one config disagree")
        if tracer is not None:
            marks = [c for c in bench.CHECKPOINTS if c <= report.total_ops]
            tracer.add("bench.checkpoint_overshoot_ops",
                       sum(c.ops - mark for c, mark in zip(report.checkpoints, marks)))
            tracer.peak("bench.max_op_steps", report.max_op_steps)
        return report.total_ops, problems

    def problems(self, report) -> list[str]:
        problems = []
        hist = report.histogram
        if sum(hist.values()) != report.total_ops:
            problems.append("histogram does not sum to the op count")
        if sum(steps * count for steps, count in hist.items()) != report.total_steps:
            problems.append("histogram does not sum to total_steps")
        if report.max_op_steps != max(hist, default=0):
            problems.append("max_op_steps is not the histogram's maximum")
        if report.amortized != Fraction(report.total_steps, report.total_ops):
            problems.append("amortized is not total_steps / total_ops")
        if report.total_ops != self.config.total_ops + self.extra_ops:
            problems.append(f"report counts {report.total_ops} operations")
        marks = [c for c in bench.CHECKPOINTS if c <= report.total_ops]
        for checkpoint, mark in zip(report.checkpoints, marks):
            if checkpoint.ops < mark:
                problems.append(f"checkpoint {checkpoint.ops} before its mark {mark}")
        return problems

    def steps_per_op(self) -> float:
        return self.first.total_steps / self.first.total_ops


class BenchCounter(_Bench):
    name = "bench-counter"
    setup_repeats = 5

    def measure(self):
        return bench.measure_amortized(self.config)

    @staticmethod
    def _config(seed, size):
        return bench.BenchConfig(object="counter", n=size["n"], k=size["k"],
                                 total_ops=size["ops"],
                                 read_fraction=size["read_fraction"], seed=seed)

    def setup(self):
        self._workload()
        ApproxCounter(shmem.Memory(), self.config.n, self.config.k)

    @property
    def deterministic(self):
        report = self.first
        return {"total_steps": report.total_steps,
                "amortized": [report.amortized.numerator, report.amortized.denominator],
                "checkpoints": [[c.ops, c.total_steps, c.amortized.numerator,
                                 c.amortized.denominator, c.max_op_steps]
                                for c in report.checkpoints]}


class BenchMaxreg(_Bench):
    name = "bench-maxreg"
    setup_repeats = 3  # each set-up builds the whole tree
    extra_ops = 1  # measure_worst_case starts process 0 with a full-depth read

    def measure(self):
        return bench.measure_worst_case(self.config)

    @staticmethod
    def _config(seed, size):
        return bench.BenchConfig(object="maxreg-exact", n=size["n"], m=size["m"],
                                 total_ops=size["ops"],
                                 read_fraction=size["read_fraction"], seed=seed)

    def setup(self):
        self._workload()
        BoundedMaxRegister(shmem.Memory(), self.config.m)

    def problems(self, report):
        problems = super().problems(report)
        depth = (self.config.m - 1).bit_length()  # ceil(log2 m)
        if report.max_op_steps > depth:
            problems.append(f"max_op_steps {report.max_op_steps} exceeds depth {depth}")
        return problems

    @property
    def deterministic(self):
        report = self.first
        return {"total_steps": report.total_steps, "max_op_steps": report.max_op_steps,
                "histogram": {str(k): v for k, v in sorted(report.histogram.items())}}


WORKLOADS = {w.name: w for w in (Explore, CheckLong, BenchCounter, BenchMaxreg)}
