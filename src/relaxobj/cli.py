"""Command-line front end: check, bench, and trace subcommands.

Every run is reproducible from the configuration line echoed at the top
of each report; all randomness flows from the --seed flag.

Exit status: 0 success / all histories valid, 1 at least one history
invalid, 2 usage error, 3 checks inconclusive only (state budget).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import bench, lincheck, shmem


class UsageError(Exception):
    pass


def _ascii_digits(text: str) -> bool:
    # int() also takes signs, spaces, '_' separators and non-ASCII digits
    return text.isascii() and text.isdigit()


def parse_workload(text: str, n: int | None = None) -> list[list[tuple]]:
    """Parse the workload mini-language: ``p0:inc,read;p1:write(5),read``."""
    procs: dict[int, list[tuple]] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        head, sep, rest = part.partition(":")
        head = head.strip()
        if not sep or not head.startswith("p"):
            raise UsageError(f"expected 'pN:op,op,...', got {part!r}")
        if not _ascii_digits(head[1:]):
            raise UsageError(f"bad process id {head!r}")
        pid = int(head[1:])
        if pid in procs:
            raise UsageError(f"process p{pid} listed twice")
        ops: list[tuple] = []
        for token in rest.split(","):
            token = token.strip()
            if token == "inc":
                ops.append(("inc", ()))
            elif token == "read":
                ops.append(("read", ()))
            elif token.startswith("write(") and token.endswith(")"):
                value = token[len("write("):-1]
                if not _ascii_digits(value.removeprefix("-")):
                    raise UsageError(f"bad write argument in {token!r}")
                ops.append(("write", (int(value),)))
            else:
                raise UsageError(f"unknown operation {token!r}")
        procs[pid] = ops
    if not procs:
        raise UsageError("empty workload")
    count = n if n is not None else max(procs) + 1
    if count < 1:
        raise UsageError(f"n must be >= 1, not {count}")
    if count > bench.MAX_PROCESSES:
        raise UsageError(f"n must be at most {bench.MAX_PROCESSES}, not {count}")
    for pid in procs:
        if pid >= count:
            raise UsageError(f"workload references p{pid} but only {count} processes declared")
    return [procs.get(p, []) for p in range(count)]


def _object_setup(args, workload):
    """Factory and spec for the object named on the command line.

    Rejects a workload with an operation the object does not support.
    """
    obj = args.object
    if obj.startswith("maxreg") and args.m is None:
        raise UsageError(f"{obj} needs --m")
    spec = bench.OBJECTS[obj][1](args.k)
    allowed = spec.updates | {"read"}
    for ops in workload:
        for name, _ in ops:
            if name not in allowed:
                raise UsageError(f"operation {name!r} not supported by {obj}")
    return bench.factory(obj, len(workload), args.k, args.m), spec


def _config_echo(args, **extra) -> str:
    return bench.config_echo(subcommand=args.command, object=args.object, n=args.n,
                             k=args.k, m=args.m, seed=args.seed, **extra)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    workload = parse_workload(args.ops, args.n)
    factory, spec = _object_setup(args, workload)
    if args.budget < 1:
        raise UsageError(f"--budget must be >= 1, not {args.budget}")
    stats = {}
    if args.exhaustive:
        # (seed, history) pairs: an explored history has no seed
        runs = ((None, h) for h in shmem.distinct_histories(factory, workload, stats))
    elif args.random < 1:
        raise UsageError(f"--random must be >= 1, not {args.random}")
    else:
        stats["leaves"] = args.random
        rng = random.Random(args.seed)
        seeds = (rng.randrange(2**62) for _ in range(args.random))
        runs = ((seed, shmem.run(factory, workload, shmem.seeded(seed)).history)
                for seed in seeds)
    counts = {"valid": 0, "invalid": 0, "inconclusive": 0}
    first_invalid = None
    for seed, history in runs:
        verdict = lincheck.check(history, spec, args.budget).verdict
        counts[verdict] += 1
        if verdict == "invalid" and first_invalid is None:
            first_invalid = seed, history
    mode = "exhaustive" if args.exhaustive else f"random({args.random})"
    report = {
        "config": _config_echo(args, mode=mode),
        "leaves": stats["leaves"],
        "histories": sum(counts.values()),
        "valid": counts["valid"],
        "invalid": counts["invalid"],
        "inconclusive": counts["inconclusive"],
    }
    if not getattr(factory(shmem.Memory()), "accuracy_guaranteed", True):
        report["note"] = ("k*k < n: the accuracy window is not guaranteed "
                          "in this regime")
    if first_invalid is not None:
        seed, history = first_invalid
        if seed is not None:
            # `trace --seed` with the same workload replays this run step by step
            report["first_invalid_seed"] = seed
        report["first_invalid"] = [event.to_json() for event in history]
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    if counts["invalid"]:
        return 1
    if counts["inconclusive"]:
        return 3
    return 0


def cmd_bench(args) -> int:
    config = bench.BenchConfig(
        object=args.object, n=args.n if args.n is not None else 1, k=args.k,
        m=args.m, total_ops=args.ops, read_fraction=args.read_fraction,
        seed=args.seed, mode="native" if args.native else "simulated")
    if args.native:
        report = bench.run_native(config)
    elif args.object == "counter":
        report = bench.measure_amortized(config)
    else:
        report = bench.measure_worst_case(config)
    _emit(report.to_json() + "\n", args.out)
    return 0


def cmd_trace(args) -> int:
    workload = parse_workload(args.ops, args.n)
    factory, _ = _object_setup(args, workload)
    result = shmem.run(factory, workload, shmem.seeded(args.seed),
                       record_trace=True)
    lines = [f"# config: {_config_echo(args)}"] + shmem.trace_lines(result.trace)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="relaxobj",
        description="relaxed wait-free shared objects: check, bench, trace")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--object", required=True, choices=tuple(bench.OBJECTS))
        p.add_argument("--n", type=int, default=None, help="process count")
        p.add_argument("--k", type=int, default=2, help="accuracy factor")
        p.add_argument("--m", type=int, default=None, help="value bound (max registers)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    check = sub.add_parser("check", help="run schedules and check relaxed linearizability")
    common(check)
    check.add_argument("--ops", required=True, help="workload, e.g. 'p0:inc,read;p1:inc'")
    mode = check.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true",
                      help="every interleaving, up to reordering of independent steps")
    mode.add_argument("--random", type=int, metavar="COUNT",
                      help="run COUNT seeded random schedules")
    check.add_argument("--budget", type=int, default=lincheck.DEFAULT_STATE_BUDGET,
                       help="checker state budget before 'inconclusive'")

    bench_p = sub.add_parser("bench", help="measure step complexity or native throughput")
    common(bench_p)
    bench_p.add_argument("--ops", required=True, type=int, help="total operation count")
    bench_p.add_argument("--read-fraction", type=float, default=0.1)
    bench_p.add_argument("--native", action="store_true",
                         help="threads over locked cells; throughput only")

    trace = sub.add_parser("trace", help="dump the per-step trace of one seeded run")
    common(trace)
    trace.add_argument("--ops", required=True, help="workload mini-language")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a patched ``cmd_*`` function takes effect
        return globals()["cmd_" + args.command](args)
    except (UsageError, ValueError, OSError, RuntimeError) as err:
        # RuntimeError covers thread-spawn failure in native mode
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
