"""Command-line front end: check, bench, and trace subcommands.

Every run is reproducible from the configuration line echoed at the top
of each report; all randomness flows from the --seed flag.

Exit status: 0 success / all histories valid, 1 at least one history
invalid, 2 usage error, 3 checks inconclusive only (state budget).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import bench, lincheck, shmem
from .maxreg_approx import ApproxMaxRegister

#: widest value the fixed-width report formats carry
REPORT_VALUE_LIMIT = 2**64 - 1


class UsageError(Exception):
    pass


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
        try:
            pid = int(head[1:])
        except ValueError:
            raise UsageError(f"bad process id {head!r}") from None
        if pid < 0:
            raise UsageError(f"bad process id {head!r}")
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
                try:
                    value = int(token[len("write("):-1])
                except ValueError:
                    raise UsageError(f"bad write argument in {token!r}") from None
                ops.append(("write", (value,)))
            else:
                raise UsageError(f"unknown operation {token!r}")
        procs[pid] = ops
    if not procs:
        raise UsageError("empty workload")
    count = n if n is not None else max(procs) + 1
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
    if obj == "counter":
        spec = lincheck.counter_spec(args.k)
    elif args.m is None:
        raise UsageError(f"{obj} needs --m")
    elif obj == "maxreg-exact":
        spec = lincheck.maxreg_exact_spec()
    else:
        spec = lincheck.maxreg_approx_spec(args.k)
    allowed = spec.updates | {"read"}
    for ops in workload:
        for name, _ in ops:
            if name not in allowed:
                raise UsageError(f"operation {name!r} not supported by {obj}")
    return bench.factory(obj, len(workload), args.k, args.m), spec


def _config_echo(args, extra: str = "") -> str:
    parts = [f"subcommand={args.command}", f"object={args.object}"]
    for name in ("n", "k", "m", "seed"):
        value = getattr(args, name, None)
        parts.append(f"{name}={value if value is not None else '-'}")
    if extra:
        parts.append(extra)
    return " ".join(parts)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    workload = parse_workload(args.ops, args.n)
    factory, spec = _object_setup(args, workload)
    if args.exhaustive:
        histories = shmem.distinct_histories(factory, workload)
    elif args.random < 1:
        raise UsageError(f"--random must be >= 1, not {args.random}")
    else:
        seeds = random.Random(args.seed)
        histories = (shmem.run(factory, workload,
                               shmem.seeded(seeds.randrange(2**62))).history
                     for _ in range(args.random))
    counts = {"valid": 0, "invalid": 0, "inconclusive": 0}
    first_invalid = None
    for history in histories:
        verdict = lincheck.check(history, spec, args.budget).verdict
        counts[verdict] += 1
        if verdict == "invalid" and first_invalid is None:
            first_invalid = history
    mode = "exhaustive" if args.exhaustive else f"random({args.random})"
    report = {
        "config": _config_echo(args, f"mode={mode}"),
        "histories": sum(counts.values()),
        "valid": counts["valid"],
        "invalid": counts["invalid"],
        "inconclusive": counts["inconclusive"],
    }
    if args.object == "counter" and args.k * args.k < len(workload):
        report["note"] = ("k*k < n: the accuracy window is not guaranteed "
                          "in this regime")
    if first_invalid is not None:
        report["first_invalid"] = json.loads(first_invalid.to_json())
    if args.format == "text":
        lines = [report["config"]] + [
            f"{key}: {report[key]}" for key in ("histories", "valid", "invalid", "inconclusive")
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
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
    if config.object == "maxreg-approx":
        register = ApproxMaxRegister(shmem.Memory(), config.k, config.m)
        if register.max_read_value() > REPORT_VALUE_LIMIT:
            raise UsageError(
                f"overflow guard: largest read value {config.k}^{register.capacity - 1} "
                f"exceeds the 64-bit report format; reduce m")
    if args.native:
        report = bench.run_native(config)
        _emit(report.to_json() + "\n", args.out)
        return 0
    if args.object == "counter":
        result = bench.measure_amortized(config)
    else:
        result = bench.measure_worst_case(config)
    if args.format == "csv":
        _emit(result.to_csv(), args.out)
    else:
        _emit(result.to_json() + "\n", args.out)
    return 0


def cmd_trace(args) -> int:
    workload = parse_workload(args.ops, args.n)
    factory, _ = _object_setup(args, workload)
    result = shmem.run(factory, workload, shmem.seeded(args.seed),
                       record_trace=True)
    lines = [f"# config: {_config_echo(args)}"] if args.header else []
    lines += shmem.trace_lines(result.trace)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxobj",
        description="relaxed wait-free shared objects: check, bench, trace")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_m=True):
        p.add_argument("--object", required=True,
                       choices=("counter", "maxreg-exact", "maxreg-approx"))
        p.add_argument("--n", type=int, default=None, help="process count")
        p.add_argument("--k", type=int, default=2, help="accuracy factor")
        if with_m:
            p.add_argument("--m", type=int, default=None, help="value bound (max registers)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    check = sub.add_parser("check", help="run schedules and check relaxed linearizability")
    common(check)
    check.add_argument("--ops", required=True, help="workload, e.g. 'p0:inc,read;p1:inc'")
    mode = check.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true",
                      help="enumerate every interleaving (desk scale only)")
    mode.add_argument("--random", type=int, metavar="COUNT",
                      help="run COUNT seeded random schedules")
    check.add_argument("--budget", type=int, default=lincheck.DEFAULT_STATE_BUDGET,
                       help="checker state budget before 'inconclusive'")
    check.add_argument("--format", choices=("json", "text"), default="json")
    check.set_defaults(func=cmd_check)

    bench_p = sub.add_parser("bench", help="measure step complexity or native throughput")
    common(bench_p)
    bench_p.add_argument("--ops", required=True, type=int, help="total operation count")
    bench_p.add_argument("--read-fraction", type=float, default=0.1)
    bench_p.add_argument("--native", action="store_true",
                         help="threads over locked cells; throughput only")
    bench_p.add_argument("--format", choices=("csv", "json"), default="json")
    bench_p.set_defaults(func=cmd_bench)

    trace = sub.add_parser("trace", help="dump the per-step trace of one seeded run")
    common(trace)
    trace.add_argument("--ops", required=True, help="workload mini-language")
    trace.add_argument("--no-header", dest="header", action="store_false",
                       help="omit the config echo line")
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, RuntimeError) as err:
        # RuntimeError covers thread-spawn failure in native mode
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
