"""Timed and traced phases, the determinism guard and the result record."""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
import speed
from tracer import Tracer
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
#: seed kept out of development; a claimed gain is re-checked on it
HELD_OUT_SEED = 9973
#: end-to-end metrics: (name, unit), reported on every workload; times and
#: rates are at the reference speed (see ``speed``)
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ok/attempted"),
    ("unit_ms_ref", "ms"),
    ("ops_per_s_ref", "ops/s"),
    ("steps_per_op", "steps/op"),
)

_clock = time.perf_counter


def timed_phase(workload, seconds: float, tracer: Tracer | None = None,
                setups: int = 0) -> dict:
    """Run whole passes over the workload's inputs, closed-loop, for ``seconds``.

    Every input is timed once per pass, and the phase stops only between
    passes, so each input has as many samples as there were passes and
    per-pass counts are exact.  With ``setups``, that many set-ups are
    also timed, spread evenly between the units, so that they see the
    host's speed changes as the units do.  Set-up time does not count
    towards ``seconds``.  Every time is kept as wall time and scaled to
    the reference speed (see ``speed``).
    """
    units = workload.units(tracer is not None)
    spans = [[] for _ in units]  # (start, end) marks of each input's calls, one per pass
    ops = [0] * len(units)  # simulated operations one call of each input completes
    setup_spans, problems = [], []
    attempted = failed = passes = 0
    start = next_setup = _clock()
    paused = 0.0  # seconds spent on set-ups

    def setup() -> None:
        nonlocal paused, next_setup
        began = meter.mark()
        for _ in range(workload.setup_batch):
            workload.setup()
        setup_spans.append((began, meter.mark()))
        paused += _clock() - began[0]
        next_setup = _clock() + seconds / setups

    with speed.Speedometer() as meter:
        while True:
            for i, unit in enumerate(units):
                if len(setup_spans) < setups and _clock() >= next_setup:
                    setup()
                attempted += unit.size
                if tracer is not None:
                    tracer.trace_id += 1
                began = meter.mark()
                try:
                    outcome = unit.call()
                    ended = meter.mark()
                    ops[i], found = unit.verify(outcome, tracer)
                except Exception as err:  # one unit failing must not end the benchmark
                    traceback.print_exc(file=sys.stderr)
                    failed += unit.size
                    problems.append(f"exception: {err!r}")
                    continue
                failed += min(unit.size, len(found))
                problems += [p for p in found if p not in problems]
                spans[i].append((began, ended))
            passes += 1
            if _clock() - start - paused >= seconds:
                break
        while len(setup_spans) < setups:
            setup()
    wall = [[b[0] - a[0] for a, b in s] for s in spans]
    scaled = [[meter.scaled(a, b) for a, b in s] for s in spans]
    # each input's median over the passes
    typical = [(statistics.median(s), n) for s, n in zip(scaled, ops) if s]
    return {"wall": wall, "scaled": scaled, "typical": [t for t, _ in typical],
            "rates": [n / t for t, n in typical], "attempted": attempted,
            "failed": failed, "passes": passes, "problems": problems,
            "setup_times": [meter.scaled(a, b) / workload.setup_batch
                            for a, b in setup_spans],
            "loop_ms": [1e3 * t for t in meter.loops]}


def guard(name: str, seed: int, deterministic) -> str:
    """Compare a workload's exact outputs with the values recorded at the seed commit."""
    references = json.loads((HERE / "reference.json").read_text())
    table = references.get(name, {})
    key = "any" if "any" in table else str(seed)
    if key not in table:
        return f"guard: no seed-commit reference for {name} seed {seed}"
    now, then = json.loads(json.dumps(deterministic)), table[key]
    if now == then:
        return "guard: exact outputs match the seed commit"
    changed = sorted(k for k in set(now) | set(then) if now.get(k) != then.get(k))
    return ("guard: algorithm or exploration changed (not a failure): "
            + "; ".join(f"{k} {then.get(k)} -> {now.get(k)}" for k in changed))


def untraced(name: str, seed: int, seconds: float, size: str) -> tuple:
    """End-to-end metrics of one workload, measured with tracing off."""
    workload = WORKLOADS[name](seed, SIZES[size][name])
    problems = workload.prepare()
    phase = timed_phase(workload, seconds, setups=workload.setup_repeats)
    problems += phase["problems"]
    times_ms = [1e3 * t for s in phase["wall"] for t in s]
    tail_ms, tail_pct = layers.tail([1e3 * t for s in phase["scaled"] for t in s])
    values = {
        "setup_s": statistics.median(phase["setup_times"]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (phase["attempted"] - phase["failed"]) / phase["attempted"],
        "unit_ms_ref": 1e3 * statistics.median(phase["typical"]),
        "ops_per_s_ref": statistics.median(phase["rates"]),
        "steps_per_op": workload.steps_per_op(),
    }
    loop_ms = phase["loop_ms"]
    lines = [f"units timed: {len(times_ms)} ({len(phase['wall'])} inputs, "
             f"{phase['passes']} passes); wall time per unit: median "
             f"{statistics.median(times_ms):.6g} ms",
             f"host speed: the reference loop took {min(loop_ms):.3f}-{max(loop_ms):.3f} ms, "
             f"median {statistics.median(loop_ms):.3f} ms, over {len(loop_ms)} readings; "
             f"times below are scaled to {speed.REFERENCE_MS} ms"]
    lines += named_figures(name, workload, values, phase, tail_ms, tail_pct)
    lines.append("deterministic: " + json.dumps(workload.deterministic, sort_keys=True))
    if size == "full":
        lines.append(guard(name, seed, workload.deterministic))
    metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    return metrics, phase, problems, lines


def named_figures(name, workload, values, phase, tail_ms, tail_pct) -> list[str]:
    """The end-to-end figures under the per-workload names used in discussion.

    ``history_ms_tail`` is over every timed unit, not over each input's
    median, so it shows what scaling leaves of the host's noise as well as
    the slow inputs.
    """
    typical_s = values["unit_ms_ref"] / 1e3
    figures = [("failed_frac", 1 - values["ok_frac"], "failed/attempted")]
    if name == "explore":
        histories = sum(d["histories"] for d in workload.deterministic.values())
        figures += [("verdict_s", typical_s, "s"),
                    ("histories_per_s", histories / typical_s, "1/s")]
    elif name == "check-long":
        figures += [("histories_per_s", len(phase["typical"]) / sum(phase["typical"]), "1/s"),
                    ("history_ms_p50", values["unit_ms_ref"], "ms"),
                    (f"history_ms_tail (p{tail_pct:.2f} of {len(phase['wall'])} x "
                     f"{phase['passes']} samples)", tail_ms, "ms")]
    else:
        figures.append(("ops_per_s", values["ops_per_s_ref"], "ops/s"))
        if name == "bench-counter":
            figures.append(("amortized_steps_per_op", values["steps_per_op"], "steps/op"))
        else:
            figures.append(("max_op_steps", workload.first.max_op_steps, "steps"))
    return [f"{n} = {v:.6g} {u}" for n, v, u in figures]


def _traced(workload, seconds: float) -> tuple[Tracer, dict]:
    tracer = Tracer()
    layers.install(tracer)
    try:
        return tracer, timed_phase(workload, seconds, tracer)
    finally:
        tracer.restore()


def traced(name: str, seed: int, seconds: float, size: str, out_dir: Path) -> tuple:
    """Per-layer metrics: an untraced phase, the same workload traced, then probes.

    A layer the workload never calls gets its figures from a tiny traced
    run of a workload that does; the output says which.
    """
    workload = WORKLOADS[name](seed, SIZES[size][name])
    problems = workload.prepare()
    plain = timed_phase(workload, seconds)
    tracer, phase = _traced(workload, seconds)
    problems += plain["problems"] + phase["problems"]
    phase["attempted"] += plain["attempted"]
    phase["failed"] += plain["failed"]
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
    metrics = layers.derive(tracer, phase["passes"])
    source = {k: name for k, v in metrics.items() if v is not None}
    for other in WORKLOADS:
        if other == name or None not in metrics.values():
            continue
        tiny = WORKLOADS[other](seed, SIZES["tiny"][other])
        problems += tiny.prepare()
        tiny_tracer, tiny_phase = _traced(tiny, 0)
        phase["attempted"] += tiny_phase["attempted"]
        phase["failed"] += tiny_phase["failed"]
        problems += tiny_phase["problems"]
        for key, value in layers.derive(tiny_tracer, tiny_phase["passes"]).items():
            if metrics[key] is None and value is not None:
                metrics[key], source[key] = value, f"{other} (tiny)"
    metrics["lincheck.max_sequential_ops"] = layers.max_sequential_ops()
    native, native_problems = layers.native_probe(seed)
    metrics["bench.native_ops_per_s"] = native
    problems += native_problems
    phase["attempted"] += 1
    phase["failed"] += bool(native_problems)
    overhead = sum(phase["typical"]) / sum(plain["typical"]) - 1
    metrics["trace.overhead_pct"] = 100 * overhead
    lines = [f"trace overhead: a traced pass takes {100 * overhead:+.1f}% longer than an "
             f"untraced one, at the reference speed ({len(tracer.spans)} spans written)"]
    by_source = {}
    for key in metrics:
        by_source.setdefault(source.get(key, "probe"), []).append(key)
    lines += [f"per-layer from {where}: {', '.join(keys)}" for where, keys in by_source.items()]
    result = {n: {"value": metrics[n], "unit": u} for n, u, _ in layers.PER_LAYER}
    return result, phase, problems, lines


def execute(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", out_dir: Path | None = None) -> dict:
    """Run one workload, print its report, and return the result record."""
    if trace:
        metrics, phase, problems, lines = traced(
            workload, seed, seconds, size, out_dir or HERE.parent / ".perfbench")
    else:
        metrics, phase, problems, lines = untraced(workload, seed, seconds, size)
    for line in lines + [f"problem: {p}" for p in problems]:
        print(line)
    result = {"correct": phase["failed"] == 0 and not problems,
              "attempted": phase["attempted"], "failed": phase["failed"],
              "metrics": metrics}
    print(json.dumps(result))
    return result
