"""Smoke test of the benchmark at tiny sizes: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_tiny_run_reports_every_end_to_end_metric(workload, capsys):
    result = harness.execute(workload, 3, 0.2, False, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == result


@pytest.mark.parametrize("workload, span", [("explore", "cli.main"),
                                            ("bench-counter", "bench.measure_amortized")])
def test_traced_tiny_run_reports_every_per_layer_metric(workload, span, tmp_path):
    result = harness.execute(workload, 3, 0.2, True, size="tiny", out_dir=tmp_path)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("per_layer")
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    lines = (tmp_path / f"spans-{workload}-seed3.jsonl").read_text().splitlines()
    assert span in {json.loads(line).get("name") for line in lines}


def test_each_input_is_timed_once_per_pass():
    from workloads import Unit

    class Fake:
        setup_batch = 1

        def setup(self):
            pass

        def units(self, traced):
            return [Unit(1, lambda: None, lambda outcome, tracer: (5, [])) for _ in range(3)]

    phase = harness.timed_phase(Fake(), 0.05, setups=2)
    assert phase["passes"] >= 1 and len(phase["setup_times"]) == 2
    assert all(len(s) == phase["passes"] for s in phase["wall"])
    assert len(phase["typical"]) == 3 and len(phase["loop_ms"]) >= 2
    assert phase["rates"] == [5 / t for t in phase["typical"]]


def test_scaled_time_follows_the_reference_loop_around_it():
    import speed

    meter = speed.Speedometer()
    meter.ends, meter.loops = [1.0, 2.0, 3.0, 9.0], [0.010, 0.020, 0.030, 0.5]
    assert meter.loop_s(1.9, 2.1) == pytest.approx(0.020)
    assert meter.loop_s(0.8, 3.2) == pytest.approx(0.020)
    assert meter.loop_s(5.0, 6.0) == pytest.approx(0.5)  # none close: the nearest
    # one second of which 0.5 s went to readings, while the loop took twice
    # the reference time, reads as 0.25 s
    meter.ends, meter.loops = [0.0, 5.0], [2 * speed.REFERENCE_MS / 1e3] * 2
    assert meter.scaled((1.0, 0.0), (2.0, 0.5)) == pytest.approx(0.25)


def test_the_reading_timer_stops_with_the_phase():
    import signal
    import speed

    with speed.Speedometer() as meter:
        for _ in range(3 * 10**6):
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) in (signal.SIG_DFL, None)
    assert len(meter.loops) >= 2 and meter.stolen == pytest.approx(sum(meter.loops))


def test_reference_holds_the_seed_commit_values():
    reference = json.loads((HERE / "reference.json").read_text())
    explore = reference["explore"]["any"]
    assert (explore["3a"]["leaves"], explore["3a"]["histories"]) == (45330, 38)
    assert (explore["5a"]["leaves"], explore["5a"]["histories"]) == (3600, 44)
    assert reference["bench-counter"]["1"]["total_steps"] == 100458
    assert reference["bench-maxreg"]["1"]["max_op_steps"] == 20
    assert str(harness.HELD_OUT_SEED) in reference["bench-counter"]


def test_guard_reports_a_change_without_failing():
    reference = json.loads((HERE / "reference.json").read_text())
    same = reference["bench-maxreg"]["1"]
    assert "match" in harness.guard("bench-maxreg", 1, same)
    changed = dict(same, max_op_steps=21)
    assert "algorithm or exploration changed" in harness.guard("bench-maxreg", 1, changed)
    assert "no seed-commit reference" in harness.guard("bench-maxreg", 123456, same)


def test_native_thread_count_above_cores_is_rejected_before_any_thread_starts():
    before = threading.active_count()
    with pytest.raises(ValueError):
        layers.check_thread_count(10**6)
    assert threading.active_count() == before


def test_witness_replay_catches_a_reordered_or_truncated_witness():
    from relaxobj import lincheck
    from workloads import witness_problem

    history = layers._sequential_history(8)
    spec = lincheck.counter_spec(2)
    result = lincheck.check(history, spec)
    assert result.valid and witness_problem(history, result, spec) is None
    swapped = result.witness[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    reordered = lincheck.CheckResult("valid", swapped, 0)
    assert witness_problem(history, reordered, spec) == "witness breaks real-time order"
    truncated = lincheck.CheckResult("valid", result.witness[:-1], 0)
    assert witness_problem(history, truncated, spec) == "witness omits a completed operation"


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert layers.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert layers.tail([1.0, 5.0, 3.0]) == (5.0, 100.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "explore",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
