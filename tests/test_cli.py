"""Command-line front end."""

from __future__ import annotations

import json
import threading
import tracemalloc

import pytest

from relaxobj import bench, shmem
from relaxobj.bench import MAX_NATIVE_THREADS, MAX_PROCESSES
from relaxobj.cli import UsageError, main, parse_workload


def test_parse_workload():
    workload = parse_workload("p0:inc,read;p1:write(5),read")
    assert workload == [[("inc", ()), ("read", ())],
                        [("write", (5,)), ("read", ())]]
    assert parse_workload("p0:write(-3)") == [[("write", (-3,))]]


def test_parse_workload_gaps_and_spacing():
    workload = parse_workload(" p2 : inc ; p0 : read ", n=3)
    assert workload == [[("read", ())], [], [("inc", ())]]


@pytest.mark.parametrize("text", [
    "", "p0", "q0:inc", "p0:jump", "p0:write(x)", "p0:inc;p0:read", "px:inc",
    # int() would take each of these as a number
    "p-0:inc", "p 1:inc", "p1_0:inc", "p+1:inc", "p\u0663:inc",
    "p0:write(+5)", "p0:write( 5)", "p0:write(1_0)", "p0:write(\u0663)",
])
def test_parse_workload_rejects_malformed(text):
    with pytest.raises(UsageError):
        parse_workload(text)


def test_check_counter_exhaustive_exit_zero(capsys):
    code = main(["check", "--object", "counter", "--n", "2", "--k", "2",
                 "--ops", "p0:inc,read;p1:inc,read", "--exhaustive"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["invalid"] == 0
    assert doc["valid"] == doc["histories"] > 0


def test_check_exhaustive_reports_leaves_explored(capsys):
    # criterion 3a: one leaf per trace class, 103 of the 45,330 interleavings
    code = main(["check", "--object", "maxreg-approx", "--n", "2", "--k", "2",
                 "--m", "256", "--ops", "p0:write(16),write(250),read;"
                 "p1:write(2),read,write(130)", "--exhaustive"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (doc["leaves"], doc["histories"], doc["valid"]) == (103, 38, 38)


def test_check_random_reports_one_leaf_per_run(capsys):
    code = main(["check", "--object", "counter", "--n", "2", "--k", "2",
                 "--ops", "p0:inc,read;p1:inc", "--random", "7"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (doc["leaves"], doc["histories"]) == (7, 7)


def test_check_random_maxreg_thousand_runs(capsys):
    code = main(["check", "--object", "maxreg-approx", "--n", "2", "--k", "2",
                 "--m", "256", "--ops", "p0:write(40),read;p1:write(3),read",
                 "--random", "1000", "--seed", "7"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["valid"] == 1000


def test_check_counter_low_k_regime_is_flagged(capsys):
    code = main(["check", "--object", "counter", "--n", "5", "--k", "2",
                 "--ops", "p0:inc,read;p1:inc;p2:inc;p3:inc;p4:inc",
                 "--random", "5", "--seed", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert "note" in doc  # k*k < n


def test_check_detects_violation(capsys):
    # outside the guaranteed regime (k*k < n) reads undershoot the window
    ops = ";".join(f"p{p}:inc,inc,inc,read" for p in range(9))
    code = main(["check", "--object", "counter", "--n", "9", "--k", "2",
                 "--ops", ops, "--random", "5", "--seed", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["invalid"] > 0
    assert "first_invalid" in doc
    # the reported seed replays the failing run
    seed = doc["first_invalid_seed"]
    replay = shmem.run(bench.factory("counter", 9, 2, None), parse_workload(ops, 9),
                       shmem.seeded(seed)).history
    assert json.loads(replay.to_json()) == doc["first_invalid"]
    assert main(["trace", "--object", "counter", "--n", "9", "--k", "2",
                 "--ops", ops, "--seed", str(seed)]) == 0
    assert capsys.readouterr().out.startswith("# config: subcommand=trace")


def test_check_low_count_workload_exhaustive_exit_zero(capsys):
    # five increments can complete while only ladder bit 0 is set; the
    # unit bits keep every read of every interleaving in the window
    code = main(["check", "--object", "counter", "--n", "4", "--k", "2",
                 "--ops", "p0:inc,inc;p1:inc;p2:inc;p3:inc,read",
                 "--exhaustive"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["invalid"] == doc["inconclusive"] == 0
    assert doc["valid"] == doc["histories"] > 0


def test_check_inconclusive_exit_three(capsys):
    code = main(["check", "--object", "counter", "--n", "2", "--k", "2",
                 "--ops", "p0:inc,inc,read;p1:inc,read", "--random", "3",
                 "--budget", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["inconclusive"] == 3


@pytest.mark.parametrize("count", ["-3", "0"])
def test_check_random_count_below_one_usage_error(count, capsys):
    code = main(["check", "--object", "counter", "--ops", "p0:inc",
                 "--random", count])
    assert code == 2
    assert "--random" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_check_budget_below_one_usage_error(budget, capsys):
    code = main(["check", "--object", "counter", "--ops", "p0:inc,read",
                 "--random", "2", "--budget", budget])
    assert code == 2
    assert "--budget" in capsys.readouterr().err


def test_check_long_sequential_workload_exit_zero(capsys):
    code = main(["check", "--object", "counter", "--k", "2",
                 "--ops", "p0:" + "inc," * 1200 + "read", "--random", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (doc["histories"], doc["valid"]) == (1, 1)


def test_check_malformed_ops_usage_error(capsys):
    code = main(["check", "--object", "counter", "--n", "2", "--k", "2",
                 "--ops", "p0:frobnicate", "--exhaustive"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_check_counter_rejects_write_op(capsys):
    code = main(["check", "--object", "counter", "--n", "1", "--k", "2",
                 "--ops", "p0:write(3)", "--exhaustive"])
    assert code == 2


def test_check_workload_beyond_declared_processes_usage_error(capsys):
    code = main(["check", "--object", "counter", "--n", "1",
                 "--ops", "p0:inc;p1:inc", "--exhaustive"])
    assert code == 2
    assert "only 1 processes declared" in capsys.readouterr().err


def test_check_maxreg_requires_m(capsys):
    code = main(["check", "--object", "maxreg-exact", "--ops", "p0:read",
                 "--exhaustive"])
    assert code == 2
    assert "--m" in capsys.readouterr().err


def test_bench_json_checkpoints(tmp_path):
    out = tmp_path / "report.json"
    code = main(["bench", "--object", "counter", "--n", "4", "--k", "2",
                 "--ops", "2000", "--seed", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"].startswith("object=counter")
    assert len(doc["checkpoints"]) == 2  # the 10^3 checkpoint plus the final sample


def test_bench_four_checkpoints_at_a_million_ops(capsys):
    code = main(["bench", "--object", "counter", "--n", "16", "--k", "4",
                 "--ops", "1000000", "--seed", "1"])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["checkpoints"]) == 4


@pytest.mark.parametrize("m", [2**63, 2**64, 2**80], ids=["2**63", "2**64", "2**80"])
def test_bench_maxreg_approx_reads_past_64_bits(m, capsys):
    # the JSON report carries step counts, and Python writes integers at any width
    code = main(["bench", "--object", "maxreg-approx", "--k", "2",
                 "--m", str(m), "--ops", "50", "--seed", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_op_steps"] <= doc["step_bound"]


@pytest.mark.parametrize("argv, name", [
    (["--object", "maxreg-exact", "--m", "1"], "m"),
    (["--object", "maxreg-approx", "--m", "1"], "m"),
    (["--object", "maxreg-approx", "--m", "10", "--k", "1"], "k"),
])
def test_bench_bad_option_usage_error(argv, name, capsys):
    code = main(["bench", *argv, "--ops", "10"])
    assert code == 2
    assert f"error: {name} must be >= 2" in capsys.readouterr().err


def test_bench_native_throughput(capsys):
    code = main(["bench", "--native", "--object", "counter", "--n", "2",
                 "--k", "2", "--ops", "4000", "--seed", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["total_ops"] == 4000
    assert doc["ops_per_second"] > 0


def test_bench_zero_processes_usage_error(capsys):
    code = main(["bench", "--object", "counter", "--n", "0", "--ops", "10"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bench_native_thread_cap_usage_error(capsys, monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_threads)
    code = main(["bench", "--native", "--object", "counter",
                 "--n", str(MAX_NATIVE_THREADS + 1), "--ops", "10"])
    assert code == 2
    assert "at most" in capsys.readouterr().err


def test_bench_native_csv_usage_error(monkeypatch):
    def no_run(config):
        raise AssertionError("a run was started")

    monkeypatch.setattr(bench, "run_native", no_run)
    monkeypatch.setattr(bench, "measure_amortized", no_run)
    for argv in (["--format", "csv"], ["--native", "--format", "csv"],
                 ["--format", "json"]):
        with pytest.raises(SystemExit) as err:  # bench reports JSON only
            main(["bench", "--object", "counter", "--n", "2", "--ops", "10", *argv])
        assert err.value.code == 2


def test_bench_native_ops_cap_usage_error(capsys, monkeypatch):
    def no_workload(config):
        raise AssertionError("the workload was drawn")

    monkeypatch.setattr(bench, "_workload", no_workload)
    code = main(["bench", "--native", "--object", "counter", "--n", "2",
                 "--ops", "1000001"])
    assert code == 2
    assert "and 1000001 ops" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bench", "--object", "counter", "--n", "1000000", "--ops", "10"],
    ["check", "--object", "counter", "--n", "1000000000", "--ops", "p0:inc",
     "--random", "1"],
])
def test_process_cap_usage_error(argv, capsys):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"n must be at most {MAX_PROCESSES}" in capsys.readouterr().err
    assert peak < 2**20  # rejected before any per-process list is built


@pytest.mark.parametrize("command", ["check", "trace"])
@pytest.mark.parametrize("n", [-3, 0])
def test_process_count_below_one_usage_error(command, n, capsys):
    argv = [command, "--object", "counter", "--n", str(n), "--ops", "p0:inc"]
    code = main(argv + (["--random", "1"] if command == "check" else []))
    assert code == 2
    assert f"n must be >= 1, not {n}" in capsys.readouterr().err


def test_trace_counter_three_lines(tmp_path):
    out = tmp_path / "trace.txt"
    code = main(["trace", "--object", "counter", "--n", "1", "--k", "4",
                 "--ops", "p0:inc,read", "--seed", "0", "--out", str(out)])
    assert code == 0
    header, *lines = out.read_text().strip().split("\n")
    assert header.startswith("# config:")
    assert len(lines) == 3  # one test&set plus two reads
    assert lines[0].split("\t")[3] == "tas"


def test_trace_deterministic(tmp_path):
    args = ["trace", "--object", "maxreg-exact", "--m", "8",
            "--ops", "p0:write(5),read;p1:write(3)", "--seed", "9"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_trace_maxreg_write_path(tmp_path):
    out = tmp_path / "trace.txt"
    code = main(["trace", "--object", "maxreg-exact", "--m", "8",
                 "--ops", "p0:write(5)", "--seed", "0", "--out", str(out)])
    assert code == 0
    header, *lines = out.read_text().strip().split("\n")
    assert header.startswith("# config:")
    # root-to-leaf access path: read below the split, then the two raises
    prims = [line.split("\t")[3] for line in lines]
    assert prims == ["read", "write", "write"]


def test_trace_counter_pair_write_and_read(tmp_path):
    out = tmp_path / "trace.txt"
    code = main(["trace", "--object", "counter", "--n", "2", "--k", "2",
                 "--ops", "p0:inc,inc,inc,inc,read;p1:inc,inc,read", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")[1:]
    # pair values print as comma-separated fields
    assert lines[5] == "5\t1\t0\tread\t-\t0,0"
    assert lines[8] == "8\t0\t0\twrite\t1,1\t-"


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["check", "--object", "turnstile", "--ops", "p0:read",
              "--exhaustive"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:  # check reports JSON only
        main(["check", "--object", "counter", "--ops", "p0:read",
              "--exhaustive", "--format", "text"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:  # every trace carries its config echo
        main(["trace", "--object", "counter", "--ops", "p0:inc", "--no-header"])
    assert err.value.code == 2
