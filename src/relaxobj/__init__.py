"""Relaxed wait-free shared objects with a deterministic verification harness.

A multiplicatively accurate counter and bounded max register built from
read/write/test&set base objects, plus the machinery to gain confidence
in them: an instrumented shared-memory simulator whose scheduler
explores interleavings deterministically, a relaxed-linearizability
checker, and a step-complexity metrics engine.
"""

from .bench import BenchConfig, ComplexityReport, NativeReport, measure_amortized, \
    measure_worst_case, run_native
from .counter import ApproxCounter, ProcessState, return_value
from .lincheck import CheckResult, RelaxedSpec, check, check_bruteforce, \
    counter_spec, maxreg_approx_spec, maxreg_exact_spec
from .maxreg_approx import ApproxMaxRegister, floor_log
from .maxreg_exact import BoundedMaxRegister
from .shmem import Cell, Event, History, LazyCells, Memory, OpRecord, RunResult, \
    Runner, StepReport, enumerate_interleavings, run, seeded, trace_lines

__all__ = [
    "ApproxCounter", "ApproxMaxRegister", "BenchConfig", "BoundedMaxRegister",
    "Cell", "CheckResult", "ComplexityReport", "Event", "History", "LazyCells",
    "Memory", "NativeReport", "OpRecord", "ProcessState", "RelaxedSpec",
    "RunResult", "Runner", "StepReport", "check", "check_bruteforce", "counter_spec",
    "enumerate_interleavings", "floor_log", "maxreg_approx_spec",
    "maxreg_exact_spec", "measure_amortized", "measure_worst_case",
    "return_value", "run", "run_native", "seeded", "trace_lines",
]

__version__ = "0.1.0"
