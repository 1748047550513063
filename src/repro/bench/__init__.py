"""Experiment harness: regenerates every figure of the paper.

Each ``fig*`` function in :mod:`repro.bench.figures` runs one paper
experiment end-to-end (workload sweep x libraries) on the simulated
testbed and returns a :class:`~repro.bench.report.FigureResult` with
the measured series, the paper's expected shape encoded as explicit
checks, and notes on any known deviation. The pytest-benchmark modules
under ``benchmarks/`` are thin wrappers; ``scripts/make_experiments_md.py``
renders all results into EXPERIMENTS.md.

Set ``REPRO_BENCH_SCALE`` (float) to shrink/grow simulated data volumes.
"""

from repro.bench.report import FigureResult, Check, fmt_value
from repro.bench.runner import (
    run_libraries,
    scaled,
    standard_libraries,
    sweep_results_table,
    sweep_spec,
)
from repro.bench.sweep import benchmark_sweep, full_grid, smoke_grid
from repro.bench.compare import compare_libraries, Comparison
from repro.bench.workloads import PRODUCTION_WORKLOADS, get_workload

__all__ = [
    "FigureResult",
    "Check",
    "fmt_value",
    "run_libraries",
    "standard_libraries",
    "scaled",
    "sweep_spec",
    "sweep_results_table",
    "benchmark_sweep",
    "smoke_grid",
    "full_grid",
    "compare_libraries",
    "Comparison",
    "PRODUCTION_WORKLOADS",
    "get_workload",
]
