"""Shared fixtures for the figure-reproduction benchmarks.

Each benchmark module regenerates one paper figure. The measured series
and shape checks are printed and persisted to ``benchmarks/results/``;
``scripts/make_experiments_md.py`` collates them into EXPERIMENTS.md.

Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_BENCH_SCALE=0.5`` (etc.) to shrink simulated volumes.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def figure_runner(benchmark):
    """Run a figure function once under pytest-benchmark and persist it.

    Every shape check of the figure must pass.

    pytest-benchmark would re-run the (minute-scale) simulation many
    times; ``pedantic(rounds=1)`` measures a single execution, which is
    what we want for deterministic simulations.
    """

    def run(fig_func):
        result = benchmark.pedantic(fig_func, rounds=1, iterations=1)
        RESULTS_DIR.mkdir(exist_ok=True)
        text = result.render()
        (RESULTS_DIR / f"{result.fig_id}.txt").write_text(text + "\n")
        print("\n" + text)
        assert result.all_passed, (
            f"{result.fig_id}: only {result.pass_fraction:.0%} of shape "
            f"checks passed\n{text}")
        return result

    return run
