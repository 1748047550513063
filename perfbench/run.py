#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload encode_mt --seed 0 --seconds 27 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced passes with passes recorded by the
span wrappers of ``spans.py`` and prints the per-layer metrics (the
spans of the last traced pass go to ``perfbench/out/``). Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 only when every output check passed. See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS / OpenMP pools before numpy loads: one host thread per run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
PINS = HERE / "pins.json"
OUT_DIR = HERE / "out"

#: The seed whose digests are pinned in pins.json.
DEFAULT_SEED = 0
#: Cold set-ups per run, each in a fresh interpreter (``setup_s`` is
#: their median).
SETUP_REPEATS = 3
#: Fewest measured passes per run, whatever ``--seconds`` says.
MIN_PASSES = 3


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _median(values) -> float:
    return _percentile(values, 50)


def _env_lines() -> list[str]:
    return [f"env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas_threads="
            f"{os.environ['OPENBLAS_NUM_THREADS']}"]


def _setup_seconds(args) -> list[float]:
    """Wall time of cold set-ups: a fresh interpreter that imports the
    program and builds this workload's inputs, then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _measure(workload, state, args):
    """Warm-up pass, then as many passes as fit in ``--seconds``.

    Returns (warm-up, untraced passes, traced passes as (result,
    recorder, queue-wait samples)).
    """
    warm = workload.run_pass(state)
    untraced, traced = [], []
    start = last = time.perf_counter()
    while True:
        untraced.append(workload.run_pass(state))
        if args.trace:
            traced.append(_traced_pass(workload, state))
        now = time.perf_counter()
        # stop before a further round would overrun --seconds
        if (len(untraced) >= MIN_PASSES
                and now - start + (now - last) > args.seconds):
            break
        last = now
    return warm, untraced, traced


def _traced_pass(workload, state):
    recorder = spans.SpanRecorder(workload.name)
    waits: list[float] = []
    kwargs = {}
    if workload.name == "service_open":
        kwargs["on_service"] = lambda svc: _hook_queue(svc, waits)
    with spans.traced(recorder):
        result = workload.run_pass(state, **kwargs)
    return result, recorder, waits


def _hook_queue(svc, waits: list) -> None:
    """Record each dispatched request's simulated queue wait, at the
    ``pop_batch`` attribute the service's dispatcher looks up."""
    pop = svc.queue.pop_batch

    def pop_batch(*args, **kwargs):
        batch = pop(*args, **kwargs)
        waits.extend(svc.clock_ns - req.arrival_ns for req in batch.requests)
        return batch

    svc.queue.pop_batch = pop_batch


def _check(workload, state, args, passes) -> list[str]:
    """Every output check of the run; returns the problems found."""
    problems = []
    first = passes[0]
    for i, p in enumerate(passes[1:], 1):
        if p.digest != first.digest:
            problems.append(f"pass {i}: digest {p.digest[:16]} != "
                            f"{first.digest[:16]}")
        if p.counters != first.counters:
            problems.append(f"pass {i}: work counters differ: {p.counters} "
                            f"!= {first.counters}")
        if p.sim != first.sim:
            problems.append(f"pass {i}: simulated metrics differ")
    if args.seed == DEFAULT_SEED and not args.tiny:
        pinned = json.loads(PINS.read_text()).get(workload.name)
        if pinned != first.digest:
            problems.append(f"digest {first.digest} != pinned {pinned}")
    problems += workload.cross_check(state)
    return problems


def _pass_seconds(passes) -> float:
    """A pass's host time as the sum of its steps' medians across
    passes, plus the median of the untimed rest. Every pass runs the
    same steps, so each median compares like with like and a noisy
    moment on the shared host disturbs one step, not the whole figure.
    """
    steps = zip(*(p.steps for p in passes))
    rest = _median([p.wall_s - sum(p.steps) for p in passes])
    return sum(_median(s) for s in steps) + rest


def _end_to_end(setups, untraced, failed, refused, attempted) -> dict:
    calls = [c for p in untraced for c in p.calls]
    return {
        "setup_s": _median(setups),
        "call_p50_ms": _percentile(calls, 50) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_frac": 1.0 - (failed + refused) / attempted,
    }


def _per_layer(untraced, traced) -> tuple[dict, list, list]:
    """Per-layer metrics, the per-pass span summaries, and the problems
    found (work counts that differ between traced passes)."""
    summaries = [spans.summarize(rec.spans, int(res.wall_s * 1e9))
                 for res, rec, _ in traced]
    out = {}
    for key in summaries[0]:
        if key.startswith("_"):
            continue
        values = [s[key] for s in summaries]
        out[key] = values[0] if isinstance(values[0], int) \
            else _median(values)
    plain = _median([p.wall_s for p in untraced])
    with_spans = _median([res.wall_s for res, _, _ in traced])
    out["tracing.overhead_s"] = with_spans - plain
    out["tracing.overhead_frac"] = (with_spans - plain) / plain
    first = untraced[0]
    sim = first.sim
    out["model.sim_gbps"] = sim.get("sim_gbps", 0.0)
    out["model.dialga_speedup"] = sim.get("dialga_speedup", 0.0)
    out["svc.sim_p50_us"] = sim.get("svc_p50_us", 0.0)
    out["svc.sim_p99_us"] = sim.get("svc_p99_us", 0.0)
    out["svc.max_rate"] = sim.get("svc_max_rate", 0.0)
    out["svc.mean_batch"] = sim.get("mean_batch", 0.0)
    out["svc.batches"] = first.counters.get("batches", 0)
    out["svc.rejected"] = first.counters.get("rejected", 0)
    waits = traced[-1][2]
    out["svc.queue_wait_p99_us"] = _percentile(waits, 99) / 1e3 if waits \
        else 0.0
    for name, key in (("store.put_p50_ms", "put"), ("store.dget_p50_ms", "dget"),
                      ("store.recover_ms", "recover")):
        samples = [s for p in untraced for s in p.host.get(key, [])]
        out[name] = _median(samples) * 1e3 if samples else 0.0
    samples = [s for p in untraced for s in p.host.get("put", [])]
    out["store.put_p90_ms"] = _percentile(samples, 90) * 1e3 if samples \
        else 0.0
    problems = [
        f"traced pass {i}: work count {key} = {s[key]} != {summaries[0][key]}"
        for i, s in enumerate(summaries[1:], 1)
        for key, value in summaries[0].items()
        if isinstance(value, int) and s[key] != value]
    return out, summaries, problems


def _report(workload, seed, untraced, metrics, unit_of, problems, extra):
    """Human-readable lines ahead of the JSON result."""
    first = untraced[0]
    lines = _env_lines()
    lines.append(f"workload {workload.name} seed {seed}: "
                 f"{len(untraced)} measured passes, median pass "
                 f"{_median([p.wall_s for p in untraced]):.3f} s, "
                 f"digest {first.digest[:16]}")
    lines.append("pass wall s: " + " ".join(
        f"{p.wall_s:.3f}" for p in untraced))
    lines.append("work counters (per pass): " + ", ".join(
        f"{k}={v}" for k, v in first.counters.items()))
    for name, value in first.sim.items():
        lines.append(f"simulated {name} = {value:.6g}")
    for name, (value, unit) in extra.items():
        lines.append(f"detail {name} = {value:.6g} {unit}")
    for name, value in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {unit_of.get(name, '')}")
    for problem in problems:
        lines.append(f"CHECK FAILED: {problem}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke test only)")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    state = workload.setup(args.seed)
    if args.setup_only:
        return 0
    declared = json.loads(BENCHMARK.read_text())
    setups = _setup_seconds(args)

    warm, untraced, traced = _measure(workload, state, args)
    passes = [warm] + untraced + [res for res, _, _ in traced]
    problems = _check(workload, state, args, passes)
    failed = sum(p.failed for p in untraced) + len(problems)
    problems += [f"pass {i}: {p.failed} failed operation(s)"
                 for i, p in enumerate(passes) if p.failed]
    refused = sum(p.refused for p in untraced)
    attempted = sum(p.attempted for p in untraced)
    e2e = _end_to_end(setups, untraced, failed, refused, attempted)

    calls = [c for p in untraced for c in p.calls]
    extra = {"ops_per_s": (untraced[0].ops / _pass_seconds(untraced), "1/s"),
             "call_p90_ms": (_percentile(calls, 90) * 1e3,
                             f"ms over {len(calls)} calls")}
    if args.trace:
        metrics, summaries, trace_problems = _per_layer(untraced, traced)
        problems += trace_problems
        failed += len(trace_problems)
        names = [m["name"] for m in declared["per_layer"]]
        unit_of = {m["name"]: m["unit"] for m in declared["per_layer"]}
        last, wall = summaries[-1], traced[-1][0].wall_s
        extra["traced pass wall"] = (wall, "s")
        for layer, seconds in sorted(last["_busy_by_layer"].items()):
            extra[f"busy share [{layer}]"] = (100 * seconds / wall, "%")
        for layer, seconds in sorted(last["_self_by_layer"].items()):
            extra[f"self share [{layer}]"] = (100 * seconds / wall, "%")
        OUT_DIR.mkdir(exist_ok=True)
        traced[-1][1].write_jsonl(
            OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
    else:
        metrics = e2e
        names = [m["name"] for m in declared["end_to_end"]]
        unit_of = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    metrics = {name: metrics[name] for name in names}

    for line in _report(workload, args.seed, untraced, metrics, unit_of,
                        problems, extra):
        print(line)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
