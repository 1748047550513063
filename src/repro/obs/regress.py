"""Perf-regression time-series gate (``repro.obs.regress``).

``BENCH_*.json`` snapshots say what the repo measured *once*; this
module gives every benchmark a **trajectory**. Each ``repro.bench``
runner entry point appends one JSONL record to an append-only history
ledger (``BENCH_history.jsonl`` by default, overridable via the
``REPRO_BENCH_HISTORY`` environment variable), and
:func:`detect_regressions` compares the latest record of each run
against a rolling baseline of its predecessors — reusing the
coordinator's §4.1.2 flag language: a metric worse than **110%** of the
rolling baseline reads as *contention-grade* drift, worse than **150%**
as an *inefficient-prefetcher-grade* regression (the
``scripts/check_regression.py`` gate fails CI on the latter).

Metric direction is inferred from the name: times (``*_s``, ``*_ns``,
``*_us``, ``*_ms``), ``*latency*``, ``*regret*`` and ``*wall*`` are
lower-is-better; ``*gbps*``, ``*speedup*``, ``*score*``,
``*fraction*`` and ``*tput*`` are higher-is-better; anything else is
informational and never gated.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
from dataclasses import dataclass, field

#: Default ledger filename (resolved against the current directory).
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Environment override for the ledger path.
HISTORY_ENV = "REPRO_BENCH_HISTORY"

#: Rates are higher-is-better. They are checked before the time
#: suffixes, which would otherwise claim ``ops_per_s`` via ``_s``.
_RATE_SUFFIX = "_per_s"
_RATE_TOKEN = "mops"
_LOWER_SUFFIXES = ("_s", "_ns", "_us", "_ms")
_LOWER_TOKENS = ("latency", "regret", "wall", "makespan")
_HIGHER_TOKENS = ("gbps", "speedup", "score", "fraction", "tput",
                  "throughput")


def history_path(path=None) -> pathlib.Path:
    """Resolve the ledger path: explicit arg > env var > default."""
    if path is not None:
        return pathlib.Path(path)
    return pathlib.Path(os.environ.get(HISTORY_ENV, DEFAULT_HISTORY))


def metric_direction(name: str) -> str | None:
    """``"lower"`` / ``"higher"`` is better, or None (ungated)."""
    low = name.lower()
    if low.endswith(_RATE_SUFFIX) or _RATE_TOKEN in low:
        return "higher"
    if low.endswith(_LOWER_SUFFIXES) or any(t in low for t in _LOWER_TOKENS):
        return "lower"
    if any(t in low for t in _HIGHER_TOKENS):
        return "higher"
    return None


class BenchHistory:
    """Append-only JSONL benchmark ledger.

    One record per runner invocation::

        {"run": "sweep:smoke", "ts": "2026-08-07T...", "metrics": {...},
         "meta": {...}}

    ``metrics`` holds the gated numbers; ``meta`` free-form context
    (digests, grid shape, seeds). Records are never rewritten — the
    ledger is the repo's perf trajectory.
    """

    def __init__(self, path=None):
        self.path = history_path(path)

    def append(self, run: str, metrics: dict, meta: dict | None = None,
               ts: str | None = None) -> dict:
        """Append one record; returns it."""
        record = {
            "run": run,
            "ts": ts if ts is not None else datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "metrics": {k: v for k, v in metrics.items()
                        if isinstance(v, (int, float)) and v is not None},
            "meta": dict(meta or {}),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def entries(self, run: str | None = None) -> list[dict]:
        """Every record (oldest first), optionally for one run id.

        Unparseable or non-record lines are skipped, never fatal — an
        append-only ledger outlives format mistakes.
        """
        if not self.path.exists():
            return []
        out = []
        for line in self.path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(rec, dict) or "run" not in rec:
                continue
            if run is None or rec["run"] == run:
                out.append(rec)
        return out

    def runs(self) -> list[str]:
        """Distinct run ids, in first-appearance order."""
        return list(dict.fromkeys(e["run"] for e in self.entries()))


@dataclass
class RegressionFlag:
    """One metric of one run drifting past a rolling-baseline factor."""

    run: str
    metric: str
    value: float
    baseline: float
    #: value/baseline for lower-is-better, baseline/value for higher —
    #: always >= 1 when flagged ("how many times worse").
    ratio: float
    #: ``"warn"`` (> warn factor) or ``"fail"`` (> fail factor).
    severity: str
    direction: str
    window: int

    def describe(self) -> str:
        grade = ("inefficient-prefetcher-grade (exceeds 150% of the "
                 "rolling baseline)" if self.severity == "fail" else
                 "contention-grade (exceeds 110% of the rolling baseline)")
        return (f"{self.run}: {self.metric} = {self.value:g} vs rolling "
                f"baseline {self.baseline:g} over {self.window} run(s) — "
                f"x{self.ratio:.2f} worse, {grade}; the coordinator "
                f"would flag this")


@dataclass
class RegressionReport:
    """Outcome of one :func:`detect_regressions` pass."""

    flags: list[RegressionFlag] = field(default_factory=list)
    #: (run, metric) pairs actually compared against a baseline.
    compared: int = 0
    #: Runs whose latest entry had no predecessors to compare against.
    unseeded: list[str] = field(default_factory=list)
    #: (run, metric, reason) tuples excluded from gating — e.g.
    #: parallel-speedup metrics recorded on a single-CPU runner, where
    #: a process pool is pure overhead and 0.99x is not a regression.
    skipped: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def failures(self) -> list[RegressionFlag]:
        return [f for f in self.flags if f.severity == "fail"]

    @property
    def warnings(self) -> list[RegressionFlag]:
        return [f for f in self.flags if f.severity == "warn"]

    @property
    def clean(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"regression gate: {self.compared} metric(s) compared, "
                 f"{len(self.warnings)} warning(s), "
                 f"{len(self.failures)} failure(s)"]
        for f in self.flags:
            mark = "FAIL" if f.severity == "fail" else "warn"
            lines.append(f"  [{mark}] {f.describe()}")
        for run, metric, reason in self.skipped:
            lines.append(f"  [info] {run}: {metric} not gated — {reason}")
        for run in self.unseeded:
            lines.append(f"  [info] {run}: first recorded entry — baseline "
                         "seeded, nothing to compare yet")
        return "\n".join(lines)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def detect_regressions(history: BenchHistory | str | pathlib.Path | None = None,
                       *, window: int = 5, warn_factor: float = 1.10,
                       fail_factor: float = 1.50,
                       runs: list[str] | None = None) -> RegressionReport:
    """Gate the latest entry of each run against its rolling baseline.

    The baseline for a metric is the **median** over up to ``window``
    prior entries of the same run (median, not mean, so one historical
    outlier cannot poison the gate). The latest entry is flagged when
    it is worse than ``warn_factor`` (default 110%) or ``fail_factor``
    (default 150%) times the baseline, in the metric's worse direction.
    """
    if not isinstance(history, BenchHistory):
        history = BenchHistory(history)
    report = RegressionReport()
    for run in (runs if runs is not None else history.runs()):
        entries = history.entries(run)
        if not entries:
            continue
        latest, prior = entries[-1], entries[:-1][-window:]
        if not prior:
            report.unseeded.append(run)
            continue
        meta = latest.get("meta") or {}
        cpus = meta.get("cpus")
        single_cpu = isinstance(cpus, int) and cpus < 2
        for metric, value in sorted(latest.get("metrics", {}).items()):
            direction = metric_direction(metric)
            if direction is None or not isinstance(value, (int, float)):
                continue
            if single_cpu and "parallel" in metric.lower():
                # Pool speedup on a 1-CPU runner measures scheduler
                # overhead, not the code — never a regression signal.
                report.skipped.append(
                    (run, metric,
                     f"single-CPU runner (meta cpus={cpus})"))
                continue
            baseline_values = [
                e["metrics"][metric] for e in prior
                if isinstance(e.get("metrics", {}).get(metric), (int, float))
            ]
            if not baseline_values:
                continue
            baseline = _median(baseline_values)
            report.compared += 1
            if direction == "lower":
                if baseline <= 0:
                    continue
                ratio = value / baseline
            else:
                if value <= 0:
                    ratio = float("inf") if baseline > 0 else 1.0
                else:
                    ratio = baseline / value
            if ratio > fail_factor:
                severity = "fail"
            elif ratio > warn_factor:
                severity = "warn"
            else:
                continue
            report.flags.append(RegressionFlag(
                run=run, metric=metric, value=float(value),
                baseline=float(baseline), ratio=float(ratio),
                severity=severity, direction=direction,
                window=len(baseline_values)))
    return report
