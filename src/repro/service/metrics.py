"""Service metrics: latency histograms, gauges and counters.

A :class:`MetricsRegistry` is the one observability surface of the
service layer — tests, the bench CLI scenario and the traffic-replay
demo all read the same :meth:`~MetricsRegistry.snapshot`. Everything is
plain Python (no numpy) so snapshots are cheap and JSON-ready.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

#: Default Prometheus-style bucket upper bounds (ns): 1us..100ms in a
#: 1-2.5-5 ladder. Service latencies are simulated-ns, so the ladder
#: spans the whole regime the scenarios produce.
DEFAULT_BUCKET_BOUNDS_NS = tuple(
    base * mult
    for base in (1e3, 1e4, 1e5, 1e6, 1e7)
    for mult in (1.0, 2.5, 5.0)
) + (1e8,)


class LatencyHistogram:
    """Exact-percentile latency recorder (ns).

    The service handles thousands of simulated requests, not millions,
    so we keep every sample and compute exact nearest-rank percentiles
    rather than bucketing.
    """

    def __init__(self):
        self._values: list[float] = []
        #: Sorted copy, built lazily and invalidated on record — the
        #: recording order of ``_values`` is never disturbed, and
        #: repeated percentile reads share one sort.
        self._sorted_cache: list[float] | None = None

    def record(self, value_ns: float) -> None:
        """Add one latency sample."""
        self._values.append(float(value_ns))
        self._sorted_cache = None

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean_ns(self) -> float:
        return sum(self._values) / len(self._values) if self._values else 0.0

    @property
    def max_ns(self) -> float:
        return max(self._values) if self._values else 0.0

    def sorted_values(self) -> list[float]:
        """Snapshot-stable ascending copy of every sample.

        Built once per recording burst; callers may read it freely but
        must not mutate it.
        """
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self._values)
        return self._sorted_cache

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._values:
            return 0.0
        values = self.sorted_values()
        rank = max(1, round(p / 100 * len(values)))
        return values[min(rank, len(values)) - 1]

    @property
    def p50(self) -> float:
        """Median latency (ns)."""
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """95th-percentile latency (ns)."""
        return self.percentile(95)

    @property
    def p99(self) -> float:
        """99th-percentile latency (ns)."""
        return self.percentile(99)

    @property
    def p999(self) -> float:
        """99.9th-percentile tail latency (ns)."""
        return self.percentile(99.9)

    def cumulative_buckets(self, bounds=None) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs.

        Each entry counts samples ``<= le``; the implicit ``+Inf``
        bucket is :attr:`count`. Exact (we keep every sample), so the
        exposition's ``_bucket`` series is never an approximation.
        """
        if bounds is None:
            bounds = DEFAULT_BUCKET_BOUNDS_NS
        values = self.sorted_values()
        return [(float(le), bisect.bisect_right(values, float(le)))
                for le in sorted(bounds)]

    def summary(self) -> dict:
        """count/mean/percentiles/max in one JSON-ready dict."""
        return {
            "count": self.count,
            "mean_ns": self.mean_ns,
            "p50_ns": self.p50,
            "p90_ns": self.percentile(90),
            "p95_ns": self.p95,
            "p99_ns": self.p99,
            "p999_ns": self.p999,
            "max_ns": self.max_ns,
            "buckets": [[le, n] for le, n in self.cumulative_buckets()],
        }


class MetricsRegistry:
    """Counters + per-operation latency histograms + queue-depth gauge,
    plus host-work counters.

    ``counters`` describe the simulated service and are identical with
    tracing on or off. ``work`` counts host work, e.g.
    ``coding_jobs_simulated`` vs ``coding_jobs_reused`` (memo hits). It
    is deterministic for a given input, but a traced run simulates every
    coding job that an untraced one reuses, so it is kept apart.
    """

    def __init__(self):
        self.counters: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.latency: dict[str, LatencyHistogram] = defaultdict(LatencyHistogram)
        self._queue_depths: list[int] = []

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, by: int = 1) -> None:
        """Bump a counter."""
        self.counters[name] += by

    def inc_work(self, name: str, by: int = 1) -> None:
        """Bump a host-work counter."""
        self.work[name] += by

    def observe_latency(self, op: str, latency_ns: float) -> None:
        """Record one request latency under operation label ``op``."""
        self.latency[op].record(latency_ns)

    def sample_queue_depth(self, depth: int) -> None:
        """Record the queue depth at a dispatch/arrival instant."""
        self._queue_depths.append(depth)

    # -- reading -----------------------------------------------------------

    @property
    def max_queue_depth(self) -> int:
        return max(self._queue_depths) if self._queue_depths else 0

    @property
    def mean_queue_depth(self) -> float:
        return (sum(self._queue_depths) / len(self._queue_depths)
                if self._queue_depths else 0.0)

    def count(self, name: str) -> int:
        """Read one counter (0 when never bumped)."""
        return self.counters.get(name, 0)

    def snapshot(self) -> dict:
        """Everything, as one nested JSON-ready dict."""
        return {
            "counters": dict(self.counters),
            "work": dict(self.work),
            "latency": {op: h.summary() for op, h in self.latency.items()},
            "queue": {
                "samples": len(self._queue_depths),
                "max_depth": self.max_queue_depth,
                "mean_depth": self.mean_queue_depth,
            },
        }

    def render(self) -> str:
        """Human-readable snapshot block (used by the demo/CLI)."""
        snap = self.snapshot()
        lines = ["-- service metrics --"]
        for name in sorted(snap["counters"]):
            lines.append(f"  {name:<28} {snap['counters'][name]}")
        for name in sorted(snap["work"]):
            lines.append(f"  {name + ' (work)':<28} {snap['work'][name]}")
        for op in sorted(snap["latency"]):
            s = snap["latency"][op]
            lines.append(
                f"  {op + ' latency':<28} n={s['count']}  "
                f"p50={s['p50_ns'] / 1e3:.1f}us  p90={s['p90_ns'] / 1e3:.1f}us  "
                f"p99={s['p99_ns'] / 1e3:.1f}us  max={s['max_ns'] / 1e3:.1f}us")
        q = snap["queue"]
        lines.append(f"  {'queue depth':<28} max={q['max_depth']}  "
                     f"mean={q['mean_depth']:.2f}  samples={q['samples']}")
        return "\n".join(lines)
