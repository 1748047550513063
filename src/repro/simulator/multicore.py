"""Multi-thread simulation: interleaved execution over shared PM.

Threads run on private cores (own cache + streamer) but share the
memory backends — bandwidth pipes and, crucially, the PM read buffer.
The interpreter (:func:`repro.simulator.engine.interpret`) always
advances the thread with the smallest local clock by one op (a
conservative event ordering), so cross-thread interactions through the
shared state happen in causal order. This is where Obs. 5's
read-buffer thrashing and the scalability plateaus of Fig. 7/13 come
from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import get_tracer
from repro.simulator.counters import Counters
from repro.simulator.engine import ThreadContext, interpret
from repro.simulator.memory import DRAMBackend, PMBackend
from repro.simulator.params import HardwareConfig
from repro.trace.ops import Trace


@dataclass
class SimResult:
    """Outcome of a (possibly multi-thread) simulation.

    Attributes
    ----------
    makespan_ns:
        Finish time of the slowest thread.
    thread_times_ns:
        Per-thread finish times.
    counters:
        Aggregate counters across all threads (shared-memory events —
        buffer, media traffic — are inherently global).
    data_bytes:
        Total application data processed (all threads).
    """

    makespan_ns: float
    thread_times_ns: list[float]
    counters: Counters
    data_bytes: int = 0
    #: Steady-state fast-forward stats (``engaged``, ``periods_skipped``,
    #: ...) when the run went through :mod:`repro.simulator.fastforward`;
    #: None otherwise. Excluded from equality: fast-forwarded results
    #: are byte-identical to interpreted ones and must compare equal.
    fastforward: dict | None = field(default=None, compare=False,
                                     repr=False)

    @property
    def throughput_gbps(self) -> float:
        """Aggregate data throughput in GB/s (bytes/ns)."""
        return self.data_bytes / self.makespan_ns if self.makespan_ns else 0.0

    @property
    def throughput_mbps(self) -> float:
        """Aggregate data throughput in MB/s."""
        return self.throughput_gbps * 1000.0


def make_backends(hw: HardwareConfig):
    """Build the (shared) load/store backends for a run."""
    backends = {}

    def backend_for(kind: str):
        if kind not in backends:
            backends[kind] = (
                PMBackend(hw.pm) if kind == "pm" else DRAMBackend(hw.dram))
        return backends[kind]

    return backend_for(hw.load_source), backend_for(hw.store_target)


def simulate(traces: list[Trace], hw: HardwareConfig,
             contexts: list[ThreadContext] | None = None,
             drain: bool = True,
             fastforward: bool = False) -> SimResult:
    """Run one trace per thread against a shared memory system.

    Parameters
    ----------
    traces:
        One op trace per thread.
    hw:
        Testbed description.
    contexts:
        Pre-built thread contexts (advanced use: the DIALGA coordinator
        re-enters the simulator with live contexts between chunks).
        They must share one ``Counters``, one pair of memory backends
        and one ``HardwareConfig``, equal to ``hw``; otherwise
        ``ValueError``.
    drain:
        Flush core caches at the end, accounting still-resident unused
        prefetches as useless. Pass False for intermediate chunks of a
        longer run (the caches stay warm across re-entries).
    fastforward:
        Skip steady-state stripe periods by exact extrapolation (see
        :mod:`repro.simulator.fastforward`). Only takes effect when a
        single thread is live — multicore contention couples threads
        through the shared backends. Results are byte-identical either
        way; the stats land on ``SimResult.fastforward``.
    """
    if not traces and not contexts:
        raise ValueError("need at least one trace")
    counters = Counters()
    if contexts is None:
        load_b, store_b = make_backends(hw)
        contexts = [
            ThreadContext(hw, counters, load_b, store_b, trace=t)
            for t in traces
        ]
    else:
        counters = contexts[0].counters
        _check_shared(contexts, hw)
    tracer = get_tracer()
    if not tracer.enabled:
        return _run(contexts, counters, drain, fastforward)
    t0 = min(ctx.clock for ctx in contexts)
    before = counters.snapshot()
    with tracer.sequenced(t0):
        span = tracer.begin("sim.run", t0, threads=len(contexts),
                            drain=drain)
        result = _run(contexts, counters, drain, fastforward)
        tracer.end(span, result.makespan_ns,
                   data_bytes=result.data_bytes,
                   **counters.delta(before).nonzero_dict("d_"))
    return result


def _check_shared(contexts: list[ThreadContext], hw: HardwareConfig) -> None:
    """Reject contexts that do not share one machine, ``hw`` (see
    ``interpret``)."""
    ctx0 = contexts[0]
    for ctx in contexts:
        if (ctx.counters is not ctx0.counters
                or ctx.load_backend is not ctx0.load_backend
                or ctx.store_backend is not ctx0.store_backend
                or ctx.hw != hw):
            raise ValueError(
                "contexts must share one Counters, one pair of memory "
                "backends and one HardwareConfig, the one simulated")


def _run(contexts: list[ThreadContext], counters: Counters, drain: bool,
         fastforward: bool = False) -> SimResult:
    """Interpret every live context (tracing handled by the caller)."""
    ff_stats = None
    live = [ctx for ctx in contexts if not ctx.done]
    if len(live) == 1:
        # One live thread: optionally skip steady-state stripe periods
        # by exact extrapolation (multicore contention couples threads
        # through the shared backends, so only here).
        if fastforward:
            from repro.simulator.fastforward import run_fastforward
            ff_stats = run_fastforward(live[0])
        else:
            live[0].run()
    else:
        interpret(contexts)
    if drain:
        for ctx in contexts:
            ctx.cache.drain()
    times = [ctx.clock for ctx in contexts]
    data = sum(ctx.trace.data_bytes for ctx in contexts)
    return SimResult(
        makespan_ns=max(times),
        thread_times_ns=times,
        counters=counters,
        data_bytes=data,
        fastforward=ff_stats,
    )
