"""Reference stepper: the machine model one op and one call at a time.

This is the simulator's per-op semantics written the plain way — each
op a method-style helper that talks to the component models through
their public calls (``CoreCache.lookup``/``insert``,
``StreamPrefetcher.on_access``, ``fill_line``/``write_line``/
``drain_writes`` on the backends) — and a scheduler that always
advances the live thread with the smallest ``(clock, index)`` by one op.

:func:`repro.simulator.engine.interpret` inlines all of it into a single
loop for speed. It must produce the same floating-point operations in
the same order, hence the same clocks and counters bit for bit;
``tests/test_interpreter_oracle.py`` checks that against this module.
"""

from __future__ import annotations

import heapq

from repro.simulator.cache import DEMAND, HWPF, SWPF as SWPF_SRC
from repro.simulator.counters import Counters
from repro.simulator.engine import ThreadContext
from repro.simulator.multicore import SimResult, make_backends
from repro.trace.ops import COMPUTE, FENCE, LOAD, STORE, SWPF


def _issue_hw_prefetches(ctx: ThreadContext, addr: int) -> None:
    for target in ctx.prefetcher.on_access(addr):
        qd, lat, dlat = ctx.load_backend.fill_line(
            target, ctx.clock, demand=False)
        ctx.cache.insert(target, ctx.clock + qd + lat, HWPF,
                         promo_ns=dlat / ctx.load_backend.mlp)


def _do_load(ctx: ThreadContext, addr: int) -> None:
    cpu = ctx.hw.cpu
    c = ctx.counters
    c.loads += 1
    c.app_read_bytes += 64
    now = ctx.clock + cpu.load_issue_cycles * cpu.ns_per_cycle
    hit_ns = ctx.hw.cache.hit_latency_ns
    line = addr & ~63
    ent = ctx.cache.lookup(line)
    if ent is not None:
        ent.used = True
        if ent.arrival_ns <= now:
            c.load_cache_hits += 1
            if ent.source == HWPF:
                c.hwpf_useful += 1
            now += hit_ns
        else:
            # In-flight prefetch: the demand promotes the request to
            # demand priority, so the wait is the smaller of the
            # prefetch's remaining time and what the same fill would
            # have cost at demand priority.
            wait = min(ent.arrival_ns - now, ent.promo_ns)
            c.load_late_prefetch += 1
            c.load_stall_ns += wait
            if ent.source == SWPF_SRC:
                c.swpf_late += 1
            elif ent.source == HWPF:
                # Late hardware prefetch: mostly wasted (0xf2-ish).
                c.hwpf_useless += 1
            now += wait + hit_ns
    else:
        qd, lat, _ = ctx.load_backend.fill_line(line, now, demand=True)
        stall = qd + lat / ctx.load_backend.mlp
        c.load_misses += 1
        c.load_stall_ns += stall
        now += stall + hit_ns
        ctx.cache.insert(line, now, DEMAND, used=True)
    ctx.clock = now
    # The demand access trains the streamer *after* being served.
    _issue_hw_prefetches(ctx, line)


def _do_store(ctx: ThreadContext, addr: int) -> None:
    cpu = ctx.hw.cpu
    ctx.counters.stores += 1
    now = ctx.clock + cpu.store_issue_cycles * cpu.ns_per_cycle
    ctx.store_backend.write_line(addr & ~63, now)
    # Non-temporal stores are posted; only severe backpressure
    # (write-pipe backlog beyond the configured WPQ allowance)
    # stalls the core.
    wpq_ns = cpu.wpq_backpressure_ns
    backlog = ctx.store_backend.write_pipe.free_at - now
    if backlog > wpq_ns:
        stall = backlog - wpq_ns
        ctx.counters.store_stall_ns += stall
        now += stall
    ctx.clock = now


def _do_swpf(ctx: ThreadContext, addr: int) -> None:
    cpu = ctx.hw.cpu
    c = ctx.counters
    c.swpf_issued += 1
    now = ctx.clock + cpu.swpf_issue_cycles * cpu.ns_per_cycle
    line = addr & ~63
    if ctx.cache.lookup(line) is None:
        qd, lat, dlat = ctx.load_backend.fill_line(line, now, demand=False)
        ctx.cache.insert(line, now + qd + lat, SWPF_SRC,
                         promo_ns=dlat / ctx.load_backend.mlp)
    ctx.clock = now
    # Software prefetches also train the hardware prefetcher (their
    # "training effect", §5.9).
    _issue_hw_prefetches(ctx, line)


def step(ctx: ThreadContext, max_ops: int) -> int:
    """Execute up to ``max_ops`` ops of ``ctx``; returns how many ran."""
    opcodes = ctx.trace.opcodes
    args = ctx.trace.args
    n = min(max_ops, len(opcodes) - ctx.pc)
    cpu = ctx.hw.cpu
    for i in range(ctx.pc, ctx.pc + n):
        op = opcodes[i]
        if op == LOAD:
            _do_load(ctx, int(args[i]))
        elif op == COMPUTE:
            ns = args[i] * cpu.ns_per_cycle * cpu.simd_factor
            ctx.counters.compute_ns += ns
            ctx.clock += ns
        elif op == STORE:
            _do_store(ctx, int(args[i]))
        elif op == SWPF:
            _do_swpf(ctx, int(args[i]))
        elif op == FENCE:
            ctx.clock = ctx.store_backend.drain_writes(ctx.clock)
        else:
            raise ValueError(f"unknown opcode {op}")
    ctx.pc += n
    return n


def reference_simulate(traces, hw, contexts: list[ThreadContext] | None = None,
                       drain: bool = True) -> SimResult:
    """``multicore.simulate`` built on :func:`step`, one op per turn."""
    if contexts is None:
        counters = Counters()
        load_b, store_b = make_backends(hw, counters)
        contexts = [ThreadContext(hw, counters, load_b, store_b, trace=t)
                    for t in traces]
    counters = contexts[0].counters
    heap = [(ctx.clock, i) for i, ctx in enumerate(contexts) if not ctx.done]
    heapq.heapify(heap)
    while heap:
        _, idx = heapq.heappop(heap)
        ctx = contexts[idx]
        step(ctx, 1)
        if not ctx.done:
            heapq.heappush(heap, (ctx.clock, idx))
    if drain:
        for ctx in contexts:
            ctx.cache.drain()
    times = [ctx.clock for ctx in contexts]
    return SimResult(makespan_ns=max(times), thread_times_ns=times,
                     counters=counters,
                     data_bytes=sum(ctx.trace.data_bytes for ctx in contexts))
