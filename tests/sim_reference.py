"""Reference model: the machine one op and one plain function at a time.

The package states the machine model once, inlined into
:func:`repro.simulator.engine.interpret`; its component classes
(``CoreCache``, ``StreamPrefetcher``, ``PMReadBuffer``, the DRAM/PM
backends and their bandwidth pipes) hold only state. This module
states the same model a second time, the plain way: one function per
mechanism over that state (``cache_lookup``/``cache_insert``,
``streamer_access``, ``buffer_access``/``buffer_fill``,
``pipe_acquire``, ``dram_fill``/``pm_fill``, ``write_line``,
``drain_writes``), one step per op on top of them, and a scheduler
that always advances the live thread with the smallest
``(clock, index)`` by one op. It shares no model code with the
interpreter it checks.

The two must produce the same floating-point operations in the same
order, hence the same clocks and counters bit for bit;
``tests/test_interpreter_oracle.py`` checks that against this module.
The component, backend and property tests test these functions
directly.
"""

from __future__ import annotations

import heapq

from repro.simulator.cache import DEMAND, HWPF, SWPF as SWPF_SRC, CoreCache, _Line
from repro.simulator.counters import Counters
from repro.simulator.engine import ThreadContext
from repro.simulator.memory import DRAMBackend, PMBackend, _Pipe
from repro.simulator.multicore import SimResult, make_backends
from repro.simulator.readbuffer import PMReadBuffer
from repro.simulator.streamprefetcher import StreamPrefetcher, _Stream
from repro.trace.ops import COMPUTE, FENCE, LOAD, STORE, SWPF

LINE_BYTES = 64


# -- private-core cache ----------------------------------------------------

def cache_lookup(cache: CoreCache, line: int) -> _Line | None:
    """Return the resident entry (refreshing LRU) or None."""
    ent = cache._lines.get(line)
    if ent is not None:
        cache._lines.move_to_end(line)
    return ent


def cache_insert(cache: CoreCache, line: int, arrival_ns: float,
                 source: int, used: bool = False,
                 promo_ns: float = 0.0) -> None:
    """Install a line, evicting LRU if full.

    Evicting a prefetched line that was never used counts it useless.
    """
    lines = cache._lines
    if line in lines:
        ent = lines[line]
        # Keep the earlier arrival; refresh LRU position.
        ent.arrival_ns = min(ent.arrival_ns, arrival_ns)
        ent.promo_ns = min(ent.promo_ns, promo_ns) if ent.promo_ns else promo_ns
        lines.move_to_end(line)
        return
    if len(lines) >= cache.capacity:
        _, evicted = lines.popitem(last=False)
        if not evicted.used:
            if evicted.source == HWPF:
                cache.counters.hwpf_useless += 1
            elif evicted.source == SWPF_SRC:
                cache.counters.swpf_useless += 1
    lines[line] = _Line(arrival_ns, source, used, promo_ns)


# -- L2 streamer -----------------------------------------------------------

def streamer_access(pf: StreamPrefetcher, counters: Counters,
                    addr: int) -> list[int]:
    """Observe a demand (or software-prefetch) access at byte ``addr``.

    Returns the line-aligned byte addresses the streamer decides to
    fetch — empty while untrained, disabled or out of page room.
    """
    cfg = pf.config
    if not cfg.enabled:
        return []
    page = addr // cfg.page_bytes
    line = (addr % cfg.page_bytes) // LINE_BYTES
    lines_per_page = cfg.page_bytes // LINE_BYTES
    table = pf._table
    stream = table.get(page)
    if stream is None:
        if len(table) >= cfg.max_streams:
            _, evicted = table.popitem(last=False)
            if evicted.confidence < cfg.train_threshold:
                counters.streams_evicted_untrained += 1
        table[page] = _Stream(last_line=line, confidence=0, max_prefetched=line)
        counters.streams_allocated += 1
        return []
    table.move_to_end(page)
    if line == stream.last_line + 1 or line == stream.last_line + 2:
        # Sequential advance of the stream head.
        stream.confidence += 1
        stream.last_line = line
    elif line <= stream.last_line:
        # At or behind the head: a re-touch (e.g. the demand load
        # trailing a software prefetch). Streamers track the monotone
        # head and ignore these — which is exactly why software
        # prefetching *trains* real streamers (§5.9).
        pass
    else:
        # Forward jump beyond the sequential window (the shuffle
        # mapping's signature): lose confidence.
        stream.confidence = max(0, stream.confidence - 2)
        stream.last_line = line
        return []
    if stream.confidence < cfg.train_threshold:
        return []
    distance = min(
        (stream.confidence - cfg.train_threshold) // cfg.ramp_div + 1,
        cfg.max_distance,
    )
    target = min(line + distance, lines_per_page - 1)
    start = max(stream.max_prefetched + 1, line + 1)
    if start > target:
        return []
    stream.max_prefetched = target
    out = [page * cfg.page_bytes + l * LINE_BYTES
           for l in range(start, target + 1)]
    counters.hwpf_issued += len(out)
    return out


# -- PM read buffer ----------------------------------------------------------

def buffer_access(rb: PMReadBuffer, counters: Counters, addr: int) -> bool:
    """Record a 64 B access; return True on a buffer hit.

    On a miss the caller charges the media fill (bandwidth + latency)
    and then calls :func:`buffer_fill`.
    """
    xp = addr // rb.xpline_bytes
    entries = rb._entries
    if xp in entries:
        entries[xp] += 1
        entries.move_to_end(xp)
        counters.buffer_hits += 1
        return True
    counters.buffer_misses += 1
    return False


def buffer_fill(rb: PMReadBuffer, counters: Counters, addr: int) -> None:
    """Insert the XPLine containing ``addr`` (after a media fetch)."""
    xp = addr // rb.xpline_bytes
    entries = rb._entries
    if xp in entries:
        entries.move_to_end(xp)
        return
    if len(entries) >= rb.capacity:
        _, used = entries.popitem(last=False)
        counters.buffer_evictions += 1
        if used <= 1:
            # Only the triggering access used it: the implicit load of
            # the other lines was wasted media bandwidth.
            counters.buffer_evictions_unused += 1
    entries[xp] = 1


def buffer_read(rb: PMReadBuffer, counters: Counters, addr: int) -> bool:
    """One 64 B read through the buffer, filling on a miss (no timing).

    Returns True on a hit. Tests use it to seed buffer state.
    """
    if buffer_access(rb, counters, addr):
        return True
    buffer_fill(rb, counters, addr)
    return False


# -- memory backends -----------------------------------------------------------

def pipe_acquire(pipe: _Pipe, now: float, nbytes: int) -> float:
    """Occupy a busy-until pipe for ``nbytes``; return the queue delay."""
    start = pipe.free_at if pipe.free_at > now else now
    pipe.free_at = start + nbytes * pipe.ns_per_byte
    return start - now


def dram_fill(backend: DRAMBackend, counters: Counters, addr: int,
              now: float, demand: bool) -> tuple[float, float, float]:
    """Serve a 64 B DRAM read.

    Returns ``(queue_delay, latency, demand_latency)`` where
    ``demand_latency`` is what the same fill would cost at demand
    priority — the bound a promoted late prefetch converges to.
    """
    counters.ctrl_read_bytes += LINE_BYTES
    qd = pipe_acquire(backend.read_pipe, now, LINE_BYTES)
    return qd, backend.config.latency_ns, backend.config.latency_ns


def pm_fill(backend: PMBackend, counters: Counters, addr: int, now: float,
            demand: bool) -> tuple[float, float, float]:
    """Serve a 64 B PM read; returns (queue_delay, latency, demand_latency).

    Buffer hit: DDR-T transfer only. Miss: a whole-XPLine media fill is
    charged (read amplification) and the XPLine becomes resident.
    Prefetch fills complete at deprioritized latency; their
    ``demand_latency`` records what a promoted demand would pay.
    """
    c = backend.config
    counters.ctrl_read_bytes += LINE_BYTES
    qd = pipe_acquire(backend.ctrl_pipe, now, LINE_BYTES)
    if buffer_access(backend.read_buffer, counters, addr):
        return qd, c.buffer_hit_latency_ns, c.buffer_hit_latency_ns
    media_qd = pipe_acquire(backend.media_pipe, now + qd, c.xpline_bytes)
    counters.media_read_bytes += c.xpline_bytes
    buffer_fill(backend.read_buffer, counters, addr)
    latency = c.media_latency_ns
    if not demand:
        latency *= c.prefetch_latency_factor
    return qd + media_qd, latency, c.media_latency_ns


def fill_line(backend, counters: Counters, addr: int, now: float,
              demand: bool) -> tuple[float, float, float]:
    """Serve a 64 B read from either backend."""
    fill = pm_fill if isinstance(backend, PMBackend) else dram_fill
    return fill(backend, counters, addr, now, demand)


def write_line(backend, counters: Counters, addr: int, now: float) -> float:
    """Accept a 64 B non-temporal store; returns its queue delay."""
    counters.write_bytes += LINE_BYTES
    return pipe_acquire(backend.write_pipe, now, LINE_BYTES)


def drain_writes(backend, now: float) -> float:
    """Time at which all posted writes are durable (for FENCE)."""
    return max(now, backend.write_pipe.free_at)


# -- per-op steps and the scheduler ------------------------------------------

def _issue_hw_prefetches(ctx: ThreadContext, addr: int) -> None:
    backend = ctx.load_backend
    for target in streamer_access(ctx.prefetcher, ctx.counters, addr):
        qd, lat, dlat = fill_line(backend, ctx.counters, target, ctx.clock,
                                  demand=False)
        cache_insert(ctx.cache, target, ctx.clock + qd + lat, HWPF,
                     promo_ns=dlat / backend.config.mlp)


def _do_load(ctx: ThreadContext, addr: int) -> None:
    cpu = ctx.hw.cpu
    c = ctx.counters
    c.loads += 1
    c.app_read_bytes += 64
    now = ctx.clock + cpu.load_issue_cycles * cpu.ns_per_cycle
    hit_ns = ctx.hw.cache.hit_latency_ns
    line = addr & ~63
    ent = cache_lookup(ctx.cache, line)
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
        backend = ctx.load_backend
        qd, lat, _ = fill_line(backend, c, line, now, demand=True)
        stall = qd + lat / backend.config.mlp
        c.load_misses += 1
        c.load_stall_ns += stall
        now += stall + hit_ns
        cache_insert(ctx.cache, line, now, DEMAND, used=True)
    ctx.clock = now
    # The demand access trains the streamer *after* being served.
    _issue_hw_prefetches(ctx, line)


def _do_store(ctx: ThreadContext, addr: int) -> None:
    cpu = ctx.hw.cpu
    ctx.counters.stores += 1
    now = ctx.clock + cpu.store_issue_cycles * cpu.ns_per_cycle
    write_line(ctx.store_backend, ctx.counters, addr & ~63, now)
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
    if cache_lookup(ctx.cache, line) is None:
        backend = ctx.load_backend
        qd, lat, dlat = fill_line(backend, c, line, now, demand=False)
        cache_insert(ctx.cache, line, now + qd + lat, SWPF_SRC,
                     promo_ns=dlat / backend.config.mlp)
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
            ctx.clock = drain_writes(ctx.store_backend, ctx.clock)
        else:
            raise ValueError(f"unknown opcode {op}")
    ctx.pc += n
    return n


def reference_simulate(traces, hw, contexts: list[ThreadContext] | None = None,
                       drain: bool = True) -> SimResult:
    """``multicore.simulate`` built on :func:`step`, one op per turn."""
    if contexts is None:
        counters = Counters()
        load_b, store_b = make_backends(hw)
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
