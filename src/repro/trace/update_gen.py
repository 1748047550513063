"""Parity-update ("small write") trace generation.

PM stores mostly *update* in place rather than re-encode whole stripes
(the paper's §2.2 notes coding overhead "upon writes or updates";
CodePM, its predecessor, targets exactly this path). The delta-update
kernel for one modified data block is, per 64 B row:

    load old data line            (PM read)
    [new data assumed in cache]
    compute delta = old ^ new
    for each parity i: load parity line, acc ^= g[i,j]*delta, store
    store new data line (non-temporal)

Loads touch 1 + m streams — a *narrow* access pattern where the
hardware prefetcher struggles with small blocks, so DIALGA's pipelined
software prefetch applies exactly as in encoding. This generator is the
performance model behind :meth:`repro.codes.rs.RSCode.update_parity`.
"""

from __future__ import annotations

from repro.simulator.params import CPUConfig
from repro.trace.layout import StripeLayout
from repro.trace.ops import COMPUTE, FENCE, LOAD, STORE, SWPF, Trace
from repro.trace.workload import Workload


def update_trace(wl: Workload, cpu: CPUConfig,
                 sw_prefetch_distance: int | None = None,
                 shuffle: bool = False,
                 thread: int = 0, stripe_offset: int = 0) -> Trace:
    """One thread's trace for single-block parity updates.

    Each "stripe" of the workload contributes one block update (the
    updated block cycles through positions). ``data_bytes`` counts the
    updated bytes, so throughput reads as update bandwidth.
    """
    from repro.trace.isal_gen import _row_order

    if sw_prefetch_distance is not None and sw_prefetch_distance < 1:
        raise ValueError("sw_prefetch_distance must be None or >= 1, "
                         f"got {sw_prefetch_distance}")
    layout = StripeLayout(wl.k, wl.m, wl.block_bytes, thread=thread)
    L = layout.lines_per_block
    m = wl.m
    per_line = (m * cpu.gf_cycles_per_parity_line
                + cpu.xor_cycles_per_line      # the delta XOR
                + cpu.loop_overhead_cycles)
    order = _row_order(L, shuffle)
    trace = Trace()
    add = trace.add
    stripes = wl.stripes_per_thread
    streams = 1 + m  # old data + m parities

    def elem_addr(s: int, n: int, target_block: int) -> int:
        rp, j = divmod(n, streams)
        block = target_block if j == 0 else wl.k + (j - 1)
        return layout.line_addr(s, block, order[rp])

    total = L * streams
    for s in range(stripe_offset, stripe_offset + stripes):
        target_block = s % wl.k
        for rp, r in enumerate(order):
            for j in range(streams):
                n = rp * streams + j
                if sw_prefetch_distance is not None:
                    t = n + sw_prefetch_distance
                    if t < total:
                        add(SWPF, elem_addr(s, t, target_block))
                block = target_block if j == 0 else wl.k + (j - 1)
                add(LOAD, layout.line_addr(s, block, r))
            add(COMPUTE, per_line)
            add(STORE, layout.line_addr(s, target_block, r))
            for i in range(m):
                add(STORE, layout.line_addr(s, wl.k + i, r))
        add(FENCE, 0)
    trace.data_bytes = stripes * wl.block_bytes
    return trace
