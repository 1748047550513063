"""ISA-L-pattern trace generation, including DIALGA's operator variants.

The baseline schedule mirrors ``ec_encode_data``'s kernel: for every
64 B row position it loads that line from each of the k source blocks,
multiply-accumulates into m parity registers, and writes the m parity
lines with non-temporal stores; a fence ends the stripe. Variants:

* ``sw_prefetch_distance=d`` — pipelined software prefetch: while
  handling sequence element N, prefetch element N+d (§4.1.2/§4.2.2).
  Tail elements revert to the plain kernel (no out-of-range prefetch).
* ``bf_first_line_distance`` — read-buffer-friendly non-uniform
  distances: targets that are the *first line of an XPLine* are
  prefetched from further back (§4.3.2).
* ``shuffle=True`` — static shuffle mapping of the row order; breaks
  the L2 streamer's sequential-pattern detection, i.e. a fine-grained
  hardware-prefetcher *off* switch (§4.2.2). Software prefetch targets
  follow the shuffled order, as in the paper.
* ``xpline_granularity=True`` — expand the loop task to 256 B: consume
  all four lines of an XPLine back-to-back so the implicit media load
  is used before eviction (§4.3.3); software prefetch then touches only
  the first line per XPLine and lets the read buffer serve the rest.
* ``decompose_group=g`` — ISA-L-D / Cerasure wide-stripe decomposition:
  multiple narrow passes with parity reload between passes.

Every variant is one stripe kernel repeated with all addresses shifted
by the constant stripe stride. :func:`isal_trace` therefore emits only
the first stripe op by op (through :meth:`Trace.add`, which coalesces
COMPUTE runs) and builds the rest with numpy: the opcodes repeat
verbatim and stripe ``i`` adds ``i * stripe_stride`` to the
LOAD/STORE/SWPF addresses. The result is byte-identical to emitting
every stripe op by op, because each stripe ends in a FENCE (nothing
coalesces across a stripe boundary) and the XPLine-leading-line test
of the prefetch distances depends only on an address modulo 256 B,
which a page-multiple stride preserves.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace

import numpy as np

from repro.simulator.params import CPUConfig
from repro.trace.layout import StripeLayout, LINE
from repro.trace.ops import LOAD, STORE, SWPF, COMPUTE, FENCE, Trace
from repro.trace.workload import Workload

#: Lines per XPLine (256 B / 64 B).
XP_LINES = 4


@dataclass(frozen=True)
class IsalVariant:
    """Kernel-variant selection (DIALGA entry points, §4.1.2)."""

    sw_prefetch_distance: int | None = None
    bf_first_line_distance: int | None = None
    shuffle: bool = False
    xpline_granularity: bool = False
    decompose_group: int | None = None

    def __post_init__(self):
        for name in ("sw_prefetch_distance", "bf_first_line_distance",
                     "decompose_group"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be None or >= 1, got {value}")

    def with_(self, **kwargs) -> "IsalVariant":
        """Copy with fields replaced."""
        return replace(self, **kwargs)


def _row_order(lines: int, shuffle: bool) -> list[int]:
    """Row processing order; the shuffle is a *static* mapping.

    The shuffled order must defeat a head-tracking streamer in both
    directions: it opens at the block's *top* line (pinning the
    ascending head, so every later access is a neutral behind-head
    touch) and then descends by a stride >= 3 (so neither consecutive
    accesses nor the descending envelope ever step within the +-2
    sequential window). Constructively:

        sigma(i) = (lines - 1) - (i * stride mod lines),
        gcd(stride, lines) = 1,  3 <= stride <= lines - 3
    """
    if not shuffle or lines <= 2:
        return list(range(lines))
    if lines <= 6:
        return list(range(lines - 1, -1, -1))
    stride = 5
    while np.gcd(stride, lines) != 1 or lines - stride < 3:
        stride += 2
    return [(lines - 1) - ((i * stride) % lines) for i in range(lines)]


def _per_line_compute_cycles(wl: Workload, cpu: CPUConfig) -> float:
    """Kernel cycles to process one 64 B line of one source block."""
    m_eff = wl.erasures if wl.op == "decode" else wl.m
    cycles = m_eff * cpu.gf_cycles_per_parity_line + cpu.loop_overhead_cycles
    if wl.lrc_l is not None:
        # Local XOR parity: one extra XOR fold per data line.
        cycles += cpu.xor_cycles_per_line
    return cycles


def isal_trace(wl: Workload, cpu: CPUConfig,
               variant: IsalVariant = IsalVariant(),
               thread: int = 0, stripe_offset: int = 0) -> Trace:
    """Generate one thread's trace for the ISA-L pattern (+variants).

    ``stripe_offset`` shifts the stripe index range (the adaptive
    coordinator generates chunks incrementally; each chunk must touch
    fresh addresses).
    """
    if variant.decompose_group is not None:
        emit = _emit_decomposed_stripe
    elif variant.xpline_granularity:
        emit = _emit_xpline_stripe
    else:
        emit = _emit_rowmajor_stripe
    layout = StripeLayout(wl.k, wl.m, wl.block_bytes, thread=thread,
                          extra_blocks=wl.lrc_l or 0)
    first = Trace()
    emit(wl, layout, _per_line_compute_cycles(wl, cpu), variant, first.add,
         stripe_offset)
    trace = _tile_stripes(first, wl.stripes_per_thread, layout.stripe_stride)
    trace.data_bytes = wl.stripes_per_thread * wl.stripe_data_bytes
    return trace


def _tile_stripes(first: Trace, stripes: int, stripe_stride: int) -> Trace:
    """Repeat a one-stripe trace ``stripes`` times, stripe ``i`` with its
    LOAD/STORE/SWPF addresses shifted by ``i * stripe_stride``.

    The args array is allocated once and filled in place through a
    ``(stripes, P)`` view, so no stripes x P temporary exists. Every
    value is an integer below 2**53 or (for COMPUTE/FENCE) the stripe's
    own arg plus an exact 0.0, so the result is byte-identical to
    emitting every stripe op by op.
    """
    if stripes == 1:  # most service and coordinator-probe traces
        return first
    period = len(first)
    trace = Trace()
    trace.opcodes = first.opcodes * stripes
    trace.args = array("d", [0.0]) * (stripes * period)
    opcodes = np.frombuffer(first.opcodes, dtype=np.uint8)
    is_addr = np.isin(opcodes, (LOAD, STORE, SWPF)).astype(np.float64)
    shifts = np.arange(stripes, dtype=np.float64) * stripe_stride
    view = np.frombuffer(trace.args, dtype=np.float64).reshape(stripes, period)
    np.multiply.outer(shifts, is_addr, out=view)
    view += np.frombuffer(first.args, dtype=np.float64)
    # Release the buffer export so the array can grow again (the
    # coordinator extends traces in place).
    del view
    return trace


def _source_blocks(wl: Workload) -> list[int]:
    """Stripe-global block ids the kernel loads, in stream order.

    Encode reads the k data blocks. Decode reads k *correct* blocks —
    the paper's §4.1.2: with the first ``erasures`` data blocks lost
    (the canonical pattern), that is the surviving data plus the first
    ``erasures`` parity blocks. The memory pattern is identical either
    way: k sequential streams.
    """
    if wl.op == "decode":
        return list(range(wl.erasures, wl.k)) + \
            [wl.k + i for i in range(wl.erasures)]
    return list(range(wl.k))


def _dest_blocks(wl: Workload) -> list[int]:
    """Stripe-global block ids the kernel stores (non-temporally)."""
    if wl.op == "decode":
        return list(range(wl.erasures))       # the rebuilt data blocks
    out = [wl.k + i for i in range(wl.m)]
    out += [wl.k + wl.m + i for i in range(wl.lrc_l or 0)]
    return out


def _emit_rowmajor_stripe(wl, layout, per_line, variant, add, s):
    k = wl.k
    order = _row_order(layout.lines_per_block, variant.shuffle)
    total = len(order) * k
    d = variant.sw_prefetch_distance
    d_first = variant.bf_first_line_distance
    # Block base addresses come from the layout once per block; line r
    # of a block is at base + r * LINE (StripeLayout.line_addr).
    src_base = [layout.block_addr(s, b) for b in _source_blocks(wl)]
    dst_base = [layout.block_addr(s, b) for b in _dest_blocks(wl)]
    compute_cycles = per_line * k

    def elem_addr(n):
        rp, j = divmod(n, k)
        return src_base[j] + order[rp] * LINE

    for rp, r in enumerate(order):
        roff = r * LINE
        for j in range(k):
            if d is not None:
                n = rp * k + j
                t = n + d
                if t < total:
                    addr = elem_addr(t)
                    is_first = (addr // LINE) % XP_LINES == 0
                    if d_first is None or not is_first:
                        add(SWPF, addr)
                if d_first is not None:
                    t2 = n + d_first
                    if t2 < total:
                        addr2 = elem_addr(t2)
                        if (addr2 // LINE) % XP_LINES == 0:
                            add(SWPF, addr2)
            add(LOAD, src_base[j] + roff)
        add(COMPUTE, compute_cycles)
        for base in dst_base:
            add(STORE, base + roff)
    add(FENCE, 0)


def _emit_xpline_stripe(wl, layout, per_line, variant, add, s):
    """256 B-granularity loop expansion (§4.3.3).

    The element sequence becomes (XPLine-group, block); all lines of a
    group are consumed back-to-back so the implicit media load is used
    before eviction. Software prefetch touches only the first line per
    future group — the read buffer serves the remaining lines.
    """
    k = wl.k
    L = layout.lines_per_block
    groups = [list(range(g, min(g + XP_LINES, L))) for g in range(0, L, XP_LINES)]
    ngroups = len(groups)
    # Reuse the (possibly shuffled) order at group granularity.
    gorder = _row_order(ngroups, variant.shuffle)
    d = variant.sw_prefetch_distance
    # d is expressed in row-major sequence elements (lines); one group
    # step spans XP_LINES rows, so convert to whole groups.
    dg = max(1, round(d / (XP_LINES * k))) if d is not None else None
    # Block bases from the layout, as in _emit_rowmajor_stripe.
    src_base = [layout.block_addr(s, b) for b in _source_blocks(wl)]
    dst_base = [layout.block_addr(s, b) for b in _dest_blocks(wl)]

    for gp in range(ngroups):
        offs = [r * LINE for r in groups[gorder[gp]]]
        cycles = per_line * len(offs)
        ahead = None
        if dg is not None and gp + dg < ngroups:
            # Prefetch the first line of the group dg steps ahead.
            ahead = groups[gorder[gp + dg]][0] * LINE
        for base in src_base:
            if ahead is not None:
                add(SWPF, base + ahead)
            for off in offs:
                add(LOAD, base + off)
            add(COMPUTE, cycles)
        for off in offs:
            for base in dst_base:
                add(STORE, base + off)
    add(FENCE, 0)


def _emit_decomposed_stripe(wl, layout, per_line, variant, add, s):
    """Wide-stripe decomposition: narrow passes with parity reload.

    Pass p loads its group's data lines plus (for p > 0) the partial
    parity written by pass p-1 — the "parity reloading" and amplified
    write traffic the paper attributes to the decompose strategy.
    """
    g = variant.decompose_group
    sources = _source_blocks(wl)
    dests = _dest_blocks(wl)
    groups = [sources[c:c + g] for c in range(0, wl.k, g)]
    order = _row_order(layout.lines_per_block, variant.shuffle)
    for p, cols in enumerate(groups):
        for r in order:
            for j in cols:
                add(LOAD, layout.line_addr(s, j, r))
            if p:
                # Reload the partial result written by the last pass.
                for dest in dests[:wl.erasures if wl.op == "decode" else wl.m]:
                    add(LOAD, layout.line_addr(s, dest, r))
            add(COMPUTE, per_line * len(cols))
            for dest in dests:
                if p == len(groups) - 1 or dest < wl.k + wl.m:
                    add(STORE, layout.line_addr(s, dest, r))
    add(FENCE, 0)
