"""Structural validation of kernel traces.

Trace generators encode the libraries' memory schedules; these checks
catch generator bugs that the simulator would silently absorb (e.g. a
missed row would just look "faster"). Tests run them over every
generator; callers can use them as assertions when building custom
traces.
"""

from __future__ import annotations

from collections import Counter as _Counter
from dataclasses import dataclass, field

from repro.trace.layout import LINE, StripeLayout
from repro.trace.ops import COMPUTE, FENCE, LOAD, STORE, SWPF, Trace
from repro.trace.workload import Workload


class TraceValidationError(AssertionError):
    """A trace violates a structural invariant."""


@dataclass
class TraceStats:
    """Summary produced by :func:`validate_isal_trace`."""

    loads: int = 0
    stores: int = 0
    swpfs: int = 0
    computes: int = 0
    fences: int = 0
    compute_cycles: float = 0.0
    data_lines_covered: int = 0
    duplicate_data_loads: int = 0
    load_histogram: _Counter = field(default_factory=_Counter)


def _block_of(layout: StripeLayout, stripes: range, addr: int):
    """Map an address to (stripe, block, line) or None if outside."""
    span = layout.pages_per_block * 4096
    off = addr - layout.thread_base
    if off < 0:
        return None
    index, within = divmod(off, span)
    stripe, block = divmod(index, layout.blocks_per_stripe)
    if stripe not in stripes or within >= layout.block_bytes + LINE:
        return None
    return stripe, block, within // LINE


def validate_isal_trace(trace: Trace, wl: Workload, thread: int = 0,
                        stripe_offset: int = 0,
                        expect_full_coverage: bool = True,
                        reloads_allowed: bool = False) -> TraceStats:
    """Check an ISA-L-pattern trace against its workload.

    Invariants enforced:

    * every op address is 64 B aligned and belongs to this thread's
      stripes;
    * loads target the kernel's *source* blocks (the k data blocks for
      encode; the k surviving blocks — remaining data plus leading
      parity — for decode) or, with ``reloads_allowed`` (decompose),
      also the destination blocks;
    * stores target the *destination* blocks (parity and LRC local
      parity for encode; the rebuilt data blocks for decode);
    * with ``expect_full_coverage``, every line of every source block
      is loaded at least once — nothing is skipped;
    * single-pass kernels load each source line exactly once
      (``duplicate_data_loads`` counts extras for decompose);
    * each stripe ends with a fence.
    """
    from repro.trace.isal_gen import _dest_blocks, _source_blocks

    layout = StripeLayout(wl.k, wl.m, wl.block_bytes, thread=thread,
                          extra_blocks=wl.lrc_l or 0)
    stripes = range(stripe_offset, stripe_offset + wl.stripes_per_thread)
    sources = set(_source_blocks(wl))
    dests = set(_dest_blocks(wl))
    stats = TraceStats()
    for op, arg in zip(trace.opcodes, trace.args):
        if op == COMPUTE:
            stats.computes += 1
            stats.compute_cycles += arg
            continue
        if op == FENCE:
            stats.fences += 1
            continue
        addr = int(arg)
        if addr % LINE:
            raise TraceValidationError(f"unaligned address {addr:#x}")
        where = _block_of(layout, stripes, addr)
        if where is None:
            raise TraceValidationError(
                f"address {addr:#x} outside this thread's stripes")
        stripe, block, line = where
        if op == LOAD:
            stats.loads += 1
            if block in sources:
                stats.load_histogram[(stripe, block, line)] += 1
            elif not (reloads_allowed and block in dests):
                raise TraceValidationError(
                    f"load from non-source block {block} "
                    f"(sources={sorted(sources)})")
        elif op == STORE:
            stats.stores += 1
            if block not in dests:
                raise TraceValidationError(
                    f"store into non-destination block {block} "
                    f"(dests={sorted(dests)})")
        elif op == SWPF:
            stats.swpfs += 1
            if block not in sources:
                raise TraceValidationError(
                    f"software prefetch of non-source block {block}")
        else:  # pragma: no cover - defensive
            raise TraceValidationError(f"unknown opcode {op}")
    lines_per_block = layout.lines_per_block
    expected = wl.stripes_per_thread * len(sources) * lines_per_block
    stats.data_lines_covered = len(stats.load_histogram)
    stats.duplicate_data_loads = stats.loads - stats.data_lines_covered \
        if not reloads_allowed else 0
    if expect_full_coverage and stats.data_lines_covered != expected:
        raise TraceValidationError(
            f"coverage hole: {stats.data_lines_covered} of {expected} "
            f"source lines loaded")
    if not reloads_allowed:
        dupes = {key: v for key, v in stats.load_histogram.items() if v > 1}
        if dupes:
            raise TraceValidationError(
                f"{len(dupes)} source lines loaded more than once (e.g. "
                f"{next(iter(dupes))})")
    if stats.fences != wl.stripes_per_thread:
        raise TraceValidationError(
            f"{stats.fences} fences for {wl.stripes_per_thread} stripes")
    return stats
