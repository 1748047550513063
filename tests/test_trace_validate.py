"""Tests for the trace validator — and, through it, every generator."""

import pytest

from repro.simulator.params import CPUConfig
from repro.trace import IsalVariant, Trace, Workload, isal_trace
from repro.trace.layout import StripeLayout
from repro.trace.ops import LOAD, STORE, SWPF, FENCE
from repro.trace.validate import TraceValidationError, validate_isal_trace

CPU = CPUConfig()


def _wl(**kw):
    base = dict(k=6, m=3, block_bytes=1024, data_bytes_per_thread=24 * 1024)
    base.update(kw)
    return Workload(**base)


@pytest.mark.parametrize("variant", [
    IsalVariant(),
    IsalVariant(sw_prefetch_distance=6),
    IsalVariant(sw_prefetch_distance=6, bf_first_line_distance=12),
    IsalVariant(shuffle=True),
    IsalVariant(xpline_granularity=True),
    IsalVariant(shuffle=True, xpline_granularity=True,
                sw_prefetch_distance=12),
], ids=["plain", "swpf", "bf", "shuffle", "xpline", "highpressure"])
def test_all_variants_produce_valid_traces(variant):
    wl = _wl()
    trace = isal_trace(wl, CPU, variant)
    stats = validate_isal_trace(trace, wl)
    assert stats.duplicate_data_loads == 0
    assert stats.fences == wl.stripes_per_thread


def test_decompose_validates_with_reloads():
    wl = _wl(k=8, data_bytes_per_thread=32 * 1024)
    trace = isal_trace(wl, CPU, IsalVariant(decompose_group=4))
    stats = validate_isal_trace(trace, wl, reloads_allowed=True)
    assert stats.loads > stats.data_lines_covered  # parity reloads happen


def test_lrc_trace_validates():
    wl = _wl(lrc_l=3)
    stats = validate_isal_trace(isal_trace(wl, CPU), wl)
    # stores include local parities
    assert stats.stores == wl.stripes_per_thread * 16 * (wl.m + 3)


def test_decode_trace_validates():
    wl = _wl(op="decode", erasures=2)
    stats = validate_isal_trace(isal_trace(wl, CPU), wl)
    assert stats.stores == wl.stripes_per_thread * 16 * 2


def test_stripe_offset_respected():
    wl = _wl(data_bytes_per_thread=12 * 1024)
    trace = isal_trace(wl, CPU, stripe_offset=5)
    stats = validate_isal_trace(trace, wl, stripe_offset=5)
    assert stats.data_lines_covered > 0
    with pytest.raises(TraceValidationError, match="outside"):
        validate_isal_trace(trace, wl, stripe_offset=0)


def test_detects_unaligned_address():
    wl = _wl()
    t = Trace(ops=[(LOAD, 3)])
    with pytest.raises(TraceValidationError, match="unaligned"):
        validate_isal_trace(t, wl, expect_full_coverage=False)


def test_detects_coverage_hole():
    wl = _wl(data_bytes_per_thread=6 * 1024)
    trace = isal_trace(wl, CPU)
    trace = Trace(ops=[(op, a) for op, a in zip(trace.opcodes, trace.args)
                       if op != LOAD or a % 4096],
                  data_bytes=trace.data_bytes)
    with pytest.raises(TraceValidationError, match="coverage hole"):
        validate_isal_trace(trace, wl)


def test_detects_duplicate_loads():
    wl = _wl(data_bytes_per_thread=6 * 1024)
    trace = isal_trace(wl, CPU)
    first_load = trace.args[trace.opcodes.index(LOAD)]
    trace.opcodes.append(LOAD)
    trace.args.append(first_load)
    with pytest.raises(TraceValidationError, match="more than once"):
        validate_isal_trace(trace, wl)


def test_detects_store_to_data_block():
    wl = _wl(data_bytes_per_thread=6 * 1024)
    lay = StripeLayout(wl.k, wl.m, wl.block_bytes)
    trace = isal_trace(wl, CPU)
    trace.opcodes.append(STORE)
    trace.args.append(lay.line_addr(0, 0, 0))
    with pytest.raises(TraceValidationError, match="non-destination"):
        validate_isal_trace(trace, wl)


def test_detects_parity_prefetch():
    wl = _wl(data_bytes_per_thread=6 * 1024)
    lay = StripeLayout(wl.k, wl.m, wl.block_bytes)
    trace = isal_trace(wl, CPU)
    trace.opcodes.insert(0, SWPF)
    trace.args.insert(0, lay.line_addr(0, wl.k, 0))
    with pytest.raises(TraceValidationError, match="non-source"):
        validate_isal_trace(trace, wl)


def test_decode_loads_surviving_parity_blocks():
    """Decode must read the erasures' worth of parity, not the erased data."""
    wl = _wl(op="decode", erasures=2)
    trace = isal_trace(wl, CPU)
    lay = StripeLayout(wl.k, wl.m, wl.block_bytes)
    loaded_blocks = {
        ((a - lay.thread_base) // 4096) % (wl.k + wl.m)
        for op, a in zip(trace.opcodes, trace.args) if op == LOAD
    }
    assert loaded_blocks == set(range(2, wl.k)) | {wl.k, wl.k + 1}
    stored_blocks = {
        ((a - lay.thread_base) // 4096) % (wl.k + wl.m)
        for op, a in zip(trace.opcodes, trace.args) if op == STORE
    }
    assert stored_blocks == {0, 1}


def test_detects_missing_fence():
    wl = _wl(data_bytes_per_thread=6 * 1024)
    trace = isal_trace(wl, CPU)
    trace = Trace(ops=[(op, a) for op, a in zip(trace.opcodes, trace.args)
                       if op != FENCE],
                  data_bytes=trace.data_bytes)
    with pytest.raises(TraceValidationError, match="fences"):
        validate_isal_trace(trace, wl)
