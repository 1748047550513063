"""Tests for the parity-update trace generator (extension feature)."""

import pytest

from repro.simulator import HardwareConfig, simulate
from repro.simulator.params import CPUConfig
from repro.trace import LOAD, STORE, SWPF, Workload
from repro.trace.layout import StripeLayout
from repro.trace.update_gen import update_trace

CPU = CPUConfig()
HW = HardwareConfig()


def _wl(**kw):
    base = dict(k=8, m=4, block_bytes=1024, data_bytes_per_thread=16 * 1024)
    base.update(kw)
    return Workload(**base)


def test_update_trace_op_counts():
    wl = _wl()
    t = update_trace(wl, CPU)
    counts = t.counts()
    stripes = wl.stripes_per_thread
    L = 16
    assert counts["LOAD"] == stripes * L * (1 + wl.m)   # old data + parities
    assert counts["STORE"] == stripes * L * (1 + wl.m)  # new data + parities
    assert counts["FENCE"] == stripes
    assert t.data_bytes == stripes * wl.block_bytes


def test_update_targets_rotate_through_blocks():
    wl = _wl(data_bytes_per_thread=8 * 8192)  # several stripes
    t = update_trace(wl, CPU)
    lay = StripeLayout(wl.k, wl.m, wl.block_bytes)
    data_loads = set()
    for op, a in zip(t.opcodes, t.args):
        if op == LOAD:
            block = ((a - lay.thread_base) // 4096) % (wl.k + wl.m)
            if block < wl.k:
                data_loads.add(block)
    assert len(data_loads) > 1  # different stripes update different blocks


def test_update_swpf_targets_future_loads():
    wl = _wl(data_bytes_per_thread=8192)
    d = 1 + wl.m  # one row ahead
    t = update_trace(wl, CPU, sw_prefetch_distance=d)
    loads = [a for op, a in zip(t.opcodes, t.args) if op == LOAD]
    swpfs = [a for op, a in zip(t.opcodes, t.args) if op == SWPF]
    for n, target in enumerate(swpfs):
        assert target == loads[n + d]


def test_update_stores_hit_data_and_parity():
    wl = _wl(data_bytes_per_thread=8192)
    t = update_trace(wl, CPU)
    lay = StripeLayout(wl.k, wl.m, wl.block_bytes)
    stored_blocks = {((a - lay.thread_base) // 4096) % (wl.k + wl.m)
                     for op, a in zip(t.opcodes, t.args) if op == STORE}
    assert 0 in stored_blocks            # the updated data block
    assert wl.k in stored_blocks         # first parity


def test_update_prefetch_improves_pm_throughput():
    """DIALGA's mechanism carries over to the update path."""
    wl = _wl(data_bytes_per_thread=64 * 1024)
    plain = simulate([update_trace(wl, CPU)], HW)
    d = (1 + wl.m) * 4  # four rows of lead
    pf = simulate([update_trace(wl, CPU, sw_prefetch_distance=d)], HW)
    assert pf.throughput_gbps > 1.2 * plain.throughput_gbps


def test_update_shuffle_kills_hw_prefetches():
    wl = _wl(block_bytes=4096, data_bytes_per_thread=64 * 1024)
    plain = simulate([update_trace(wl, CPU)], HW)
    shuf = simulate([update_trace(wl, CPU, shuffle=True)], HW)
    assert plain.counters.hwpf_issued > 0
    assert shuf.counters.hwpf_issued == 0


def test_update_stripe_offset():
    wl = _wl(data_bytes_per_thread=8192)
    a = update_trace(wl, CPU, stripe_offset=0)
    b = update_trace(wl, CPU, stripe_offset=10)
    addrs_a = {arg for op, arg in zip(a.opcodes, a.args) if op in (LOAD, STORE)}
    addrs_b = {arg for op, arg in zip(b.opcodes, b.args) if op in (LOAD, STORE)}
    assert not (addrs_a & addrs_b)


def test_update_trace_compute_scales_with_m():
    """Per-row compute must include the m parity multiply-accumulates."""
    from repro.trace import COMPUTE
    wl2 = _wl(m=2, data_bytes_per_thread=8192)
    wl8 = _wl(m=8, data_bytes_per_thread=8192)
    t2, t8 = update_trace(wl2, CPU), update_trace(wl8, CPU)
    c2 = sum(a for op, a in zip(t2.opcodes, t2.args) if op == COMPUTE)
    c8 = sum(a for op, a in zip(t8.opcodes, t8.args) if op == COMPUTE)
    assert c8 > c2


@pytest.mark.parametrize("d", [-3, 0])
def test_update_trace_rejects_non_positive_distance(d):
    with pytest.raises(ValueError, match="sw_prefetch_distance"):
        update_trace(_wl(), CPU, sw_prefetch_distance=d)
