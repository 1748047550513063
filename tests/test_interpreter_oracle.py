"""The inlined interpreter equals the reference stepper, bit for bit.

``simulate`` runs every trace through one inlined loop
(:func:`repro.simulator.engine.interpret`); ``tests/sim_reference.py``
states the same machine model one op and one helper call at a time. The
two must agree exactly — makespan, every thread's finish time and every
counter field — across trace generators, hardware corners, thread
counts and DIALGA-style chunked re-entry.
"""

import dataclasses

import pytest

from repro.codes import RSCode
from repro.gf import gf8, matrix_to_bitmatrix
from repro.simulator import Counters, HardwareConfig, ThreadContext, simulate
from repro.simulator.multicore import make_backends
from repro.simulator.params import CacheConfig
from repro.trace import (IsalVariant, Workload, isal_trace, update_trace,
                         xor_schedule_trace)
from repro.xorsched import naive_schedule
from tests.sim_reference import reference_simulate

K, M, BLOCK = 4, 2, 1024
STRIPES = 6


def _wl(**kw):
    base = dict(k=K, m=M, block_bytes=BLOCK,
                data_bytes_per_thread=STRIPES * K * BLOCK)
    base.update(kw)
    return Workload(**base)


def _xor_schedule():
    code = RSCode(K, M, matrix="cauchy")
    return naive_schedule(matrix_to_bitmatrix(gf8, code.parity_rows), K, M, 8)


GENERATORS = {
    "isal_encode": lambda hw, t: isal_trace(_wl(), hw.cpu, thread=t),
    "isal_swpf": lambda hw, t: isal_trace(
        _wl(), hw.cpu, IsalVariant(sw_prefetch_distance=4), thread=t),
    "degraded_decode": lambda hw, t: isal_trace(
        _wl(op="decode", erasures=2), hw.cpu, thread=t),
    "update": lambda hw, t: update_trace(_wl(), hw.cpu,
                                         sw_prefetch_distance=2, thread=t),
    "xor": lambda hw, t: xor_schedule_trace(_wl(), hw.cpu, _xor_schedule(),
                                            thread=t),
}

HARDWARE = {
    "pm": HardwareConfig(),
    "dram_load": HardwareConfig(load_source="dram"),
    "no_hwpf": HardwareConfig().with_prefetcher(enabled=False),
    # 16 cache lines, 8 read-buffer XPLines and 4 stream-table entries:
    # every eviction path runs (together the matrix leaves no counter 0).
    "tiny_cache": HardwareConfig(cache=CacheConfig(l2_kb=1)).with_pm(
        read_buffer_kb=2).with_prefetcher(max_streams=4),
}

THREADS = (1, 2, 4, 10)


def assert_same(got, want):
    assert got.makespan_ns == want.makespan_ns
    assert got.thread_times_ns == want.thread_times_ns
    assert got.data_bytes == want.data_bytes
    for f in dataclasses.fields(Counters):
        assert (getattr(got.counters, f.name)
                == getattr(want.counters, f.name)), f.name


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("hw_name", sorted(HARDWARE))
@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_simulate_matches_reference(gen, hw_name, threads):
    hw = HARDWARE[hw_name]
    traces = [GENERATORS[gen](hw, t) for t in range(threads)]
    got = simulate(traces, hw, fastforward=False)
    want = reference_simulate(traces, hw)
    assert_same(got, want)


def test_replicated_trace_matches_reference():
    """``threads=N`` on one trace: equal clocks tie-break by index."""
    hw = HARDWARE["pm"]
    trace = GENERATORS["isal_encode"](hw, 0)
    got = simulate(trace, hw, threads=4)
    want = reference_simulate([trace] * 4, hw)
    assert_same(got, want)


def _contexts(hw, n):
    counters = Counters()
    load_b, store_b = make_backends(hw)
    return [ThreadContext(hw, counters, load_b, store_b) for _ in range(n)]


@pytest.mark.parametrize("threads", (1, 2, 4))
@pytest.mark.parametrize("hw_name", ("pm", "tiny_cache"))
def test_chunked_reentry_matches_reference(hw_name, threads):
    """The DIALGA pattern: extend live traces, re-enter without draining."""
    hw = HARDWARE[hw_name]
    variants = (IsalVariant(), IsalVariant(sw_prefetch_distance=4),
                IsalVariant(shuffle=True))
    ours, ref = _contexts(hw, threads), _contexts(hw, threads)
    per_chunk = 2
    for chunk, variant in enumerate(variants):
        wl = _wl(data_bytes_per_thread=per_chunk * K * BLOCK)
        for t in range(threads):
            tr = isal_trace(wl, hw.cpu, variant, thread=t,
                            stripe_offset=chunk * per_chunk)
            ours[t].trace.extend(tr)
            ref[t].trace.extend(tr)
        last = chunk == len(variants) - 1
        got = simulate([], hw, contexts=ours, drain=last)
        want = reference_simulate([], hw, contexts=ref, drain=last)
        assert_same(got, want)
        assert [c.pc for c in ours] == [c.pc for c in ref]
