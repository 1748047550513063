"""Tiling oracle for ISA-L-family trace generation.

``isal_trace`` emits one stripe op by op and tiles it over the rest,
shifting only the address arguments. Stripe ``s`` of an N-stripe trace
must therefore be byte-identical to the one-stripe trace generated at
offset ``s``: the oracle below concatenates N one-stripe traces and
compares ``content_key()`` for every emitter path (row-major, XPLine,
decomposed), op (encode, decode, LRC) and variant. The pinned digests
at the end catch any drift in what a stripe contains.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.params import CPUConfig
from repro.trace import FENCE, IsalVariant, Trace, Workload, isal_trace

CPU = CPUConfig()

WORKLOADS = {
    "encode": Workload(k=8, m=4, block_bytes=1024),
    "decode": Workload(k=6, m=3, block_bytes=512, op="decode", erasures=2),
    "lrc": Workload(k=12, m=2, block_bytes=1024, lrc_l=3),
    "wide_4k": Workload(k=24, m=4, block_bytes=4096),
}

VARIANTS = {
    "plain": IsalVariant(),
    "sw": IsalVariant(sw_prefetch_distance=5),
    "sw_bf": IsalVariant(sw_prefetch_distance=6, bf_first_line_distance=13),
    "shuffle_sw": IsalVariant(sw_prefetch_distance=3, shuffle=True),
    "xpline": IsalVariant(xpline_granularity=True),
    "xpline_shuffle_sw": IsalVariant(sw_prefetch_distance=20, shuffle=True,
                                     xpline_granularity=True),
    "decomposed": IsalVariant(decompose_group=4),
    "decomposed_shuffle": IsalVariant(decompose_group=5, shuffle=True),
}


def _stripes(wl: Workload, n: int) -> Workload:
    return wl.with_(data_bytes_per_thread=n * wl.stripe_data_bytes)


def _concatenated(wl: Workload, variant: IsalVariant, n: int,
                  thread: int, offset: int) -> Trace:
    """N one-stripe traces, each generated at its own stripe index."""
    one = _stripes(wl, 1)
    out = Trace()
    for s in range(n):
        out.extend(isal_trace(one, CPU, variant, thread=thread,
                              stripe_offset=offset + s))
    return out


def _assert_tiles(wl, variant, n, thread, offset):
    wl_n = _stripes(wl, n)
    assert wl_n.stripes_per_thread == n
    tiled = isal_trace(wl_n, CPU, variant, thread=thread,
                       stripe_offset=offset)
    assert tiled.content_key() == \
        _concatenated(wl, variant, n, thread, offset).content_key()


@pytest.mark.parametrize("variant", VARIANTS.values(), ids=VARIANTS.keys())
@pytest.mark.parametrize("wl", WORKLOADS.values(), ids=WORKLOADS.keys())
@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("thread,offset", [(0, 0), (1, 3)])
def test_tiled_trace_equals_concatenated_stripes(wl, variant, n, thread,
                                                 offset):
    _assert_tiles(wl, variant, n, thread, offset)


def test_tiled_trace_stays_growable():
    """The tiled args array is filled through a numpy view; the view
    must be released so the coordinator can extend the trace in place."""
    wl = _stripes(WORKLOADS["encode"], 3)
    trace = isal_trace(wl, CPU)
    n = len(trace)
    trace.extend(isal_trace(wl, CPU, stripe_offset=3))
    trace.add(FENCE, 0)
    assert len(trace) == 2 * n + 1


@given(k=st.integers(min_value=1, max_value=16),
       m=st.integers(min_value=1, max_value=4),
       bs=st.sampled_from([256, 512, 1024, 4096, 5120]),
       n=st.integers(min_value=1, max_value=12),
       kind=st.sampled_from(["encode", "decode", "lrc"]),
       shape=st.sampled_from(["rowmajor", "xpline", "decomposed"]),
       d=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
       bf_extra=st.one_of(st.none(), st.integers(min_value=0, max_value=64)),
       shuffle=st.booleans(),
       thread=st.integers(min_value=0, max_value=2),
       offset=st.integers(min_value=0, max_value=20))
@settings(max_examples=40, deadline=None)
def test_tiling_property(k, m, bs, n, kind, shape, d, bf_extra, shuffle,
                         thread, offset):
    if kind == "decode":
        wl = Workload(k=k, m=m, block_bytes=bs, op="decode",
                      erasures=min(m, k))
    elif kind == "lrc":
        wl = Workload(k=k, m=m, block_bytes=bs, lrc_l=k)
    else:
        wl = Workload(k=k, m=m, block_bytes=bs)
    bf = d + bf_extra if d is not None and bf_extra is not None else None
    variant = IsalVariant(
        sw_prefetch_distance=d, bf_first_line_distance=bf, shuffle=shuffle,
        xpline_granularity=shape == "xpline",
        decompose_group=max(1, k // 2) if shape == "decomposed" else None)
    _assert_tiles(wl, variant, n, thread, offset)


# sha256 of ``content_key()`` for four representative traces, recorded
# from the per-op generator that emitted every stripe in a Python loop.
PINNED = {
    "rowmajor_encode_sw_bf": (
        Workload(k=8, m=4, block_bytes=1024, data_bytes_per_thread=16 * 8192),
        IsalVariant(sw_prefetch_distance=6, bf_first_line_distance=12),
        0, 0,
        "b5df5a9947d65d82fd60a75fc5365f6a"
        "db676081ff386aef53b281a0ce281e5b"),
    "rowmajor_decode_shuffle": (
        Workload(k=12, m=4, block_bytes=4096, op="decode", erasures=2,
                 data_bytes_per_thread=9 * 12 * 4096),
        IsalVariant(sw_prefetch_distance=5, shuffle=True),
        1, 2,
        "34abcaaa506459ab09b80a72b13003e5"
        "aa059d0377d938bab6bfcab45fc26af3"),
    "xpline_lrc_shuffle": (
        Workload(k=24, m=2, block_bytes=512, lrc_l=3,
                 data_bytes_per_thread=7 * 24 * 512),
        IsalVariant(sw_prefetch_distance=24, shuffle=True,
                    xpline_granularity=True),
        0, 5,
        "805b9cceac9efc6f019dd5d77f2534bb"
        "c272920d21e10fe31b8e739debed6816"),
    "decomposed_wide": (
        Workload(k=40, m=4, block_bytes=1024,
                 data_bytes_per_thread=5 * 40 * 1024),
        IsalVariant(decompose_group=12, shuffle=True),
        0, 0,
        "a0d38a8bc17c2f7cf12873a6ed3cf8d7"
        "6817b25bd1f97fee36974c3a01826825"),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_trace_digests(name):
    wl, variant, thread, offset, digest = PINNED[name]
    trace = isal_trace(wl, CPU, variant, thread=thread, stripe_offset=offset)
    assert hashlib.sha256(trace.content_key()).hexdigest() == digest
