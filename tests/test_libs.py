"""Unit tests for the library facades (functional + performance)."""

import numpy as np
import pytest

from repro import (
    ISAL, ISALDecompose, Zerasure, Cerasure, DialgaConfig, DialgaEncoder,
    HardwareConfig, Workload, UnsupportedWorkload,
)

HW = HardwareConfig()
WL = Workload(k=6, m=3, block_bytes=1024, data_bytes_per_thread=32 * 1024)


def _data(k, blen=1024, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (k, blen)).astype(np.uint8)


ALL_LIBS = [
    lambda: ISAL(6, 3),
    lambda: ISALDecompose(6, 3, group_size=4),
    lambda: Zerasure(6, 3),
    lambda: Cerasure(6, 3),
    lambda: DialgaEncoder(6, 3, config=DialgaConfig(use_probe=False)),
]


@pytest.fixture(params=ALL_LIBS, ids=["isal", "isald", "zerasure", "cerasure", "dialga"])
def lib(request):
    return request.param()


def test_encode_decode_roundtrip(lib):
    """Every library must actually be a working MDS erasure code."""
    data = _data(6)
    parity = lib.encode(data)
    assert parity.shape == (3, 1024)
    blocks = {i: data[i] for i in range(6)}
    blocks.update({6 + i: parity[i] for i in range(3)})
    erased = [0, 4, 7]
    avail = {i: b for i, b in blocks.items() if i not in erased}
    out = lib.decode(avail, erased)
    for e in erased:
        assert np.array_equal(out[e], blocks[e]), (lib.name, e)


def test_run_produces_throughput(lib):
    res = lib.run(WL, HW)
    assert res.throughput_gbps > 0
    assert res.sim.counters.loads > 0
    assert res.library == lib.name


def test_all_libraries_agree_with_isal_where_applicable():
    """ISA-L, ISA-L-D and DIALGA share the same generator: identical parity."""
    data = _data(6, seed=3)
    want = ISAL(6, 3).encode(data)
    assert np.array_equal(ISALDecompose(6, 3, group_size=4).encode(data), want)
    assert np.array_equal(DialgaEncoder(6, 3).encode(data), want)


def test_xor_libs_internally_consistent():
    """Zerasure/Cerasure use their own searched matrices; their schedule
    execution must match GF matmul with that matrix."""
    from repro.gf import gf8
    for lib in (Zerasure(5, 2), Cerasure(5, 2)):
        data = _data(5, seed=4)
        got = lib.encode(data)
        want = gf8.matmul(lib.code.parity, data)
        assert np.array_equal(got, want), lib.name


def test_zerasure_unsupported_wide_stripe():
    z = Zerasure(48, 4, budget=300)
    wl = Workload(k=48, m=4, block_bytes=1024, data_bytes_per_thread=98304)
    assert not z.supports(wl)
    with pytest.raises(UnsupportedWorkload):
        z.run(wl, HW)


def test_xor_libs_force_avx256():
    z = Zerasure(6, 3)
    wl = z.effective_workload(WL)
    assert wl.simd == "avx256"
    assert Cerasure(6, 3).effective_workload(WL).simd == "avx256"


def test_cerasure_decomposes_only_wide():
    assert not Cerasure(6, 3).decomposes
    assert Cerasure(48, 4).decomposes


def test_cerasure_wide_trace_has_parity_reload():
    c = Cerasure(48, 4, group_size=16)
    wl = Workload(k=48, m=4, block_bytes=1024,
                  data_bytes_per_thread=48 * 1024)
    trace = c.trace(wl, HW, thread=0)
    counts = trace.counts()
    L = 16
    # 3 groups -> parity stored 3x and reloaded 2x per stripe.
    assert counts["STORE"] == 3 * 4 * L
    # loads include 2 parity reload passes
    from repro.trace import LOAD
    lay_loads = counts["LOAD"]
    assert lay_loads > 2 * 4 * L  # at least the reloads


def test_isal_decompose_narrow_passthrough():
    lib = ISALDecompose(6, 3, group_size=16)
    t = lib.trace(WL, HW, 0)
    base = ISAL(6, 3).trace(WL, HW, 0)
    assert t.counts() == base.counts()


def test_decode_trace_loads_k_blocks():
    wl = Workload(k=6, m=3, op="decode", erasures=2, block_bytes=1024,
                  data_bytes_per_thread=12 * 1024)
    for lib in (ISAL(6, 3), Zerasure(6, 3), Cerasure(6, 3)):
        t = lib.trace(wl, HW, 0)
        assert t.data_bytes == wl.stripes_per_thread * 6 * 1024


def test_decode_slower_than_encode_for_xor_libs():
    """The paper's Fig. 14 mechanism: decode bitmatrices are denser."""
    z = Zerasure(8, 4)
    enc = z.code.encode_schedule
    dec = z.code.decode_schedule(4)
    assert dec.xor_count / 4 > enc.xor_count / 4 * 0.9  # not cheaper
    wl_e = Workload(k=8, m=4, block_bytes=1024, data_bytes_per_thread=64 * 1024)
    wl_d = wl_e.with_(op="decode", erasures=4)
    r_e = z.run(wl_e, HW)
    r_d = z.run(wl_d, HW)
    assert r_d.throughput_gbps < r_e.throughput_gbps


def test_library_result_properties():
    res = ISAL(6, 3).run(WL, HW)
    assert res.throughput_gbps == pytest.approx(res.sim.throughput_gbps)
