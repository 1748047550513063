"""Detail tests for the XOR facades: decomposed traces, LRC schedules,
schedule caching."""

import numpy as np
import pytest

from repro import Cerasure, HardwareConfig, Workload, Zerasure
from repro.codes import LRCCode
from repro.gf import gf8
from repro.libs.xor_common import (
    BitmatrixCode, build_lrc_schedule, lrc_extended_parity,
)
from repro.simulator.params import CPUConfig
from repro.trace import LOAD, STORE, xor_decomposed_trace
from repro.trace.layout import StripeLayout
from repro.xorsched import encode_bitmatrix
from repro.gf.bitmatrix import matrix_to_bitmatrix

HW = HardwareConfig()
CPU = CPUConfig()


def test_lrc_extended_parity_rows():
    parity = np.arange(1, 9, dtype=np.uint8).reshape(2, 4)
    ext = lrc_extended_parity(gf8, parity, l=2)
    assert ext.shape == (4, 4)
    assert np.array_equal(ext[2], [1, 1, 0, 0])
    assert np.array_equal(ext[3], [0, 0, 1, 1])
    with pytest.raises(ValueError):
        lrc_extended_parity(gf8, parity, l=3)


def test_lrc_schedule_matches_lrc_codec():
    """The XOR facade's extended schedule must produce the exact global
    + local parities that LRCCode computes."""
    k, m, l = 4, 2, 2
    lrc = LRCCode(k, m, l)
    code = BitmatrixCode(k, m, lrc.rs.parity_rows)
    sched = build_lrc_schedule(code, l)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, (k, 64)).astype(np.uint8)
    ext = lrc_extended_parity(gf8, code.parity, l)
    bm = matrix_to_bitmatrix(gf8, ext)
    got = encode_bitmatrix(gf8, bm, data, schedule=sched)
    gp, lp = lrc.encode(data)
    assert np.array_equal(got[:m], gp)
    assert np.array_equal(got[m:], lp)


def test_xor_decomposed_trace_structure():
    c = Cerasure(48, 4, group_size=16)
    wl = Workload(k=48, m=4, block_bytes=1024,
                  data_bytes_per_thread=48 * 1024)
    trace = c.trace(wl, HW, thread=0)
    lay = StripeLayout(48, 4, 1024)
    loads = [a for op, a in zip(trace.opcodes, trace.args) if op == LOAD]
    # data loads touch all 48 blocks; parity reload loads touch parity
    blocks = {((a - lay.thread_base) // 4096) % 52 for a in loads}
    assert set(range(48)) <= blocks
    assert 48 in blocks  # parity reload
    stores = [a for op, a in zip(trace.opcodes, trace.args) if op == STORE]
    assert len(stores) == 3 * 4 * 16  # 3 passes x m x lines


def test_xor_decomposed_geometry_mismatch():
    c = Cerasure(48, 4, group_size=16)
    key = (c.name, c.k, c.m, c.parity.tobytes())
    from repro.libs.xor_common import cached_group_schedule
    sched = cached_group_schedule(key, tuple(range(16)))
    wl = Workload(k=48, m=4, block_bytes=1024, data_bytes_per_thread=48 * 1024)
    with pytest.raises(ValueError, match="mismatch"):
        xor_decomposed_trace(wl, CPU, [(sched, list(range(8)))])


def test_group_schedule_cache_hits():
    from repro.libs.xor_common import cached_group_schedule
    c = Cerasure(48, 4)
    key = (c.name, c.k, c.m, c.parity.tobytes())
    a = cached_group_schedule(key, tuple(range(16)))
    b = cached_group_schedule(key, tuple(range(16)))
    assert a is b


def test_decode_schedule_cached_per_erasure_count():
    z = Zerasure(6, 3)
    wl1 = Workload(k=6, m=3, op="decode", erasures=1, block_bytes=1024,
                   data_bytes_per_thread=6 * 1024)
    z.trace(wl1, HW, 0)
    z.trace(wl1, HW, 0)
    assert 1 in z._decode_scheds
    wl2 = wl1.with_(erasures=3)
    z.trace(wl2, HW, 0)
    assert set(z._decode_scheds) >= {1, 3}


def test_zerasure_lrc_trace_counts():
    z = Zerasure(6, 3)
    wl = Workload(k=6, m=3, lrc_l=2, block_bytes=1024,
                  data_bytes_per_thread=6 * 1024)
    trace = z.trace(wl, HW, 0)
    # stores cover m + l = 5 parity blocks x 16 lines per stripe
    stores = trace.counts()["STORE"]
    assert stores == wl.stripes_per_thread * 5 * 16


def test_bitmatrix_code_validates_shape():
    with pytest.raises(ValueError):
        BitmatrixCode(4, 2, np.zeros((3, 4), np.uint8))


def test_bitmatrix_code_decode_errors():
    code = BitmatrixCode(4, 2, Cerasure(4, 2).parity)
    with pytest.raises(ValueError, match="cannot repair"):
        code.decode({0: np.zeros(8, np.uint8)}, [1, 2, 3])
    with pytest.raises(ValueError, match="survivors"):
        code.decode({0: np.zeros(8, np.uint8)}, [1])


def test_naive_encode_schedule_option():
    parity = Cerasure(4, 2).parity
    opt = BitmatrixCode(4, 2, parity, optimize_encode=True)
    naive = BitmatrixCode(4, 2, parity, optimize_encode=False)
    assert naive.encode_schedule.num_temps == 0
    assert opt.encode_schedule.xor_count <= naive.encode_schedule.xor_count
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, (4, 32)).astype(np.uint8)
    assert np.array_equal(opt.encode(data), naive.encode(data))
