"""Tests for the production-workload presets."""

import pytest

from repro import DialgaConfig, DialgaEncoder, HardwareConfig, ISAL
from repro.bench.workloads import PRODUCTION_WORKLOADS, get_workload


def test_all_presets_are_valid_workloads():
    for name, (desc, wl) in PRODUCTION_WORKLOADS.items():
        assert wl.k >= 1 and desc, name


def test_lookup_and_error():
    wl = get_workload("f4")
    assert (wl.k, wl.m) == (10, 4)
    with pytest.raises(KeyError, match="available"):
        get_workload("s3")


def test_vast_width_matches_paper_citation():
    assert get_workload("vast_wide").k == 154


def test_azure_preset_is_lrc():
    assert get_workload("azure_lrc").lrc_l == 2


def test_degraded_read_is_decode():
    wl = get_workload("degraded_read")
    assert wl.op == "decode" and wl.erasures == 1


@pytest.mark.parametrize("name", ["f4_smallobj", "ceph_default",
                                  "degraded_read"])
def test_presets_runnable_end_to_end(name):
    wl = get_workload(name).with_(data_bytes_per_thread=32 * 1024)
    res = ISAL(wl.k, wl.m).run(wl, HardwareConfig())
    assert res.throughput_gbps > 0


def test_dialga_wins_on_every_runnable_preset():
    hw = HardwareConfig()
    for name in ("f4_smallobj", "ceph_default", "azure_lrc"):
        wl = get_workload(name).with_(data_bytes_per_thread=32 * 1024,
                                      nthreads=1)
        isal = ISAL(wl.k, wl.m).run(wl, hw).throughput_gbps
        dialga = DialgaEncoder(wl.k, wl.m, config=DialgaConfig(use_probe=False)).run(wl, hw).throughput_gbps
        assert dialga > isal, name
