"""The service's coding-job memo: reuse must never change a result.

``ErasureCodingService._job_makespan`` answers repeated coding jobs
from a per-service memo keyed by the frozen ``Workload``. Traced calls
always simulate (they may store but never read), so a drain under an
enabled tracer is the oracle: the same seeded request mix drained with
the memo must give the same per-request outcomes and the same service
counters. Only the ``work`` counters (jobs simulated vs reused) differ.
"""

import pytest

from repro.core.dialga import DialgaConfig, DialgaEncoder
from repro.obs import Tracer, use_tracer
from repro.service import (
    ErasureCodingService,
    HealthMonitor,
    OverloadConfig,
    Request,
    ScrubScheduler,
    SelfHealer,
    ServiceConfig,
    get_wave,
    put_wave,
)
from repro.trace.workload import Workload


def _service(*, overload=None, healer=False) -> ErasureCodingService:
    svc = ErasureCodingService(
        4, 3, block_bytes=256,
        config=ServiceConfig(max_queue_depth=16, max_batch=4,
                             overload=overload))
    if healer:
        svc.attach_healer(SelfHealer(
            monitor=HealthMonitor(4 + 3, window_ns=1e7, trip_threshold=2,
                                  cooldown_ns=5e6),
            scrub=ScrubScheduler(period_ns=100_000.0,
                                 stripes_per_slice=2)))
    return svc


def _degraded(svc):
    """Puts, then a device loss and a wave of degraded gets."""
    svc.submit_many(put_wave(6, 2, payload_bytes=700, seed=3))
    svc.drain()
    svc.store.mark_device_lost(2)
    svc.submit_many(get_wave(6, 2, start_ns=svc.clock_ns + 1e4, seed=4))
    svc.drain()


def _hedged(svc):
    """Gets against a slow device with hedged reads on."""
    svc.submit_many(put_wave(6, 2, payload_bytes=600, seed=1))
    svc.submit_many(get_wave(6, 2, start_ns=1e6, seed=2))
    svc.drain()
    svc.set_device_slow(1, penalty_ns=5e6)
    svc.submit_many(get_wave(6, 2, start_ns=svc.clock_ns + 10.0, seed=3))
    svc.drain()


def _healing(svc):
    """Degraded reads that trip a breaker, then idle-gap repairs."""
    svc.submit_many([Request.put(f"k{i}", bytes([i]) * 700,
                                 arrival_ns=float(i)) for i in range(6)])
    svc.drain()
    svc.store.mark_device_lost(2)
    t0 = svc.clock_ns
    svc.submit_many([Request.get(f"k{i}", arrival_ns=t0)
                     for i in range(4)])
    svc.submit(Request.get("k5", arrival_ns=t0 + 5e7))
    svc.drain()
    svc.run_maintenance(svc.clock_ns + 5e7)


def _switching_service() -> ErasureCodingService:
    """A 10-thread adaptive encoder whose 20-stripe jobs switch policy."""
    return ErasureCodingService(
        8, 4, block_bytes=1024,
        library=DialgaEncoder(8, 4, config=DialgaConfig(
            use_probe=False, chunks=6)),
        config=ServiceConfig(threads_per_job=10, max_batch=4))


def _switching(svc):
    """The same switching encode job, three times, in separate batches."""
    svc.submit_many([Request.encode(stripes=20, arrival_ns=i * 1e7)
                     for i in range(3)])
    svc.drain()


SCENARIOS = {
    "degraded": (_degraded, _service),
    "hedged": (_hedged, lambda: _service(overload=OverloadConfig(
        hedge_min_delay_ns=1_000.0, hedge_min_samples=1))),
    "healing": (_healing, lambda: _service(healer=True)),
    "switching": (_switching, _switching_service),
}


def _run(name: str, traced: bool):
    drive, make = SCENARIOS[name]
    tracer = Tracer("job-memo") if traced else None
    with use_tracer(tracer):
        svc = make()
        drive(svc)
    return svc, tracer


def _outcomes(svc):
    return [(r.status, r.latency_ns, r.retries, r.batch_size, r.degraded)
            for r in svc.results]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_memo_matches_the_traced_oracle(name):
    memo, _ = _run(name, traced=False)
    oracle, _ = _run(name, traced=True)
    assert _outcomes(memo) == _outcomes(oracle)
    assert dict(memo.metrics.counters) == dict(oracle.metrics.counters)
    assert memo.metrics.work["coding_jobs_reused"] > 0
    # Both drains ran the same jobs; only who simulated them differs.
    total = (memo.metrics.work["coding_jobs_simulated"]
             + memo.metrics.work["coding_jobs_reused"])
    assert total == (oracle.metrics.work["coding_jobs_simulated"]
                     + oracle.metrics.work["coding_jobs_reused"])


def test_scenarios_reach_the_paths_they_cover():
    degraded, _ = _run("degraded", traced=False)
    assert degraded.metrics.count("degraded_reads") > 0
    hedged, _ = _run("hedged", traced=False)
    assert hedged.metrics.count("hedges_issued") > 0
    healing, _ = _run("healing", traced=False)
    assert healing.metrics.count("repair_tasks_done") > 0
    # Every reused job still adds its policy switches to the counter.
    switching, _ = _run("switching", traced=False)
    assert switching.metrics.work["coding_jobs_simulated"] == 1
    assert switching.metrics.count("policy_switches") >= 3


def test_traced_drain_simulates_every_job_with_its_span():
    memo, _ = _run("degraded", traced=False)
    jobs = (memo.metrics.work["coding_jobs_simulated"]
            + memo.metrics.work["coding_jobs_reused"])
    svc, tracer = _run("degraded", traced=True)
    assert svc.metrics.work["coding_jobs_simulated"] == jobs
    assert svc.metrics.work.get("coding_jobs_reused", 0) == 0
    assert len(tracer.find_spans("dialga.run")) == jobs


def test_key_keeps_op_and_erasures_apart():
    svc = _service()
    encode = svc._coding_makespan(1)
    decode = svc._coding_makespan(1, op="decode", erasures=1)
    decode2 = svc._coding_makespan(1, op="decode", erasures=2)
    assert svc.metrics.work["coding_jobs_simulated"] == 3
    assert len(svc._job_memo) == 3
    # Each entry is the job's own cost, as a fresh service prices it.
    assert decode == _service()._coding_makespan(1, op="decode",
                                                 erasures=1)
    assert decode2 == _service()._coding_makespan(1, op="decode",
                                                  erasures=2)
    assert encode == _service()._coding_makespan(1)
    assert svc._coding_makespan(1, op="decode", erasures=1) == decode
    assert svc.metrics.work["coding_jobs_reused"] == 1


def test_memo_is_per_service():
    a, b = _service(), _service()
    a._coding_makespan(2)
    a._coding_makespan(2)
    b._coding_makespan(2)
    assert a._job_memo is not b._job_memo
    assert a.metrics.work["coding_jobs_reused"] == 1
    assert b.metrics.work["coding_jobs_simulated"] == 1
    assert b.metrics.work.get("coding_jobs_reused", 0) == 0


def test_traced_calls_store_but_never_read():
    svc = _service()
    with use_tracer(Tracer("job-memo")):
        svc._coding_makespan(1)
        svc._coding_makespan(1)
    assert svc.metrics.work["coding_jobs_simulated"] == 2
    svc._coding_makespan(1)                 # untraced: a hit
    assert svc.metrics.work["coding_jobs_reused"] == 1


def test_reuse_keeps_last_coordinator_of_the_last_simulated_job():
    svc = _service()
    svc._coding_makespan(1)
    svc._coding_makespan(1, op="decode", erasures=1)
    coord = svc.library.last_coordinator
    assert coord is not None
    svc._coding_makespan(1)                 # reused: nothing simulated
    assert svc.library.last_coordinator is coord


def test_hedge_estimate_is_a_single_thread_decode():
    svc = ErasureCodingService(4, 3, block_bytes=256,
                               config=ServiceConfig(threads_per_job=2))
    cost = svc._hedge_decode_cost_ns()
    wl = Workload(k=4, m=3, block_bytes=256, nthreads=1,
                  data_bytes_per_thread=4 * 256, op="decode", erasures=1)
    assert svc._job_memo[wl][0] == cost
    assert svc._hedge_decode_cost_ns() == cost
    assert svc.metrics.work["coding_jobs_reused"] == 1
