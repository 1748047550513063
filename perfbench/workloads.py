"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` (timed
as the benchmark's set-up), then runs the same fixed batch of work in
every :meth:`run_pass`. A pass returns a :class:`PassResult`: the host
numbers (wall time, per-call latencies), the deterministic outputs
(digest, work counters, simulated metrics) and the failure counts. The
runner checks that every pass of a run produced the same digest and
counters. README.md explains why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

import repro.obs.replay as replay_mod
import repro.trace as trace_mod
from repro.core.dialga import DialgaConfig, DialgaEncoder
from repro.core.policy import Policy
from repro.libs.isal import ISAL
from repro.obs import ledger_from_coordinator
from repro.pmstore.store import PMStore
from repro.service import ErasureCodingService
from repro.service.request import Request, RequestKind, RequestStatus
from repro.simulator import HardwareConfig, simulate
from repro.trace import Workload

_clock = time.perf_counter


@dataclass
class PassResult:
    """What one pass of a workload produced."""

    #: Workload operations completed (the unit of ``ops_per_s``).
    ops: int = 0
    #: Host seconds of each user-facing call (``call_p50_ms``/``p90``).
    calls: list = field(default_factory=list)
    #: Host seconds of every timed step, in pass order; the same steps
    #: run in every pass (the runner takes each step's median).
    steps: list = field(default_factory=list)
    attempted: int = 0
    #: Operations whose output was wrong or that failed unexpectedly.
    failed: int = 0
    #: Requests turned away by designed overload control.
    refused: int = 0
    digest: str = ""
    #: Deterministic work counts; must repeat exactly across passes.
    counters: dict = field(default_factory=dict)
    #: Simulated-clock metrics (deterministic for a seed).
    sim: dict = field(default_factory=dict)
    #: Named host-latency samples (seconds) reported beside the calls.
    host: dict = field(default_factory=dict)
    wall_s: float = 0.0


def _canon(value) -> str:
    return value.hex() if isinstance(value, float) else str(value)


def sim_digest(h, res) -> None:
    """Fold a SimResult (makespan, thread times, data, every counter)
    into ``h``."""
    parts = [_canon(float(res.makespan_ns)), str(res.data_bytes)]
    parts += [_canon(float(t)) for t in res.thread_times_ns]
    parts += [f"{f.name}={_canon(getattr(res.counters, f.name))}"
              for f in fields(res.counters)]
    h.update(";".join(parts).encode())


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class _Workload:
    name = ""

    def cross_check(self, state) -> list[str]:
        """Checks beyond the per-pass ones; returns the problems found."""
        return []


# -- encode_mt -------------------------------------------------------------

#: (k, block bytes, simulated threads, stripes per thread). Both sides of
#: k = 16, 1 KiB and 4 KiB blocks; (24, 1 KiB, 12 t) chooses prefetch
#: distances beyond the Eq. (1) read-buffer cap; (40, 1 KiB, 12 t) is past
#: the coordinator's thread threshold (min(12, 384 / k) = 9).
MT_CELLS = ((8, 1024, 4, 12), (8, 1024, 12, 8), (8, 4096, 4, 4),
            (24, 1024, 12, 4), (24, 4096, 4, 4), (40, 1024, 12, 4))


class EncodeMT(_Workload):
    """Figure-style grid of multi-thread encodes: ISA-L with its
    baseline policy pinned next to adaptive DIALGA, whose decision
    ledger is then scored by ``replay_decisions``."""

    name = "encode_mt"

    def __init__(self, tiny: bool = False):
        self.cells = MT_CELLS[:2] if tiny else MT_CELLS
        self.tiny = tiny

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        hw = HardwareConfig()
        cells = []
        for k, block, threads, stripes in self.cells:
            if self.tiny:
                stripes = 4
            wl = Workload(k=k, m=4, block_bytes=block, nthreads=threads)
            wl = wl.with_(data_bytes_per_thread=stripes * wl.stripe_data_bytes)
            cells.append((wl, ISAL(k, 4), DialgaEncoder(k, 4, config=DialgaConfig(
                use_probe=False, chunks=4))))
        order = rng.permutation(len(cells))
        return hw, [cells[i] for i in order]

    def run_pass(self, state) -> PassResult:
        hw, cells = state
        out = PassResult()
        results = []
        t_pass = _clock()
        for wl, isal, dialga in cells:
            t0 = _clock()
            base = isal.run(wl, hw, policy=Policy())
            t1 = _clock()
            adaptive = dialga.run(wl, hw)
            ledger = ledger_from_coordinator(dialga.last_coordinator)
            report = replay_mod.replay_decisions(ledger)
            t2 = _clock()
            out.calls += [t1 - t0, t2 - t1]
            out.steps += [t1 - t0, t2 - t1]
            results.append((wl, base, adaptive, dialga.policy_switches,
                            ledger, report))
        out.wall_s = _clock() - t_pass

        h = hashlib.sha256()
        counters = dict.fromkeys(("cells", "loads", "stores", "swpf",
                                  "decisions", "switches", "replay_hits",
                                  "replay_misses"), 0)
        tputs, speedups = [], []
        for wl, base, adaptive, switches, ledger, report in results:
            for res in (base.sim, adaptive.sim):
                sim_digest(h, res)
                counters["loads"] += res.counters.loads
                counters["stores"] += res.counters.stores
                counters["swpf"] += res.counters.swpf_issued
                tputs.append(res.throughput_gbps)
            h.update(ledger.to_jsonl().encode())
            h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
            counters["cells"] += 1
            counters["decisions"] += len(ledger.records)
            counters["switches"] += switches
            counters["replay_hits"] += report.cache_stats["hits"]
            counters["replay_misses"] += report.cache_stats["misses"]
            speedups.append(adaptive.sim.throughput_gbps
                            / base.sim.throughput_gbps)
            out.ops += 2 * wl.stripes_per_thread * wl.nthreads
        out.attempted = 2 * len(results)
        out.digest = h.hexdigest()
        out.counters = counters
        out.sim = {"sim_gbps": geomean(tputs),
                   "dialga_speedup": geomean(speedups)}
        return out


# -- encode_long -----------------------------------------------------------

#: (kind, k, block bytes, stripes, software-prefetch policy). The update
#: cell's target block rotates through the stripe, so its trace is not
#: stripe-periodic and fast-forward declines it.
LONG_CELLS = (
    ("encode", 8, 1024, 3000, Policy()),
    ("encode", 8, 1024, 1200, Policy(sw_distance=8, bf_first_distance=12)),
    ("encode", 24, 1024, 600, Policy(sw_distance=24)),
    ("encode", 8, 4096, 400, Policy()),
    ("decode", 8, 1024, 1000, Policy(sw_distance=8)),
    ("update", 8, 1024, 300, None),
)


class EncodeLong(_Workload):
    """Long single-thread encodes and decodes (thousands of stripes per
    cell, fast-forward engaged) plus one aperiodic update cell."""

    name = "encode_long"

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        hw = HardwareConfig()
        cells = []
        for kind, k, block, stripes, policy in LONG_CELLS:
            # the seed moves each cell's length by up to 32 stripes
            stripes += 8 * int(rng.integers(0, 5))
            if self.tiny:
                stripes = max(40, stripes // 40)
            if kind == "decode":
                wl = Workload(k=k, m=4, block_bytes=block, op="decode",
                              erasures=2)
            else:
                wl = Workload(k=k, m=4, block_bytes=block)
            wl = wl.with_(data_bytes_per_thread=stripes * wl.stripe_data_bytes)
            cells.append((kind, wl, policy))
        return hw, cells

    def _trace(self, hw, kind, wl, policy):
        if kind == "update":
            return trace_mod.update_trace(wl, hw.cpu, sw_prefetch_distance=8)
        return trace_mod.isal_trace(wl, hw.cpu, policy.to_variant())

    def run_pass(self, state) -> PassResult:
        hw, cells = state
        out = PassResult()
        results = []
        t_pass = _clock()
        for kind, wl, policy in cells:
            t0 = _clock()
            trace = self._trace(hw, kind, wl, policy)
            res = simulate(trace, hw)
            out.calls.append(_clock() - t0)
            out.steps.append(out.calls[-1])
            results.append((wl, len(trace.opcodes), res))
        out.wall_s = _clock() - t_pass

        h = hashlib.sha256()
        counters = dict.fromkeys(("trace_ops", "periods_skipped",
                                  "periods_total", "jumps", "ff_engaged"), 0)
        for wl, nops, res in results:
            sim_digest(h, res)
            ff = res.fastforward or {}
            counters["trace_ops"] += nops
            counters["periods_skipped"] += ff.get("periods_skipped", 0)
            counters["periods_total"] += ff.get("periods_total", 0)
            counters["jumps"] += ff.get("jumps", 0)
            counters["ff_engaged"] += bool(ff.get("engaged"))
            out.ops += wl.stripes_per_thread
        out.attempted = len(results)
        out.digest = h.hexdigest()
        out.counters = counters
        out.sim = {"sim_gbps": geomean(r.throughput_gbps
                                       for _, _, r in results)}
        return out

    def cross_check(self, state) -> list[str]:
        """The smallest fast-forwarded cell must equal plain
        interpretation (``fastforward=False``) exactly."""
        hw, cells = state
        periodic = [c for c in cells if c[0] != "update"]
        kind, wl, policy = min(
            periodic, key=lambda c: c[1].stripes_per_thread
            * (c[1].k + c[1].m) * c[1].block_bytes)
        trace = self._trace(hw, kind, wl, policy)
        fast = simulate(trace, hw)
        slow = simulate(trace, hw, fastforward=False)
        problems = []
        # --tiny traces are too short for fast-forward to converge
        if not self.tiny and not (fast.fastforward or {}).get("engaged"):
            problems.append(f"fast-forward did not engage on {kind} {wl}")
        if fast != slow:
            problems.append(f"fast-forward differs from interpretation on "
                            f"{kind} k={wl.k} block={wl.block_bytes}")
        return problems


# -- store_mixed -----------------------------------------------------------

STORE_BLOCK = 64 * 1024
STORE_OBJECT = 4 * STORE_BLOCK        # two objects per RS(12, 8) stripe


class StoreMixed(_Workload):
    """Embedded PMStore(8, 4) with 64 KiB blocks and no coding library:
    puts, in-place delta-parity updates, plain and degraded gets, one
    crash + recover, every read checked against the bytes written."""

    name = "store_mixed"

    def __init__(self, tiny: bool = False):
        self.objects = 4 if tiny else 24
        self.updates = 2 if tiny else 12

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)

        def payload():
            return rng.integers(0, 256, STORE_OBJECT, dtype=np.uint8).tobytes()

        keys = [f"obj-{seed}-{i}" for i in range(self.objects)]
        puts = [(key, payload()) for key in keys]
        # after each put, read back one object already stored
        put_reads = [keys[int(rng.integers(0, i + 1))]
                     for i in range(self.objects)]
        targets = rng.choice(self.objects, self.updates, replace=False)
        updates = [(keys[int(i)], payload(), keys[int(rng.integers(
            0, self.objects))]) for i in targets]
        lost = [int(d) for d in rng.choice(8, 2, replace=False)]
        read_order = [keys[int(i)] for i in rng.permutation(self.objects)]
        return puts, put_reads, updates, lost, read_order

    def run_pass(self, state) -> PassResult:
        puts, put_reads, updates, lost, read_order = state
        out = PassResult()
        put_s, update_s, get_s, dget_s = [], [], [], []
        expected: dict[str, bytes] = {}
        bad = degraded = 0

        def read(key, samples=None):
            nonlocal bad, degraded
            if samples is None:
                degraded += store.is_degraded(key)
                samples = dget_s if store.is_degraded(key) else get_s
            t0 = _clock()
            value = store.get(key)
            samples.append(_clock() - t0)
            out.steps.append(samples[-1])
            bad += value != expected[key]

        t_pass = _clock()
        store = PMStore(8, 4, block_bytes=STORE_BLOCK,
                        pm_capacity_bytes=(self.objects // 2 + 1)
                        * 12 * STORE_BLOCK,
                        wal_capacity_bytes=(self.objects + self.updates + 2)
                        * 2 * STORE_OBJECT)
        for (key, value), again in zip(puts, put_reads):
            t0 = _clock()
            store.put(key, value)
            put_s.append(_clock() - t0)
            out.steps.append(put_s[-1])
            expected[key] = value
            read(again, get_s)
        for key, value, again in updates:
            t0 = _clock()
            store.update(key, value)
            update_s.append(_clock() - t0)
            out.steps.append(update_s[-1])
            expected[key] = value
            read(again, get_s)
        for device in lost:
            store.mark_device_lost(device)
        for key in read_order:
            read(key)
        store.crash()
        t0 = _clock()
        report = store.recover()
        recover_s = _clock() - t0
        out.steps.append(recover_s)
        for key in read_order:
            read(key)
        out.wall_s = _clock() - t_pass

        n_ops = (len(put_s) + len(update_s) + len(get_s) + len(dget_s) + 2)
        out.ops = out.attempted = n_ops
        out.failed = bad + report.checksum_mismatches \
            + (report.objects_recovered != len(expected))
        out.calls = put_s
        out.host = {"put": put_s, "dget": dget_s, "recover": [recover_s]}
        out.digest = store.state_digest()
        out.counters = {
            "wal_bytes": store.wal.bytes_logged,
            "lines_written": store.domain.lines_written
            + store.wal.domain.lines_written,
            "lines_flushed": store.domain.flushes + store.wal.domain.flushes,
            "fences": store.domain.fences + store.wal.domain.fences,
            "degraded_gets": degraded,
            "stripes": store.num_stripes,
            "recover_lines_redone": report.lines_redone,
        }
        return out


# -- service_open ----------------------------------------------------------

#: Simulated arrival rates (requests per simulated microsecond) of the
#: open-loop ladder; the knee lies between 4 and 5.
SVC_RATES = (3.0, 4.0, 5.0, 6.0)
#: Rate below the knee at which svc p50 / p99 are reported.
SVC_REF_RATE = 4.0
#: Simulated p95 limit for ``svc.max_rate``. A rung holds 500 requests,
#: so p95 rests on 25 samples beyond it (p99 would rest on 5).
SVC_P95_LIMIT_US = 10.0
SVC_PAYLOAD = 4096
SVC_PRELOAD = 64


class ServiceOpen(_Workload):
    """Open loop of independent clients: seeded Poisson arrivals on the
    simulated clock into ``ErasureCodingService(8, 4)`` (RS(12, 8),
    1 KiB blocks), a 50/50 mix of 4 KiB puts and gets of preloaded
    keys, at each rate of a fixed ladder."""

    name = "service_open"

    def __init__(self, tiny: bool = False):
        self.per_rate = 60 if tiny else 500
        self.ref_requests = 60 if tiny else 1000

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)

        def payload():
            return rng.integers(0, 256, SVC_PAYLOAD, dtype=np.uint8).tobytes()

        preload = [(f"pre-{i}", payload()) for i in range(SVC_PRELOAD)]
        rungs = []
        for rate in SVC_RATES:
            n = self.ref_requests if rate == SVC_REF_RATE else self.per_rate
            # preload puts arrive every 2 us; the open loop starts 20 us
            # after the last of them
            start = 2000.0 * SVC_PRELOAD + 20_000.0
            arrivals = start + np.cumsum(rng.exponential(1000.0 / rate, n))
            reqs = [Request.put(key, value, client=i, arrival_ns=2000.0 * i)
                    for i, (key, value) in enumerate(preload)]
            for i, at in enumerate(arrivals):
                client = SVC_PRELOAD + i
                if rng.random() < 0.5:
                    reqs.append(Request.put(f"r{rate:g}-{i}", payload(),
                                            client=client, arrival_ns=float(at)))
                else:
                    key = preload[int(rng.integers(0, SVC_PRELOAD))][0]
                    reqs.append(Request.get(key, client=client,
                                            arrival_ns=float(at)))
            rungs.append((rate, reqs))
        return dict(preload), rungs

    def run_pass(self, state, on_service=None) -> PassResult:
        """``on_service(svc)`` is called on each fresh service before it
        drains (the traced run hooks its queue there)."""
        preload, rungs = state
        out = PassResult()
        drained = []
        t_pass = _clock()
        for rate, reqs in rungs:
            svc = ErasureCodingService(8, 4)
            if on_service is not None:
                on_service(svc)
            svc.submit_many(reqs)
            t0 = _clock()
            results = svc.drain()
            out.calls.append(_clock() - t0)
            out.steps.append(out.calls[-1])
            drained.append((rate, svc, results))
        out.wall_s = _clock() - t_pass

        h = hashlib.sha256()
        counters = dict.fromkeys(("requests", "completed", "rejected",
                                  "batches", "coalesced"), 0)
        bad = refused = 0
        per_rate = {}
        for rate, svc, results in drained:
            rejected = 0
            lat = []
            for res in sorted(results, key=lambda r: (r.request.arrival_ns,
                                                      r.request.key)):
                req = res.request
                h.update(f"{req.kind.value}|{req.key}|{res.status.value}|"
                         f"{_canon(res.latency_ns)}|{res.retries}|"
                         f"{res.batch_size};".encode())
                if res.status is RequestStatus.REJECTED:
                    rejected += 1
                elif not res.ok:
                    bad += 1
                elif req.kind is RequestKind.GET and \
                        res.value != preload[req.key]:
                    bad += 1
                if res.ok and not req.key.startswith("pre-"):
                    lat.append(res.latency_ns)
            # designed rejections happen only at the Eq. (1) cap
            bad += svc.metrics.count("rejected_below_cap")
            refused += rejected
            counters["requests"] += len(results)
            counters["completed"] += svc.metrics.count("completed")
            counters["rejected"] += rejected
            counters["batches"] += svc.metrics.count("batches")
            counters["coalesced"] += svc.metrics.count("coalesced_requests")
            lat_us = np.asarray(lat) / 1e3
            quarter = max(1, len(lat_us) // 4)
            growing = lat_us[-quarter:].mean() > 2.0 * lat_us[:quarter].mean() + 2.0
            per_rate[rate] = (float(np.percentile(lat_us, 50)),
                              float(np.percentile(lat_us, 95)),
                              float(np.percentile(lat_us, 99)),
                              rejected, growing)
        out.ops = out.attempted = counters["requests"]
        out.failed, out.refused = bad, refused
        out.digest = h.hexdigest()
        out.counters = counters
        p50, _, p99, _, _ = per_rate[SVC_REF_RATE]
        ok_rates = [rate for rate, (_, q95, _, rej, grow) in per_rate.items()
                    if q95 <= SVC_P95_LIMIT_US and rej == 0 and not grow]
        out.sim = {"svc_p50_us": p50, "svc_p99_us": p99,
                   "svc_max_rate": max(ok_rates) if ok_rates else 0.0,
                   "mean_batch": counters["requests"] / counters["batches"]}
        return out


WORKLOADS = {cls.name: cls for cls in (EncodeMT, EncodeLong, StoreMixed,
                                       ServiceOpen)}
