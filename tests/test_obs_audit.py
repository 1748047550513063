"""Decision ledger, counterfactual replay and the regression gate."""

import json
import subprocess
import sys

import pytest

from repro import HardwareConfig, Workload
from repro.core import AdaptiveCoordinator
from repro.core.dialga import DialgaConfig, DialgaEncoder
from repro.obs import (
    BenchHistory,
    DecisionLedger,
    Tracer,
    detect_regressions,
    history_path,
    ledger_from_coordinator,
    metric_direction,
    replay_decisions,
    use_tracer,
)
from repro.simulator import Counters

HW = HardwareConfig()


def _wl(**kw):
    base = dict(k=8, m=4, block_bytes=1024, data_bytes_per_thread=64 * 1024)
    base.update(kw)
    return Workload(**base)


def _hot_coordinator():
    """Coordinator driven through a synthetic contention switch."""
    coord = AdaptiveCoordinator(_wl(nthreads=10), HW)
    cal = Counters()
    cal.loads, cal.load_stall_ns, cal.hwpf_useless = 1000, 10_000.0, 10
    coord.set_baseline(cal)
    hot = Counters()
    hot.loads, hot.load_stall_ns, hot.hwpf_useless = 1000, 30_000.0, 100
    coord.observe(hot)
    return coord


# -- evidence capture ------------------------------------------------------


class TestDecisionEvidence:
    def test_initial_decision_is_recorded_with_evidence(self):
        coord = AdaptiveCoordinator(_wl(), HW)
        assert len(coord.decision_log) == 1
        ev = coord.decision_log[0]
        assert ev.kind == "initial"
        assert not ev.switched and ev.old is None
        assert ev.chosen is coord.policy
        assert {c.name for c in ev.checks} >= {"thread_pressure",
                                               "wide_stripe"}
        assert coord.policy in ev.candidates

    def test_observe_records_threshold_evaluations(self):
        coord = _hot_coordinator()
        ev = coord.decision_log[-1]
        assert ev.kind == "observe"
        assert ev.switched and ev.old is not None
        assert ev.fired("contention") and ev.fired("inefficient")
        by_name = {c.name: c for c in ev.checks}
        assert by_name["contention"].value > by_name["contention"].limit
        assert len(ev.candidates) >= 2
        assert not coord.policy.hw_prefetch

    def test_on_decision_callback_fires_live(self):
        seen = []
        coord = AdaptiveCoordinator(_wl(), HW, on_decision=seen.append)
        assert len(seen) == 1 and seen[0].kind == "initial"
        quiet = Counters()
        quiet.loads, quiet.load_stall_ns = 1000, 10_000.0
        coord.observe(quiet)
        assert len(seen) == 2
        coord.observe(Counters())  # zero-load samples carry no evidence
        assert len(seen) == 2

    def test_probe_search_records_climb_trajectory(self):
        wl = _wl(nthreads=2)
        coord = AdaptiveCoordinator(wl, HW,
                                    probe=lambda d: abs(d - 11) + 1.0)
        ev = coord.decision_log[0]
        assert len(ev.climb) >= 2  # the start plus accepted moves
        # The trajectory's last accepted move is the chosen distance.
        assert ev.climb[-1][1] == coord.policy.sw_distance == 11


class TestDecisionLedger:
    def test_ingest_matches_live_attach(self):
        live = DecisionLedger()
        coord = AdaptiveCoordinator(_wl(nthreads=10), HW,
                                    on_decision=live.on_decision)
        cal = Counters()
        cal.loads, cal.load_stall_ns, cal.hwpf_useless = 1000, 10_000.0, 10
        coord.set_baseline(cal)
        hot = Counters()
        hot.loads, hot.load_stall_ns, hot.hwpf_useless = 1000, 30_000.0, 100
        coord.observe(hot)
        live.wl, live.hw = coord.wl, coord.hw
        after = ledger_from_coordinator(coord)
        assert live.to_records() == after.to_records()
        assert len(after.switches) == 1

    def test_attach_chains_existing_hook_and_backfills(self):
        seen = []
        coord = AdaptiveCoordinator(_wl(), HW, on_decision=seen.append)
        ledger = DecisionLedger().attach(coord)
        assert len(ledger.records) == 1  # backfilled the initial decision
        quiet = Counters()
        quiet.loads, quiet.load_stall_ns = 1000, 10_000.0
        coord.observe(quiet)
        assert len(ledger.records) == 2
        assert len(seen) == 2  # the original hook still fires

    def test_jsonl_roundtrip_is_plain_json(self):
        ledger = ledger_from_coordinator(_hot_coordinator())
        lines = ledger.to_jsonl().strip().splitlines()
        assert len(lines) == len(ledger.records)
        parsed = [json.loads(line) for line in lines]
        assert parsed[-1]["switched"] is True
        assert parsed[-1]["old"] != parsed[-1]["chosen"]
        assert any(c["fired"] for c in parsed[-1]["checks"])

    def test_write_jsonl(self, tmp_path):
        ledger = ledger_from_coordinator(_hot_coordinator())
        path = ledger.write_jsonl(tmp_path / "sub" / "decisions.jsonl")
        assert path.exists()
        assert len(path.read_text().strip().splitlines()) == len(ledger.records)

    def test_emit_events_lays_decisions_on_the_timeline(self):
        ledger = ledger_from_coordinator(_hot_coordinator())
        tracer = Tracer("test")
        emitted = ledger.emit_events(tracer)
        evaluated = [e for e in tracer.events if e.name == "decision.evaluated"]
        switches = [e for e in tracer.events if e.name == "decision.switch"]
        assert len(evaluated) == len(ledger.records)
        assert len(switches) == len(ledger.switches) == 1
        assert emitted == len(evaluated) + len(switches)
        assert switches[0].attrs["old"] != switches[0].attrs["new"]

    def test_emit_events_noop_without_tracer(self):
        ledger = ledger_from_coordinator(_hot_coordinator())
        assert ledger.emit_events() == 0  # ambient NULL tracer

    def test_render_mentions_switches(self):
        text = ledger_from_coordinator(_hot_coordinator()).render()
        assert "SWITCH" in text and "contention" in text


# -- counterfactual replay -------------------------------------------------


class TestReplay:
    @pytest.fixture(scope="class")
    def episode(self):
        wl = _wl(nthreads=10,
                 data_bytes_per_thread=48 * 8 * 1024)
        enc = DialgaEncoder(8, 4, config=DialgaConfig(use_probe=False,
                                                      chunks=4))
        enc.run(wl, HW)
        return ledger_from_coordinator(enc.last_coordinator)

    def test_regret_report_shape(self, episode):
        report = replay_decisions(episode)
        assert len(report.decisions) == len(episode.records)
        assert 0.0 < report.oracle_score <= 1.0
        assert all(d.regret_ns_per_byte >= 0.0 for d in report.decisions)
        assert all(d.best in d.candidate_ns_per_byte
                   and d.chosen in d.candidate_ns_per_byte
                   for d in report.decisions)

    def test_window_stripes_come_from_the_chunk_size(self, episode):
        assert episode.window_stripes == 48 // 4
        assert replay_decisions(episode).window_stripes == 12
        assert replay_decisions(episode,
                                window_stripes=3).window_stripes == 3

    def test_cache_engages_across_windows(self, episode):
        report = replay_decisions(episode)
        assert report.cache_stats["hits"] > 0
        # Candidate policies recur across decisions: far fewer unique
        # simulations than candidate evaluations.
        assert report.cache_stats["misses"] < sum(
            len(d.candidate_ns_per_byte) for d in report.decisions)

    def test_replay_is_deterministic(self, episode):
        a = replay_decisions(episode).to_dict()
        b = replay_decisions(episode).to_dict()
        assert a == b

    def test_render_has_score_line(self, episode):
        text = replay_decisions(episode).render()
        assert "oracle-normalized score" in text

    def test_replay_without_workload_raises(self):
        with pytest.raises(ValueError):
            replay_decisions(DecisionLedger())

    def test_replay_ignores_ambient_tracer(self, episode):
        tracer = Tracer("test")
        with use_tracer(tracer):
            report = replay_decisions(episode)
        assert report.cache_stats["hits"] > 0
        assert not tracer.spans  # windows never land on the timeline


# -- service integration ---------------------------------------------------


def test_service_emits_decision_events_on_the_request_timeline():
    from repro.service import ErasureCodingService, Request, ServiceConfig

    svc = ErasureCodingService(
        4, 2, block_bytes=1024,
        library=DialgaEncoder(4, 2, config=DialgaConfig(use_probe=False,
                                                        chunks=2)),
        config=ServiceConfig(threads_per_job=2))
    tracer = Tracer("test")
    with use_tracer(tracer):
        svc.submit(Request.encode(stripes=8, arrival_ns=0.0))
        svc.drain()
    evaluated = [e for e in tracer.events if e.name == "decision.evaluated"]
    assert evaluated, "coding jobs must leave decision.* events"
    batch_spans = [s for s in tracer.spans if s.name == "service.batch"]
    assert batch_spans
    # Decisions are rebased onto the service clock: inside the batch.
    assert all(batch_spans[0].start_ns <= e.ts_ns <= batch_spans[-1].end_ns
               for e in evaluated)


# -- regression gate -------------------------------------------------------


class TestMetricDirection:
    def test_lower_is_better(self):
        for name in ("wall_s", "serial_s", "makespan_ns", "p99_latency_us",
                     "mean_regret_ns_per_byte"):
            assert metric_direction(name) == "lower"

    def test_higher_is_better(self):
        for name in ("throughput_gbps", "speedup_warm", "oracle_score",
                     "pass_fraction"):
            assert metric_direction(name) == "higher"

    def test_rates_are_higher_is_better(self):
        # ``_per_s`` ends in ``_s``; the rate rule must win over it.
        for name in ("ops_per_s", "stripes_per_s", "svc_req_per_s",
                     "sim_mt.mops_per_s", "trace.mops"):
            assert metric_direction(name) == "higher", name
        assert metric_direction("mean_regret_ns_per_byte") == "lower"

    def test_ungated(self):
        for name in ("cells", "workers", "mean_switches"):
            assert metric_direction(name) is None


class TestBenchHistory:
    def test_append_and_read(self, tmp_path):
        hist = BenchHistory(tmp_path / "h.jsonl")
        hist.append("bench:a", {"wall_s": 1.0, "note": "skipped"},
                    meta={"seed": 0})
        hist.append("bench:b", {"wall_s": 2.0})
        assert hist.runs() == ["bench:a", "bench:b"]
        (entry,) = hist.entries("bench:a")
        assert entry["metrics"] == {"wall_s": 1.0}  # non-numeric dropped
        assert entry["meta"] == {"seed": 0}

    def test_entries_skip_garbage_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        hist = BenchHistory(path)
        hist.append("bench:a", {"wall_s": 1.0})
        with path.open("a") as fh:
            fh.write("not json\n{\"no_run\": 1}\n")
        hist.append("bench:a", {"wall_s": 1.1})
        assert len(hist.entries("bench:a")) == 2

    def test_env_var_redirects_default_path(self, tmp_path, monkeypatch):
        target = tmp_path / "redirected.jsonl"
        monkeypatch.setenv("REPRO_BENCH_HISTORY", str(target))
        assert history_path() == target
        BenchHistory().append("bench:a", {"wall_s": 1.0})
        assert target.exists()


class TestDetectRegressions:
    def _history(self, tmp_path, values, metric="wall_s", run="bench:a"):
        hist = BenchHistory(tmp_path / "h.jsonl")
        for v in values:
            hist.append(run, {metric: v}, ts="2026-08-07T00:00:00+00:00")
        return hist

    def test_clean_history_passes(self, tmp_path):
        report = detect_regressions(self._history(tmp_path, [10.0, 10.1, 9.9]))
        assert report.clean and not report.flags
        assert report.compared == 1

    def test_exactly_at_110_percent_does_not_warn(self, tmp_path):
        # Strict >: ratio == warn factor stays clean (matches
        # perf_report's 110% flag semantics).
        hist = self._history(tmp_path, [10.0, 10.0, 10.0])
        assert detect_regressions(hist, warn_factor=1.10).clean
        hist.append("bench:a", {"wall_s": 11.0})
        assert not detect_regressions(hist, warn_factor=1.10).flags
        hist.append("bench:a", {"wall_s": 11.001})
        flags = detect_regressions(hist, warn_factor=1.10).flags
        assert [f.severity for f in flags] == ["warn"]

    def test_exactly_at_150_percent_warns_but_does_not_fail(self, tmp_path):
        hist = self._history(tmp_path, [10.0, 10.0])
        hist.append("bench:a", {"wall_s": 15.0})
        report = detect_regressions(hist)
        assert report.warnings and not report.failures and report.clean
        hist.append("bench:a", {"wall_s": 15.0})  # median now 10.0 again
        hist = self._history(tmp_path / "b", [10.0, 10.0])
        hist.append("bench:a", {"wall_s": 15.001})
        report = detect_regressions(hist)
        assert report.failures and not report.clean
        assert "150%" in report.failures[0].describe()

    def test_higher_is_better_direction(self, tmp_path):
        hist = self._history(tmp_path, [2.0, 2.0, 0.9],
                             metric="speedup_warm")
        report = detect_regressions(hist)
        assert report.failures
        assert report.failures[0].ratio == pytest.approx(2.0 / 0.9)

    def test_improvement_never_flags(self, tmp_path):
        hist = self._history(tmp_path, [10.0, 10.0, 2.0])
        assert detect_regressions(hist).clean

    def test_first_entry_seeds_baseline(self, tmp_path):
        report = detect_regressions(self._history(tmp_path, [10.0]))
        assert report.unseeded == ["bench:a"]
        assert report.compared == 0 and report.clean
        assert "baseline seeded" in report.render()

    def test_median_baseline_resists_one_outlier(self, tmp_path):
        hist = self._history(tmp_path, [10.0, 10.0, 100.0, 10.0, 10.2])
        assert detect_regressions(hist).clean

    def test_rolling_window_limits_lookback(self, tmp_path):
        # Old fast entries age out of the window: no flag.
        hist = self._history(tmp_path, [1.0, 1.0, 20.0, 20.0, 20.0, 20.0,
                                        20.0, 20.5])
        assert detect_regressions(hist, window=5).clean


class TestFigureHistoryMetrics:
    def test_history_metrics_are_gateable_numbers(self):
        from repro.bench.report import FigureResult
        fig = FigureResult("f", "t", ["tput_gbps", "tag", "ok"])
        fig.add_row("a", tput_gbps=2.0, tag="x", ok=True)
        fig.add_row("b", tput_gbps=4.0, tag="y", ok=False)
        fig.check("c1", True)
        fig.check("c2", False)
        metrics = fig.history_metrics()
        assert metrics == {"pass_fraction": 0.5, "mean_tput_gbps": 3.0}


class TestGateScript:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "scripts/check_regression.py", *argv],
            capture_output=True, text=True, cwd="/root/repo")

    def test_clean_history_exits_zero(self, tmp_path):
        hist = BenchHistory(tmp_path / "h.jsonl")
        for v in (10.0, 10.1, 9.9):
            hist.append("bench:a", {"wall_s": v})
        proc = self._run(str(hist.path))
        assert proc.returncode == 0, proc.stderr
        assert "0 failure(s)" in proc.stdout

    def test_injected_slowdown_exits_nonzero(self, tmp_path):
        hist = BenchHistory(tmp_path / "h.jsonl")
        for v in (10.0, 10.1, 9.9):
            hist.append("bench:a", {"wall_s": v})
        hist.append("bench:a", {"wall_s": 60.0})
        proc = self._run(str(hist.path))
        assert proc.returncode == 1
        assert "inefficient-prefetcher-grade" in proc.stdout

    def test_missing_ledger_exits_two(self, tmp_path):
        proc = self._run(str(tmp_path / "absent.jsonl"))
        assert proc.returncode == 2


# -- the bench scenario ----------------------------------------------------


def test_audit_scenario_is_registered():
    from repro.bench.audit_scenario import ALL_AUDIT_SCENARIOS, audit_scenario
    from repro.bench.cli import _experiments
    assert ALL_AUDIT_SCENARIOS["audit"] is audit_scenario
    assert _experiments()["audit"] is audit_scenario


@pytest.mark.slow
def test_audit_scenario_all_checks_pass():
    from repro.bench.audit_scenario import audit_scenario
    fig = audit_scenario(seed=0)
    assert fig.all_passed, fig.render()
    assert fig.value("pressure (10 threads)", "switches") >= 1
