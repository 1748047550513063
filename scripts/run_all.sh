#!/usr/bin/env bash
# Full reproduction pipeline: install, test, regenerate every figure,
# rebuild the reports. Mirrors what CI would run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== install =="
pip install -e . 2>/dev/null || python setup.py develop

echo "== unit / property / integration tests =="
python -m pytest tests/ 2>&1 | tee test_output.txt

echo "== strict deprecation job =="
# Any DeprecationWarning raised while the suite runs is an error.
python -m pytest tests/ -q \
    -W error::DeprecationWarning \
    2>&1 | tee strict_warnings_output.txt

echo "== lint (ruff, skipped when unavailable) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests examples
else
    echo "ruff not installed; skipping lint"
fi

echo "== trace smoke job (bench --trace + schema check) =="
# A tiny traced bench run must produce a valid Chrome trace_event file
# carrying the acceptance triple on one timeline: a coordinator policy
# switch, a simulator phase span and a service request span.
python -m repro.bench service --trace trace_smoke.json
python scripts/check_trace.py trace_smoke.json \
    --require coordinator.policy_switch \
    --require sim.chunk \
    --require service.request

echo "== audit smoke job (decision ledger + counterfactual regret replay) =="
# A fig-10-style adaptive episode must yield a fully-evidenced decision
# ledger whose counterfactual replay scores every switch against the
# per-window oracle, byte-identically across reruns; the exported trace
# must carry the decision.* instants on the shared timeline.
python -m repro.bench audit --seed 0 --trace audit_trace.json
python scripts/check_trace.py audit_trace.json \
    --require decision.evaluated \
    --require decision.switch

echo "== bench sweep smoke job (parallel ≡ serial ≡ warm, perf baseline) =="
# The smoke grid runs serial, parallel (--workers 2) and warm-cache and
# exits non-zero unless all three produce bit-identical results; the
# report doubles as the parallel-speedup perf baseline.
python -m repro.bench sweep --grid smoke --workers 2 --json BENCH_sweep.json

echo "== perf-regression gate (rolling baseline over BENCH_history.jsonl) =="
# Every bench invocation above appended to the history ledger; the gate
# fails when any gated metric of the latest entries exceeds 150% of its
# rolling baseline (warns past 110% — the coordinator's own thresholds).
python scripts/check_regression.py

echo "== overload smoke job (graceful degradation, byte-identical reruns) =="
# The overload scenario's own shape checks pin the acceptance triple:
# retry-budget goodput holds while the no-budget counterfactual
# collapses, every durability audit is clean, and brownout engages AND
# disengages. The run must also be byte-identical across two
# invocations and emit the overload.* trace events.
python -m repro.bench overload --seed 0 --out overload_run_a \
    --trace overload_trace.json
python -m repro.bench overload --seed 0 --out overload_run_b --no-history
diff overload_run_a/overload_scenario.txt overload_run_b/overload_scenario.txt
python scripts/check_trace.py overload_trace.json \
    --require overload.shed \
    --require overload.brownout_enter \
    --require overload.brownout_exit

echo "== fastforward smoke job (exact steady-state skip, >=5x speedup) =="
# The scenario's own shape checks gate the contract (non-zero exit on
# failure): fast-forwarded runs byte-identical to the interpreter on
# every workload, >= 5x wall-clock on the long fig10-style encode,
# graceful full-interpretation fallback on the aperiodic update trace.
# Wall-clock columns legitimately vary between reruns, so the rerun
# diff compares the deterministic projection: check verdicts (stripped
# of timing details) and the simulated skip/jump counts.
python -m repro.bench fastforward --seed 0 --out ff_run_a \
    --trace ff_trace.json
python -m repro.bench fastforward --seed 0 --out ff_run_b --no-history
for d in ff_run_a ff_run_b; do
    sed -E -n 's/ \[[^]]*\]$//; /\[(PASS|FAIL)\]/p' \
        "$d/fastforward_scenario.txt" > "$d/verdicts.txt"
    grep -E "^(encode_|decode_|update_)" "$d/fastforward_scenario.txt" \
        | awk '{print $1, $5, $6, $7, $8}' > "$d/periods.txt"
done
diff ff_run_a/verdicts.txt ff_run_b/verdicts.txt
diff ff_run_a/periods.txt ff_run_b/periods.txt
grep -q "\[PASS\] long encode fast-forward speedup" \
    ff_run_a/fastforward_scenario.txt
python scripts/check_trace.py ff_trace.json \
    --require sim.fastforward

echo "== perfbench job (benchmark smoke + seed-0 digest pins) =="
# The tiny-scale smoke test checks that every declared metric appears.
# The zero-second traced encode_mt run re-checks the seed-0 simulated
# digests against perfbench/pins.json and drives the span wrappers
# around multicore._run and ThreadContext.run (exit 1 on any failed
# check), so a rename or a byte drift in the interpreter fails here.
# The traced encode_long run does the same for the tiled ISA-L traces:
# its digest pin and the fast-forward == interpretation cross-check
# run on what isal_trace generates. The store_mixed and service_open
# runs check the other two pins: the PMStore/WAL/codec digest, and the
# service digest with its coding-job memo in play.
python -m pytest perfbench/test_smoke.py -q
python3 perfbench/run.py --workload encode_mt --seed 0 --seconds 0 --trace 1
python3 perfbench/run.py --workload encode_long --seed 0 --seconds 0 --trace 1
python3 perfbench/run.py --workload store_mixed --seed 0 --seconds 0 --trace 1
python3 perfbench/run.py --workload service_open --seed 0 --seconds 0 --trace 1

echo "== chaos smoke job (seeded campaign, durability audit must be clean) =="
# A short seeded chaos campaign must end with zero acknowledged-write
# loss; the scenario's own shape checks fail the run otherwise (exit 1).
python -m repro.bench chaos --seed 0

echo "== crash smoke job (exhaustive crash-point enumeration + tearing) =="
# Every flush/fence boundary of the smoke and degraded scenarios is
# power-cut, recovered and checked against the four recovery
# invariants; any write hole or lost acknowledged byte exits non-zero,
# as does any byte-level divergence between two identically-seeded runs.
python -m repro.bench crash --seed 0

echo "== slow campaigns (soak tests deselected from tier-1) =="
python -m pytest tests/ -m slow 2>&1 | tee slow_output.txt

echo "== figure benchmarks (writes benchmarks/results/) =="
python -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

echo "== paper-vs-measured report =="
python scripts/make_experiments_md.py

echo "== API reference =="
python scripts/gen_api_docs.py

echo "all done"
