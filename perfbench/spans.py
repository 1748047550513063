"""Per-layer spans, recorded from outside the program.

A traced pass replaces, for its duration only, the attribute each
caller looks up at a layer boundary (a module function such as
``repro.core.dialga.isal_trace`` or a class method such as
``PMStore.put``) with a thin wrapper that records one span per call:
name, start and end (``time.perf_counter_ns``), parent span and
workload, plus a few work counts read from the arguments and the
result. No source file is edited; :func:`traced` restores every
attribute on exit. Spans stay in memory; the caller writes them out
when the benchmark ends.

Host timings recorded here never enter a simulated digest: the digest
is computed from the program's outputs only.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

_now = time.perf_counter_ns

# Span record layout (lists, for speed): name, start, end, parent, info.
NAME, START, END, PARENT, INFO = range(5)


class SpanRecorder:
    """In-memory span store for one traced pass."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped so each call records one span.

        ``before(args)`` runs ahead of the timed call and returns a
        token; ``after(args, result, token)`` runs after it and returns
        the span's ``info`` (work counts).
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(rec)
            token = before(args) if before is not None else None
            stack.append(idx)
            rec[START] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = _now()
                stack.pop()
            if after is not None:
                rec[INFO] = after(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "workload": self.workload,
                    "info": info}) + "\n")


# -- work counts read at the boundaries -----------------------------------


def _trace_ops(args, result, token):
    return {"ops": len(result.opcodes)}


def _live_pcs(args):
    contexts = args[0]
    return (sum(1 for c in contexts if not c.done),
            sum(c.pc for c in contexts))


def _sim_run_info(args, result, token):
    live, pcs = token
    return {"live": live, "ops": sum(c.pc for c in args[0]) - pcs}


def _pc(args):
    return args[0].pc


def _engine_info(args, result, token):
    return {"ops": args[0].pc - token}


def _ff_info(args, result, token):
    return {"skipped": result.get("periods_skipped", 0),
            "total": result.get("periods_total", 0),
            "jumps": result.get("jumps", 0)}


def _dialga_info(args, result, token):
    enc = args[0]
    coord = enc.last_coordinator
    return {"decisions": len(coord.decision_log) if coord else 0,
            "switches": enc.policy_switches}


def _replay_info(args, result, token):
    return dict(result.cache_stats)


def _encode_bytes(args, result, token):
    return {"bytes": args[1].nbytes}


def _decode_bytes(args, result, token):
    code, available = args[0], args[1]
    use = sorted(available)[:code.k]
    return {"bytes": sum(available[i].nbytes for i in use)}


def _update_bytes(args, result, token):
    return {"bytes": args[4].nbytes}


def _payload_bytes(args, result, token):
    return {"user_bytes": len(args[2])}


def _wal_head(args):
    return args[0].bytes_logged


def _wal_info(args, result, token):
    return {"bytes": args[0].bytes_logged - token}


def _flush_info(args, result, token):
    return {"lines": result}


#: (module, attribute path, span name, before, after). Each entry is the
#: attribute a caller of that layer looks up at call time.
SITES = (
    ("repro.core.dialga", "isal_trace", "trace.isal", None, _trace_ops),
    ("repro.libs.isal", "isal_trace", "trace.isal", None, _trace_ops),
    ("repro.trace", "isal_trace", "trace.isal", None, _trace_ops),
    ("repro.trace", "update_trace", "trace.update", None, _trace_ops),
    ("repro.simulator.multicore", "_run", "sim.run", _live_pcs,
     _sim_run_info),
    ("repro.simulator.engine", "ThreadContext.run", "engine.run", _pc,
     _engine_info),
    ("repro.simulator.fastforward", "run_fastforward", "ff", None, _ff_info),
    ("repro.core.dialga", "DialgaEncoder.run", "dialga.run", None,
     _dialga_info),
    ("repro.obs.replay", "replay_decisions", "replay", None, _replay_info),
    ("repro.codes.rs", "RSCode.encode_blocks", "codec.encode", None, _encode_bytes),
    ("repro.codes.rs", "RSCode.decode", "codec.decode", None, _decode_bytes),
    ("repro.codes.rs", "RSCode.update_parity", "codec.update", None, _update_bytes),
    ("repro.pmstore.store", "PMStore.put", "store.put", None, _payload_bytes),
    ("repro.pmstore.store", "PMStore.update", "store.update", None, _payload_bytes),
    ("repro.pmstore.store", "PMStore.get", "store.get", None, None),
    ("repro.pmstore.store", "PMStore.crash", "store.crash", None, None),
    ("repro.pmstore.store", "PMStore.recover", "store.recover", None, None),
    ("repro.pmstore.wal", "StripeWAL.log_intent", "wal.intent", _wal_head, _wal_info),
    ("repro.pmstore.wal", "StripeWAL.log_commit", "wal.commit", _wal_head, _wal_info),
    ("repro.pmstore.pmem", "PersistenceDomain.write", "pmem.write", None, None),
    ("repro.pmstore.pmem", "PersistenceDomain.flush", "pmem.flush", None,
     _flush_info),
    ("repro.pmstore.pmem", "PersistenceDomain.fence", "pmem.fence", None, None),
    ("repro.service.service", "ErasureCodingService.drain", "svc.drain",
     None, None),
)


@contextmanager
def traced(recorder: SpanRecorder):
    """Install span wrappers at every site for the ``with`` body."""
    saved = []
    try:
        for module, path, name, before, after in SITES:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, before, after))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-pass aggregation --------------------------------------------------


def _layer(rec) -> str:
    """The layer a span is charged to. ``sim.run`` splits by live
    thread count: the multicore stepper (``sim_mt``) vs the thin
    single-thread dispatch into ``engine.run`` (``sim_st``) or ``ff``."""
    name = rec[NAME]
    if name == "sim.run":
        return "sim_mt" if rec[INFO] and rec[INFO]["live"] > 1 \
            else "sim_dispatch"
    if name == "engine.run":
        return "sim_st"
    return name.split(".")[0]


def summarize(spans: list[list], wall_ns: int) -> dict:
    """Per-layer numbers for one traced pass of ``wall_ns`` (README.md
    defines each). Busy time counts a layer's outermost spans; self
    time is span time minus the time of its child spans."""
    n = len(spans)
    layers = [_layer(rec) for rec in spans]
    child_ns = [0] * n
    for rec in spans:
        if rec[PARENT] >= 0:
            child_ns[rec[PARENT]] += rec[END] - rec[START]
    busy_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    info: dict[str, int] = {}
    calls: dict[str, int] = {}
    top_ns = 0
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        layer = layers[i]
        self_ns[layer] = self_ns.get(layer, 0) + dur - child_ns[i]
        calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1
        p = rec[PARENT]
        if p < 0:
            top_ns += dur
        while p >= 0 and layers[p] != layer:
            p = spans[p][PARENT]
        if p < 0:
            busy_ns[layer] = busy_ns.get(layer, 0) + dur
        if rec[INFO]:
            for key, value in rec[INFO].items():
                if key != "live":
                    tag = f"{layer}.{key}"
                    info[tag] = info.get(tag, 0) + value

    def busy(layer: str) -> float:
        return busy_ns.get(layer, 0) / 1e9

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def layer_calls(layer: str) -> int:
        return sum(c for name, c in calls.items()
                   if name.split(".")[0] == layer)

    out: dict[str, float] = {}
    for layer in ("trace", "sim_mt", "sim_st"):
        ops = info.get(f"{layer}.ops", 0)
        out[f"{layer}.ops"] = ops
        out[f"{layer}.busy_s"] = busy(layer)
        out[f"{layer}.mops_per_s"] = ratio(ops, busy(layer)) / 1e6
    skipped = info.get("ff.skipped", 0)
    out["ff.periods_skipped"] = skipped
    out["ff.skip_frac"] = ratio(skipped, info.get("ff.total", 0))
    out["ff.jumps"] = info.get("ff.jumps", 0)
    out["ff.busy_s"] = busy("ff")
    out["ff.self_s"] = self_ns.get("ff", 0) / 1e9
    out["dialga.runs"] = calls.get("dialga.run", 0)
    out["dialga.decisions"] = info.get("dialga.decisions", 0)
    out["dialga.switches"] = info.get("dialga.switches", 0)
    out["dialga.self_s"] = self_ns.get("dialga", 0) / 1e9
    hits, misses = info.get("replay.hits", 0), info.get("replay.misses", 0)
    out["replay.windows"] = hits + misses
    out["replay.busy_s"] = busy("replay")
    out["replay.cache_hit_frac"] = ratio(hits, hits + misses)
    out["codec.calls"] = layer_calls("codec")
    out["codec.bytes"] = info.get("codec.bytes", 0)
    out["codec.busy_s"] = busy("codec")
    out["codec.gbps"] = ratio(out["codec.bytes"], busy("codec")) / 1e9
    out["store.ops"] = layer_calls("store")
    out["store.self_s"] = self_ns.get("store", 0) / 1e9
    out["wal.bytes"] = info.get("wal.bytes", 0)
    out["wal.bytes_per_user_byte"] = ratio(out["wal.bytes"],
                                           info.get("store.user_bytes", 0))
    out["wal.busy_s"] = busy("wal")
    out["pmem.lines_flushed"] = info.get("pmem.lines", 0)
    out["pmem.fences"] = calls.get("pmem.fence", 0)
    out["pmem.busy_s"] = busy("pmem")
    out["svc.loop_self_s"] = self_ns.get("svc", 0) / 1e9
    out["span.count"] = n
    out["span.coverage"] = ratio(top_ns, wall_ns)
    out["_busy_by_layer"] = {k: v / 1e9 for k, v in busy_ns.items()}
    out["_self_by_layer"] = {k: v / 1e9 for k, v in self_ns.items()}
    return out
