"""Fast-forward digest coverage: every piece of mutable model state is
either in :func:`repro.simulator.fastforward.state_digest` or declared
constant for the run.

Fast-forward skips periods only when two boundaries have equal digests,
so a model field the digest misses can differ between them and still
let a jump through — silently breaking byte-identity. These tests read
each model's fields from its ``__slots__``/``__dict__``: a new field
fails until it is either digested (and listed in ``DIGESTED`` with a
mutation that must move the digest) or declared in ``CONSTANT``.
"""

import pytest

from repro.simulator import Counters, HardwareConfig
from repro.simulator.cache import CoreCache, _Line
from repro.simulator.engine import ThreadContext
from repro.simulator.fastforward import state_digest
from repro.simulator.memory import DRAMBackend, PMBackend, _Pipe
from repro.simulator.multicore import make_backends
from repro.simulator.readbuffer import PMReadBuffer
from repro.simulator.streamprefetcher import StreamPrefetcher, _Stream
from repro.trace import IsalVariant, Workload, isal_trace


def warmed(load_source: str) -> ThreadContext:
    """A context stopped halfway through a prefetching encode, so the
    cache, stream table, read buffer and pipes all hold state."""
    hw = HardwareConfig().with_(load_source=load_source)
    counters = Counters()
    load_b, store_b = make_backends(hw)
    wl = Workload(k=4, m=2, block_bytes=512,
                  data_bytes_per_thread=8 * 4 * 512)
    trace = isal_trace(wl, hw.cpu, IsalVariant(sw_prefetch_distance=4))
    ctx = ThreadContext(hw, counters, load_b, store_b, trace=trace)
    ctx.run(until=len(trace) // 2)
    assert ctx.cache._lines and ctx.prefetcher._table
    return ctx


def mru(table):
    """Most recently used value of an LRU OrderedDict."""
    return next(reversed(table.values()))


def make_live(obj, name: str, ctx: ThreadContext) -> None:
    """Move a time field to a live instant it did not hold before."""
    setattr(obj, name, max(getattr(obj, name), ctx.clock) + 7.0)


def bump(name: str):
    def mutate(obj, ctx):
        setattr(obj, name, getattr(obj, name) + 1)
    return mutate


def bump_mru_entry(buf: PMReadBuffer, ctx: ThreadContext) -> None:
    buf._entries[next(reversed(buf._entries))] += 1


#: model -> (load source of the warmed context, how to reach one
#: instance, {digested field: a mutation that must change the digest}).
DIGESTED = {
    CoreCache: ("pm", lambda ctx: ctx.cache, {
        "_lines": lambda c, ctx: c._lines.popitem(last=False),
    }),
    _Line: ("pm", lambda ctx: mru(ctx.cache._lines), {
        "arrival_ns": lambda ln, ctx: make_live(ln, "arrival_ns", ctx),
        "source": lambda ln, ctx: setattr(ln, "source", (ln.source + 1) % 3),
        "used": lambda ln, ctx: setattr(ln, "used", not ln.used),
        "promo_ns": bump("promo_ns"),
    }),
    StreamPrefetcher: ("pm", lambda ctx: ctx.prefetcher, {
        "_table": lambda p, ctx: p._table.popitem(last=False),
    }),
    _Stream: ("pm", lambda ctx: mru(ctx.prefetcher._table), {
        "last_line": bump("last_line"),
        "confidence": bump("confidence"),
        "max_prefetched": bump("max_prefetched"),
    }),
    PMReadBuffer: ("pm", lambda ctx: ctx.load_backend.read_buffer, {
        "_entries": bump_mru_entry,
    }),
    _Pipe: ("pm", lambda ctx: ctx.load_backend.ctrl_pipe, {
        "free_at": lambda p, ctx: make_live(p, "free_at", ctx),
    }),
    PMBackend: ("pm", lambda ctx: ctx.load_backend, {
        "ctrl_pipe": lambda b, ctx: make_live(b.ctrl_pipe, "free_at", ctx),
        "media_pipe": lambda b, ctx: make_live(b.media_pipe, "free_at", ctx),
        "write_pipe": lambda b, ctx: make_live(b.write_pipe, "free_at", ctx),
        "read_buffer": lambda b, ctx: bump_mru_entry(b.read_buffer, ctx),
    }),
    DRAMBackend: ("dram", lambda ctx: ctx.load_backend, {
        "read_pipe": lambda b, ctx: make_live(b.read_pipe, "free_at", ctx),
        "write_pipe": lambda b, ctx: make_live(b.write_pipe, "free_at", ctx),
    }),
}

#: Fields fixed for the whole run (configuration copied at
#: construction) or shared counter sinks, which fast-forward advances
#: by the measured per-period delta instead of digesting.
CONSTANT = {
    CoreCache: {"capacity", "counters"},
    _Line: set(),
    StreamPrefetcher: {"config"},
    _Stream: set(),
    PMReadBuffer: {"capacity", "xpline_bytes"},
    _Pipe: {"ns_per_byte"},
    PMBackend: {"config"},
    DRAMBackend: {"config"},
}

#: The only public methods a model may define. Per-op behaviour lives
#: in ``engine.interpret`` alone (restated for the oracle in
#: ``tests/sim_reference.py``); a second statement of it on a model
#: would be code the interpreter never runs and the oracle never checks.
METHODS = {
    CoreCache: {"drain", "state_digest", "relabel"},
    _Line: set(),
    StreamPrefetcher: {"state_digest", "relabel"},
    _Stream: set(),
    PMReadBuffer: {"state_digest", "relabel"},
    _Pipe: {"rel_free", "shift"},
    PMBackend: {"pipes"},
    DRAMBackend: {"pipes"},
}


def fields_of(obj) -> set[str]:
    """Instance state names, from ``__slots__`` along the MRO plus
    ``__dict__``."""
    names = {name for cls in type(obj).__mro__
             for name in getattr(cls, "__slots__", ())}
    return names | set(getattr(obj, "__dict__", ()))


def public_methods(model) -> set[str]:
    """Public callables and properties defined on ``model`` or a base."""
    return {name for cls in model.__mro__ if cls is not object
            for name, value in vars(cls).items()
            if not name.startswith("_")
            and (callable(value) or isinstance(value, property))}


@pytest.mark.parametrize("model", METHODS, ids=lambda m: m.__name__)
def test_models_hold_state_not_behaviour(model):
    extra = public_methods(model) - METHODS[model]
    assert not extra, (
        f"{model.__name__} defines {sorted(extra)}: the per-op model "
        f"belongs in engine.interpret (and tests/sim_reference.py)")
    missing = METHODS[model] - public_methods(model)
    assert not missing, f"{model.__name__} has no {sorted(missing)}"


@pytest.mark.parametrize("model", DIGESTED, ids=lambda m: m.__name__)
def test_every_field_is_digested_or_declared_constant(model):
    source, locate, mutations = DIGESTED[model]
    obj = locate(warmed(source))
    assert type(obj) is model
    fields = fields_of(obj)
    unlisted = fields - set(mutations) - CONSTANT[model]
    assert not unlisted, (
        f"{model.__name__} fields {sorted(unlisted)} are neither in "
        f"fastforward.state_digest nor declared constant")
    stale = (set(mutations) | CONSTANT[model]) - fields
    assert not stale, f"{model.__name__} has no fields {sorted(stale)}"


@pytest.mark.parametrize("model, field", [
    (model, field) for model, (_, _, mutations) in DIGESTED.items()
    for field in mutations
], ids=lambda v: getattr(v, "__name__", v))
def test_changing_a_digested_field_changes_the_digest(model, field):
    source, locate, mutations = DIGESTED[model]
    ctx = warmed(source)
    before, _ = state_digest(ctx, 0)
    assert state_digest(ctx, 0)[0] == before
    mutations[field](locate(ctx), ctx)
    after, _ = state_digest(ctx, 0)
    assert after != before
