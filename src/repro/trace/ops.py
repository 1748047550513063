"""Trace op encoding.

Ops are stored as two *parallel arrays* — a ``uint8`` opcode array and
a ``float64`` argument array — rather than a list of ``(opcode, arg)``
tuples. That representation is ~3x smaller, pickles cheaply (the
parallel sweep executor ships traces between processes and the content
cache hashes their raw buffers), and lets the simulator's inner loop
index two flat C arrays instead of chasing tuple pointers:

========  =======================================================
opcode    arg
========  =======================================================
LOAD      byte address (64 B-aligned) of a demand load
STORE     byte address of a 64 B non-temporal store
SWPF      byte address targeted by a software prefetch
COMPUTE   CPU cycles of computation (float)
FENCE     unused (0) — drain posted stores (``sfence``)
========  =======================================================

Generators emit ops through :meth:`Trace.add`, which *coalesces
consecutive COMPUTE ops* (summing their cycle counts) at generation
time — runs of pure compute (common in XOR-schedule traces, where
parity-source program steps emit no loads) collapse into one op before
the simulator ever sees them. The ISA-L-family generator emits only
one stripe that way and tiles it over the remaining stripes with numpy,
writing ``opcodes`` and ``args`` directly
(:mod:`repro.trace.isal_gen`); the update and XOR-schedule generators
emit every op.
"""

from __future__ import annotations

from array import array

LOAD = 0
STORE = 1
SWPF = 2
COMPUTE = 3
FENCE = 4

_NAMES = {LOAD: "LOAD", STORE: "STORE", SWPF: "SWPF",
          COMPUTE: "COMPUTE", FENCE: "FENCE"}


def op_name(opcode: int) -> str:
    """Human-readable op name (for debugging/reporting)."""
    return _NAMES.get(opcode, f"op{opcode}")


class Trace:
    """One thread's op stream plus throughput metadata.

    Attributes
    ----------
    opcodes:
        ``array('B')`` of opcodes (one byte per op).
    args:
        ``array('d')`` of op arguments, parallel to ``opcodes``.
        Addresses are exact: float64 represents integers < 2**53 and
        the simulated address space tops out near 2**45.
    data_bytes:
        Application data bytes this trace encodes/decodes — the
        numerator of the throughput the paper reports.
    """

    __slots__ = ("opcodes", "args", "data_bytes")

    def __init__(self, ops=None, data_bytes: int = 0):
        self.opcodes = array("B")
        self.args = array("d")
        self.data_bytes = data_bytes
        if ops is not None:
            for op, arg in ops:
                self.opcodes.append(int(op))
                self.args.append(arg)

    # -- building ---------------------------------------------------------

    def add(self, op: int, arg: float) -> None:
        """Append one op, coalescing runs of consecutive COMPUTE.

        Trace generators emit through this method; a COMPUTE landing
        directly after another COMPUTE folds its cycles into the
        previous op instead of growing the stream.
        """
        opcodes = self.opcodes
        if op == COMPUTE and opcodes and opcodes[-1] == COMPUTE:
            self.args[-1] += arg
            return
        opcodes.append(op)
        self.args.append(arg)

    def extend(self, other: "Trace") -> None:
        """Append another trace (accumulating data bytes).

        Ops concatenate verbatim — no boundary coalescing, because the
        coordinator extends a trace *mid-execution* and the already-
        executed tail must not change under its program counter.
        """
        self.opcodes.extend(other.opcodes)
        self.args.extend(other.args)
        self.data_bytes += other.data_bytes

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.opcodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.opcodes == other.opcodes and self.args == other.args
                and self.data_bytes == other.data_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({len(self)} ops, data_bytes={self.data_bytes})"

    def counts(self) -> dict[str, int]:
        """Op histogram, keyed by op name."""
        out: dict[str, int] = {}
        for op in self.opcodes:
            name = op_name(op)
            out[name] = out.get(name, 0) + 1
        return out

    def content_key(self) -> bytes:
        """Raw bytes identifying this trace's exact content.

        Feeds the content-addressed cache: two traces with equal keys
        simulate identically on equal hardware.
        """
        head = f"trace:v1:{len(self.opcodes)}:{self.data_bytes}:".encode()
        return head + self.opcodes.tobytes() + self.args.tobytes()

    # -- pickling (slots) -------------------------------------------------

    def __getstate__(self):
        return (self.opcodes, self.args, self.data_bytes)

    def __setstate__(self, state):
        self.opcodes, self.args, self.data_bytes = state
