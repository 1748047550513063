"""Memory backends: DRAM and Optane-style PM.

A backend holds the memory-side state that all cores of a run share;
:func:`repro.simulator.engine.interpret` serves every 64 B fill and
store against it and does the traffic accounting. Bandwidth is
modelled as busy-until pipes: each transfer occupies its pipe for
``bytes / bandwidth`` and later requests queue behind it — under high
thread counts this is what saturates and bends the scalability curves
(Fig. 7 / 13).

The PM backend additionally holds the shared XPLine read buffer: a fill
whose XPLine is resident costs only the buffer-hit latency and no media
traffic; a miss charges a 256 B media transfer (the *implicit load*)
and inserts the XPLine, possibly thrash-evicting another.
"""

from __future__ import annotations

from repro.simulator.params import DRAMConfig, PMConfig
from repro.simulator.readbuffer import PMReadBuffer


class _Pipe:
    """A busy-until bandwidth pipe."""

    __slots__ = ("ns_per_byte", "free_at")

    def __init__(self, bw_gbps: float):
        self.ns_per_byte = 1.0 / bw_gbps  # GB/s == bytes/ns
        self.free_at = 0.0

    # -- fast-forward hooks ------------------------------------------------

    def rel_free(self, now: float) -> float | None:
        """Backlog relative to ``now``, or None when already drained.

        A ``free_at`` in the past is behaviorally dead — every acquire
        clamps it up to ``now`` — so it digests as a sentinel instead
        of a clock-relative offset that would never converge.
        """
        return self.free_at - now if self.free_at > now else None

    def shift(self, time_shift: float, now: float) -> None:
        """Translate a live backlog by one fast-forward jump."""
        if self.free_at > now:
            self.free_at += time_shift


class DRAMBackend:
    """Flat-latency DRAM with read/write bandwidth pipes."""

    def __init__(self, config: DRAMConfig):
        self.config = config
        self.read_pipe = _Pipe(config.read_bw_gbps)
        self.write_pipe = _Pipe(config.write_bw_gbps)

    def pipes(self) -> tuple[_Pipe, ...]:
        """All bandwidth pipes (for fast-forward digest/relabel)."""
        return (self.read_pipe, self.write_pipe)


class PMBackend:
    """Optane-style PM: XPLine media behind a shared read buffer."""

    def __init__(self, config: PMConfig):
        self.config = config
        self.ctrl_pipe = _Pipe(config.ctrl_bw_gbps)
        self.media_pipe = _Pipe(config.media_read_bw_gbps)
        self.write_pipe = _Pipe(config.write_bw_gbps)
        self.read_buffer = PMReadBuffer(
            config.buffer_capacity_lines, config.xpline_bytes)

    def pipes(self) -> tuple[_Pipe, ...]:
        """All bandwidth pipes (for fast-forward digest/relabel)."""
        return (self.ctrl_pipe, self.media_pipe, self.write_pipe)
