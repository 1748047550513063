"""Fault injection for the PM store.

Models the paper's §2.1 error taxonomy: random media bit flips and
write disturbance (silent corruption, caught only by checksums),
region/device loss (detected erasures), and software scribbles
(wild writes from buggy kernels/scrubbers — also silent).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.pmstore.store import PMStore


class TransientFault(RuntimeError):
    """An operation-level failure that succeeds on retry.

    Models the recoverable end of the §2.1 taxonomy (a timed-out media
    access, a torn DDR-T transaction the controller replays): the store
    itself is undamaged, the *operation* failed. Raised from
    :attr:`PMStore.fault_hooks`; the service layer retries with
    exponential backoff.
    """


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (returned so tests can assert exact damage)."""

    kind: str            # "bit_flip" | "block_loss" | "device_loss" | "scribble"
    stripe: int
    block: int
    detail: str = ""


class FaultInjector:
    """Deterministic fault source over a :class:`PMStore`.

    Randomness is drawn from *per-site* streams — one independent,
    seeded generator per fault kind (and per created hook) — so the
    targets a ``bit_flip`` picks do not depend on how many scribbles or
    transient hooks ran before it. That call-order independence is what
    lets chaos campaigns and crash campaigns compose deterministically:
    adding a ``power_cut`` action to a schedule leaves every other
    fault's targets bit-identical.
    """

    def __init__(self, store: PMStore, seed: int = 0):
        self.store = store
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}
        self._hook_count = 0
        self.events: list[FaultEvent] = []

    def _stream(self, site: str) -> np.random.Generator:
        """The independent RNG stream of one injection site."""
        if site not in self._streams:
            self._streams[site] = np.random.default_rng(
                [self.seed, zlib.crc32(site.encode())])
        return self._streams[site]

    def _random_block(self, rng: np.random.Generator) -> tuple[int, int]:
        sid = int(rng.integers(self.store.num_stripes))
        block = int(rng.integers(self.store.k + self.store.parity_blocks))
        return sid, block

    def bit_flip(self, stripe: int | None = None, block: int | None = None,
                 nbits: int = 1) -> FaultEvent:
        """Flip random bit(s) in one block — *silent* corruption."""
        rng = self._stream("bit_flip")
        if stripe is None or block is None:
            stripe, block = self._random_block(rng)
        blocks = self.store.blocks_of(stripe)
        target = blocks[block]
        s = self.store._stripes[stripe]
        arr = s.data[block] if block < self.store.k else s.parity[block - self.store.k]
        for _ in range(nbits):
            byte = int(rng.integers(len(target)))
            bit = int(rng.integers(8))
            arr[byte] ^= 1 << bit
        ev = FaultEvent("bit_flip", stripe, block, f"{nbits} bit(s)")
        self.events.append(ev)
        return ev

    def scribble(self, stripe: int | None = None, block: int | None = None,
                 length: int = 64) -> FaultEvent:
        """Overwrite a run of bytes with garbage (software error path)."""
        rng = self._stream("scribble")
        if stripe is None or block is None:
            stripe, block = self._random_block(rng)
        s = self.store._stripes[stripe]
        arr = s.data[block] if block < self.store.k else s.parity[block - self.store.k]
        start = int(rng.integers(max(1, len(arr) - length)))
        arr[start:start + length] = rng.integers(
            0, 256, min(length, len(arr) - start), dtype=np.uint8)
        ev = FaultEvent("scribble", stripe, block, f"{length} B @ {start}")
        self.events.append(ev)
        return ev

    def block_loss(self, stripe: int | None = None,
                   block: int | None = None) -> FaultEvent:
        """Lose one block region — a *detected* erasure."""
        if stripe is None or block is None:
            stripe, block = self._random_block(self._stream("block_loss"))
        self.store.mark_lost(stripe, block)
        ev = FaultEvent("block_loss", stripe, block)
        self.events.append(ev)
        return ev

    def device_loss(self, device: int) -> list[FaultEvent]:
        """Lose block position ``device`` in *every* stripe — the
        correlated failure striping is designed for."""
        out = []
        for sid in range(self.store.num_stripes):
            self.store.mark_lost(sid, device)
            ev = FaultEvent("device_loss", sid, device)
            self.events.append(ev)
            out.append(ev)
        return out

    def transient_hook(self, rate: float = 0.1,
                       max_failures_per_key: int = 2,
                       ops: tuple[str, ...] = ("put", "get"),
                       ) -> Callable[[str, str], None]:
        """Build a :attr:`PMStore.fault_hooks` callback that raises
        :class:`TransientFault` on a deterministic ``rate`` fraction of
        operations, at most ``max_failures_per_key`` times per (op,
        key) — so a retrying caller always eventually succeeds.

        Each raise is also recorded as a ``transient`` event, letting
        tests assert the exact injected-vs-retried counts.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        failures: dict[tuple[str, str], int] = {}
        self._hook_count += 1
        rng = self._stream(f"transient:{self._hook_count}")

        def hook(op: str, key: str) -> None:
            if op not in ops:
                return
            seen = failures.get((op, key), 0)
            if seen >= max_failures_per_key:
                return
            if rng.random() < rate:
                failures[(op, key)] = seen + 1
                self.events.append(
                    FaultEvent("transient", -1, -1, f"{op} {key!r}"))
                raise TransientFault(f"transient {op} failure on {key!r}")

        return hook

    def storm_hook(self, clock_fn: Callable[[], float], *,
                   start_ns: float, end_ns: float, rate: float = 0.8,
                   max_failures_per_key: int = 2,
                   ops: tuple[str, ...] = ("put", "get"),
                   ) -> Callable[[str, str], None]:
        """A *time-windowed* transient-fault storm.

        Like :meth:`transient_hook` but active only while the simulated
        clock (read through ``clock_fn``, e.g. ``lambda:
        service.clock_ns``) is inside ``[start_ns, end_ns)`` — the chaos
        engine's "retry storm" primitive. The per-key failure cap keeps
        a retrying caller convergent even at ``rate=1.0``.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if end_ns <= start_ns:
            raise ValueError(f"empty storm window [{start_ns}, {end_ns})")
        failures: dict[tuple[str, str], int] = {}
        self._hook_count += 1
        rng = self._stream(f"storm:{self._hook_count}")

        def hook(op: str, key: str) -> None:
            if op not in ops or not start_ns <= clock_fn() < end_ns:
                return
            seen = failures.get((op, key), 0)
            if seen >= max_failures_per_key:
                return
            if rng.random() < rate:
                failures[(op, key)] = seen + 1
                self.events.append(
                    FaultEvent("transient", -1, -1,
                               f"storm {op} {key!r}"))
                raise TransientFault(
                    f"storm: transient {op} failure on {key!r}")

        return hook
