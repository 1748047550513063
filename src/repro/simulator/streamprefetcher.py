"""L2 stream ("streamer") hardware prefetcher model.

Per-core, keyed by 4 KB page, with an LRU stream table. Behaviour is
distilled from the reverse-engineering literature the paper cites
(Rohan et al. EuroS&P'20 W, Didier et al. SBAC-PAD'22) plus the paper's
own Obs. 3:

* A stream trains after ``train_threshold`` ascending accesses in a page.
* Confidence grows with each further sequential access; the
  prefetch-ahead distance ramps with confidence up to ``max_distance``.
* Prefetches never cross the 4 KB page boundary.
* The table holds ``max_streams`` entries (32 on the paper's Cascade
  Lake). When more streams are live than entries, LRU replacement
  evicts streams before they ever train — coverage collapses to zero.
  This is the k > 32 cliff of Fig. 5.
* Non-sequential access within a page (DIALGA's shuffle mapping)
  never raises confidence, so no prefetches are issued — the paper's
  §4.2 fine-grained "switch".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.simulator.params import PrefetcherConfig


@dataclass(slots=True)
class _Stream:
    last_line: int       # last accessed line index within the page
    confidence: int      # sequential-hit count
    max_prefetched: int  # highest line index already prefetched


class StreamPrefetcher:
    """One core's L2 streamer: the LRU stream table, keyed by page.

    State only: :func:`repro.simulator.engine.interpret` trains the
    streams and issues the prefetches described above.
    """

    def __init__(self, config: PrefetcherConfig):
        self.config = config
        self._table: OrderedDict[int, _Stream] = OrderedDict()

    # -- fast-forward hooks ------------------------------------------------

    def state_digest(self, addr_shift: int) -> tuple:
        """Shift-invariant digest of the stream table (LRU order).

        ``addr_shift`` must be a multiple of the page size; pages are
        rebased by the page shift, everything else is page-relative
        already (line indices, confidence).
        """
        page_shift = addr_shift // self.config.page_bytes
        return tuple(
            (page - page_shift, s.last_line, s.confidence, s.max_prefetched)
            for page, s in self._table.items())

    def relabel(self, addr_shift: int) -> None:
        """Translate every tracked stream by ``addr_shift`` bytes."""
        page_shift = addr_shift // self.config.page_bytes
        if not page_shift:
            return
        self._table = OrderedDict(
            (page + page_shift, s) for page, s in self._table.items())
