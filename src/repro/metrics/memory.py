"""Simulated memory accounting (per-process PSS model).

Framework objects register a footprint when created and unregister it when
destroyed; the accountant keeps a per-process ledger and mirrors every
change into the trace recorder as a heap sample, which is what the
profiler bins into the Figure 9 memory curve.

When a process crashes, :meth:`MemoryAccountant.drop_process` zeroes the
ledger — this is how the "memory drops to 0 MB" event of Figure 9 appears
in traces.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import reduce
from itertools import accumulate, repeat
from operator import add
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.recorder import TraceRecorder
    from repro.sim.clock import VirtualClock


if sys.version_info < (3, 12):
    def _fold(ledger: dict[Hashable, float]) -> float:
        """``0 + mb1 + mb2 + ...`` in the ledger's insertion order.

        Before 3.12, ``sum()`` is exactly this fold (it adds left to
        right in one C double, from the int ``0``) and takes a quarter
        of the time of ``reduce``, which builds a float per step."""
        return sum(ledger.values())
else:
    def _fold(ledger: dict[Hashable, float]) -> float:
        """``0 + mb1 + mb2 + ...`` in the ledger's insertion order."""
        return reduce(add, ledger.values(), 0)


class MemoryAccountant:
    """Ledger of simulated allocations, keyed by (process, owner).

    Each process's total is kept as the left fold of its ledger in
    insertion order (:func:`_fold`), so adding a new owner is the one
    addition ``total + mb`` and costs O(1).  The fold is defined exactly,
    not as "the sum": CPython 3.12's ``sum()`` of floats is compensated
    and can differ in the last bits from 3.11's plain left-to-right
    addition, which made the heap series interpreter-dependent (before
    3.12, ``sum()`` computes exactly the fold, and :func:`_fold` uses
    it).  An empty ledger totals the int ``0``.

    Every change appends one heap sample to the recorder's columns.  A
    view tree registers and releases its views through
    :meth:`allocate_many` and :meth:`free_many`, which make exactly the
    ledger changes, totals and samples of one :meth:`allocate` or
    :meth:`free` per entry, and append the samples in one go.
    """

    def __init__(self, clock: "VirtualClock", recorder: "TraceRecorder"):
        self._clock = clock
        self._recorder = recorder
        self._ledgers: dict[str, dict[Hashable, float]] = defaultdict(dict)
        self._totals: dict[str, float] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def allocate(self, process: str, owner: Hashable, mb: float) -> None:
        """Attribute ``mb`` megabytes to ``owner`` inside ``process``.

        Re-allocating the same owner replaces its footprint (an object that
        grows, e.g. an ImageView that decodes a bitmap).
        """
        self.allocate_many(process, ((owner, mb),))

    def allocate_many(
        self, process: str, entries: Sequence[tuple[Hashable, float]]
    ) -> None:
        """:meth:`allocate` each ``(owner, mb)`` of ``entries`` in order.

        When every owner is new (to the ledger and within ``entries``),
        nothing is replaced and the totals are the running left fold
        from the current total: one ``dict.update`` and one
        ``accumulate`` make them, as a fresh view tree's registration
        does.
        """
        ledger = self._ledgers[process]
        total = self._totals.get(process, 0)
        added = dict(entries)
        if len(added) == len(entries) and ledger.keys().isdisjoint(added):
            if not added:
                return
            ledger.update(added)
            totals = list(accumulate(added.values(), add, initial=total))
            del totals[0]
            self._totals[process] = totals[-1]
            self._record(repeat(process, len(totals)), totals)
            return
        totals = []
        for owner, mb in entries:
            replacing = owner in ledger
            ledger[owner] = mb
            total = _fold(ledger) if replacing else total + mb
            totals.append(total)
        if totals:
            self._totals[process] = total
            self._record(repeat(process, len(totals)), totals)

    def free(self, process: str, owner: Hashable) -> None:
        """Release ``owner``'s footprint; freeing twice is a no-op."""
        self.free_many(((process, owner),))

    def free_many(self, entries: Iterable[tuple[str, Hashable]]) -> None:
        """:meth:`free` each ``(process, owner)`` of ``entries`` in order.

        Each release refolds the process's remaining ledger, as
        :meth:`free` does: the total stays the exact left fold.
        """
        processes = []
        totals = []
        for process, owner in entries:
            ledger = self._ledgers[process]
            if ledger.pop(owner, None) is not None:
                total = self._totals[process] = _fold(ledger)
                processes.append(process)
                totals.append(total)
        if totals:
            self._record(processes, totals)

    def drop_process(self, process: str) -> None:
        """Zero a process ledger (process death / crash)."""
        self._ledgers[process] = {}
        self._totals[process] = 0
        self._recorder.record_heap(self._clock.now_ms, process, 0)

    def _record(self, processes: Iterable[str], totals: list[float]) -> None:
        """One heap sample per total, all at the current instant."""
        recorder = self._recorder
        recorder.heap_when_ms.extend(repeat(self._clock.now_ms, len(totals)))
        recorder.heap_process.extend(processes)
        recorder.heap_mb.extend(totals)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def total_mb(self, process: str) -> float:
        return self._totals.get(process, 0)

    def owners(self, process: str) -> list[Hashable]:
        return list(self._ledgers[process])

    def footprint_mb(self, process: str, owner: Hashable) -> float:
        return self._ledgers[process].get(owner, 0.0)
