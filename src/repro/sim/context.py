"""Simulation context: the one object every framework layer shares.

A :class:`SimContext` bundles the virtual clock, the event scheduler, the
deterministic RNG, the calibrated cost model, the trace recorder, and the
memory accountant.  Creating a fresh context gives a fully isolated
simulated device — tests and experiments never share state.
"""

from __future__ import annotations

from repro.metrics.memory import MemoryAccountant
from repro.metrics.recorder import TraceRecorder
from repro.sim.clock import VirtualClock
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.rng import DeterministicRng
from repro.sim.scheduler import Scheduler
from repro.trace.tracer import NULL_TRACER


class SimContext:
    """Shared state of one simulated device run."""

    def __init__(
        self,
        costs: CostModel | None = None,
        seed: int = 0x5EED,
    ):
        self.clock = VirtualClock()
        self.scheduler = Scheduler(self.clock)
        self.rng = DeterministicRng(seed)
        self.costs = costs if costs is not None else DEFAULT_COSTS
        self.recorder = TraceRecorder()
        self.memory = MemoryAccountant(self.clock, self.recorder)
        self.tracer = NULL_TRACER
        """Causal span tracer; ``repro.trace.hooks`` installs a real one.
        Framework hook sites read this attribute, so the disabled cost is
        one attribute load and a no-op call."""
        self._id_counters: dict[str, int] = {}

    def next_id(self, namespace: str, start: int = 1) -> int:
        """Per-context monotonically increasing id (instances, tokens,
        tasks).  Keeping the counters on the context — not module
        globals — makes two identical runs produce identical traces."""
        value = self._id_counters.get(namespace, start - 1) + 1
        self._id_counters[namespace] = value
        return value

    def peek_id(self, namespace: str, start: int = 1) -> int:
        """The id the next :meth:`next_id` call would return, not taken."""
        return self._id_counters.get(namespace, start - 1) + 1

    def skip_ids(self, namespace: str, count: int, start: int = 1) -> None:
        """Take the next ``count`` ids at once, leaving the counter where
        ``count`` :meth:`next_id` calls would (untouched for 0)."""
        if count:
            self._id_counters[namespace] = (
                self._id_counters.get(namespace, start - 1) + count
            )

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now_ms(self) -> float:
        return self.clock.now_ms

    def consume(
        self,
        duration_ms: float,
        process: str,
        thread: str = "ui",
        label: str = "",
    ) -> None:
        """Perform ``duration_ms`` of synchronous work on a simulated thread.

        Advances the clock in place and attributes the busy time to
        ``process``/``thread`` for the profiler.  Zero-cost calls are
        dropped silently so call sites don't need to guard.
        """
        if duration_ms <= 0:
            return
        start = self.clock.now_ms
        self.clock.advance(duration_ms)
        self.recorder.record_busy(process, thread, start, duration_ms, label)

    # ------------------------------------------------------------------
    # convenience passthroughs
    # ------------------------------------------------------------------
    def schedule(self, delay_ms: float, callback, label: str = ""):
        return self.scheduler.schedule(delay_ms, callback, label)

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        return self.scheduler.run_until_idle(max_events)

    def run_until(self, deadline_ms: float, max_events: int = 1_000_000) -> int:
        return self.scheduler.run_until(deadline_ms, max_events)

    def mark(self, kind: str, detail: str = "", process: str = "") -> None:
        self.recorder.record_event(self.now_ms, kind, detail, process)
