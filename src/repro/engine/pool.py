"""A worker pool whose lifetime is decoupled from one batch.

A pooled ``run_batch`` or ``run_fleet`` spawns a :class:`PersistentPool`
per call — correct, but each invocation pays the full pool-spawn tax
and throws away whatever the workers had warmed up (per-process
template caches, imported modules, built corpora).  The daemon
(:mod:`repro.serve`) instead owns one
:class:`PersistentPool` for its whole life: workers survive across
jobs, so a second request touching the same cohort templates finds
them already cached in worker memory.

The pool is deliberately plain:

* **lazy** — no worker processes exist until the first ``submit``;
* **self-healing** — a broken pool (a worker SIGKILLed mid-task, a
  fork bomb of an OS error) is discarded and respawned on the next
  submit; the failed task's future still fails, the *pool* recovers;
* **degradable** — hosts without usable multiprocessing fall back to a
  thread pool of the same width (the simulator is pure Python, so
  results are identical; only wall-clock parallelism is lost).

Task functions must be picklable module-level callables, same contract
as ``concurrent.futures``.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any, Callable


class PersistentPool:
    """A lazily spawned, respawnable process pool of fixed width."""

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self._pool = None
        self._threads = False
        self.respawns = 0

    # ------------------------------------------------------------------
    def _spawn(self):
        from concurrent.futures import (
            ProcessPoolExecutor,
            ThreadPoolExecutor,
        )

        try:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._threads = False
        except (OSError, ValueError):  # no usable multiprocessing here
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
            self._threads = True
        return self._pool

    @property
    def using_threads(self) -> bool:
        """True when the degraded thread-pool fallback is active."""
        return self._threads

    @property
    def alive(self) -> bool:
        return self._pool is not None

    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future":
        """Schedule ``fn(*args)``; respawn the pool first if it broke."""
        pool = self._pool or self._spawn()
        try:
            return pool.submit(fn, *args)
        except Exception:
            # BrokenExecutor (a worker died) or a pool already shut
            # down: replace it and retry once.  A second failure is the
            # caller's to handle.
            self._discard()
            self.respawns += 1
            return self._spawn().submit(fn, *args)

    def shutdown(self) -> None:
        """Stop the workers (idempotent); the next submit respawns."""
        self._discard(wait=True)

    # ------------------------------------------------------------------
    def _discard(self, wait: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=wait, cancel_futures=True)
        except Exception:
            pass
