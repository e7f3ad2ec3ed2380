"""The third cache tier: prefix snapshots.

Where the result cache (:mod:`repro.engine.cache`) skips *finished* runs,
the snapshot store skips the *shared prefix* of unfinished ones: a
:class:`~repro.sim.snapshot.SystemSnapshot` keyed by the prefix
fingerprint of a request group (see ``RunRequest.prefix_key``).  Memory
tier for groups inside one process; optional disk tier under
``.repro-cache/snapshots/`` so a later process — or a sweep over *new*
divergent values whose results are uncached — still skips the prefix.

Disk entries live under ``v<SNAPSHOT_FORMAT_VERSION>/``.  Payloads are
stock pickle with no code objects, so every supported interpreter shares
one store.  As with the result cache, anything unreadable is a miss,
never an error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import SnapshotError
from repro.sim.snapshot import SNAPSHOT_FORMAT_VERSION, SystemSnapshot


@dataclass
class SnapshotStats:
    """Hit/miss accounting, split by tier."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


@dataclass
class SnapshotStore:
    """Memory (+ optional disk) store of prefix snapshots.

    ``root=None`` keeps the store purely in-memory — the per-batch
    ephemeral form used when result caching is off.
    """

    root: Path | None = None
    stats: SnapshotStats = field(default_factory=SnapshotStats)
    _memory: dict[str, SystemSnapshot] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.root is not None:
            self.root = Path(self.root)

    # ------------------------------------------------------------------
    def get(self, key: str) -> SystemSnapshot | None:
        snap = self._memory.get(key)
        if snap is not None:
            self.stats.memory_hits += 1
            return snap
        snap = self._read_disk(key)
        if snap is not None:
            self.stats.disk_hits += 1
            self._memory[key] = snap
            return snap
        self.stats.misses += 1
        return None

    def put(self, key: str, snap: SystemSnapshot) -> None:
        self._memory[key] = snap
        self.stats.stores += 1
        if self.root is None:
            return
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish, same discipline as the result cache.
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_bytes(snap.to_bytes())
            os.replace(tmp, path)
        except (OSError, SnapshotError):
            pass  # read-only disk / unsnapshotable degrade to memory-only

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        assert self.root is not None
        return (self.root / f"v{SNAPSHOT_FORMAT_VERSION}" / key[:2]
                / f"{key}.snap")

    def _read_disk(self, key: str) -> SystemSnapshot | None:
        if self.root is None:
            return None
        try:
            return SystemSnapshot.from_bytes(self._path(key).read_bytes())
        except (OSError, SnapshotError):
            return None
