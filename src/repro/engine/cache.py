"""Two-tier content-addressed result cache.

Tier 1 is a plain in-process dict holding the decoded result objects, so
a second experiment in the same process that shares runs with a first
(Fig. 7 and Fig. 8 share all 54 of theirs) never re-simulates or even
re-reads disk.  Tier 2 is a JSON file per result under
``.repro-cache/v<schema>/<kk>/<key>.json``, so a *later* process skips
completed simulations too.

Keys are the content fingerprints of :mod:`repro.engine.fingerprint`;
the schema version is folded into both the key and the directory name,
so bumping :data:`~repro.engine.fingerprint.CACHE_SCHEMA_VERSION`
invalidates every old entry without touching the files.

Unreadable or corrupt disk entries are treated as misses — a cache must
never be able to fail a run it could instead repopulate.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine.codec import decode_result, encode_result
from repro.engine.fingerprint import CACHE_SCHEMA_VERSION
from repro.errors import EngineError

DEFAULT_CACHE_ROOT = ".repro-cache"


@dataclass
class CacheStats:
    """Hit/miss accounting, split by tier."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


@dataclass
class ResultCache:
    """Memory + disk cache of scenario results, keyed by content hash."""

    root: Path | None = Path(DEFAULT_CACHE_ROOT)
    schema_version: int = CACHE_SCHEMA_VERSION
    stats: CacheStats = field(default_factory=CacheStats)
    _memory: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.root is not None:
            self.root = Path(self.root)

    # ------------------------------------------------------------------
    def get(self, key: str) -> tuple[bool, Any]:
        """Look ``key`` up; returns ``(hit, result)``."""
        if key in self._memory:
            self.stats.memory_hits += 1
            return True, self._memory[key]
        result = self._read_disk(key)
        if result is not None:
            self.stats.disk_hits += 1
            self._memory[key] = result
            return True, result
        self.stats.misses += 1
        return False, None

    def put(self, key: str, result: Any) -> None:
        """Store a freshly computed result in both tiers."""
        self._memory[key] = result
        self.stats.stores += 1
        if self.root is None:
            return
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = json.dumps(
                {"key": key, "schema": self.schema_version,
                 "result": encode_result(result)},
                sort_keys=True,
            )
            # Atomic publish: a concurrent reader sees the old file or
            # the complete new one, never a torn write.
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(payload)
            os.replace(tmp, path)
        except OSError:
            pass  # a read-only or full disk degrades to memory-only

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"v{self.schema_version}" / key[:2] / f"{key}.json"

    def _read_disk(self, key: str) -> Any:
        if self.root is None:
            return None
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            if payload.get("key") != key:
                return None
            return decode_result(payload["result"])
        except (OSError, ValueError, KeyError, TypeError, EngineError):
            return None
