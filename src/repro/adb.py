"""An ``adb shell``-style facade over a simulated device.

The paper's artifact appendix (A.5/A.6) drives every experiment through
adb: trigger changes with ``wm size 1080x1920`` / ``wm size reset``,
read app memory from ``dumpsys meminfo`` ("Total PSS by process"), and
read handling times from ``logcat | grep "zizhan"`` (the authors' debug
tag).  This module reproduces that exact workflow against an
:class:`~repro.system.AndroidSystem`, so the repository's examples can
follow the artifact's steps line by line.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

from repro.android.res import DEFAULT_LANDSCAPE

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import AndroidSystem

LOG_TAG = "zizhan"  # the artifact's logcat filter tag


class AdbShell:
    """The artifact's command surface."""

    def __init__(self, system: "AndroidSystem"):
        self.system = system
        self._default_size = (
            DEFAULT_LANDSCAPE.width_px, DEFAULT_LANDSCAPE.height_px
        )

    # ------------------------------------------------------------------
    # wm
    # ------------------------------------------------------------------
    def wm_size(self, spec: str) -> str:
        """``adb shell wm size WxH`` (or ``wm size reset``)."""
        if spec.strip() == "reset":
            width, height = self._default_size
        else:
            width_text, height_text = spec.lower().split("x")
            width, height = int(width_text), int(height_text)
        path = self.system.resize(width, height)
        return f"Physical size override: {width}x{height} ({path})"

    def wm_size_reset(self) -> str:
        return self.wm_size("reset")

    # ------------------------------------------------------------------
    # dumpsys
    # ------------------------------------------------------------------
    def dumpsys_meminfo(self, package: str | None = None) -> str:
        """``adb shell dumpsys meminfo [package]``.

        Renders the "Total PSS by process" block the artifact reads app
        memory from (A.5).
        """
        ledgers = self.system.ctx.memory
        packages = (
            [package] if package is not None
            else sorted(self.system.atms.threads)
        )
        lines = ["Total PSS by process:"]
        rows = sorted(
            ((ledgers.total_mb(pkg), pkg) for pkg in packages), reverse=True
        )
        for mb, pkg in rows:
            kb = int(mb * 1024)
            lines.append(f"    {kb:>9,}K: {pkg} (pid {_pid(pkg)})")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # logcat
    # ------------------------------------------------------------------
    def logcat(self, grep: str | None = None) -> list[str]:
        """``adb logcat [| grep <tag>]``.

        Handling episodes appear under the paper's ``zizhan`` tag with
        their measured duration; crashes appear as ``AndroidRuntime``
        fatals; other recorded point events appear under ``ActivityTaskManager``.
        """
        lines: list[str] = []
        recorder = self.system.ctx.recorder
        for record in recorder.latencies_named("handling"):
            package, path = record.detail.split("|", 1)
            lines.append(
                f"{_timestamp(record.end_ms)} I/{LOG_TAG}: runtime change "
                f"handled in {record.duration_ms:.1f} ms path={path} "
                f"pkg={package}"
            )
        for crash in recorder.crashes:
            lines.append(
                f"{_timestamp(crash.when_ms)} E/AndroidRuntime: FATAL "
                f"EXCEPTION: main ({crash.process}) {crash.exception}: "
                f"{crash.message}"
            )
        for event in recorder.events:
            lines.append(
                f"{_timestamp(event.when_ms)} D/ActivityTaskManager: "
                f"{event.kind} {event.detail}"
            )
        lines.sort()
        if grep is not None:
            lines = [line for line in lines if grep in line]
        return lines

    def handling_times_from_logcat(self) -> list[float]:
        """The artifact's measurement: parse the zizhan lines (A.5)."""
        times: list[float] = []
        for line in self.logcat(grep=LOG_TAG):
            marker = "handled in "
            start = line.index(marker) + len(marker)
            end = line.index(" ms", start)
            times.append(float(line[start:end]))
        return times


def _pid(package: str) -> int:
    """A stable fake pid: ``hash()`` of a str is salted per process."""
    return 1000 + zlib.crc32(package.encode("utf-8")) % 999


def _timestamp(when_ms: float) -> str:
    total_seconds, ms = divmod(int(when_ms), 1000)
    minutes, seconds = divmod(total_seconds, 60)
    hours, minutes = divmod(minutes, 60)
    return f"{hours:02d}:{minutes:02d}:{seconds:02d}.{ms:03d}"
