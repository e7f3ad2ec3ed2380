"""Benchmark and acceptance gates for the simulation daemon.

``python -m repro bench-engine serve [--devices N] [-o PATH] [--check]``
measures what fleet-as-a-service actually buys on this host and writes
``BENCH_serve.json``.  The comparison is *request latency*, daemon
amortisation included by design: a cold CLI invocation pays interpreter
boot plus every cohort template build on every call, while a warm
daemon request reuses its template store and the workers' own caches.

Gated (``--check`` exits non-zero on violation):

* **warm speedup** — a warm daemon request at least
  ``SERVE_WARM_SPEEDUP_GATE``× faster than the cold CLI run of the
  identical spec;
* **warm reuse** — the second request found its templates in the
  daemon's store (``template_warm_hits`` advanced; nothing was rebuilt);
* **byte identity** — the daemon's report (first and warm alike) is
  byte-identical to the CLI's ``-o`` file for the same params.

Reported, not gated (host-shape dependent): concurrent two-client
throughput, event interleaving across clients, and cancellation
turnaround.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Any

DEFAULT_SERVE_OUTPUT = "BENCH_serve.json"

#: A warm daemon request must beat the cold CLI by at least this factor
#: on the 1-core CI host.  The CLI pays interpreter boot + all template
#: builds per invocation; the daemon pays them once per template ever.
SERVE_WARM_SPEEDUP_GATE = 3.0

#: Fleet size for the benchmark spec: small enough that the CI host
#: finishes in seconds, large enough that template provisioning (what
#: the daemon amortises) dominates the cold run.
DEFAULT_SERVE_DEVICES = 18

_SEED = 0x5EED


def _repro_env() -> dict[str, str]:
    from repro.engine.bench import _repro_env as env

    return env()


def _start_daemon(root: str):
    """Launch ``repro serve`` and wait for its ready file."""
    from repro.errors import ServeError

    ready = os.path.join(root, "ready.json")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--ready-file", ready, "--jobs", "1"],
        env=_repro_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 60.0
    while not os.path.exists(ready):
        if proc.poll() is not None or time.monotonic() > deadline:
            output = proc.stdout.read() if proc.stdout else ""
            proc.kill()
            raise ServeError(
                f"daemon failed to start: {output.strip()[-500:]}"
            )
        time.sleep(0.05)
    with open(ready, encoding="utf-8") as handle:
        url = json.load(handle)["url"]
    return proc, url


def run_serve_bench(devices: "int | None" = None) -> dict[str, Any]:
    from repro.serve.client import DaemonClient

    devices = DEFAULT_SERVE_DEVICES if devices is None else devices
    params = {"devices": devices, "seed": _SEED}
    report: dict[str, Any] = {
        "host": {"cpu_count": os.cpu_count() or 1},
        "params": params,
        "gate": SERVE_WARM_SPEEDUP_GATE,
    }

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as root:
        # --- cold CLI: what every scripted invocation pays ------------
        cli_out = os.path.join(root, "cli.json")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fleet",
             "--devices", str(devices), "--seed", str(_SEED),
             "--jobs", "1", "-o", cli_out],
            env=_repro_env(), capture_output=True, text=True,
            timeout=1800,
        )
        cold_cli_s = time.perf_counter() - start
        if proc.returncode != 0:
            report["error"] = ("cold CLI run failed: "
                               + (proc.stderr or proc.stdout)[-500:])
            return report
        with open(cli_out, encoding="utf-8") as handle:
            cli_report = handle.read().rstrip("\n")

        # --- the daemon ----------------------------------------------
        daemon, url = _start_daemon(root)
        try:
            client = DaemonClient(url, client="bench")

            start = time.perf_counter()
            first = client.run("fleet", params)
            daemon_first_s = time.perf_counter() - start
            hits_before = client.status()["resident"][
                "template_warm_hits"]

            # Best of three warm requests: the gate measures the warm
            # path's cost, not CI scheduler noise on a ~40ms interval.
            daemon_warm_s = float("inf")
            warm: dict = {}
            for _ in range(3):
                start = time.perf_counter()
                warm = client.run("fleet", params)
                daemon_warm_s = min(daemon_warm_s,
                                    time.perf_counter() - start)
            status = client.status()
            warm_hits = (status["resident"]["template_warm_hits"]
                         - hits_before)

            # --- concurrency: two clients, interleaved shards --------
            second_client = DaemonClient(url, client="bench-2")
            start = time.perf_counter()
            job_a = client.submit("fleet", params)
            job_b = second_client.submit("fleet", params)
            events_a = list(client.events(job_a))
            events_b = list(second_client.events(job_b))
            concurrent_s = time.perf_counter() - start

            # --- cancellation turnaround -----------------------------
            # A much larger fleet over the *same* templates (same seed,
            # so nothing to rebuild): big enough that the cancel lands
            # mid-run instead of racing a finished job.
            big = {"devices": devices * 40, "seed": _SEED}
            start = time.perf_counter()
            cancel_job = client.submit("fleet", big)
            cancelled = client.cancel(cancel_job)
            cancel_events = list(client.events(cancel_job))
            cancel_s = time.perf_counter() - start
            after_cancel = client.run("fleet", params)

            client.shutdown()
            daemon.wait(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()

        report.update({
            "seconds": {
                "cold_cli": round(cold_cli_s, 4),
                "daemon_first": round(daemon_first_s, 4),
                "daemon_warm": round(daemon_warm_s, 4),
                "concurrent_pair": round(concurrent_s, 4),
                "cancel_turnaround": round(cancel_s, 4),
            },
            "warm_speedup_vs_cli": round(cold_cli_s / daemon_warm_s, 2)
            if daemon_warm_s else float("inf"),
            "warm_template_hits": warm_hits,
            "identical": {
                "daemon_first_vs_cli":
                    first.get("report_json") == cli_report,
                "daemon_warm_vs_cli":
                    warm.get("report_json") == cli_report,
                "concurrent_vs_cli":
                    events_a[-1].get("report_json") == cli_report
                    and events_b[-1].get("report_json") == cli_report,
                "after_cancel_vs_cli":
                    after_cancel.get("report_json") == cli_report,
            },
            "cancelled_cleanly":
                bool(cancelled.get("cancelled"))
                and cancel_events[-1]["event"] == "cancelled",
            "daemon_exit": daemon.returncode,
        })
    return report


def check_serve_report(report: dict[str, Any]) -> list[str]:
    """Acceptance failures for the daemon benchmark (empty = pass)."""
    failures: list[str] = []
    if "error" in report:
        return [report["error"]]
    seconds = report["seconds"]
    gate = report["gate"]
    if seconds["daemon_warm"] * gate > seconds["cold_cli"]:
        failures.append(
            f"warm daemon request not {gate}x faster than cold CLI "
            f"({seconds['daemon_warm']}s warm vs "
            f"{seconds['cold_cli']}s cold)"
        )
    if report["warm_template_hits"] <= 0:
        failures.append(
            "second request did not reuse the daemon's stored templates"
        )
    for pair, same in report["identical"].items():
        if not same:
            failures.append(f"{pair}: daemon report differs from CLI")
    if not report["cancelled_cleanly"]:
        failures.append("cancellation did not end in a cancelled event")
    if report["daemon_exit"] != 0:
        failures.append(
            f"daemon exited {report['daemon_exit']} after shutdown"
        )
    return failures


def format_serve_report(report: dict[str, Any]) -> str:
    if "error" in report:
        return f"serve benchmark FAILED: {report['error']}"
    seconds = report["seconds"]
    lines = [
        f"serve benchmark — {report['params']['devices']} devices, "
        f"host cpus={report['host']['cpu_count']}",
        f"  cold CLI run:        {seconds['cold_cli']:8.3f} s",
        f"  daemon first request:{seconds['daemon_first']:8.3f} s",
        f"  daemon warm request: {seconds['daemon_warm']:8.3f} s   "
        f"({report['warm_speedup_vs_cli']}x vs cold CLI, "
        f"gate {report['gate']}x)",
        f"  concurrent pair:     {seconds['concurrent_pair']:8.3f} s",
        f"  cancel turnaround:   {seconds['cancel_turnaround']:8.3f} s",
        f"  warm template hits:  {report['warm_template_hits']}",
        "  identity: " + ", ".join(
            f"{name}={'ok' if same else 'DIFFERS'}"
            for name, same in report["identical"].items()
        ),
    ]
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    devices: "int | None" = None
    output = DEFAULT_SERVE_OUTPUT
    check = False
    while argv:
        arg = argv.pop(0)
        if arg == "--devices" and argv:
            devices = int(argv.pop(0))
        elif arg in ("-o", "--output") and argv:
            output = argv.pop(0)
        elif arg == "--check":
            check = True
        else:
            print(f"serve bench: unknown argument {arg!r}",
                  file=sys.stderr)
            return 2
    from repro.engine.bench import write_report

    report = run_serve_bench(devices=devices)
    write_report(report, output)
    print(format_serve_report(report))
    print(f"wrote {output}")
    failures = check_serve_report(report)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if (check and failures) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
