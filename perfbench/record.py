"""Re-record the output digests the benchmark checks against.

Run from the repository root after a change that is *meant* to alter an
output (a report format, a simulator semantics change)::

    python3 perfbench/record.py

It runs one pass of every workload on every recorded input in ``record``
mode, cross-checks the daemon's fleet reports against the same params run
in-process through the CLI's spec builder, and rewrites ``digests.json``.
Review the diff: every changed digest is a changed output.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from run import run_pass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")


def record_pass(workload: str, index: int, scratch: str) -> dict:
    report = run_pass(workload, index, False, scratch, None, mode="record")
    if report["failed"]:
        raise SystemExit(f"{workload}/{index}: {report['errors']}")
    return report["digests"]


def cli_fleet_digest(index: int) -> str:
    """The same fleet job, run in-process the way ``repro fleet`` runs it."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from child import BASE_SEED, SERVE_FLEET_DEVICES
    from repro.fleet.run import run_fleet
    from repro.serve.protocol import fleet_spec_from_params

    spec = fleet_spec_from_params({"devices": SERVE_FLEET_DEVICES,
                                   "seed": BASE_SEED + index})
    text = run_fleet(spec, jobs=1).to_json()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    with open(DIGESTS, encoding="utf-8") as handle:
        inputs = json.load(handle)["inputs"]
    state_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(state_dir, exist_ok=True)
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory(dir=state_dir) as scratch:
        # The paper pass has fixed inputs: one recording covers all.
        digests.update(record_pass("paper", 0, scratch))
        for index in range(inputs):
            for workload in ("fleet", "hunt", "serve"):
                digests.update(record_pass(workload, index, scratch))
            key = f"serve/fleet/{index}"
            if digests[key] != cli_fleet_digest(index):
                raise SystemExit(f"{key}: daemon report differs from the "
                                 "in-process CLI run")
            print(f"input {index}: recorded", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump({"inputs": inputs, "digests": dict(sorted(
            digests.items()))}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(DIGESTS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
