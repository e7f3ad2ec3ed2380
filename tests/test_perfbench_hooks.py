"""The names perfbench reaches into ``src/`` by, checked at test time.

perfbench (``perfbench/``) times the program by rebinding module
attributes and class methods by name, calls one private fleet helper
directly, and reads daemon status keys.  A rename or deletion of any of
them would otherwise surface only when the benchmark runs.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.engine.snapshots import SnapshotStore
from repro.fleet.run import FleetSpec, _load_worker_template, template_key
from repro.serve.server import Daemon
from repro.sim.snapshot import SystemSnapshot

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracing_installs_over_every_hooked_name():
    # In a subprocess: installing rebinds names process-wide.
    script = (
        "import tracing\n"
        "tracing.install_checkpoints([])\n"
        "tracing.install(tracing.Tracer('t'))\n"
        "print('installed')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "perfbench"), os.path.join(REPO, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"


def test_fleet_template_helper_takes_the_benchmark_call(tmp_path):
    spec = FleetSpec(devices_per_cell=1)
    root = str(tmp_path / "templates")
    key = template_key(spec, 0)
    snap = _load_worker_template(root, key, spec, 0, persist=True)
    assert isinstance(snap, SystemSnapshot)
    assert SnapshotStore(root=root)._read_disk(key) is not None


def test_daemon_status_carries_the_benchmark_keys(tmp_path):
    daemon = Daemon(jobs=1, root=str(tmp_path / "daemon"))
    try:
        status = daemon.status()
    finally:
        daemon.shutdown()
    assert isinstance(status["resident"]["template_warm_hits"], int)
    assert isinstance(status["result_cache_entries"], int)
    assert isinstance(status["pool"]["respawns"], int)
