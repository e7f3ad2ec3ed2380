"""CLI: ``python -m repro.harness.experiments [id ...] [options]``.

Without arguments, lists the available experiment ids.  With ids, runs
each experiment and prints its paper-style report.

Options (consumed anywhere on the line; declared in ``repro.options``):

* ``--jobs N``   — fan independent simulation runs across N worker
  processes (``auto``, the default, uses one per CPU core; results are
  byte-identical to serial).
* ``--no-cache`` — disable the content-addressed result cache.  The
  cache is on by default for CLI runs and lives in ``.repro-cache/``;
  a second run of the same experiment (or one sharing runs, like fig7
  after fig8) skips completed simulations.
* ``--cache-root PATH`` — put the cache somewhere else.
* ``--no-snapshots`` — disable prefix-snapshot sharing: run every
  uncached simulation from scratch instead of forking sweeps that share
  a prefix from a device checkpoint.
* ``--verify-forks`` — after each shared group, re-run a sample of the
  forked cells from scratch and fail unless byte-identical.
"""

from __future__ import annotations

import importlib
import sys

from repro import engine
from repro.errors import SimulationError
from repro.harness.experiments import REGISTRY
from repro.options import parse, usage

_MODULES = {
    "table2": "table2", "table3": "table3", "table5": "table5",
    "fig7": "fig7", "fig8": "fig8", "fig9": "fig9", "fig10": "fig10",
    "fig11": "fig11", "fig12": "fig12", "fig13": "fig13", "fig14": "fig14",
    "sec5.6-energy": "sec56_energy", "sec5.7-deployment": "sec57_deployment",
    "ext-fleet": "ext_fleet",
    "ext-fragments": "ext_fragments", "ext-oracle": "ext_oracle",
    "ext-probes": "ext_probes",
    "ext-robustness": "ext_robustness", "ext-sessions": "ext_sessions",
}


def main(argv: list[str]) -> int:
    opts = parse("experiments", argv)
    if isinstance(opts, int):
        return opts
    keys = opts["experiment"]
    if not keys:
        print("available experiments:")
        for key in REGISTRY:
            print(f"  {key}")
        print(usage("experiments"))
        return 0
    for key in keys:
        if key not in _MODULES:
            print(f"unknown experiment {key!r}; known: {', '.join(_MODULES)}")
            return 2
    previous = engine.configure(
        jobs=opts["jobs"],
        cache=not opts["no_cache"],
        cache_root=opts["cache_root"],
        snapshots=False if opts["no_snapshots"] else None,
        verify_forks=True if opts["verify_forks"] else None,
    )
    try:
        for key in keys:
            module = importlib.import_module(
                f"repro.harness.experiments.{_MODULES[key]}"
            )
            print(module.format_report(module.run()))
            print()
    except SimulationError as error:
        # A typed simulator failure (a batch worker that died, a
        # snapshot that cannot be restored, ...) is a report, not a
        # traceback.
        print(f"error: {error}")
        return 2
    finally:
        engine.restore(previous)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
