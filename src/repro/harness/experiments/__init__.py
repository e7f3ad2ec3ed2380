"""One module per table/figure of the paper's evaluation.

Every module exposes ``run(...)`` returning a structured result and
``format_report(result)`` rendering the paper-style report.
:data:`EXPERIMENTS` maps experiment ids to their modules; the CLI
(``python -m repro <id>``, ``experiments``, ``trace``) reads it, and
``REGISTRY`` maps the same ids to ``run``.

The nine experiments of :data:`ENGINE_EXPERIMENTS` are request matrices
run through :func:`~repro.engine.batch.run_batch`.  Each declares its
work once:

* ``requests(seed=0x5EED) -> list[RunRequest]`` — every simulation run;
* ``fold(requests, results) -> Result`` — the results, in request
  order, reshaped into the experiment's result.

Their ``run`` is :func:`run_requests` over the two, and the daemon's
``experiment`` jobs and ``bench-engine`` run the same request lists.
The other ten (table2, fig9, fig13, sec5.6-energy, sec5.7-deployment,
ext-fragments, ext-robustness, ext-sessions, ext-fleet, ext-oracle)
build their own systems, fleets or oracle sessions, or compute closed
forms, and have only ``run``.
"""

from __future__ import annotations

from types import ModuleType
from typing import Callable

from repro.engine.batch import run_batch


def run_requests(requests, fold, seed: int, *, jobs=None, cache=None):
    """An engine-backed experiment's ``run``: its requests as one batch,
    folded into its result."""
    batch = requests(seed)
    return fold(batch, run_batch(batch, jobs=jobs, cache=cache))


# The experiment modules import run_requests from this package, so it
# is defined before they are imported.
from repro.harness.experiments import (  # noqa: E402
    ext_fleet,
    ext_fragments,
    ext_oracle,
    ext_probes,
    ext_robustness,
    ext_sessions,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    sec56_energy,
    sec57_deployment,
    table2,
    table3,
    table5,
)

EXPERIMENTS: dict[str, ModuleType] = {
    "table2": table2,
    "table3": table3,
    "table5": table5,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "ext-fleet": ext_fleet,
    "ext-fragments": ext_fragments,
    "ext-oracle": ext_oracle,
    "ext-probes": ext_probes,
    "ext-robustness": ext_robustness,
    "ext-sessions": ext_sessions,
    "sec5.6-energy": sec56_energy,
    "sec5.7-deployment": sec57_deployment,
}

#: The experiments that declare ``requests`` and ``fold``.
ENGINE_EXPERIMENTS: dict[str, ModuleType] = {
    name: module for name, module in EXPERIMENTS.items()
    if hasattr(module, "requests")
}

REGISTRY: dict[str, Callable[..., object]] = {
    name: module.run for name, module in EXPERIMENTS.items()
}

__all__ = ["ENGINE_EXPERIMENTS", "EXPERIMENTS", "REGISTRY", "run_requests"]
