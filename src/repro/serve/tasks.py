"""Picklable pool task bodies for the daemon's persistent workers.

Template captures, oracle sessions and hunts are each one call to a
module-level function here (the ``concurrent.futures`` pickling
contract).  The other units need no body of their own: a fleet shard
is the fleet executor's own spec-carrying entry point
(:func:`repro.fleet.run._run_shard_task` — the same code a CLI run
executes, so outcomes fold byte-identically), and an experiment unit is
one call planned by :func:`repro.engine.batch.plan_calls`, run by the
batch engine's own pool-call body, :func:`repro.engine.batch.execute_call`.
Because the workers outlive any one job, the per-process template
cache in ``fleet/run.py`` stays warm across requests — that cache's
LRU cap exists for exactly this caller.
"""

from __future__ import annotations

__all__ = [
    "capture_template_unit",
    "run_oracle_unit",
    "run_hunt_unit",
]


def capture_template_unit(payload):
    """Build one cohort template off the event loop.

    ``payload`` is ``(spec, cell_index)``; returns the captured
    :class:`~repro.sim.snapshot.SystemSnapshot` for the coordinator to
    put in its template store (memory + disk).  Template builds are the
    expensive part of a cold fleet request, so the daemon farms them to
    the pool instead of stalling its accept loop.
    """
    from repro.fleet.run import capture_template

    spec, cell_index = payload
    return capture_template(spec, cell_index)


def run_oracle_unit(payload):
    """One cross-policy differential session, reported canonically.

    ``payload`` is ``(app, policies, seed, member)``; returns
    ``(report_json, clean, text)`` where ``report_json`` is the
    canonical ``OracleReport.to_json()`` string — the byte identity the
    CLI's ``repro oracle -o`` writes — and ``text`` the human table the
    CLI prints, rendered here so the thin client shows the identical
    output.
    """
    from repro.oracle import (
        format_oracle_report,
        report_for,
        run_oracle_session,
    )

    app, policies, seed, member = payload
    session = run_oracle_session(app, policies, seed, member=member)
    report = report_for([session])
    return report.to_json(), report.clean, format_oracle_report(report)


def run_hunt_unit(payload):
    """One full hunt over the generated corpus, reported canonically.

    ``payload`` is a :class:`~repro.hunt.search.HuntSettings`; returns
    ``(report_json, clean, text)`` where ``report_json`` is the
    canonical ``HuntReport.to_json()`` string — the byte identity the
    CLI's ``repro hunt -o`` writes — and ``text`` the human summary the
    CLI prints.  The hunt runs its probe batches in-process here
    (``jobs=1``): the daemon's scheduler owns the pool, and a worker
    spawning its own grandchild pool would fight it for cores.
    """
    import dataclasses

    from repro.hunt import format_hunt_report, run_hunt

    settings = dataclasses.replace(payload, jobs=1)
    report = run_hunt(settings)
    return report.to_json(), report.clean, format_hunt_report(report)

