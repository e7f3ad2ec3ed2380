"""Picklable pool task bodies for the daemon's persistent workers.

Template captures, oracle sessions and hunts are each one call to a
module-level function here (the ``concurrent.futures`` pickling
contract).  The other units need no body of their own: a fleet shard
is :func:`repro.fleet.run._run_shard_task`, the task a pooled
``run_fleet`` submits too, with its payload from the same
:class:`~repro.fleet.run.FleetPlan` that folds its outcome on both
sides, so the reports are byte-identical; and an experiment unit is
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
    ``(report_json, text, exit_code)`` where ``report_json`` is the
    canonical ``OracleReport.to_json()`` string — the bytes ``repro
    oracle -o`` writes — ``text`` the human table it prints, and
    ``exit_code`` 1 on any SIMULATOR_BUG.  The CLI's in-process path
    calls this same function, so the thin client shows identical
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
    return report.to_json(), format_oracle_report(report), int(not report.clean)


def run_hunt_unit(payload):
    """One full hunt over the generated corpus, reported canonically.

    ``payload`` is a :class:`~repro.hunt.search.HuntSettings`; returns
    ``(report_json, text, exit_code)`` like :func:`run_oracle_unit`,
    for ``HuntReport``.  The CLI's in-process path calls this too.
    """
    from repro.hunt import format_hunt_report, run_hunt

    report = run_hunt(payload)
    return report.to_json(), format_hunt_report(report), int(not report.clean)

