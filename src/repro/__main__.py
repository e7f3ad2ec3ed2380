"""Command-line entry point: ``python -m repro <command>``.

Commands (each command's options, with their usage lines, are declared
once in ``repro.options`` and listed after this text by ``--help``):

* ``demo``               — the quickstart scenario (crash vs transparent).
* ``experiments``        — list the paper's experiments.
* ``<experiment>``       — run one experiment (e.g. ``fig10``, ``table3``)
  through the batch engine: parallel workers (``--jobs``, default
  auto), the ``.repro-cache/`` result cache, prefix-snapshot sharing,
  and optional re-verification of forked cells.
* ``trace <target>``     — run ``demo`` or one experiment with causal span
  tracing on, write a Chrome trace-event JSON (open in ``chrome://tracing``
  or Perfetto), and verify the trace replays identically from the same
  seed.
* ``fleet``              — simulate a device fleet: cohorts forked from
  per-(app, policy) templates play seeded user sessions, aggregated into
  crash/data-loss rates and handling-latency quantiles per policy.
  ``--devices`` is the fleet total (default 120), ``--faults`` the
  fraction of devices per fault kind, ``--oracle`` the sampled share of
  members that also run the differential oracle, ``--jobs auto`` one
  worker per core (bounded by the shard count).  ``--checkpoint`` writes
  periodic resumable checkpoints: a killed run re-invoked with the same
  spec and path resumes byte-identically.  ``--stats`` adds the
  template-provisioning counters.  ``--workload`` names a stationary
  workload (``repro workload list``) or a recorded-workload JSON file;
  ``--phases`` a time-varying phase plan.
* ``oracle <app>``       — run one cross-policy differential session:
  the same seeded session under every policy, end states and span
  streams diffed and every divergence classified
  (EXPECTED_POLICY_DELTA / STATE_DIVERGENCE / SIMULATOR_BUG — see
  docs/ORACLE.md).  Apps come from the fleet corpus or the 27-app
  corpus, by package or name.  Exits 1 if any divergence classifies as
  SIMULATOR_BUG.
* ``hunt``               — rule-guided bug hunting over a taxonomy-
  generated app corpus (docs/HUNT.md): static rules predict where each
  policy should fail, a suspicion-guided search proves each prediction
  by simulation, and delta debugging shrinks every confirmed finding to
  a locally minimal repro.  ``hunt rules`` lists the rule catalog.
  Exits 1 on any SIMULATOR_BUG classification.
* ``serve``              — run the simulation daemon: a long-lived
  process owning a persistent worker pool and template/result caches,
  serving concurrent fleet/oracle/hunt/experiment jobs over HTTP + JSON
  lines with streaming partial reports, fair multi-tenant scheduling,
  and cancellation (docs/SERVE.md).  ``--root`` keeps state between
  runs (the default is a scratch dir removed at shutdown),
  ``--ready-file`` gets ``{"url", "pid"}`` once listening, and
  ``serve --stop URL`` asks a running daemon to shut down.
* ``workload``           — the session-IR toolbox (docs/WORKLOAD.md):
  ``workload list`` names the registries; ``workload show NAME``
  prints a member's canonical IR dump; ``workload record`` records one
  traced session and compiles its span stream back to a workload file.
* ``bench-engine``       — benchmark the batch engine (serial vs parallel
  vs cached vs prefix-snapshot forking) and write ``BENCH_engine.json``;
  ``--check`` exits non-zero unless cached re-runs beat cold serial and
  all modes are byte-identical.  ``bench-engine fleet|serve|hunt``
  benchmarks those layers instead.

``fleet``, ``oracle`` and ``hunt`` take ``--daemon URL``: the job runs
on a ``repro serve`` daemon with the same report bytes and exit code,
falling back in-process when the daemon is unreachable.  Options that
only make sense in-process are refused next to ``--daemon``.
``-o PATH`` writes the canonical JSON report.

Unknown commands exit with status 2 and a "did you mean" hint; a bad
option exits 2 with the command's usage.
"""

from __future__ import annotations

import sys

from repro.options import COMMANDS, parse, usage


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("\n".join(usage(name) for name, command in COMMANDS.items()
                        if command.prog is not None))
        return 0
    command = argv[0]
    if command == "demo":
        run_demo()
        return 0
    if command == "trace":
        return trace_command(argv[1:])
    if command == "fleet":
        return fleet_command(argv[1:])
    if command == "oracle":
        return oracle_command(argv[1:])
    if command == "workload":
        return workload_command(argv[1:])
    if command == "hunt":
        return hunt_command(argv[1:])
    if command == "serve":
        from repro.serve.server import main as serve_main

        return serve_main(argv[1:])
    if command == "bench-engine":
        from repro.engine.bench import main as bench_main

        return bench_main(argv[1:])
    from repro.harness.experiments import EXPERIMENTS
    from repro.harness.experiments.__main__ import main as experiments_main

    if command == "experiments":
        return experiments_main([])
    if command in EXPERIMENTS:
        return experiments_main(argv)
    return _unknown_command(
        command,
        ["demo", "experiments", "trace", "fleet", "oracle", "workload",
         "hunt", "serve", "bench-engine", *EXPERIMENTS],
    )


def _unknown_command(command: str, known: list[str]) -> int:
    import difflib

    close = difflib.get_close_matches(command, known, n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    print(f"unknown command {command!r}{hint}")
    print("known commands: " + ", ".join(known))
    return 2


# ----------------------------------------------------------------------
# fleet, oracle and hunt: one job, run in-process or on a daemon
# ----------------------------------------------------------------------
def _run_job(kind: str, opts, params: dict, run_local) -> int:
    """Run one job and report it: print its text, write ``-o``, exit.

    ``params`` describes the job to both paths: the daemon client ships
    it, and ``run_local`` (called when there is no reachable daemon)
    builds the same spec from it in-process.  Either path yields
    ``(report_json, text, exit_code)`` with the same bytes.
    """
    from repro.errors import (
        FleetError,
        HuntError,
        OracleError,
        ServeError,
        WorkloadError,
    )

    try:
        outcome = _run_remote(kind, opts, params)
        if outcome is None:
            outcome = run_local()
    except (FleetError, HuntError, OracleError, ServeError,
            WorkloadError) as error:
        print(f"{kind} error: {error}")
        return 2
    if isinstance(outcome, int):
        return outcome
    report_json, text, exit_code = outcome
    print(text)
    return _write_output(opts["output"], report_json) or exit_code


def _run_remote(kind: str, opts, params: dict):
    """The job's outcome from ``--daemon``; ``None`` to run in-process.

    Every streamed event line goes to ``--events-log`` when given (raw
    canonical JSON lines); the terminal event's ``report_json`` is the
    same canonical bytes the in-process path writes.
    """
    url = opts["daemon"]
    if url is None:
        return None
    from repro.serve.client import DaemonClient
    from repro.serve.protocol import encode_event

    client = DaemonClient(url)
    if not client.available():
        print(f"note: daemon {url} unreachable; running in-process",
              file=sys.stderr)
        return None
    if opts.get("events_log") is None:
        final = client.run(kind, params)
    else:
        with open(opts["events_log"], "wb") as log:
            final = client.run(kind, params, on_event=lambda event:
                               log.write(encode_event(event)))
    if final.get("event") == "cancelled":
        print(f"{kind} error: job was cancelled on the daemon")
        return 3
    if final.get("event") != "done":
        print(f"{kind} error: {final.get('message', 'job failed')}")
        return 2
    report_json = final["report_json"]
    if "text" in final:
        text = final["text"]
    else:  # fleet jobs stream no text: render the report here
        import json

        from repro.fleet import format_fleet_report

        text = format_fleet_report(json.loads(report_json))
    return report_json, text, int(final.get("exit", 0))


def _write_output(path: "str | None", text: str) -> int:
    """Write ``text`` to ``-o PATH``; 1 if that fails, else 0."""
    if path is None:
        return 0
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as error:
        print(f"cannot write {path}: {error.strerror or error}")
        return 1
    print(f"\nwrote {path}")
    return 0


def fleet_command(args: list[str]) -> int:
    """Run a fleet simulation and print (optionally write) its report."""
    opts = parse("fleet", args)
    if isinstance(opts, int):
        return opts
    params = opts.params()
    if "workload" in params:
        fragment, status = _resolve_fleet_workload(params.pop("workload"))
        if status:
            return status
        params.update(fragment)

    def run_local():
        from repro.fleet import (
            DEFAULT_CHECKPOINT_EVERY,
            format_fleet_report,
            run_fleet,
        )
        from repro.serve.protocol import fleet_spec_from_params

        result = run_fleet(
            fleet_spec_from_params(params),
            jobs=opts["jobs"],
            checkpoint_path=opts["checkpoint"],
            checkpoint_every=(opts["checkpoint_every"]
                              or DEFAULT_CHECKPOINT_EVERY),
            collect_stats=opts["stats"],
        )
        return result.to_json(), format_fleet_report(result), result.exit_code

    return _run_job("fleet", opts, params, run_local)


def _resolve_fleet_workload(value: str):
    """Resolve ``--workload NAME|FILE`` -> (params fragment, status).

    A path-looking value (``.json`` suffix, a path separator, or an
    existing file) loads a recorded-workload file and returns its
    envelope inline (``workload_ir`` — what the daemon client ships);
    anything else is validated as a registry name and passed by name.
    On failure prints the error and returns status 2.
    """
    import json
    import os

    from repro.errors import WorkloadError

    if (value.endswith(".json") or os.sep in value
            or os.path.exists(value)):
        from repro.workload.codec import load_workload

        try:
            load_workload(value)  # full validation, CLI-side errors
            with open(value, encoding="utf-8") as handle:
                return {"workload_ir": json.load(handle)}, 0
        except (OSError, ValueError) as error:
            print(f"fleet error: cannot read workload file "
                  f"{value}: {error}")
            return {}, 2
        except WorkloadError as error:
            print(f"fleet error: {error}")
            return {}, 2
    from repro.workload.library import workload_named

    try:
        workload_named(value)  # validate the name CLI-side for the hint
        return {"workload": value}, 0
    except WorkloadError as error:
        print(f"fleet error: {error}")
        print("(named workloads come from 'repro workload list'; a path"
              " ending in .json replays a recorded workload file)")
        return {}, 2


def oracle_command(args: list[str]) -> int:
    """Run one cross-policy differential session and report verdicts."""
    opts = parse("oracle", args)
    if isinstance(opts, int):
        return opts
    from repro.serve.protocol import resolve_app

    app, known = resolve_app(opts["app"])
    if app is None:
        return _unknown_command(opts["app"], known)

    def run_local():
        from repro.oracle.session import DEFAULT_POLICIES
        from repro.serve.tasks import run_oracle_unit

        policies = tuple(opts["policies"]) or DEFAULT_POLICIES
        return run_oracle_unit((app, policies, opts["seed"], opts["member"]))

    return _run_job("oracle", opts, opts.params(), run_local)


def hunt_command(args: list[str]) -> int:
    """Hunt the generated corpus; print (optionally write) the report."""
    opts = parse("hunt", args)
    if isinstance(opts, int):
        return opts
    if opts["rules"] not in (None, "rules"):
        return _unknown_command(opts["rules"], ["rules"])

    from repro.engine.batch import POLICIES

    for policy in opts["policies"]:
        if policy not in POLICIES:
            return _unknown_command(policy, sorted(POLICIES))

    if opts["rules"]:
        from repro.hunt import rule_catalog

        for row in rule_catalog():
            print(f"{row['name']:<22s} severity {row['severity']}  "
                  f"{row['description']}")
        return 0

    def run_local():
        import dataclasses

        from repro.serve.protocol import hunt_settings_from_params
        from repro.serve.tasks import run_hunt_unit

        return run_hunt_unit(dataclasses.replace(
            hunt_settings_from_params(opts.params()),
            jobs=opts["jobs"], cache=not opts["no_cache"],
        ))

    return _run_job("hunt", opts, opts.params(), run_local)


# ----------------------------------------------------------------------
# workload subcommand
# ----------------------------------------------------------------------
def workload_command(args: list[str]) -> int:
    """The session-IR toolbox: inspect, dump, and record workloads."""
    if not args:
        print("usage: python -m repro workload <list|show|record> ...")
        print(usage("workload show"))
        print(usage("workload record"))
        return 2
    sub, rest = args[0], args[1:]
    if sub == "list":
        return _workload_list()
    if sub == "show":
        return _workload_show(rest)
    if sub == "record":
        return _workload_record(rest)
    return _unknown_command(sub, ["list", "show", "record"])


def _workload_list() -> int:
    from repro.workload.library import PHASE_PLANS, WORKLOADS

    print("stationary workloads (fleet --workload NAME):")
    for name, population in sorted(WORKLOADS.items()):
        print(f"  {name}: {population.min_ops}-{population.max_ops} ops, "
              f"gaps {population.min_gap_ms:g}-{population.max_gap_ms:g} ms")
    print("phase plans (fleet --phases NAME):")
    for name, plan in sorted(PHASE_PLANS.items()):
        phases = "+".join(phase.name for phase in plan.phases)
        events = (", events: " + ", ".join(
            f"{event.kind}@{event.phase}" for event in plan.events)
            if plan.events else "")
        print(f"  {name}: {phases}{events}")
    return 0


def _workload_show(args: list[str]) -> int:
    opts = parse("workload show", args)
    if isinstance(opts, int):
        return opts
    name, seed, member = opts["name"], opts["seed"], opts["member"]

    from repro.workload.library import PHASE_PLANS, WORKLOADS
    from repro.workload.phases import phased_workload

    if name in WORKLOADS:
        from repro.fleet.population import device_workload

        workload = device_workload(WORKLOADS[name], seed, member)
        print(f"workload {name} (member {member}, seed {seed:#x}):")
    elif name in PHASE_PLANS:
        plan = PHASE_PLANS[name]
        workload = phased_workload(plan, seed, member)
        print(plan.describe())
        print(f"member {member}, seed {seed:#x}:")
    else:
        return _unknown_command(
            name, sorted([*WORKLOADS, *PHASE_PLANS])
        )
    print(workload.describe())
    print(f"# {workload.op_count()} ops, "
          f"{workload.config_changes()} config changes, "
          f"{workload.think_time_ms():.1f} ms think time")
    if opts["output"] is not None:
        from repro.workload.codec import save_workload

        try:
            save_workload(opts["output"], workload)
        except OSError as error:
            print(f"cannot write {opts['output']}: "
                  f"{error.strerror or error}")
            return 1
        print(f"wrote {opts['output']}")
    return 0


def _workload_record(args: list[str]) -> int:
    """Record one traced session, compile its spans back to a workload."""
    opts = parse("workload record", args)
    if isinstance(opts, int):
        return opts
    policy, seed, out_path = opts["policy"], opts["seed"], opts["output"]

    from repro.engine.batch import POLICIES
    from repro.serve.protocol import resolve_app

    app, known = resolve_app(opts["app"])
    if app is None:
        return _unknown_command(opts["app"], known)
    if policy not in POLICIES:
        return _unknown_command(policy, sorted(POLICIES))

    from repro.errors import WorkloadError
    from repro.fleet.population import device_workload
    from repro.oracle.session import play_session
    from repro.system import AndroidSystem
    from repro.trace import replay
    from repro.trace.tracer import TraceSession
    from repro.workload.codec import save_workload
    from repro.workload.library import workload_named
    from repro.workload.trace_compile import from_trace

    try:
        population = workload_named(opts["workload"])
    except WorkloadError as error:
        print(f"workload error: {error}")
        return 2
    played = device_workload(population, seed, opts["member"])
    with TraceSession() as session:
        system = AndroidSystem(policy=POLICIES[policy](), seed=seed)
        system.launch(app)
        system.run_for(400.0)
        play_session(system, app, played)
    spans: list[dict] = []
    for tracer in session.tracers:
        spans.extend(replay.snapshot(tracer))
    recorded = from_trace(spans)
    try:
        save_workload(out_path, recorded)
    except OSError as error:
        print(f"cannot write {out_path}: {error.strerror or error}")
        return 1
    print(f"recorded {app.package} under {policy}: "
          f"{played.op_count()} ops played -> "
          f"{recorded.op_count()} ops compiled from "
          f"{len(spans)} spans")
    print(f"wrote {out_path}")
    return 0


# ----------------------------------------------------------------------
# trace subcommand
# ----------------------------------------------------------------------
def trace_command(args: list[str]) -> int:
    """Record a Chrome trace for ``demo`` or an experiment, then verify
    that re-running the same scenario replays the identical trace."""
    from repro.harness.experiments import EXPERIMENTS

    opts = parse("trace", args)
    if isinstance(opts, int):
        return opts
    target = opts["target"]
    targets = ["demo", *EXPERIMENTS]
    if target is None:
        print(usage("trace"))
        print("traceable targets: " + ", ".join(targets))
        return 2
    if target not in targets:
        return _unknown_command(target, targets)
    out_path = opts["output"] or f"trace_{target.replace('.', '_')}.json"

    from repro.errors import ReplayDivergenceError
    from repro.trace import export, replay
    from repro.trace.tracer import TraceSession

    def record() -> TraceSession:
        with TraceSession() as session:
            if target == "demo":
                run_demo()
            else:
                EXPERIMENTS[target].run()
        return session

    session = record()
    if not session.tracers:
        print(f"{target} created no simulated systems to trace")
        return 1
    try:
        export.write_chrome_trace(out_path, session.labeled())
    except OSError as error:
        print(f"cannot write {out_path}: {error.strerror or error}")
        return 1
    print(
        f"wrote {out_path}: {session.span_count()} spans"
        f" across {len(session.tracers)} run(s)"
    )
    print("categories: " + ", ".join(sorted(session.categories())))
    if opts["no_verify"]:
        return 0
    replayed = record()
    if len(replayed.tracers) != len(session.tracers):
        print(
            f"replay check FAILED: recorded {len(session.tracers)} runs,"
            f" replayed {len(replayed.tracers)}"
        )
        return 1
    try:
        for recorded, rerun in zip(session.tracers, replayed.tracers):
            replay.check_replay(replay.snapshot(recorded), replay.snapshot(rerun))
    except ReplayDivergenceError as divergence:
        print(f"replay check FAILED: {divergence}")
        return 1
    print(
        f"replay check OK: re-run reproduced all"
        f" {session.span_count()} spans exactly"
    )
    return 0


def run_demo() -> None:  # pragma: no cover - thin CLI veneer
    from repro import Android10Policy, AndroidSystem, RCHDroidPolicy
    from repro.apps import make_benchmark_app

    for factory in (Android10Policy, RCHDroidPolicy):
        system = AndroidSystem(policy=factory())
        app = make_benchmark_app(4)
        system.launch(app)
        system.start_async(app)
        system.rotate()
        system.run_until_idle()
        print(
            f"{system.policy.name:>10}: crashed={system.crashed(app.package)}"
            f" handling={system.last_handling_ms():.1f} ms"
            f" memory={system.memory_of(app.package):.1f} MB"
        )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))
