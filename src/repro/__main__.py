"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo``               — the quickstart scenario (crash vs transparent).
* ``experiments``        — list the paper's experiments.
* ``trace <target>``     — run ``demo`` or one experiment with causal span
  tracing on, write a Chrome trace-event JSON (open in ``chrome://tracing``
  or Perfetto), and verify the trace replays identically from the same
  seed.  Options: ``-o/--output PATH``, ``--no-verify``.
* ``bench-engine``       — benchmark the batch engine (serial vs parallel
  vs cached vs prefix-snapshot forking) and write ``BENCH_engine.json``.
  Options: ``--jobs N``, ``-o/--output PATH``, ``--check`` (non-zero exit
  unless cached re-runs beat cold serial and all modes — forked cells
  included — are byte-identical).  ``bench-engine fleet`` benchmarks the
  fleet simulator instead (cohort-forked vs cold spawn, serial vs
  sharded identity) and writes ``BENCH_fleet.json``; ``--devices N``
  sizes it.
* ``fleet``              — simulate a device fleet: cohorts forked from
  per-(app, policy) templates play seeded user sessions, aggregated into
  crash/data-loss rates and handling-latency quantiles per policy.
  Options: ``--devices N`` (total, default 120), ``--policy NAME``
  (repeatable; default all three), ``--faults F`` (fraction of devices
  per fault kind, default 0), ``--oracle RATE`` (run the differential
  oracle on a deterministic sample of members; verdict counts join the
  report), ``--jobs N|auto`` (``auto`` = one worker per core, bounded
  by the shard count), ``--shard-size N``, ``--seed N``,
  ``--checkpoint PATH`` (periodic resumable checkpoints; a killed run
  re-invoked with the same spec and path resumes byte-identically),
  ``--checkpoint-every N`` (shards between writes, default 64),
  ``--stats`` (template-provisioning counters: cache/disk/rebuild/
  capture — printed and added to the JSON report),
  ``--workload NAME|FILE`` (a named stationary workload from
  ``repro workload list``, or a recorded-workload JSON file every
  member replays), ``--phases NAME`` (a named time-varying phase plan:
  diurnal phases, rotation storms, update waves, kill cascades),
  ``--daemon URL`` (run the fleet on a ``repro serve`` daemon —
  byte-identical report, warm templates; falls back in-process when
  the daemon is unreachable), ``--events-log PATH`` (with
  ``--daemon``: record the raw streamed event lines),
  ``-o/--output PATH`` (write the canonical JSON report).
* ``serve``              — run the simulation daemon: a long-lived
  process owning a persistent worker pool and template/result caches,
  serving concurrent fleet/oracle/experiment jobs over HTTP + JSON
  lines with streaming partial reports, fair multi-tenant scheduling,
  and cancellation (docs/SERVE.md).  Options: ``--port P`` (0 =
  ephemeral), ``--host H``, ``--jobs N|auto``, ``--root PATH``
  (persistent state dir; the default is a scratch dir removed at
  shutdown), ``--ready-file PATH`` (write ``{"url", "pid"}`` once
  listening), ``--stream-every N``; ``serve --stop URL`` asks a
  running daemon to shut down.
* ``workload``           — the session-IR toolbox (docs/WORKLOAD.md):
  ``workload list`` names the registries; ``workload show NAME``
  prints a member's canonical IR dump (``--seed N``, ``--member N``,
  ``-o PATH`` writes the canonical JSON); ``workload record`` records
  one traced session and compiles its span stream back to a workload
  file (``--app NAME``, ``--policy NAME``, ``--seed N``, ``-o PATH``).
* ``oracle <app>``       — run one cross-policy differential session:
  the same seeded session under every policy, end states and span
  streams diffed and every divergence classified
  (EXPECTED_POLICY_DELTA / STATE_DIVERGENCE / SIMULATOR_BUG — see
  docs/ORACLE.md).  Apps come from the fleet corpus or the 27-app
  corpus, by package or name.  Options: ``--policy NAME`` (repeatable;
  default all three), ``--seed N``, ``--member N`` (session script
  variant), ``--daemon URL`` (run the session on a ``repro serve``
  daemon, falling back in-process), ``-o/--output PATH`` (write the
  JSON report).  Exits 1 if any divergence classifies as
  SIMULATOR_BUG.
* ``hunt``               — rule-guided bug hunting over a taxonomy-
  generated app corpus (docs/HUNT.md): static rules predict where each
  policy should fail, a suspicion-guided search proves each prediction
  by simulation, and delta debugging shrinks every confirmed finding to
  a locally minimal repro.  ``hunt rules`` lists the rule catalog.
  Options: ``--apps N`` (corpus size, default 100), ``--seed N``,
  ``--policy NAME`` (repeatable; default all three), ``--jobs N|auto``,
  ``--no-cache`` (skip the result cache), ``--daemon URL`` (run the
  hunt on a ``repro serve`` daemon, falling back in-process),
  ``-o/--output PATH`` (write the canonical JSON report).  Exits 1 on
  any SIMULATOR_BUG classification.
* ``<experiment>``       — run one experiment (e.g. ``fig10``, ``table3``).
  Options: ``--jobs N|auto`` (parallel workers, default auto), ``--no-cache``
  (skip the ``.repro-cache/`` result cache), ``--cache-root PATH``,
  ``--no-snapshots`` (disable prefix-snapshot sharing), ``--verify-forks``
  (re-run a sample of forked cells from scratch and compare).

Unknown commands exit with status 2 and a "did you mean" hint.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
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
    from repro.harness.experiments.__main__ import _MODULES
    from repro.harness.experiments.__main__ import main as experiments_main

    if command == "experiments":
        return experiments_main([])
    if command in _MODULES:
        return experiments_main(argv)
    return _unknown_command(
        command,
        ["demo", "experiments", "trace", "fleet", "oracle", "workload",
         "hunt", "serve", "bench-engine", *_MODULES],
    )


def _unknown_command(command: str, known: list[str]) -> int:
    import difflib

    close = difflib.get_close_matches(command, known, n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    print(f"unknown command {command!r}{hint}")
    print("known commands: " + ", ".join(known))
    return 2


# ----------------------------------------------------------------------
# fleet subcommand
# ----------------------------------------------------------------------
_FLEET_USAGE = (
    "usage: python -m repro fleet [--devices N]"
    " [--policy NAME]... [--faults F] [--oracle RATE]"
    " [--jobs N|auto] [--shard-size N] [--seed N]"
    " [--checkpoint PATH] [--checkpoint-every N]"
    " [--stats]"
    " [--workload NAME|FILE] [--phases NAME]"
    " [--daemon URL] [--events-log PATH] [-o PATH]"
)


def _parse_jobs(value: str) -> "int | str":
    """``--jobs`` values: a worker count or the literal ``auto``.

    ``auto`` resolves to one worker per core, bounded by the shard
    count (the engine's :func:`_resolve_jobs` convention).  Anything
    else raises with a did-you-mean hint — callers exit 2.
    """
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        import difflib

        hint = (" (did you mean 'auto'?)"
                if difflib.get_close_matches(value, ["auto"], n=1,
                                             cutoff=0.6) else "")
        raise ValueError(
            f"--jobs expects a worker count or 'auto', got {value!r}{hint}"
        ) from None


def fleet_command(args: list[str]) -> int:
    """Run a fleet simulation and print (optionally write) its report."""
    devices = 120
    policies: list[str] = []
    faults_fraction = 0.0
    oracle_rate = 0.0
    jobs: "int | str | None" = None
    shard_size = 32
    seed = 0x5EED
    out_path: str | None = None
    checkpoint_path: str | None = None
    checkpoint_every: int | None = None
    collect_stats = False
    workload_arg: str | None = None
    phases_arg: str | None = None
    daemon_url: str | None = None
    events_log: str | None = None
    walker = iter(args)
    try:
        for arg in walker:
            if arg == "--devices":
                devices = int(next(walker))
            elif arg == "--policy":
                policies.append(next(walker))
            elif arg == "--faults":
                faults_fraction = float(next(walker))
            elif arg == "--oracle":
                oracle_rate = float(next(walker))
            elif arg == "--jobs":
                jobs = _parse_jobs(next(walker))
            elif arg == "--shard-size":
                shard_size = int(next(walker))
            elif arg == "--seed":
                seed = int(next(walker), 0)
            elif arg == "--checkpoint":
                checkpoint_path = next(walker)
            elif arg == "--checkpoint-every":
                checkpoint_every = int(next(walker))
                if checkpoint_every < 1:
                    print("--checkpoint-every must be >= 1")
                    return 2
            elif arg == "--stats":
                collect_stats = True
            elif arg == "--workload":
                workload_arg = next(walker)
            elif arg == "--phases":
                phases_arg = next(walker)
            elif arg == "--daemon":
                daemon_url = next(walker)
            elif arg == "--events-log":
                events_log = next(walker)
            elif arg in ("-o", "--output"):
                out_path = next(walker)
            else:
                print(f"unexpected argument {arg!r}")
                print(_FLEET_USAGE)
                return 2
    except StopIteration:
        print("missing value for the last option")
        return 2
    except ValueError as error:
        print(f"bad option value: {error}")
        return 2

    from repro.errors import (
        FleetError,
        OracleError,
        ServeError,
        WorkloadError,
    )
    from repro.fleet import (
        DEFAULT_CHECKPOINT_EVERY,
        format_fleet_report,
        run_fleet,
    )
    from repro.serve.protocol import fleet_spec_from_params

    if workload_arg is not None and phases_arg is not None:
        print("--workload and --phases are mutually exclusive "
              "(a phase plan carries its own op distributions)")
        return 2

    # The params dict is the one spec description both execution paths
    # share: the daemon client ships it over the wire, the in-process
    # path feeds it to the same fleet_spec_from_params — so a daemon
    # run can never mean a different fleet than a local one.
    params: dict = {
        "devices": devices,
        "faults": faults_fraction,
        "oracle": oracle_rate,
        "seed": seed,
        "shard_size": shard_size,
    }
    if policies:
        params["policies"] = policies
    if workload_arg is not None:
        fragment, status = _resolve_fleet_workload(workload_arg)
        if status:
            return status
        params.update(fragment)
    if phases_arg is not None:
        params["phases"] = phases_arg

    if daemon_url is not None:
        local_only = [flag for flag, given in [
            ("--checkpoint", checkpoint_path is not None),
            ("--checkpoint-every", checkpoint_every is not None),
            ("--stats", collect_stats),
            ("--jobs", jobs is not None),
        ] if given]
        if local_only:
            print("these options run in-process and do not combine "
                  f"with --daemon: {', '.join(local_only)}")
            return 2
        from repro.serve.client import DaemonClient

        client = DaemonClient(daemon_url)
        if client.available():
            return _fleet_via_daemon(client, params, out_path, events_log)
        print(f"note: daemon {daemon_url} unreachable; "
              "running in-process", file=sys.stderr)

    try:
        spec = fleet_spec_from_params(params)
        result = run_fleet(
            spec,
            jobs=jobs,
            checkpoint_path=checkpoint_path,
            checkpoint_every=(checkpoint_every
                              if checkpoint_every is not None
                              else DEFAULT_CHECKPOINT_EVERY),
            collect_stats=collect_stats,
        )
    except (FleetError, OracleError, WorkloadError, ServeError) as error:
        print(f"fleet error: {error}")
        return 2
    print(format_fleet_report(result))
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(result.to_json() + "\n")
        except OSError as error:
            print(f"cannot write {out_path}: {error.strerror or error}")
            return 1
        print(f"\nwrote {out_path}")
    if result.oracle is not None and result.oracle.simulator_bugs:
        return 1
    return 0


def _fleet_via_daemon(client, params: dict, out_path: "str | None",
                      events_log: "str | None") -> int:
    """Run a fleet job on the daemon and print the identical report.

    Every streamed event line is optionally appended to ``events_log``
    (raw canonical JSON lines — what CI's prefix assertions read); the
    terminal event's ``report_json`` is the same canonical bytes the
    in-process path would have written.
    """
    import json

    from repro.errors import ServeError
    from repro.fleet import format_fleet_report

    log = None
    final: dict = {}
    try:
        if events_log is not None:
            log = open(events_log, "w", encoding="utf-8")
        job_id = client.submit("fleet", params)
        for event in client.events(job_id):
            if log is not None:
                log.write(json.dumps(event, sort_keys=True,
                                     separators=(",", ":")) + "\n")
            final = event
    except ServeError as error:
        print(f"fleet error: {error}")
        return 2
    finally:
        if log is not None:
            log.close()
    if final.get("event") == "error":
        print(f"fleet error: {final.get('message', 'job failed')}")
        return 2
    if final.get("event") == "cancelled":
        print("fleet error: job was cancelled on the daemon")
        return 3
    report_json = final["report_json"]
    print(format_fleet_report(json.loads(report_json)))
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(report_json + "\n")
        except OSError as error:
            print(f"cannot write {out_path}: {error.strerror or error}")
            return 1
        print(f"\nwrote {out_path}")
    return int(final.get("exit", 0))


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


# ----------------------------------------------------------------------
# workload subcommand
# ----------------------------------------------------------------------
_WORKLOAD_USAGE = (
    "usage: python -m repro workload <list|show|record> ...\n"
    "  workload list\n"
    "  workload show NAME [--seed N] [--member N] [-o PATH]\n"
    "  workload record [--app NAME] [--policy NAME] [--workload NAME]"
    " [--seed N] [--member N] [-o PATH]"
)


def workload_command(args: list[str]) -> int:
    """The session-IR toolbox: inspect, dump, and record workloads."""
    if not args:
        print(_WORKLOAD_USAGE)
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
    name: str | None = None
    seed = 0x5EED
    member = 0
    out_path: str | None = None
    walker = iter(args)
    try:
        for arg in walker:
            if arg == "--seed":
                seed = int(next(walker), 0)
            elif arg == "--member":
                member = int(next(walker))
            elif arg in ("-o", "--output"):
                out_path = next(walker)
            elif name is None:
                name = arg
            else:
                print(f"unexpected argument {arg!r}")
                return 2
    except StopIteration:
        print("missing value for the last option")
        return 2
    except ValueError as error:
        print(f"bad option value: {error}")
        return 2
    if name is None:
        print(_WORKLOAD_USAGE)
        return 2

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
    if out_path is not None:
        from repro.workload.codec import save_workload

        try:
            save_workload(out_path, workload)
        except OSError as error:
            print(f"cannot write {out_path}: {error.strerror or error}")
            return 1
        print(f"wrote {out_path}")
    return 0


def _workload_record(args: list[str]) -> int:
    """Record one traced session, compile its spans back to a workload."""
    app_name = "fleet.notepad"
    policy = "rchdroid"
    seed = 0x5EED
    member = 0
    source = "config-churn"
    out_path = "recorded_workload.json"
    walker = iter(args)
    try:
        for arg in walker:
            if arg == "--app":
                app_name = next(walker)
            elif arg == "--policy":
                policy = next(walker)
            elif arg == "--workload":
                source = next(walker)
            elif arg == "--seed":
                seed = int(next(walker), 0)
            elif arg == "--member":
                member = int(next(walker))
            elif arg in ("-o", "--output"):
                out_path = next(walker)
            else:
                print(f"unexpected argument {arg!r}")
                return 2
    except StopIteration:
        print("missing value for the last option")
        return 2
    except ValueError as error:
        print(f"bad option value: {error}")
        return 2

    from repro.engine.batch import POLICIES

    app, known = _oracle_app(app_name)
    if app is None:
        return _unknown_command(app_name, known)
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
        population = workload_named(source)
    except WorkloadError as error:
        print(f"workload error: {error}")
        return 2
    played = device_workload(population, seed, member)
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
# oracle subcommand
# ----------------------------------------------------------------------
def _oracle_app(name: str):
    """Resolve an app by package or display name across both corpora."""
    from repro.apps.appset27 import build_appset27
    from repro.fleet import fleet_corpus

    apps = [*fleet_corpus(), *build_appset27()]
    by_key = {}
    for app in apps:
        by_key[app.package.lower()] = app
        by_key[app.label.lower()] = app
    found = by_key.get(name.lower())
    return found, sorted(by_key)


def oracle_command(args: list[str]) -> int:
    """Run one cross-policy differential session and report verdicts."""
    target: str | None = None
    policies: list[str] = []
    seed = 0x5EED
    member = 0
    out_path: str | None = None
    daemon_url: str | None = None
    walker = iter(args)
    try:
        for arg in walker:
            if arg == "--policy":
                policies.append(next(walker))
            elif arg == "--seed":
                seed = int(next(walker), 0)
            elif arg == "--member":
                member = int(next(walker))
            elif arg == "--daemon":
                daemon_url = next(walker)
            elif arg in ("-o", "--output"):
                out_path = next(walker)
            elif target is None and not arg.startswith("-"):
                target = arg
            else:
                print(f"unexpected argument {arg!r}")
                print(
                    "usage: python -m repro oracle <app> [--policy NAME]..."
                    " [--seed N] [--member N] [--daemon URL] [-o PATH]"
                )
                return 2
    except StopIteration:
        print("missing value for the last option")
        return 2
    except ValueError as error:
        print(f"bad option value: {error}")
        return 2

    from repro.errors import OracleError
    from repro.oracle import (
        format_oracle_report,
        report_for,
        run_oracle_session,
    )
    from repro.oracle.session import DEFAULT_POLICIES

    if target is None:
        print("usage: python -m repro oracle <app> [--policy NAME]..."
              " [--seed N] [--member N] [--daemon URL] [-o PATH]")
        return 2
    app, known = _oracle_app(target)
    if app is None:
        return _unknown_command(target, known)

    if daemon_url is not None:
        from repro.serve.client import DaemonClient

        client = DaemonClient(daemon_url)
        if client.available():
            return _oracle_via_daemon(client, {
                "app": target,
                **({"policies": policies} if policies else {}),
                "seed": seed,
                "member": member,
            }, out_path)
        print(f"note: daemon {daemon_url} unreachable; "
              "running in-process", file=sys.stderr)

    try:
        session = run_oracle_session(
            app,
            tuple(policies) if policies else DEFAULT_POLICIES,
            seed,
            member=member,
        )
    except OracleError as error:
        print(f"oracle error: {error}")
        return 2
    report = report_for([session])
    print(format_oracle_report(report))
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(report.to_json() + "\n")
        except OSError as error:
            print(f"cannot write {out_path}: {error.strerror or error}")
            return 1
        print(f"\nwrote {out_path}")
    return 0 if report.clean else 1


def _oracle_via_daemon(client, params: dict,
                       out_path: "str | None") -> int:
    """Run one differential session on the daemon; same text, same
    report bytes, same exit code as the in-process path."""
    from repro.errors import ServeError

    try:
        final = client.run("oracle", params)
    except ServeError as error:
        print(f"oracle error: {error}")
        return 2
    if final.get("event") != "done":
        print(f"oracle error: {final.get('message', 'job failed')}")
        return 2
    print(final["text"])
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(final["report_json"] + "\n")
        except OSError as error:
            print(f"cannot write {out_path}: {error.strerror or error}")
            return 1
        print(f"\nwrote {out_path}")
    return int(final.get("exit", 0))


# ----------------------------------------------------------------------
# hunt subcommand
# ----------------------------------------------------------------------
_HUNT_USAGE = (
    "usage: python -m repro hunt [rules] [--apps N] [--seed N]"
    " [--policy NAME]... [--jobs N|auto] [--no-cache]"
    " [--daemon URL] [-o PATH]"
)

_HUNT_SUBCOMMANDS = ["rules"]


def hunt_command(args: list[str]) -> int:
    """Hunt the generated corpus; print (optionally write) the report."""
    subcommand: str | None = None
    apps = 100
    seed: int | None = None
    policies: list[str] = []
    jobs: "int | str | None" = None
    use_cache = True
    daemon_url: str | None = None
    out_path: str | None = None
    walker = iter(args)
    try:
        for arg in walker:
            if arg == "--apps":
                apps = int(next(walker))
            elif arg == "--seed":
                seed = int(next(walker), 0)
            elif arg == "--policy":
                policies.append(next(walker))
            elif arg == "--jobs":
                jobs = _parse_jobs(next(walker))
            elif arg == "--no-cache":
                use_cache = False
            elif arg == "--daemon":
                daemon_url = next(walker)
            elif arg in ("-o", "--output"):
                out_path = next(walker)
            elif subcommand is None and not arg.startswith("-"):
                subcommand = arg
            else:
                print(f"unexpected argument {arg!r}")
                print(_HUNT_USAGE)
                return 2
    except StopIteration:
        print("missing value for the last option")
        return 2
    except ValueError as error:
        print(f"bad option value: {error}")
        return 2

    if subcommand is not None and subcommand not in _HUNT_SUBCOMMANDS:
        return _unknown_command(subcommand, _HUNT_SUBCOMMANDS)

    from repro.engine.batch import POLICIES

    for policy in policies:
        if policy not in POLICIES:
            return _unknown_command(policy, sorted(POLICIES))

    if subcommand == "rules":
        from repro.hunt import rule_catalog

        for row in rule_catalog():
            print(f"{row['name']:<22s} severity {row['severity']}  "
                  f"{row['description']}")
        return 0

    from repro.errors import HuntError
    from repro.hunt import format_hunt_report, run_hunt
    from repro.hunt.generator import DEFAULT_CORPUS_SEED

    # One params dict describes the hunt to both execution paths, the
    # fleet/oracle convention: the daemon client ships it verbatim, the
    # in-process fallback feeds the same values to HuntSettings.
    params: dict = {
        "apps": apps,
        "seed": DEFAULT_CORPUS_SEED if seed is None else seed,
    }
    if policies:
        params["policies"] = policies

    if daemon_url is not None:
        local_only = [flag for flag, given in [
            ("--jobs", jobs is not None),
            ("--no-cache", not use_cache),
        ] if given]
        if local_only:
            print("these options run in-process and do not combine "
                  f"with --daemon: {', '.join(local_only)}")
            return 2
        from repro.serve.client import DaemonClient

        client = DaemonClient(daemon_url)
        if client.available():
            return _hunt_via_daemon(client, params, out_path)
        print(f"note: daemon {daemon_url} unreachable; "
              "running in-process", file=sys.stderr)

    try:
        import dataclasses

        from repro.serve.protocol import hunt_settings_from_params

        settings = dataclasses.replace(
            hunt_settings_from_params(params), jobs=jobs, cache=use_cache
        )
        report = run_hunt(settings)
    except HuntError as error:
        print(f"hunt error: {error}")
        return 2
    print(format_hunt_report(report))
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(report.to_json() + "\n")
        except OSError as error:
            print(f"cannot write {out_path}: {error.strerror or error}")
            return 1
        print(f"\nwrote {out_path}")
    return 0 if report.clean else 1


def _hunt_via_daemon(client, params: dict, out_path: "str | None") -> int:
    """Run the hunt on the daemon; same text, same report bytes, same
    exit code as the in-process path."""
    from repro.errors import ServeError

    try:
        final = client.run("hunt", params)
    except ServeError as error:
        print(f"hunt error: {error}")
        return 2
    if final.get("event") != "done":
        print(f"hunt error: {final.get('message', 'job failed')}")
        return 2
    print(final["text"])
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(final["report_json"] + "\n")
        except OSError as error:
            print(f"cannot write {out_path}: {error.strerror or error}")
            return 1
        print(f"\nwrote {out_path}")
    return int(final.get("exit", 0))


# ----------------------------------------------------------------------
# trace subcommand
# ----------------------------------------------------------------------
def trace_command(args: list[str]) -> int:
    """Record a Chrome trace for ``demo`` or an experiment, then verify
    that re-running the same scenario replays the identical trace."""
    from repro.harness.experiments.__main__ import _MODULES

    target: str | None = None
    out_path: str | None = None
    verify = True
    walker = iter(args)
    for arg in walker:
        if arg in ("-o", "--output"):
            out_path = next(walker, None)
            if out_path is None:
                print(f"{arg} needs a path argument")
                return 2
        elif arg == "--no-verify":
            verify = False
        elif target is None:
            target = arg
        else:
            print(f"unexpected argument {arg!r}")
            return 2
    targets = ["demo", *_MODULES]
    if target is None:
        print("usage: python -m repro trace <target> [-o PATH] [--no-verify]")
        print("traceable targets: " + ", ".join(targets))
        return 2
    if target not in targets:
        return _unknown_command(target, targets)
    if out_path is None:
        out_path = f"trace_{target.replace('.', '_')}.json"

    from repro.errors import ReplayDivergenceError
    from repro.trace import export, replay
    from repro.trace.tracer import TraceSession

    def record() -> TraceSession:
        with TraceSession() as session:
            _run_traced_target(target)
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
    if not verify:
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


def _run_traced_target(target: str) -> None:
    if target == "demo":
        run_demo()
        return
    import importlib

    from repro.harness.experiments.__main__ import _MODULES

    module = importlib.import_module(
        f"repro.harness.experiments.{_MODULES[target]}"
    )
    module.run()


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
