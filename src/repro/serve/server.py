"""The simulation daemon: ``python -m repro serve``.

One asyncio process owns everything the batch paths normally rebuild
per invocation — a :class:`~repro.engine.pool.PersistentPool` of
workers, a :class:`~repro.engine.snapshots.SnapshotStore` of cohort
templates (memory, then disk) and a
:class:`~repro.engine.cache.ResultCache` — and serves jobs over a
minimal HTTP/1.1 + JSON-lines protocol:

* ``POST /jobs``                — submit ``{"kind", "params", "client"}``;
  responds with the job id.
* ``GET /jobs/<id>/events``     — stream the job's events, one JSON
  object per line; history replays first, so a late subscriber reads
  the identical stream.  Ends with a terminal event (``done`` /
  ``cancelled`` / ``error``), then EOF.
* ``GET /jobs/<id>``            — one-shot job snapshot.
* ``DELETE /jobs/<id>``         — cancel: pending units are dropped,
  queued pool calls recalled, running units' results discarded.
* ``GET /status``               — daemon counters (resident templates,
  cache sizes, pool shape) for monitoring and the bench's warm gates.
* ``POST /shutdown``            — graceful stop: acknowledge, then
  drain the pool, remove owned scratch state.

Scheduling is shard-granular and client-fair (``serve/queue.py``);
results are byte-identical to the CLI by construction, because the
spec builder, the fleet coordinator (:class:`~repro.fleet.run.FleetPlan`)
and the task bodies are the very same code the CLI runs
(``serve/protocol.py``, ``serve/tasks.py``).

The HTTP layer is deliberately hand-rolled on ``asyncio.start_server``:
one request per connection, ``Connection: close`` everywhere, bodies
by ``Content-Length`` — small enough to audit, and free of any
dependency the container does not already have.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import shutil
import tempfile
from collections import deque
from concurrent.futures import Future
from typing import Any

from repro.engine import batch
from repro.engine.cache import ResultCache
from repro.engine.codec import experiment_digest
from repro.engine.pool import PersistentPool
from repro.engine.snapshots import SnapshotStore
from repro.errors import (
    FleetError,
    HuntError,
    OracleError,
    ServeError,
    SimulationError,
    WorkloadError,
)
from repro.harness.requests import _REQUEST_BUILDERS
from repro.options import parse, usage
from repro.serve import tasks
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    encode_event,
    fleet_spec_from_params,
    hunt_settings_from_params,
    job_params,
    resolve_app,
)
from repro.serve.queue import FairScheduler, Job

#: Emit a ``partial`` event every this many shard folds (and always on
#: the last one).  Streams stay light for huge fleets without going
#: silent on small ones.
DEFAULT_STREAM_EVERY = 4

#: Units kept in the pool per worker: one running, one queued behind
#: it, so a worker starts its next unit while the event loop is still
#: folding the last result and submitting.  Against one per worker,
#: two cut the cold ``fig14`` job in perfbench's serve set-up from
#: ~0.87 s to ~0.57 s on a 2-vCPU host; four was no clear win over two
#: (docs/PERFORMANCE.md, "Daemon dispatch").  It also bounds how long a
#: new job waits behind other clients' work: one queued unit per worker.
UNITS_PER_WORKER = 2

#: Terminal jobs remembered for ``GET /jobs/<id>`` and ``/status``;
#: older ones are forgotten, oldest first, and answer like unknown ids.
MAX_FINISHED_JOBS = 256

_BAD_REQUEST = (ServeError, FleetError, HuntError, OracleError,
                WorkloadError)


class Daemon:
    """All daemon state plus the per-kind job drivers."""

    def __init__(
        self,
        *,
        jobs: "int | str" = "auto",
        root: str | None = None,
        stream_every: int = DEFAULT_STREAM_EVERY,
    ):
        self.workers = batch._resolve_jobs(jobs, os.cpu_count() or 1)
        self._owns_root = root is None
        self.root = root or tempfile.mkdtemp(prefix="repro-serve-")
        os.makedirs(self.root, exist_ok=True)
        self.template_root = os.path.join(self.root, "templates")
        self.store = SnapshotStore(root=self.template_root)
        self.cache = ResultCache(root=os.path.join(self.root, "results"))
        self.pool = PersistentPool(self.workers)
        self.scheduler = FairScheduler()
        self.jobs: dict[str, Job] = {}
        self._finished: deque[str] = deque()
        self.stream_every = max(1, stream_every)
        self.counters = {
            "jobs_submitted": 0,
            "jobs_done": 0,
            "jobs_cancelled": 0,
            "jobs_failed": 0,
            "units_run": 0,
        }
        self._inflight = 0
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    # job submission (runs on the event loop; must not simulate)
    # ------------------------------------------------------------------
    def submit(self, kind: str, params: dict, client: str) -> Job:
        """Validate, register, and stage a job; raises on bad requests."""
        job = Job(kind, job_params(kind, params), client)
        prepare = {
            "fleet": self._prepare_fleet,
            "oracle": self._prepare_oracle,
            "experiment": self._prepare_experiment,
            "hunt": self._prepare_hunt,
        }[kind]
        # "accepted" is emitted before prepare so it is always event 0
        # of the stream; a prepare failure raises before the job is
        # registered, so the orphaned event is never observable.
        job.emit("accepted", kind=kind, client=client)
        prepare(job)
        self.jobs[job.job_id] = job
        self.counters["jobs_submitted"] += 1
        job.state = "running"
        self.scheduler.add(job)
        self._pump()
        # A job whose units were all served from caches is already done.
        self._maybe_finalize(job)
        return job

    # --- fleet ---------------------------------------------------------
    def _prepare_fleet(self, job: Job) -> None:
        from repro.fleet.run import FleetPlan

        plan = FleetPlan(fleet_spec_from_params(job.params))
        job.fleet = plan

        # Provision templates: the store (memory, then disk) or a
        # capture in the pool.  Shard units wait until every template
        # is stored, so a cold cell is built exactly once instead of
        # once per worker.
        job.captures_pending = set()
        for cell_index, key in plan.keys.items():
            if self.store.get(key) is not None:
                continue
            job.captures_pending.add(cell_index)
            job.add_unit(tasks.capture_template_unit,
                         (plan.spec, cell_index),
                         tag=f"capture:{cell_index}")
        job.emit("started", kind="fleet", shards=plan.total_shards,
                 devices=plan.spec.total_devices,
                 cold_templates=len(job.captures_pending))
        if not job.captures_pending:
            self._stage_fleet_shards(job)

    def _stage_fleet_shards(self, job: Job) -> None:
        """All templates stored: queue the shard units."""
        from repro.fleet.run import _run_shard_task, steal_order

        plan = job.fleet
        for shard in steal_order(list(plan.pending.values())):
            job.add_unit(_run_shard_task,
                         plan.payload(shard, self.template_root),
                         tag=f"shard:{shard.shard_id}")
        job.no_more_units = True

    def _fleet_result(self, job: Job, tag: str, result: Any) -> None:
        plan = job.fleet
        kind, _, index = tag.partition(":")
        if kind == "capture":
            self.store.put(plan.keys[int(index)], result)
            job.captures_pending.discard(int(index))
            if not job.captures_pending:
                self._stage_fleet_shards(job)
            return
        plan.fold(int(index), result)
        if plan.pending and len(plan.completed) % self.stream_every == 0:
            job.emit("partial", covered_shards=len(plan.completed),
                     devices=plan.devices,
                     report_json=plan.result().to_json())

    def _finalize_fleet(self, job: Job) -> None:
        plan = job.fleet
        result = plan.result()
        job.result = result.to_json()
        job.emit("done", covered_shards=len(plan.completed),
                 devices=plan.devices, report_json=job.result,
                 exit=result.exit_code)

    # --- oracle and hunt: one unit, one canonical report ----------------
    def _prepare_oracle(self, job: Job) -> None:
        from repro.oracle.session import DEFAULT_POLICIES

        params = job.params
        app, known = resolve_app(params["app"])
        if app is None:
            raise ServeError(
                f"unknown app {params['app']!r}; known: {known}"
            )
        policies = params["policies"] or DEFAULT_POLICIES
        job.add_unit(tasks.run_oracle_unit,
                     (app, policies, params["seed"], params["member"]),
                     tag="oracle")
        job.no_more_units = True

    def _prepare_hunt(self, job: Job) -> None:
        # Settings are built here, on submit, so a malformed request
        # (unknown policy) is a 400 — not a failed unit.  The hunt runs
        # its probe batches in the worker (``jobs=1``): the daemon's
        # scheduler owns the pool, and a worker spawning its own
        # grandchild pool would fight it for cores.
        settings = hunt_settings_from_params(job.params)
        job.add_unit(tasks.run_hunt_unit,
                     dataclasses.replace(settings, jobs=1), tag="hunt")
        job.no_more_units = True

    def _report_result(self, job: Job, tag: str, result: Any) -> None:
        job.report = result
        job.result = result[0]

    def _finalize_report(self, job: Job) -> None:
        report_json, text, exit_code = job.report
        job.emit("done", report_json=report_json, text=text, exit=exit_code)

    # --- experiment ----------------------------------------------------
    def _prepare_experiment(self, job: Job) -> None:
        name = job.params["experiment"]
        if name not in _REQUEST_BUILDERS:
            raise ServeError(
                f"unknown experiment {name!r}; "
                f"known: {sorted(_REQUEST_BUILDERS)}"
            )
        requests = _REQUEST_BUILDERS[name](job.params["seed"])
        job.exp_results: list = [None] * len(requests)
        job.exp_keys = [request.cache_key() for request in requests]
        misses = []
        for position, request in enumerate(requests):
            hit, value = self.cache.get(job.exp_keys[position])
            if hit:
                job.exp_results[position] = value
            else:
                misses.append(position)
        job.exp_hits = len(requests) - len(misses)
        job.exp_calls = batch.plan_calls(requests, misses, self.workers,
                                         share=True)
        for index, call in enumerate(job.exp_calls):
            job.add_unit(batch.execute_call,
                         (batch.call_requests(requests, call), None, False),
                         tag=f"call:{index}")
        job.no_more_units = True

    def _experiment_result(self, job: Job, tag: str, result: Any) -> None:
        call = job.exp_calls[int(tag.split(":", 1)[1])]
        for group, group_results in zip(call, result):
            for position, value in zip(group, group_results):
                job.exp_results[position] = value
                self.cache.put(job.exp_keys[position], value)

    def _finalize_experiment(self, job: Job) -> None:
        digest = experiment_digest(job.exp_results)
        job.result = digest
        job.emit("done", experiment=job.params["experiment"],
                 runs=len(job.exp_results), cache_hits=job.exp_hits,
                 digest=digest, exit=0)

    # ------------------------------------------------------------------
    # the unit pump
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Keep ``UNITS_PER_WORKER`` units per worker in the pool."""
        while (self._inflight < self.workers * UNITS_PER_WORKER
               and not self._stopping.is_set()):
            picked = self.scheduler.next_unit()
            if picked is None:
                return
            job, (fn, payload, tag) = picked
            try:
                future = self.pool.submit(fn, payload)
            except Exception as exc:  # the respawned pool failed too
                future = Future()
                future.set_exception(exc)
            job.futures.add(future)
            self._inflight += 1
            asyncio.ensure_future(self._run_unit(job, tag, future))

    async def _run_unit(self, job: Job, tag: str, future: Future) -> None:
        error: str | None = None
        result = None
        try:
            result = await asyncio.wrap_future(future)
        except asyncio.CancelledError:
            # The pool call was cancelled before a worker took it:
            # recalled by ``cancel()`` or dropped by a pool shutdown.
            # Otherwise this task itself was cancelled; that propagates.
            if not future.cancelled():
                raise
            error = "cancelled in the pool"
        except SimulationError as exc:
            error = str(exc)
        except Exception as exc:  # worker died, pickling, ...
            error = f"{type(exc).__name__}: {exc}"
        finally:
            job.futures.discard(future)
            self._inflight -= 1
            self.counters["units_run"] += 1
            job.unit_done()
        if job.terminal:
            # Cancelled while this unit was queued or running: discard
            # the result; the job's accumulators stay exactly as the
            # cancel event left them.
            self._maybe_retire(job)
        elif error is not None:
            self._fail(job, f"unit {tag}: {error}")
        else:
            handler = {
                "fleet": self._fleet_result,
                "oracle": self._report_result,
                "experiment": self._experiment_result,
                "hunt": self._report_result,
            }[job.kind]
            try:
                handler(job, tag, result)
            except SimulationError as exc:
                self._fail(job, str(exc))
            else:
                self._maybe_finalize(job)
        self._pump()

    def _maybe_finalize(self, job: Job) -> None:
        if job.terminal or not job.drained:
            return
        finalize = {
            "fleet": self._finalize_fleet,
            "oracle": self._finalize_report,
            "experiment": self._finalize_experiment,
            "hunt": self._finalize_report,
        }[job.kind]
        finalize(job)
        job.finish("done")
        self.counters["jobs_done"] += 1
        self.scheduler.discard(job)
        self._forget_old_jobs(job)

    def _fail(self, job: Job, message: str) -> None:
        job.units.clear()
        job.no_more_units = True
        job.emit("error", message=message, exit=2)
        job.finish("error")
        self.counters["jobs_failed"] += 1
        self.scheduler.discard(job)
        self._forget_old_jobs(job)

    def cancel(self, job: Job) -> bool:
        """Drop the job's pending work and recall its queued pool calls.

        A call a worker has already taken cannot be recalled; its
        result is discarded when it returns.
        """
        if not job.cancel():
            return False
        for future in list(job.futures):
            future.cancel()
        job.emit("cancelled", exit=3)
        job.finish("cancelled")
        self.counters["jobs_cancelled"] += 1
        self._maybe_retire(job)
        self._forget_old_jobs(job)
        self._pump()
        return True

    def _forget_old_jobs(self, finished: Job) -> None:
        """Remember ``finished``; drop the oldest beyond the bound."""
        self._finished.append(finished.job_id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            self.jobs.pop(self._finished.popleft(), None)

    def _maybe_retire(self, job: Job) -> None:
        if job.terminal and job.in_flight == 0:
            self.scheduler.discard(job)

    # ------------------------------------------------------------------
    def status(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "workers": self.workers,
            "pool": {
                "alive": self.pool.alive,
                "using_threads": self.pool.using_threads,
                "respawns": self.pool.respawns,
            },
            "inflight_units": self._inflight,
            "jobs": {job_id: job.state
                     for job_id, job in self.jobs.items()},
            "resident": {
                "templates": len(self.store),
                "template_warm_hits": self.store.stats.memory_hits,
            },
            "result_cache_entries": len(self.cache),
            "counters": dict(self.counters),
        }

    def shutdown(self) -> None:
        """Synchronous teardown: pool and owned scratch state.

        After this returns nothing of the daemon is left on the host —
        no worker processes and (when the root was daemon-owned) no
        scratch directory.
        """
        self._stopping.set()
        for job in list(self.scheduler.jobs()):
            self.cancel(job)
        self.pool.shutdown()
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)


# ----------------------------------------------------------------------
# the HTTP layer
# ----------------------------------------------------------------------
class _Server:
    def __init__(self, daemon: Daemon):
        self.daemon = daemon
        self._closing = asyncio.Event()

    # -- response helpers ----------------------------------------------
    @staticmethod
    def _head(status: int, content_type: str,
              length: "int | None") -> bytes:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed"}.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")

    def _json(self, writer, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")) + "\n").encode("utf-8")
        writer.write(self._head(status, "application/json", len(body)))
        writer.write(body)

    # -- request handling ----------------------------------------------
    async def handle(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("ascii", "replace").split()
            if len(parts) < 2:
                return
            method, target = parts[0], parts[1]
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("ascii", "replace") \
                                     .partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or 0)
            body = await reader.readexactly(length) if length else b""
            await self._route(method, target, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # never kill the accept loop
            try:
                self._json(writer, 400, {"error": f"{exc}"})
            except Exception:
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
            except Exception:
                pass

    async def _route(self, method: str, target: str, body: bytes,
                     writer) -> None:
        daemon = self.daemon
        if method == "GET" and target == "/status":
            return self._json(writer, 200, daemon.status())
        if method == "POST" and target == "/shutdown":
            self._json(writer, 200, {"ok": True})
            self._closing.set()
            return
        if method == "POST" and target == "/jobs":
            try:
                request = json.loads(body.decode("utf-8") or "{}")
                if not isinstance(request, dict):
                    raise ServeError("request body must be a JSON object")
                job = daemon.submit(
                    request.get("kind", ""),
                    request.get("params") or {},
                    str(request.get("client") or "anon"),
                )
            except _BAD_REQUEST as exc:
                return self._json(writer, 400, {"error": str(exc)})
            except ValueError as exc:
                return self._json(writer, 400,
                                  {"error": f"bad JSON body: {exc}"})
            return self._json(writer, 200,
                              {"job": job.job_id, "state": job.state})
        if target.startswith("/jobs/"):
            tail = target[len("/jobs/"):]
            job_id, _, sub = tail.partition("/")
            job = daemon.jobs.get(job_id)
            if job is None:
                return self._json(writer, 404,
                                  {"error": f"unknown job {job_id!r}"})
            if method == "GET" and sub == "events":
                return await self._stream(job, writer)
            if method == "GET" and not sub:
                return self._json(writer, 200, {
                    "job": job.job_id, "kind": job.kind,
                    "client": job.client, "state": job.state,
                    "events": len(job.events),
                })
            if method == "DELETE" and not sub:
                changed = daemon.cancel(job)
                return self._json(writer, 200, {
                    "job": job.job_id, "state": job.state,
                    "cancelled": changed,
                })
        self._json(writer, 405 if target.startswith("/jobs") else 404,
                   {"error": f"cannot {method} {target}"})

    async def _stream(self, job: Job, writer) -> None:
        """Replay history, then live events, until a terminal one."""
        writer.write(self._head(200, "application/x-ndjson", None))
        queue: asyncio.Queue = asyncio.Queue()
        history = job.subscribe(queue.put_nowait)
        try:
            terminal = False
            for event in history:
                writer.write(encode_event(event))
                terminal = terminal or event["event"] in (
                    "done", "cancelled", "error")
            await writer.drain()
            while not terminal:
                event = await queue.get()
                writer.write(encode_event(event))
                await writer.drain()
                terminal = event["event"] in ("done", "cancelled", "error")
        finally:
            job.unsubscribe(queue.put_nowait)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    opts = parse("serve", list(argv or []))
    if isinstance(opts, int):
        return opts
    if opts["help"]:
        print(usage("serve"))
        return 0
    if opts["stop"] is not None:
        from repro.serve.client import DaemonClient

        try:
            DaemonClient(opts["stop"]).shutdown()
        except ServeError as error:
            print(f"serve error: {error}")
            return 1
        print(f"asked {opts['stop']} to shut down")
        return 0

    stream_every = opts["stream_every"]
    return asyncio.run(_serve(
        opts["host"], opts["port"], opts["jobs"], opts["root"],
        opts["ready_file"],
        DEFAULT_STREAM_EVERY if stream_every is None else stream_every,
    ))


async def _serve(host, port, jobs, root, ready_file, stream_every) -> int:
    daemon = Daemon(jobs=jobs, root=root, stream_every=stream_every)
    front = _Server(daemon)
    try:
        server = await asyncio.start_server(front.handle, host, port)
    except OSError as error:
        print(f"cannot listen on {host}:{port}: "
              f"{error.strerror or error}")
        daemon.shutdown()
        return 1
    bound_port = server.sockets[0].getsockname()[1]
    url = f"http://{host}:{bound_port}"
    print(f"repro daemon serving on {url} "
          f"({daemon.workers} worker{'s' if daemon.workers != 1 else ''})",
          flush=True)
    if ready_file is not None:
        payload = json.dumps({"url": url, "pid": os.getpid()})
        tmp = ready_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        os.replace(tmp, ready_file)
    try:
        async with server:
            await front._closing.wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        server.close()
        await server.wait_closed()
        daemon.shutdown()
    print("repro daemon stopped", flush=True)
    return 0
