"""repro.serve: fleet-as-a-service — a warm simulation daemon.

``python -m repro serve`` starts a long-running asyncio daemon that
owns a persistent worker pool, a process-wide template store and
result cache, and serves concurrent fleet / oracle / experiment jobs over a small HTTP +
JSON-lines protocol with streaming partial reports and cancellation.
``repro fleet --daemon URL`` is the thin client (falling back to
in-process execution when the daemon is unreachable); reports are
byte-identical to the plain CLI path.

See docs/SERVE.md for the protocol, the fairness model, and the
warm-path lifetimes.
"""

from repro.serve.client import DaemonClient, daemon_available
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    decode_event,
    encode_event,
    fleet_params_fingerprint,
    fleet_spec_from_params,
    resolve_app,
)
from repro.serve.queue import FairScheduler, Job

__all__ = [
    "DaemonClient",
    "FairScheduler",
    "Job",
    "PROTOCOL_VERSION",
    "daemon_available",
    "decode_event",
    "encode_event",
    "fleet_params_fingerprint",
    "fleet_spec_from_params",
    "resolve_app",
]
