"""Networked sharded serving front end.

``repro.serve`` hosts one in-process micro-batching engine;
``repro.serve.net`` puts N of them behind a socket. An asyncio HTTP
server (:class:`NetServer`) parses ``POST /v1/locate`` bodies, a
:class:`ShardSupervisor` routes each request to the worker owning its
``(estimator, config_hash)`` group (stable :func:`shard_for` digest),
and every worker process hosts its own :class:`repro.serve.ServeEngine`
— so micro-batches stay compact per group while groups proceed in
parallel across shards. Request arrays ride the worker pipe pickled
inline.

Operational surface: ``/healthz`` / ``/readyz`` probes, merged
Prometheus ``/metrics`` across shards, load shedding (429 with
``Retry-After``; 504 on deadline breaches), graceful drain on SIGTERM
that loses no accepted request, per-request ids (``X-Request-Id`` /
``traceparent``) with cross-process trace stitching into a flight
recorder (``/debug/traces``, dumped on SIGUSR2), ring-buffer telemetry
history (``/debug/timeseries``, ``lion top``), and multi-window
burn-rate SLOs (``/slo``). Streaming tags ride the session surface
(``POST /v1/sessions`` + NDJSON ``/reads`` chunks, lifecycle events in
every response) over one front-end :class:`repro.stream.SessionManager`
with session-aware drain. Start one with ``lion serve``, embed one
with :class:`ServerHandle`, or await :class:`NetServer` inside an
existing loop. See ``docs/serving.md`` and ``docs/observability.md``.
"""

from repro.serve.net.config import WORKER_MODES, NetServeConfig
from repro.serve.net.http import NetServer, ServerHandle, derive_serve_sample, run_server
from repro.serve.net.protocol import (
    ARRAY_FIELDS,
    SCALAR_FIELDS,
    BadRequestError,
    LocateCall,
    classify_error,
    encode_report_payload,
    error_body,
    parse_locate_body,
)
from repro.serve.net.sessions import (
    classify_session_error,
    feed_result_body,
    parse_reads_ndjson,
    parse_session_create,
)
from repro.serve.net.supervisor import ShardSupervisor, shard_for
from repro.serve.net.worker import WireRequest, WireResponse, WorkerConfig, worker_main

__all__ = [
    # config
    "NetServeConfig",
    "WORKER_MODES",
    # http
    "NetServer",
    "ServerHandle",
    "run_server",
    "derive_serve_sample",
    # protocol
    "ARRAY_FIELDS",
    "SCALAR_FIELDS",
    "BadRequestError",
    "LocateCall",
    "parse_locate_body",
    "encode_report_payload",
    "classify_error",
    "error_body",
    # sessions
    "parse_session_create",
    "parse_reads_ndjson",
    "feed_result_body",
    "classify_session_error",
    # supervisor
    "ShardSupervisor",
    "shard_for",
    # worker
    "WorkerConfig",
    "WireRequest",
    "WireResponse",
    "worker_main",
]
