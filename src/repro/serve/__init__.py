"""repro.serve — compile-as-a-service.

A long-running asyncio daemon that serves the CLI's compute commands
(``compile`` / ``run`` / ``explain`` / ``profile`` / ``fuzz``) over a
unix socket (JSON-lines) and optionally localhost HTTP, with
single-flight request dedup, micro-batched dispatch into a supervised
worker pool (``perf.supervisor``), bounded-queue backpressure, graceful
drain, and per-request-type latency metrics.  Responses are
byte-identical to the equivalent CLI invocation.

Layering: :mod:`~repro.serve.protocol` (wire format and validation),
:mod:`~repro.serve.handlers` (CLI-equivalent execution, picklable for
the pool), :mod:`~repro.serve.daemon` (event loop, queueing, serving),
:mod:`~repro.serve.client` (synchronous clients).
"""

from .client import Client, http_get, http_request, is_idempotent, request
from .daemon import Daemon, DaemonHandle, ServeConfig, start_daemon_thread
from .protocol import (
    COMPUTE_OPS, CONTROL_OPS, ProtocolError, Request, TraceContext,
    canonical_key, new_trace_id, parse_request,
)
from .tracing import build_request_trace, follower_trace, trace_span_names

__all__ = [
    "COMPUTE_OPS", "CONTROL_OPS", "Client", "Daemon", "DaemonHandle",
    "ProtocolError", "Request", "ServeConfig", "TraceContext",
    "build_request_trace", "canonical_key", "follower_trace", "http_get",
    "http_request", "is_idempotent", "new_trace_id", "parse_request",
    "request", "start_daemon_thread", "trace_span_names",
]
