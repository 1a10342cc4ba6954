"""Wire protocol of the compile service.

One request, one response, both single JSON objects.  Over the unix
socket the framing is JSON-lines (one object per ``\\n``-terminated
line, any number per connection, answered in order); over the localhost
HTTP listener the same objects travel as ``POST /v1/request`` bodies.

Request::

    {"id": 7, "op": "run", "args": ["examples/livermore5.c", "--json"]}

``op`` is a compute op (``compile`` / ``run`` / ``explain`` /
``profile`` / ``fuzz`` — exactly the CLI subcommands, executed with
``args`` as the subcommand's argument vector) or a control op
(``ping`` / ``stats`` / ``shutdown``).  ``id`` is an arbitrary JSON
scalar echoed back so clients can pipeline.  An optional ``source``
field carries inline Mini-C text: the daemon spools it to a
content-named file and substitutes that path for the ``{source}``
placeholder in ``args`` (appending it when no placeholder is present).
An optional ``trace: true`` flag requests end-to-end tracing: the
response then also carries a ``trace`` object — one merged Chrome
trace spanning queue wait, batch assembly, dispatch, cache lookups,
and handler execution, all stamped with one trace id (see
:class:`TraceContext`).  An optional ``deadline_ms`` number bounds how
long the client is willing to wait: a request still queued when the
budget expires is shed with an ``error: "deadline_exceeded"`` refusal
rather than executed late.

Compute response::

    {"id": 7, "ok": true, "exit_code": 0, "stdout": "...",
     "stderr": "..."}

``stdout``/``stderr``/``exit_code`` are exactly what the equivalent
CLI invocation would have produced — byte-identical output is the
service's core contract (and what the serve-smoke CI job asserts).
Failures at the *protocol* level (unknown op, malformed JSON,
overload, draining) instead carry ``ok: false`` and an ``error``
string; ``id`` is ``null`` when the request was too malformed to
carry one.

The single-flight identity of a request is :func:`canonical_key`:
requests equal under it are the same computation, and concurrent ones
coalesce onto one in-flight execution.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "COMPUTE_OPS", "CONTROL_OPS", "SOURCE_PLACEHOLDER",
    "ProtocolError", "Request", "TraceContext", "new_trace_id",
    "parse_request", "canonical_key",
    "error_response", "encode_line", "decode_line",
]

#: Compute ops mirror CLI subcommands one-for-one.
COMPUTE_OPS = frozenset({"compile", "run", "explain", "profile", "fuzz"})
#: Control ops are answered inline by the daemon, never queued.
CONTROL_OPS = frozenset({"ping", "stats", "shutdown"})

#: Placeholder in ``args`` replaced by the spooled path of an inline
#: ``source`` payload.
SOURCE_PLACEHOLDER = "{source}"

_MAX_ARGS = 64
_MAX_SOURCE_BYTES = 1 << 20
#: one day — deadlines exist to bound waiting, not to schedule it
_MAX_DEADLINE_MS = 86_400_000


class ProtocolError(ValueError):
    """A structurally invalid request (reported, never raised across
    the wire: the daemon turns it into an ``ok: false`` response)."""


@dataclass(frozen=True)
class Request:
    """A parsed, validated request."""

    op: str
    args: tuple = ()
    source: Optional[str] = None
    #: request-scoped tracing: ``trace: true`` asks the daemon to mint
    #: a TraceContext and return one merged Chrome trace covering the
    #: request's whole lifecycle.  Part of the single-flight identity —
    #: a traced request never coalesces onto an untraced execution
    #: (whose trace would not exist) or vice versa.
    trace: bool = False
    #: client-imposed completion budget in milliseconds, measured from
    #: admission.  A request still queued when its budget expires is
    #: shed with a ``deadline_exceeded`` refusal instead of executing.
    #: Excluded from the single-flight identity (``compare=False`` and
    #: absent from :func:`canonical_key`): the deadline shapes *when*
    #: an execution may be abandoned, not *what* it computes — a
    #: follower that coalesces onto a deadline-carrying leader shares
    #: the leader's fate, including a shed.
    deadline_ms: Optional[float] = field(default=None, compare=False)
    id: object = field(default=None, compare=False)

    @property
    def is_control(self) -> bool:
        return self.op in CONTROL_OPS


@dataclass(frozen=True)
class TraceContext:
    """The identity a request's spans share across process boundaries.

    Minted by the daemon at admission (one per traced request) and
    carried on the payload into whichever tier executes the request —
    the daemon's inline worker thread or a supervised pool worker —
    where the handler attaches a recording tracer to it.
    Every span in the merged trace carries ``trace_id`` in its args,
    so a span tree can be filtered back out of any event soup.
    ``parent_span`` names the span that caused this context to exist
    (for a follower coalesced onto a leader's execution, the leader's
    trace id).
    """

    trace_id: str
    parent_span: str = ""

    def to_wire(self) -> dict:
        return {"trace_id": self.trace_id,
                "parent_span": self.parent_span}


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id (process-unique, collision-safe
    across daemons by randomness rather than coordination)."""
    return os.urandom(8).hex()


def parse_request(payload: object) -> Request:
    """Validate a decoded JSON payload into a :class:`Request`.

    Raises :class:`ProtocolError` with a one-line reason on anything
    structurally wrong; the daemon reports that reason to the client.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    op = payload.get("op")
    if not isinstance(op, str):
        raise ProtocolError("missing or non-string 'op'")
    if op not in COMPUTE_OPS and op not in CONTROL_OPS:
        allowed = ", ".join(sorted(COMPUTE_OPS | CONTROL_OPS))
        raise ProtocolError(f"unknown op {op!r} (expected one of: "
                            f"{allowed})")
    args = payload.get("args", [])
    if not isinstance(args, list) or \
            not all(isinstance(a, str) for a in args):
        raise ProtocolError("'args' must be a list of strings")
    if len(args) > _MAX_ARGS:
        raise ProtocolError(f"too many args (max {_MAX_ARGS})")
    source = payload.get("source")
    if source is not None:
        if not isinstance(source, str):
            raise ProtocolError("'source' must be a string")
        if len(source.encode("utf-8", "replace")) > _MAX_SOURCE_BYTES:
            raise ProtocolError("inline source too large")
    trace = payload.get("trace", False)
    if not isinstance(trace, bool):
        raise ProtocolError("'trace' must be a boolean")
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or \
                not isinstance(deadline_ms, (int, float)):
            raise ProtocolError("'deadline_ms' must be a number")
        if not deadline_ms > 0:
            raise ProtocolError("'deadline_ms' must be positive")
        if deadline_ms > _MAX_DEADLINE_MS:
            raise ProtocolError(
                f"'deadline_ms' too large (max {_MAX_DEADLINE_MS})")
    request_id = payload.get("id")
    if isinstance(request_id, (dict, list)):
        raise ProtocolError("'id' must be a JSON scalar")
    return Request(op=op, args=tuple(args), source=source, trace=trace,
                   deadline_ms=deadline_ms, id=request_id)


def canonical_key(request: Request) -> tuple:
    """The single-flight identity: equal keys are the same computation.

    ``trace`` participates: a traced request's response carries a
    merged trace an untraced execution would not have produced, so the
    two are different computations even over identical (op, args,
    source).  Traced requests still coalesce with each other — the
    follower's response gets its own synthetic ``serve.coalesced``
    span referencing the leader's trace id.
    """
    return (request.op, request.args, request.source, request.trace)


def error_response(message: str, request_id: object = None) -> dict:
    return {"id": request_id, "ok": False, "error": message}


def encode_line(payload: dict) -> bytes:
    """One JSON-lines frame (compact separators keep frames small)."""
    return json.dumps(payload, separators=(",", ":"),
                      default=str).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> object:
    """Decode one frame; raises :class:`ProtocolError` on bad JSON."""
    try:
        return json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed JSON: {exc}") from None
