"""The session protocol's op vocabulary: frame payload shapes.

Every frame between a client and the service daemon is a dict with a
``kind`` key, carried inside the distributed runtime's RPF1 frames
(:mod:`repro.distributed.framing` — lint rule RL007 lets the service
share that boundary). This module is the one place payload shapes are
spelled out; the server and the client library both build and check
frames through it, so the protocol cannot drift apart silently.

Request kinds and their replies::

    hello               -> welcome
    open                -> opened        (create, attach, or resume)
    append / events     -> ack | error   (seq-laddered, exactly-once)
    query               -> model
    profile             -> profile
    evict               -> evicted
    close               -> closed
    stats               -> stats
    shutdown            -> bye

Appends carry a per-session sequence number, a contiguous ladder
starting at 1. The server's ledger admits ``last_seq + 1``, acks
anything at or below ``last_seq`` as a duplicate without feeding it
(that is what makes client resends after a reconnect exactly-once),
and errors on a gap.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import ReproError

#: Version of the session protocol; mismatches refuse at handshake.
SERVICE_PROTOCOL = 1


class ServiceError(ReproError):
    """A protocol violation or a server-reported op failure."""


# ----------------------------------------------------------------------
# Request builders (client side)
# ----------------------------------------------------------------------

def hello(client: str) -> dict:
    return {"kind": "hello", "protocol": SERVICE_PROTOCOL, "client": client}


def open_op(
    session: str,
    tasks: Iterable[str],
    *,
    bound: int | None = None,
    tolerance: float = 0.0,
    format: str | None = None,
) -> dict:
    return {
        "kind": "open",
        "session": session,
        "tasks": tuple(tasks),
        "bound": bound,
        "tolerance": tolerance,
        "format": format,
    }


def append_op(session: str, seq: int, periods: list) -> dict:
    return {"kind": "append", "session": session, "seq": seq, "periods": periods}


def events_op(
    session: str, seq: int, events: list, *, end_period: bool = False
) -> dict:
    return {
        "kind": "events",
        "session": session,
        "seq": seq,
        "events": events,
        "end_period": end_period,
    }


def query_op(session: str) -> dict:
    return {"kind": "query", "session": session}


def profile_op(session: str) -> dict:
    return {"kind": "profile", "session": session}


def evict_op(session: str) -> dict:
    return {"kind": "evict", "session": session}


def close_op(session: str) -> dict:
    return {"kind": "close", "session": session}


def stats_op() -> dict:
    return {"kind": "stats"}


def shutdown_op() -> dict:
    return {"kind": "shutdown"}


# ----------------------------------------------------------------------
# Reply builders (server side)
# ----------------------------------------------------------------------

def welcome(server: str) -> dict:
    return {"kind": "welcome", "protocol": SERVICE_PROTOCOL, "server": server}


def ack(session: str, seq: int, periods: int, *, duplicate: bool = False) -> dict:
    return {
        "kind": "ack",
        "session": session,
        "seq": seq,
        "periods": periods,
        "duplicate": duplicate,
    }


def error_reply(
    session: str | None, message: str, *, fatal: bool = False
) -> dict:
    return {"kind": "error", "session": session, "error": message, "fatal": fatal}


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------

def expect(message: Any, kind: str) -> dict:
    """Validate a reply frame: the right shape, version, and *kind*.

    A server-side ``error`` reply is surfaced as a raised
    :class:`ServiceError` carrying the server's message, so client call
    sites read straight-line.
    """
    if not isinstance(message, dict) or "kind" not in message:
        raise ServiceError(f"malformed service frame: {message!r}")
    if message["kind"] == "error":
        raise ServiceError(str(message.get("error", "unspecified server error")))
    if message["kind"] != kind:
        raise ServiceError(
            f"expected a {kind!r} frame, got {message['kind']!r}"
        )
    protocol = message.get("protocol", SERVICE_PROTOCOL)
    if protocol != SERVICE_PROTOCOL:
        raise ServiceError(
            f"service protocol mismatch: peer speaks {protocol}, "
            f"this side speaks {SERVICE_PROTOCOL}"
        )
    return message


__all__ = [
    "SERVICE_PROTOCOL",
    "ServiceError",
    "ack",
    "append_op",
    "close_op",
    "error_reply",
    "events_op",
    "evict_op",
    "expect",
    "hello",
    "open_op",
    "profile_op",
    "query_op",
    "shutdown_op",
    "stats_op",
    "welcome",
]
