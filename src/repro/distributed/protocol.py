"""Message shapes of the distributed shard protocol.

One frame (see :mod:`repro.distributed.framing`) carries one ``dict``
payload whose ``"kind"`` key names the message. The conversation:

worker → coordinator
    ``hello`` (protocol version, worker name, slots) · ``result``
    (task id, outcome or pickled exception, and ``copies`` when the
    frame is sent more than once) · ``heartbeat`` · ``refuse``
    (handshake rejection, e.g. a store fingerprint mismatch)

coordinator → worker
    ``welcome`` (session id, heartbeat interval, expected store
    fingerprint) · ``task`` (task id, shard index, delivery attempt,
    callable + argument tuple) · ``reset`` (abandon running work, kill
    and rebuild the local pool) · ``shutdown`` (exit cleanly)

The handshake refuses two classes of mismatch up front, before any
shard is dispatched:

* **protocol version** — coordinator and worker must agree exactly;
  the version is bumped whenever a message shape changes;
* **store fingerprint** — when the coordinator is learning from a
  ``.rts`` store, workers receive the store's path, size, and header
  hash and must find an identical store at that same path locally
  (shard tasks pickle as ``(path, start, stop)`` handles, so a worker
  with a stale or different store would silently learn wrong periods —
  the fingerprint turns that into a loud refusal at connect time).
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

from repro.errors import ReproError

#: Wire protocol version. Bump on any message-shape change; coordinator
#: and worker refuse to talk across versions. Version 2: a shard task's
#: arguments are ``(tasks, periods, tolerance, index, attempt)``.
PROTOCOL_VERSION = 2

#: Default seconds between worker heartbeats.
HEARTBEAT_INTERVAL = 0.5

#: Missed-heartbeat multiple after which a worker is declared dead.
HEARTBEAT_TIMEOUT_FACTOR = 6.0


class ProtocolError(ReproError):
    """A peer spoke the wrong protocol (version, kind, or handshake)."""


def parse_address(url: str) -> tuple[str, int]:
    """``tcp://HOST:PORT`` → ``(host, port)``.

    The only supported scheme is ``tcp``; the port is mandatory. This
    is the address grammar of ``repro learn --scheduler`` and
    ``repro worker``.
    """
    prefix = "tcp://"
    if not url.startswith(prefix):
        raise ProtocolError(
            f"scheduler address must look like tcp://HOST:PORT, got {url!r}"
        )
    host, _, port_text = url[len(prefix):].rpartition(":")
    if not host or not port_text:
        raise ProtocolError(
            f"scheduler address must look like tcp://HOST:PORT, got {url!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError(
            f"scheduler port is not a number in {url!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ProtocolError(f"scheduler port {port} out of range in {url!r}")
    return host, port


@dataclass(frozen=True)
class StoreFingerprint:
    """Identity of a ``.rts`` store both ends must share.

    ``digest`` covers the store's magic, header length, and full JSON
    header (task universe, subject table, counts, column layout) plus
    the file size — O(header) to compute, yet any divergence in content
    shape shows up in the counts/columns and flips the digest. Workers
    compare against the store at the *same absolute path*, which is the
    deployment contract: every host mounts the trace store at an
    identical location (shared filesystem or a prior copy).
    """

    path: str
    size: int
    digest: str

    def describe(self) -> str:
        return f"{self.path} ({self.size} bytes, sha256:{self.digest[:12]})"


def store_fingerprint(path: str) -> StoreFingerprint:
    """Fingerprint the store at *path* (see :class:`StoreFingerprint`)."""
    absolute = os.path.abspath(os.fspath(path))
    size = os.path.getsize(absolute)
    digest = hashlib.sha256()
    with open(absolute, "rb") as stream:
        lead = stream.read(16)
        digest.update(lead)
        if len(lead) == 16:
            (header_len,) = struct.unpack("<Q", lead[8:16])
            digest.update(stream.read(min(header_len, 1 << 24)))
    digest.update(struct.pack("<Q", size))
    return StoreFingerprint(path=absolute, size=size, digest=digest.hexdigest())


def hello(worker_name: str, slots: int) -> dict:
    return {
        "kind": "hello",
        "protocol": PROTOCOL_VERSION,
        "worker": worker_name,
        "slots": slots,
        "pid": os.getpid(),
    }


def welcome(
    session: str,
    store: StoreFingerprint | None,
    heartbeat_interval: float,
) -> dict:
    return {
        "kind": "welcome",
        "protocol": PROTOCOL_VERSION,
        "session": session,
        "store": store,
        "heartbeat_interval": heartbeat_interval,
    }


def check_protocol(message: dict, expected_kind: str) -> dict:
    """Validate a handshake message's kind and protocol version."""
    kind = message.get("kind")
    if kind == "refuse":
        raise ProtocolError(
            f"peer refused the handshake: {message.get('reason', 'no reason')}"
        )
    if kind != expected_kind:
        raise ProtocolError(
            f"expected a {expected_kind!r} message, got {kind!r}"
        )
    version = message.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this end speaks {PROTOCOL_VERSION}"
        )
    return message


__all__ = [
    "HEARTBEAT_INTERVAL",
    "HEARTBEAT_TIMEOUT_FACTOR",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "StoreFingerprint",
    "check_protocol",
    "hello",
    "parse_address",
    "store_fingerprint",
    "welcome",
]
