"""The long-lived learning service: many streaming sessions, one daemon.

``repro serve tcp://HOST:PORT`` turns the batch learner into an
always-on system: independent clients stream trace periods into live
sessions, query the current model at any point, and survive eviction,
reconnects, and their own faults — with every session's model
bit-identical to a ``repro learn`` run over the same periods.

Public surface:

* :func:`~repro.service.server.serve_service` — the blocking daemon
  entry point (what the CLI calls).
* :class:`~repro.service.server.ServiceThread` — an in-process daemon
  for tests and benchmarks.
* :class:`~repro.service.client.ServiceClient` — the synchronous
  client library.
* :class:`~repro.service.config.SessionPolicy` — queue bounds,
  eviction pressure, degrade policy.

Everything here is the asyncio side of the RL008 boundary; callers
use the synchronous wrappers and never touch an event loop.
"""

from repro.service.client import ServiceClient
from repro.service.config import SessionPolicy
from repro.service.ops import ServiceError
from repro.service.server import ServiceServer, ServiceThread, serve_service

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceThread",
    "SessionPolicy",
    "serve_service",
]
