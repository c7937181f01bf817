"""Deterministic network-fault injection for the distributed runtime.

``REPRO_CHAOS`` already drives the compute-fault kinds (``crash`` /
``hang`` / ``slow`` / ``fail``) inside pool workers — same grammar, same
environment variable, same determinism contract (a fault is a pure
function of shard index and attempt; no entropy, so every chaos run is
hashseed-reproducible). This module extends the plan to *delivery*
faults, injected by the ``repro worker`` daemon at the moment a shard
result frame would go on the wire:

* ``drop@I[:N]`` — the frame is silently not sent; the coordinator's
  work stealing re-dispatches the task (counted as ``tasks_stolen``).
* ``duplicate@I[:N]`` — the frame is sent twice; the coordinator's
  result ledger discards the second copy (``wire_duplicates``). Both
  copies carry ``copies: 2`` (a frame without the field is one copy),
  so the coordinator knows a copy is still owed after the first lands:
  its teardown waits for that copy, and only while one is owed, before
  the runtime snapshots the counters.
* ``reorder@I[:N]`` — the frame is held back until one later frame
  (result or heartbeat) has been sent first (``wire_reorders``).
* ``disconnect@I[:N]`` — the connection is closed *instead of* sending
  the frame; the coordinator requeues the worker's outstanding tasks
  and the daemon reconnects (``worker_disconnects``).

The delivery attempt that keys ``applies(index, attempt)`` is the
shard's runtime attempt *plus the coordinator's re-dispatch count*, so
a fault configured with the default ``N = 1`` hits the first delivery
and lets the recovery path's re-delivery through — without that, a
dropped result would be re-dropped forever.
"""

from __future__ import annotations

import os

from repro.core.shardexec import CHAOS_ENV, NETWORK_KINDS, ChaosSpec, parse_chaos

#: Fault kinds a *service client* can inject at its send site. The
#: network kinds translate directly (``reorder`` is meaningless on an
#: ordered request/ack stream and is ignored there); ``slow`` reuses the
#: compute-kind spelling to mean "sleep ``param`` seconds before
#: sending" — a deterministic slow-client fault for backpressure tests.
CLIENT_KINDS = NETWORK_KINDS | {"slow"}


def network_faults(index: int, attempt: int) -> tuple[str, ...]:
    """Network-fault kinds the plan injects for this (shard, delivery).

    Returns the applicable kinds in plan order; empty when
    ``REPRO_CHAOS`` is unset or names no network fault for this key.
    Compute kinds in the same plan are ignored here — they already
    fired inside the shard computation.
    """
    plan = os.environ.get(CHAOS_ENV)
    if not plan:
        return ()
    return tuple(
        spec.kind
        for spec in parse_chaos(plan)
        if spec.kind in NETWORK_KINDS and spec.applies(index, attempt)
    )


def client_faults(index: int, attempt: int) -> tuple[ChaosSpec, ...]:
    """Fault specs a service client injects for this (session, delivery).

    Unlike :func:`network_faults` this returns the full specs — the
    ``slow`` kind needs its param (seconds of client-side stall). Keyed
    by the client's session index and per-frame delivery attempt, so a
    default ``N = 1`` fault hits the first delivery of a frame and lets
    the resend after reconnect through.
    """
    plan = os.environ.get(CHAOS_ENV)
    if not plan:
        return ()
    return tuple(
        spec
        for spec in parse_chaos(plan)
        if spec.kind in CLIENT_KINDS and spec.applies(index, attempt)
    )


__all__ = ["CLIENT_KINDS", "client_faults", "network_faults"]
