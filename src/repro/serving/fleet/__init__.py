"""Distributed profiling fleet: remote executors with lease-based work pull.

The fleet generalizes the server's process pool across machines.  The
server side (:class:`FleetDispatcher`) keeps the executors and which of them
holds each lease in one table, and hands leased batches off the profiling
service's pending queue to whoever claims them; a lease lives exactly as
long as its executor is heard from.  The client side
(:class:`ProfilingExecutor` over :class:`FleetClient`) pulls, runs and
commits.  While no executor is live, the service's execution loop trains
every pending key itself — a local-only server never waits on the fleet.

Importing this package does not import the HTTP transport; the dispatcher
is socket-free (it only ever sees Python calls), which is what keeps the
in-process tests and the local serving path free of network machinery.
:class:`ProfilingExecutor` is re-exported lazily for the same reason —
pulling it in drags the HTTP client along, and only actual executors need it.
"""

from repro.serving.fleet.dispatcher import (
    ClaimGrant,
    CommitOutcome,
    ExecutorInfo,
    FleetDispatcher,
)

__all__ = [
    "ClaimGrant",
    "CommitOutcome",
    "ExecutorInfo",
    "FleetClient",
    "FleetDispatcher",
    "ProfilingExecutor",
]


def __getattr__(name: str):
    # Lazy: the executor half imports the HTTP client stack, which a
    # dispatch-only server process never needs.
    if name in ("ProfilingExecutor", "FleetClient"):
        from repro.serving.fleet import executor

        return getattr(executor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
