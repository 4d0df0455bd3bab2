"""Distributed profiling fleet: remote executors with lease-based work pull.

The fleet generalizes the server's process pool across machines.  The
server side (:class:`FleetDispatcher` + :class:`ExecutorRegistry` +
:class:`LeaseTable`) hands leased batches off the profiling service's
pending queue to whoever claims them; the client side
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
    FleetDispatcher,
)
from repro.serving.fleet.leases import Lease, LeaseTable
from repro.serving.fleet.registry import ExecutorInfo, ExecutorRegistry

__all__ = [
    "ClaimGrant",
    "CommitOutcome",
    "ExecutorInfo",
    "ExecutorRegistry",
    "FleetClient",
    "FleetDispatcher",
    "Lease",
    "LeaseTable",
    "ProfilingExecutor",
]


def __getattr__(name: str):
    # Lazy: the executor half imports the HTTP client stack, which a
    # dispatch-only server process never needs.
    if name in ("ProfilingExecutor", "FleetClient"):
        from repro.serving.fleet import executor

        return getattr(executor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
