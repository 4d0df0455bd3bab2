"""Multi-tenant navigation serving: queue, scheduler, server, client.

Turns the single-user :class:`~repro.explorer.navigator.GNNavigator` into a
service.  Many clients submit :class:`NavigationRequest`s; a priority job
queue and a bounded worker pool multiplex them; one shared
:class:`~repro.runtime.parallel.ProfilingService` (which shares in-flight
runs between jobs) plus its persistent
:class:`~repro.runtime.parallel.ResultStore` make every ground-truth
measurement a one-time cost across all tenants.
"""

from repro.serving.client import JobHandle, NavigationClient
from repro.serving.events import EventBatch, EventBuffer, JobProgressEvent
from repro.serving.metrics import MetricsRegistry
from repro.serving.queue import PriorityJobQueue
from repro.serving.scheduler import SharedProfilingService
from repro.serving.server import NavigationServer
from repro.serving.types import (
    Job,
    JobResult,
    JobSnapshot,
    JobStatus,
    NavigationRequest,
)

__all__ = [
    "EventBatch",
    "EventBuffer",
    "Job",
    "JobHandle",
    "JobProgressEvent",
    "JobResult",
    "JobSnapshot",
    "JobStatus",
    "MetricsRegistry",
    "NavigationClient",
    "NavigationRequest",
    "NavigationServer",
    "PriorityJobQueue",
    "SharedProfilingService",
]

# The network transport (repro.serving.transport) is imported lazily by its
# users — keeping it out of this namespace keeps `import repro.serving`
# socket-free for the in-process path.
