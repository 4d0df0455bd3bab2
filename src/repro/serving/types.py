"""Request/job vocabulary of the navigation serving layer.

A :class:`NavigationRequest` is what a client hands the server: the
pre-determined task, the exploration objectives, the Step-2 profiling budget,
a queue priority and the tenant it belongs to (the fair-share scheduling
lane).  The server wraps each accepted request in a :class:`Job` that walks
the lifecycle

    PENDING -> RUNNING -> DONE | FAILED
    PENDING -> CANCELLED            (dropped from the queue, never ran)
    RUNNING -> CANCELLED            (cooperative, at a profiling-batch
                                     boundary via the job's token)

and, on success, carries a :class:`JobResult` (the chosen guidelines plus
the exploration report, and the measured training run when the request asked
for one).  Requests round-trip through plain dicts so job files and stdin
specs feed ``repro serve`` directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.config.settings import TaskSpec
from repro.errors import ServingError
from repro.explorer.constraints import RuntimeConstraint
from repro.explorer.decision import Guideline
from repro.explorer.navigator import NavigatorReport
from repro.explorer.objectives import PRIORITY_PRESETS
from repro.runtime.parallel import CancellationToken
from repro.runtime.report import PerfReport
from repro.serving.events import EventBuffer
from repro.transfer.policy import TransferPolicy
from repro.wire import WireMessage

__all__ = [
    "JobStatus",
    "JobSnapshot",
    "NavigationRequest",
    "JobResult",
    "Job",
    "TERMINAL_STATES",
]


class JobStatus(str, enum.Enum):
    """Lifecycle states of a served navigation job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: states a job can never leave.
TERMINAL_STATES = frozenset(
    {JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED}
)


@dataclass(frozen=True)
class NavigationRequest:
    """One client's ask: navigate ``task`` for the given objectives.

    ``priority`` orders the server queue (higher runs first);
    ``priorities`` are the exploration objectives (paper Table 1 modes).
    ``tenant`` names the fair-share scheduling lane the request rides (and
    the quota bucket it counts against); the empty string is the shared
    anonymous lane.  ``train`` additionally executes the chosen guideline
    on the backend (Step 3) and attaches the measured :class:`PerfReport`.
    ``transfer_policy`` overrides the server's default cross-task transfer
    behaviour for this request (``enabled=False`` forces a cold run); the
    default ``None`` inherits whatever the server is configured with.
    """

    task: TaskSpec
    priorities: tuple[str, ...] = ("balance",)
    budget: int = 16
    profile_epochs: int = 2
    seed: int = 0
    priority: int = 0
    constraint: RuntimeConstraint | None = None
    train: bool = False
    tag: str = ""
    tenant: str = ""
    transfer_policy: TransferPolicy | None = None

    def __post_init__(self) -> None:
        if self.budget < 8:
            raise ServingError("budget must be at least 8 (estimator minimum)")
        if not self.priorities:
            raise ServingError("at least one exploration priority is required")
        unknown = [p for p in self.priorities if p not in PRIORITY_PRESETS]
        if unknown:
            raise ServingError(
                f"unknown exploration priorities {unknown}; "
                f"known: {sorted(PRIORITY_PRESETS)}"
            )

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """JSON-friendly spec (the ``repro serve`` job-file format)."""
        out = {
            "dataset": self.task.dataset,
            "arch": self.task.arch,
            "platform": self.task.platform,
            "epochs": self.task.epochs,
            "lr": self.task.lr,
            "task_seed": self.task.seed,
            "train_frac": self.task.train_frac,
            "val_frac": self.task.val_frac,
            "priorities": list(self.priorities),
            "budget": self.budget,
            "profile_epochs": self.profile_epochs,
            "seed": self.seed,
            "priority": self.priority,
            "train": self.train,
            "tag": self.tag,
            "tenant": self.tenant,
        }
        if self.constraint is not None:
            if self.constraint.max_time_s is not None:
                out["max_time_ms"] = self.constraint.max_time_s * 1e3
            if self.constraint.max_memory_bytes is not None:
                out["max_memory_mib"] = self.constraint.max_memory_bytes / 2**20
            if self.constraint.min_accuracy is not None:
                out["min_accuracy"] = self.constraint.min_accuracy
        if self.transfer_policy is not None:
            out["transfer_policy"] = self.transfer_policy.to_dict()
        return out

    @classmethod
    def from_dict(cls, spec: dict) -> "NavigationRequest":
        """Inverse of :meth:`to_dict`; unknown keys are rejected early so a
        typo in a job file fails at submit, not after hours in the queue."""
        known = {
            "dataset",
            "arch",
            "platform",
            "epochs",
            "lr",
            "task_seed",
            "train_frac",
            "val_frac",
            "priorities",
            "budget",
            "profile_epochs",
            "seed",
            "priority",
            "train",
            "tag",
            "tenant",
            "max_time_ms",
            "max_memory_mib",
            "min_accuracy",
            "transfer_policy",
        }
        unknown = set(spec) - known
        if unknown:
            raise ServingError(f"unknown request keys: {sorted(unknown)}")
        if "dataset" not in spec:
            raise ServingError("request spec needs at least a 'dataset'")
        # Names a job looks up only once it runs; nothing earlier reads them.
        for key in ("dataset", "platform"):
            if key in spec and not isinstance(spec[key], str):
                raise ServingError(
                    f"{key} must be a string, not {type(spec[key]).__name__}"
                )
        policy = spec.get("transfer_policy")
        if policy is not None and not isinstance(policy, dict):
            raise ServingError(
                f"transfer_policy must be an object, not {type(policy).__name__}"
            )
        # A value of the wrong type or range is the client's mistake too:
        # it fails here, typed, rather than as a server error.
        try:
            return cls._from_known_keys(spec)
        except (ValueError, TypeError) as exc:
            raise ServingError(f"invalid request spec: {exc}") from exc

    @classmethod
    def _from_known_keys(cls, spec: dict) -> "NavigationRequest":
        task_kwargs = {"dataset": spec["dataset"]}
        for key in ("arch", "platform", "epochs", "lr", "train_frac", "val_frac"):
            if key in spec:
                task_kwargs[key] = spec[key]
        if "task_seed" in spec:
            task_kwargs["seed"] = spec["task_seed"]
        constraint = None
        if {"max_time_ms", "max_memory_mib", "min_accuracy"} & set(spec):
            constraint = RuntimeConstraint(
                max_time_s=(
                    None
                    if spec.get("max_time_ms") is None
                    else spec["max_time_ms"] / 1e3
                ),
                max_memory_bytes=(
                    None
                    if spec.get("max_memory_mib") is None
                    else spec["max_memory_mib"] * 2**20
                ),
                min_accuracy=spec.get("min_accuracy"),
            )
        return cls(
            task=TaskSpec(**task_kwargs),
            priorities=tuple(spec.get("priorities", ("balance",))),
            budget=spec.get("budget", 16),
            profile_epochs=spec.get("profile_epochs", 2),
            seed=spec.get("seed", 0),
            priority=spec.get("priority", 0),
            constraint=constraint,
            train=spec.get("train", False),
            tag=spec.get("tag", ""),
            tenant=spec.get("tenant", ""),
            transfer_policy=(
                None
                if spec.get("transfer_policy") is None
                else TransferPolicy.from_dict(spec["transfer_policy"])
            ),
        )


@dataclass
class JobResult:
    """What a DONE job produced.

    Crosses the transport whole (guidelines, the full exploration report,
    epoch-level training stats) except the per-batch profiling rows of
    ``perf``, which stay server-side.
    """

    guidelines: dict[str, Guideline]
    report: NavigatorReport
    perf: PerfReport | None = None

    def best(self) -> Guideline:
        """The guideline for the request's first (primary) objective."""
        return next(iter(self.guidelines.values()))


@dataclass(frozen=True)
class JobSnapshot(WireMessage):
    """One consistent, immutable view of a job's observable state.

    Taken under the server lock (:meth:`NavigationServer.snapshot`), so
    ``status``, ``error`` and the timestamps all belong to the *same*
    moment — unlike issuing separate ``status()``/``job()`` calls, which can
    interleave with a worker's terminal transition.  This is also the
    message job listings and status polls ship over the transport (every
    field is sent, ``null`` included).

    The timestamps are the *server's* ``time.monotonic()`` readings: only
    differences between them are meaningful (queueing delay, service time),
    never comparisons against wall clock or a remote client's own clocks.
    """

    job_id: str
    status: JobStatus
    error: str | None
    traceback: str | None
    tag: str
    tenant: str
    priority: int
    submitted_at: float | None
    started_at: float | None
    finished_at: float | None

    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATES


@dataclass
class Job:
    """Server-side bookkeeping of one accepted request."""

    job_id: str
    request: NavigationRequest
    status: JobStatus = JobStatus.PENDING
    result: JobResult | None = None
    error: str | None = None
    #: server-side traceback text of a FAILED job (feeds JobFailedError).
    traceback: str | None = None
    submitted_seq: int = 0  # monotonic submission order (FIFO tiebreak)
    started_seq: int | None = None  # monotonic start order (None = never ran)
    #: cooperative cancellation flag; ``cancel()`` on a RUNNING job flips it
    #: and the job observes it at the next profiling-batch boundary.  The
    #: server drops it (``None``), with ``result`` and all but the terminal
    #: event, once the job falls out of its retained finished jobs.
    cancel_token: CancellationToken | None = field(
        default_factory=CancellationToken, repr=False, compare=False
    )
    #: bounded ring of this job's progress events (the server emits into
    #: it; subscribers read by sequence number via ``server.events``).
    events: EventBuffer = field(
        default_factory=EventBuffer, repr=False, compare=False
    )
    # monotonic-clock timestamps (None until the event happens): completion
    # latency is finished_at - submitted_at, service time is
    # finished_at - started_at.  The fairness bench reads these.
    submitted_at: float | None = field(default=None, compare=False)
    started_at: float | None = field(default=None, compare=False)
    finished_at: float | None = field(default=None, compare=False)

    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATES

    def snapshot(self) -> JobSnapshot:
        """Immutable copy of the observable state (call under the server
        lock for a consistent view — :meth:`NavigationServer.snapshot`)."""
        return JobSnapshot(
            job_id=self.job_id,
            status=self.status,
            error=self.error,
            traceback=self.traceback,
            tag=self.request.tag,
            tenant=self.request.tenant,
            priority=self.request.priority,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
        )

    def describe(self) -> str:
        req = self.request
        what = f"{req.task.dataset}+{req.task.arch} {'/'.join(req.priorities)}"
        line = f"{self.job_id} [{self.status.value}] {what}"
        if self.status is JobStatus.DONE and self.result is not None:
            line += f" -> {self.result.best().describe()}"
        elif self.status is JobStatus.FAILED:
            line += f" -> {self.error}"
        return line
