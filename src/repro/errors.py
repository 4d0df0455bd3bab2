"""Exception hierarchy for the GNNavigator reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration mistakes from runtime problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """A graph is structurally invalid (bad CSR arrays, dangling edges...)."""


class ConfigError(ReproError):
    """A training configuration is out of the legal design space."""


class HardwareError(ReproError):
    """A hardware specification is inconsistent or a budget is violated."""


class SamplingError(ReproError):
    """A sampler received arguments it cannot honour."""


class EstimatorError(ReproError):
    """The performance estimator was used before fitting or on bad inputs."""


class ExplorationError(ReproError):
    """Design-space exploration could not produce a feasible guideline."""


class ServingError(ReproError):
    """The navigation serving layer was misused or a served job failed."""


class ServerStoppingError(ServingError):
    """A submission was rejected because the server is shutting down.

    A :class:`ServingError` subclass so existing ``except ServingError``
    callers keep working; the transport maps it to HTTP 503.
    """


class UnknownJobError(ServingError):
    """A job id was polled that the server never issued (or has forgotten).

    A :class:`ServingError` subclass so existing ``except ServingError``
    callers keep working; the transport maps it to HTTP 404.
    """


class ResultExpiredError(UnknownJobError):
    """A DONE job's result was asked for after the server stopped keeping it.

    A server keeps every job's snapshot, but a finished job's result, event
    history and cancellation token only while it is among the newest
    finished jobs.  An :class:`UnknownJobError` subclass so callers that
    already handle a forgotten job keep working.
    """


class JobFailedError(ServingError):
    """A served navigation job reached FAILED.

    Raised by ``result()`` on both the in-process :class:`JobHandle` and the
    remote client, so callers branch on the type instead of string-matching
    ``JobResult.error``.  ``job_id`` names the job; ``traceback`` carries the
    server-side traceback text when the server captured one (it crosses the
    wire inside the transport error envelope).
    """

    def __init__(
        self,
        job_id: str,
        message: str,
        traceback: str | None = None,
    ) -> None:
        super().__init__(f"{job_id} failed: {message}")
        self.job_id = job_id
        self.message = message
        self.traceback = traceback


class UnknownExecutorError(ServingError):
    """A fleet call named an executor id the server never registered.

    The standing instruction to the executor is to re-register: the server
    may have restarted (losing the registry) or pruned the executor after a
    heartbeat gap.  A :class:`ServingError` subclass so existing ``except
    ServingError`` callers keep working; the transport maps it to HTTP 404.
    """


class ProtocolError(ServingError):
    """A transport message violated the serving wire protocol.

    Covers malformed JSON bodies, missing required fields and protocol
    version mismatches — errors of the *envelope*, as opposed to
    :class:`ServingError`s raised by the navigation server behind it.
    """


class JobCancelled(ReproError):
    """A cooperatively-cancelled job observed its cancellation token.

    Raised from cancellation checkpoints (profiling-batch boundaries and
    navigation phase transitions); the serving worker loop catches it and
    parks the job in ``CANCELLED`` instead of ``FAILED``.
    """
