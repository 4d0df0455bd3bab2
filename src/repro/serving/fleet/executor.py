"""Remote profiling executor: the client-side half of the fleet.

:class:`ProfilingExecutor` is the process behind ``repro executor``.  It
registers with a navigation server over the ``/v1`` transport, then loops:
claim a leased batch, resolve the graph, run the candidates on its own
local :class:`~repro.runtime.parallel.ProfilingService` (the same
process-pool runner the server uses), and commit the records back —
idempotently, keyed by the lease id, so a retried POST can never
double-count.

Graph resolution is fingerprint-first: the claim names the dataset and the
graph's content hash, the executor tries to load the dataset locally and
only falls back to fetching the arrays over ``/v1/fleet/graph/<fp>`` when
the local load is missing or hashes differently.  Either way the hash is
verified, so an executor can never profile against the wrong graph.

Failure behaviour is deliberately dumb: on any server hiccup the loop
retries; on :class:`~repro.errors.UnknownExecutorError` it re-registers
under its old id (server restarted or pruned us) and carries on.  If the
executor itself dies, its heartbeats stop, its leases expire, and the
server re-issues the work — correctness never depends on an executor
surviving.
"""

from __future__ import annotations

import os
import threading

from repro.errors import ServingError, UnknownExecutorError
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import load_dataset
from repro.runtime.parallel import ProfilingService, graph_fingerprint
from repro.serving.fleet.dispatcher import ClaimGrant, CommitOutcome
from repro.serving.transport.client import RemoteNavigationClient
from repro.serving.transport.protocol import (
    FleetClaimRequest,
    FleetCommitRequest,
    FleetHeartbeatRequest,
    FleetHeartbeatResponse,
    FleetRegisterRequest,
    FleetRegisterResponse,
    FleetStatusResponse,
    graph_from_wire,
)

__all__ = ["FleetClient", "ProfilingExecutor"]


class FleetClient(RemoteNavigationClient):
    """Typed client for the ``/v1/fleet/*`` endpoints.

    Extends :class:`RemoteNavigationClient` (same ``_call`` plumbing, typed
    error envelopes, retries) with the executor-facing fleet calls plus the
    observer-facing :meth:`fleet_status` that ``repro fleet status`` uses.
    """

    def register(
        self, *, workers: int = 1, executor_id: str | None = None
    ) -> FleetRegisterResponse:
        """Join (or rejoin) the fleet; safe to retry — registration under a
        known id is idempotent and a duplicate fresh id just gets pruned."""
        return self._rpc(
            "fleet_register",
            FleetRegisterRequest(workers=workers, executor_id=executor_id),
        )

    def heartbeat(self, executor_id: str) -> FleetHeartbeatResponse:
        """One liveness beat (no retry — the next beat is due shortly)."""
        return self._rpc("fleet_heartbeat", FleetHeartbeatRequest(executor_id))

    def claim(
        self,
        executor_id: str,
        *,
        max_candidates: int | None = None,
        timeout: float = 0.0,
    ) -> ClaimGrant:
        """One work-pull long-poll round (no retry — the loop's next claim
        hands an unanswered claim's lease back to the queue)."""
        request = FleetClaimRequest(executor_id, max_candidates, timeout)
        return self._rpc("fleet_claim", request, wait=timeout)

    def commit(
        self,
        executor_id: str,
        lease_id: str | None,
        keys: list,
        records: list,
        *,
        idempotency_key: str | None = None,
    ) -> CommitOutcome:
        """Deliver finished records; retried with the *same* idempotency
        key, so a dropped response replays instead of double-counting."""
        request = FleetCommitRequest(
            executor_id, lease_id, keys, records, idempotency_key
        )
        return self._rpc("fleet_commit", request)

    def deregister(self, executor_id: str) -> bool:
        """Graceful exit; ``True`` if the server still knew the executor."""
        request = FleetHeartbeatRequest(executor_id)
        return self._rpc("fleet_deregister", request).deregistered

    def fleet_status(self) -> FleetStatusResponse:
        """The server's fleet census (``repro fleet status``)."""
        return self._rpc("fleet")

    def fetch_graph(self, fingerprint: str) -> CSRGraph:
        """Pull one graph's arrays by content hash."""
        response = self._rpc("fleet_graph", fingerprint=fingerprint)
        return graph_from_wire(response.graph)


class ProfilingExecutor:
    """One remote member of the profiling fleet.

    Parameters
    ----------
    server_url:
        Base URL of the navigation server (``http://host:port``).
    workers:
        Local process-pool width for running claimed candidates
        (``None``: CPU count, like the server's own pool).
    executor_id:
        Rejoin under a previously-assigned id; ``None`` asks the server
        for a fresh one.
    max_candidates:
        Cap per claim (``None``: take the server's batch limit).
    claim_timeout:
        Long-poll window of one claim round; short enough that ``stop()``
        is responsive, long enough that an idle executor is cheap.
    """

    def __init__(
        self,
        server_url: str,
        *,
        workers: int | None = None,
        executor_id: str | None = None,
        max_candidates: int | None = None,
        claim_timeout: float = 2.0,
        request_timeout: float = 30.0,
    ) -> None:
        if claim_timeout < 0:
            raise ServingError("claim_timeout must be non-negative")
        self.client = FleetClient(
            server_url, request_timeout=request_timeout
        )
        self.workers = workers
        self.executor_id = executor_id
        self.max_candidates = max_candidates
        self.claim_timeout = claim_timeout
        self.service = ProfilingService(max_workers=workers)
        self.heartbeat_seconds: float | None = None
        self.claimed = 0  # batches claimed (granted, non-empty)
        self.committed = 0  # records accepted by the server
        #: optional chaos/test hook: called with the grant after a claim
        #: lands and before any training runs.
        self.before_run = None
        self._graphs: dict[str, CSRGraph] = {}  # fingerprint -> graph
        self._stop = threading.Event()
        self._killed = False
        self._threads: list[threading.Thread] = []

    @property
    def runs(self) -> int:
        """Candidates measured on this executor (``stats.trainings`` counts
        the training runs behind them)."""
        return self.service.stats.executed

    # ------------------------------------------------------------ lifecycle
    def register(self) -> FleetRegisterResponse:
        """Join the fleet (idempotent; used for initial join and rejoin)."""
        response = self.client.register(
            workers=self.workers or os.cpu_count() or 1,
            executor_id=self.executor_id,
        )
        self.executor_id = response.executor_id
        self.heartbeat_seconds = response.heartbeat_seconds
        return response

    def start(self) -> None:
        """Register and run the heartbeat + work loops on daemon threads."""
        self.register()
        for name, target in (
            ("fleet-heartbeat", self._heartbeat_loop),
            ("fleet-work", self._work_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def run(self) -> None:
        """Register and work on the calling thread (the CLI foreground
        mode); heartbeats still ride a daemon thread."""
        self.register()
        thread = threading.Thread(
            target=self._heartbeat_loop, name="fleet-heartbeat", daemon=True
        )
        thread.start()
        self._threads.append(thread)
        try:
            self._work_loop()
        finally:
            self._stop.set()
            self._deregister_quietly()

    def stop(self) -> None:
        """Graceful shutdown: finish the in-flight batch, deregister."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads.clear()
        if not self._killed:
            self._deregister_quietly()

    def kill(self) -> None:
        """Chaos shutdown: vanish without deregistering or committing.

        The in-flight batch (if any) is dropped before its commit — from
        the server's side this is indistinguishable from SIGKILL, so tests
        can exercise lease expiry in-process.
        """
        self._killed = True
        self._stop.set()

    def _deregister_quietly(self) -> None:
        if self.executor_id is None:
            return
        try:
            self.client.deregister(self.executor_id)
        except ServingError:
            pass  # server gone or restarted; pruning will clean us up

    # ---------------------------------------------------------------- loops
    def _heartbeat_loop(self) -> None:
        interval = self.heartbeat_seconds or 1.0
        while not self._stop.wait(interval):
            if self._killed:
                return
            try:
                self.client.heartbeat(self.executor_id)
            except UnknownExecutorError:
                try:
                    self.register()
                except ServingError:
                    pass
            except ServingError:
                pass  # transient; the next beat retries

    def _work_loop(self) -> None:
        while not self._stop.is_set():
            try:
                grant = self.client.claim(
                    self.executor_id,
                    max_candidates=self.max_candidates,
                    timeout=self.claim_timeout,
                )
            except UnknownExecutorError:
                try:
                    self.register()
                except ServingError:
                    self._stop.wait(0.2)
                continue
            except ServingError:
                self._stop.wait(0.2)
                continue
            if grant.empty:
                continue
            self.claimed += 1
            if self.before_run is not None:
                self.before_run(grant)
            if self._stop.is_set() and self._killed:
                return  # killed mid-claim: drop the batch uncommitted
            try:
                self._run_grant(grant)
            except ServingError:
                # Commit failed or the batch is unrunnable: drop it — the
                # next claim hands its lease back to the queue.
                continue

    def _run_grant(self, grant: ClaimGrant) -> None:
        graph = self._resolve_graph(grant.dataset, grant.fingerprint)
        # The local service dedups and caches by content key exactly like
        # the server's: a candidate this executor measured before costs
        # nothing here.
        records = self.service.profile(
            grant.task, list(grant.configs), graph=graph
        )
        if self._killed:
            return  # chaos: the work happened, the commit never does
        outcome = self.client.commit(
            self.executor_id,
            grant.lease_id,
            list(grant.keys),
            records,
            idempotency_key=grant.lease_id,
        )
        self.committed += outcome.accepted

    def _resolve_graph(
        self, dataset: str | None, fingerprint: str | None
    ) -> CSRGraph:
        if fingerprint is None:
            raise ServingError("claim grant carries no graph fingerprint")
        graph = self._graphs.get(fingerprint)
        if graph is not None:
            return graph
        if dataset:
            try:
                local = load_dataset(dataset)
            except Exception:
                local = None  # not a named dataset here; fetch instead
            if local is not None and graph_fingerprint(local) == fingerprint:
                self._graphs[fingerprint] = local
                return local
        fetched = self.client.fetch_graph(fingerprint)
        if graph_fingerprint(fetched) != fingerprint:
            raise ServingError(
                f"fetched graph hashes to {graph_fingerprint(fetched)!r}, "
                f"claim names {fingerprint!r}"
            )
        self._graphs[fingerprint] = fetched
        return fetched
