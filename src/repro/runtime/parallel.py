"""Parallel ground-truth profiling service with a persistent result cache.

Step 2 of the paper fits the gray-box estimator on ground truth "covering
the whole design space" (Sec. 4.1) — by far the dominant wall-clock cost of
a navigation run, because every candidate is a full (short) training run on
the runtime backend.  :class:`ProfilingService` turns that step into a
service:

* **one execution loop over one queue** — a key is in flight exactly
  while it is on the pending queue, which lessees — ``max_workers`` local
  worker processes and remote fleet executors — lease from.  A call
  publishes the keys nobody has queued, trains its own while no lessee is
  live, and waits on keys another call queued instead of retraining them,
  so one service trains each candidate once however many threads (serving
  jobs) profile overlapping samples at the same time.  Every record lands
  through one dedup (:meth:`ProfilingService.commit`).  Records come back
  in input order, bit-identical to the serial path for the same seed;
* **deduplication** — repeated candidates (same task, same canonical
  config, same graph) are keyed by a content hash and executed once per
  call, whether they repeat within one request or across requests;
* **sharing** — distinct candidates that train the *same trajectory* (the
  sampler, batch order and model cannot tell them apart:
  :func:`~repro.runtime.backend.training_key`) are one training run that
  charges each member's cache and lands one record per candidate;
* **persistence** — finished :class:`GroundTruthRecord`s are written to an
  on-disk JSON store keyed by the same content hash, so repeated
  navigations, the paper experiments (each profiles through a service on
  :func:`default_store_dir`) and benchmarks reuse measurements instead of
  retraining.  Corrupt or stale entries are
  discarded, never fatal.

The profiling runs themselves are deterministic functions of
``(task, config, graph)`` — every RNG in the backend is seeded from the
task — which is what makes both the dedup and the cache sound.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.config.settings import TaskSpec, TrainingConfig
from repro.errors import JobCancelled
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import load_dataset
from repro.runtime.backend import PreparedGraph, sampler_args, training_key
from repro.runtime.profiler import GroundTruthRecord, profile_class
from repro.wire import decode, encode

__all__ = [
    "CancellationToken",
    "LeasedBatch",
    "ProfilingService",
    "ProfilingStats",
    "ResultStore",
    "candidate_key",
    "default_store_dir",
    "graph_fingerprint",
    "predicted_cost",
    "record_to_dict",
    "record_from_dict",
]

#: bump when the serialised record layout changes; mismatched entries are
#: silently discarded and re-measured.
_STORE_VERSION = 1

#: semantic version of the measurements themselves — bump whenever the
#: runtime backend or cost model changes what a profiling run would measure
#: (new cost term, changed sampler semantics, ...).  It is folded into the
#: candidate key, so stale entries simply stop matching and re-measure.
#:
#: 2 — the batch path was rebuilt (PR 13): ``fanout_step`` ranks with one
#: ``group + key`` sort and the layer-wise sampler with Efraimidis–Spirakis
#: keys, so the same seed draws different neighbours; GCN/SAGE layers
#: multiply by per-layer row blocks and dropout masks cover only the rows a
#: layer produces, so float32 sums reassociate and the mask sequence differs.
#: Losses and accuracies of version 1 are not reproducible by this code.
#:
#: 3 — GAT layers run on the same per-layer blocks (PR 19) with edges stored
#: destination-major, in training and in ``evaluate`` alike: float32 sums
#: reassociate, so GAT losses and accuracies of version 2 are not
#: reproducible bit for bit.  The ``T``/``Γ`` fields of every record and all
#: of a GCN/SAGE record are what version 2 measured.
#:
#: 4 — autograd's grad mode became thread-local.  Before, ``no_grad`` saved
#: and restored one process-wide flag, so two job threads evaluating at once
#: could leave gradients off for every later training in the process: a
#: served store (``workers >= 2``) could hold accuracies of untrained models.
#: No record says whether it was measured beside a concurrent ``no_grad``, so
#: every version-3 entry is re-measured rather than trusted.
#:
#: 5 — GAT's attention path was reordered: the per-node terms are
#: ``x @ (W·a)`` instead of per-row sums of ``(x W)·a``, the attention
#: gradient is one width contraction per head instead of a product then a
#: per-row sum, and ``leaky_relu``'s backward stays in float32 instead of
#: rounding a float64 product.  float32 sums reassociate, so GAT losses and
#: accuracies of version 4 are not reproducible bit for bit.  GCN/SAGE
#: records, and the ``T``/``Γ`` fields of every record, are what version 4
#: measured.
#:
#: 6 — a GCN/SAGE layer whose width at least halves now multiplies by its
#: weight before it aggregates (``A·(x W)`` instead of ``(A·x) W``) when
#: that adds no backward product.  float32 sums reassociate, so those
#: layers' losses and accuracies of version 5 are not reproducible bit for
#: bit.  The ``T``/``Γ`` fields of every record are what version 5
#: measured.
GROUND_TRUTH_VERSION = 6


# ------------------------------------------------------------- cancellation
class CancellationToken:
    """Cooperative cancellation flag shared between a job and its canceller.

    Profiling is a sequence of full training runs, so preemption is neither
    safe nor needed: the canceller flips the token from any thread and the
    running side polls it at *batch boundaries* — on entry to
    :meth:`ProfilingService.profile`, then between training runs and on
    every wake of :meth:`ProfilingService._execute`'s loop — via
    :meth:`raise_if_cancelled`, which raises
    :class:`~repro.errors.JobCancelled`.  A candidate already training runs
    to completion; nothing after the next checkpoint does.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        """Checkpoint: raise :class:`JobCancelled` once cancel was requested."""
        if self._event.is_set():
            raise JobCancelled("job cancelled at a profiling-batch boundary")


# --------------------------------------------------------------------- keys
def graph_fingerprint(graph: CSRGraph) -> str:
    """Content hash of a graph: topology, features, labels and metadata.

    Two graphs with the same fingerprint produce identical profiling runs,
    so the fingerprint (not the dataset name) keys the result cache.
    """
    h = hashlib.sha256()
    h.update(f"{graph.name}|{graph.num_nodes}|{graph.num_classes}".encode())
    # Each section is tagged with its name, dtype and shape so optional
    # arrays with coinciding raw bytes can never alias (e.g. absent features
    # vs labels, or same bytes viewed under a different dtype/shape).
    for tag, arr in (
        ("indptr", graph.indptr),
        ("indices", graph.indices),
        ("features", graph.features),
        ("labels", graph.labels),
    ):
        if arr is None:
            h.update(f"|{tag}:none".encode())
            continue
        h.update(f"|{tag}:{arr.dtype.str}:{arr.shape}".encode())
        # Feed the buffer directly — tobytes() would materialize a second
        # full-size copy of what may be a multi-GB feature matrix.
        h.update(np.ascontiguousarray(arr).data)
    return h.hexdigest()[:32]


def candidate_key(task: TaskSpec, config: TrainingConfig, fingerprint: str) -> str:
    """Stable content hash of one ``(task, config, graph)`` candidate.

    A store written while ``TrainingConfig`` still had a ``kernel`` field is
    cold for this code: the field was in every encoded config, so every key
    moved (its records still decode, and the transfer corpus reads them).
    """
    # The comparable task fields: new ones join the key automatically, the
    # compare-excluded ``extra`` (may hold non-JSON payloads) stays out.
    payload = {
        "task": encode(task),
        "config": encode(config.canonical()),
        "graph": fingerprint,
        "ground_truth_version": GROUND_TRUTH_VERSION,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# ------------------------------------------------------------ serialization
def record_to_dict(record: GroundTruthRecord) -> dict:
    """JSON-friendly encoding of a :class:`GroundTruthRecord`."""
    return encode(record)


def record_from_dict(data: dict) -> GroundTruthRecord:
    """Inverse of :func:`record_to_dict`, type-checked field by field
    (:class:`~repro.errors.ProtocolError` on anything else)."""
    return decode(GroundTruthRecord, data)


# -------------------------------------------------------------------- store
def default_store_dir() -> Path:
    """The repo-local store directory shared by experiments and serving.

    ``REPRO_STORE_DIR`` overrides it (CI and multi-checkout setups); the
    default lives under the repo root so `repro serve`, `navigate
    --shared-cache` and the experiment harness all hit the same entries.
    """
    env = os.environ.get("REPRO_STORE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".cache" / "store"


class ResultStore:
    """On-disk JSON store of ground-truth records, one file per candidate.

    Writes are atomic (tmp file + rename) so a crashed run never leaves a
    half-written entry; reads treat anything unparsable or version-skewed as
    a miss and delete the offending file.  One instance may be shared by
    many threads (the serving layer does); the entry count and on-disk byte
    total are maintained incrementally, so ``len(store)`` and :attr:`nbytes`
    are O(1) rather than a directory re-glob per call.  Both reflect this
    instance's view — a concurrent *process* writing the same directory is
    only picked up by :meth:`refresh`.

    Stores written by older versions may also hold ``meta_<key>.json``
    files; nothing reads or counts them, and they can be deleted by hand.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._count = 0  # guarded-by: _lock
        self._bytes = 0  # guarded-by: _lock
        self._recount()

    def _recount(self) -> None:  # holds: _lock
        """Re-scan the directory into the count/byte counters (callers hold
        the lock, or are ``__init__`` before the store is shared)."""
        count = total = 0
        for path in self.root.glob("gt_*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue  # deleted under us: skip both counters
            count += 1
        self._count = count
        self._bytes = total

    def _path(self, key: str) -> Path:
        return self.root / f"gt_{key}.json"

    @staticmethod
    def _stage(path: Path, payload: dict) -> Path:
        """Write ``payload`` beside ``path`` for the caller to rename into
        place, under a name no other writer shares: processes on one cache
        dir *and* threads of one process (two jobs committing the same key)
        must not interleave into, or rename away, one staging file."""
        tmp = path.with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        return tmp

    def load(self, key: str) -> GroundTruthRecord | None:
        """Return the stored record, or ``None`` on miss/corruption."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as f:
                envelope = json.load(f)
            if envelope.get("version") != _STORE_VERSION:
                raise ValueError("store version mismatch")
            return record_from_dict(envelope["record"])
        except OSError:
            # Missing file or transient I/O failure: a miss, but never
            # grounds for deleting what may be a valid entry.
            return None
        except Exception:
            # Corrupt/stale entry: discard it so the candidate re-measures.
            self._discard(path)
            return None

    def save(self, key: str, record: GroundTruthRecord) -> None:
        """Persist one record atomically (staged, then renamed into place)."""
        envelope = {
            "version": _STORE_VERSION,
            "key": key,
            "record": record_to_dict(record),
        }
        path = self._path(key)
        tmp = self._stage(path, envelope)
        new_size = tmp.stat().st_size
        with self._lock:
            try:
                old_size = path.stat().st_size
            except OSError:
                old_size = None
            os.replace(tmp, path)
            if old_size is None:
                self._count += 1
                self._bytes += new_size
            else:
                self._bytes += new_size - old_size

    def _discard(self, path: Path) -> bool:
        """Delete one entry; ``True`` only if *this* caller removed it."""
        with self._lock:
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                return False
            self._count -= 1
            self._bytes -= size
            return True

    def keys(self) -> list[str]:
        """Candidate keys of every stored entry (sorted, point-in-time)."""
        return sorted(p.stem[len("gt_") :] for p in self.root.glob("gt_*.json"))

    # -------------------------------------------------------------- eviction
    def _evictable(self) -> list[Path]:
        """Entry paths, oldest (by mtime) first."""

        def _mtime(p: Path) -> float:
            try:
                return p.stat().st_mtime
            except OSError:
                return 0.0

        return sorted(self.root.glob("gt_*.json"), key=_mtime)

    def prune(self, max_entries: int) -> int:
        """Evict oldest entries (by mtime) down to ``max_entries``; returns
        how many *this caller* removed.  Entries a concurrent pruner deleted
        under us are not double-counted (they were its removals)."""
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        excess = len(self) - max_entries
        if excess <= 0:
            return 0
        removed = 0
        for path in self._evictable()[:excess]:
            if self._discard(path):
                removed += 1
        return removed

    def prune_bytes(self, max_bytes: int) -> int:
        """Evict oldest entries until at most ``max_bytes`` remain
        on disk; returns how many entries *this caller* removed."""
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        removed = 0
        for path in self._evictable():
            if self.nbytes <= max_bytes:
                break
            if self._discard(path):
                removed += 1
        return removed

    def refresh(self) -> int:
        """Re-count entries on disk (after another process wrote the dir)."""
        with self._lock:
            self._recount()
            return self._count

    @property
    def nbytes(self) -> int:
        """On-disk bytes of every stored entry (this instance's view)."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return self._count


# ------------------------------------------------------------------ workers
def _serve(conn) -> None:
    """A local worker process: train each ``(task, graph, configs)`` class
    its lessee sends, send back one record per member.  A class that
    raises ends the process, which its lessee treats as a dead worker."""
    # Ctrl-C reaches the whole process group; the parent stops its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task, graph, configs = conn.recv()
        except EOFError:
            return
        runs = profile_class(task, configs, graph=graph)
        conn.send([record for record, _ in runs])


class _LocalWorker:
    """A process started by ``spawn`` (never forked from a process whose
    threads hold locks) running :func:`_serve`, and the lessee thread that
    drives it; also the holder of the keys it leased."""

    __slots__ = ("process", "thread")

    def __init__(self, service: "ProfilingService") -> None:
        self.process = None
        self.thread = threading.Thread(
            target=self._lessee, args=(service,), name="profile-worker", daemon=True
        )

    def _lessee(self, service: "ProfilingService") -> None:
        """Lease a class, send it with its graph, commit the records that
        come back, until :meth:`ProfilingService.close`.  A worker that dies
        is a dead executor: what it leased goes back on the queue."""
        context = multiprocessing.get_context("spawn")
        conn, child = context.Pipe()
        try:
            process = context.Process(target=_serve, args=(child,), daemon=True)
            process.start()
            self.process = process
            child.close()  # the reads below end when the process does
            while (lease := service._lease_class(self)) is not None:
                task, graph, keys, configs = lease
                try:
                    conn.send((task, graph, configs))
                    records = conn.recv()
                except (EOFError, OSError):
                    return
                service.stats.bump("trainings")
                for key, record in zip(keys, records, strict=True):
                    service.commit(key, record)
        finally:
            conn.close()  # an idle process reads the end of its pipe and exits
            if self.process is not None:
                self.process.join()
            service.requeue(self)


# ------------------------------------------------------------------ service
def predicted_cost(
    task: TaskSpec, config: TrainingConfig, graph: CSRGraph, *, members: int = 1
) -> float:
    """Cheap monotone proxy for the cost of training ``config``'s class
    with ``members`` candidates charged alongside.

    Only the *ordering* matters (longest-first leases): epochs times the
    per-epoch work, which scales with how many batches run, how many nodes
    each mini-batch touches (bounded by the graph) and, per touched node,
    the dense compute of the one training plus one cache pass per member.
    Batch growth is read off :func:`~repro.runtime.backend.sampler_args` —
    what the sampler is actually built with, not the raw fan-outs.
    """
    n = float(graph.num_nodes)
    args = sampler_args(config, graph.num_nodes)
    if config.sampler == "fastgcn":  # per-layer vertex budgets
        batch_nodes = config.batch_size + float(sum(args))
    elif config.sampler == "saint":  # one neighbour per walk step
        batch_nodes = config.batch_size * (1.0 + args[0])
    elif config.sampler == "cluster":  # whole partitions
        batch_nodes = config.batch_size + args[1] * n / args[0]
    else:
        batch_nodes = config.batch_size * float(np.prod([1.0 + k for k in args]))
    num_batches = max(1.0, n / config.batch_size)
    per_node = float(config.hidden_channels * config.num_layers) + members
    return task.epochs * num_batches * min(batch_nodes, n) * per_node


def _training_classes(configs: list[TrainingConfig], graph: CSRGraph) -> list:
    """Indices of ``configs`` grouped by training class — candidates that
    share a :func:`~repro.runtime.backend.training_key` — first member first."""
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(training_key(config, graph.num_nodes), []).append(i)
    return list(groups.values())


#: longest the execution loop sleeps between looks at the queue: it must
#: notice an executor dying, which notifies no one, and poll the
#: cancellation token.
_POLL_SECONDS = 0.1


#: the holder of a queued key its publishing call trains on its own thread.
_LOCAL = object()


class _Pending:
    """One published key awaiting its record: the config a claim hands out,
    the call that published it — its ``(task, graph, fingerprint)`` tuple,
    one object per call, so a grant never mixes two calls' keys — and who
    holds it: nobody (``None``), a fleet lease (its id, a string), a local
    worker (its :class:`_LocalWorker`) or the calling thread (:data:`_LOCAL`).
    ``call`` is ``None`` once the call ended while a lessee trained the key."""

    __slots__ = ("config", "call", "holder")

    def __init__(self, config: TrainingConfig, call: tuple) -> None:
        self.config = config
        self.call: tuple | None = call
        self.holder: object = None


class LeasedBatch(NamedTuple):
    """Queued keys :meth:`ProfilingService.lease` handed to a fleet
    executor, with what it needs to run them."""

    lease_id: str
    task: TaskSpec
    fingerprint: str
    keys: tuple[str, ...]
    configs: tuple[TrainingConfig, ...]


@dataclass
class ProfilingStats:
    """Where each requested candidate came from (one service lifetime).

    Counter updates go through :meth:`bump` so concurrent serving jobs
    sharing one service never lose increments to read-modify-write races.
    """

    executed: int = 0  # candidates measured (one record each)
    trainings: int = 0  # training runs behind them (one per class, <= executed)
    cache_hits: int = 0  # served from the persistent/in-memory store
    deduplicated: int = 0  # repeated candidates folded into one run
    shared_inflight: int = 0  # served by waiting on another job's run
    evictions: int = 0  # store entries removed by the size budget
    _lock: threading.Lock = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Created per instance through ``threading.Lock`` as it is *now*:
        # a ``default_factory`` would bind the factory at import, before the
        # lock sanitizer can patch it, and the lock would go unobserved.
        self._lock = threading.Lock()

    def bump(self, counter: str, n: int = 1) -> None:
        """Atomically add ``n`` to one of the counters."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)


class ProfilingService:
    """Fan-out + dedup + cache front-end for ground-truth profiling: one
    training run per *same trajectory*, one record per candidate.

    One instance may be shared by many threads (a server shares one across
    its jobs): each key goes on the pending queue for one caller at a time,
    and the training runs happen outside the lock, so the batches of
    different callers execute concurrently.  Whoever builds a service
    :meth:`close`-s it.

    Parameters
    ----------
    max_workers:
        ``None``/``0``/``1`` trains on the calling thread (no process
        start-up — the right default for small budgets and tests); ``>= 2``
        starts that many local workers, once, for the first batch of more
        than one training class; they live until :meth:`close`.
    cache_dir:
        Directory for the persistent :class:`ResultStore`; ``None`` disables
        persistence (dedup and in-memory reuse still apply).
    store_budget:
        Maximum entries the persistent store may hold.  Every commit that
        pushes the store past the budget prunes it (LRU by mtime, counted
        in ``stats.evictions``) down to ~90% of the budget — the slack
        amortizes the prune scan across commits; ``None`` = unbounded.
        The in-memory layer is unaffected, so hot records stay served.
    store_budget_bytes:
        Maximum *on-disk bytes* the persistent store may hold — the budget
        that tracks what actually fills a disk when record sizes vary.
        Same eviction policy and hysteresis as ``store_budget``; both
        budgets may be active at once (either tripping prunes).
    """

    def __init__(
        self,
        *,
        max_workers: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        store_budget: int | None = None,
        store_budget_bytes: int | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError("max_workers must be non-negative")
        if store_budget is not None and store_budget < 1:
            raise ValueError("store_budget must be at least 1")
        if store_budget_bytes is not None and store_budget_bytes < 1:
            raise ValueError("store_budget_bytes must be at least 1")
        self.max_workers = max_workers
        self.store_budget = store_budget
        self.store_budget_bytes = store_budget_bytes
        self.store = ResultStore(cache_dir) if cache_dir is not None else None
        self.stats = ProfilingStats()
        #: whether a live remote executor may claim from the pending queue;
        #: the fleet dispatcher installs its answer.  While it says yes,
        #: :meth:`_execute` leaves its pending keys to the fleet.
        self.fleet_live = lambda: False
        #: key -> record of every resolved key: the one dedup every
        #: resolution passes (:meth:`commit`).
        self._memory: dict = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        #: one condition for the queue: publications, resolutions, requeues
        #: and dropped keys notify it; execution loops and claim long-polls
        #: wait.
        self._cond = threading.Condition(self._lock)
        #: the pending queue and the one in-flight record: key ->
        #: :class:`_Pending`, in publication order, of every key some call
        #: is resolving.  A concurrent caller waits on a queued key instead
        #: of training it a second time.  The fleet dispatcher reaches it
        #: only through :meth:`lease` and :meth:`requeue`.
        self._queue: dict[str, _Pending] = {}  # guarded-by: _lock
        #: id(graph) -> (graph, content hash); the graph is kept alive beside
        #: its hash, so its id can never be recycled onto a different graph.
        self._fingerprints: dict[int, tuple[CSRGraph, str]] = {}
        #: the live local workers: started once (``_started``, which
        #: :meth:`close` sets too), dropped by close or by their death.
        self._workers: list[_LocalWorker] = []  # guarded-by: _lock
        self._started = False  # guarded-by: _lock

    # ------------------------------------------------------------- plumbing
    def _fingerprint(self, graph: CSRGraph) -> str:
        """Content hash of the graph, computed once per service lifetime.

        A warm-cache ``profile()`` must not re-hash a multi-GB feature
        matrix every call; graphs are immutable, so identity memoization
        is sound.
        """
        entry = self._fingerprints.get(id(graph))
        if entry is None:
            entry = self._fingerprints[id(graph)] = (graph, graph_fingerprint(graph))
        return entry[1]

    def _keys(
        self, task: TaskSpec, configs: list[TrainingConfig], graph: CSRGraph
    ) -> list[str]:
        """One content-hash key per candidate: stable across processes, so
        the store and the fleet wire address candidates by it too."""
        fingerprint = self._fingerprint(graph)
        return [candidate_key(task, c, fingerprint) for c in configs]

    def commit(self, key, record: GroundTruthRecord) -> bool:
        """Resolve one key: save its record to the store, then publish it.

        The one resolution path — this service's own runs and fleet commits
        alike — so the dedup, the persistence invariants and the size
        budget can never diverge between them.  ``False`` when the key
        already had a record (an expired lease's zombie finishing after
        someone else did): nothing is written or counted.  The record is
        published only once the store holds it, so a save that raises
        leaves the key unresolved and a retried commit saves it again; two
        commits racing past the first check write identical bytes, and the
        second to publish is the duplicate.
        """
        with self._lock:
            if key in self._memory:
                return False
        if self.store is not None:
            store = self.store
            store.save(key, record)
            for budget, size, prune in (
                (self.store_budget, len, store.prune),
                (self.store_budget_bytes, lambda s: s.nbytes, store.prune_bytes),
            ):
                if budget is not None and size(store) > budget:
                    # 10% hysteresis: pruning slightly below the budget keeps
                    # a full store from paying prune's directory scan on every
                    # later commit (no slack for budgets under 10).
                    removed = prune(budget - budget // 10)
                    if removed:
                        self.stats.bump("evictions", removed)
        with self._cond:
            if key in self._memory:
                return False
            self._memory[key] = record
            self._queue.pop(key, None)
            self._cond.notify_all()
        # The run really happened, here or on another machine (whose own
        # ``trainings`` counts it: the wire carries records, not runs).
        self.stats.bump("executed")
        return True

    def _take_locked(self, call, keys, classes):  # holds: _lock
        """Hold for the calling thread the members ``call`` queued of the
        next of ``classes`` it does not hold; ``None`` once there is none.
        Called only while no lessee is live, so a lease still on a key is a
        dead executor's: a lease lives exactly as long as its executor, and
        a local worker's until its lessee exits."""
        for members in classes:
            taken = [
                i
                for i in members
                if (item := self._queue.get(keys[i])) is not None
                and item.call is call
                and item.holder is not _LOCAL
            ]
            if taken:
                for i in taken:
                    self._queue[keys[i]].holder = _LOCAL
                return taken
        return None

    def _landed_locked(self, keys, unresolved: dict) -> list:  # holds: _lock
        """Take the indices in ``unresolved`` whose key has a record off it;
        returns them as ``(index, record)`` pairs."""
        landed = [
            (i, self._memory[keys[i]]) for i in unresolved if keys[i] in self._memory
        ]
        for i, _ in landed:
            del unresolved[i]
        return landed

    # ------------------------------------------------------ the lessees' side
    def _head_locked(self, timeout: float):  # holds: _lock
        """``(call, [(key, item), ...])`` of the queued keys nobody holds of
        the queue head's call, in queue order (``None`` if none), after
        waiting up to ``timeout`` while every queued key is held."""
        if timeout > 0 and all(
            item.holder is not None for item in self._queue.values()
        ):
            self._cond.wait(timeout)
        pending = [
            (key, item) for key, item in self._queue.items() if item.holder is None
        ]
        if not pending:
            return None
        call = pending[0][1].call
        return call, [pair for pair in pending if pair[1].call is call]

    def lease(
        self, limit: int, issue, *, timeout: float = 0.0
    ) -> LeasedBatch | None:
        """Hand up to ``limit`` queued keys nobody holds to a fleet executor.

        The keys come from the queue head's call (one task, one graph),
        longest first (:func:`predicted_cost`): the executor runs them in
        that order, so a lease expiring mid-batch hands back the cheap
        tail.  ``issue()`` returns the lease id they are held under until
        a commit resolves them or :meth:`requeue` hands them back.
        When every queued key is held, waits up to ``timeout`` for a
        publication or a requeue; ``None`` if still nothing.
        """
        with self._cond:
            head = self._head_locked(timeout)
            if head is None:
                return None
            (task, graph, fingerprint), pending = head
            chosen = pending[:limit]
            # Pure arithmetic on loaded objects, fine under the lock; the
            # sort is stable, so cost ties keep queue order.
            chosen.sort(key=lambda pair: -predicted_cost(task, pair[1].config, graph))
            lease_id = issue()
            for _, item in chosen:
                item.holder = lease_id
            return LeasedBatch(
                lease_id,
                task,
                fingerprint,
                tuple(key for key, _ in chosen),
                tuple(item.config for _, item in chosen),
            )

    def _lease_class(self, worker: _LocalWorker):
        """A local worker's lease, ``(task, graph, keys, configs)``: the
        unheld members of the queue head call's longest training class
        (:func:`predicted_cost`, ties in queue order), so one run charges
        them all.  Waits for one; ``None`` once :meth:`close` dropped it."""
        with self._cond:
            head = None
            while head is None and worker in self._workers:
                head = self._head_locked(_POLL_SECONDS)
            if worker not in self._workers:
                return None
            (task, graph, _), pending = head
            configs = [item.config for _, item in pending]
            chosen = max(
                _training_classes(configs, graph),
                key=lambda c: predicted_cost(
                    task, configs[c[0]], graph, members=len(c)
                ),
            )
            for i in chosen:
                pending[i][1].holder = worker
            keys = [pending[i][0] for i in chosen]
            return task, graph, keys, [configs[i] for i in chosen]

    def requeue(self, holder) -> int:
        """Hand every queued key ``holder`` holds back to the queue — a fleet
        lease id, or a local worker whose lessee ended, which leaves the live
        list — and return how many it held (resolved keys are off the queue,
        the calling thread holds a key it took from a dead one, and a key
        whose call ended leaves the queue, so a waiter publishes it again)."""
        with self._cond:
            if holder in self._workers:
                self._workers.remove(holder)
            held = [
                (key, item)
                for key, item in self._queue.items()
                if item.holder == holder
            ]
            for key, item in held:
                if item.call is None:
                    del self._queue[key]
                else:
                    item.holder = None
            self._cond.notify_all()
            return len(held)

    def queue_census(self) -> tuple[int, Counter]:
        """``(unleased, queued keys per fleet lease id)`` of the pending
        queue; a key a local worker or the calling thread holds is neither."""
        with self._lock:
            holders = Counter(item.holder for item in self._queue.values())
        fleet = Counter({h: n for h, n in holders.items() if isinstance(h, str)})
        return holders[None], fleet

    # ------------------------------------------------------ the local workers
    def _start_workers(self) -> None:
        """Start the ``max_workers`` local workers, once per service.  Each
        lessee thread spawns its process, so the caller does not wait; the
        threads start under the lock, so a :meth:`close` joins started ones."""
        with self._lock:
            if self._started or (self.max_workers or 0) < 2:
                return
            self._started = True
            self._workers = [_LocalWorker(self) for _ in range(self.max_workers)]
            for worker in self._workers:
                worker.thread.start()

    def close(self) -> None:
        """Stop the local workers once each has committed the class it is
        training, and reap them (idempotent); the callers train from here on."""
        with self._cond:
            self._started = True
            workers, self._workers = self._workers, []
            self._cond.notify_all()
        for worker in workers:
            worker.thread.join()

    def __enter__(self) -> "ProfilingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def graph_for(self, fingerprint: str) -> CSRGraph | None:
        """A graph this service has keyed candidates on, by content hash."""
        for graph, known in list(self._fingerprints.values()):
            if known == fingerprint:
                return graph
        return None

    def _execute(
        self,
        task: TaskSpec,
        configs: list[TrainingConfig],
        graph: CSRGraph,
        *,
        keys: list,
        waited: set,
        on_resolve,
        cancel: CancellationToken | None = None,
    ) -> None:
        """Resolve ``keys`` (distinct) — the one Step-2 loop.

        Each pass, under the queue's lock, publishes every key that is
        neither resolved nor queued, where a lessee (a local worker or a
        fleet executor) may take it, and waits on each key another call
        queued instead of training it; a waited-on key that leaves the queue
        without a record lost its owner, and the pass publishes it again.
        Until each key has a record, the loop trains the members this call
        queued of the next *training class* (:func:`_training_classes`)
        itself while no lessee is live — a dead one's lease holds nothing —
        holding them on the queue meanwhile, one reorder strategy after the
        other, so each :class:`PreparedGraph` is built once; otherwise it
        waits, at most :data:`_POLL_SECONDS`, for commits, for dead lessees'
        keys to come back, for owners to drop theirs.  One class is one run
        that lands one record per member: ``stats.trainings`` counts the
        runs, ``stats.executed`` the records.  A batch of more than one
        class starts the local workers (:meth:`_start_workers`).

        Every record is :meth:`commit`-ted the moment it lands, so an
        aborted batch keeps each run it finished, and on any exit the keys
        this call still has queued are dropped, save those a lessee is
        training: they stay queued, so no call trains them again, until it
        commits them or dies (:meth:`requeue`).  ``cancel`` is polled
        between classes and on every wake.  ``on_resolve(key, record,
        shared)`` fires on the calling thread as each key lands; ``shared``
        says this call waited on it — it was in ``waited`` (queued by another
        call when this call looked) or a pass saw it so — and counts it in
        ``stats.shared_inflight``.  A raising callback aborts the batch like
        a cancel.
        """
        classes = _training_classes(configs, graph)
        if len(classes) > 1:
            self._start_workers()
        classes.sort(key=lambda members: configs[members[0]].reorder)
        unresolved = dict.fromkeys(i for members in classes for i in members)
        call = (task, graph, self._fingerprint(graph))
        prepared = None

        def resolve(landed: list) -> None:
            for i, record in landed:
                shared = keys[i] in waited
                if shared:
                    self.stats.bump("shared_inflight")
                on_resolve(keys[i], record, shared)

        try:
            while True:
                if cancel is not None:
                    cancel.raise_if_cancelled()
                taken = None
                with self._cond:
                    landed = self._landed_locked(keys, unresolved)
                    if unresolved and not landed:
                        published = False
                        for i in unresolved:
                            item = self._queue.get(keys[i])
                            if item is None:
                                self._queue[keys[i]] = _Pending(configs[i], call)
                                waited.discard(keys[i])
                                published = True
                            elif item.call is not call:
                                waited.add(keys[i])
                        if published:
                            self._cond.notify_all()
                        if not self._workers and not self.fleet_live():
                            taken = self._take_locked(call, keys, classes)
                        if taken is None:
                            self._cond.wait(_POLL_SECONDS)
                            continue
                resolve(landed)
                if taken is not None:
                    members = [configs[i] for i in taken]
                    if prepared is None or prepared.reorder != members[0].reorder:
                        prepared = None  # free the last strategy's copy first
                        prepared = PreparedGraph(graph, members[0].reorder)
                    runs = profile_class(task, members, prepared=prepared)
                    self.stats.bump("trainings")
                    for i, (record, _) in zip(taken, runs, strict=True):
                        self.commit(keys[i], record)
                        with self._lock:
                            landed = self._landed_locked(keys, unresolved)
                        resolve(landed)
                elif not unresolved:
                    return
        finally:
            with self._cond:
                for key in keys:
                    item = self._queue.get(key)
                    if item is None or item.call is not call:
                        continue
                    if item.holder is None or item.holder is _LOCAL:
                        del self._queue[key]
                    else:  # a lessee trains it: queued until it commits
                        item.call = None
                self._cond.notify_all()

    # ------------------------------------------------------------------ API
    def profile(
        self,
        task: TaskSpec,
        configs: list[TrainingConfig],
        *,
        graph: CSRGraph | None = None,
        cancel: CancellationToken | None = None,
        on_progress=None,
    ) -> list[GroundTruthRecord]:
        """Measure every candidate, returning one record per input config.

        Output order matches input order and values match the serial
        :func:`~repro.runtime.profiler.profile_one` path exactly.  Each
        unique candidate resolves from memory, the store, another caller's
        queued run, or this call's :meth:`_execute` (a run of its own, a
        local worker's or a fleet executor's) — never twice, however many
        threads ask at once.

        ``cancel`` makes the call cooperatively cancellable: the token is
        polled on entry, between candidate runs, and while waiting on
        another caller's keys.  Candidates that completed before the abort
        are already committed, and an aborted call always drops the keys it
        queued (on *any* exception), so waiters publish and measure the
        abandoned keys themselves instead of hanging.

        ``on_progress(runs_done, runs_total, cache_hits)`` streams this
        call's cumulative resolution over unique candidates (duplicates
        fold before they are counted): first ``(0, total, 0)``, then after
        the memory hits, the store hits, each landed run, and each record
        another caller's run supplied (those count as cache hits — work
        this call did not pay for).
        """
        graph = graph if graph is not None else load_dataset(task.dataset)
        keys = self._keys(task, configs, graph)

        wanted: dict = {}  # key -> canonical config, insertion-ordered
        for key, config in zip(keys, configs, strict=True):
            if key in wanted:
                self.stats.bump("deduplicated")
                continue
            wanted[key] = config.canonical()

        results: dict = {}
        hits = 0
        last_report: list = [None]

        def report() -> None:
            if on_progress is None:
                return
            state = (len(results), len(wanted), hits)
            if state != last_report[0]:  # a step that landed nothing
                last_report[0] = state
                on_progress(*state)

        def resolve(key, record, shared: bool) -> None:
            nonlocal hits
            results[key] = record
            hits += shared
            report()

        report()
        if cancel is not None:
            cancel.raise_if_cancelled()
        # In-process state only: the lock is never held across disk I/O, so
        # callers don't serialize behind each other's store reads on a warm
        # cache.
        with self._lock:
            for key in wanted:
                record = self._memory.get(key)
                if record is not None:
                    self.stats.bump("cache_hits")
                    results[key] = record
                    hits += 1
            queued = {key for key in wanted if key in self._queue}
        report()
        if self.store is not None:
            # A queued key is its publisher's to resolve: this call waits.
            for key in wanted:
                if key in results or key in queued:
                    continue
                record = self.store.load(key)
                if record is None:
                    continue
                with self._lock:
                    if key not in self._queue:  # else its publisher commits it
                        self._memory.setdefault(key, record)
                self.stats.bump("cache_hits")
                results[key] = record
                hits += 1
            report()
        rest = [key for key in wanted if key not in results]
        if rest:
            self._execute(
                task,
                [wanted[key] for key in rest],
                graph,
                keys=rest,
                waited=queued,
                cancel=cancel,
                on_resolve=resolve,
            )
        return [results[key] for key in keys]
