"""Timing wrappers installed from outside the program.

The ledger measures layers without touching ``src/``: :func:`install` wraps
the public callables of each layer (``TARGETS``) with a span recorder, and
:func:`uninstall` restores them.  A span is ``{id, name, start, end, parent,
op_id}``.  The span stack is thread-local (server job workers run
concurrently); a span opened on an empty stack is the root of a new op, and
every span below it shares that op's ``op_id``.  Spans stay in memory and are
written out once, when the workload ends.

*Self time* of a span is its duration minus the part covered by its child
spans; since children of one span run sequentially on the same thread, that
is the duration minus the sum of the children's durations.

Wrappers stay installed for the whole traced run and check ``Tracer.enabled``
per call, so a run can alternate traced and untraced ops: the untraced ops
are the reference the tracing overhead is measured against.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

__all__ = ["TARGETS", "Tracer", "aggregate", "install", "uninstall"]

#: (span name, module, attribute path) — a dotted path is a method on a class.
#: Functions are patched in *every* loaded ``repro`` module that holds them (and
#: in ``ledger.workloads``), because most are imported by name (``from x import
#: f``) by their callers.
TARGETS = [
    ("graphs.induced_subgraph", "repro.graphs.csr", "CSRGraph.induced_subgraph"),
    ("graphs.gather_neighborhoods", "repro.graphs.csr", "CSRGraph.gather_neighborhoods"),
    ("graphs.profile_graph", "repro.graphs.profiling", "profile_graph"),
    ("graphs.reorder_graph", "repro.graphs.reorder", "reorder_graph"),
    ("sampling.sample", "repro.sampling.neighbor", "NeighborSampler.sample"),
    ("sampling.sample", "repro.sampling.biased", "BiasedNeighborSampler.sample"),
    ("sampling.sample", "repro.sampling.layerwise", "LayerSampler.sample"),
    ("sampling.sample", "repro.sampling.saint", "SaintSampler.sample"),
    ("sampling.sample", "repro.sampling.cluster", "ClusterSampler.sample"),
    ("sampling.fanout_step", "repro.sampling.base", "fanout_step"),
    ("sampling.batch_iter", "repro.sampling.batching", "BatchIterator.epoch"),
    ("autograd.normalized_adjacency", "repro.autograd.sparse", "normalized_adjacency"),
    ("autograd.backward", "repro.autograd.tensor", "Tensor.backward"),
    ("autograd.segment_softmax", "repro.autograd.sparse", "segment_softmax"),
    ("nn.forward", "repro.nn.models", "GNN.forward"),
    ("nn.nll_loss", "repro.autograd.functional", "nll_loss"),
    ("nn.optim_step", "repro.nn.optim", "Adam.step"),
    ("nn.build_model", "repro.nn.models", "build_model"),
    ("hardware.cache", "repro.hardware.cache", "DeviceCache.lookup"),
    ("hardware.cache", "repro.hardware.cache", "DeviceCache.update"),
    ("hardware.costmodel", "repro.hardware.costmodel", "model_costing"),
    ("hardware.costmodel", "repro.hardware.costmodel", "t_sample"),
    ("hardware.costmodel", "repro.hardware.costmodel", "t_transfer"),
    ("hardware.costmodel", "repro.hardware.costmodel", "t_replace"),
    ("hardware.costmodel", "repro.hardware.costmodel", "t_compute"),
    ("runtime.backend_init", "repro.runtime.backend", "RuntimeBackend.__init__"),
    ("runtime.run_epoch", "repro.runtime.backend", "RuntimeBackend.run_epoch"),
    ("runtime.evaluate", "repro.runtime.backend", "RuntimeBackend.evaluate"),
    ("runtime.profile_one", "repro.runtime.profiler", "profile_one"),
    ("runtime.profile", "repro.runtime.parallel", "ProfilingService.profile"),
    ("runtime.fingerprint", "repro.runtime.parallel", "graph_fingerprint"),
    ("runtime.store.load", "repro.runtime.parallel", "ResultStore.load"),
    ("runtime.store.save", "repro.runtime.parallel", "ResultStore.save"),
    ("estimator.fit", "repro.estimator.graybox", "GrayBoxEstimator.fit"),
    ("estimator.predict", "repro.estimator.graybox", "GrayBoxEstimator.predict"),
    ("explorer.space_sample", "repro.config.space", "DesignSpace.sample"),
    ("explorer.dfs", "repro.explorer.dfs", "DFSExplorer.explore"),
    ("explorer.pareto_mask", "repro.explorer.pareto", "pareto_mask"),
    ("explorer.decision", "repro.explorer.decision", "DecisionMaker.__init__"),
    ("explorer.decision", "repro.explorer.decision", "DecisionMaker.choose_all"),
    ("serving.submit", "repro.serving.server", "NavigationServer.submit"),
    ("serving.shared_profile", "repro.serving.scheduler", "SharedProfilingService.profile"),
    # The two private names.  ``_run`` is one served job on its worker
    # thread, so it roots that job's spans under one op_id; every HTTP round
    # trip of the client funnels through ``_call``, the transport boundary
    # on the caller's side.
    ("serving.job", "repro.serving.server", "NavigationServer._run"),
    ("transport.call", "repro.serving.transport.client", "RemoteNavigationClient._call"),
]

#: targets that return a generator: each ``next()`` is one span.
_GENERATORS = {"sampling.batch_iter"}


class Tracer:
    """In-memory span recorder with a thread-local span stack."""

    def __init__(self) -> None:
        self.enabled = False
        #: finished spans: ``(id, name, start, end, parent_id, op_id)``
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def start(self, name: str, op_id: str | None = None) -> list:
        """Open a span on this thread; ``op_id`` names a new root op."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        if stack:
            parent_id, op = stack[-1][0], stack[-1][3]
        else:
            parent_id = None
            op = op_id or f"{threading.current_thread().name}#{span_id}"
        frame = [span_id, name, parent_id, op, time.perf_counter()]
        stack.append(frame)
        return frame

    def stop(self, frame: list) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        span_id, name, parent_id, op, start = frame
        self.spans.append((span_id, name, start, end, parent_id, op))

    def wrap(self, name: str, fn):
        """``fn`` recorded as one span per call while the tracer is enabled."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self.start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stop(frame)

        return traced

    def wrap_generator(self, name: str, fn):
        """``fn`` returns a generator; record each ``next()`` as one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                frame = self.start(name) if self.enabled else None
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        self.stop(frame)
                yield item

        return traced

    def as_dicts(self) -> list[dict]:
        """The spans in the shape the trace file stores."""
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "op_id": o}
            for i, n, s, e, p, o in self.spans
        ]


def _patch(tracer: Tracer, owner: object, attr: str, wrapper: object) -> None:
    tracer._undo.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every callable in :data:`TARGETS` (idempotent per tracer)."""
    if tracer._undo:
        return
    for name, module_name, path in TARGETS:
        module = importlib.import_module(module_name)
        make = tracer.wrap_generator if name in _GENERATORS else tracer.wrap
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            _patch(tracer, cls, attr, make(name, cls.__dict__[attr]))
            continue
        original = getattr(module, path)
        wrapper = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            # the workloads call ``profile_one`` by name too
            if mod is None or not mod_name.startswith(("repro", "ledger.workloads")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    _patch(tracer, mod, attr, wrapper)


def uninstall(tracer: Tracer) -> None:
    """Restore every attribute :func:`install` replaced."""
    while tracer._undo:
        owner, attr, original = tracer._undo.pop()
        setattr(owner, attr, original)


def aggregate(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s``, ``total_s`` and ``durations``.

    ``total_s`` sums only spans with no ancestor of the same name, so a
    callable that re-enters itself is not counted twice.
    """
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = {}
    for span_id, _name, start, end, parent, _op in spans:
        if parent is not None and parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        child_time.setdefault(span_id, 0.0)

    out: dict[str, dict] = {}
    for span_id, name, start, end, parent, _op in spans:
        duration = end - start
        entry = out.setdefault(
            name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []}
        )
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[span_id]
        nested = False
        while parent is not None and parent in by_id:
            if by_id[parent][1] == name:
                nested = True
                break
            parent = by_id[parent][4]
        if not nested:
            entry["total_s"] += duration
            entry["durations"].append(duration)
    return out
