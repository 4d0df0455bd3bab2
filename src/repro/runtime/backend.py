"""The reconfigurable runtime backend (paper Sec. 3.2, Fig. 3).

:class:`RuntimeBackend` executes Algorithm 1 — sample on host, transfer over
the link, update the device cache, compute on device — for any
:class:`~repro.config.settings.TrainingConfig`.  GNN computation runs for
real (numpy autograd), producing genuine losses and accuracies; time and
memory are charged by the analytic platform model driven by the *measured*
per-batch quantities (subgraph sizes, cache hits), per the substitution rule
in DESIGN.md.

The backend is where the four optimization categories meet:

* sampling — the sampler factory (Cat. 1) honours ``sampler``/``hop_list``/
  ``bias_rate``; biased samplers re-read the cache's hot set every batch,
  which is the sampling↔transmission coupling 2PGraph exploits;
* transmission — the :class:`~repro.hardware.cache.DeviceCache` (Cat. 2);
* model design — ``build_model`` (Cat. 3);
* computation — graph reordering tweaks the effective device bandwidth
  (Cat. 4) through the roofline model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from repro.autograd.functional import nll_loss
from repro.autograd.tensor import Tensor, no_grad
from repro.config.settings import TaskSpec, TrainingConfig
from repro.errors import ConfigError
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import load_dataset, train_val_test_split
from repro.graphs.partition import bfs_partition, cache_priority_order
from repro.graphs.profiling import GraphProfile, profile_graph
from repro.graphs.reorder import locality_score, reorder_graph
from repro.hardware.cache import DeviceCache
from repro.hardware.costmodel import model_costing, t_compute, t_replace, t_sample, t_transfer
from repro.hardware.memory import MemoryBreakdown, gamma_cache, gamma_model, gamma_runtime
from repro.hardware.specs import Platform, get_platform
from repro.nn.graphconv import Propagation
from repro.nn.metrics import accuracy
from repro.nn.models import build_model
from repro.nn.optim import Adam
from repro.runtime.report import BatchRecord, EpochStats, PerfReport
from repro.sampling.base import Sampler
from repro.sampling.batching import BatchIterator
from repro.sampling.biased import BiasedNeighborSampler
from repro.sampling.cluster import ClusterSampler
from repro.sampling.layerwise import LayerSampler
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.saint import SaintSampler

__all__ = [
    "PreparedGraph",
    "RuntimeBackend",
    "make_sampler",
    "sampler_args",
    "training_key",
]

#: fallback hot-set size when a biased sampler runs without a cache
_DEGREE_HOT_FRACTION = 0.2


def _safe_mean(values: list) -> float:
    """Mean that degrades to 0.0 on an empty list instead of NaN+warning."""
    return float(np.mean(values)) if values else 0.0


def sampler_args(config: TrainingConfig, num_nodes: int) -> tuple[int, ...]:
    """What :func:`make_sampler` hands the sampler constructor from
    ``hop_list`` — all of it a training run can observe.

    ``fastgcn`` derives its per-layer budgets from Eq. 3
    (``Δ_l = k_l · |B0|``, capped at half the graph); ``saint`` uses a walk
    length of twice the hop count, the paper's "many more hops, fanout 1"
    reading of subgraph sampling; ``cluster`` takes a partition count that
    scales with batch size (|V| / |B0| regions of roughly batch-size
    vertices) and covers one partition per hop.
    """
    hops = tuple(config.hop_list)
    if config.sampler in ("sage", "biased"):
        return hops
    if config.sampler == "fastgcn":
        cap = max(num_nodes // 2, 1)
        return tuple(min(k * config.batch_size, cap) for k in hops)
    if config.sampler == "saint":
        return (2 * len(hops),)
    if config.sampler == "cluster":
        parts = max(2, num_nodes // max(config.batch_size, 1))
        return (min(parts, 64), len(hops))
    raise ConfigError(f"unknown sampler {config.sampler!r}")


def training_key(config: TrainingConfig, num_nodes: int) -> tuple:
    """The training class of a candidate: everything its sampler, batch
    order and model can see, defined *by exclusion* so a knob added later
    is in the key by default.

    The transmission knobs sit on the host-device link, after the batch is
    drawn and beside the model, so they only reach ``_charge_batch`` —
    unless the sampler is ``biased``, which chases the cache's hot set.
    ``hop_list`` counts only through :func:`sampler_args`.  Candidates with
    equal keys train the same trajectory (DESIGN.md, *Step 2 in three
    levels*).
    """
    config = config.canonical()
    charged = {"hop_list"}
    if config.sampler != "biased":
        charged |= {"cache_ratio", "cache_policy"}
    return (
        sampler_args(config, num_nodes),
        *(getattr(config, f.name) for f in fields(config) if f.name not in charged),
    )


def make_sampler(
    config: TrainingConfig, graph: CSRGraph, cache: DeviceCache | None
) -> Sampler:
    """Instantiate the sampler a configuration asks for (Fig. 3 Cat. 1)."""
    args = sampler_args(config, graph.num_nodes)
    if config.sampler == "sage":
        return NeighborSampler(list(args))
    if config.sampler == "fastgcn":
        return LayerSampler(list(args))
    if config.sampler == "saint":
        return SaintSampler(walk_length=args[0])
    if config.sampler == "cluster":
        return ClusterSampler(args[0], parts_per_batch=args[1])
    if cache is not None and cache.capacity > 0:
        hot = cache.hot_nodes()
    else:  # no cache to chase: prefer hub vertices (degree locality)
        count = max(1, int(_DEGREE_HOT_FRACTION * graph.num_nodes))
        hot = cache_priority_order(graph)[:count]
    return BiasedNeighborSampler(list(args), bias_rate=config.bias_rate, hot_nodes=hot)


class PreparedGraph:
    """What a run derives from ``(graph, reorder)`` alone, built once and
    shared by every training class that reorders the same way.

    Per reorder strategy, not per graph: permuting changes float summation
    order, so ``profile`` differs in the last ulp between strategies.
    """

    def __init__(self, graph: CSRGraph, reorder: str) -> None:
        if graph.features is None or graph.labels is None:
            raise ConfigError("runtime backend needs a featured, labelled graph")
        self.reorder = reorder
        # Cat. 4: computation — reordering improves aggregation locality,
        # which the roofline model converts into effective bandwidth.
        self.graph = reorder_graph(graph, reorder)
        self.bandwidth_scale = 0.7 + 0.3 * locality_score(self.graph)
        self.cache_priority = cache_priority_order(self.graph)
        self._evaluation: Propagation | None = None

    @cached_property
    def profile(self) -> GraphProfile:
        return profile_graph(self.graph)

    def propagation(self, rows: np.ndarray) -> Propagation:
        """The full-graph propagation that outputs ``rows`` (sorted,
        distinct), which ``evaluate`` runs on.

        Its blocks depend on nothing else, so the last one asked for is
        kept: every epoch and every training class of one task reads the
        same validation and test rows, and cuts them once.
        """
        prop = self._evaluation
        if prop is None or not np.array_equal(prop.rows, rows):
            prop = self._evaluation = Propagation.from_graph(self.graph, rows=rows)
        return prop


@dataclass
class _Member:
    """One candidate of a training class: all it owns is its device cache
    and the ledger ``_charge_batch`` writes."""

    config: TrainingConfig
    cache: DeviceCache
    epochs: list[EpochStats] = field(default_factory=list)
    batches: list[BatchRecord] = field(default_factory=list)


class RuntimeBackend:
    """Executes one training task under one training class of configurations.

    ``config`` and every further member in ``charged`` share a
    :func:`training_key`: the sampler, batch stream, model and optimiser
    exist once and each batch is trained once, while every member runs its
    own device cache over the same measured batches.  A single
    configuration is the class of one.  ``prepared`` hands over the
    ``(graph, reorder)`` preparation of an earlier run instead of ``graph``.
    """

    def __init__(
        self,
        task: TaskSpec,
        config: TrainingConfig,
        *charged: TrainingConfig,
        graph: CSRGraph | None = None,
        platform: Platform | None = None,
        prepared: PreparedGraph | None = None,
    ) -> None:
        self.task = task
        self.config = config.canonical()
        self.platform = platform or get_platform(task.platform)
        if prepared is None:
            graph = graph if graph is not None else load_dataset(task.dataset)
            prepared = PreparedGraph(graph, self.config.reorder)
        elif prepared.reorder != self.config.reorder:
            raise ConfigError(f"graph prepared for reorder={prepared.reorder!r}")
        self.prepared = prepared
        self.graph = prepared.graph

        self.train_nodes, self.val_nodes, self.test_nodes = train_val_test_split(
            self.graph.num_nodes,
            train_frac=task.train_frac,
            val_frac=task.val_frac,
            seed=task.seed,
        )

        # Cat. 2: transmission — one device cache per member, sized by its
        # cache ratio.
        key = training_key(self.config, self.graph.num_nodes)
        self.members: list[_Member] = []
        for member in (self.config, *(c.canonical() for c in charged)):
            if training_key(member, self.graph.num_nodes) != key:
                raise ConfigError(
                    f"{member.describe()} is not in the training class of "
                    f"{self.config.describe()}"
                )
            capacity = int(member.cache_ratio * self.graph.num_nodes)
            cache = DeviceCache(
                self.graph.num_nodes,
                capacity,
                policy=member.cache_policy if capacity else "none",
                priority=prepared.cache_priority,
            )
            self.members.append(_Member(member, cache))
        self.cache = self.members[0].cache

        # Cat. 1: sampling — sampler + batch schedule.
        self.sampler = make_sampler(self.config, self.graph, self.cache)
        partition = None
        if self.config.batch_order == "partition":
            parts = max(2, self.graph.num_nodes // max(self.config.batch_size, 1))
            partition = bfs_partition(self.graph, min(parts, 64), seed=task.seed)
        self.batches = BatchIterator(
            self.train_nodes,
            self.config.batch_size,
            order=self.config.batch_order,
            partition=partition,
            seed=task.seed,
        )

        # Cat. 3: model design.
        self.model = build_model(
            task.arch,
            self.graph.feature_dim,
            self.graph.num_classes,
            hidden_channels=self.config.hidden_channels,
            num_layers=self.config.num_layers,
            heads=self.config.heads,
            dropout_p=self.config.dropout,
            seed=task.seed,
        )
        self.optimizer = Adam(self.model.parameters(), lr=task.lr)
        self._rng = np.random.default_rng(task.seed + 7)
        self._features = self.graph.features
        self._train_mask = np.zeros(self.graph.num_nodes, dtype=bool)
        self._train_mask[self.train_nodes] = True
        self._peak_runtime_bytes = 0.0
        #: test accuracy of the current model state, refreshed every epoch
        self.test_accuracy = 0.0

    # ------------------------------------------------------------- mechanics
    def _train_step(self, batch) -> float:
        """One real forward/backward/optimize step on the sampled subgraph.

        The model is told which rows the loss reads, so it computes those
        and what they depend on — not every vertex of the subgraph.
        """
        # Subgraph samplers (GraphSAINT) mark every subgraph vertex as a loss
        # target; restrict to training vertices so val/test labels never leak.
        target_index = batch.target_index
        target_index = target_index[self._train_mask[batch.nodes[target_index]]]
        if target_index.size == 0:
            return float("nan")
        prop = Propagation.from_graph(batch.subgraph, rows=target_index)
        self.model.train()
        self.optimizer.zero_grad()
        # the feature gather is not held here: no backward closure reads it,
        # so it dies with the forward
        out = self.model(Tensor(self._features[batch.nodes]), prop)
        loss = nll_loss(out, self.graph.labels[batch.nodes[target_index]])
        loss.backward()
        self.optimizer.step()
        return float(loss.item())

    def _charge_batch(self, batch, loss: float) -> None:
        """Apply the Eq. 5-8 cost functions to measured batch quantities:
        the sampling and compute terms once, then each member's cache
        traffic — the only part of a record the class does not share."""
        costing = model_costing(
            self.task.arch,
            batch.num_nodes,
            batch.num_edges,
            in_dim=self.graph.feature_dim,
            hidden_dim=self.config.hidden_channels,
            out_dim=self.graph.num_classes,
            num_layers=self.config.num_layers,
            heads=self.config.heads,
        )
        # Reordering raises effective bandwidth => shrinks memory-bound time.
        scaled = type(costing)(
            flops=costing.flops,
            bytes_moved=costing.bytes_moved / self.prepared.bandwidth_scale,
            kernel_launches=costing.kernel_launches,
        )
        sample_s = t_sample(
            batch.num_nodes - batch.num_targets,
            self.platform,
            edges_touched=batch.num_edges,
        )
        compute_s = t_compute(scaled, self.platform)
        runtime_bytes = gamma_runtime(
            batch.num_nodes,
            batch.num_edges,
            n_attr=self.graph.feature_dim,
            hidden_dim=self.config.hidden_channels,
            out_dim=self.graph.num_classes,
            num_layers=self.config.num_layers,
            heads=self.config.heads,
            attention=self.task.arch == "gat",
        )
        self._peak_runtime_bytes = max(self._peak_runtime_bytes, runtime_bytes)

        n_attr = self.graph.feature_dim
        for member in self.members:
            hit_mask = member.cache.lookup(batch.nodes)
            missed = int((~hit_mask).sum())
            admitted, evicted = member.cache.update(batch.nodes[~hit_mask])
            member.batches.append(
                BatchRecord(
                    num_targets=batch.num_targets,
                    num_nodes=batch.num_nodes,
                    num_edges=batch.num_edges,
                    num_missed=missed,
                    num_admitted=admitted,
                    num_evicted=evicted,
                    t_sample=sample_s,
                    t_transfer=t_transfer(missed, n_attr, self.platform),
                    t_replace=t_replace(admitted, evicted, n_attr, self.platform),
                    t_compute=compute_s,
                    loss=loss,
                )
            )

    def run_epoch(self, epoch: int) -> tuple[EpochStats, list[BatchRecord]]:
        """Algorithm 1, lines 1-10, over one epoch of mini-batches: each is
        sampled and trained once and charged to every member.  Returns the
        first member's statistics; all land in ``members``."""
        start = len(self.members[0].batches)
        for target_batch in self.batches.epoch():
            # 2PGraph coupling: biased samplers chase the *current* cache.
            if isinstance(self.sampler, BiasedNeighborSampler) and self.cache.capacity:
                self.sampler.set_hot_nodes(self.cache.hot_nodes())
            batch = self.sampler.sample(self.graph, target_batch, rng=self._rng)
            self._charge_batch(batch, self._train_step(batch))

        # Validation and test read the same model state: one forward.
        val_acc, self.test_accuracy = self.evaluate(self.val_nodes, self.test_nodes)
        for member in self.members:
            records = member.batches[start:]
            # Batches without training targets report a NaN loss (nothing was
            # optimised); exclude them so one such batch cannot poison the
            # epoch loss — and with it the estimator's ground truth.  The
            # guarded means also keep an empty epoch (no train batches at all)
            # from emitting RuntimeWarnings and NaN stats.
            losses = [r.loss for r in records if not np.isnan(r.loss)]
            member.epochs.append(
                EpochStats(
                    epoch=epoch,
                    time_s=float(sum(r.time for r in records)),
                    t_sample=float(sum(r.t_sample for r in records)),
                    t_transfer=float(sum(r.t_transfer for r in records)),
                    t_replace=float(sum(r.t_replace for r in records)),
                    t_compute=float(sum(r.t_compute for r in records)),
                    mean_batch_nodes=_safe_mean([r.num_nodes for r in records]),
                    mean_batch_edges=_safe_mean([r.num_edges for r in records]),
                    hit_rate=_safe_mean([r.hit_rate for r in records]),
                    loss=_safe_mean(losses),
                    val_accuracy=val_acc,
                    num_batches=len(records),
                )
            )
        return self.members[0].epochs[-1], self.members[0].batches[start:]

    def evaluate(self, *subsets: np.ndarray) -> tuple[float, ...]:
        """Full-graph inference accuracy on each node subset: one no-grad
        forward serves them all, and computes the rows of their union and
        what those depend on — the block path training runs on."""
        if not any(nodes.size for nodes in subsets):
            return (0.0,) * len(subsets)
        rows = np.unique(np.concatenate(subsets).astype(np.int64))
        self.model.eval()
        with no_grad():
            prop = self.prepared.propagation(rows)
            out = self.model(Tensor(self._features), prop).numpy()
        return tuple(
            accuracy(out[np.searchsorted(rows, nodes)], self.graph.labels[nodes])
            if nodes.size
            else 0.0
            for nodes in subsets
        )

    def memory_breakdown(self, member: _Member | None = None) -> MemoryBreakdown:
        """Eq. 9: Γ_model + Γ_cache + Γ_runtime (runtime peak so far)."""
        cache = (member or self.members[0]).cache
        return MemoryBreakdown(
            model=gamma_model(
                self.model.num_parameters(),
                optimizer_state_factor=self.optimizer.state_factor,
            ),
            cache=gamma_cache(cache.capacity, self.graph.feature_dim),
            runtime=self._peak_runtime_bytes,
        )

    def train(self, *, keep_batch_records: bool = False) -> PerfReport:
        """Full training run returning the first member's ``Perf(T, Γ, Acc)``."""
        return self.train_members(keep_batch_records=keep_batch_records)[0]

    def train_members(self, *, keep_batch_records: bool = False) -> list[PerfReport]:
        """Full training run returning one ``Perf(T, Γ, Acc)`` per member."""
        for member in self.members:  # the reports cover this call's epochs
            member.epochs, member.batches = [], []
        for epoch in range(self.task.epochs):
            self.run_epoch(epoch)
        task_summary = f"{self.task.dataset}+{self.task.arch}@{self.platform.name}"
        return [
            PerfReport(
                time_s=float(np.mean([e.time_s for e in member.epochs])),
                memory=self.memory_breakdown(member),
                accuracy=self.test_accuracy,
                epochs=member.epochs,
                batches=member.batches if keep_batch_records else [],
                config_summary=member.config.describe(),
                task_summary=task_summary,
            )
            for member in self.members
        ]
