"""The GNNavigator facade: Steps 1-3 of Fig. 2 end to end.

Given a task (dataset + model + platform + requirements):

1. **Input analysis** — profile the graph, resolve the platform, gather the
   pre-determined settings.
2. **Automatic guideline generation** — profile a sample of the design space
   on the runtime backend to fit the gray-box estimator (the paper trains on
   ground truth "covering the whole design space"; the sample size is the
   budget knob), then estimate the whole space, filter it by the runtime
   constraints and run the decision maker.
3. **Training** — apply a guideline on the reconfigurable backend and return
   the measured ``Perf(T, Γ, Acc)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config.settings import TaskSpec, TrainingConfig
from repro.config.space import DesignSpace, default_space
from repro.config.templates import TEMPLATES
from repro.errors import ExplorationError
from repro.estimator.graybox import GrayBoxEstimator
from repro.explorer.constraints import RuntimeConstraint
from repro.explorer.decision import DecisionMaker, Guideline
from repro.explorer.dfs import DFSExplorer, ExplorationResult
from repro.explorer.objectives import PRIORITY_PRESETS, ExploreTarget, get_target
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import load_dataset
from repro.graphs.profiling import GraphProfile
from repro.hardware.specs import Platform, get_platform
from repro.runtime.backend import RuntimeBackend
from repro.runtime.parallel import ProfilingService
from repro.runtime.profiler import GroundTruthRecord
from repro.runtime.report import PerfReport

__all__ = ["GNNavigator", "NavigatorReport"]


@dataclass
class NavigatorReport:
    """Everything one navigation run produced."""

    task: TaskSpec
    guidelines: dict[str, Guideline]
    exploration: ExplorationResult
    num_ground_truth: int
    profile: GraphProfile | None = None
    extras: dict = field(default_factory=dict)


class GNNavigator:
    """Adaptive GNN training-configuration optimisation (the paper's system)."""

    def __init__(
        self,
        task: TaskSpec,
        *,
        space: DesignSpace | None = None,
        graph: CSRGraph | None = None,
        profile_budget: int = 48,
        profile_epochs: int = 4,
        seed: int = 0,
        workers: int | None = None,
        cache_dir: str | None = None,
        profiler=None,
        cancel=None,
        progress=None,
        transfer=None,
    ) -> None:
        if profile_budget < 8:
            raise ExplorationError("profile_budget must be at least 8")
        self.task = task
        self.space = space or default_space()
        self.graph = graph if graph is not None else load_dataset(task.dataset)
        self.platform: Platform = get_platform(task.platform)
        self.profile: GraphProfile = self.graph.profile
        self.profile_budget = profile_budget
        self.profile_epochs = profile_epochs
        self.seed = seed
        #: Step-2 profiler: a private :class:`ProfilingService` (``workers``
        #: local workers, persisted under ``cache_dir``, closed once
        #: :meth:`ground_truth` has profiled) unless one is injected —
        #: the serving layer passes its shared service here so Step 2 rides
        #: the multi-tenant cache.  A profiler that also offers
        #: ``fit_estimator(records, weights, train_frac=, random_state=)``
        #: supplies the fitted estimator too (the server's memo).
        self._owns_profiler = profiler is None
        self.profiler = profiler or ProfilingService(
            max_workers=workers, cache_dir=cache_dir
        )
        #: optional :class:`~repro.runtime.parallel.CancellationToken`
        #: checked at phase transitions and threaded into Step-2 profiling,
        #: where it is polled between candidate training runs — the serving
        #: layer's cooperative RUNNING-job cancellation rides this seat.
        self.cancel = cancel
        #: optional progress sink ``progress(phase, **fields)``, threaded
        #: alongside ``cancel``: phase transitions and per-candidate Step-2
        #: profiling completions are reported through it — the serving
        #: layer's live job-event streaming rides this seat.
        self.progress = progress
        #: optional :class:`~repro.transfer.warmstart.TransferContext`-shaped
        #: delegate (``plan(task, profile, full_budget=)``).  When it yields a
        #: plan, Step 2 pre-ranks its candidate sample with a donor-fitted
        #: estimator, profiles only the plan's shrunken budget, and fits the
        #: final estimator on target records (weight 1) plus similarity-
        #: weighted donor records.  ``None`` — or a plan of ``None`` — keeps
        #: this navigator bit-identical to one built without the seat.
        self.transfer = transfer
        self.transfer_plan = None
        self.estimator: GrayBoxEstimator | None = None
        self.records: list[GroundTruthRecord] = []

    def _checkpoint(self) -> None:
        if self.cancel is not None:
            self.cancel.raise_if_cancelled()

    def _emit(self, phase: str, **fields) -> None:
        if self.progress is not None:
            self.progress(phase, **fields)

    def _on_profiling_progress(self, done: int, total: int, hits: int) -> None:
        # The profiler reports once immediately (the cache-scan state), so
        # no separate phase-entry event is needed.
        self._emit(
            "profiling",
            batch_index=done,
            runs_done=done,
            runs_total=total,
            cache_hits=hits,
        )

    # ------------------------------------------------------------ step 2a/2b
    def ground_truth(self) -> list[GroundTruthRecord]:
        """Step 2's round 0: profile the seeded design-space sample plus the
        baseline templates on :attr:`profiler`, one record per distinct
        candidate, and keep them as :attr:`records`."""
        self._checkpoint()
        rng = np.random.default_rng(self.seed)
        sample = self.space.sample(self.profile_budget, rng=rng)
        if self.transfer is not None:
            self.transfer_plan = self.transfer.plan(
                self.task, self.profile, full_budget=self.profile_budget
            )
        if self.transfer_plan is not None:
            plan = self.transfer_plan
            sample = plan.select(self.task, self.profile, sample, seed=self.seed)
            self._emit(
                "profiling",
                message=(
                    f"warm start: {len(plan.donors)} donor task(s), "
                    f"{len(plan.records)} records, "
                    f"budget {plan.full_budget}->{plan.budget}"
                ),
            )
        # Always include the baseline templates so the estimator sees the
        # regions the initial set starts from.  (They double as the
        # transfer anchor configs, so the warm path measures them too.)
        # A sampled config may equal a template: it is measured, fitted on
        # and counted once.
        sample.extend(TEMPLATES.values())
        configs = list(dict.fromkeys(c.canonical() for c in sample))
        profile_task = TaskSpec(
            dataset=self.task.dataset,
            arch=self.task.arch,
            platform=self.task.platform,
            epochs=self.profile_epochs,
            lr=self.task.lr,
            seed=self.task.seed,
            train_frac=self.task.train_frac,
            val_frac=self.task.val_frac,
        )
        try:
            self.records = self.profiler.profile(
                profile_task,
                configs,
                graph=self.graph,
                cancel=self.cancel,
                on_progress=self._on_profiling_progress,
            )
        finally:
            if self._owns_profiler:
                self.profiler.close()
        return self.records

    def fit_estimator(
        self, records: list[GroundTruthRecord] | None = None
    ) -> GrayBoxEstimator:
        """Fit the gray-box estimator on ``records``, or on
        :meth:`ground_truth` when no pre-collected ground truth is given."""
        self._checkpoint()
        if records is None:
            records = self.ground_truth()
        self.records = list(records)
        fit_records, weights = self.records, None
        if self.transfer_plan is not None:
            # Target records lead (the estimator reads the arch off the first
            # record) at unit weight; donors follow, similarity-decayed.
            fit_records = self.records + list(self.transfer_plan.records)
            weights = np.concatenate(
                [
                    np.ones(len(self.records)),
                    np.asarray(self.transfer_plan.weights, dtype=np.float64),
                ]
            )
        # A shared profiling service memoises fitted estimators across jobs;
        # a stand-alone navigator fits directly.
        fit = getattr(self.profiler, "fit_estimator", GrayBoxEstimator.fitted)
        self.estimator = fit(
            fit_records,
            weights,
            train_frac=self.task.train_frac,
            random_state=self.seed,
        )
        return self.estimator

    def explore(
        self,
        *,
        constraint: RuntimeConstraint | None = None,
        priorities: list[str] | None = None,
    ) -> NavigatorReport:
        """Step 2: exploration + decision making for each priority."""
        if self.estimator is None:
            self.fit_estimator()
        self._checkpoint()
        self._emit("exploring")
        explorer = DFSExplorer(self.space, self.estimator, self.profile, self.platform)
        result = explorer.explore(
            constraint=constraint,
            initial_candidates=list(TEMPLATES.values()),
        )
        decision = DecisionMaker(result)
        targets: list[ExploreTarget] = [
            get_target(p) for p in (priorities or sorted(PRIORITY_PRESETS))
        ]
        guidelines = decision.choose_all(targets)
        self._emit(
            "explored",
            best_objective=guidelines[targets[0].name].score,
            message=f"{result.evaluated} candidates evaluated",
        )
        report = NavigatorReport(
            task=self.task,
            guidelines=guidelines,
            exploration=result,
            num_ground_truth=len(self.records),
            profile=self.profile,
        )
        if self.transfer_plan is not None:
            report.extras["transfer"] = self.transfer_plan.summary()
        return report

    # ---------------------------------------------------------------- step 3
    def apply(self, guideline: Guideline | TrainingConfig) -> PerfReport:
        """Train with a guideline on the runtime backend; measured Perf."""
        self._checkpoint()
        self._emit("training")
        config = (
            guideline.config if isinstance(guideline, Guideline) else guideline
        )
        backend = RuntimeBackend(self.task, config, graph=self.graph)
        return backend.train()

    def navigate(
        self,
        *,
        constraint: RuntimeConstraint | None = None,
        priority: str = "balance",
    ) -> tuple[Guideline, PerfReport]:
        """One-call convenience: explore then train the chosen guideline."""
        report = self.explore(constraint=constraint, priorities=[priority])
        guideline = report.guidelines[get_target(priority).name]
        return guideline, self.apply(guideline)
