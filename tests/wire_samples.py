"""Fixed instances of every domain object that crosses a boundary.

Each sample sets *every* field to a non-default value (``tests/test_wire.py``
fails when a field is added and its sample is not).  The payload cases of
``tests/data/wire_golden.json`` were produced by importing this module under
the commit before the field-driven codec and running that commit's
hand-written codec functions over these samples, so the module uses only
constructors both trees share.
"""

from __future__ import annotations

import hashlib
import json

import repro.runtime.parallel as parallel
from repro.config.settings import TaskSpec, TrainingConfig
from repro.estimator.graybox import PredictedPerf
from repro.explorer.decision import Guideline
from repro.explorer.dfs import ExplorationResult
from repro.explorer.navigator import NavigatorReport
from repro.graphs.profiling import GraphProfile
from repro.hardware.memory import MemoryBreakdown
from repro.runtime.profiler import GroundTruthRecord
from repro.runtime.report import EpochStats, PerfReport
from repro.serving.events import JobProgressEvent
from repro.serving.types import JobResult, JobSnapshot, JobStatus

#: the graph fingerprint the golden candidate key and store entry were made with.
FINGERPRINT = "0123456789abcdef0123456789abcdef"

TASK = TaskSpec(
    dataset="tiny",
    arch="gat",
    platform="a100",
    epochs=3,
    lr=0.02,
    seed=7,
    train_frac=0.5,
    val_frac=0.25,
    extra={"stays": "local"},  # compare=False: never crosses
)

CONFIG = TrainingConfig(
    batch_size=512,
    sampler="biased",
    hop_list=(8, 4, 2),
    bias_rate=0.25,
    batch_order="partition",
    cache_ratio=0.375,
    cache_policy="lru",
    hidden_channels=32,
    num_layers=3,
    heads=2,
    dropout=0.25,
    reorder="degree",
)

OTHER_CONFIG = TrainingConfig(batch_size=64, hop_list=(5,))

PROFILE = GraphProfile(
    name="tiny",
    num_nodes=300,
    num_edges=2400,
    feature_dim=12,
    num_classes=4,
    avg_degree=8.0,
    max_degree=30,
    degree_std=4.5,
    degree_skew=1.25,
    powerlaw_exponent=2.5,
    feature_bytes=14400,
    homophily=0.625,
    separability=0.375,
)

RECORD = GroundTruthRecord(
    config=CONFIG,
    task=TASK,
    graph_profile=PROFILE,
    time_s=0.015625,
    memory_bytes=1048576.0,
    accuracy=0.8125,
    mean_batch_nodes=180.5,
    mean_batch_edges=950.25,
    hit_rate=0.4375,
    t_sample=0.001,
    t_transfer=0.002,
    t_replace=0.0005,
    t_compute=0.004,
    num_batches=3,
)

PREDICTED = PredictedPerf(time_s=0.0125, memory_bytes=2097152.0, accuracy=0.75)

GUIDELINE = Guideline(
    priority="speed", config=CONFIG, predicted=PREDICTED, score=0.875, front_size=5
)

REPORT = NavigatorReport(
    task=TASK,
    guidelines={"speed": GUIDELINE},
    exploration=ExplorationResult(
        candidates=[CONFIG, OTHER_CONFIG],
        predictions=[PREDICTED, PredictedPerf(0.5, 4096.0, 0.5)],
        evaluated=40,
        stats={"dfs_s": 0.25, "levels": [1, 2, 3]},
    ),
    num_ground_truth=13,
    profile=PROFILE,
    extras={"transfer": {"donors": 2}},
)

PERF = PerfReport(
    time_s=0.03125,
    memory=MemoryBreakdown(model=1024.0, cache=2048.0, runtime=4096.0),
    accuracy=0.6875,
    epochs=[
        EpochStats(
            epoch=1,
            time_s=0.03125,
            t_sample=0.01,
            t_transfer=0.005,
            t_replace=0.0025,
            t_compute=0.0125,
            mean_batch_nodes=180.5,
            mean_batch_edges=950.25,
            hit_rate=0.4375,
            loss=1.25,
            val_accuracy=0.625,
            num_batches=3,
        )
    ],
    config_summary="batch=512 sampler=biased",
    task_summary="tiny+gat",
)

EVENT = JobProgressEvent(
    job_id="job-0003",
    phase="profiling",
    status="running",
    seq=6,
    batch_index=2,
    runs_done=5,
    runs_total=13,
    cache_hits=4,
    best_objective=0.0125,
    elapsed_s=1.5,
    message="batch 2 landed",
)


def _snapshot(job_id, status, error, traceback, tag, tenant, priority, *times):
    return JobSnapshot(
        job_id=job_id,
        status=status,
        error=error,
        traceback=traceback,
        tag=tag,
        tenant=tenant,
        priority=priority,
        submitted_at=times[0],
        started_at=times[1],
        finished_at=times[2],
    )


#: name -> instance; the names key the payload cases of the golden file.
SAMPLES = {
    "task": TASK,
    "config": CONFIG,
    "record": RECORD,
    "event": EVENT,
    "result_trained": JobResult(
        guidelines={"speed": GUIDELINE}, report=REPORT, perf=PERF
    ),
    "result_untrained": JobResult(
        guidelines={"speed": GUIDELINE},
        report=NavigatorReport(
            task=TASK,
            guidelines={"speed": GUIDELINE},
            exploration=ExplorationResult(candidates=[], predictions=[]),
            num_ground_truth=8,
        ),
    ),
    "snapshot_pending": _snapshot(
        "job-0001", JobStatus.PENDING, None, None, "", "", 0, 1.0, None, None
    ),
    "snapshot_running": _snapshot(
        "job-0003", JobStatus.RUNNING, None, None, "nightly", "team-a", 2,
        10.5, 11.25, None,
    ),
    "snapshot_done": _snapshot(
        "job-0002", JobStatus.DONE, None, None, "t", "team-b", -1, 1.0, 2.0, 3.0
    ),
    "snapshot_failed": _snapshot(
        "job-0004", JobStatus.FAILED, "boom", "Traceback...", "", "", 0,
        1.0, 2.0, 3.5,
    ),
    "snapshot_cancelled": _snapshot(
        "job-0005", JobStatus.CANCELLED, None, None, "t", "", 1, 1.0, None, 1.5
    ),
}


def key_with_kernel(task, config, fingerprint, kernel: str) -> str:
    """``candidate_key`` as it was computed while ``TrainingConfig`` had a
    ``kernel`` field: the same payload with ``"kernel"`` in the config."""
    from repro.wire import encode  # the module imports on pre-codec trees too

    payload = {
        "task": encode(task),
        "config": {**encode(config.canonical()), "kernel": kernel},
        "graph": fingerprint,
        "ground_truth_version": parallel.GROUND_TRUTH_VERSION,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]
