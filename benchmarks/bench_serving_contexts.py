"""Serving layer — the explore-stage feature memo under a multi-dataset mix.

A warm served job's explore reads its four model-free feature tables from
the memo of the space's joined columns (``ConfigColumns.memo``, keyed by
graph profile and platform, ``MEMO_ENTRIES`` keys, least recently used
first out; ``DESIGN.md`` *The explore stage*).  The perf ledger's served
workload asks for one dataset, so every warm job hits there.  This bench
runs the mixes where that may fail: one server, a warm store, and jobs for
several datasets in a fixed order —

* one dataset, and ``MEMO_ENTRIES`` datasets in turn: each dataset builds
  its tables once;
* ``MEMO_ENTRIES + 1`` datasets in turn: every job misses (a cycle longer
  than the bound defeats least-recently-used), which costs what a job paid
  before the memo;
* one hot dataset between ``MEMO_ENTRIES`` cold ones: the hot one stays.

It prints the hit share and median wall of each mix's warm jobs (those
after a dataset's first), and asserts the table builds each mix must make.
"""

from __future__ import annotations

import statistics
import time
from unittest import mock

from repro.config.columns import MEMO_ENTRIES
from repro.config.settings import TaskSpec
from repro.config.space import DesignSpace, default_space
from repro.estimator import graybox
from repro.graphs.generators import powerlaw_community_graph
from repro.serving import NavigationRequest, NavigationServer

DATASETS = [f"contexts-{k}" for k in range(MEMO_ENTRIES + 1)]


def _graph(name: str, seed: int, quick: bool):
    return powerlaw_community_graph(
        400 if quick else 1500,
        num_classes=6,
        feature_dim=24,
        min_degree=3,
        max_degree=80,
        homophily=0.6,
        feature_noise=2.0,
        seed=seed,
        name=name,
    )


def _request(name: str, quick: bool) -> NavigationRequest:
    return NavigationRequest(
        task=TaskSpec(dataset=name, arch="sage", epochs=1 if quick else 2),
        priorities=("balance",),
        budget=8,
        profile_epochs=1 if quick else 2,
    )


def _mixes(rounds: int) -> dict[str, tuple[list[int], int]]:
    """Each mix: the order of its jobs' datasets, and the feature-table
    builds it must make on a cold memo."""
    cold = list(range(1, MEMO_ENTRIES + 1))
    in_turn = list(range(MEMO_ENTRIES))
    past = list(range(MEMO_ENTRIES + 1))
    return {
        "1 dataset": ([0] * rounds * MEMO_ENTRIES, 1),
        f"{MEMO_ENTRIES} in turn": (in_turn * rounds, MEMO_ENTRIES),
        f"{MEMO_ENTRIES + 1} in turn": (past * rounds, (MEMO_ENTRIES + 1) * rounds),
        f"hot + {MEMO_ENTRIES} cold": (
            [k for c in cold for k in (0, c)] * rounds,
            1 + MEMO_ENTRIES * rounds,
        ),
    }


def test_feature_memo_under_a_multi_dataset_mix(run_once, emit, tmp_path, quick):
    graphs = {name: _graph(name, 10 + k, quick) for k, name in enumerate(DATASETS)}
    store = str(tmp_path / "store")

    def serve(space, order):
        """Walls of the warm jobs of ``order`` (a dataset's first fits the
        server's estimator), run one at a time on one server."""
        server = NavigationServer(
            workers=1, profile_workers=0, cache_dir=store, graphs=graphs, space=space
        )
        walls = []
        try:
            for i, k in enumerate(order):
                t0 = time.perf_counter()
                server.result(server.submit(_request(DATASETS[k], quick)), timeout=300)
                if k in order[:i]:
                    walls.append(time.perf_counter() - t0)
        finally:
            server.stop()
        return walls

    # prime the store: each dataset's Step 2 trains once
    run_once(lambda: serve(default_space(), range(len(DATASETS))))
    emit()
    emit(f"feature memo, {MEMO_ENTRIES} keys, default_space(), warm store")
    emit(f"{'mix':>16}  {'warm jobs':>9}  {'hit share':>9}  {'job ms p50':>10}")
    for name, (order, builds) in _mixes(2 if quick else 5).items():
        # an equal but new space: its columns and their memos start cold
        space = DesignSpace(dict(default_space().domains))
        with mock.patch.object(
            graybox, "_feature_tables", wraps=graybox._feature_tables
        ) as built:
            walls = serve(space, order)
        # a dataset's first job misses by construction
        warm = len(order) - len(set(order))
        hits = warm - (built.call_count - len(set(order)))
        emit(
            f"{name:>16}  {warm:>9}  {hits / warm:>9.3f}  "
            f"{statistics.median(walls) * 1e3:>10.1f}"
        )
        assert built.call_count == builds, name
