"""Shared fixtures: small deterministic graphs and tasks.

Also the runtime-lockdep hook-up: ``pytest --sanitize-report PATH`` runs
the session under :class:`repro.analysis.sanitizer.LockSanitizer`, writes
the observed lock graph to ``PATH`` and fails the session when the
sanitizer recorded any finding (order inversion, non-reentrant
re-acquire, sleep under a lock, a hold past the budget).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config.settings import TaskSpec, TrainingConfig
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import powerlaw_community_graph


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.getgroup("repro").addoption(
        "--sanitize-report",
        default=None,
        metavar="PATH",
        help="run under the repro lock sanitizer, write the observed lock "
        "graph to PATH and fail on any finding",
    )


@pytest.fixture(scope="session", autouse=True)
def lock_sanitizer(request: pytest.FixtureRequest):
    """Session-wide sanitizer when asked for; a no-op (zero overhead,
    nothing patched) otherwise."""
    report = request.config.getoption("--sanitize-report")
    if report is None:
        yield None
        return
    from repro.analysis.sanitizer import LockSanitizer

    san = LockSanitizer().enable()
    try:
        yield san
    finally:
        san.disable()
        san.write_report(report)
    lines = [f"  [{f.kind}] {f.message} at {f.site}" for f in san.findings]
    if lines:
        pytest.fail(
            f"lock sanitizer recorded {len(lines)} finding(s) (see {report}):\n"
            + "\n".join(lines),
            pytrace=False,
        )


@pytest.fixture(scope="session")
def small_graph() -> CSRGraph:
    """A 400-node labelled power-law community graph (fast to train on)."""
    return powerlaw_community_graph(
        400,
        num_classes=5,
        feature_dim=16,
        min_degree=3,
        max_degree=40,
        homophily=0.8,
        feature_noise=0.8,
        seed=7,
        name="tiny",
    )


@pytest.fixture(scope="session")
def medium_graph() -> CSRGraph:
    """A 2000-node graph for sampler/cache statistics tests."""
    return powerlaw_community_graph(
        2000,
        num_classes=8,
        feature_dim=24,
        min_degree=4,
        max_degree=100,
        homophily=0.7,
        feature_noise=1.5,
        seed=11,
        name="medium",
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(123)


@pytest.fixture()
def tiny_task() -> TaskSpec:
    return TaskSpec(dataset="tiny", arch="sage", epochs=2, lr=0.02)


@pytest.fixture()
def tiny_config() -> TrainingConfig:
    return TrainingConfig(
        batch_size=64,
        sampler="sage",
        hop_list=(4, 3),
        cache_ratio=0.2,
        cache_policy="static",
        hidden_channels=16,
    )
