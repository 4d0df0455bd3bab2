"""Benchmark configuration.

Each bench regenerates one table/figure of the paper; the workloads are
whole experiments (minutes, not microseconds), so every bench runs exactly
once via ``benchmark.pedantic(..., rounds=1, iterations=1)`` and prints the
paper-shaped output.  Ground-truth profiling records persist in the shared
result store (``.cache/store/``, ``REPRO_STORE_DIR`` overrides; see
``repro.runtime.parallel.default_store_dir``), one file per candidate, so
benches that profile the same candidates share them.

``--quick`` runs every bench in smoke mode: the same code paths on a
fraction of the workload (fewer epochs, smaller budgets), with the
noise-sensitive performance assertions relaxed.  CI's bench-smoke job runs
``pytest benchmarks/bench_*.py --quick --benchmark-json=...`` so a bench
that bit-rots fails a PR even though the full runs are manual.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run benchmarks on reduced workloads with perf assertions "
        "relaxed (the CI bench-smoke mode)",
    )


@pytest.fixture()
def quick(request) -> bool:
    """Whether this bench run is the reduced CI smoke mode."""
    return request.config.getoption("--quick")


@pytest.fixture()
def run_once(benchmark):
    """Run a zero-argument callable exactly once under pytest-benchmark."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)

    return runner


@pytest.fixture()
def emit(capsys):
    """Print through pytest's capture so tables reach the terminal even
    without ``-s`` (the tee'd bench log must contain the paper tables)."""

    def _emit(*args, **kwargs):
        with capsys.disabled():
            print(*args, **kwargs)

    return _emit
