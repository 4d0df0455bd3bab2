"""End-to-end smoke suite (``pytest -m smoke``) — the CI smoke job.

These are the serving, network and cancellation smokes that used to live as
copy-pasted shell steps in ``.github/workflows/ci.yml``, rewritten as
pytest tests so they run identically locally and in CI.  They use the real
synthetic datasets (not the tiny fixtures) and real subprocesses for the
network cases, so they are deliberately heavier than the unit suite —
``pytest.ini`` deselects them from a bare ``pytest`` run.

Run them with::

    PYTHONPATH=src python -m pytest -m smoke -q
"""

from __future__ import annotations

import json
import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cli
from repro.config import TaskSpec
from repro.serving import (
    JobStatus,
    NavigationClient,
    NavigationRequest,
    NavigationServer,
)
from repro.serving.fleet import FleetClient
from repro.serving.transport import RemoteNavigationClient
from repro.wire import encode

pytestmark = pytest.mark.smoke

REPO_ROOT = Path(__file__).resolve().parents[1]

#: the standard smoke workload: real dataset, minimum budget, one epoch.
SMOKE_SPEC = {
    "dataset": "ogbn-arxiv",
    "arch": "sage",
    "epochs": 1,
    "budget": 8,
    "profile_epochs": 1,
}


def _smoke_args(*extra: str) -> list[str]:
    return [
        "--dataset", "ogbn-arxiv", "--epochs", "1",
        "--budget", "8", "--profile-epochs", "1", *extra,
    ]


@pytest.fixture()
def jobs_file(tmp_path) -> str:
    path = tmp_path / "jobs.json"
    path.write_text(
        json.dumps(
            [
                SMOKE_SPEC,
                {**SMOKE_SPEC, "priorities": ["ex_tm"], "priority": 2},
            ]
        )
    )
    return str(path)


def _spawn(args: list[str]) -> subprocess.Popen:
    """Launch one repro CLI child with src/ on its import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        args,
        cwd=str(REPO_ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )


def _await_banner(proc: subprocess.Popen, pattern: bytes) -> str:
    """First regex group of ``pattern`` from the child's output.

    select + bounded os.read: a child that hangs *before* printing the
    banner must trip this 60s deadline with a diagnostic, not park the
    test on readline() until the CI job timeout kills it.
    """
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + 60
    seen = b""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.1)
        if ready:
            chunk = os.read(fd, 65536)
            if chunk:
                seen += chunk
                match = re.search(pattern, seen)
                if match:
                    return match.group(1).decode()
                continue
        if proc.poll() is not None:
            break
    raise AssertionError(f"child never printed its banner (output: {seen!r})")


class _Child:
    """Shared lifecycle for the smoke suite's repro child processes."""

    proc: subprocess.Popen

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover — last resort
            self.proc.kill()
            self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _Server(_Child):
    """A real ``repro serve --port`` child process (the two-process smoke)."""

    def __init__(self, store: str | None, *extra: str) -> None:
        args = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        args += ["--cache-dir", store] if store else ["--no-store"]
        args += list(extra)
        self.proc = _spawn(args)
        self.url = _await_banner(self.proc, rb"serving on (http://\S+)")


class _Executor(_Child):
    """A real ``repro executor`` child joined to a server over HTTP."""

    def __init__(self, server_url: str, *extra: str) -> None:
        args = [
            sys.executable, "-m", "repro.cli", "executor",
            "--server", server_url, *extra,
        ]
        self.proc = _spawn(args)
        self.executor_id = _await_banner(self.proc, rb"executor (\S+) joined")

    def kill(self) -> None:
        """SIGKILL — the chaos path: no deregistration, no final commit."""
        self.proc.kill()
        self.proc.wait()


def _run_cli(capsys, *argv: str) -> tuple[int, str]:
    """One in-process CLI invocation; returns (exit code, stdout)."""
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


# -------------------------------------------------------------- serving smoke
def test_serving_smoke_warm_store_runs_nothing(jobs_file, tmp_path, capsys):
    """``repro serve`` over a job file; the warm rerun is all cache hits."""
    store = str(tmp_path / "store")
    code, out = _run_cli(
        capsys, "serve", "--jobs", jobs_file, "--cache-dir", store
    )
    assert code == 0, out
    assert out.count("done") >= 2

    code, out = _run_cli(
        capsys, "serve", "--jobs", jobs_file, "--cache-dir", store
    )
    assert code == 0, out
    assert "profiling: 0 runs" in out, out


# -------------------------------------------------------------- network smoke
def test_network_smoke_remote_submit_and_warm_restart(tmp_path, capsys):
    """Two-process smoke: submit over HTTP, DONE results, then a server
    restart on the same store profiles nothing at all."""
    store = str(tmp_path / "net-store")
    with _Server(store) as server:
        code, out = _run_cli(
            capsys,
            "submit", "--server", server.url,
            *_smoke_args("--wait", "--timeout", "600"),
        )
        assert code == 0 and "job-0000 [done]" in out, out
        code, out = _run_cli(
            capsys,
            "submit", "--server", server.url,
            *_smoke_args("--priority", "ex_tm", "--wait", "--timeout", "600"),
        )
        assert code == 0 and "job-0001 [done]" in out, out
        code, out = _run_cli(capsys, "stats", "--server", server.url)
        assert code == 0 and "profiling:" in out and " trainings)" in out, out

    # warm restart: a fresh process on the same store must profile nothing
    with _Server(store) as server:
        code, out = _run_cli(
            capsys,
            "submit", "--server", server.url,
            *_smoke_args("--wait", "--timeout", "600"),
        )
        assert code == 0 and "[done]" in out, out
        code, out = _run_cli(capsys, "stats", "--server", server.url)
        assert code == 0
        assert "profiling: 0 runs (0 trainings)" in out, out


def test_follow_job_over_http_with_watch(capsys):
    """Follow-a-job smoke: ``submit --follow`` streams live progress lines
    and ``repro watch`` replays the finished job's whole event stream."""
    with _Server(None) as server:
        code, out = _run_cli(
            capsys,
            "submit", "--server", server.url, *_smoke_args("--follow"),
        )
        assert code == 0, out
        assert "submitted job-0000" in out
        # live progress lines arrived before the outcome line
        assert re.search(r"\[running\] profiling \d+/\d+ runs", out), out
        assert "[done] done" in out
        # the stream ends, then the outcome line closes the output
        assert "job-0000 [done]" in out.rstrip().splitlines()[-1]

        # a late watcher replays the identical stream from seq 0
        code, out = _run_cli(
            capsys, "watch", "job-0000", "--server", server.url
        )
        assert code == 0, out
        assert out.splitlines()[0].startswith("  #0 job-0000 [pending] queued")
        assert out.rstrip().splitlines()[-1].split()[1] == "job-0000"
        assert "[done] done" in out

        # metrics endpoint is live and consistent with the one job served
        code, out = _run_cli(capsys, "metrics", "--server", server.url)
        assert code == 0
        assert re.search(r"jobs_done\s+1", out), out


# --------------------------------------------------------- cancellation smoke
def test_cancellation_smoke_running_job(capsys):
    """Cancel one RUNNING job; survivors finish; no orphaned claims."""
    task = TaskSpec(dataset="ogbn-arxiv", arch="sage", epochs=1)

    def request(seed: int) -> NavigationRequest:
        return NavigationRequest(
            task=task, budget=8, profile_epochs=1, seed=seed
        )

    with NavigationServer(workers=1, cache_dir=None) as server:
        victim = server.submit(request(0))
        survivors = [server.submit(request(seed)) for seed in (1, 2)]
        deadline = time.monotonic() + 120
        while True:
            status = server.status(victim)
            if status is JobStatus.RUNNING:
                break
            assert status is JobStatus.PENDING, (
                f"victim went terminal before it could be cancelled: "
                f"{server.job(victim).describe()}"
            )
            assert time.monotonic() < deadline, "victim never started"
            time.sleep(0.01)
        assert server.cancel(victim), "cancel() on a RUNNING job must take"
        server.drain(timeout=600)

    assert server.status(victim) is JobStatus.CANCELLED
    assert all(
        server.status(job_id) is JobStatus.DONE for job_id in survivors
    )
    assert server.profiler.service._queue == {}, (
        f"orphaned queued keys: {server.profiler.service._queue}"
    )
    # the victim's event stream ends with its cancellation
    batch = server.events(victim, timeout=0)
    assert batch.done and batch.events[-1].phase == "cancelled"


# ----------------------------------------------------------------- fleet smoke
def test_fleet_smoke_remote_executor_matches_inprocess(tmp_path, capsys):
    """Two-process fleet smoke: a server plus one remote ``repro executor``
    over HTTP produces a bit-identical result to the purely in-process
    path, and a warm restart on the same store — executor attached —
    executes zero training runs anywhere."""
    task = TaskSpec(**{
        k: SMOKE_SPEC[k] for k in ("dataset", "arch", "epochs")
    })

    # the in-process yardstick (its own throwaway store)
    with NavigationServer(
        workers=1, cache_dir=str(tmp_path / "local-store")
    ) as local:
        baseline = NavigationClient(local).navigate(
            task, budget=8, profile_epochs=1, timeout=600
        )

    store = str(tmp_path / "fleet-store")
    with _Server(store, "--workers", "2", "--lease-ttl", "5") as server:
        with _Executor(server.url, "--workers", "2") as executor:
            result = RemoteNavigationClient(server.url).navigate(
                task, budget=8, profile_epochs=1, timeout=600
            )
            assert encode(result) == encode(baseline)
            # the fleet really did the work, visible per executor
            code, out = _run_cli(capsys, "metrics", "--server", server.url)
            assert code == 0
            assert re.search(r"fleet_claims\s+[1-9]", out), out
            assert re.search(r"fleet_commits\s+[1-9]", out), out
            assert f'fleet_claims{{executor="{executor.executor_id}"}}' in out
            code, out = _run_cli(capsys, "fleet", "status",
                                 "--server", server.url)
            assert code == 0 and executor.executor_id in out, out

    # warm restart on the same store, fleet attached: all cache hits, so
    # neither the server nor the executor runs a single candidate
    with _Server(store, "--workers", "2", "--lease-ttl", "5") as server:
        with _Executor(server.url, "--workers", "2"):
            again = RemoteNavigationClient(server.url).navigate(
                task, budget=8, profile_epochs=1, timeout=600
            )
            assert encode(again) == encode(baseline)
            code, out = _run_cli(capsys, "stats", "--server", server.url)
            assert code == 0
            assert "profiling: 0 runs" in out, out


def test_fleet_chaos_smoke_sigkill_mid_job(tmp_path, capsys):
    """Chaos smoke: SIGKILL one of two remote executors while it holds a
    lease; the job still completes and the re-issued lease is observable
    in the server's metrics."""
    task = TaskSpec(**{
        k: SMOKE_SPEC[k] for k in ("dataset", "arch", "epochs")
    })
    store = str(tmp_path / "chaos-store")
    # No local workers on the server: they would lease from the same queue
    # as the executors, so the dead executor's lease could go to them.
    with _Server(store, "--lease-ttl", "2") as server:
        with _Executor(
            server.url, "--workers", "1", "--max-candidates", "2"
        ) as victim, _Executor(server.url, "--workers", "2") as survivor:
            client = RemoteNavigationClient(server.url)
            handle = client.submit(task, budget=8, profile_epochs=1)

            # kill the victim the moment it holds an uncommitted lease
            fleet = FleetClient(server.url)
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                rows = {
                    row["executor_id"]: row
                    for row in fleet.fleet_status().executors
                }
                mine = rows.get(victim.executor_id)
                if mine is not None and mine["leased_keys"] > 0:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("victim never claimed a lease")
            victim.kill()

            result = handle.result(timeout=600)
            assert result.report.num_ground_truth > 0
            assert survivor.executor_id  # still up

        code, out = _run_cli(capsys, "metrics", "--server", server.url)
        assert code == 0
        assert re.search(r"fleet_lease_expiries\s+[1-9]", out), out
        # the dead executor's lease went back to the fleet, not local: the
        # server itself trained nothing
        assert re.search(r"^profiling_trainings\s+0$", out, re.M), out
