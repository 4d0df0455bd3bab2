"""The static analysis pass: every rule has a triggering fixture and a
passing fixture, the four unlocked reads LOCK001 found in the serving layer
when it landed are still caught, and — the self-check — the repository
itself lints clean."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import default_paths, default_root, run_analysis
from repro.analysis.cli import main as lint_main


def analyze_source(tmp_path: Path, source: str, name: str = "mod.py"):
    """Write one fixture module and run the full analysis over it."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_analysis([path], tmp_path)


def rules_fired(result) -> set[str]:
    return {finding.rule for finding in result.findings}


# ------------------------------------------------------------------- LOCK001
class TestGuardedFields:
    def test_unguarded_write_fires(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def bump(self):
                    self._n += 1
            """,
        )
        assert [f.rule for f in result.findings] == ["LOCK001"]
        assert "Counter._n" in result.findings[0].message

    def test_unguarded_read_fires(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def peek(self):
                    return self._n
            """,
        )
        assert rules_fired(result) == {"LOCK001"}

    def test_guarded_access_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._n += 1
                    return True
            """,
        )
        assert result.findings == []

    def test_condition_alias_satisfies_guard(self, tmp_path):
        # Holding Condition(self._lock) IS holding self._lock.
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)
                    self._item = None  # guarded-by: _lock

                def put(self, item):
                    with self._cond:
                        self._item = item
                        self._cond.notify()
            """,
        )
        assert result.findings == []

    def test_holds_annotation_trusts_helper(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = []  # guarded-by: _lock

                def _head(self):  # holds: _lock
                    return self._rows[0]

                def head(self):
                    with self._lock:
                        return self._head()
            """,
        )
        assert result.findings == []

    def test_nested_closure_inherits_held_lock(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = []  # guarded-by: _lock

                def snapshot(self):
                    with self._lock:
                        return [row for row in self._rows]
            """,
        )
        assert result.findings == []

    def test_inline_suppression(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def racy_peek(self):
                    return self._n  # lint: disable=LOCK001
            """,
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_a_field_guarded_by_two_locks_needs_both(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self._n = 0  # guarded-by: _a, _b

                def half(self):
                    with self._a:
                        self._n += 1

                def both(self):
                    with self._a, self._b:
                        self._n += 1
            """,
        )
        assert [f.rule for f in result.findings] == ["LOCK001"]
        assert "'_b'" in result.findings[0].message
        assert "Pair.half()" in result.findings[0].message

    def test_dataclass_field_lock_is_modeled(self, tmp_path):
        # A lock declared only as a class-level annotation (the dataclass
        # form) guards fields like one assigned in __init__.
        result = analyze_source(
            tmp_path,
            """
            import threading
            from dataclasses import dataclass, field

            @dataclass
            class Stats:
                _lock: threading.Lock = field(default_factory=threading.Lock)

                def reset(self):
                    with self._lock:
                        self._seen = set()  # guarded-by: _lock

                def bump(self, key):
                    with self._lock:
                        self._seen.add(key)

                def peek(self):
                    return len(self._seen)
            """,
        )
        assert [f.rule for f in result.findings] == ["LOCK001"]
        assert "Stats.peek()" in result.findings[0].message

    def test_suppression_names_the_rule_it_accepts(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading
            import time

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def any_rule(self):
                    return self._n  # lint: disable

                def other_rule(self):
                    return self._n  # lint: disable=LOCK003

                def nap(self):
                    with self._lock:
                        time.sleep(0.1)  # lint: disable=LOCK001, LOCK003
            """,
        )
        assert [(f.rule, f.line) for f in result.findings] == [("LOCK001", 14)]
        assert result.suppressed == 2

    def test_init_is_exempt(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock
                    self._n = 1
            """,
        )
        assert result.findings == []


class TestHistoricalTruePositives:
    """The four unlocked reads LOCK001 caught in the serving layer when it
    landed, reduced to their shapes; each must still fire."""

    def test_unlocked_jobs_read_in_a_get_lookup(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._jobs = {}  # guarded-by: _lock

                def _get(self, job_id):
                    try:
                        return self._jobs[job_id]
                    except KeyError:
                        raise LookupError(job_id) from None
            """,
        )
        assert [f.rule for f in result.findings] == ["LOCK001"]
        assert "Server._jobs" in result.findings[0].message
        assert "Server._get()" in result.findings[0].message

    def test_unlocked_jobs_read_in_a_worker_loop(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Server:
                def __init__(self, queue):
                    self._lock = threading.Lock()
                    self._terminal = threading.Condition(self._lock)
                    self._jobs = {}  # guarded-by: _lock
                    self.queue = queue

                def _worker_loop(self):
                    while True:
                        job_id = self.queue.pop()
                        if job_id is None:
                            return
                        job = self._jobs[job_id]
                        with self._terminal:
                            job.status = "running"
            """,
        )
        assert [f.rule for f in result.findings] == ["LOCK001"]
        assert "Server._worker_loop()" in result.findings[0].message

    def test_unlocked_closed_property(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Queue:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._not_empty = threading.Condition(self._lock)
                    self._closed = False  # guarded-by: _lock

                def close(self):
                    with self._not_empty:
                        self._closed = True
                        self._not_empty.notify_all()

                @property
                def closed(self):
                    return self._closed
            """,
        )
        assert [f.rule for f in result.findings] == ["LOCK001"]
        assert "Queue.closed()" in result.findings[0].message

    def test_unlocked_nbytes_and_len(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock
                    self._bytes = 0  # guarded-by: _lock

                def save(self, size):
                    with self._lock:
                        self._count += 1
                        self._bytes += size

                @property
                def nbytes(self):
                    return self._bytes

                def __len__(self):
                    return self._count
            """,
        )
        assert [f.rule for f in result.findings] == ["LOCK001", "LOCK001"]
        messages = " ".join(f.message for f in result.findings)
        assert "Store.nbytes()" in messages and "Store.__len__()" in messages


# ------------------------------------------------------------------- LOCK003
class TestBlockingUnderLock:
    def test_sleep_under_lock_fires(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading
            import time

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def spin(self):
                    with self._lock:
                        time.sleep(0.1)
            """,
        )
        assert rules_fired(result) == {"LOCK003"}
        assert "time.sleep" in result.findings[0].message

    def test_wait_without_timeout_under_lock_fires(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)

                def block(self):
                    with self._cond:
                        self._cond.wait()
            """,
        )
        assert rules_fired(result) == {"LOCK003"}

    def test_wait_for_without_timeout_under_lock_fires(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)
                    self._ready = False  # guarded-by: _lock

                def forever(self):
                    with self._cond:
                        self._cond.wait_for(lambda: self._ready)

                def bounded(self):
                    with self._cond:
                        return self._cond.wait_for(lambda: self._ready, 1.0)
            """,
        )
        assert [f.rule for f in result.findings] == ["LOCK003"]
        assert "Worker.forever()" in result.findings[0].message

    def test_subprocess_under_lock_fires(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import subprocess
            import threading

            class Runner:
                def __init__(self):
                    self._lock = threading.Lock()

                def run(self, argv):
                    with self._lock:
                        return subprocess.run(argv, check=True)
            """,
        )
        assert rules_fired(result) == {"LOCK003"}
        assert "'subprocess.run'" in result.findings[0].message

    def test_wait_with_timeout_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)

                def block(self):
                    with self._cond:
                        self._cond.wait(1.0)
            """,
        )
        assert result.findings == []

    def test_sleep_outside_lock_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading
            import time

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def spin(self):
                    with self._lock:
                        pass
                    time.sleep(0.1)
            """,
        )
        assert result.findings == []

    def test_profiling_call_under_lock_fires(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Scheduler:
                def __init__(self, service):
                    self._lock = threading.Lock()
                    self.service = service

                def run(self, task):
                    with self._lock:
                        return self.service.profile(task)
            """,
        )
        assert rules_fired(result) == {"LOCK003"}

    def test_step2_loop_training_under_lock_fires(self, tmp_path):
        # The shape of ``ProfilingService._execute``: it trains a class
        # inline through ``profile_class`` or collects a pool future; both
        # must stay outside the queue's lock.
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition(self._lock)

                def inline(self, task, members, prepared):
                    with self._cond:
                        return profile_class(task, members, prepared=prepared)

                def pooled(self, future):
                    with self._cond:
                        return future.result()

                def outside(self, task, members, future):
                    with self._cond:
                        self._cond.wait(0.1)
                        future.result(timeout=0.1)
                    profile_class(task, members)
                    return future.result()
            """,
        )
        assert [f.rule for f in result.findings] == ["LOCK003", "LOCK003"]
        messages = [f.message for f in result.findings]
        assert "'profile_class()'" in messages[0] and "Service.inline()" in messages[0]
        assert "'.result()'" in messages[1] and "Service.pooled()" in messages[1]


# -------------------------------------------------------------------- RES001
class TestResourceLifecycle:
    def test_unjoined_thread_fires(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Runner:
                def launch(self):
                    self._worker = threading.Thread(target=self._loop)
                    self._worker.start()
            """,
        )
        assert rules_fired(result) == {"RES001"}
        assert "without daemon=True" in result.findings[0].message

    def test_daemon_thread_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Runner:
                def launch(self):
                    self._worker = threading.Thread(
                        target=self._loop, daemon=True
                    )
                    self._worker.start()
            """,
        )
        assert rules_fired(result) == set()

    def test_joined_elsewhere_in_class_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading

            class Runner:
                def launch(self):
                    self._worker = threading.Thread(target=self._loop)
                    self._worker.start()

                def close(self):
                    self._worker.join()
            """,
        )
        assert rules_fired(result) == set()

    @pytest.mark.parametrize(
        "construct", ["multiprocessing.Process", "context.Process"]
    )
    def test_unjoined_process_fires_even_as_a_daemon(self, tmp_path, construct):
        result = analyze_source(
            tmp_path,
            f"""
            import multiprocessing

            class Worker:
                def spawn(self, target):
                    context = multiprocessing.get_context("spawn")
                    self.process = {construct}(target=target, daemon=True)
                    self.process.start()
            """,
        )
        assert rules_fired(result) == {"RES001"}
        assert "never reaped" in result.findings[0].message

    def test_process_joined_elsewhere_in_class_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import multiprocessing

            class Worker:
                def spawn(self, target):
                    context = multiprocessing.get_context("spawn")
                    self.process = context.Process(target=target, daemon=True)
                    self.process.start()

                def stop(self):
                    self.process.terminate()
                    self.process.join()
            """,
        )
        assert rules_fired(result) == set()

    @pytest.mark.parametrize("pool", ["ThreadPoolExecutor", "ProcessPoolExecutor"])
    def test_unshutdown_pool_fires(self, tmp_path, pool):
        result = analyze_source(
            tmp_path,
            f"""
            from concurrent.futures import {pool}

            def run(fn):
                pool = {pool}(max_workers=2)
                return pool.submit(fn)
            """,
        )
        assert rules_fired(result) == {"RES001"}
        assert pool in result.findings[0].message

    def test_pool_with_block_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            from concurrent.futures import ThreadPoolExecutor

            def run(fn):
                with ThreadPoolExecutor(max_workers=2) as pool:
                    return pool.submit(fn).result()
            """,
        )
        assert rules_fired(result) == set()

    def test_pool_shutdown_in_scope_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            from concurrent.futures import ThreadPoolExecutor

            def run(fn):
                pool = ThreadPoolExecutor(max_workers=2)
                try:
                    return pool.submit(fn).result()
                finally:
                    pool.shutdown()
            """,
        )
        assert rules_fired(result) == set()


# ----------------------------------------------------------------------- CLI
class TestCli:
    def test_json_format(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n", encoding="utf-8")
        code = lint_main([str(good), "--root", str(tmp_path), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []

    def test_any_finding_fails_the_run(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            textwrap.dedent(
                """
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._n = 0  # guarded-by: _lock

                    def bump(self):
                        self._n += 1
                """
            ),
            encoding="utf-8",
        )
        assert lint_main([str(bad), "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:10: LOCK001" in out
        assert "1 finding(s)" in out

    def test_rules_catalog_lists_the_kept_rules(self, capsys):
        assert lint_main(["--rules"]) == 0
        rules = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert rules == ["LOCK001", "LOCK003", "RES001"]

    def test_repro_cli_exposes_lint(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["lint", "--rules"])
        assert args.command == "lint"
        assert args.rules is True


# ---------------------------------------------------------------- self-check
def test_repo_is_clean():
    root = default_root()
    result = run_analysis(default_paths(root), root)
    assert result.findings == [], [f.render() for f in result.findings]
