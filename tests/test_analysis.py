"""The static analysis pass: every rule has a triggering fixture and a
passing fixture, the baseline round-trips deterministically, and — the
self-check — the repository itself lints clean with an acyclic lock graph."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    default_baseline_path,
    default_paths,
    default_root,
    run_analysis,
)
from repro.analysis.baseline import (
    load_baseline,
    render_baseline,
    split_findings,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.core import Finding


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


# ------------------------------------------------------------------- LOCK002
class TestLockOrder:
    def test_cycle_detected(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading


            class Alpha:
                def __init__(self, beta: "Beta"):
                    self._lock = threading.Lock()
                    self.beta = beta

                def poke(self):
                    with self._lock:
                        self.beta.poke_back(self)

                def touch(self):
                    with self._lock:
                        pass


            class Beta:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke_back(self, alpha: Alpha):
                    with self._lock:
                        alpha.touch()
            """,
        )
        assert "LOCK002" in rules_fired(result)
        assert not result.graph.acyclic
        labels = {
            (edge.src.label, edge.dst.label) for edge in result.graph.edges
        }
        assert ("Alpha._lock", "Beta._lock") in labels
        assert ("Beta._lock", "Alpha._lock") in labels

    def test_consistent_order_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading


            class Outer:
                def __init__(self, inner: "Inner"):
                    self._lock = threading.Lock()
                    self.inner = inner

                def work(self):
                    with self._lock:
                        self.inner.bump()


            class Inner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._n += 1
            """,
        )
        assert result.findings == []
        assert result.graph.acyclic
        labels = {
            (edge.src.label, edge.dst.label) for edge in result.graph.edges
        }
        assert labels == {("Outer._lock", "Inner._lock")}
        order = [node.label for node in result.graph.topological_order()]
        assert order.index("Outer._lock") < order.index("Inner._lock")

    def test_reacquire_nonreentrant_lock_fires(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading


            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def _flush(self):
                    with self._lock:
                        pass

                def save(self):
                    with self._lock:
                        self._flush()
            """,
        )
        assert "LOCK002" in rules_fired(result)
        assert "re-acquired" in result.findings[0].message

    def test_reacquire_rlock_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading


            class Store:
                def __init__(self):
                    self._lock = threading.RLock()

                def _flush(self):
                    with self._lock:
                        pass

                def save(self):
                    with self._lock:
                        self._flush()
            """,
        )
        assert result.findings == []

    def test_graph_report_renders(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            import threading


            class Outer:
                def __init__(self, inner: "Inner"):
                    self._lock = threading.Lock()
                    self.inner = inner

                def work(self):
                    with self._lock:
                        self.inner.bump()


            class Inner:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    with self._lock:
                        pass
            """,
        )
        report = result.graph.render()
        assert "Outer._lock -> Inner._lock" in report
        assert "acyclic" in report


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


# ----------------------------------------------------------------- PLUMB001
class TestPlumbing:
    def test_dropped_seat_fires(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            def inner(task, cancel=None):
                return task

            def outer(task, cancel=None):
                return inner(task)
            """,
        )
        assert rules_fired(result) == {"PLUMB001"}
        assert "'cancel'" in result.findings[0].message

    def test_forwarded_seat_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            def inner(task, cancel=None, on_progress=None):
                return task

            def outer(task, cancel=None, on_progress=None):
                return inner(task, cancel=cancel, on_progress=on_progress)
            """,
        )
        assert result.findings == []

    def test_positional_forward_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            def inner(task, cancel=None):
                return task

            def outer(task, cancel=None):
                return inner(task, cancel)
            """,
        )
        assert result.findings == []

    def test_kwargs_splat_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            def inner(task, cancel=None):
                return task

            def outer(task, cancel=None, **kwargs):
                return inner(task, **kwargs)
            """,
        )
        assert result.findings == []

    def test_callee_without_seat_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            def inner(task):
                return task

            def outer(task, cancel=None):
                if cancel is not None:
                    cancel.raise_if_cancelled()
                return inner(task)
            """,
        )
        assert result.findings == []

    def test_method_seat_resolved_by_type(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            class Service:
                def profile(self, task, cancel=None):
                    return task

            class Facade:
                def __init__(self):
                    self.service = Service()

                def profile(self, task, cancel=None):
                    return self.service.profile(task)
            """,
        )
        assert rules_fired(result) == {"PLUMB001"}


# --------------------------------------------------------------- METRIC001/2
class TestMetricHygiene:
    def test_bad_name_and_kind_conflict_fire(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            class Service:
                def observe(self):
                    self.metrics.inc("BadName")
                    self.metrics.inc("requests")
                    self.metrics.gauge("requests", lambda: 0)
            """,
        )
        assert rules_fired(result) == {"METRIC001"}
        messages = " ".join(f.message for f in result.findings)
        assert "not snake_case" in messages
        assert "both a counter" in messages

    def test_duplicate_gauge_registration_fires(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            class Service:
                def bind_a(self):
                    self.metrics.gauge("depth", lambda: 1)

                def bind_b(self):
                    self.metrics.gauge("depth", lambda: 2)
            """,
        )
        assert rules_fired(result) == {"METRIC001"}
        assert "2 sites" in result.findings[0].message

    def test_label_mixing_and_leak_fire(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            def labeled(name, **labels):
                return name

            class Service:
                def observe(self, executor_id):
                    self.metrics.inc("claims")
                    self.metrics.inc(labeled("claims", executor=executor_id))
            """,
        )
        assert rules_fired(result) == {"METRIC002"}
        messages = " ".join(f.message for f in result.findings)
        assert "inconsistent label sets" in messages
        assert "never removed" in messages

    def test_removed_labeled_family_passes(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            def labeled(name, **labels):
                return name

            class Service:
                def observe(self, executor_id):
                    self.metrics.inc(labeled("claims", executor=executor_id))

                def forget(self, executor_id):
                    self.metrics.remove(
                        labeled("claims", executor=executor_id)
                    )
            """,
        )
        assert rules_fired(result) == set()

    def test_fstring_loop_family_resolved(self, tmp_path):
        # The f-string-over-constant-tuple idiom the server's gauge
        # binding uses must resolve to concrete names.
        result = analyze_source(
            tmp_path,
            """
            class Service:
                def bind(self):
                    for name in ("executed", "Hits"):
                        self.metrics.gauge(f"profiling_{name}", lambda: 0)
            """,
        )
        assert rules_fired(result) == {"METRIC001"}
        assert "profiling_Hits" in result.findings[0].message

    def test_dynamic_names_skipped(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            class Service:
                def observe(self, status):
                    self.metrics.inc(f"jobs_{status.value}")
            """,
        )
        assert rules_fired(result) == set()


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

    def test_unshutdown_pool_fires(self, tmp_path):
        result = analyze_source(
            tmp_path,
            """
            from concurrent.futures import ThreadPoolExecutor

            def run(fn):
                pool = ThreadPoolExecutor(max_workers=2)
                return pool.submit(fn)
            """,
        )
        assert rules_fired(result) == {"RES001"}
        assert "ThreadPoolExecutor" in result.findings[0].message

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


# ------------------------------------------------------------------ baseline
class TestBaseline:
    def _findings(self):
        return [
            Finding("b.py", 9, "LOCK001", "msg two"),
            Finding("a.py", 3, "PLUMB001", "msg one"),
        ]

    def test_render_is_deterministic(self):
        forward = render_baseline(self._findings())
        backward = render_baseline(list(reversed(self._findings())))
        assert forward == backward
        payload = json.loads(forward)
        assert [e["path"] for e in payload["findings"]] == ["a.py", "b.py"]

    def test_split_findings_partitions(self):
        findings = self._findings()
        baseline = json.loads(render_baseline(findings[:1]))
        accepted = {
            entry["fingerprint"]: entry for entry in baseline["findings"]
        }
        new, baselined, stale = split_findings(findings, accepted)
        assert [f.path for f in new] == ["a.py"]
        assert [f.path for f in baselined] == ["b.py"]
        assert stale == []

    def test_stale_entries_reported(self):
        baseline = json.loads(render_baseline(self._findings()))
        accepted = {
            entry["fingerprint"]: entry for entry in baseline["findings"]
        }
        new, baselined, stale = split_findings([], accepted)
        assert new == [] and baselined == []
        assert len(stale) == 2

    def test_fingerprint_survives_line_drift(self):
        moved = Finding("a.py", 300, "PLUMB001", "msg one")
        assert moved.fingerprint == self._findings()[1].fingerprint

    def test_fix_baseline_roundtrip(self, tmp_path, capsys):
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
        baseline = tmp_path / "baseline.json"
        args = [str(bad), "--root", str(tmp_path), "--baseline", str(baseline)]
        assert lint_main(args) == 1
        assert lint_main([*args, "--fix-baseline"]) == 0
        first = baseline.read_text(encoding="utf-8")
        assert lint_main(args) == 0  # baselined now
        assert lint_main([*args, "--fix-baseline"]) == 0
        assert baseline.read_text(encoding="utf-8") == first  # no churn
        capsys.readouterr()

    def test_load_baseline_missing_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}
        assert load_baseline(None) == {}


# ----------------------------------------------------------------------- CLI
class TestCli:
    def test_json_format(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n", encoding="utf-8")
        code = lint_main(
            [str(good), "--root", str(tmp_path), "--no-baseline",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["lock_order"]["acyclic"] is True

    def test_graph_artifact_written(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n", encoding="utf-8")
        graph = tmp_path / "out" / "graph.txt"
        code = lint_main(
            [str(good), "--root", str(tmp_path), "--no-baseline",
             "--graph", str(graph)]
        )
        assert code == 0
        assert "acyclic" in graph.read_text(encoding="utf-8")
        capsys.readouterr()

    def test_repro_cli_exposes_lint(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["lint", "--rules"])
        assert args.command == "lint"
        assert args.rules is True


# ---------------------------------------------------------------- self-check
class TestSelfCheck:
    @pytest.fixture(scope="class")
    def repo_result(self):
        root = default_root()
        return run_analysis(
            default_paths(root),
            root,
            baseline_path=default_baseline_path(root),
        )

    def test_repo_is_clean(self, repo_result):
        assert repo_result.new == [], [
            finding.render() for finding in repo_result.new
        ]

    def test_lock_graph_is_acyclic(self, repo_result):
        assert repo_result.graph.acyclic
        assert repo_result.graph.topological_order() is not None

    def test_known_edges_present(self, repo_result):
        labels = {
            (edge.src.label, edge.dst.label)
            for edge in repo_result.graph.edges
        }
        # The server cancels under its own lock and discards from the queue;
        # the shared scheduler bumps stats under its claim lock.
        assert ("NavigationServer._lock", "PriorityJobQueue._lock") in labels
        assert (
            "SharedProfilingService._lock",
            "ProfilingStats._lock",
        ) in labels
        # The fleet dispatcher touches registry liveness and releases
        # leases under its own lock; both are leaves, so the order stays
        # acyclic with the rest of the serving stack.
        assert (
            "FleetDispatcher._lock",
            "ExecutorRegistry._lock",
        ) in labels
        assert ("FleetDispatcher._lock", "LeaseTable._lock") in labels
        # The lease sweeper bumps expiry counters under the dispatcher
        # lock; the typed ``metrics`` parameter is what lets LOCK002
        # resolve the call (the runtime sanitizer observes this edge).
        assert (
            "FleetDispatcher._lock",
            "MetricsRegistry._lock",
        ) in labels

    def test_known_locks_modeled(self, repo_result):
        locks = {node.label for node in repo_result.graph.nodes}
        assert {
            "NavigationServer._lock",
            "PriorityJobQueue._lock",
            "EventBuffer._cond",
            "MetricsRegistry._lock",
            "ResultStore._lock",
            "SharedProfilingService._lock",
            "ProfilingStats._lock",
            "FleetDispatcher._lock",
            "ExecutorRegistry._lock",
            "LeaseTable._lock",
        } <= locks
