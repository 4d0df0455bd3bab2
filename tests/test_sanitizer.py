"""Runtime lockdep (repro.analysis.sanitizer), the project's one lock-order
check: what it observes and flags, the session gate behind
``pytest --sanitize-report``, and a sanitized in-process server + HTTP +
fleet run that must observe every known lock-order edge with no finding.

Every sanitizer test builds its own :class:`LockSanitizer` and tears it
down in ``finally`` — instances nest, so these pass unchanged under the
session-wide sanitizer."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.sanitizer import (
    DEFAULT_HOLD_BUDGET,
    REPORT_VERSION,
    LockSanitizer,
    _TrackedLock,
)

_TESTS_DIR = str(Path(__file__).resolve().parent)
_SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def san():
    sanitizer = LockSanitizer(hold_budget=30.0, include=[_TESTS_DIR])
    sanitizer.enable()
    try:
        yield sanitizer
    finally:
        sanitizer.disable()


class _Pair:
    """Two named locks; the sanitizer labels them ``_Pair.a`` / ``_Pair.b``."""

    def __init__(self):
        self.a = threading.Lock()
        self.b = threading.Lock()


# -------------------------------------------------------------- observation
class TestObservation:
    def test_nested_acquire_records_edge(self, san):
        pair = _Pair()
        with pair.a:
            with pair.b:
                pass
        report = san.report()
        assert report["version"] == REPORT_VERSION
        labels = {lock["label"] for lock in report["locks"]}
        assert {"_Pair.a", "_Pair.b"} <= labels
        edges = {(e["src"], e["dst"]) for e in report["edges"]}
        assert ("_Pair.a", "_Pair.b") in edges
        assert report["findings"] == []

    def test_consistent_order_is_clean(self, san):
        pair = _Pair()
        for _ in range(3):
            with pair.a:
                with pair.b:
                    pass
        assert san.findings == []
        [edge] = san.report()["edges"]
        assert edge["count"] == 3

    def test_creation_site_and_acquire_stats(self, san):
        pair = _Pair()
        with pair.a:
            pass
        lock_a = next(
            lock for lock in san.report()["locks"]
            if lock["label"] == "_Pair.a"
        )
        assert lock_a["kind"] == "lock"
        assert lock_a["acquisitions"] == 1
        assert "test_sanitizer.py" in lock_a["site"]

    def test_contention_and_hold_time_are_measured(self, san):
        pair = _Pair()
        held, release = threading.Event(), threading.Event()

        def holder():
            with pair.a:
                held.set()
                release.wait(5)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(5)
        assert pair.a.acquire(blocking=False) is False
        threading.Timer(0.02, release.set).start()
        with pair.a:  # blocks until the holder lets go
            pass
        thread.join(5)
        assert not thread.is_alive()
        [lock] = [entry for entry in san.report()["locks"] if entry["label"] == "_Pair.a"]
        assert lock["contended"] == 2
        assert lock["max_hold_s"] >= 0.015
        assert san.findings == []

    def test_release_from_another_thread_is_legal(self, san):
        pair = _Pair()
        thread = threading.Thread(target=pair.a.acquire)
        thread.start()
        thread.join(5)
        assert pair.a.locked()
        pair.a.release()  # a Lock may be released by any thread
        with pair.a:
            pass
        assert san.findings == []

    def test_locks_outside_roots_stay_raw(self):
        sanitizer = LockSanitizer()  # repro package only — not tests/
        sanitizer.enable()
        try:
            lock = threading.Lock()
        finally:
            sanitizer.disable()
        assert not isinstance(lock, _TrackedLock)

    def test_stdlib_composites_stay_raw(self, san):
        # threading.Event() builds its Condition/Lock inside threading.py;
        # the sanitizer must not track (or mislabel) those internals.
        event = threading.Event()
        event.set()
        assert event.is_set()
        assert san.report()["locks"] == []


# ----------------------------------------------------------------- findings
class TestFindings:
    def test_inverted_order_in_fixture_thread_reported(self, san):
        pair = _Pair()
        with pair.a:
            with pair.b:
                pass

        def invert():
            with pair.b:
                with pair.a:
                    pass

        thread = threading.Thread(target=invert, name="inverter")
        thread.start()
        thread.join()
        kinds = [f.kind for f in san.findings]
        assert kinds == ["order-inversion"]
        finding = san.findings[0]
        assert "_Pair.a" in finding.message
        assert "_Pair.b" in finding.message
        assert finding.thread == "inverter"

    def test_inversion_through_a_chain_is_reported(self, san):
        class _Three:
            def __init__(self):
                self.a = threading.Lock()
                self.b = threading.Lock()
                self.c = threading.Lock()

        three = _Three()
        with three.a, three.b:
            pass
        with three.b, three.c:
            pass
        with three.c, three.a:  # a -> b -> c was seen: c -> a closes a cycle
            pass
        assert [f.kind for f in san.findings] == ["order-inversion"]
        assert "'_Three.a' acquired while holding '_Three.c'" in san.findings[0].message

    def test_reacquire_nonreentrant_reported(self, san):
        pair = _Pair()
        assert pair.a.acquire()
        try:
            # A timeout keeps the guaranteed self-deadlock bounded; the
            # sanitizer reports before delegating to the real lock.
            assert pair.a.acquire(timeout=0.05) is False
        finally:
            pair.a.release()
        kinds = [f.kind for f in san.findings]
        assert kinds == ["re-acquire"]

    def test_rlock_reentry_is_clean(self, san):
        class _Nest:
            def __init__(self):
                self.lock = threading.RLock()

        nest = _Nest()
        with nest.lock:
            with nest.lock:
                pass
        assert san.findings == []
        lock = next(
            entry for entry in san.report()["locks"]
            if entry["label"] == "_Nest.lock"
        )
        assert lock["kind"] == "rlock"

    def test_sleep_under_lock_reported(self, san):
        pair = _Pair()
        with pair.a:
            time.sleep(0.001)
        kinds = [f.kind for f in san.findings]
        assert kinds == ["blocking-sleep"]
        assert "_Pair.a" in san.findings[0].message

    def test_sleep_outside_lock_is_clean(self, san):
        time.sleep(0.001)
        assert san.findings == []

    def test_hold_budget_violation_reported(self):
        sanitizer = LockSanitizer(hold_budget=0.0, include=[_TESTS_DIR])
        sanitizer.enable()
        try:
            pair = _Pair()
            with pair.a:
                deadline = time.monotonic() + 0.005
                while time.monotonic() < deadline:  # busy: sleep is a finding
                    pass
        finally:
            sanitizer.disable()
        kinds = [f.kind for f in sanitizer.findings]
        assert kinds == ["hold-budget"]

    def test_findings_are_capped(self, san):
        pair = _Pair()
        with pair.a:
            for i in range(250):  # distinct messages: none deduplicates
                time.sleep(i * 1e-9)
        assert len(san.findings) == 200

    def test_findings_deduplicate(self, san):
        pair = _Pair()
        for _ in range(5):
            with pair.a:
                time.sleep(0.0)
        assert len(san.findings) == 1


# ---------------------------------------------------------------- condition
class TestCondition:
    def test_condition_wait_roundtrip(self, san):
        class _Box:
            def __init__(self):
                self.cond = threading.Condition()

        box = _Box()
        with box.cond:
            box.cond.wait(0.01)
            box.cond.notify_all()
        assert san.findings == []
        lock = next(
            entry for entry in san.report()["locks"]
            if entry["label"] == "_Box.cond"
        )
        assert lock["kind"] == "condition"
        assert lock["acquisitions"] >= 2  # entry + wait re-acquire

    def test_wait_on_a_reentrant_condition_keeps_its_depth(self, san):
        class _Box:
            def __init__(self):
                self.cond = threading.Condition()

        box = _Box()
        with box.cond:
            with box.cond:
                box.cond.wait(0.01)  # releases both levels, restores both
                assert box.cond._is_owned()
            assert box.cond._is_owned()
        assert not box.cond._is_owned()
        assert san.findings == []

    def test_condition_over_tracked_lock(self, san):
        class _Guard:
            def __init__(self):
                self.lock = threading.Lock()
                self.cond = threading.Condition(self.lock)

        guard = _Guard()
        with guard.cond:
            guard.cond.wait(0.01)
        with guard.lock:
            pass
        assert san.findings == []


# ---------------------------------------------------------------- lifecycle
class TestLifecycle:
    def test_enable_disable_restores_factories(self):
        before = (threading.Lock, threading.RLock, threading.Condition,
                  time.sleep)
        sanitizer = LockSanitizer(include=[_TESTS_DIR])
        sanitizer.enable()
        assert threading.Lock is not before[0]
        sanitizer.disable()
        after = (threading.Lock, threading.RLock, threading.Condition,
                 time.sleep)
        assert after == before

    def test_nested_sanitizers_restore_in_order(self):
        before = threading.Lock
        outer = LockSanitizer(include=[_TESTS_DIR])
        inner = LockSanitizer(include=[_TESTS_DIR])
        outer.enable()
        outer_factory = threading.Lock
        inner.enable()
        inner.disable()
        assert threading.Lock is outer_factory  # outer still in force
        outer.disable()
        assert threading.Lock is before

    def test_an_inner_sanitizer_tracks_what_it_saw_created(self):
        outer = LockSanitizer(include=[_TESTS_DIR]).enable()
        try:
            inner = LockSanitizer(include=[_TESTS_DIR]).enable()
            try:
                pair = _Pair()
                with pair.a, pair.b:
                    pass
            finally:
                inner.disable()
        finally:
            outer.disable()
        assert [(e["src"], e["dst"]) for e in inner.report()["edges"]] == [
            ("_Pair.a", "_Pair.b")
        ]
        assert outer.report()["locks"] == [] and outer.report()["edges"] == []

    def test_tracked_locks_survive_disable(self, san):
        pair = _Pair()
        san.disable()
        with pair.a:  # wrapper outlives the patch window; must still work
            pass
        san.enable()
        assert any(
            lock["label"] == "_Pair.a" for lock in san.report()["locks"]
        )


# ------------------------------------------------------------ report I/O
class TestReport:
    def test_write_report_is_the_observed_graph(self, san, tmp_path):
        pair = _Pair()
        with pair.a:
            with pair.b:
                pass
        payload = json.loads(san.write_report(tmp_path / "observed.json").read_text())
        assert payload["version"] == REPORT_VERSION
        assert payload["hold_budget_s"] == 30.0
        assert [(e["src"], e["dst"], e["count"]) for e in payload["edges"]] == [
            ("_Pair.a", "_Pair.b", 1)
        ]
        assert {lock["label"] for lock in payload["locks"]} == {"_Pair.a", "_Pair.b"}
        assert payload["findings"] == []

    def test_default_hold_budget(self):
        assert LockSanitizer().hold_budget == DEFAULT_HOLD_BUDGET == 5.0


# ------------------------------------------------------------ session gate
_GATE_TEST = """
from repro.runtime.parallel import ResultStore
from repro.serving.metrics import MetricsRegistry


def test_nested(tmp_path):
    metrics, store = MetricsRegistry(), ResultStore(tmp_path)
    with store._lock:
        with metrics._lock:
            pass
"""
_INVERSION = """
    with metrics._lock:
        with store._lock:
            pass
"""


@pytest.mark.parametrize("inverted", [False, True])
def test_sanitize_report_fails_the_session_on_a_finding(tmp_path, inverted):
    """``--sanitize-report`` writes the observed graph either way and turns
    a finding (here an order inversion between repro-created locks) into a
    failed session although every test passed."""
    test_file = tmp_path / "test_gate.py"
    test_file.write_text(_GATE_TEST + (_INVERSION if inverted else ""))
    shutil.copy(Path(_TESTS_DIR) / "conftest.py", tmp_path / "conftest.py")
    report = tmp_path / "observed.json"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), str(test_file),
         "--sanitize-report", str(report)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": _SRC_DIR},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "1 passed" in run.stdout, run.stdout + run.stderr
    payload = json.loads(report.read_text())
    assert ("ResultStore._lock", "MetricsRegistry._lock") in {
        (e["src"], e["dst"]) for e in payload["edges"]
    }
    kinds = [f["kind"] for f in payload["findings"]]
    if inverted:
        assert kinds == ["order-inversion"]
        assert run.returncode == 1
        assert "lock sanitizer recorded 1 finding(s)" in run.stdout
    else:
        assert kinds == []
        assert run.returncode == 0
