"""Runtime lockdep: observe what threads actually acquire.

This is the project's one lock-order check.  While enabled it replaces
the ``threading.Lock`` / ``RLock`` / ``Condition`` factories with
wrappers that keep a per-thread stack of held locks and record every
nested acquisition as an edge of an **observed** lock-order graph — each
edge with its first acquisition site and a count, plus per-lock
acquisition / contention / max-hold statistics.  It also flags, live:

* **order inversions** — acquiring ``B`` while holding ``A`` after the
  opposite order ``B -> .. -> A`` was already observed (a potential
  deadlock, caught even when the two orders never race in this run);
* **re-acquisition** of a non-reentrant lock the thread already holds
  (guaranteed self-deadlock);
* **blocking calls** (``time.sleep``) made while holding a tracked lock;
* **hold-budget** violations — a lock held longer than ``hold_budget``
  seconds (default :data:`DEFAULT_HOLD_BUDGET`).

Zero overhead when off: enabling swaps module attributes on
:mod:`threading`; while disabled no wrapper exists anywhere — not even a
conditional — on the lock hot path.  Only locks created *directly* by
code under the configured roots (default: the ``repro`` package) are
tracked, so stdlib internals (``concurrent.futures``, ``queue``,
``threading.Event``…) and test scaffolding stay raw.

The test suite's ``pytest --sanitize-report PATH`` runs the session under
one sanitizer, writes the observed graph to ``PATH`` and fails the
session on any finding.
"""

from __future__ import annotations

import json
import linecache
import os
import re
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "REPORT_VERSION",
    "LockSanitizer",
    "SanitizerFinding",
]

REPORT_VERSION = 1
#: seconds a tracked lock may be held before it is a finding.
DEFAULT_HOLD_BUDGET = 5.0

#: real primitives, captured before any sanitizer can patch them.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock
_REAL_CONDITION = threading.Condition
_REAL_SLEEP = time.sleep

_THIS_FILE = os.path.abspath(__file__)
_THREADING_FILE = os.path.abspath(threading.__file__)
#: the ``repro`` package directory — the default tracking root.
_PACKAGE_ROOT = str(Path(__file__).resolve().parents[1])
_REPO_ROOT = str(Path(__file__).resolve().parents[3])

#: ``self.X = threading.Lock()`` on the creation line -> attribute name.
_ASSIGN_RE = re.compile(r"(?:self|cls)\.([A-Za-z_]\w*)\s*(?::[^=]*)?=")

#: findings cap — a pathological loop must not balloon the report.
_MAX_FINDINGS = 200


def _relsite(filename: str, lineno: int) -> str:
    try:
        rel = os.path.relpath(filename, _REPO_ROOT)
    except ValueError:  # different drive (windows)
        rel = filename
    if rel.startswith(".."):
        rel = filename
    return f"{rel.replace(os.sep, '/')}:{lineno}"


@dataclass(frozen=True)
class SanitizerFinding:
    """One runtime violation (kind, message, site, reporting thread)."""

    kind: str  # order-inversion | re-acquire | blocking-sleep | hold-budget
    message: str
    site: str
    thread: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "site": self.site,
            "thread": self.thread,
        }


class _Held:
    """One entry of a thread's held-lock stack."""

    __slots__ = ("lock", "acquired_at", "site", "depth")

    def __init__(self, lock: "_TrackedLock", acquired_at: float, site: str):
        self.lock = lock
        self.acquired_at = acquired_at
        self.site = site
        self.depth = 1


class _TrackedLock:
    """Wrapper around a real lock that reports to one sanitizer.

    Implements the full ``threading.Condition`` owner protocol
    (``_is_owned`` / ``_release_save`` / ``_acquire_restore``) so a
    ``Condition`` built over a tracked lock keeps the held-stack
    bookkeeping consistent across ``wait()``.
    """

    __slots__ = ("_san", "label", "kind", "reentrant", "_real")

    def __init__(self, san, label, kind, reentrant, real):
        self._san = san
        self.label = label
        self.kind = kind  # "lock" | "rlock" | "condition"
        self.reentrant = reentrant
        self._real = real

    def acquire(self, blocking=True, timeout=-1):
        return self._san._acquire(self, blocking, timeout)

    def release(self):
        self._san._release(self)

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info):
        self.release()

    def locked(self):
        return self._real.locked()

    def __repr__(self):
        return f"<sanitized {self.kind} {self.label!r} wrapping {self._real!r}>"

    # -------------------------------------------- Condition owner protocol
    def _is_owned(self):
        return any(e.lock is self for e in self._san._stack())

    def _release_save(self):
        return self._san._release_save(self)

    def _acquire_restore(self, saved):
        self._san._acquire_restore(self, saved)


class LockSanitizer:
    """Observes lock usage while enabled; see the module docstring.

    ``include`` adds extra directory roots whose lock creations are
    tracked (the ``repro`` package is always tracked); everything else
    stays raw.  Instances nest: ``enable()`` remembers the factories it
    replaced and ``disable()`` restores exactly those, so a test can run
    its own sanitizer under a session-wide one.
    """

    def __init__(self, *, hold_budget: float = DEFAULT_HOLD_BUDGET, include=()):
        self.hold_budget = float(hold_budget)
        self._roots = [_PACKAGE_ROOT] + [
            str(Path(p).resolve()) for p in include
        ]
        self._state = _REAL_LOCK()  # leaf: never user code under it
        self._tls = threading.local()
        #: label -> {"kind", "locks", "acquisitions", "contended", "max_hold_s"}
        self._locks: dict[str, dict] = {}
        #: (src, dst) -> {"count", "site"}
        self._edges: dict[tuple[str, str], dict] = {}
        self._adjacency: dict[str, set[str]] = {}
        self._findings: list[SanitizerFinding] = []
        self._finding_keys: set[tuple[str, str]] = set()
        self._prev: tuple | None = None
        self.enabled = False

    # ------------------------------------------------------------ lifecycle
    def enable(self) -> "LockSanitizer":
        if self.enabled:
            return self
        self._prev = (
            threading.Lock,
            threading.RLock,
            threading.Condition,
            time.sleep,
        )
        threading.Lock = self._make_lock
        threading.RLock = self._make_rlock
        threading.Condition = self._make_condition
        time.sleep = self._sleep
        self.enabled = True
        return self

    def disable(self) -> None:
        if not self.enabled:
            return
        (
            threading.Lock,
            threading.RLock,
            threading.Condition,
            time.sleep,
        ) = self._prev
        self._prev = None
        self.enabled = False

    # ------------------------------------------------------------ factories
    def _creation_frame(self):
        """The frame that called the patched factory, or ``None`` when the
        creation is indirect (stdlib composites like ``threading.Event``)
        or outside every tracked root."""
        frame = sys._getframe(2)
        if frame is None:
            return None
        filename = os.path.abspath(frame.f_code.co_filename)
        if filename in (_THIS_FILE, _THREADING_FILE):
            return None
        if not any(filename.startswith(root) for root in self._roots):
            return None
        return frame

    def _label(self, frame) -> tuple[str, str]:
        filename = frame.f_code.co_filename
        lineno = frame.f_lineno
        site = _relsite(filename, lineno)
        line = linecache.getline(filename, lineno)
        match = _ASSIGN_RE.search(line)
        if match is not None:
            attr = match.group(1)
            self_obj = frame.f_locals.get("self")
            if self_obj is not None:
                return f"{type(self_obj).__name__}.{attr}", site
            return attr, site
        return f"<{os.path.basename(filename)}:{lineno}>", site

    def _register(self, lock: _TrackedLock, site: str) -> _TrackedLock:
        with self._state:
            stats = self._locks.setdefault(
                lock.label,
                {
                    "kind": lock.kind,
                    "site": site,
                    "locks": 0,
                    "acquisitions": 0,
                    "contended": 0,
                    "max_hold_s": 0.0,
                },
            )
            stats["locks"] += 1
        return lock

    def _make_lock(self):
        frame = self._creation_frame()
        if frame is None:
            return _REAL_LOCK()
        label, site = self._label(frame)
        return self._register(
            _TrackedLock(self, label, "lock", False, _REAL_LOCK()), site
        )

    def _make_rlock(self):
        frame = self._creation_frame()
        if frame is None:
            return _REAL_RLOCK()
        label, site = self._label(frame)
        return self._register(
            _TrackedLock(self, label, "rlock", True, _REAL_RLOCK()), site
        )

    def _make_condition(self, lock=None):
        if lock is None:
            frame = self._creation_frame()
            if frame is None:
                return _REAL_CONDITION()
            label, site = self._label(frame)
            lock = self._register(
                _TrackedLock(self, label, "condition", True, _REAL_RLOCK()),
                site,
            )
        return _REAL_CONDITION(lock)

    # -------------------------------------------------------- acquire paths
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _call_site(self) -> str:
        frame = sys._getframe(2)
        while frame is not None:
            filename = os.path.abspath(frame.f_code.co_filename)
            if filename not in (_THIS_FILE, _THREADING_FILE):
                return _relsite(frame.f_code.co_filename, frame.f_lineno)
            frame = frame.f_back
        return "<unknown>"

    def _record_finding(self, kind: str, message: str, site: str) -> None:
        finding = SanitizerFinding(
            kind=kind,
            message=message,
            site=site,
            thread=threading.current_thread().name,
        )
        with self._state:
            key = (kind, message)
            if key in self._finding_keys:
                return
            if len(self._findings) >= _MAX_FINDINGS:
                return
            self._finding_keys.add(key)
            self._findings.append(finding)

    def _reachable_locked(self, src: str, dst: str) -> bool:
        """Whether ``dst`` is reachable from ``src`` in the observed graph."""
        seen = {src}
        frontier = [src]
        while frontier:
            node = frontier.pop()
            for nxt in self._adjacency.get(node, ()):
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def _note_edges(self, stack: list, lock: _TrackedLock, site: str) -> None:
        if not stack:
            with self._state:
                self._locks[lock.label]["acquisitions"] += 1
            return
        inversions: list[str] = []
        with self._state:
            self._locks[lock.label]["acquisitions"] += 1
            held_seen: set[str] = set()
            for entry in stack:
                src = entry.lock.label
                if src == lock.label or src in held_seen:
                    continue
                held_seen.add(src)
                key = (src, lock.label)
                edge = self._edges.get(key)
                if edge is None:
                    if self._reachable_locked(lock.label, src):
                        inversions.append(src)
                    self._edges[key] = {"count": 1, "site": site}
                    self._adjacency.setdefault(src, set()).add(lock.label)
                else:
                    edge["count"] += 1
        for src in inversions:
            self._record_finding(
                "order-inversion",
                f"lock-order inversion: '{lock.label}' acquired while "
                f"holding '{src}', but the opposite order "
                f"'{lock.label}' -> '{src}' was already observed",
                site,
            )

    def _acquire(self, lock: _TrackedLock, blocking, timeout) -> bool:
        stack = self._stack()
        for entry in stack:
            if entry.lock is lock:
                if lock.reentrant:
                    got = lock._real.acquire(blocking, timeout)
                    if got:
                        entry.depth += 1
                    return got
                site = self._call_site()
                self._record_finding(
                    "re-acquire",
                    f"non-reentrant lock '{lock.label}' re-acquired by "
                    f"thread already holding it (self-deadlock)",
                    site,
                )
                # Fall through: behave exactly like the unsanitized lock
                # (a timeout-less acquire here really does deadlock).
                break
        site = self._call_site()
        self._note_edges(stack, lock, site)
        got = lock._real.acquire(False)
        if not got:
            with self._state:
                self._locks[lock.label]["contended"] += 1
            if not blocking:
                return False
            got = lock._real.acquire(True, timeout)
            if not got:
                return False
        stack.append(_Held(lock, time.monotonic(), site))
        return True

    def _note_hold(self, lock: _TrackedLock, entry: _Held) -> None:
        hold = time.monotonic() - entry.acquired_at
        with self._state:
            stats = self._locks[lock.label]
            if hold > stats["max_hold_s"]:
                stats["max_hold_s"] = hold
        if hold > self.hold_budget:
            self._record_finding(
                "hold-budget",
                f"lock '{lock.label}' held for {hold:.3f}s "
                f"(budget {self.hold_budget:.3f}s); acquired at {entry.site}",
                entry.site,
            )

    def _release(self, lock: _TrackedLock) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            entry = stack[i]
            if entry.lock is lock:
                if lock.reentrant and entry.depth > 1:
                    entry.depth -= 1
                    lock._real.release()
                    return
                del stack[i]
                self._note_hold(lock, entry)
                lock._real.release()
                return
        # Released by a thread that never acquired it through this
        # sanitizer (cross-thread Lock release is legal): delegate and let
        # the real lock raise its own error when genuinely unheld.
        lock._real.release()

    # ------------------------------------------- Condition protocol support
    def _release_save(self, lock: _TrackedLock):
        """Fully release around ``Condition.wait`` (all recursion levels)."""
        stack = self._stack()
        depth = 1
        for i in range(len(stack) - 1, -1, -1):
            entry = stack[i]
            if entry.lock is lock:
                depth = entry.depth
                del stack[i]
                self._note_hold(lock, entry)
                break
        if lock.reentrant:
            return (depth, lock._real._release_save())
        lock._real.release()
        return (depth, None)

    def _acquire_restore(self, lock: _TrackedLock, saved) -> None:
        depth, real_state = saved
        site = self._call_site()
        stack = self._stack()
        self._note_edges(stack, lock, site)
        if lock.reentrant:
            lock._real._acquire_restore(real_state)
        else:
            lock._real.acquire()
        entry = _Held(lock, time.monotonic(), site)
        entry.depth = depth
        stack.append(entry)

    # ------------------------------------------------------- blocking calls
    def _sleep(self, seconds) -> None:
        stack = getattr(self._tls, "stack", None)
        if stack:
            held = ", ".join(
                sorted({entry.lock.label for entry in stack})
            )
            site = self._call_site()
            self._record_finding(
                "blocking-sleep",
                f"time.sleep({seconds!r}) called while holding [{held}]",
                site,
            )
        _REAL_SLEEP(seconds)

    # ------------------------------------------------------------ reporting
    @property
    def findings(self) -> list[SanitizerFinding]:
        with self._state:
            return list(self._findings)

    def report(self) -> dict:
        """The observed lock graph + stats as a JSON-ready dict."""
        with self._state:
            locks = [
                {"label": label, **stats}
                for label, stats in sorted(self._locks.items())
            ]
            for entry in locks:
                entry["max_hold_s"] = round(entry["max_hold_s"], 6)
            edges = [
                {"src": src, "dst": dst, "count": edge["count"],
                 "site": edge["site"]}
                for (src, dst), edge in sorted(self._edges.items())
            ]
            findings = [f.to_dict() for f in self._findings]
        return {
            "version": REPORT_VERSION,
            "hold_budget_s": self.hold_budget,
            "locks": locks,
            "edges": edges,
            "findings": findings,
        }

    def write_report(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.report(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

