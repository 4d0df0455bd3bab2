"""Server metrics: named counters and gauges behind one registry.

The server registers *counters* (monotonic, bumped at the moment the thing
happens) and *gauges* (callables read at scrape time, so they are always
current and cost nothing between scrapes), and every consumer —
``/v1/metrics``, ``client.metrics()``, the CLI's ``stats`` / ``serve``
summaries — reads one :meth:`snapshot`.

Counters and gauges share a flat namespace; registering a gauge under an
existing counter name (or vice versa) is a programming error and raises.
Per-entity series (one counter per fleet executor, say) use
:func:`labeled` names — ``fleet_claims{executor="ex-0000"}`` — which sort
next to their base family in a snapshot and can be dropped again with
:meth:`MetricsRegistry.remove` when the entity goes away.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["MetricsRegistry", "labeled"]


def labeled(name: str, **labels: str) -> str:
    """Prometheus-style labeled metric name: ``name{k="v",...}``, key-sorted.

    Purely a naming convention over the flat registry — the registry itself
    treats the result as an opaque name — but a stable, sorted rendering
    means the same (family, labels) pair always lands on the same series.
    """
    if not labels:
        return name
    rendered = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Thread-safe flat registry of counters and gauges.

    Counters are created on first :meth:`inc` (so emission sites never need
    a registration phase) and only ever grow.  Gauges are registered once
    with a zero-argument callable; a gauge that raises at scrape time
    reports ``0`` rather than poisoning the whole snapshot — metrics must
    never take the server down.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}  # guarded-by: _lock
        self._gauges: dict[str, Callable[[], float]] = {}  # guarded-by: _lock

    # ---------------------------------------------------------------- counters
    def inc(self, name: str, n: int = 1) -> int:
        """Add ``n`` to counter ``name`` (created at 0); returns the total."""
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            if name in self._gauges:
                raise ValueError(f"{name!r} is already a gauge")
            total = self._counters.get(name, 0) + n
            self._counters[name] = total
            return total

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # ------------------------------------------------------------------ gauges
    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register gauge ``name`` as a zero-argument read callable."""
        with self._lock:
            if name in self._counters:
                raise ValueError(f"{name!r} is already a counter")
            self._gauges[name] = fn

    # ---------------------------------------------------------------- removal
    def remove(self, name: str) -> bool:
        """Forget one metric (either kind); ``True`` if it existed.

        Exists for labeled per-entity series — a deregistered fleet
        executor must not haunt every later snapshot — and is deliberately
        quiet about unknown names so teardown paths can sweep candidates.
        """
        with self._lock:
            dropped = self._counters.pop(name, None) is not None
            return (self._gauges.pop(name, None) is not None) or dropped

    # ---------------------------------------------------------------- scraping
    def value(self, name: str) -> float:
        """One metric by name — counter value or evaluated gauge."""
        with self._lock:
            if name in self._counters:
                return self._counters[name]
            fn = self._gauges.get(name)
        if fn is None:
            raise KeyError(name)
        return self._read(fn)

    def snapshot(self) -> dict[str, float]:
        """Every metric, name-sorted: counters as-is, gauges evaluated now.

        Gauge callables run *outside* the registry lock — they may take
        other locks (the store's, the server's) and must not serialize
        against concurrent ``inc`` calls on the hot path.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
        out: dict[str, float] = dict(counters)
        for name, fn in gauges.items():
            out[name] = self._read(fn)
        return dict(sorted(out.items()))

    @staticmethod
    def _read(fn: Callable[[], float]) -> float:
        try:
            value = fn()
        except Exception:
            return 0
        return value if isinstance(value, (int, float)) else 0
