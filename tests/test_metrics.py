"""The metrics registry and its declared families.

Every family is declared once in :mod:`repro.serving.metrics`; call sites
pass the declaration, so kinds and label keys are checked where a series is
bumped or bound, and the docs table is held to the declarations here.  The
scenario that fills every declared family through a live server is in
``tests/test_serving_scenario.py``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.serving import metrics
from repro.serving.metrics import (
    FAMILIES,
    FLEET_CLAIMS,
    FLEET_HEARTBEAT_AGE_SECONDS,
    JOBS_PENDING,
    JOBS_RUNNING,
    JOBS_SUBMITTED,
    MetricFamily,
    MetricsRegistry,
    labeled,
)

ROOT = Path(__file__).resolve().parents[1]


class TestMetricsRegistry:
    def test_counters_create_on_first_inc(self):
        registry = MetricsRegistry()
        assert registry.counter("jobs_submitted") == 0
        assert registry.inc(JOBS_SUBMITTED) == 1
        assert registry.inc(JOBS_SUBMITTED, 4) == 5
        assert registry.value("jobs_submitted") == 5
        with pytest.raises(ValueError):
            registry.inc(JOBS_SUBMITTED, -1)

    def test_gauges_read_live(self):
        registry = MetricsRegistry()
        box = {"depth": 3}
        registry.gauge(JOBS_PENDING, lambda: box["depth"])
        assert registry.value("jobs_pending") == 3
        box["depth"] = 7
        assert registry.snapshot()["jobs_pending"] == 7
        with pytest.raises(KeyError):
            registry.value("jobs_running")

    def test_a_family_only_reaches_its_own_kind(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError, match="gauge"):
            registry.inc(JOBS_PENDING)
        with pytest.raises(TypeError, match="counter"):
            registry.gauge(JOBS_SUBMITTED, lambda: 0)
        assert registry.snapshot() == {}

    def test_an_undeclared_label_key_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="labels"):
            registry.inc(JOBS_SUBMITTED, executor="ex-0000")
        with pytest.raises(ValueError, match="labels"):
            registry.inc(FLEET_CLAIMS, tenant="a")
        with pytest.raises(ValueError, match="labels"):
            registry.inc(FLEET_CLAIMS, executor="ex-0000", tenant="a")
        with pytest.raises(ValueError, match="labels"):
            registry.gauge(FLEET_HEARTBEAT_AGE_SECONDS, lambda: 0)
        assert registry.snapshot() == {}

    def test_binding_a_gauge_again_replaces_its_reader(self):
        # A re-registering executor binds its heartbeat gauge again.
        registry = MetricsRegistry()
        registry.gauge(FLEET_HEARTBEAT_AGE_SECONDS, lambda: 9.0, executor="ex-0000")
        registry.gauge(FLEET_HEARTBEAT_AGE_SECONDS, lambda: 0.5, executor="ex-0000")
        assert registry.snapshot() == {
            'fleet_heartbeat_age_seconds{executor="ex-0000"}': 0.5
        }

    def test_raising_gauge_reports_zero(self):
        registry = MetricsRegistry()
        registry.gauge(JOBS_RUNNING, lambda: 1 / 0)
        assert registry.snapshot()["jobs_running"] == 0

    def test_a_labeled_counter_keeps_its_total(self):
        registry = MetricsRegistry()
        registry.inc(FLEET_CLAIMS, executor="ex-0000")
        registry.inc(FLEET_CLAIMS, executor="ex-0000")
        registry.inc(FLEET_CLAIMS, executor="ex-0001")
        registry.inc(FLEET_CLAIMS)  # the total alone
        assert registry.snapshot() == {
            "fleet_claims": 4,
            'fleet_claims{executor="ex-0000"}': 2,
            'fleet_claims{executor="ex-0001"}': 1,
        }

    def test_drop_forgets_every_series_one_label_carries(self):
        registry = MetricsRegistry()
        for executor in ("ex-0000", "ex-0001"):
            registry.inc(FLEET_CLAIMS, executor=executor)
            registry.gauge(FLEET_HEARTBEAT_AGE_SECONDS, lambda: 1.5, executor=executor)
        assert registry.drop(executor="ex-0000") == 2
        assert registry.drop(executor="ex-0000") == 0
        assert registry.snapshot() == {
            "fleet_claims": 2,
            'fleet_claims{executor="ex-0001"}': 1,
            'fleet_heartbeat_age_seconds{executor="ex-0001"}': 1.5,
        }

    def test_labeled_rendering_is_key_sorted(self):
        assert labeled("fleet_claims") == "fleet_claims"
        assert (
            labeled("fleet_claims", executor="ex-0000")
            == 'fleet_claims{executor="ex-0000"}'
        )
        assert labeled("x", b="2", a="1") == 'x{a="1",b="2"}'


class TestDeclarations:
    def test_every_family_is_declared_once(self):
        declared = [v for v in vars(metrics).values() if isinstance(v, MetricFamily)]
        assert len(declared) == len(FAMILIES)
        for name, family in FAMILIES.items():
            assert re.fullmatch(r"[a-z][a-z0-9_]*", name), name
            assert family.kind in ("counter", "gauge")

    def test_docs_table_lists_exactly_the_declared_families(self):
        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        header = "| metric | kind | labels | what it counts |\n|---|---|---|---|\n"
        table = text.split(header)[1].split("\n\n")[0]
        documented = [
            tuple(cell.strip("`") for cell in line.strip("| ").split(" | ")[:3])
            for line in table.splitlines()
        ]
        assert documented == [
            (f.name, f.kind, ", ".join(f.labels) or "—") for f in FAMILIES.values()
        ]
