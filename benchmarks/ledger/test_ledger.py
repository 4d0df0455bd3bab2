"""The ledger at ``--smoke`` sizes: every workload runs, every metric and
workload named in ``BENCHMARK.json`` is emitted with its unit and nothing
else is, and a traced run's self times fit inside the op they belong to."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = [sys.executable, str(LEDGER / "run.py")]


def _names(section: str) -> list[str]:
    return [entry["name"] for entry in SPEC[section]]


@pytest.fixture(scope="module")
def ledger(tmp_path_factory) -> dict:
    """The traced pass of a smoke run of all six workloads: end-to-end
    metrics from its untraced ops, per-layer metrics from its traced ones."""
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        [*RUN, "--all", "--smoke", "--trace", "--seed", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(out.read_text())
    assert sorted(result["runs"][0]["workloads"]) == sorted(_names("workloads"))
    return result["traced"]["workloads"]


def test_spec_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = _names("workloads") + _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all((ROOT / path).is_dir() for path in SPEC["paths"])


def test_every_workload_runs_clean(ledger):
    assert sorted(ledger) == sorted(_names("workloads"))
    for name, result in ledger.items():
        assert result["failed"] == 0, (name, result["errors"])
        assert result["attempted"] >= 1


def test_metrics_match_the_spec_both_ways(ledger):
    emitted_layers: set[str] = set()
    for name, result in ledger.items():
        assert set(result["end_to_end"]) == set(_names("end_to_end")), name
        assert all(value > 0 for value in result["end_to_end"].values()), name
        assert set(result["per_layer"]) <= set(_names("per_layer")), name
        emitted_layers |= {k for k, v in result["per_layer"].items() if v}
    # vice versa: no per-layer metric in the spec that no workload moves,
    # apart from the two counters that read 0 when nothing goes wrong or
    # repeats (no op fails; no request names one configuration twice)
    quiet = {"process.failed_share", "serving.deduplicated"}
    assert emitted_layers == set(_names("per_layer")) - quiet


def test_self_times_fit_inside_the_op(ledger):
    for name, result in ledger.items():
        if name == "serve_http":
            continue  # its jobs run on concurrent threads
        layers = result["per_layer"]
        self_s = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert 0 < self_s <= layers["process.traced_wall_s"] * (1 + 1e-9), name
        assert 0 <= layers["process.unattributed_share"] <= 1, name


def test_contract_line_of_a_single_workload(tmp_path):
    done = subprocess.run(
        [*RUN, "--workload", "train_dense", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--smoke", "--out", str(tmp_path / "one.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
