"""Turn the ops of one workload run into the named ledger metrics.

``BENCHMARK.json`` is the single list of metric names and units; this module
computes a value for every name in it.  End-to-end metrics come from the
untraced ops only.  Per-layer metrics come from the spans of the traced ops,
divided by the number of traced ops (for ``serve_http``: traced jobs), plus a
few numbers read from the program's own public counters and outputs.  A
per-layer metric whose layer a workload never enters reads 0.
"""

from __future__ import annotations

import statistics

from ledger.trace import aggregate

__all__ = ["end_to_end", "per_layer", "quartiles"]


def quartiles(values: list[float]) -> dict[str, float]:
    """Sample count, median and quartiles as the result file stores them."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (no interpolation past the samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def _timed_ops(workload, ops: list[dict], traced: bool) -> list[dict]:
    """The ops whose wall clock is the workload's op time."""
    phase = "loop" if workload.name == "serve_http" else None
    return [
        op
        for op in ops
        if op["ok"] and op["traced"] is traced and op.get("phase") == phase
    ]


def end_to_end(workload, ops, setup_samples, peak_rss_mb) -> tuple[dict, dict]:
    """``(values, samples)`` of every end-to-end metric.

    Timings are the medians of the samples divided by the host correction
    of this run (``hostspeed``); the samples themselves stay as measured.
    """
    walls = [op["wall_s"] for op in _timed_ops(workload, ops, traced=False)]
    if workload.name == "serve_http":
        # jobs of both clients over the wall clock of the closed loop
        ops_per_s = workload.loop_jobs_per_s
    else:
        ops_per_s = len(walls) / sum(walls) if walls else 0.0
    samples = {
        "setup_s": setup_samples,
        "op_wall_s": walls,
        "ops_per_s": [ops_per_s],
        "peak_rss_mb": [peak_rss_mb],
    }
    values = {
        name: statistics.median(vals) if vals else 0.0
        for name, vals in samples.items()
    }
    correction = workload.probe.correction()
    values["setup_s"] /= correction
    values["op_wall_s"] /= correction
    values["ops_per_s"] *= correction
    return values, samples


def per_layer(workload, ops, tracer, cpu_s) -> dict[str, float]:
    """Every per-layer metric this run can compute (the rest read 0)."""
    serve = workload.name == "serve_http"
    traced = [op for op in ops if op["traced"]]
    count = max(len(traced), 1)
    spans = aggregate(tracer.spans)

    def per_op(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0.0) / count

    out: dict[str, float] = {}
    for name, fields in _SPAN_METRICS.items():
        for field in fields:
            out[f"{name}.{field}"] = per_op(name, field)

    untraced_walls = [op["wall_s"] for op in _timed_ops(workload, ops, False)]
    traced_walls = [op["wall_s"] for op in _timed_ops(workload, ops, True)]
    untraced = statistics.median(untraced_walls) if untraced_walls else 0.0
    traced_wall = statistics.median(traced_walls) if traced_walls else 0.0
    if serve:
        op_cpu_s = workload.loop_cpu_s
        # busy time of a served job is its worker-side span, not the wait
        busy_s = spans.get("serving.job", {}).get("total_s", 0.0)
        spmm_calls, spmm_s = workload.spmm
        spmm_calls, spmm_s = spmm_calls / len(ops), spmm_s / len(ops)
    else:
        cpus = [op["cpu_s"] for op in _timed_ops(workload, ops, False)]
        op_cpu_s = statistics.median(cpus) if cpus else 0.0
        busy_s = sum(op["wall_s"] for op in traced)
        spmm_calls = sum(op["spmm_calls"] for op in traced) / count
        spmm_s = sum(op["spmm_s"] for op in traced) / count
    busy_per_op = busy_s / count
    roots = spans.get("op", {})
    runs = spans.get("runtime.profile_one", {}).get("durations", [])
    ok = [op for op in ops if op["ok"]]

    def mean_output(key: str) -> float:
        values = [op[key] for op in ok if key in op]
        return sum(values) / len(values) if values else 0.0

    executed, requested = mean_output("runs_executed"), mean_output("requested")
    out.update(
        {
            "kernels.spmm.calls": spmm_calls,
            "kernels.spmm.s": spmm_s,
            "kernels.spmm.share": spmm_s / busy_per_op if busy_per_op else 0.0,
            "sampling.batch_nodes_mean": mean_output("batch_nodes_mean"),
            "sampling.batch_edges_mean": mean_output("batch_edges_mean"),
            "runtime.candidate_run_s_p50": statistics.median(runs) if runs else 0.0,
            "runtime.batches_per_s": (
                spans.get("sampling.sample", {}).get("calls", 0) / busy_s
                if busy_s
                else 0.0
            ),
            "runtime.runs_executed": executed,
            "runtime.store.hit_ratio": 1.0 - executed / requested if requested else 0.0,
            "explorer.dfs.evaluated": mean_output("dfs_evaluated"),
            "explorer.front_size": mean_output("front_size"),
            "process.cpu_s": cpu_s,
            "process.op_cpu_s": op_cpu_s,
            "process.host_slowdown": workload.probe.slowdown(),
            "process.untraced_wall_s": untraced,
            "process.traced_wall_s": traced_wall,
            "process.trace_overhead_ratio": traced_wall / untraced if untraced else 0.0,
            "process.unattributed_share": (
                roots["self_s"] / roots["total_s"] if roots.get("total_s") else 0.0
            ),
            "process.failed_share": (len(ops) - len(ok)) / len(ops),
        }
    )
    if serve:
        loop = [op for op in ok if op["phase"] == "loop"]
        out.update(
            {
                "serving.job_latency_s_p90": _percentile(untraced_walls, 0.9),
                "transport.submit_ms_p50": _percentile(
                    [op["submit_ms"] for op in loop], 0.5
                ),
                "transport.result_ms_p50": _percentile(
                    [op["result_ms"] for op in loop], 0.5
                ),
                "transport.calls_per_job": per_op("transport.call", "calls"),
            }
        )
    # outputs of the check phase (quality numbers, counters of the program)
    out.update(workload.outputs)
    return out


#: span name -> the fields reported for it
_SPAN_METRICS = {
    "graphs.induced_subgraph": ("calls", "self_s"),
    "graphs.gather_neighborhoods": ("calls", "self_s"),
    "graphs.profile_graph": ("self_s",),
    "graphs.reorder_graph": ("self_s",),
    "sampling.sample": ("calls", "self_s", "total_s"),
    "sampling.fanout_step": ("calls", "self_s"),
    "sampling.batch_iter": ("self_s",),
    "autograd.normalized_adjacency": ("calls", "self_s"),
    "autograd.backward": ("calls", "self_s"),
    "autograd.segment_softmax": ("self_s",),
    "nn.forward": ("calls", "self_s"),
    "nn.nll_loss": ("self_s",),
    "nn.optim_step": ("self_s",),
    "nn.build_model": ("self_s",),
    "hardware.cache": ("self_s",),
    "hardware.costmodel": ("self_s",),
    "runtime.backend_init": ("self_s",),
    "runtime.run_epoch": ("calls", "self_s"),
    "runtime.evaluate": ("calls", "total_s"),
    "runtime.profile_one": ("calls", "total_s"),
    "runtime.profile": ("self_s", "total_s"),
    "runtime.fingerprint": ("self_s",),
    "runtime.store.load": ("calls", "self_s"),
    "runtime.store.save": ("calls", "self_s"),
    "estimator.fit": ("self_s",),
    "estimator.predict": ("calls", "self_s"),
    "explorer.space_sample": ("self_s",),
    "explorer.dfs": ("self_s", "total_s"),
    "explorer.pareto_mask": ("calls", "self_s"),
    "explorer.decision": ("self_s",),
    "serving.submit": ("self_s",),
    "serving.job": ("calls", "total_s"),
    "serving.shared_profile": ("total_s",),
}
