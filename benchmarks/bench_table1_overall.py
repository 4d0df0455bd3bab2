"""Table 1 — overall performance of GNNavigator across tasks.

Expected shapes (who wins, by roughly what factor — not absolute numbers):

* Pa-Full beats PyG on time by consuming extra memory; Pa-Low barely helps.
* 2P is among the fastest baselines but loses accuracy.
* Bal matches or beats the baselines on every metric simultaneously.
* Ex-TM is the fastest/leanest mode, conceding a few points of accuracy
  (paper: up to 3.1x speedup, 44.9% memory cut, -2.8% accuracy).
* Ex-MA achieves the best accuracy; on AR+GAT (device-bound) every method's
  speedup collapses toward 1x.
"""

from __future__ import annotations

from repro.experiments import render_table1, run_table1


def test_table1_overall_performance(run_once, emit, quick):
    if quick:
        blocks = run_once(
            lambda: run_table1(epochs=2, profile_budget=16, profile_epochs=2)
        )
    else:
        blocks = run_once(lambda: run_table1(epochs=8))

    emit()
    emit(render_table1(blocks))

    if quick:
        # Quick mode checks the pipeline end to end (all tasks, all modes,
        # a rendered table); the performance shapes below need the full
        # epoch counts to hold reliably.
        assert {b.arch for b in blocks} >= {"sage", "gat"}
        assert all(b.row("balance").time_s > 0 for b in blocks)
        return

    for block in blocks:
        base = block.baseline
        pa_full = block.row("pagraph_full")
        pa_low = block.row("pagraph_low")
        bal = block.row("balance")
        ex_tm = block.row("ex_tm")
        ex_ma = block.row("ex_ma")

        # Static caching buys time with memory (visible off the GAT block,
        # where compute-bound training mutes every transmission knob).
        assert pa_full.time_s <= base.time_s
        assert pa_full.memory_bytes >= base.memory_bytes
        assert pa_full.time_s <= pa_low.time_s

        # GNNavigator guidelines: Bal never slower than PyG, accuracy within
        # noise of the best baseline (measured accuracy wobbles ~1pp with
        # batch order); Ex-TM at least as fast as every baseline with a
        # bounded accuracy concession.
        assert bal.time_s <= base.time_s * 1.02
        best_baseline_acc = max(
            block.row(m).accuracy
            for m in ("pyg", "pagraph_full", "pagraph_low", "2pgraph")
        )
        assert bal.accuracy >= best_baseline_acc - 0.035
        assert ex_tm.time_s <= min(pa_full.time_s, base.time_s) * 1.02
        assert ex_tm.accuracy >= base.accuracy - 0.10
        assert ex_ma.accuracy >= best_baseline_acc - 0.03

    sage_blocks = [b for b in blocks if b.arch == "sage"]
    best_speedup = max(
        b.baseline.time_s / b.row("ex_tm").time_s for b in sage_blocks
    )
    emit(f"\nbest Ex-TM speedup over PyG: {best_speedup:.2f}x (paper: up to 3.1x)")
    assert best_speedup > 2.0, "Ex-TM must deliver a multi-x speedup on SAGE tasks"

    # AR+GAT: the paper's testbed is compute-bound here (speedups ~1.0-1.2x).
    # Our ~20x-scaled testbed keeps feature transfer significant even for
    # GAT (DESIGN.md, "The ~20x dataset scaling"), so we assert the
    # invariants that do survive the scaling: baseline accuracy is flat and
    # baseline caching never exceeds the SAGE-task benefit it gives.
    gat_block = next(b for b in blocks if b.arch == "gat")
    gat_speedups = {
        m: gat_block.baseline.time_s / gat_block.row(m).time_s
        for m in ("pagraph_full", "2pgraph", "balance")
    }
    emit(
        "AR+GAT speedups (Pa-Full, 2P, Bal): "
        + ", ".join(f"{s:.2f}x" for s in gat_speedups.values())
        + "  (paper: ~1.0-1.2x; DESIGN.md, 'The ~20x dataset scaling')"
    )
    baseline_accs = [
        gat_block.row(m).accuracy
        for m in ("pyg", "pagraph_full", "pagraph_low", "2pgraph")
    ]
    assert max(baseline_accs) - min(baseline_accs) < 0.03, (
        "GAT baseline accuracy must stay flat across transmission knobs"
    )
    sage_pa_speedups = [
        b.baseline.time_s / b.row("pagraph_full").time_s for b in sage_blocks
    ]
    assert gat_speedups["pagraph_full"] <= max(sage_pa_speedups) * 1.1, (
        "caching must not help GAT more than it helps the SAGE tasks"
    )
