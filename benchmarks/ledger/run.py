"""The perf ledger: one command that runs the named workloads and prints
every metric of ``BENCHMARK.json`` by name, with its unit.

    python3 benchmarks/ledger/run.py --workload nav_cold --seed 0
    python3 benchmarks/ledger/run.py --all --trace --out bench-results/ledger.json
    python3 benchmarks/ledger/run.py --all --repeat 5 --vary-seed

With ``--workload`` the workload runs in this process and the last line of
standard output is the contract's JSON object.  ``--all`` and ``--repeat``
start one such process per workload and run, so peak memory and the kernel
counters are per workload.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
RESULTS = ROOT / "bench-results"

#: The environment every workload process runs in; a process started without
#: it replaces itself (``exec``) with one that has it.
#:
#: * One BLAS thread: with two on a shared 2-core host an op's wall clock
#:   measures the scheduler (a ``train_gat`` op took 5.8-7.7 s at twice that in
#:   CPU time), not the code.
#: * glibc's allocator keeps freed blocks up to 32 MiB in the heap.  Its
#:   default threshold moves with allocation history, so one process reused
#:   its heap and the next mapped and faulted 1-2 GB of fresh pages per op:
#:   the same ``train_gat`` op took 2.7 s or 3.4-5.0 s (276k-513k minor
#:   faults, 0.8-1.8 s of system time) depending on the process it ran in.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_KERNEL": "reference",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}
#: set-up (with its warm-up) is repeated and its median reported: the first
#: one of a process also pays for lazy imports, and one slow disk access
#: should not decide ``setup_s`` — until it has cost this many seconds: a
#: set-up that long (``nav_warm`` primes a store) is its own average
SETUP_REPEATS = 5
SETUP_BUDGET_S = 4.0


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def host_descriptor() -> dict:
    """The host, and the pinned environment every workload process runs in."""
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(PINNED_ENV["OPENBLAS_NUM_THREADS"]),
        "REPRO_KERNEL": PINNED_ENV["REPRO_KERNEL"],
        "malloc_mmap_threshold": int(PINNED_ENV["MALLOC_MMAP_THRESHOLD_"]),
        "platform": sys.platform,
    }


# ------------------------------------------------------------ one workload
def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, warm up, measure and check one workload in this process."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"the program under test is missing: no {ROOT / 'src' / 'repro'}")
    # ``ledger`` is imported as a package from ``benchmarks/``; the script's
    # own directory leaves the path so ``ledger/trace.py`` cannot shadow the
    # standard library's ``trace``
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != LEDGER]
    sys.path[:0] = [str(ROOT / "src"), str(LEDGER.parent)]
    import resource

    from ledger import metrics
    from ledger.trace import Tracer, install, uninstall
    from ledger.workloads import WORKLOADS

    tmp = RESULTS / "tmp" / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True)
    workload = WORKLOADS[name](seed, smoke, tmp)
    tracer = Tracer() if trace else None
    try:
        setup_samples: list[float] = []
        repeats = 1 if smoke else SETUP_REPEATS
        while len(setup_samples) < repeats and sum(setup_samples) < SETUP_BUDGET_S:
            if setup_samples:
                workload.teardown()
            t0 = time.perf_counter()
            workload.setup()
            workload.warmup()
            setup_samples.append(time.perf_counter() - t0)

        if tracer is not None:
            install(tracer)
        cpu0 = time.process_time()
        ops = workload.measure(seconds, tracer)
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            uninstall(tracer)
        workload.check(ops)
        workload.teardown()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e, samples = metrics.end_to_end(workload, ops, setup_samples, peak_rss_mb)
    failed = sum(not op["ok"] for op in ops) + len(workload.failures)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "host": host_descriptor(),
        "attempted": len(ops) + len(workload.failures),
        "failed": failed,
        "errors": [op["error"] for op in ops if not op["ok"]] + workload.failures,
        "host_slowdown": workload.probe.slowdown(),
        "end_to_end": e2e,
        "samples": {k: metrics.quartiles(v) for k, v in samples.items() if v},
        "info": workload.info,
    }
    if tracer is not None:
        result["per_layer"] = metrics.per_layer(workload, ops, tracer, cpu_s)
        result["spans"] = tracer.as_dicts()
    return result


def print_metrics(result: dict) -> None:
    print(
        f"== {result['workload']}  seed={result['seed']}  "
        f"attempted={result['attempted']}  failed={result['failed']}"
    )
    for error in result["errors"]:
        print(f"   FAILED: {error}")
    units = _units("end_to_end")
    for name, value in result["end_to_end"].items():
        n = result["samples"].get(name, {}).get("n", 0)
        print(f"   {name:<34} {value:>14.6g} {units[name]:<9} (n={n})")
    units = _units("per_layer")
    for name, value in sorted(result.get("per_layer", {}).items()):
        print(f"   {name:<34} {value:>14.6g} {units[name]}")


def contract_line(result: dict, trace: bool) -> str:
    """The JSON object the driver reads from the last line of stdout."""
    section = "per_layer" if trace else "end_to_end"
    units = _units(section)
    values = result[section]
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": values.get(name, 0.0), "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def write_result(result: dict, out: Path) -> None:
    """The result file; the spans go to ``trace_<workload>.json``."""
    out.parent.mkdir(parents=True, exist_ok=True)
    spans = result.pop("spans", None)
    if spans is not None:
        trace_file = RESULTS / f"trace_{result['workload']}.json"
        trace_file.write_text(json.dumps(spans))
    out.write_text(json.dumps(result, indent=1, sort_keys=True))


# ------------------------------------------------------- several workloads
def run_child(name: str, args: argparse.Namespace, seed: int, trace: bool) -> dict:
    """One workload in its own process; returns its result file's content."""
    out = RESULTS / "tmp" / f"child-{os.getpid()}-{name}.json"
    command = [
        sys.executable,
        str(LEDGER / "run.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(trace)),
        "--out", str(out),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"workload {name} exited with {done.returncode}")
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")  # all but the JSON line
    result = json.loads(out.read_text())
    out.unlink()
    del result["host"]  # the ledger file carries it once
    return result


def run_round(args: argparse.Namespace, names: list[str], seed: int, trace: bool) -> dict:
    workloads = {name: run_child(name, args, seed, trace) for name in names}
    return {"seed": seed, "workloads": workloads}


def spread_table(runs: list[dict]) -> list[dict]:
    """Per end-to-end metric and workload: the median over the runs and the
    distance between their quartiles as a share of it, as the driver takes it."""
    rows = []
    for metric in SPEC["end_to_end"]:
        for name in runs[0]["workloads"]:
            values = [r["workloads"][name]["end_to_end"][metric["name"]] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows.append(
                {
                    "metric": metric["name"],
                    "workload": name,
                    "median": median,
                    "spread": (q3 - q1) / median,
                }
            )
    return rows


def print_spread(rows: list[dict], count: int) -> bool:
    """Print each spread against its metric's bound; whether all are within.

    As in the driver's check, the spread of ``setup_s`` is shown but does not
    count: a set-up of 0.04-0.1 s cannot be steadier than the host is.
    """
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    within = True
    print(f"== spread over {count} runs (IQR / median) against the bound")
    for row in rows:
        bound = bounds[row["metric"]]
        over = row["spread"] > bound
        gated = row["metric"] != "setup_s"
        flag = ("  OVER BOUND" if gated else "  (over; not counted)") if over else ""
        within = within and not (over and gated)
        print(
            f"   {row['metric']:<14} {row['workload']:<13} median {row['median']:>12.6g} "
            f"spread {row['spread']:>7.2%}  bound {bound:.0%}{flag}"
        )
    return within


def run_suite() -> dict:
    """Tier-1 wall time and its ten slowest tests (information only)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "--durations=10"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=1800,
    )  # fmt: skip
    lines = done.stdout.splitlines()
    slowest = [line for line in lines if " call " in line or " setup " in line]
    return {
        "wall_s": time.perf_counter() - t0,
        "exit_code": done.returncode,
        "summary": lines[-1] if lines else "",
        "slowest": slowest[:10],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=SPEC["run_seconds"],
        help="how long each workload measures (default: run_seconds)",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="alternate untraced and traced ops; report the per-layer metrics",
    )  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (tests)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    parser.add_argument(
        "--vary-seed", action="store_true",
        help="with --repeat: run k uses seed + k, as the driver's check does",
    )  # fmt: skip
    parser.add_argument("--suite", action="store_true", help="also time tier-1")
    parser.add_argument("--out", type=Path, help="result file")
    args = parser.parse_args()
    if bool(args.workload) == args.all:
        parser.error("give exactly one of --workload NAME and --all")

    if args.workload and args.repeat == 1 and not args.suite:
        if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
            sys.stdout.flush()
            os.execve(
                sys.executable,
                [sys.executable, *sys.argv],
                {**os.environ, **PINNED_ENV},
            )
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        print_metrics(result)
        line = contract_line(result, bool(args.trace))
        name = f"ledger_{args.workload}_seed{args.seed}.json"
        write_result(result, args.out or RESULTS / name)
        print(line)
        return 0

    names = WORKLOAD_NAMES if args.all else [args.workload]
    runs = [
        run_round(args, names, args.seed + k if args.vary_seed else args.seed, False)
        for k in range(args.repeat)
    ]
    ledger = {"host": host_descriptor(), "seconds": args.seconds, "runs": runs}
    checked = [w for r in runs for w in r["workloads"].values()]
    within = True
    if args.repeat > 1:
        ledger["spread"] = spread_table(runs)
        within = print_spread(ledger["spread"], len(runs))
    if args.trace:
        # per-layer table: one more pass whose ops alternate untraced / traced
        ledger["traced"] = run_round(args, names, args.seed, True)
        checked += ledger["traced"]["workloads"].values()
    if args.suite:
        ledger["suite"] = run_suite()
        print(f"== tier-1: {ledger['suite']['summary']}")
    out = args.out or RESULTS / f"ledger_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    print(f"wrote {out}")
    return 0 if within and all(w["failed"] == 0 for w in checked) else 1


if __name__ == "__main__":
    sys.exit(main())
