"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``navigate``   run GNNavigator end to end on a task and print guidelines
``serve``      serve navigation requests: batch mode over a job file, or
               network mode (``--port``) exposing the HTTP transport
``submit``     submit request(s) to a remote ``repro serve --port`` server
``poll``       poll/await remote jobs by id
``watch``      stream a remote job's live progress events until terminal
``cancel``     cancel remote jobs by id
``stats``      print a remote server's profiling/store/job counters
``metrics``    print a remote server's raw metrics registry scrape
``executor``   join a server's profiling fleet as a remote executor
``fleet``      inspect a remote server's fleet (``fleet status``)
``templates``  run the baseline system templates on a task
``transfer``   inspect the cross-task transfer corpus (``transfer stats``)
``datasets``   list the synthetic dataset zoo with statistics
``lint``       run the project-specific static analysis pass
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.config import TaskSpec, get_template, template_names
from repro.errors import ServingError
from repro.experiments.tables import render_table
from repro.explorer import GNNavigator, RuntimeConstraint
from repro.graphs import DATASETS, load_dataset
from repro.runtime import RuntimeBackend
from repro.runtime.parallel import default_store_dir

__all__ = ["main", "build_parser"]


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GNNavigator (DAC 2024) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    nav = sub.add_parser("navigate", help="explore and train a guideline")
    nav.add_argument("--dataset", default="reddit2")
    nav.add_argument("--arch", default="sage", choices=["gcn", "sage", "gat"])
    nav.add_argument("--platform", default="rtx4090")
    nav.add_argument("--epochs", type=int, default=6)
    nav.add_argument(
        "--priority",
        default="balance",
        choices=["balance", "ex_tm", "ex_ma", "ex_ta"],
    )
    nav.add_argument("--budget", type=int, default=16, help="profiling budget")
    nav.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=None,
        help="worker processes for ground-truth profiling (default: serial)",
    )
    nav.add_argument(
        "--profile-cache",
        default=None,
        metavar="DIR",
        help="directory for the persistent profiling result cache",
    )
    nav.add_argument(
        "--shared-cache",
        action="store_true",
        help="persist profiling to the shared serving/experiment store "
        "(the layout `repro serve` and the experiment harness use)",
    )
    nav.add_argument(
        "--transfer",
        action="store_true",
        help="warm-start from the cross-task corpus over the profiling "
        "store (implies --shared-cache unless a cache dir is given): "
        "donor tasks' ground truth shrinks this run's profiling budget",
    )
    nav.add_argument("--max-time-ms", type=float, default=None)
    nav.add_argument("--max-memory-mib", type=float, default=None)
    nav.add_argument("--min-accuracy", type=float, default=None)

    serve = sub.add_parser(
        "serve",
        help="serve navigation requests: a job-file batch, or --port for "
        "a long-lived HTTP server remote clients submit to",
    )
    serve.add_argument(
        "--jobs",
        default=None,
        metavar="FILE",
        help="JSON job file: a list of request specs "
        '(e.g. [{"dataset": "reddit2", "priorities": ["balance"]}]); '
        "'-' reads the specs from stdin.  Required without --port; with "
        "--port the specs are pre-submitted before serving",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --port mode (default: loopback only)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the HTTP transport on this port until interrupted "
        "(0 picks a free port); without it, run the job file and exit",
    )
    serve.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        help="concurrent navigation jobs (worker threads)",
    )
    serve.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=None,
        help="worker processes for ground-truth profiling (default: serial)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared persistent result store "
        "(default: the repo-local serving store)",
    )
    serve.add_argument(
        "--no-store",
        action="store_true",
        help="keep result sharing in-memory only (no persistent store)",
    )
    serve.add_argument(
        "--fair",
        action="store_true",
        help="schedule tenants by weighted round-robin (fair-share) instead "
        "of pure priority, so one chatty tenant cannot starve the rest",
    )
    serve.add_argument(
        "--max-inflight-per-tenant",
        type=int,
        default=None,
        metavar="N",
        help="cap concurrent jobs per tenant (default: unlimited)",
    )
    serve.add_argument(
        "--store-budget",
        type=int,
        default=None,
        metavar="N",
        help="evict least-recently-written store entries past N "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--store-budget-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="evict least-recently-written store entries past BYTES on "
        "disk (default: unbounded; combines with --store-budget)",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="fleet lease TTL: how long a remote executor may go silent "
        "before its claimed profiling work is re-issued (default: 10)",
    )
    serve.add_argument(
        "--transfer",
        action="store_true",
        help="warm-start navigations from the cross-task corpus over the "
        "persistent store (requires a store; per-request transfer_policy "
        "specs still override)",
    )

    def add_remote(sub_parser):
        sub_parser.add_argument(
            "--server",
            required=True,
            metavar="URL",
            help="base URL of a `repro serve --port` server "
            "(e.g. http://127.0.0.1:8765)",
        )
        sub_parser.add_argument(
            "--tenant",
            default="",
            help="fair-share lane / quota bucket for this client",
        )
        return sub_parser

    submit = add_remote(
        sub.add_parser(
            "submit", help="submit navigation request(s) to a remote server"
        )
    )
    submit.add_argument(
        "--jobs",
        default=None,
        metavar="FILE",
        help="JSON job file of request specs ('-' = stdin); without it, "
        "one request is built from the task flags below",
    )
    submit.add_argument("--dataset", default="reddit2")
    submit.add_argument("--arch", default="sage", choices=["gcn", "sage", "gat"])
    submit.add_argument("--platform", default="rtx4090")
    submit.add_argument("--epochs", type=int, default=6)
    submit.add_argument(
        "--priority",
        default="balance",
        choices=["balance", "ex_tm", "ex_ma", "ex_ta"],
        help="exploration objective",
    )
    submit.add_argument("--budget", type=int, default=16)
    submit.add_argument(
        "--profile-epochs", type=int, default=2, help="epochs per profiling run"
    )
    submit.add_argument(
        "--queue-priority",
        type=int,
        default=0,
        help="server queue priority (higher runs first)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block for every submitted job's result before exiting",
    )
    submit.add_argument(
        "--follow",
        action="store_true",
        help="stream each job's live progress events (implies --wait)",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="with --wait: seconds to wait per job (default: forever)",
    )

    poll = add_remote(
        sub.add_parser("poll", help="poll/await remote jobs by id")
    )
    poll.add_argument("job_ids", nargs="+", metavar="JOB_ID")
    poll.add_argument(
        "--wait",
        action="store_true",
        help="block for each job's result instead of printing its status",
    )
    poll.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="with --wait: seconds to wait per job (default: forever)",
    )

    watch = add_remote(
        sub.add_parser(
            "watch",
            help="stream live progress of remote jobs (one line per event) "
            "until each job's stream ends",
        )
    )
    watch.add_argument("job_ids", nargs="+", metavar="JOB_ID")
    watch.add_argument(
        "--since",
        type=_nonnegative_int,
        default=0,
        help="resume the stream from this event sequence number "
        "(a previous watch's last printed seq + 1)",
    )

    cancel = add_remote(
        sub.add_parser("cancel", help="cancel remote jobs by id")
    )
    cancel.add_argument("job_ids", nargs="+", metavar="JOB_ID")

    add_remote(
        sub.add_parser(
            "stats", help="print a remote server's profiling/store counters"
        )
    )

    add_remote(
        sub.add_parser(
            "metrics",
            help="print a remote server's metrics registry (name value "
            "per line, counters and gauges)",
        )
    )

    executor = sub.add_parser(
        "executor",
        help="join a server's profiling fleet: claim candidate batches, "
        "run them locally, commit the records back (until interrupted)",
    )
    executor.add_argument(
        "--server",
        required=True,
        metavar="URL",
        help="base URL of a `repro serve --port` server "
        "(e.g. http://127.0.0.1:8765)",
    )
    executor.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=None,
        help="worker processes for claimed profiling runs (default: serial)",
    )
    executor.add_argument(
        "--executor-id",
        default=None,
        metavar="ID",
        help="rejoin under a previously-assigned executor id "
        "(default: the server assigns a fresh one)",
    )
    executor.add_argument(
        "--max-candidates",
        type=int,
        default=None,
        metavar="N",
        help="cap candidates per claim (default: the server's batch limit)",
    )
    executor.add_argument(
        "--claim-timeout",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="long-poll window of one idle claim round (default: 2)",
    )

    fleet = add_remote(
        sub.add_parser(
            "fleet", help="inspect a remote server's profiling fleet"
        )
    )
    fleet.add_argument(
        "action",
        choices=["status"],
        help="'status' prints the executor census and queue depths",
    )

    tmpl = sub.add_parser("templates", help="run the baseline templates")
    tmpl.add_argument("--dataset", default="reddit2")
    tmpl.add_argument("--arch", default="sage", choices=["gcn", "sage", "gat"])
    tmpl.add_argument("--epochs", type=int, default=4)

    transfer = sub.add_parser(
        "transfer",
        help="inspect the cross-task transfer corpus over a result store",
    )
    transfer.add_argument(
        "action",
        choices=["stats"],
        help="'stats' prints the task families the corpus can donate from",
    )
    transfer.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="result-store directory to index "
        "(default: the shared serving/experiment store)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the project-specific static analysis pass "
        "(lock discipline, blocking under locks, thread/pool lifecycle)",
    )
    add_lint_arguments(lint)

    sub.add_parser("datasets", help="list the dataset zoo")
    return parser


def _cmd_navigate(args: argparse.Namespace) -> int:
    constraint = RuntimeConstraint(
        max_time_s=None if args.max_time_ms is None else args.max_time_ms / 1e3,
        max_memory_bytes=(
            None if args.max_memory_mib is None else args.max_memory_mib * 2**20
        ),
        min_accuracy=args.min_accuracy,
    )
    task = TaskSpec(
        dataset=args.dataset,
        arch=args.arch,
        platform=args.platform,
        epochs=args.epochs,
    )
    cache_dir = args.profile_cache
    if args.shared_cache:
        if cache_dir is not None:
            raise ServingError("--shared-cache and --profile-cache conflict")
        cache_dir = str(default_store_dir())
    transfer = None
    if args.transfer:
        from repro.runtime.parallel import ResultStore
        from repro.transfer import TransferContext, TransferCorpus

        # The corpus lives in the persistent store; without an explicit
        # cache dir, transfer implies the shared one (where `repro serve`
        # and the experiment harness accumulate donors).
        if cache_dir is None:
            cache_dir = str(default_store_dir())
        transfer = TransferContext(TransferCorpus(ResultStore(cache_dir)))
    nav = GNNavigator(
        task,
        profile_budget=args.budget,
        workers=args.workers,
        cache_dir=cache_dir,
        transfer=transfer,
    )
    print(f"exploring for priority {args.priority!r} ({constraint.describe()})...")
    report = nav.explore(constraint=constraint, priorities=[args.priority])
    info = report.extras.get("transfer")
    if args.transfer:
        if info is None:
            print("transfer: cold start (no compatible donors in the corpus)")
        else:
            donors = ", ".join(
                f"{d['dataset']}({d['similarity']:.2f})" for d in info["donors"]
            )
            print(
                f"transfer: warm start from {donors} — "
                f"{info['donor_records']} donor records, "
                f"budget {info['full_budget']}->{info['budget']} "
                f"({info['runs_saved']} runs saved)"
            )
    guideline = report.guidelines[args.priority]
    print(f"guideline: {guideline.describe()}")
    perf = nav.apply(guideline)
    print(f"measured : {perf.summary()}")
    return 0


def _read_specs(jobs: str) -> list[dict]:
    text = sys.stdin.read() if jobs == "-" else open(jobs).read()
    specs = json.loads(text)
    if not isinstance(specs, list):
        raise ServingError("job file must hold a JSON list of request specs")
    return specs


def _profiling_line(metrics: dict) -> str:
    """The one-line profiling summary of a server's metrics snapshot."""
    executed, trainings, hits, shared, deduplicated, evicted = (
        int(metrics.get(f"profiling_{name}", 0))
        for name in (
            "executed", "trainings", "cache_hits", "shared_inflight",
            "deduplicated", "evictions",
        )
    )
    fits, fit_hits, expired = (
        int(metrics.get(name, 0))
        for name in ("estimator_fits", "estimator_fit_hits", "results_expired")
    )
    return (
        f"profiling: {executed} runs ({trainings} trainings), {hits} cache hits, "
        f"{shared} shared in-flight, "
        f"{deduplicated} deduplicated, {evicted} evicted; "
        f"estimator: {fits} fits, {fit_hits} memo hits; "
        f"{expired} results expired"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import NavigationRequest, NavigationServer

    if args.jobs is None and args.port is None:
        raise ServingError("serve needs --jobs (batch mode), --port, or both")
    requests = []
    if args.jobs is not None:
        requests = [
            NavigationRequest.from_dict(spec) for spec in _read_specs(args.jobs)
        ]

    cache_dir = None
    if not args.no_store:
        cache_dir = args.cache_dir or str(default_store_dir())
    server = NavigationServer(
        workers=args.serve_workers,
        profile_workers=args.workers,
        cache_dir=cache_dir,
        fairness=args.fair,
        max_inflight=args.max_inflight_per_tenant,
        store_budget=args.store_budget,
        store_budget_bytes=args.store_budget_bytes,
        fleet_lease_ttl=args.lease_ttl,
        transfer=args.transfer,
    )
    where = f"{args.serve_workers} worker(s), store: {cache_dir or 'in-memory'}"
    code = 0
    with server:
        job_ids = server.submit_many(requests)
        if args.port is not None:
            if requests:
                print(f"pre-submitted {len(job_ids)} request(s) from the job file")
            _serve_network(server, args.host, args.port, where)
        else:
            print(f"serving {len(job_ids)} request(s) on {where}")
            jobs = server.drain()
            _print_job_table(jobs)
            code = 0 if all(j.status.value == "done" for j in jobs) else 1
    print(_profiling_line(server.metrics.snapshot()))
    return code


def _print_job_table(jobs: list) -> None:
    rows = []
    for job in jobs:
        req = job.request
        if job.status.value == "done":
            result = job.result
            outcome = "result expired" if result is None else result.best().describe()
        else:
            outcome = job.error or job.status.value
        rows.append(
            [
                job.job_id,
                f"{req.task.dataset}+{req.task.arch}",
                "/".join(req.priorities),
                str(req.priority),
                job.status.value,
                outcome,
            ]
        )
    print(
        render_table(
            ["job", "task", "objectives", "prio", "status", "outcome"],
            rows,
            title="served navigation jobs",
        )
    )


def _serve_network(server, host: str, port: int, where: str) -> None:
    """``repro serve --port``: expose the HTTP transport until interrupted."""
    from repro.serving.transport import NavigationHTTPServer

    transport = NavigationHTTPServer(server, host=host, port=port)
    print(f"serving on {transport.url} ({where})", flush=True)
    try:
        transport.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; draining running jobs...", flush=True)
    finally:
        transport.stop()


def _remote_client(args: argparse.Namespace):
    from repro.serving.transport import RemoteNavigationClient

    return RemoteNavigationClient(args.server, tenant=args.tenant)


def _print_outcome(client, job_id: str, timeout: float | None) -> bool:
    """Wait for one remote job; print its outcome; True when it succeeded."""
    from repro.errors import JobFailedError

    try:
        result = client.result(job_id, timeout)
    except JobFailedError as exc:
        print(f"{job_id} [failed] {exc.message}")
        if exc.traceback:
            print(exc.traceback.rstrip())
        return False
    except ServingError as exc:
        print(f"{job_id} [{exc}]")
        return False
    print(f"{job_id} [done] {result.best().describe()}")
    return True


def _follow(client, job_id: str, since: int = 0) -> bool:
    """Stream one job's events to stdout; True when it ended DONE."""
    last = None
    for event in client.watch(job_id, since=since):
        print(f"  #{event.seq} {event.describe()}", flush=True)
        last = event
    return last is not None and last.status == "done"


def _cmd_submit(args: argparse.Namespace) -> int:
    client = _remote_client(args)
    if args.jobs is not None:
        specs = _read_specs(args.jobs)
        from repro.serving import NavigationRequest

        handles = client.submit_many(
            [NavigationRequest.from_dict(spec) for spec in specs]
        )
    else:
        from repro.config import TaskSpec as _TaskSpec

        task = _TaskSpec(
            dataset=args.dataset,
            arch=args.arch,
            platform=args.platform,
            epochs=args.epochs,
        )
        handles = [
            client.submit(
                task,
                priorities=(args.priority,),
                budget=args.budget,
                profile_epochs=args.profile_epochs,
                priority=args.queue_priority,
            )
        ]
    for handle in handles:
        print(f"submitted {handle.job_id}")
    if args.follow:
        # live progress first, then the one-line outcome per job (the
        # result is already terminal once the stream ends, so the
        # outcome print below returns immediately).
        for handle in handles:
            _follow(client, handle.job_id)
    elif not args.wait:
        return 0
    ok = [_print_outcome(client, h.job_id, args.timeout) for h in handles]
    return 0 if all(ok) else 1


def _cmd_poll(args: argparse.Namespace) -> int:
    client = _remote_client(args)
    if args.wait:
        ok = [
            _print_outcome(client, job_id, args.timeout)
            for job_id in args.job_ids
        ]
        return 0 if all(ok) else 1
    code = 0
    for job_id in args.job_ids:
        snapshot = client.snapshot(job_id)
        line = f"{job_id} [{snapshot.status.value}]"
        if snapshot.error:
            line += f" {snapshot.error}"
            code = 1
        print(line)
    return code


def _cmd_watch(args: argparse.Namespace) -> int:
    client = _remote_client(args)
    ok = True
    for job_id in args.job_ids:
        ok = _follow(client, job_id, since=args.since) and ok
    return 0 if ok else 1


def _cmd_cancel(args: argparse.Namespace) -> int:
    client = _remote_client(args)
    for job_id in args.job_ids:
        taken = client.cancel(job_id)
        print(f"{job_id} {'cancelled' if taken else 'not cancellable'}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    snapshot = _remote_client(args).metrics()
    width = max((len(name) for name in snapshot), default=0)
    for name, value in snapshot.items():
        text = f"{value:g}" if isinstance(value, float) else str(value)
        print(f"{name:<{width}}  {text}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    metrics = _remote_client(args).metrics()
    print(_profiling_line(metrics))
    if metrics.get("store_persistent"):
        entries, nbytes = (
            int(metrics.get(f"store_{name}", 0)) for name in ("entries", "bytes")
        )
        print(f"store: {entries} entries, {nbytes} bytes")
    else:
        print("store: in-memory only")
    counts = {
        status: int(metrics.get(f"jobs_{status}", 0))
        for status in ("cancelled", "done", "failed", "pending", "running")
    }
    census = ", ".join(f"{n} {status}" for status, n in counts.items() if n)
    total = int(metrics.get("jobs_submitted", 0))
    print(f"jobs: {total} total" + (f" ({census})" if census else ""))
    return 0


def _cmd_executor(args: argparse.Namespace) -> int:
    from repro.serving.fleet import ProfilingExecutor

    executor = ProfilingExecutor(
        args.server,
        workers=args.workers,
        executor_id=args.executor_id,
        max_candidates=args.max_candidates,
        claim_timeout=args.claim_timeout,
    )
    executor.register()
    print(
        f"executor {executor.executor_id} joined {args.server} "
        f"({args.workers or 'serial'} profiling worker(s), "
        f"heartbeat every {executor.heartbeat_seconds:.1f}s)",
        flush=True,
    )
    try:
        # run() re-registers, which is idempotent under the same id; the
        # eager register above exists so the banner can name the id before
        # the loop blocks.
        executor.run()
    except KeyboardInterrupt:
        print("interrupted; leaving the fleet...", flush=True)
    finally:
        executor.stop()
    print(
        f"executor {executor.executor_id}: {executor.claimed} batches "
        f"claimed, {executor.runs} runs executed "
        f"({executor.service.stats.trainings} trainings), "
        f"{executor.committed} records committed"
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.serving.fleet import FleetClient

    status = FleetClient(args.server, tenant=args.tenant).fleet_status()
    rows = [
        [
            row["executor_id"],
            str(row["workers"]),
            f"{row['age_seconds']:.1f}s",
            str(row["claims"]),
            str(row["commits"]),
            str(row["lease_expiries"]),
            str(row["leased_keys"]),
        ]
        for row in status.executors
    ]
    print(
        render_table(
            ["executor", "workers", "last seen", "claims", "commits",
             "expiries", "leased"],
            rows,
            title=f"profiling fleet @ {args.server}",
        )
    )
    print(
        f"queue: {status.pending} candidate(s) pending, "
        f"{status.leased} leased"
    )
    return 0


def _cmd_templates(args: argparse.Namespace) -> int:
    task = TaskSpec(dataset=args.dataset, arch=args.arch, epochs=args.epochs)
    rows = []
    for name in template_names():
        report = RuntimeBackend(task, get_template(name)).train()
        rows.append(
            [
                name,
                f"{report.time_s * 1e3:.2f}",
                f"{report.memory.total / 2**20:.1f}",
                f"{report.accuracy * 100:.2f}%",
            ]
        )
    print(
        render_table(
            ["template", "T (ms)", "Γ (MiB)", "Acc"],
            rows,
            title=f"{task.dataset}+{task.arch}, {task.epochs} epochs",
        )
    )
    return 0


def _cmd_transfer(args: argparse.Namespace) -> int:
    from repro.runtime.parallel import ResultStore
    from repro.transfer import TransferCorpus

    store_dir = args.store or str(default_store_dir())
    corpus = TransferCorpus(ResultStore(store_dir))
    corpus.refresh()
    stats = corpus.stats()
    rows = [
        [
            fam["fingerprint_id"],
            fam["dataset"],
            fam["arch"],
            fam["platform"],
            str(fam["num_nodes"]),
            str(fam["num_edges"]),
            str(fam["records"]),
        ]
        for fam in stats["families"]
    ]
    print(
        render_table(
            ["fingerprint", "dataset", "arch", "platform", "|V|", "|E|", "records"],
            rows,
            title=f"transfer corpus @ {store_dir}",
        )
    )
    print(
        f"{stats['tasks']} task family(ies), {stats['records']} donor "
        f"record(s) indexed"
    )
    return 0


def _cmd_datasets() -> int:
    rows = []
    for spec in sorted({s.name: s for s in DATASETS.values()}.values(), key=lambda s: s.name):
        graph = load_dataset(spec.name)
        profile = graph.profile
        rows.append(
            [
                spec.name,
                "/".join(spec.aliases),
                str(profile.num_nodes),
                str(profile.num_edges),
                f"{profile.avg_degree:.1f}",
                str(profile.feature_dim),
                str(profile.num_classes),
            ]
        )
    print(
        render_table(
            ["dataset", "aliases", "|V|", "|E|", "avg deg", "n_attr", "classes"],
            rows,
            title="Synthetic dataset zoo (scaled stand-ins, see DESIGN.md)",
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "navigate":
        return _cmd_navigate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "poll":
        return _cmd_poll(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "cancel":
        return _cmd_cancel(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "executor":
        return _cmd_executor(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "templates":
        return _cmd_templates(args)
    if args.command == "transfer":
        return _cmd_transfer(args)
    if args.command == "lint":
        return run_lint(args)
    return _cmd_datasets()


if __name__ == "__main__":
    sys.exit(main())
