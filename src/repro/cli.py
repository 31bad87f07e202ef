"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands::

    repro debug "saffron scented candle" --dataset products
    repro search "widom trio" --dataset dblife       # classic KWS-S view
    repro trace "red candle" --budget-queries 50     # JSON-lines probe trace
    repro bench fig11 --scale 1 --level 5            # regenerate a figure
    repro serve --dataset dblife --port 8642         # multi-tenant HTTP service
    repro bench serve --json BENCH_serve.json        # concurrent-session QPS
    repro inspect --dataset dblife --scale 2         # dataset summary
    repro lint --dataset dblife --json               # static analysis
    repro cache stats --cache-dir .repro-cache       # persistent caches
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.backends import BACKEND_NAMES
from repro.bench.context import BenchContext
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.core.debugger import NonAnswerDebugger
from repro.datasets.dblife import DBLifeConfig, dblife_database
from repro.datasets.products import product_database
from repro.index import INDEX_NAMES
from repro.kws.discover import ClassicKWSSystem
from repro.obs import ProbeBudget, ProbeTracer, validate_trace_record
from repro.relational.predicates import MatchMode

STRATEGY_CHOICES = ("bu", "td", "buwr", "tdwr", "sbh")


def _load_database(args: argparse.Namespace):
    if args.dataset == "products":
        return product_database()
    return dblife_database(DBLifeConfig(seed=args.seed, scale=args.scale))


def _add_backend_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="memory",
        help=(
            "engine that answers aliveness probes: memory (in-memory "
            "Yannakakis engine) or sqlite (the generated SQL on a pooled "
            "sqlite3 mirror)"
        ),
    )
    parser.add_argument(
        "--index-backend",
        choices=INDEX_NAMES,
        default="memory",
        help=(
            "inverted index: memory (dict, fastest) or sqlite (disk-backed, "
            "flat RAM, persisted and repaired inside --cache-dir)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "persist probe results and status facts here, in one "
            "cache.sqlite (keyed by per-relation fingerprints, repaired "
            "after writes); a repeat run over an unchanged dataset skips "
            "its probes"
        ),
    )


def _add_dataset_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        choices=("products", "dblife"),
        default="products",
        help="which built-in dataset to query (default: products)",
    )
    parser.add_argument("--scale", type=int, default=1, help="dblife scale factor")
    parser.add_argument("--seed", type=int, default=42, help="dblife RNG seed")
    parser.add_argument(
        "--level", type=int, default=3, help="lattice levels (= max joins + 1)"
    )
    parser.add_argument(
        "--match",
        choices=("token", "substring"),
        default="token",
        help="keyword matching semantics",
    )


def _cmd_debug(args: argparse.Namespace) -> int:
    database = _load_database(args)
    debugger = NonAnswerDebugger(
        database,
        max_joins=args.level - 1,
        mode=MatchMode(args.match),
        strategy=args.strategy,
        use_lattice=not args.direct,
        free_copies=args.free_copies,
        backend=args.backend,
        cache_dir=args.cache_dir,
        index_backend=args.index_backend,
    )
    started = time.perf_counter()
    report = debugger.debug(args.query)
    elapsed = time.perf_counter() - started
    debugger.close()
    print(report.render(max_items=args.max_items))
    if args.diagnose and report.non_answers():
        from repro.core.diagnosis import render_diagnoses

        print()
        print(render_diagnoses(report))
    if args.rank and report.non_answers():
        from repro.core.ranking import ExplanationRanker

        print()
        print(ExplanationRanker(top_k=args.max_items).render(report))
    if args.save_report:
        from repro.core.persistence import save_report

        save_report(report, args.save_report)
        print(f"(report saved to {args.save_report})")
    print(f"(end-to-end {elapsed * 1000:.1f} ms)")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    database = _load_database(args)
    system = ClassicKWSSystem(
        database, max_joins=args.level - 1, mode=MatchMode(args.match)
    )
    answer = system.search(args.query)
    print(f'Classic KWS-S for "{args.query}":')
    if answer.is_non_answer:
        print("  No results found!  (this is the problem the paper addresses)")
    for query in answer.answers:
        print(f"  + {query.describe()}")
    print(
        f"  ({answer.candidate_networks} candidate networks, "
        f"{answer.queries_executed} SQL queries, {answer.elapsed * 1000:.1f} ms)"
    )
    return 0


def _make_budget(args: argparse.Namespace) -> ProbeBudget | None:
    if not (args.budget_queries or args.budget_simulated or args.budget_wall):
        return None
    return ProbeBudget(
        max_queries=args.budget_queries or None,
        max_simulated_seconds=args.budget_simulated or None,
        max_wall_seconds=args.budget_wall or None,
    )


def _render_aggregates(tracer: ProbeTracer) -> str:
    from repro.bench.tables import TextTable

    blocks = []
    for key, title in (
        ("level", "Probe spans by lattice level"),
        ("strategy", "Probe spans by traversal strategy"),
    ):
        rows = tracer.aggregate(key)
        if not rows:
            continue
        table = TextTable(
            title,
            [key, "probes", "executed", "cache hits", "wall s", "simulated s"],
        )
        for row in rows:
            table.add_row(
                row[key],
                row["probes"],
                row["executed"],
                row["cache_hits"],
                row["wall_seconds"],
                row["simulated_seconds"],
            )
        blocks.append(table.render())
    return "\n\n".join(blocks)


def _cmd_trace_check(args: argparse.Namespace) -> int:
    """``repro trace check FILE``: schema + runtime-invariant validation."""
    from repro.obs import check_trace_file
    from repro.obs.trace import TraceValidationError, validate_trace_file

    if not args.path:
        print("trace check: missing trace file argument", file=sys.stderr)
        return 2
    max_queries = args.budget_queries if args.budget_queries > 0 else None
    try:
        counts = validate_trace_file(args.path)
        violations = check_trace_file(args.path, max_queries=max_queries)
    except TraceValidationError as error:
        print(f"trace check: schema error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"trace check: cannot read {args.path}: {error}", file=sys.stderr)
        return 2
    for violation in violations:
        print(violation.render())
    print(
        f"trace check: {counts['span']} spans, {counts['event']} events, "
        f"{len(violations)} invariant violation(s)",
        file=sys.stderr,
    )
    return 0 if not violations else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.query == "check":
        return _cmd_trace_check(args)
    if args.path:
        print(
            "trace: unexpected extra argument (did you mean 'trace check "
            "FILE'?)",
            file=sys.stderr,
        )
        return 2
    database = _load_database(args)
    tracer = ProbeTracer()
    budget = _make_budget(args)
    debugger = NonAnswerDebugger(
        database,
        max_joins=args.level - 1,
        mode=MatchMode(args.match),
        strategy=args.strategy,
        use_lattice=not args.direct,
        tracer=tracer,
        backend=args.backend,
        cache_dir=args.cache_dir,
        index_backend=args.index_backend,
    )
    report = debugger.debug(args.query, budget=budget)
    debugger.close()
    for record in tracer.records:
        validate_trace_record(record.to_dict())
    lines = tracer.to_jsonl()
    if args.output:
        count = tracer.write_jsonl(args.output)
        print(f"wrote {count} trace records to {args.output}")
    elif lines:
        print(lines)
    status = (
        f"trace: {tracer.span_count} spans "
        f"({tracer.executed_span_count} executed, "
        f"{tracer.span_count - tracer.executed_span_count} cache hits), "
        f"{len(tracer.events)} events, {tracer.dropped} dropped"
    )
    if report.exhausted:
        status += "; probe budget exhausted (partial result)"
    print(status, file=sys.stderr)
    if args.summary:
        summary = _render_aggregates(tracer)
        if summary:
            print(summary, file=sys.stderr)
    return 0


def _write_bench_json(args: argparse.Namespace, payload: dict) -> None:
    if not args.json:
        return
    import json

    from repro.ioutil import atomic_write_text

    atomic_write_text(args.json, json.dumps(payload, indent=2) + "\n")
    print(f"(wrote results to {args.json})")


def _cmd_bench(args: argparse.Namespace) -> int:
    context = BenchContext.create(scale=args.scale, seed=args.seed)
    if args.trace:
        context.tracer = ProbeTracer()
    if args.experiment == "scale":
        from repro.bench.scale import DEFAULT_TUPLE_TARGETS, run_scale_bench

        targets = DEFAULT_TUPLE_TARGETS
        if args.tuples:
            targets = tuple(int(item) for item in args.tuples.split(","))
        started = time.perf_counter()
        table, payload = run_scale_bench(targets=targets, seed=args.seed)
        print(table.render())
        print(f"(ran in {time.perf_counter() - started:.1f} s)")
        _write_bench_json(args, payload)
        return 0 if payload["passed"] else 1
    if args.experiment == "serve":
        from repro.bench.serve import (
            DEFAULT_BENCH_LEVEL,
            DEFAULT_CONCURRENT_CLIENTS,
            run_serve_bench,
        )

        started = time.perf_counter()
        table, payload = run_serve_bench(
            context,
            level=args.level or DEFAULT_BENCH_LEVEL,
            clients=args.workers or DEFAULT_CONCURRENT_CLIENTS,
        )
        print(table.render())
        print(f"(ran in {time.perf_counter() - started:.1f} s)")
        _write_bench_json(args, payload)
        return 0 if payload["passed"] else 1
    kwargs = {}
    if args.level:
        if args.experiment in ("fig9a", "fig9b"):
            kwargs["max_level"] = args.level
        elif args.experiment in ("table3", "fig13"):
            kwargs["levels"] = tuple(
                level for level in (3, 5, 7) if level <= args.level
            )
        elif args.experiment != "scaling":
            kwargs["level"] = args.level
    started = time.perf_counter()
    table = run_experiment(args.experiment, context, **kwargs)
    print(table.render())
    print(f"(ran in {time.perf_counter() - started:.1f} s)")
    if args.trace and context.tracer is not None:
        count = context.tracer.write_jsonl(args.trace)
        print(f"(wrote {count} trace records to {args.trace})")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Exit contract: 0 = clean, 1 = diagnostics found, 2 = internal error."""
    from repro.analysis import LintOptions, normalize_select, run_lint

    try:
        select = normalize_select(args.select)
        report = run_lint(
            LintOptions(
                dataset=args.dataset,
                level=args.level,
                check_plan=not args.no_plan,
                check_repo=not args.no_repo,
                src_root=args.src_root,
                select=select,
            )
        )
    except Exception as error:  # noqa: BLE001 - the exit-code contract
        print(f"lint: internal error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import clear_cache_dir, inspect_cache_dir

    if args.action == "clear":
        removed = clear_cache_dir(args.cache_dir)
        print(
            f"removed {removed['probes']} cached probe(s) and {removed['facts']} "
            f"status fact(s) of {removed['workloads']} workload(s) "
            f"from {args.cache_dir}"
        )
        return 0
    info = inspect_cache_dir(args.cache_dir)
    if args.json:
        import json

        print(json.dumps(info, indent=2))
        return 0
    status = info["status"]
    print(f"status cache: {status['workloads']} workload(s), {status['facts']} fact(s)")
    if not info["exists"]:
        print(f"no probe cache at {info['path']}")
        return 0
    print(f"probe cache: {info['path']}")
    print(f"  size: {info['size_bytes']} bytes, entries: {info['entries']}")
    for vector, counts in info["vectors"].items():
        print(
            f"  vector {vector[:16]}... [{counts['relations']}]: "
            f"{counts['entries']} entries ({counts['alive']} alive)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant debugging service until interrupted.

    Ctrl-C stops the listener first (no new sessions race the drain),
    then shuts the manager down: active sessions finish, the final
    ``service_shutdown`` / ``pool_stats`` trace events are emitted, and
    the combined event log (every session the service ran) is exported
    when ``--event-log`` is set.
    """
    from repro.service import ServiceApp, ServiceServer, SessionManager

    database = _load_database(args)
    debugger = NonAnswerDebugger(
        database,
        max_joins=args.level - 1,
        mode=MatchMode(args.match),
        strategy=args.strategy,
        use_lattice=not args.direct,
        backend=args.backend,
        cache_dir=args.cache_dir,
        index_backend=args.index_backend,
    )
    manager = SessionManager(
        debugger, workers=args.workers, session_ttl=args.session_ttl
    )
    server = ServiceServer(ServiceApp(manager), host=args.host, port=args.port)
    server.start()
    print(
        f"repro service on {server.address} "
        f"(dataset={args.dataset}, backend={args.backend}, "
        f"workers={args.workers})"
    )
    print("POST /sessions to submit; Ctrl-C drains sessions and exits.")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("shutting down: draining active sessions...", file=sys.stderr)
    finally:
        server.stop()
        summary = manager.shutdown(drain=True, export_path=args.event_log)
        print(
            f"served {summary['sessions_served']} session(s), "
            f"{summary['active_sessions']} left active",
            file=sys.stderr,
        )
        if args.event_log:
            print(f"(event log exported to {args.event_log})", file=sys.stderr)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    database = _load_database(args)
    print(database.summary())
    from repro.index.inverted import InvertedIndex

    index = InvertedIndex(database)
    print(f"inverted index: {index.vocabulary_size} distinct tokens")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On Debugging Non-Answers in Keyword Search "
            "Systems' (EDBT 2015)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    debug = commands.add_parser("debug", help="explain non-answers for a query")
    debug.add_argument("query", help="keyword query, e.g. 'saffron scented candle'")
    _add_dataset_options(debug)
    debug.add_argument(
        "--strategy",
        choices=STRATEGY_CHOICES,
        default="sbh",
        help="lattice traversal strategy",
    )
    debug.add_argument(
        "--direct",
        action="store_true",
        help="skip Phase 0 and generate the pruned lattice per query",
    )
    debug.add_argument("--max-items", type=int, default=10)
    debug.add_argument(
        "--diagnose",
        action="store_true",
        help="append root-cause diagnosis (minimal dead sub-queries + fixes)",
    )
    debug.add_argument(
        "--rank",
        action="store_true",
        help="append priority-ordered explanations",
    )
    debug.add_argument(
        "--save-report", metavar="PATH", help="write the report as JSON"
    )
    debug.add_argument(
        "--free-copies",
        type=int,
        default=1,
        help="free copies per relation (>1 enables the multi-free extension)",
    )
    _add_backend_options(debug)
    debug.set_defaults(func=_cmd_debug)

    search = commands.add_parser("search", help="classic KWS-S (answers only)")
    search.add_argument("query")
    _add_dataset_options(search)
    search.set_defaults(func=_cmd_search)

    trace = commands.add_parser(
        "trace",
        help="run a query and emit a JSON-lines probe trace",
        description=(
            "Run the debugging pipeline with the structured tracer attached: "
            "every aliveness probe becomes one JSON span (lattice level, "
            "keywords, backend, wall + simulated cost, cache hit/miss, "
            "remaining budget), budget refusals and sweep boundaries become "
            "events.  JSON-lines go to stdout (or --output); status and "
            "--summary tables go to stderr so stdout stays machine-readable."
        ),
    )
    trace.add_argument(
        "query",
        help="keyword query to trace (or 'check' to validate a trace file)",
    )
    trace.add_argument(
        "path",
        nargs="?",
        default=None,
        help="with 'check': JSON-lines trace file to validate against the "
        "schema and runtime invariants (--budget-queries sets the "
        "expected per-traversal cap)",
    )
    _add_dataset_options(trace)
    trace.add_argument(
        "--strategy",
        choices=STRATEGY_CHOICES,
        default="sbh",
        help="lattice traversal strategy",
    )
    trace.add_argument(
        "--direct",
        action="store_true",
        help="skip Phase 0 and generate the pruned lattice per query",
    )
    trace.add_argument(
        "--budget-queries",
        type=int,
        default=0,
        metavar="N",
        help="stop after N executed probes (0 = unlimited)",
    )
    trace.add_argument(
        "--budget-simulated",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="deadline in simulated (cost-model) seconds (0 = unlimited)",
    )
    trace.add_argument(
        "--budget-wall",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="deadline in measured backend seconds (0 = unlimited)",
    )
    trace.add_argument(
        "--output", metavar="PATH", help="write the JSON-lines trace here"
    )
    trace.add_argument(
        "--summary",
        action="store_true",
        help="print per-level / per-strategy aggregation tables (stderr)",
    )
    _add_backend_options(trace)
    trace.set_defaults(func=_cmd_trace)

    bench = commands.add_parser("bench", help="regenerate a paper table/figure")
    bench.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["scale", "scaling", "serve"],
    )
    bench.add_argument("--scale", type=int, default=1)
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument(
        "--tuples",
        metavar="N,N,...",
        default="",
        help=(
            "comma-separated tuple targets for the 'scale' experiment "
            "(default: 10000,100000,1000000)"
        ),
    )
    bench.add_argument("--level", type=int, default=0, help="override lattice level")
    bench.add_argument(
        "--workers",
        type=int,
        default=4,
        help=(
            "closed-loop clients (and session slots) of the 'serve' "
            "experiment's concurrent pass (default: 4)"
        ),
    )
    bench.add_argument(
        "--json",
        metavar="PATH",
        help=(
            "write the 'serve' or 'scale' experiment payload as JSON "
            "(e.g. BENCH_serve.json)"
        ),
    )
    bench.add_argument(
        "--trace",
        metavar="PATH",
        help="record every probe and write a JSON-lines trace here",
    )
    bench.set_defaults(func=_cmd_bench)

    serve = commands.add_parser(
        "serve",
        help="run the debugging pipeline as a multi-tenant HTTP service",
        description=(
            "Serve non-answer debugging over HTTP: POST /sessions submits "
            "a keyword query, GET /sessions/<id>/stream follows its "
            "trace-schema event log as chunked JSON-lines until the "
            "terminal event, GET /sessions/<id>/result returns answers, "
            "non-answers, and MPANs.  Sessions run concurrently on a "
            "worker pool sharing the backend connection pool and (with "
            "--cache-dir) the persistent cache store, so repeat "
            "queries skip Phase 3 entirely.  Ctrl-C drains active "
            "sessions before exiting."
        ),
    )
    _add_dataset_options(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (0 = ephemeral; default: 8642)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="concurrent session slots (default: 4)",
    )
    serve.add_argument(
        "--strategy",
        choices=STRATEGY_CHOICES,
        default="sbh",
        help="default traversal strategy (per-session override via POST)",
    )
    serve.add_argument(
        "--direct",
        action="store_true",
        help="skip Phase 0 and generate the pruned lattice per query",
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="evict finished sessions after this long (default: keep)",
    )
    serve.add_argument(
        "--event-log",
        metavar="PATH",
        help="export the combined JSON-lines event log on shutdown",
    )
    _add_backend_options(serve)
    serve.set_defaults(func=_cmd_serve)

    inspect = commands.add_parser("inspect", help="summarize a dataset")
    _add_dataset_options(inspect)
    inspect.set_defaults(func=_cmd_inspect)

    lint = commands.add_parser(
        "lint",
        help="static analysis: plan/lattice/SQL diagnostics plus repo AST lint",
        description=(
            "Verify the pipeline's structural invariants without running a "
            "query: lattice nodes must be connected FK-backed trees with "
            "valid keyword slots (PLAN001-PLAN007), every rendered SQL "
            "template must pass a sqlite prepare-only dry run with "
            "identifiers correctly quoted (SQL001-SQL002), and the source "
            "tree must respect the determinism/typing rules (LINT001-LINT004), "
            "the lock discipline of the thread-shared probe-path classes "
            "(CONC001-CONC004), and the owned lifecycles of pooled/sqlite/"
            "file resources (RES001-RES003).  Exit codes: 0 = clean, 1 = "
            "diagnostics found, 2 = internal error."
        ),
    )
    lint.add_argument(
        "--dataset",
        choices=("products", "dblife"),
        default="products",
        help="dataset whose schema/lattice to lint (default: products)",
    )
    lint.add_argument(
        "--level", type=int, default=3, help="lattice levels (= max joins + 1)"
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable diagnostics"
    )
    lint.add_argument(
        "--no-plan",
        action="store_true",
        help="skip the plan/lattice/SQL layer",
    )
    lint.add_argument(
        "--no-repo",
        action="store_true",
        help="skip the repo AST layer",
    )
    lint.add_argument(
        "--select",
        metavar="FAMILIES",
        default=None,
        help="comma-separated code families to run (PLAN,SQL,LINT,CONC,RES; "
        "default: all)",
    )
    lint.add_argument(
        "--src-root",
        metavar="DIR",
        default=None,
        help="source tree for the per-file passes (default: this install)",
    )
    lint.set_defaults(func=_cmd_lint)

    cache = commands.add_parser(
        "cache",
        help="inspect or clear the persistent cache store",
        description=(
            "Operate on a cache directory (see --cache-dir on the "
            "debug/trace commands): 'stats' summarizes cache.sqlite's "
            "per-fingerprint probe counts and its workload and status "
            "fact counts, 'clear' empties it (the index file holds no "
            "answers and stays).  Neither needs the dataset loaded."
        ),
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir",
        metavar="DIR",
        required=True,
        help="the cache directory to operate on",
    )
    cache.add_argument(
        "--json", action="store_true", help="machine-readable stats output"
    )
    cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
