"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``run``      run one MIS algorithm on a generated workload and print the
             validated result plus (for arb-mis) the stage report;
``sweep``    compare several algorithms over an n-grid, printing the
             iterations table the benchmarks also produce; fans grid
             points out over a process pool (``--workers``, ``--serial``),
             resumes from a JSONL results store (``--cache``), and can
             report live progress (``--progress``);
``certify``  compute the arboricity certificate of a workload
             (pseudoarboricity, Nash–Williams bound, forest partition);
``lint``     run the model-compliance (R1–R5) and engine-safety (S1–S5)
             static analyzer (docs/model_compliance.md) over the tree;
``obs``      inspect recorded run telemetry (``tail`` / ``summary`` /
             ``diff`` / ``trace`` / ``top`` over manifest + JSONL
             artifacts, docs/observability.md);
``list``     list registered algorithms and graph families.

``run`` and ``sweep`` take ``--obs-dir`` (or honor ``REPRO_OBS_DIR``) to
emit a run manifest plus a JSONL event stream that ``repro obs`` can
reconstruct the run from afterwards; add ``--trace`` (or
``REPRO_OBS_TRACE=1``) to also record hierarchical timing spans for
``repro obs trace`` / ``repro obs top``.  All progress/telemetry chatter goes
to stderr; stdout carries only the machine-readable result tables.

Examples
--------
::

    python -m repro run --family arb --alpha 3 --n 2000 --algorithm arb-mis
    python -m repro sweep --family tree --sizes 256,512,1024 --algorithms metivier,luby-b
    python -m repro sweep --family arb --sizes 4096,8192 --cache results/sweep.jsonl --progress
    python -m repro sweep --family tree --sizes 512 --obs-dir results/obs
    python -m repro obs summary results/obs
    python -m repro certify --family planar --n 500
    python -m repro lint --format json
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import render_rows

__all__ = ["main", "build_parser"]

_FAMILIES = {
    "tree": lambda n, seed, args: _gen().random_tree(n, seed),
    "arb": lambda n, seed, args: _gen().bounded_arboricity_graph(n, args.alpha, seed),
    "starry": lambda n, seed, args: _gen().starry_arboricity_graph(n, args.alpha, args.hubs, seed),
    "planar": lambda n, seed, args: _gen().random_maximal_planar_graph(max(3, n), seed),
    "grid": lambda n, seed, args: _gen().grid_graph(
        max(1, int(round(n**0.5))), max(1, int(round(n**0.5)))
    ),
    "gnp": lambda n, seed, args: _gen().gnp_graph(n, args.p, seed),
    "ktree": lambda n, seed, args: _gen().k_tree(max(args.alpha + 1, n), args.alpha, seed),
}


def _gen():
    from repro.graphs import generators

    return generators


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Read-k MIS: distributed MIS on bounded-arboricity graphs "
        "(Pemmaraju & Riaz, PODC 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p):
        p.add_argument("--family", choices=sorted(_FAMILIES), default="arb")
        p.add_argument("--n", type=int, default=1000)
        p.add_argument("--alpha", type=int, default=3, help="arboricity parameter")
        p.add_argument("--hubs", type=int, default=4, help="hubs for the starry family")
        p.add_argument("--p", type=float, default=0.05, help="edge probability for gnp")
        p.add_argument("--seed", type=int, default=0)

    def add_obs_args(p):
        p.add_argument(
            "--obs-dir",
            default=None,
            help="emit a run manifest + JSONL event stream under this "
            "directory (default: $REPRO_OBS_DIR when set)",
        )
        p.add_argument(
            "--trace",
            action="store_true",
            help="record hierarchical spans (run/round/kernel wall + CPU "
            "time) into the event stream; needs an obs directory; also "
            "settable via REPRO_OBS_TRACE=1 (docs/observability.md)",
        )

    def add_engine_args(p):
        p.add_argument(
            "--engine",
            choices=("scalar", "bulk", "mpc"),
            default=None,
            help="engine variant for registered algorithms (bit-identical "
            "results; default: $REPRO_MIS_ENGINE); 'scalar' and 'bulk' both "
            "run the one columnar engine, 'mpc' runs the sharded runtime "
            "(docs/mpc_runtime.md)",
        )
        p.add_argument(
            "--shards",
            type=int,
            default=None,
            metavar="K",
            help="shard count for --engine mpc "
            "(default: $REPRO_MPC_SHARDS, else 4)",
        )

    run = sub.add_parser("run", help="run one algorithm on one workload")
    add_workload_args(run)
    run.add_argument("--algorithm", default="arb-mis")
    add_engine_args(run)
    run.add_argument(
        "--profile", choices=("practical", "paper"), default="practical"
    )
    run.add_argument(
        "--finishing", choices=("metivier", "linial"), default="metivier"
    )
    run.add_argument("--report", action="store_true", help="print the stage report")
    fault = run.add_argument_group(
        "fault injection",
        "any of these switches the run onto the CONGEST fault path "
        "(docs/fault_model.md): the node program executes through the "
        "synchronous simulator under the given crash schedule and message "
        "adversary, and the output is validated (and repaired) as an MIS "
        "of the surviving subgraph",
    )
    fault.add_argument(
        "--crash",
        action="append",
        default=None,
        metavar="ROUND:NODE[,NODE...]",
        help="crash the listed nodes at the start of ROUND (repeatable)",
    )
    fault.add_argument(
        "--recover",
        action="append",
        default=None,
        metavar="ROUND:NODE[,NODE...]",
        help="recover the listed crashed nodes (wiped state) at ROUND "
        "(repeatable)",
    )
    fault.add_argument(
        "--drop-rate", type=float, default=0.0, metavar="P",
        help="drop each delivered message with probability P",
    )
    fault.add_argument(
        "--dup-rate", type=float, default=0.0, metavar="P",
        help="duplicate each delivered message with probability P",
    )
    fault.add_argument(
        "--delay-rate", type=float, default=0.0, metavar="P",
        help="defer each delivered message 1-2 rounds with probability P",
    )
    fault.add_argument(
        "--corrupt-rate", type=float, default=0.0, metavar="P",
        help="bit-flip each delivered payload with probability P",
    )
    fault.add_argument(
        "--no-repair",
        action="store_true",
        help="skip the self-healing repair pass (measure raw degradation)",
    )
    add_obs_args(run)

    sweep = sub.add_parser("sweep", help="compare algorithms over an n-grid")
    add_workload_args(sweep)
    sweep.add_argument("--sizes", default="256,512,1024")
    sweep.add_argument("--algorithms", default="metivier,luby-b,arb-mis")
    sweep.add_argument("--seeds", default="0,1,2")
    add_engine_args(sweep)
    sweep.add_argument(
        "--workers", type=int, default=None, help="process-pool size (default: cpu count)"
    )
    sweep.add_argument(
        "--serial", action="store_true", help="run in-process (the debugging path)"
    )
    sweep.add_argument(
        "--cache", default=None, help="JSONL results store; reruns and interrupted sweeps resume from it"
    )
    sweep.add_argument(
        "--progress",
        action="store_true",
        help="print live progress telemetry to stderr (stdout stays "
        "machine-readable)",
    )
    sweep.add_argument(
        "--on-error",
        choices=("fail-fast", "continue", "retry"),
        default=None,
        help="what to do when a cell errors out: re-raise after draining "
        "(fail-fast, the default), record + move on (continue), or record "
        "+ re-attempt on resume (retry); default: $REPRO_SWEEP_ON_ERROR",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="extra attempts per failing cell, with deterministic "
        "exponential backoff; default: $REPRO_SWEEP_RETRIES",
    )
    sweep.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; overrunning cells are abandoned "
        "(parallel) or discarded (serial) and recorded as failures; "
        "default: $REPRO_SWEEP_CELL_TIMEOUT",
    )
    add_obs_args(sweep)

    certify = sub.add_parser("certify", help="arboricity certificate of a workload")
    add_workload_args(certify)

    export = sub.add_parser(
        "export", help="run a sweep and write the raw points to CSV/JSON"
    )
    add_workload_args(export)
    export.add_argument("--sizes", default="256,512,1024")
    export.add_argument("--algorithms", default="metivier,luby-b")
    export.add_argument("--seeds", default="0,1,2")
    export.add_argument("--output", required=True, help=".csv, .json or .jsonl path")

    workload = sub.add_parser(
        "workload", help="generate a workload and save it as a JSON artifact"
    )
    add_workload_args(workload)
    workload.add_argument("--output", required=True, help=".json path")

    lint = sub.add_parser(
        "lint",
        help="model-compliance and engine-safety static analysis "
        "(rules R1-R5, S1-S5)",
    )
    lint.add_argument("paths", nargs="*", help="files or directories to lint")
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    lint.add_argument("--select", action="append", default=[], metavar="RULES")
    lint.add_argument("--disable", action="append", default=[], metavar="RULES")
    lint.add_argument("--baseline", default=None, metavar="FILE")
    lint.add_argument("--write-baseline", default=None, metavar="FILE")
    lint.add_argument("--strict-baseline", action="store_true")
    lint.add_argument("--config", default=None, metavar="PYPROJECT")
    lint.add_argument("--no-config", action="store_true")

    obs = sub.add_parser(
        "obs",
        help="inspect recorded run telemetry (tail/summary/diff/trace/top)",
    )
    obs.add_argument(
        "obs_args",
        nargs=argparse.REMAINDER,
        help="forwarded to the obs CLI, e.g. `summary results/obs`",
    )

    serve = sub.add_parser(
        "serve",
        help="run the MIS-as-a-service layer (HTTP front end or a "
        "deterministic --smoke loadgen burst)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321)
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="drive the seeded load generator against an in-process "
        "service instead of listening (the CI serve-smoke mode)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--nodes", type=int, default=60)
    serve.add_argument("--edge-p", type=float, default=0.08)
    serve.add_argument("--epochs", type=int, default=20)
    serve.add_argument("--churn", type=int, default=4)
    serve.add_argument(
        "--open-loop",
        action="store_true",
        help="smoke mode: submit on the seeded arrival schedule "
        "concurrently instead of lockstep",
    )
    serve.add_argument(
        "--time-scale",
        type=float,
        default=0.0,
        help="smoke mode: workload-second to wall-second factor "
        "(0 = burst everything at once)",
    )
    serve.add_argument(
        "--deadline-violations",
        type=int,
        default=0,
        help="smoke mode: submit this many mutate requests with an "
        "already-expired deadline",
    )
    serve.add_argument(
        "--engine-failures",
        type=int,
        default=0,
        help="smoke mode: inject this many engine failures before driving",
    )
    serve.add_argument("--obs-dir", default=None)
    serve.add_argument("--trace", action="store_true")

    sub.add_parser("list", help="list algorithms and graph families")
    return parser


def _build_graph(args):
    return _FAMILIES[args.family](args.n, args.seed, args)


def _run_algorithm(name: str, graph, args, observer=None, session=None):
    import inspect

    from repro.mis.registry import get_algorithm

    fn = get_algorithm(name, engine=getattr(args, "engine", None))
    kwargs = {}
    if name == "arb-mis":
        kwargs = {
            "alpha": args.alpha,
            "profile": getattr(args, "profile", "practical"),
            "finishing_strategy": getattr(args, "finishing", "metivier"),
        }
        if observer is not None:
            kwargs["observer"] = observer
    # ``--shards`` only reaches engines that understand it (names without
    # an mpc twin fall back to the plain engine and must not see the knob).
    if getattr(args, "shards", None) and fn.__module__ == "repro.mpc.engines":
        kwargs["shards"] = args.shards
    if session is not None:
        if fn.__module__ == "repro.mpc.engines":
            # The sharded runtime emits its own mpc-round/mpc-run-end
            # telemetry (and spans, when tracing) through the session.
            kwargs["obs"] = session
        elif (
            session.tracer is not None
            and "tracer" in inspect.signature(fn).parameters
        ):
            kwargs["tracer"] = session.tracer
    return fn(graph, seed=args.seed, **kwargs)


def _obs_session(args, kind: str, params):
    """Session from ``--obs-dir`` or ``$REPRO_OBS_DIR``; None when off."""
    import os

    from repro.obs.session import (
        TRACE_ENV,
        ObsSession,
        session_from_env,
        trace_enabled_from_env,
    )

    if getattr(args, "trace", False):
        # Export the knob so nested sessions (pool workers, benchmarks
        # invoked downstream) inherit the tracing decision.
        os.environ[TRACE_ENV] = "1"
    seed = getattr(args, "seed", None)
    if getattr(args, "obs_dir", None):
        return ObsSession.create(
            args.obs_dir,
            kind=kind,
            seed=seed,
            params=params,
            trace=bool(getattr(args, "trace", False)) or trace_enabled_from_env(),
        )
    session = session_from_env(kind, seed=seed, params=params)
    if session is None and getattr(args, "trace", False):
        sys.stderr.write(
            "[obs] --trace has no effect without --obs-dir or REPRO_OBS_DIR\n"
        )
    return session


def _fault_config(args):
    """CrashSchedule + composed adversary from the CLI fault knobs.

    Returns ``(None, None)`` when every knob is at its fault-free default,
    which keeps ``repro run`` on the fast registry-engine path.
    """
    from repro.congest.faults import (
        CorruptAdversary,
        CrashSchedule,
        DelayAdversary,
        DropAdversary,
        DuplicateAdversary,
        compose,
    )

    schedule = None
    if args.crash or args.recover:
        schedule = CrashSchedule.parse(args.crash or (), args.recover or ())
    adversaries = []
    if args.drop_rate:
        adversaries.append(DropAdversary(args.drop_rate))
    if args.dup_rate:
        adversaries.append(DuplicateAdversary(args.dup_rate))
    if args.delay_rate:
        adversaries.append(DelayAdversary(args.delay_rate))
    if args.corrupt_rate:
        adversaries.append(CorruptAdversary(args.corrupt_rate))
    adversary = compose(*adversaries) if adversaries else None
    return schedule, adversary


def _cmd_run_faulted(args, schedule, adversary) -> int:
    from repro.mis.faulted import run_under_faults

    graph = _build_graph(args)
    print(
        f"workload: {args.family} n={graph.number_of_nodes()} "
        f"m={graph.number_of_edges()} seed={args.seed}"
    )
    params = {"family": args.family, "n": args.n, "algorithm": args.algorithm}
    if adversary is not None:
        params["adversary"] = adversary.name
    if schedule is not None:
        # The sorted-items view makes the schedule reconstructible from the
        # manifest alone (and canonical, so same-seed manifests diff clean).
        params["crashes"] = [
            [r, list(nodes)] for r, nodes in schedule.as_sorted_items()
        ]
        recoveries = schedule.recoveries_as_sorted_items()
        if recoveries:
            params["recoveries"] = [[r, list(nodes)] for r, nodes in recoveries]
    session = _obs_session(args, "run", params=params)
    observer = None
    if session is not None:
        from repro.obs.session import SimulatorObserver

        observer = SimulatorObserver(session)
    result = run_under_faults(
        graph,
        algorithm=args.algorithm,
        seed=args.seed,
        adversary=adversary,
        crash_schedule=schedule,
        alpha=args.alpha,
        repair_output=not args.no_repair,
        observer=observer,
        tracer=session.tracer if session is not None else None,
    )
    if session is not None:
        session.finish()
        sys.stderr.write(f"[obs] wrote {session.directory}\n")
    print(result.summary())
    if result.repair is not None:
        print(
            f"repair: evicted={len(result.repair.evicted)} "
            f"added={len(result.repair.added)} "
            f"rounds={result.repair.repair_rounds}"
        )
    return 0 if result.ok else 1


def _cmd_run(args) -> int:
    from repro.mis.validation import assert_valid_mis

    schedule, adversary = _fault_config(args)
    if schedule is not None or adversary is not None:
        return _cmd_run_faulted(args, schedule, adversary)

    graph = _build_graph(args)
    print(
        f"workload: {args.family} n={graph.number_of_nodes()} "
        f"m={graph.number_of_edges()} seed={args.seed}"
    )
    session = _obs_session(
        args,
        "run",
        params={"family": args.family, "n": args.n, "algorithm": args.algorithm},
    )
    if session is None:
        result = _run_algorithm(args.algorithm, graph, args)
    else:
        from repro.obs.events import EVENT_RUN_END, EVENT_RUN_START
        from repro.obs.session import emit_run_metrics

        session.emit(
            EVENT_RUN_START,
            nodes=graph.number_of_nodes(),
            seed=args.seed,
            algorithm=args.algorithm,
        )
        with session.phase("algorithm"):
            result = _run_algorithm(
                args.algorithm, graph, args, observer=session, session=session
            )
        if result.metrics is not None:
            emit_run_metrics(session, result.metrics)
        else:
            # Fast-engine result: no per-round wire metrics, but the
            # measured round count is still reconstructible.
            session.emit(
                EVENT_RUN_END,
                rounds=result.congest_rounds or 0,
                iterations=result.iterations,
                mis_size=len(result.mis),
                halted=True,
            )
        session.finish()
        sys.stderr.write(f"[obs] wrote {session.directory}\n")
    assert_valid_mis(graph, result.mis)
    print(result.summary() + "  [validated]")
    if args.report and "report" in result.extra:
        print(result.extra["report"].stage_summary())
    return 0


def _sweep_spec(args):
    """Translate the CLI workload arguments into a sweep GraphSpec."""
    from repro.graphs.generators import GraphSpec

    if args.family == "arb":
        return GraphSpec("arb", (args.alpha,))
    if args.family == "starry":
        return GraphSpec("starry", (args.alpha, args.hubs))
    if args.family == "gnp":
        return GraphSpec("gnp", (args.p,))
    if args.family == "ktree":
        return GraphSpec("ktree", (args.alpha,))
    return GraphSpec(args.family)


def _failure_policy(args):
    """Explicit ``--on-error/--retries/--cell-timeout`` → FailurePolicy.

    Returns None when none is given, letting the runner read the
    ``REPRO_SWEEP_*`` environment knobs instead.
    """
    if args.on_error is None and args.retries is None and args.cell_timeout is None:
        return None
    from repro.analysis.runner import FailurePolicy

    base = FailurePolicy.from_env()
    return FailurePolicy(
        on_error=args.on_error if args.on_error is not None else base.on_error,
        retries=args.retries if args.retries is not None else base.retries,
        cell_timeout=args.cell_timeout
        if args.cell_timeout is not None
        else base.cell_timeout,
    )


def _cmd_sweep(args) -> int:
    from repro.analysis.sweep import run_sweep
    from repro.mis.registry import get_algorithm

    sizes = [int(s) for s in args.sizes.split(",") if s]
    names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    spec = _sweep_spec(args)
    algorithms = {
        name: get_algorithm(name, engine=args.engine) for name in names
    }
    algorithm_kwargs = {}
    if "arb-mis" in algorithms:
        algorithm_kwargs["arb-mis"] = {"alpha": args.alpha}
    if args.shards:
        for name, fn in algorithms.items():
            if fn.__module__ == "repro.mpc.engines":
                algorithm_kwargs.setdefault(name, {})["shards"] = args.shards

    progress = None
    if args.progress:
        # Progress is telemetry, not output: it goes to stderr so that
        # piping stdout into a file yields only the result table.
        def progress(p):
            sys.stderr.write("\r[sweep] " + p.render())
            sys.stderr.flush()

    session = _obs_session(
        args,
        "sweep",
        params={
            "family": args.family,
            "sizes": sizes,
            "algorithms": names,
            "seeds": seeds,
        },
    )
    result = run_sweep(
        specs=[spec],
        sizes=sizes,
        algorithms=algorithms,
        seeds=seeds,
        algorithm_kwargs=algorithm_kwargs,
        parallel=not args.serial,
        max_workers=args.workers,
        cache=args.cache,
        progress=progress,
        obs=session,
        failure_policy=_failure_policy(args),
    )
    if args.progress:
        sys.stderr.write("\n")
    if session is not None:
        session.finish()
        sys.stderr.write(f"[obs] wrote {session.directory}\n")
    for failure in result.failures:
        sys.stderr.write(f"[sweep] FAILED {failure.describe()}\n")

    rows = []
    for n in sizes:
        row = {"family": spec.label(), "n": n}
        for name in names:
            # Under --on-error continue a cell can have no surviving points.
            if result.filter(spec=spec, n=n, algorithm=name):
                row[name] = str(result.iterations_summary(spec, n, name))
            else:
                row[name] = "failed"
        rows.append(row)
    print(render_rows(rows, title=f"iterations over seeds {seeds}"))
    return 0


def _cmd_certify(args) -> int:
    from repro.graphs.arboricity import (
        arboricity_bounds,
        degeneracy,
        nash_williams_lower_bound,
        pseudoarboricity,
    )
    from repro.graphs.forests import (
        forest_count_of_partition,
        forest_partition_greedy,
    )

    graph = _build_graph(args)
    low, high = arboricity_bounds(graph)
    parts = forest_partition_greedy(graph)
    print(
        render_rows(
            [
                {
                    "family": args.family,
                    "n": graph.number_of_nodes(),
                    "m": graph.number_of_edges(),
                    "degeneracy": degeneracy(graph),
                    "pseudoarboricity": pseudoarboricity(graph),
                    "nash-williams >=": nash_williams_lower_bound(graph),
                    "arboricity in": f"[{low}, {high}]",
                    "forest partition": forest_count_of_partition(parts),
                }
            ],
            title="arboricity certificate",
        )
    )
    return 0


def _cmd_export(args) -> int:
    from repro.analysis.export import write_rows_csv, write_rows_json, write_rows_jsonl
    from repro.mis.validation import assert_valid_mis

    sizes = [int(s) for s in args.sizes.split(",") if s]
    names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    rows = []
    for n in sizes:
        for seed in seeds:
            sub_args = argparse.Namespace(**vars(args))
            sub_args.n, sub_args.seed = n, seed
            graph = _build_graph(sub_args)
            for name in names:
                result = _run_algorithm(name, graph, sub_args)
                assert_valid_mis(graph, result.mis)
                rows.append(
                    {
                        "family": args.family,
                        "n": n,
                        "seed": seed,
                        "algorithm": name,
                        "iterations": result.iterations,
                        "congest_rounds": result.congest_rounds,
                        "mis_size": len(result.mis),
                    }
                )
    if args.output.endswith(".jsonl"):
        write_rows_jsonl(rows, args.output)
    elif args.output.endswith(".json"):
        write_rows_json(rows, args.output)
    else:
        write_rows_csv(rows, args.output)
    print(f"wrote {len(rows)} points to {args.output}")
    return 0


def _cmd_workload(args) -> int:
    from repro.graphs.io import write_workload

    graph = _build_graph(args)
    write_workload(
        graph,
        args.output,
        metadata={
            "family": args.family,
            "n": args.n,
            "alpha": args.alpha,
            "seed": args.seed,
        },
    )
    print(
        f"wrote {args.family} workload (n={graph.number_of_nodes()}, "
        f"m={graph.number_of_edges()}) to {args.output}"
    )
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import main as lint_main

    argv = list(args.paths)
    argv += ["--format", args.format]
    for select in args.select:
        argv += ["--select", select]
    for disable in args.disable:
        argv += ["--disable", disable]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.write_baseline:
        argv += ["--write-baseline", args.write_baseline]
    if args.strict_baseline:
        argv.append("--strict-baseline")
    if args.config:
        argv += ["--config", args.config]
    if args.no_config:
        argv.append("--no-config")
    return lint_main(argv)


def _cmd_obs(args) -> int:
    from repro.obs.cli import main as obs_main

    return obs_main(list(args.obs_args))


def _cmd_serve(args) -> int:
    """``repro serve``: HTTP front end, or ``--smoke`` loadgen burst.

    Service knobs come from the ``REPRO_SERVE_*`` environment
    (:meth:`~repro.serve.server.ServeConfig.from_env`); the smoke mode
    prints the load report as JSON and fails the process if any request
    went unanswered or the service ended unhealthy.
    """
    import asyncio
    import json as _json

    from repro.serve.loadgen import LoadGenConfig, drive
    from repro.serve.server import MISService, ServeConfig

    config = ServeConfig.from_env()
    session = _obs_session(
        args,
        "serve",
        params={"seed": args.seed, "smoke": bool(args.smoke)},
    )
    tracer = getattr(session, "tracer", None) if session is not None else None
    service = MISService(config, obs=session, tracer=tracer)

    if args.smoke:
        load = LoadGenConfig(
            seed=args.seed,
            nodes=args.nodes,
            edge_p=args.edge_p,
            epochs=args.epochs,
            churn=args.churn,
        )

        async def smoke():
            report = await drive(
                service,
                load,
                lockstep=not args.open_loop,
                time_scale=args.time_scale,
                deadline_violations=args.deadline_violations,
                engine_failures=args.engine_failures,
            )
            health = service.health()
            await service.close()
            return report, health

        report, health = asyncio.run(smoke())
        if session is not None:
            session.finish()
            sys.stderr.write(f"[obs] wrote {session.directory}\n")
        print(
            _json.dumps(
                {"load": report.to_dict(), "health": health}, indent=2
            )
        )
        ok = report.unhandled == 0 and health["status"] == "ok"
        return 0 if ok else 1

    from repro.serve.http import serve_http

    async def run_server():
        frontend = await serve_http(service, host=args.host, port=args.port)
        sys.stderr.write(
            f"[serve] listening on http://{args.host}:{frontend.port} "
            f"(queue_limit={config.queue_limit}, "
            f"deadline={config.default_deadline_s}s)\n"
        )
        try:
            await frontend.serve_forever()
        finally:
            await frontend.close()

    try:
        asyncio.run(run_server())
    except KeyboardInterrupt:
        sys.stderr.write("[serve] shutting down\n")
    finally:
        if session is not None:
            session.finish()
            sys.stderr.write(f"[obs] wrote {session.directory}\n")
    return 0


def _cmd_list(args) -> int:
    from repro.mis.registry import available_algorithms

    print("algorithms: " + ", ".join(available_algorithms()))
    print("families:   " + ", ".join(sorted(_FAMILIES)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "certify": _cmd_certify,
        "export": _cmd_export,
        "workload": _cmd_workload,
        "lint": _cmd_lint,
        "obs": _cmd_obs,
        "serve": _cmd_serve,
        "list": _cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
