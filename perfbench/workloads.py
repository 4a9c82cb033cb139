"""The four workloads and the metrics each reports.

Every workload runs a measured phase of ``seconds`` and returns a
:class:`Report`.  The untraced run (``trace=False``) reports the
end-to-end metrics.  The traced run spends the first half of its time
untraced and the second half on the *same inputs* with wrappers
installed; per-layer metrics come from the traced half, and
``trace.overhead_frac`` compares the halves.

Each closed-loop workload stops before an operation that would end past
the budget, so a run lasts about ``seconds`` whatever the machine.
End-to-end times are adjusted to reference host speed
(:class:`~perfbench.measure.SpeedProbe`); per-layer times are raw.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import checks, inputs
from perfbench.measure import (
    NullTracer,
    SpeedProbe,
    Stopwatch,
    Tally,
    Target,
    Tracer,
    counts,
    coverage,
    durations,
    fresh_interpreter_seconds,
    instrument,
    mean,
    median,
    peak_rss_mb,
    quantile,
    span_table,
)

ALPHA = 2

#: End-to-end metrics: every workload reports each of them.
END_TO_END = (
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of the traced run: (name, unit, better, source span).
#: A layer a workload does not enter reads 0; a metric whose source span
#: has no function left to wrap is left out and named as absent.
PER_LAYER = (
    ("graphs.generate_s", "s", "lower", "graphs.generate"),
    ("graphs.nodes", "count", "higher", "graphs.generate"),
    ("graphs.edges", "count", "higher", "graphs.generate"),
    ("graphs.csr_build_s", "s", "lower", "graphs.csr_build"),
    ("graphs.csr_builds_per_graph", "count", "lower", "graphs.csr_build"),
    ("core.arb_mis_s", "s", "lower", None),
    ("core.shattering_s", "s", "lower", "core.shattering"),
    ("core.finishing_s", "s", "lower", "core.finishing"),
    ("core.iterations", "count", "lower", None),
    ("core.residual_nodes", "count", "lower", "core.shattering"),
    ("mis.metivier_bulk_s", "s", "lower", None),
    ("mis.luby_a_bulk_s", "s", "lower", None),
    ("mis.luby_b_bulk_s", "s", "lower", None),
    ("mis.ghaffari_bulk_s", "s", "lower", None),
    ("mis.metivier_bulk_iterations", "count", "lower", None),
    ("mis.luby_a_bulk_iterations", "count", "lower", None),
    ("mis.luby_b_bulk_iterations", "count", "lower", None),
    ("mis.ghaffari_bulk_iterations", "count", "lower", None),
    ("mis.validate_s", "s", "lower", "mis.validate"),
    ("mpc.metivier_s", "s", "lower", None),
    ("mpc.rounds", "count", "lower", None),
    ("mpc.comm_bytes", "B", "lower", None),
    ("serve.epoch_ms", "ms", "lower", "serve.epoch"),
    ("serve.apply_ms", "ms", "lower", "serve.apply"),
    ("serve.fingerprint_ms", "ms", "lower", "serve.fingerprint"),
    ("serve.repair_ms", "ms", "lower", "serve.repair"),
    ("serve.recompute_ms", "ms", "lower", "serve.recompute"),
    ("serve.validate_ms", "ms", "lower", "serve.validate"),
    ("serve.recompute_epochs", "count", "lower", "serve.epoch"),
    ("serve.snapshot_ms", "ms", "lower", "serve.snapshot"),
    ("serve.executor_busy_frac", "ratio", "lower", "serve.epoch"),
    ("serve.cache_hit_ratio", "ratio", "higher", None),
    ("serve.queue_wait_ms", "ms", "lower", "serve.epoch"),
    ("serve.requests_per_epoch", "count", "higher", None),
    ("serve.damaged_per_epoch", "count", "lower", "serve.epoch"),
    ("serve.repair_rounds", "count", "lower", "serve.epoch"),
    ("loadgen.late_p90_ms", "ms", "lower", None),
    ("readk.sample_matrix_s", "s", "lower", "readk.sample_matrix"),
    ("readk.estimate_s", "s", "lower", None),
    ("readk.trials", "count", "lower", "readk.sample_matrix"),
    ("readk.family_build_s", "s", "lower", "readk.family_build"),
    ("trace.coverage_frac", "ratio", "higher", None),
    ("trace.overhead_frac", "ratio", "lower", None),
)


def _residual(result) -> Dict[str, float]:
    return {"residual": len(result.residual)}


def _epoch(report) -> Dict[str, float]:
    return {
        "epoch": report.epoch,
        "damaged": report.damaged,
        "rounds": report.rounds,
        "recompute": int(report.mode == "recompute"),
    }


#: The functions the traced run wraps, each under every name it is bound as.
TARGETS = (
    Target(
        "repro.graphs.generators:bounded_arboricity_graph",
        "graphs.generate",
        count=lambda g: {"nodes": g.number_of_nodes(), "edges": g.number_of_edges()},
    ),
    Target("repro.graphs.csr:csr_from_graph", "graphs.csr_build"),
    Target("repro.core.bounded_arb:bounded_arb_independent_set", "core.shattering", count=_residual),
    Target("repro.core.bulk:bounded_arb_independent_set_bulk", "core.shattering", count=_residual),
    Target("repro.core.finishing:finish", "core.finishing"),
    Target(
        "repro.mis.validation:assert_valid_mis",
        "mis.validate",
        rebind={"repro.serve.incremental": "serve.validate"},
    ),
    Target("repro.serve.incremental:GraphSession.apply_epoch", "serve.epoch", count=_epoch),
    Target("repro.serve.incremental:apply_mutations", "serve.apply"),
    Target("repro.serve.incremental:graph_fingerprint", "serve.fingerprint"),
    Target("repro.serve.incremental:update_repair", "serve.repair"),
    Target("repro.serve.incremental:GraphSession._recompute", "serve.recompute"),
    Target("repro.serve.incremental:GraphSession.snapshot", "serve.snapshot"),
    Target(
        "repro.readk.family:ReadKFamily.sample_matrix",
        "readk.sample_matrix",
        count=lambda matrix: {"rows": matrix.shape[0]},
    ),
    Target("repro.readk.family:shared_parent_family", "readk.family_build"),
)


@dataclass(frozen=True)
class Sizes:
    arb_n: int = 100_000
    serve_n: int = 10_000
    readk_trial_scale: float = 1.0
    #: Set-ups timed per run; the median is reported.
    setup_repeats: int = 3


FULL = Sizes()
#: Tiny sizes: every workload and the traced run finish in seconds.
QUICK = Sizes(arb_n=2_000, serve_n=400, readk_trial_scale=0.05, setup_repeats=1)


@dataclass
class Context:
    seed: int
    seconds: float
    sizes: Sizes
    trace: bool


@dataclass
class Report:
    tally: Tally
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)
    spans: list = field(default_factory=list)
    absent: List[str] = field(default_factory=list)


def _closed_loop(seconds: float, ops):
    """Run ``ops`` within the budget; each returns its (raw, adjusted) seconds.

    Returns the two lists of per-operation seconds.
    """
    raw: List[float] = []
    adjusted: List[float] = []
    for op in ops:
        if raw and sum(raw) + median(raw) > seconds:
            break
        took, at_reference = op()
        raw.append(took)
        adjusted.append(at_reference)
    return raw, adjusted


def _setup(probe: SpeedProbe, fn: Callable[[], float], repeats: int):
    """Median raw and reference-speed seconds of ``repeats`` set-ups."""
    runs = [probe.timed(fn) for _ in range(repeats)]
    return median([r for r, _ in runs]), median([a for _, a in runs])


def _end_to_end(setup: float, frequent: Sequence[float], every: Sequence[float], rate: float) -> Dict:
    """``p50_ms`` is over the most frequent request, ``p90_ms`` over every request."""
    return {
        "setup_s": (setup, "s"),
        "p50_ms": (median(frequent) * 1e3, "ms"),
        "p90_ms": (quantile(every, 90) * 1e3, "ms"),
        "work_per_s": (rate, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _per_layer(measured: Dict[str, float], absent: Sequence[str]) -> Dict:
    return {
        name: (float(measured.get(name, 0.0)), unit)
        for name, unit, _, source in PER_LAYER
        if source not in absent
    }


def _overhead(untraced: Sequence[float], traced: Sequence[float]) -> float:
    k = min(len(untraced), len(traced))
    return sum(traced[:k]) / sum(untraced[:k]) - 1.0 if k else 0.0


def _traced_report(ctx: Context, report: Report, phase, measure) -> Report:
    """The traced run of a closed loop: untraced half, then traced half.

    ``phase(tracer, seconds)`` returns the raw and adjusted seconds of each
    operation, both halves taking their operations from the same input
    stream; ``measure(spans)`` turns the traced half's spans into
    per-layer metrics.
    """
    untraced, _ = phase(NullTracer(), ctx.seconds / 2)
    tracer = Tracer()
    with instrument(tracer, TARGETS) as report.absent:
        traced, _ = phase(tracer, ctx.seconds / 2)
    measured = measure(tracer.spans)
    measured["trace.overhead_frac"] = _overhead(untraced, traced)
    report.metrics = _per_layer(measured, report.absent)
    report.spans = tracer.spans
    return report


def _graph_layers(spans) -> Dict[str, float]:
    graphs = len(durations(spans, "graphs.generate"))
    return {
        "graphs.generate_s": median(durations(spans, "graphs.generate")),
        "graphs.nodes": median(counts(spans, "graphs.generate", "nodes")),
        "graphs.edges": median(counts(spans, "graphs.generate", "edges")),
        "graphs.csr_build_s": median(durations(spans, "graphs.csr_build")),
        "graphs.csr_builds_per_graph": len(durations(spans, "graphs.csr_build")) / graphs
        if graphs
        else 0.0,
        "core.arb_mis_s": median(durations(spans, "core.arb_mis")),
        "core.shattering_s": median(durations(spans, "core.shattering")),
        "core.finishing_s": median(durations(spans, "core.finishing")),
        "core.iterations": median(counts(spans, "core.arb_mis", "iterations")),
        "core.residual_nodes": median(counts(spans, "core.shattering", "residual")),
        "mis.validate_s": median(durations(spans, "mis.validate")),
    }


def _solve_check(tally: Tally, label: str, arrays, result) -> bool:
    error = checks.mis_violation(*arrays, result.mis)
    tally.add(None if error is None else f"{label}: {error}")
    return error is None


def _setup_import(ctx: Context, probe: SpeedProbe):
    """A fresh interpreter's ``import repro`` and registry bootstrap."""
    body = "import repro\nfrom repro.mis.registry import get_algorithm\nget_algorithm('arb-mis')"
    return _setup(probe, lambda: fresh_interpreter_seconds(body), ctx.sizes.setup_repeats)


def _closed_loop_report(report: Report, label: str, unit: str, work_name: str, setup, times, work):
    """End-to-end metrics and the raw summary line of a closed-loop run."""
    (setup_raw, setup_ref), (raw, adjusted) = setup, times
    report.metrics = _end_to_end(setup_ref, adjusted, adjusted, work / sum(adjusted))
    report.lines.append(
        f"{label} (raw): {unit}_p50_s={median(raw):.4f} s over {len(raw)} {unit}s, "
        f"{work_name}={work / sum(raw):.1f}, setup_s={setup_raw:.4f}"
    )
    return report


# -- run-arb -----------------------------------------------------------------


def run_arb(ctx: Context) -> Report:
    """The body of ``repro run``: generate, solve with arb-mis, validate."""
    from repro.graphs import generators
    from repro.mis import registry, validation

    n = ctx.sizes.arb_n
    seeds = inputs.trial_seeds(inputs.rng_for(ctx.seed, "run-arb"), 10_000)
    report = Report(Tally())
    nodes_solved = [0]

    def job(tracer, probe, seed: int):
        step = Stopwatch(probe)
        try:
            with tracer.span("job"):
                graph = step(generators.bounded_arboricity_graph, n, ALPHA, seed=seed)
                solve = registry.get_algorithm("arb-mis")
                with tracer.span("core.arb_mis") as span:
                    result = step(solve, graph, alpha=ALPHA, seed=seed)
                    span.add(iterations=result.iterations)
                step(validation.assert_valid_mis, graph, result.mis)
        except Exception as exc:  # a failed job is counted, not fatal
            report.tally.add(f"job seed {seed}: {type(exc).__name__}: {exc}")
            return step.raw, step.adjusted
        if _solve_check(report.tally, f"job seed {seed}", checks.graph_arrays(graph), result):
            nodes_solved[0] += graph.number_of_nodes()
        return step.raw, step.adjusted

    def phase(tracer, seconds: float, probe=None):
        return _closed_loop(seconds, (lambda s=s: job(tracer, probe, s) for s in seeds))

    if not ctx.trace:
        probe = SpeedProbe()
        setup = _setup_import(ctx, probe)
        times = phase(NullTracer(), ctx.seconds, probe)
        return _closed_loop_report(
            report, f"run-arb n={n}", "job", "solve_nodes_per_s", setup, times, nodes_solved[0]
        )

    def measure(spans) -> Dict[str, float]:
        return {
            **_graph_layers(spans),
            "trace.coverage_frac": coverage(
                spans, "job", ("graphs.generate", "core.arb_mis", "mis.validate")
            ),
        }

    return _traced_report(ctx, report, phase, measure)


# -- engines-shared ----------------------------------------------------------

#: (registry name, span, keyword arguments) of the six engines of a cell.
ENGINES = (
    ("metivier-bulk", "mis.metivier_bulk", {}),
    ("luby-a-bulk", "mis.luby_a_bulk", {}),
    ("luby-b-bulk", "mis.luby_b_bulk", {}),
    ("ghaffari-bulk", "mis.ghaffari_bulk", {}),
    ("arb-mis", "core.arb_mis", {"alpha": ALPHA, "engine": "bulk"}),
    ("metivier-mpc", "mpc.metivier", {"shards": 4, "workers": 0}),
)


def engines_shared(ctx: Context) -> Report:
    """One sweep cell per seed: six columnar engines on one shared graph."""
    from repro.graphs import generators
    from repro.mis import registry

    n = ctx.sizes.arb_n
    seeds = inputs.trial_seeds(inputs.rng_for(ctx.seed, "engines-shared"), 10_000)
    report = Report(Tally())
    nodes_solved = [0]

    def cell(tracer, probe, seed: int):
        results = []
        step = Stopwatch(probe)
        try:
            with tracer.span("cell"):
                graph = step(generators.bounded_arboricity_graph, n, ALPHA, seed=seed)
                for name, span_name, kwargs in ENGINES:
                    solve = registry.get_algorithm(name)
                    with tracer.span(span_name) as span:
                        result = step(solve, graph, seed=seed, **kwargs)
                        comm = result.extra.get("comm") or {}
                        span.add(
                            iterations=result.iterations,
                            comm_bytes=comm.get("total_bytes", 0),
                        )
                    results.append((name, result))
        except Exception as exc:  # a failed cell is counted, not fatal
            report.tally.add(f"cell seed {seed}: {type(exc).__name__}: {exc}")
            return step.raw, step.adjusted
        arrays = checks.graph_arrays(graph)
        for name, result in results:
            if _solve_check(report.tally, f"{name} seed {seed}", arrays, result):
                nodes_solved[0] += graph.number_of_nodes()
        return step.raw, step.adjusted

    def phase(tracer, seconds: float, probe=None):
        return _closed_loop(seconds, (lambda s=s: cell(tracer, probe, s) for s in seeds))

    if not ctx.trace:
        probe = SpeedProbe()
        setup = _setup_import(ctx, probe)
        times = phase(NullTracer(), ctx.seconds, probe)
        return _closed_loop_report(
            report, f"engines-shared n={n}", "cell", "solve_nodes_per_s", setup, times, nodes_solved[0]
        )

    def measure(spans) -> Dict[str, float]:
        measured = _graph_layers(spans)
        for _, span_name, _ in ENGINES:
            if span_name.startswith("mis."):
                measured[f"{span_name}_s"] = median(durations(spans, span_name))
                measured[f"{span_name}_iterations"] = median(counts(spans, span_name, "iterations"))
        measured["mpc.metivier_s"] = median(durations(spans, "mpc.metivier"))
        measured["mpc.rounds"] = median(counts(spans, "mpc.metivier", "iterations"))
        measured["mpc.comm_bytes"] = median(counts(spans, "mpc.metivier", "comm_bytes"))
        measured["trace.coverage_frac"] = coverage(
            spans, "cell", ["graphs.generate"] + [span_name for _, span_name, _ in ENGINES]
        )
        return measured

    return _traced_report(ctx, report, phase, measure)


# -- serve-churn -------------------------------------------------------------

SESSION = "bench"
#: Offered load: mutate and query requests per second, ops per mutate.
MUTATE_RATE = 4.0
QUERY_RATE = 12.0
OPS_PER_MUTATE = 8
#: The open loop samples the host's speed only in gaps at least this long.
IDLE_GAP_S = 0.04


@dataclass
class _ServeInputs:
    edges: np.ndarray
    schedule: List[Tuple[float, str]]
    batches: List[Tuple[inputs.Op, ...]]


def _serve_inputs(ctx: Context, seconds: float) -> _ServeInputs:
    sizes = ctx.sizes
    edges = inputs.forest_union_edges(sizes.serve_n, ALPHA, inputs.rng_for(ctx.seed, "serve-graph"))
    schedule = inputs.arrival_schedule(
        inputs.rng_for(ctx.seed, "serve-arrivals"), seconds, MUTATE_RATE, QUERY_RATE
    )
    mutates = sum(1 for _, op in schedule if op == "mutate")
    batches = inputs.mutation_batches(
        inputs.rng_for(ctx.seed, "serve-mutations"), sizes.serve_n, edges, mutates, OPS_PER_MUTATE
    )
    return _ServeInputs(edges, schedule, batches)


async def _bootstrap(ctx: Context, load: _ServeInputs, tally: Tally):
    """Start a service and create the session; returns (service, seconds, epoch)."""
    from repro.serve.server import MISService, Request, ServeConfig

    start = time.perf_counter()
    service = MISService(ServeConfig())
    created = await service.submit(
        Request(op="create", session=SESSION, seed=ctx.seed, edges=tuple(map(tuple, load.edges.tolist())))
    )
    elapsed = time.perf_counter() - start
    if not created.ok:
        tally.add(f"bootstrap: {created.status} {created.error}")
        await service.close()
        return None, elapsed, None
    return service, elapsed, created.result["epoch"]


async def _drive(
    service, tracer, load: _ServeInputs, tally: Tally, bootstrap_epoch: int, probe=None
) -> Dict:
    """Send the schedule open-loop, then check every answer by replay.

    With a ``probe``, the host's speed is sampled in idle gaps: when no
    request is in flight and the next one is not due for a while, so the
    samples delay no request.
    """
    from repro.serve.incremental import Mutation
    from repro.serve.server import Request

    requests = []
    batches = iter(load.batches)
    for _, op in load.schedule:
        if op == "mutate":
            batch = next(batches)
            mutations = tuple(Mutation(kind, u, v) for kind, u, v in batch)
            requests.append((batch, Request(op="mutate", session=SESSION, mutations=mutations)))
        else:
            requests.append((None, Request(op="query", session=SESSION)))
    hits_before = service.counters.cache_hits

    in_flight = [0]

    async def send(index: int, due_at: float, request):
        try:
            with tracer.span("serve.request", rid=index) as span:
                response = await service.submit(request)
                if request.op == "mutate" and response.status == "ok":
                    span.add(epoch=response.result["epoch"])
            return response, time.perf_counter() - due_at
        finally:
            in_flight[0] -= 1

    start = time.perf_counter()
    late, tasks, due_times = [], [], []
    for index, ((due, _), (_, request)) in enumerate(zip(load.schedule, requests)):
        due_at = start + due
        due_times.append(due_at)
        delay = due_at - time.perf_counter()
        if probe is not None and delay > IDLE_GAP_S:
            await asyncio.sleep(0)  # let the requests just sent run first
            if in_flight[0] == 0:
                probe.sample()
            delay = due_at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(time.perf_counter() - due_at)
        in_flight[0] += 1
        tasks.append(asyncio.ensure_future(send(index, due_at, request)))
    answers = await asyncio.gather(*tasks)
    wall = time.perf_counter() - start
    hits = service.counters.cache_hits - hits_before
    final = await service.submit(Request(op="query", session=SESSION))
    await service.close()

    out = {"mutate": [], "query": [], "due": {"mutate": [], "query": []}, "late": late,
           "wall": wall, "ok": 0, "epochs": {}}
    by_epoch: Dict[int, list] = {}
    snapshots, snapshot_owner = [], []
    last_epoch = bootstrap_epoch
    for index, ((batch, request), (response, latency)) in enumerate(zip(requests, answers)):
        out[request.op].append(latency)
        out["due"][request.op].append(due_times[index])
        if request.op == "mutate":
            if response.status != "ok":
                tally.add(f"mutate {index}: {response.status} {response.error}")
                continue
            epoch = response.result["epoch"]
            if epoch < last_epoch:
                tally.add(f"mutate {index}: epoch {epoch} after epoch {last_epoch}")
                continue
            last_epoch = epoch
            by_epoch.setdefault(epoch, []).extend(batch)
            out["epochs"].setdefault(epoch, []).append((latency, response.result))
            tally.add(None)
            out["ok"] += 1
        elif response.status not in ("ok", "stale"):
            tally.add(f"query {index}: {response.status} {response.error}")
        else:
            snapshots.append(response.result)
            snapshot_owner.append(f"query {index}")
    if final.status == "ok":
        snapshots.append(final.result)
        snapshot_owner.append("final query")
    else:
        tally.add(f"final query: {final.status} {final.error}")
    errors = checks.replay_violations(load.edges, bootstrap_epoch, by_epoch, snapshots)
    for i, owner in enumerate(snapshot_owner):
        error = errors.get(i)
        tally.add(None if error is None else f"{owner}: {error}")
        out["ok"] += owner.startswith("query") and error is None
    out["cache_hits"] = hits
    return out


def _serve_lines(out: Dict) -> List[str]:
    def pair(name: str) -> str:
        values = out[name]
        return (
            f"{name}_p50_ms={median(values) * 1e3:.2f} {name}_p90_ms="
            f"{quantile(values, 90) * 1e3:.2f} (n={len(values)})"
        )

    return [
        f"serve-churn (raw): {pair('mutate')} {pair('query')} "
        f"late_p90_ms={quantile(out['late'], 90) * 1e3:.2f}"
    ]


def _link_epochs(spans) -> None:
    """Give each epoch's spans the id ``epoch-<n>``.

    Epochs run on an executor thread, outside any request's span; a
    mutate request's span records the epoch that answered it.
    """
    by_id = {span.id: span for span in spans}
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "serve.epoch":
            span.rid = f"epoch-{int(span.counts['epoch'])}"
        elif span.rid is None and span.parent in by_id:
            span.rid = by_id[span.parent].rid


def serve_churn(ctx: Context) -> Report:
    """Open-loop churn and reads against one in-process MISService."""
    report = Report(Tally())
    return asyncio.run(_serve_churn(ctx, report))


async def _serve_churn(ctx: Context, report: Report) -> Report:
    if not ctx.trace:
        load = _serve_inputs(ctx, ctx.seconds)
        probe = SpeedProbe()
        setups = []
        service = None
        for _ in range(ctx.sizes.setup_repeats):
            if service is not None:
                await service.close()
            before = probe.sample()
            service, elapsed, epoch = await _bootstrap(ctx, load, report.tally)
            setups.append((elapsed, elapsed / ((before + probe.sample()) / 2)))
            if service is None:
                return report
        out = await _drive(service, NullTracer(), load, report.tally, epoch, probe)
        probe.sample()
        adjusted = {
            op: [latency / probe.slowdown_near(due) for latency, due in zip(out[op], out["due"][op])]
            for op in ("mutate", "query")
        }
        # Open loop: the rate is the offered load met, not a speed.
        report.metrics = _end_to_end(
            median([a for _, a in setups]),
            adjusted["query"],
            adjusted["mutate"] + adjusted["query"],
            out["ok"] / out["wall"],
        )
        report.lines += _serve_lines(out)
        report.lines.append(
            f"  raw setup_s={median([r for r, _ in setups]):.4f}; "
            f"{len(probe.samples)} speed samples, median slowdown {probe.slowdown:.3f}"
        )
        return report

    load = _serve_inputs(ctx, ctx.seconds / 2)
    halves = []
    tracer = Tracer()
    for traced in (False, True):
        with instrument(tracer, TARGETS if traced else ()) as absent:
            service, _, epoch = await _bootstrap(ctx, load, report.tally)
            if service is None:
                return report
            start = time.perf_counter()
            out = await _drive(service, tracer if traced else NullTracer(), load, report.tally, epoch)
        halves.append(out)
    report.absent = absent
    spans = [span for span in tracer.spans if span.start >= start]
    _link_epochs(spans)
    untraced, out = halves
    epochs = {int(s.counts["epoch"]): s for s in spans if s.name == "serve.epoch"}
    waits = [
        latency - epochs[e].seconds
        for e, answered in out["epochs"].items()
        if e in epochs
        for latency, _ in answered
    ]
    epoch_counts = lambda key: [s.counts[key] for s in epochs.values()]  # noqa: E731
    repair_rounds = [s.counts["rounds"] for s in epochs.values() if not s.counts["recompute"]]
    measured = {
        f"serve.{what}_ms": median(durations(spans, f"serve.{what}")) * 1e3
        for what in ("epoch", "apply", "fingerprint", "repair", "recompute", "validate", "snapshot")
    }
    measured.update(
        {
            "serve.recompute_epochs": sum(epoch_counts("recompute")),
            "serve.executor_busy_frac": sum(s.seconds for s in epochs.values()) / out["wall"],
            "serve.cache_hit_ratio": out["cache_hits"] / max(1, len(out["query"])),
            "serve.queue_wait_ms": median(waits) * 1e3,
            "serve.requests_per_epoch": mean(
                [answered[0][1]["coalesced_requests"] for answered in out["epochs"].values()]
            ),
            "serve.damaged_per_epoch": mean(epoch_counts("damaged")),
            "serve.repair_rounds": mean(repair_rounds),
            "loadgen.late_p90_ms": quantile(out["late"], 90) * 1e3,
            "trace.coverage_frac": coverage(
                spans,
                "serve.epoch",
                [f"serve.{what}" for what in ("apply", "fingerprint", "repair", "recompute", "validate")],
            ),
            "trace.overhead_frac": median(out["mutate"]) / median(untraced["mutate"]) - 1.0
            if untraced["mutate"] and out["mutate"]
            else 0.0,
        }
    )
    report.metrics = _per_layer(measured, report.absent)
    report.lines += _serve_lines(out)
    report.spans = spans
    return report


# -- readk-mc ----------------------------------------------------------------


def _capture_matrices(family) -> List[np.ndarray]:
    """Keep every matrix ``family`` samples, so its marginals can be checked."""
    taken: List[np.ndarray] = []
    sample = family.sample_matrix

    def sample_matrix(*args, **kwargs):
        matrix = sample(*args, **kwargs)
        taken.append(matrix)
        return matrix

    family.sample_matrix = sample_matrix
    return taken


def readk_mc(ctx: Context) -> Report:
    """Monte-Carlo checks of Theorems 1.1 and 1.2 on E4/E5-shaped cells."""
    from repro.readk import empirical
    from repro.readk import family as family_module

    cells = [
        dataclasses.replace(c, trials=max(50, int(c.trials * ctx.sizes.readk_trial_scale)))
        for c in inputs.READK_CELLS
    ]
    seeds = inputs.trial_seeds(inputs.rng_for(ctx.seed, "readk-mc"), 100_000)
    report = Report(Tally())
    trials_done = [0]

    def estimate(tracer, family, taken, cell, kind: str, seed: int):
        """Run one estimator; returns its result and the matrices it sampled."""
        with tracer.span("readk.estimate"):
            if kind == "tail":
                result = empirical.estimate_lower_tail(family, cell.delta, trials=cell.trials, seed=seed)
            else:
                result = empirical.estimate_conjunction_probability(family, trials=cell.trials, seed=seed)
        matrices = taken[:]
        taken.clear()
        return result, matrices

    def check(family, cell, kind: str, seed: int, outcome) -> Optional[str]:
        if isinstance(outcome, Exception):
            return f"{kind} seed {seed}: {type(outcome).__name__}: {outcome}"
        result, matrices = outcome
        if kind == "tail":
            bounds = (result.bound_form1, result.bound_form2, result.empirical)
            holds = result.bounds_hold
        else:
            bounds = (result.bound, result.empirical)
            holds = result.bound_holds
        error = None
        if not all(math.isfinite(b) for b in bounds):
            error = f"a bound or estimate is not a number: {bounds}"
        elif not holds:
            error = f"bound violated: {result}"
        else:
            for matrix in matrices or [family.sample_matrix(cell.trials, seed)]:
                error = error or checks.marginal_violation(
                    matrix.mean(axis=0), cell.marginal, matrix.shape[0]
                )
        if error is None:
            trials_done[0] += cell.trials
            return None
        return f"{kind} {cell} seed {seed}: {error}"

    def phase(tracer, seconds: float, probe=None):
        families = [
            family_module.shared_parent_family(c.indicators, c.children, c.sharing) for c in cells
        ]
        taken = [_capture_matrices(f) for f in families]
        stream = iter(seeds)

        def one_round():
            jobs = [
                (families[i], taken[i], cell, kind, next(stream))
                for i, cell in enumerate(cells)
                for kind in ("tail", "conjunction")
            ]

            def estimates():
                outcomes = []
                for family, took, cell, kind, seed in jobs:
                    try:
                        outcomes.append(estimate(tracer, family, took, cell, kind, seed))
                    except Exception as exc:  # a failed estimate is counted, not fatal
                        outcomes.append(exc)
                return outcomes

            # The round is one timed step; its checks run after it.
            step = Stopwatch(probe)
            for (family, _, cell, kind, seed), outcome in zip(jobs, step(estimates)):
                report.tally.add(check(family, cell, kind, seed, outcome))
            return step.raw, step.adjusted

        return _closed_loop(seconds, itertools.repeat(one_round))

    if not ctx.trace:
        probe = SpeedProbe()
        body = "from repro.readk import empirical, family\n" + "\n".join(
            f"family.shared_parent_family({c.indicators}, {c.children}, {c.sharing})" for c in cells
        )
        setup = _setup(probe, lambda: fresh_interpreter_seconds(body), ctx.sizes.setup_repeats)
        times = phase(NullTracer(), ctx.seconds, probe)
        return _closed_loop_report(
            report, "readk-mc", "round", "trials_per_s", setup, times, trials_done[0]
        )

    def measure(spans) -> Dict[str, float]:
        return {
            "readk.sample_matrix_s": median(durations(spans, "readk.sample_matrix")),
            "readk.estimate_s": median(durations(spans, "readk.estimate")),
            "readk.trials": median(counts(spans, "readk.sample_matrix", "rows")),
            "readk.family_build_s": median(durations(spans, "readk.family_build")),
            "trace.coverage_frac": coverage(spans, "readk.estimate", ["readk.sample_matrix"]),
        }

    return _traced_report(ctx, report, phase, measure)


WORKLOADS: Dict[str, Callable[[Context], Report]] = {
    "run-arb": run_arb,
    "engines-shared": engines_shared,
    "serve-churn": serve_churn,
    "readk-mc": readk_mc,
}


def describe(report: Report) -> List[str]:
    """Human-readable lines: the workload's own metrics and the span table."""
    lines = list(report.lines)
    for name, (value, unit) in report.metrics.items():
        lines.append(f"  {name:<30} {value:>14.6g} {unit}")
    lines.append(
        f"  error_rate {report.tally.failed}/{report.tally.attempted}"
        + (f" = {report.tally.failed / report.tally.attempted:.4g}" if report.tally.attempted else "")
    )
    for error in report.tally.errors:
        lines.append(f"  FAILED: {error}")
    for name in report.absent:
        lines.append(f"  absent: no function left to wrap for span {name}")
    if report.spans:
        lines += span_table(report.spans)
    return lines
