"""The benchmark's own output checks and its measurement kit."""

import networkx as nx
import numpy as np
import pytest

from perfbench import checks, inputs
from perfbench.measure import Stopwatch, Target, Tracer, coverage, instrument, self_seconds


def _path(n):
    graph = nx.path_graph(n)
    return checks.graph_arrays(graph)


def test_accepts_a_maximal_independent_set():
    assert checks.mis_violation(*_path(5), {0, 2, 4}) is None
    assert checks.mis_violation(*_path(5), {1, 3}) is None


def test_rejects_a_planted_non_independent_set():
    error = checks.mis_violation(*_path(5), {0, 1, 3})
    assert error is not None and "adjacent" in error


def test_rejects_a_planted_non_maximal_set():
    error = checks.mis_violation(*_path(5), {0, 4})
    assert error is not None and "node 2 is undominated" in error


def test_rejects_unknown_and_repeated_members():
    assert "not in the graph" in checks.mis_violation(*_path(3), {0, 2, 7})
    assert "repeats" in checks.mis_violation(*_path(3), [0, 0, 2])


def test_isolated_nodes_must_be_selected():
    nodes = np.array([0, 1, 5])
    edges = np.array([[0, 1]])
    assert checks.mis_violation(nodes, edges, {0, 5}) is None
    assert "node 5" in checks.mis_violation(nodes, edges, {0})
    assert checks.mis_violation(np.array([3]), np.empty((0, 2), dtype=np.int64), {3}) is None


def test_planted_faults_on_a_generated_graph():
    edges = inputs.forest_union_edges(300, 2, inputs.rng_for(0, "t"))
    graph = nx.Graph(edges.tolist())
    mis = nx.maximal_independent_set(graph, seed=1)
    arrays = checks.graph_arrays(graph)
    assert checks.mis_violation(*arrays, mis) is None
    u, v = edges[0]
    planted = set(mis) | {int(u), int(v)}
    assert "adjacent" in checks.mis_violation(*arrays, planted)
    assert "undominated" in checks.mis_violation(*arrays, set(mis) - {mis[0]})


def test_replay_checks_each_snapshot_at_its_epoch():
    bootstrap = np.array([[0, 1], [1, 2]])
    by_epoch = {2: [("remove-edge", 1, 2), ("add-node", 3, None)]}
    good = [
        {"epoch": 1, "nodes": 3, "edges": 2, "mis": [0, 2]},
        {"epoch": 2, "nodes": 4, "edges": 1, "mis": [0, 2, 3]},
    ]
    assert checks.replay_violations(bootstrap, 1, by_epoch, good) == {}
    stale_graph = [{"epoch": 2, "nodes": 4, "edges": 1, "mis": [0, 2]}]
    assert "node 3 is undominated" in checks.replay_violations(bootstrap, 1, by_epoch, stale_graph)[0]
    unknown = [{"epoch": 9, "nodes": 4, "edges": 1, "mis": [0, 2, 3]}]
    assert "no mutate response" in checks.replay_violations(bootstrap, 1, by_epoch, unknown)[0]


def test_replay_graph_follows_idempotent_mutations():
    graph = checks.ReplayGraph(np.array([[0, 1]]))
    for op in [("add-edge", 0, 1), ("remove-edge", 4, 5), ("remove-node", 9, None),
               ("add-edge", 1, 2), ("remove-node", 1, None)]:
        graph.apply(*op)
    nodes, edges = graph.arrays()
    assert nodes.tolist() == [0, 2] and edges.size == 0


def test_mutation_batches_are_valid_when_sent():
    n = 200
    edges = inputs.forest_union_edges(n, 2, inputs.rng_for(3, "g"))
    batches = inputs.mutation_batches(inputs.rng_for(3, "m"), n, edges, 60, 8)
    graph = checks.ReplayGraph(edges)
    for batch in batches:
        for op, u, v in batch:
            if op == "add-edge":
                assert u in graph.adj and v in graph.adj and v not in graph.adj[u]
            elif op == "remove-edge":
                assert v in graph.adj[u]
            elif op == "remove-node":
                assert u in graph.adj
            else:
                assert u not in graph.adj
            graph.apply(op, u, v)
    assert inputs.mutation_batches(inputs.rng_for(3, "m"), n, edges, 60, 8) == batches


def test_marginal_check():
    assert checks.marginal_violation(np.full(10, 0.75), 0.75, 2000) is None
    assert "indicator 3" in checks.marginal_violation(
        np.array([0.75, 0.75, 0.75, 2 / 3]), 0.75, 2000
    )
    assert "not a number" in checks.marginal_violation(np.array([np.nan]), 0.75, 2000)


def test_instrument_wraps_every_binding_and_restores():
    import repro.core.finishing as finishing
    import repro.mis.validation as validation
    import repro.serve.incremental as incremental

    original = validation.assert_valid_mis
    tracer = Tracer()
    targets = [
        Target(
            "repro.mis.validation:assert_valid_mis",
            "mis.validate",
            rebind={"repro.serve.incremental": "serve.validate"},
        ),
        Target("repro.mis.validation:no_such_function", "gone"),
    ]
    with instrument(tracer, targets) as absent:
        assert absent == ["gone"]
        assert finishing.assert_valid_mis is not original
        finishing.assert_valid_mis(nx.path_graph(3), {0, 2})
        incremental.assert_valid_mis(nx.path_graph(3), {1})
    assert [s.name for s in tracer.spans] == ["mis.validate", "serve.validate"]
    assert finishing.assert_valid_mis is original
    assert incremental.assert_valid_mis is original


def test_self_time_and_coverage():
    tracer = Tracer()
    with tracer.span("job", rid=7):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("a"):
                pass
    spans = tracer.spans
    job = next(s for s in spans if s.name == "job")
    own = self_seconds(spans)
    assert 0 <= own[job.id] <= job.seconds
    assert {s.rid for s in spans} == {7}
    assert coverage(spans, "job", ["a", "b"]) == pytest.approx(
        sum(s.seconds for s in spans if s.parent == job.id) / job.seconds
    )


class _FixedProbe:
    """A probe that always reports the host running ``slowdown`` times slower."""

    def __init__(self, slowdown):
        self.slowdown = slowdown

    def sample(self, runs=1):
        return self.slowdown


def test_stopwatch_adjusts_each_step_to_reference_speed():
    plain = Stopwatch()
    assert plain(sum, [1, 2]) == 3
    assert plain.adjusted == plain.raw > 0
    slow = Stopwatch(_FixedProbe(2.0))
    slow(sorted, range(1000))
    slow(sorted, range(1000))
    assert slow.adjusted == pytest.approx(slow.raw / 2)
