"""Differential tests for the sharded MPC runtime (tier 1).

The load-bearing equivalence of docs/mpc_runtime.md: for every algorithm,
every seed, and every shard count, the sharded engine returns the same
MIS, the same iteration count, and the same active-set trajectory as the
columnar kernel — which is itself bit-identical to the per-node
reference oracle.  A single run therefore has independent witnesses
(oracle, kernel, and mpc at several shard counts), and any divergence
pinpoints the layer that broke.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.graphs.generators import random_tree
from repro.mis.registry import get_algorithm
from repro.mpc import run_sharded
from tests.mis.test_mis_differential import RULES

ALGORITHMS = ["metivier", "luby-a", "luby-b", "ghaffari"]
SHARD_COUNTS = [1, 2, 4, 8]


def graphs():
    return [
        nx.gnp_random_graph(60, 0.1, seed=1),
        nx.gnp_random_graph(150, 0.03, seed=7),
        random_tree(80, seed=3),
    ]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_mpc_matches_bulk_and_scalar_across_shard_counts(algorithm):
    for graph in graphs():
        seed = 5
        oracle = RULES[algorithm][1](graph, seed=seed)
        bulk = get_algorithm(algorithm, engine="bulk")(graph, seed=seed)
        assert bulk.mis == oracle.mis
        assert bulk.iterations == oracle.iterations
        for shards in SHARD_COUNTS:
            mpc = run_sharded(algorithm, graph, seed=seed, shards=shards)
            assert mpc.mis == bulk.mis, (algorithm, shards)
            assert mpc.iterations == bulk.iterations, (algorithm, shards)
            assert mpc.active_history == bulk.active_history, (algorithm, shards)
            assert mpc.algorithm == f"{algorithm}-mpc"
            assert mpc.extra["completed"]
            assert mpc.extra["shards"] == shards
            assert mpc.extra["comm"]["total_bytes"] >= 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_pool_mode_matches_inline(algorithm):
    """Process-pool execution is the same computation as inline."""
    graph = nx.gnp_random_graph(90, 0.06, seed=2)
    inline = run_sharded(algorithm, graph, seed=2, shards=4, workers=0)
    pooled = run_sharded(algorithm, graph, seed=2, shards=4, workers=2)
    assert pooled.mis == inline.mis
    assert pooled.iterations == inline.iterations
    assert pooled.active_history == inline.active_history


def test_more_shards_than_nodes():
    graph = nx.path_graph(5)
    ref = get_algorithm("metivier", engine="bulk")(graph, seed=0)
    res = run_sharded("metivier", graph, seed=0, shards=16)
    assert res.mis == ref.mis
    assert res.iterations == ref.iterations


def test_empty_graph():
    res = run_sharded("luby-b", nx.Graph(), seed=0, shards=4)
    assert res.mis == set()
    assert res.iterations == 0
    assert res.algorithm == "luby-b-mpc"


def test_non_integer_labels_translate():
    graph = nx.relabel_nodes(
        nx.gnp_random_graph(40, 0.12, seed=6), lambda i: f"node-{i}"
    )
    ref = get_algorithm("ghaffari", engine="bulk")(graph, seed=6)
    res = run_sharded("ghaffari", graph, seed=6, shards=3)
    assert res.mis == ref.mis
    assert all(isinstance(label, str) for label in res.mis)


def test_registry_engine_knob(monkeypatch):
    graph = nx.gnp_random_graph(50, 0.1, seed=4)
    fn = get_algorithm("metivier", engine="mpc")
    result = fn(graph, seed=4, shards=2)
    assert result.algorithm == "metivier-mpc"
    monkeypatch.setenv("REPRO_MIS_ENGINE", "mpc")
    monkeypatch.setenv("REPRO_MPC_SHARDS", "3")
    via_env = get_algorithm("metivier")(graph, seed=4)
    assert via_env.algorithm == "metivier-mpc"
    assert via_env.extra["shards"] == 3
    assert via_env.mis == result.mis
    # Names without an mpc twin fall back to their plain registration.
    assert get_algorithm("arb-mis", engine="mpc") is get_algorithm("arb-mis")


def test_unknown_algorithm_and_engine_rejected():
    with pytest.raises(ConfigurationError):
        run_sharded("nope", nx.path_graph(3))
    with pytest.raises(ConfigurationError):
        get_algorithm("metivier", engine="distributed")
