"""Tests for the shared competition-process machinery."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import GraphError
from repro.mis.engine import (
    MISResult,
    active_adjacency,
    competition_winners,
    eliminate_winners,
)
from repro.mis.registry import available_algorithms, get_algorithm

#: Registry names that reject any non-forest before an engine runs.
FOREST_ONLY = {"tree-independent-set", "lenzen-wattenhofer"}


class TestActiveAdjacency:
    def test_mirrors_graph(self, path5):
        adj = active_adjacency(path5)
        assert adj[0] == {1}
        assert adj[2] == {1, 3}

    def test_mutable_copy(self, path5):
        adj = active_adjacency(path5)
        adj[0].discard(1)
        assert path5.has_edge(0, 1)

    def test_self_loop_names_the_node(self):
        graph = nx.path_graph(4)
        graph.add_edge(1, 1)
        with pytest.raises(GraphError, match="self-loop at node 1"):
            active_adjacency(graph)


@pytest.mark.parametrize("engine", [None, "bulk", "mpc"])
@pytest.mark.parametrize("name", available_algorithms())
def test_every_engine_rejects_a_self_loop(name, engine, monkeypatch):
    # Scalar engines used to crash mid-run with "Set changed size during
    # iteration" on this graph instead of rejecting it.
    monkeypatch.delenv("REPRO_MIS_ENGINE", raising=False)
    graph = nx.path_graph(4)
    graph.add_edge(1, 1)
    kwargs = {"alpha": 2} if name == "arb-mis" else {}
    match = "forest" if name in FOREST_ONLY else "self-loop at node 1"
    with pytest.raises(GraphError, match=match):
        get_algorithm(name, engine=engine)(graph, seed=0, **kwargs)


class TestCompetitionWinners:
    def test_strict_local_maxima(self, path5):
        adj = active_adjacency(path5)
        keys = {v: (v, v) for v in path5.nodes()}  # increasing along path
        winners = competition_winners(set(path5.nodes()), adj, keys)
        assert winners == {4}

    def test_isolated_node_always_wins(self):
        g = nx.Graph()
        g.add_node(0)
        winners = competition_winners({0}, {0: set()}, {0: (5, 0)})
        assert winners == {0}

    def test_eligibility_filter(self, path5):
        adj = active_adjacency(path5)
        keys = {v: (v, v) for v in path5.nodes()}
        winners = competition_winners(set(path5.nodes()), adj, keys, eligible={0, 1})
        assert winners == set()  # 4 would win but is ineligible

    def test_inactive_neighbors_ignored(self, path5):
        adj = active_adjacency(path5)
        active = {0, 1, 2}  # nodes 3, 4 are gone
        keys = {v: (v, v) for v in active}
        assert competition_winners(active, adj, keys) == {2}

    def test_unique_keys_give_disjoint_winners(self, arb3_graph):
        from repro.rng import priority_draw

        adj = active_adjacency(arb3_graph)
        active = set(arb3_graph.nodes())
        keys = {v: (priority_draw(1, v, 0), v) for v in active}
        winners = competition_winners(active, adj, keys)
        for w in winners:
            assert not (adj[w] & winners)


class TestEliminateWinners:
    def test_removes_winner_and_neighbors(self, path5):
        adj = active_adjacency(path5)
        active = set(path5.nodes())
        removed = eliminate_winners(active, adj, {2})
        assert removed == {1, 2, 3}
        assert active == {0, 4}

    def test_prunes_adjacency(self, path5):
        adj = active_adjacency(path5)
        active = set(path5.nodes())
        eliminate_winners(active, adj, {2})
        assert adj[0] == set()  # 1 was pruned away
        assert adj[4] == set()

    def test_empty_winners_noop(self, path5):
        adj = active_adjacency(path5)
        active = set(path5.nodes())
        assert eliminate_winners(active, adj, set()) == set()
        assert active == set(path5.nodes())


class TestMISResult:
    def test_summary_fields(self):
        result = MISResult(mis={1, 2}, iterations=3, algorithm="x", seed=0)
        assert result.size == 2
        assert "x" in result.summary()
        assert "iterations=3" in result.summary()

    def test_summary_includes_rounds_when_present(self):
        result = MISResult(mis=set(), iterations=1, algorithm="x", seed=0, congest_rounds=9)
        assert "congest_rounds=9" in result.summary()


class TestMisFromOutputs:
    def test_extracts_only_mis_outputs(self):
        from repro.mis.engine import mis_from_outputs

        outputs = {
            0: ("mis", 0),
            1: ("dominated", 0),
            2: ("mis", 3),
            3: None,
            4: ("bad", 1),
        }
        assert mis_from_outputs(outputs) == {0, 2}

    def test_empty(self):
        from repro.mis.engine import mis_from_outputs

        assert mis_from_outputs({}) == set()
