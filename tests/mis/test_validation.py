"""Tests for MIS validation helpers."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import NotAnIndependentSetError, NotMaximalError
from repro.mis.validation import (
    assert_valid_mis,
    is_independent_set,
    is_maximal_independent_set,
    unDominated_node,
    violating_edge,
)


class TestIndependence:
    def test_empty_set_independent(self, path5):
        assert is_independent_set(path5, set())

    def test_valid(self, path5):
        assert is_independent_set(path5, {0, 2, 4})

    def test_adjacent_pair_detected(self, path5):
        assert not is_independent_set(path5, {0, 1})
        assert violating_edge(path5, {0, 1}) == (0, 1)

    def test_violating_edge_none_when_valid(self, path5):
        assert violating_edge(path5, {0, 3}) is None


class TestMaximality:
    def test_maximal(self, path5):
        assert is_maximal_independent_set(path5, {0, 2, 4})
        assert is_maximal_independent_set(path5, {1, 3})

    def test_not_maximal(self, path5):
        assert not is_maximal_independent_set(path5, {0})
        assert unDominated_node(path5, {0}) in {2, 3, 4}

    def test_dependent_set_not_maximal(self, path5):
        assert not is_maximal_independent_set(path5, {0, 1, 3})

    def test_restricted_maximality(self, path5):
        # {0} dominates nodes 0 and 1 only; restricted to {0, 1} it's maximal.
        assert is_maximal_independent_set(path5, {0}, restrict_to={0, 1})
        assert not is_maximal_independent_set(path5, {0}, restrict_to={0, 1, 2})

    def test_isolated_nodes_must_be_included(self):
        g = nx.Graph()
        g.add_nodes_from([0, 1])
        g.add_edge(2, 3)
        assert not is_maximal_independent_set(g, {2})
        assert is_maximal_independent_set(g, {0, 1, 2})


class TestAssertValidMis:
    def test_passes_silently(self, path5):
        assert_valid_mis(path5, {1, 3})

    def test_raises_on_dependence(self, path5):
        with pytest.raises(NotAnIndependentSetError):
            assert_valid_mis(path5, {1, 2})

    def test_raises_on_non_maximality(self, path5):
        with pytest.raises(NotMaximalError):
            assert_valid_mis(path5, {1})

    def test_triangle(self, triangle):
        assert_valid_mis(triangle, {0})
        with pytest.raises(NotAnIndependentSetError):
            assert_valid_mis(triangle, {0, 1})

    def test_empty_graph(self):
        assert_valid_mis(nx.Graph(), set())


class TestLocalCertificate:
    """``assert_valid_mis(graph, candidate, nodes=...)`` checks a subset."""

    def test_passes_on_valid_subset(self, path5):
        assert_valid_mis(path5, {0, 2, 4}, nodes={1, 2})

    def test_ignores_violations_outside_the_subset(self, path5):
        # {0, 1} are adjacent members and 4 is undominated, but neither
        # touches nodes 2-3, so the certificate over {2, 3} holds.
        assert_valid_mis(path5, {0, 1, 3}, nodes={2, 3})

    def test_dependence_seen_from_either_endpoint(self, path5):
        # Only the *larger* endpoint is in the subset: the edge must
        # still be found (the full check only walks u > v).
        with pytest.raises(NotAnIndependentSetError, match="nodes 0 and 1"):
            assert_valid_mis(path5, {0, 1, 3}, nodes={1})
        assert violating_edge(path5, {0, 1}, restrict_to=[1]) == (0, 1)

    def test_non_maximality_in_subset(self, path5):
        with pytest.raises(NotMaximalError, match="node 4"):
            assert_valid_mis(path5, {0, 2}, nodes={3, 4})

    def test_subset_may_be_a_one_shot_iterable(self, path5):
        with pytest.raises(NotMaximalError):
            assert_valid_mis(path5, {0, 2}, nodes=iter([4]))
