"""Tests for the vectorized BoundedArbIndependentSet engine.

``TestBitIdentity`` compares the kernel against the per-node scalar loop
it replaced, kept as the reference oracle in
:mod:`tests.core.test_bounded_arb_differential`.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.bounded_arb import bounded_arb_independent_set
from repro.core.bulk import bounded_arb_independent_set_bulk
from repro.graphs.generators import bounded_arboricity_graph, starry_arboricity_graph
from repro.mis.validation import is_independent_set
from tests.core.test_bounded_arb_differential import reference_bounded_arb


def test_both_names_are_one_engine():
    assert bounded_arb_independent_set_bulk is bounded_arb_independent_set


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_on_arb_graphs(self, seed):
        g = bounded_arboricity_graph(400, 3, seed=seed)
        scalar = reference_bounded_arb(g, alpha=3, seed=seed)
        bulk = bounded_arb_independent_set_bulk(g, alpha=3, seed=seed)
        assert bulk.independent_set == scalar.independent_set
        assert bulk.bad_set == scalar.bad_set
        assert bulk.residual == scalar.residual
        assert bulk.iterations == scalar.iterations

    @pytest.mark.parametrize("seed", [0, 3])
    def test_identical_on_starry_graphs(self, seed):
        g = starry_arboricity_graph(600, 2, hubs=4, seed=seed)
        scalar = reference_bounded_arb(g, alpha=2, seed=seed)
        bulk = bounded_arb_independent_set_bulk(g, alpha=2, seed=seed)
        assert bulk.independent_set == scalar.independent_set
        assert bulk.bad_set == scalar.bad_set
        assert bulk.residual == scalar.residual

    def test_identical_with_early_exit(self, starry_graph):
        scalar = reference_bounded_arb(starry_graph, alpha=2, seed=5, early_exit=True)
        bulk = bounded_arb_independent_set_bulk(starry_graph, alpha=2, seed=5, early_exit=True)
        assert bulk.independent_set == scalar.independent_set
        assert bulk.iterations == scalar.iterations

    def test_scale_stats_match(self, starry_graph):
        scalar = reference_bounded_arb(starry_graph, alpha=2, seed=1)
        bulk = bounded_arb_independent_set_bulk(starry_graph, alpha=2, seed=1)
        assert len(bulk.scale_stats) == len(scalar.scale_stats)
        for s, b in zip(scalar.scale_stats, bulk.scale_stats):
            assert (s.scale, s.iterations_used, s.active_before, s.active_after) == (
                b.scale,
                b.iterations_used,
                b.active_before,
                b.active_after,
            )
            assert (s.joined, s.eliminated, s.bad_added) == (b.joined, b.eliminated, b.bad_added)
            assert s.invariant_satisfied == b.invariant_satisfied


class TestBulkCorrectness:
    def test_independent_output(self, starry_graph):
        result = bounded_arb_independent_set_bulk(starry_graph, alpha=2, seed=2)
        assert is_independent_set(starry_graph, result.independent_set)

    def test_empty_graph(self):
        result = bounded_arb_independent_set_bulk(nx.Graph(), alpha=2, seed=0)
        assert result.independent_set == set()
        assert result.residual == set()

    def test_paper_profile_noop(self, arb3_graph):
        result = bounded_arb_independent_set_bulk(arb3_graph, alpha=3, seed=0, profile="paper")
        assert result.parameters.theta == 0
        assert result.residual == set(arb3_graph.nodes())

    def test_runs_at_scale(self):
        g = bounded_arboricity_graph(30_000, 2, seed=1)
        result = bounded_arb_independent_set_bulk(g, alpha=2, seed=1)
        assert is_independent_set(g, result.independent_set)
        covered = set(result.independent_set) | result.bad_set | result.residual
        assert len(result.independent_set) > 0
