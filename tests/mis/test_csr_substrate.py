"""Tests for the columnar substrate (repro.graphs.csr + repro.mis.csr).

The segment-reduction edge cases here were previously exercised only
implicitly by the large-scale benchmark (E16); they are pinned as unit
tests so a kernel regression fails fast and locally.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    GraphError,
    NotAnIndependentSetError,
    NotMaximalError,
)
from repro.graphs.csr import (
    CSRGraph,
    bounded_arboricity_edges,
    csr_bounded_arboricity,
    csr_from_edges,
    csr_from_graph,
)
from repro.graphs.generators import bounded_arboricity_graph
from repro.mis import csr as kernels
from repro.mis.bulk import metivier_mis_bulk
from tests.mis import test_mis_differential as oracle_module
from tests.mis.test_mis_differential import reference_metivier


class TestSegmentMax:
    def test_empty_segment_at_head(self):
        # Node 0 isolated: indptr starts with a zero-length segment.
        indptr = np.array([0, 0, 2, 3], dtype=np.int64)
        values = np.array([7, 3, 9], dtype=np.uint64)
        assert list(kernels.segment_max(values, indptr)) == [0, 7, 9]

    def test_empty_segment_in_middle(self):
        indptr = np.array([0, 2, 2, 3], dtype=np.int64)
        values = np.array([4, 8, 5], dtype=np.uint64)
        assert list(kernels.segment_max(values, indptr)) == [8, 0, 5]

    def test_empty_segment_at_tail(self):
        # The out-of-bounds-start path: the last segment starts at
        # values.size.
        indptr = np.array([0, 1, 3, 3], dtype=np.int64)
        values = np.array([2, 6, 1], dtype=np.uint64)
        assert list(kernels.segment_max(values, indptr)) == [2, 6, 0]

    def test_tail_empty_does_not_truncate_previous_segment(self):
        # Regression: clipping the trailing start to values.size - 1
        # used to shift the previous segment's end boundary, dropping
        # its last element.  Here that element (9) is the maximum, so
        # the old code answered 1.
        indptr = np.array([0, 2, 2], dtype=np.int64)
        values = np.array([1, 9], dtype=np.uint64)
        assert list(kernels.segment_max(values, indptr)) == [9, 0]

    def test_all_segments_empty(self):
        indptr = np.zeros(5, dtype=np.int64)
        values = np.array([], dtype=np.uint64)
        assert list(kernels.segment_max(values, indptr)) == [0, 0, 0, 0]

    def test_consecutive_trailing_empties(self):
        indptr = np.array([0, 3, 3, 3], dtype=np.int64)
        values = np.array([1, 9, 2], dtype=np.uint64)
        assert list(kernels.segment_max(values, indptr)) == [9, 0, 0]


class TestSegmentSum:
    def test_matches_python_sums(self):
        indptr = np.array([0, 2, 2, 5], dtype=np.int64)
        values = np.array([1.5, 0.25, 2.0, 4.0, 0.5], dtype=np.float64)
        out = kernels.segment_sum(values, indptr)
        assert list(out) == [1.75, 0.0, 6.5]

    def test_tail_empty_does_not_truncate_previous_segment(self):
        # Same regression as segment_max: the old clip dropped the last
        # element of the final nonempty segment (answered [1.5, 0.0]).
        indptr = np.array([0, 2, 2], dtype=np.int64)
        values = np.array([1.5, 2.5], dtype=np.float64)
        assert list(kernels.segment_sum(values, indptr)) == [4.0, 0.0]


class TestNeighborKernels:
    def test_neighbor_count_all_inactive(self, arb3_graph):
        csr = csr_from_graph(arb3_graph)
        counts = kernels.neighbor_count(np.zeros(csr.n, dtype=bool), csr)
        assert not counts.any()

    def test_neighbor_count_isolated_nodes(self):
        g = nx.Graph()
        g.add_nodes_from(range(6))
        g.add_edge(0, 1)
        csr = csr_from_graph(g)
        counts = kernels.neighbor_count(np.ones(csr.n, dtype=bool), csr)
        assert list(counts) == [1, 1, 0, 0, 0, 0]

    def test_neighbor_any_and_spread_agree(self, arb3_graph):
        csr = csr_from_graph(arb3_graph)
        rng = np.random.default_rng(0)
        mask = rng.random(csr.n) < 0.2
        assert np.array_equal(
            kernels.neighbor_any(mask, csr), kernels.spread_to_neighbors(mask, csr)
        )

    def test_spread_matches_networkx(self, arb3_graph):
        csr = csr_from_graph(arb3_graph)
        mask = np.zeros(csr.n, dtype=bool)
        mask[[0, 17, 42]] = True
        flagged = {int(csr.labels[i]) for i in np.nonzero(mask)[0]}
        expected = set()
        for v in flagged:
            expected.update(arb3_graph.neighbors(v))
        spread = kernels.spread_to_neighbors(mask, csr)
        assert csr.label_set(spread) == expected


class TestMaskedCompetition:
    def test_unique_keys_select_local_maxima(self):
        g = nx.path_graph(5)
        csr = csr_from_graph(g)
        keys = np.array([5, 1, 4, 2, 3], dtype=np.uint64)
        active = np.ones(5, dtype=bool)
        winners = kernels.masked_competition(csr, active, keys)
        assert list(winners) == [True, False, True, False, True]

    def test_tie_falls_back_to_exact_rule(self):
        # Two adjacent equal keys: the id tiebreak must decide, exactly as
        # the scalar (priority, id) rule does.
        g = nx.path_graph(3)
        csr = csr_from_graph(g)
        keys = np.array([9, 9, 1], dtype=np.uint64)
        active = np.ones(3, dtype=bool)
        winners = kernels.masked_competition(
            csr,
            active,
            keys,
            exact_key=lambda i: (int(keys[i]), csr.tiebreak_id(i)),
        )
        # (9, 1) beats (9, 0); node 2's (1, 2) loses to (9, 1).
        assert list(winners) == [False, True, False]

    def test_zero_key_routes_through_fallback(self):
        g = nx.Graph()
        g.add_nodes_from(range(2))
        csr = csr_from_graph(g)
        keys = np.zeros(2, dtype=np.uint64)
        active = np.ones(2, dtype=bool)
        winners = kernels.masked_competition(
            csr, active, keys, exact_key=lambda i: (0, csr.tiebreak_id(i))
        )
        # Isolated nodes beat their (empty) neighborhoods even at key 0.
        assert list(winners) == [True, True]

    def test_degenerate_without_fallback_raises(self):
        csr = csr_from_graph(nx.path_graph(2))
        keys = np.zeros(2, dtype=np.uint64)
        with pytest.raises(ValueError):
            kernels.masked_competition(csr, np.ones(2, dtype=bool), keys)

    def test_forced_tie_matches_scalar_engine(self, monkeypatch):
        """Collapse all priorities to a constant: the kernel must run
        entirely through the exact fallback and still equal the per-node
        oracle (whose (priority, id) tuples resolve every tie)."""
        graph = bounded_arboricity_graph(40, 2, seed=3)

        def constant_priorities(seed, nodes, round_index, tag=0):
            return np.full(len(nodes), 12345, dtype=np.uint64)

        monkeypatch.setattr(kernels, "priority_array", constant_priorities)
        monkeypatch.setattr(oracle_module, "priority_draw", lambda *a, **k: 12345)
        bulk = metivier_mis_bulk(graph, seed=0)
        scalar = reference_metivier(graph, seed=0)
        assert bulk.mis == scalar.mis
        assert bulk.iterations == scalar.iterations

    def test_trailing_isolated_node_matches_scalar_engine(self):
        """Regression for the segment_max boundary bug: a trailing
        degree-0 node made the previous node's neighbor reduction drop
        its last edge, so the kernel could crown two adjacent
        winners (an invalid set).  Triangle + isolated node 3, seed 3 is
        the minimal reproduction."""
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edges_from([(0, 1), (0, 2), (1, 2)])
        for seed in range(12):
            bulk = metivier_mis_bulk(graph, seed=seed)
            scalar = reference_metivier(graph, seed=seed)
            assert bulk.mis == scalar.mis, seed
            assert bulk.iterations == scalar.iterations, seed


class TestEliminate:
    def test_winners_and_active_neighbors_removed(self):
        g = nx.path_graph(4)
        csr = csr_from_graph(g)
        active = np.array([True, True, False, True])
        winners = np.array([True, False, False, False])
        eliminated = kernels.eliminate_winners_bulk(csr, active, winners)
        assert list(eliminated) == [True, True, False, False]
        assert list(active) == [False, False, False, True]


class TestCsrFromGraph:
    def test_round_trip_degrees(self, arb3_graph):
        csr = csr_from_graph(arb3_graph)
        for i in range(csr.n):
            assert csr.indptr[i + 1] - csr.indptr[i] == arb3_graph.degree(
                int(csr.labels[i])
            )

    def test_string_labels(self):
        g = nx.Graph([("b", "a"), ("a", "c")])
        csr = csr_from_graph(g)
        assert list(csr.labels) == ["a", "b", "c"]
        assert not csr.integer_labeled
        # rng keys are the dense positions for non-integer labels
        assert list(csr.key_ids) == [0, 1, 2]
        assert csr.label_set(np.array([True, False, True])) == {"a", "c"}

    def test_unsortable_label_mix_still_builds(self):
        g = nx.Graph([("a", 1), (1, (2, 3))])
        csr = csr_from_graph(g)
        assert csr.n == 3
        assert csr.edge_count == 2

    def test_integer_labels_key_as_themselves(self):
        g = nx.Graph([(10, -20), (-20, 40)])
        csr = csr_from_graph(g)
        assert csr.integer_labeled
        mask = (1 << 64) - 1
        assert list(csr.key_ids) == [(-20) & mask, 10, 40]
        assert csr.tiebreak_id(0) == -20


class TestCsrFromEdges:
    def test_matches_graph_build(self):
        g = bounded_arboricity_graph(120, 2, seed=7)
        u = np.array([a for a, b in g.edges()], dtype=np.int64)
        v = np.array([b for a, b in g.edges()], dtype=np.int64)
        direct = csr_from_edges(120, u, v)
        via_nx = csr_from_graph(g)
        assert np.array_equal(direct.indptr, via_nx.indptr)
        assert np.array_equal(direct.indices, via_nx.indices)

    def test_dedup_and_self_loops(self):
        u = np.array([0, 0, 1, 2, 2])
        v = np.array([1, 1, 0, 2, 0])
        csr = csr_from_edges(3, u, v)
        assert csr.edge_count == 2  # {0,1} deduped, {2,2} dropped
        assert list(csr.degrees()) == [2, 1, 1]

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphError):
            csr_from_edges(2, np.array([0]), np.array([5]))

    def test_empty(self):
        csr = csr_from_edges(0, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert csr.n == 0 and csr.edge_count == 0


class TestArboricityEdges:
    def test_forest_union_shape(self):
        csr = csr_bounded_arboricity(500, 3, seed=1)
        assert csr.n == 500
        # α forests on n nodes: ≤ α(n-1) edges, ≥ n-1 (one spanning tree).
        assert 499 <= csr.edge_count <= 3 * 499
        assert not (csr.indices == np.repeat(np.arange(500), csr.degrees())).any()

    def test_deterministic(self):
        a = bounded_arboricity_edges(200, 2, seed=9)
        b = bounded_arboricity_edges(200, 2, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_single_node(self):
        u, v = bounded_arboricity_edges(1, 2, seed=0)
        assert u.size == 0 and v.size == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            bounded_arboricity_edges(0, 2)
        with pytest.raises(ConfigurationError):
            bounded_arboricity_edges(10, 0)


class TestValidateMisCsr:
    def test_accepts_valid_mis(self):
        csr = csr_bounded_arboricity(400, 2, seed=4)
        result = metivier_mis_bulk(csr, seed=4)
        members = np.zeros(csr.n, dtype=bool)
        members[list(result.mis)] = True
        kernels.validate_mis_csr(csr, members)

    def test_rejects_adjacent_members(self):
        csr = csr_from_graph(nx.path_graph(3))
        with pytest.raises(NotAnIndependentSetError):
            kernels.validate_mis_csr(csr, np.array([True, True, False]))

    def test_rejects_undominated_node(self):
        csr = csr_from_graph(nx.path_graph(3))
        with pytest.raises(NotMaximalError):
            kernels.validate_mis_csr(csr, np.array([True, False, False]))
