"""Exhaustive differential for :func:`repro.graphs.csr.csr_from_graph`.

The reference oracle is the original per-node build: for each node in
position order, its neighbors' positions sorted.  Every graph in
``nx.graph_atlas_g()`` (all 1,253 graphs on at most 7 nodes) is built
under six relabelings, one per label-mapping rule of the vectorized
build, and all five :class:`~repro.graphs.csr.CSRGraph` fields must
match the oracle byte for byte.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.csr import CSRGraph, csr_from_graph
from repro.mis.registry import available_algorithms, get_algorithm

_MASK = (1 << 64) - 1


def reference_csr(graph) -> CSRGraph:
    """The per-node loop ``csr_from_graph`` used before it was vectorized."""
    ordered = list(graph.nodes())
    try:
        ordered = sorted(ordered)
    except TypeError:
        pass
    integer_labeled = all(isinstance(v, int) for v in ordered)
    position = {v: i for i, v in enumerate(ordered)}
    indptr = np.zeros(len(ordered) + 1, dtype=np.int64)
    flat: List[int] = []
    for i, v in enumerate(ordered):
        flat.extend(sorted(position[u] for u in graph.neighbors(v)))
        indptr[i + 1] = len(flat)
    labels = ordered
    if integer_labeled:
        try:
            labels = np.array(ordered, dtype=np.int64)
        except OverflowError:
            pass
        key_ids = np.fromiter(
            ((int(v) & _MASK) for v in ordered), dtype=np.uint64, count=len(ordered)
        )
    else:
        key_ids = np.arange(len(ordered), dtype=np.uint64)
    return CSRGraph(
        labels=labels,
        key_ids=key_ids,
        indptr=indptr,
        indices=np.array(flat, dtype=np.int64),
        integer_labeled=integer_labeled,
    )


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_csr(got: CSRGraph, want: CSRGraph) -> None:
    assert got.integer_labeled is want.integer_labeled
    assert type(got.labels) is type(want.labels)
    if isinstance(want.labels, np.ndarray):
        assert _same_array(got.labels, want.labels)
    else:
        assert [(type(v), v) for v in got.labels] == [(type(v), v) for v in want.labels]
    for field in ("key_ids", "indptr", "indices"):
        assert _same_array(getattr(got, field), getattr(want, field)), field


def _with_trailing_isolated(graph: nx.Graph) -> nx.Graph:
    graph = graph.copy()
    graph.add_node(graph.number_of_nodes())
    return graph


#: One relabeling per label-mapping rule: identity positions, sparse
#: int64 labels (searchsorted), ints beyond int64 (dict), strings,
#: an unsortable mix (listing order), and a trailing degree-0 node.
RELABELINGS: Dict[str, Callable[[nx.Graph], nx.Graph]] = {
    "identity": lambda g: g,
    "sparse-int64": lambda g: nx.relabel_nodes(g, lambda v: 1000 * v - 3001),
    "beyond-int64": lambda g: nx.relabel_nodes(
        g, lambda v: (1 << 63) + 5 * v - 12 if v % 2 else -(1 << 64) + v
    ),
    "strings": lambda g: nx.relabel_nodes(g, lambda v: chr(ord("g") - v)),
    "unsortable-mix": lambda g: nx.relabel_nodes(
        g, lambda v: v if v % 2 else f"s{v}"
    ),
    "trailing-isolated": _with_trailing_isolated,
}

ATLAS = nx.graph_atlas_g()


@pytest.mark.parametrize("relabeling", sorted(RELABELINGS))
def test_matches_reference_on_every_atlas_graph(relabeling):
    relabel = RELABELINGS[relabeling]
    for index, graph in enumerate(ATLAS):
        graph = relabel(graph)
        try:
            assert_same_csr(csr_from_graph(graph), reference_csr(graph))
        except AssertionError as failure:
            raise AssertionError(f"atlas graph {index} ({relabeling}): {failure}")


def test_relabelings_cover_every_label_rule():
    # Guard the differential itself: each relabeling must reach the
    # label kind it is named for on a graph big enough to show it.
    graph = ATLAS[-1]
    kinds = {
        name: reference_csr(relabel(graph)) for name, relabel in RELABELINGS.items()
    }
    assert isinstance(kinds["sparse-int64"].labels, np.ndarray)
    assert int(kinds["sparse-int64"].labels[0]) < 0
    assert isinstance(kinds["beyond-int64"].labels, list)
    assert kinds["beyond-int64"].integer_labeled
    assert max(kinds["beyond-int64"].labels) >= 1 << 63
    assert not kinds["strings"].integer_labeled
    assert kinds["unsortable-mix"].labels[:2] == ["s0", 1]
    assert kinds["trailing-isolated"].n == graph.number_of_nodes() + 1


def test_matches_reference_on_workload_graph(arb3_graph):
    assert_same_csr(csr_from_graph(arb3_graph), reference_csr(arb3_graph))


def test_bool_labels_count_as_integers():
    graph = nx.Graph([(True, 2), (False, True)])
    assert_same_csr(csr_from_graph(graph), reference_csr(graph))


class TestSelfLoops:
    def test_csr_build_names_the_node(self):
        graph = nx.path_graph(4)
        graph.add_edge(1, 1)
        with pytest.raises(GraphError, match="self-loop at node 1"):
            csr_from_graph(graph)

    def test_non_integer_label_is_named(self):
        graph = nx.Graph([("a", "b"), ("b", "b")])
        with pytest.raises(GraphError, match="self-loop at node 'b'"):
            csr_from_graph(graph)

    @pytest.mark.parametrize(
        "name",
        [a for a in available_algorithms() if a.endswith(("-bulk", "-mpc"))],
    )
    def test_every_columnar_engine_rejects_self_loops(self, name):
        graph = nx.path_graph(4)
        graph.add_edge(1, 1)
        with pytest.raises(GraphError, match="self-loop at node 1"):
            get_algorithm(name)(graph, seed=0)

    def test_core_bulk_engine_rejects_self_loops(self):
        from repro.core.bulk import bounded_arb_independent_set_bulk

        graph = nx.path_graph(4)
        graph.add_edge(1, 1)
        with pytest.raises(GraphError, match="self-loop at node 1"):
            bounded_arb_independent_set_bulk(graph, alpha=2, seed=0)
