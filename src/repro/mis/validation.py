"""Independence and maximality validation.

Every test and benchmark run funnels its output through these checkers, so
an algorithm bug cannot masquerade as a performance result.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Optional

import networkx as nx

from repro.errors import NotAnIndependentSetError, NotMaximalError

__all__ = [
    "is_independent_set",
    "is_maximal_independent_set",
    "assert_valid_mis",
    "violating_edge",
    "unDominated_node",
]


def violating_edge(
    graph: nx.Graph, candidate: AbstractSet[int], restrict_to: Optional[Iterable[int]] = None
):
    """Return an edge with both endpoints in ``candidate``, or None.

    With ``restrict_to``, only edges at a member inside that node subset
    are inspected (the independence half of a local certificate).
    """
    if restrict_to is None:
        # Every edge is seen from both ends, so one orientation suffices.
        for v in candidate:
            for u in graph.neighbors(v):
                if u in candidate and u > v:
                    return (v, u)
        return None
    for v in restrict_to:
        if v in candidate:
            for u in graph.neighbors(v):
                if u in candidate:
                    return (min(u, v), max(u, v))
    return None


def unDominated_node(
    graph: nx.Graph, candidate: AbstractSet[int], restrict_to: Optional[Iterable[int]] = None
):
    """Return a node (in ``restrict_to``, default all nodes) that is neither
    in ``candidate`` nor adjacent to it, or None if every node is dominated.
    """
    universe = restrict_to if restrict_to is not None else graph.nodes()
    for v in universe:
        if v in candidate:
            continue
        if not any(u in candidate for u in graph.neighbors(v)):
            return v
    return None


def is_independent_set(graph: nx.Graph, candidate: AbstractSet[int]) -> bool:
    """True iff no two nodes of ``candidate`` are adjacent in ``graph``."""
    return violating_edge(graph, candidate) is None


def is_maximal_independent_set(
    graph: nx.Graph, candidate: AbstractSet[int], restrict_to: Optional[Iterable[int]] = None
) -> bool:
    """True iff ``candidate`` is independent and dominates every node.

    With ``restrict_to``, maximality is only required over that node subset
    (used for partial results such as the output of
    BoundedArbIndependentSet, which is maximal only over V ∖ (B ∪ VIB)).
    """
    return (
        is_independent_set(graph, candidate)
        and unDominated_node(graph, candidate, restrict_to) is None
    )


def assert_valid_mis(
    graph: nx.Graph,
    candidate: AbstractSet[int],
    nodes: Optional[Iterable[int]] = None,
) -> None:
    """Raise a precise error if ``candidate`` is not an MIS of ``graph``.

    With ``nodes``, only that node subset is certified: every member in
    it has no member neighbour, and every non-member in it has a member
    neighbour.  That *local certificate* is complete when ``candidate``
    was a valid MIS before a change and ``nodes`` covers every node whose
    membership, adjacency or domination the change touched — the serving
    layer's repair epochs rely on exactly that (docs/serving.md).  Errors
    are the same either way.
    """
    if nodes is not None:
        nodes = list(nodes)
    edge = violating_edge(graph, candidate, nodes)
    if edge is not None:
        raise NotAnIndependentSetError(
            f"nodes {edge[0]} and {edge[1]} are adjacent but both selected"
        )
    witness = unDominated_node(graph, candidate, nodes)
    if witness is not None:
        raise NotMaximalError(
            f"node {witness} is neither in the set nor adjacent to it"
        )
