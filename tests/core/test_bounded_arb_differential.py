"""Exhaustive differential for Algorithm 1's columnar kernel.

The reference oracle is the per-node scalar loop the library ran before
the columnar kernel (:mod:`repro.core.bulk`) became Algorithm 1's only
fast implementation: sets of active nodes, adjacency sets pruned in place,
and one ``(competitive, priority, id)`` key per node per iteration.  All
five result fields — I, B, the residual VIB, the iteration count and the
per-scale statistics — must match it on every graph in
``nx.graph_atlas_g()`` (all 1,253 graphs on at most 7 nodes), under label
relabelings that reach each keyed-randomness path, and on the workload
generator.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import networkx as nx
import pytest

from repro.core.bounded_arb import BoundedArbResult, ScaleStats, bounded_arb_independent_set
from repro.core.invariant import (
    active_degrees,
    high_degree_neighbor_counts,
    invariant_violators,
)
from repro.core.parameters import compute_parameters
from repro.graphs.generators import bounded_arboricity_graph
from repro.graphs.properties import max_degree as graph_max_degree
from repro.mis.engine import active_adjacency, competition_winners, eliminate_winners
from repro.rng import priority_draw


def _competition_keys(
    active: Set[int],
    degrees: Dict[int, int],
    rho_k: float,
    seed: int,
    iteration: int,
) -> Tuple[Dict[int, Tuple], Set[int]]:
    """Keys for one iteration: competitive nodes draw, others play zero."""
    keys: Dict[int, Tuple] = {}
    competitive: Set[int] = set()
    for v in active:
        if degrees[v] > rho_k:
            keys[v] = (0, 0, v)
        else:
            competitive.add(v)
            keys[v] = (1, priority_draw(seed, v, iteration), v)
    return keys, competitive


def reference_bounded_arb(
    graph: nx.Graph,
    alpha: int,
    seed: int = 0,
    early_exit: bool = False,
):
    """Algorithm 1 by the per-node loop, packaged like the kernel's result."""
    params = compute_parameters(alpha, graph_max_degree(graph))
    adjacency = active_adjacency(graph)
    active: Set[int] = set(graph.nodes())
    independent: Set[int] = set()
    bad: Set[int] = set()
    stats: List[ScaleStats] = []
    iteration_counter = 0

    for k in params.scales():
        rho_k = params.rho(k)
        active_before = len(active)
        joined_this_scale = 0
        eliminated_this_scale = 0
        iterations_used = 0

        for _ in range(params.lambda_iterations):
            if not active:
                break
            if early_exit and not invariant_violators(active, adjacency, params, k):
                break
            degrees = active_degrees(active, adjacency)
            keys, competitive = _competition_keys(
                active, degrees, rho_k, seed, iteration_counter
            )
            winners = competition_winners(active, adjacency, keys, eligible=competitive)
            independent |= winners
            removed = eliminate_winners(active, adjacency, winners)
            joined_this_scale += len(winners)
            eliminated_this_scale += len(removed) - len(winners)
            iteration_counter += 1
            iterations_used += 1

        counts = high_degree_neighbor_counts(
            active, adjacency, params.high_degree_threshold(k)
        )
        bad_threshold = params.bad_threshold(k)
        newly_bad = {v for v, c in counts.items() if c > bad_threshold}
        bad |= newly_bad
        active -= newly_bad
        for v in newly_bad:
            for u in adjacency[v]:
                adjacency[u].discard(v)
            adjacency[v] = set()

        remaining_counts = high_degree_neighbor_counts(
            active, adjacency, params.high_degree_threshold(k)
        )
        stats.append(
            ScaleStats(
                scale=k,
                iterations_used=iterations_used,
                active_before=active_before,
                active_after=len(active),
                joined=joined_this_scale,
                eliminated=eliminated_this_scale,
                bad_added=len(newly_bad),
                max_high_degree_neighbors=max(remaining_counts.values(), default=0),
                bad_threshold=bad_threshold,
                invariant_satisfied=all(
                    c <= bad_threshold for c in remaining_counts.values()
                ),
            )
        )

    return BoundedArbResult(
        independent_set=independent,
        bad_set=bad,
        residual=active,
        parameters=params,
        iterations=iteration_counter,
        seed=seed,
        scale_stats=stats,
    )


#: Every field Algorithm 1 computes (the rest echo its inputs).
FIELDS = ("independent_set", "bad_set", "residual", "iterations", "scale_stats")


def assert_matches_reference(graph: nx.Graph, alpha: int, seed: int = 0, early_exit: bool = False):
    got = bounded_arb_independent_set(graph, alpha=alpha, seed=seed, early_exit=early_exit)
    want = reference_bounded_arb(graph, alpha, seed=seed, early_exit=early_exit)
    for name in FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert g == w, f"{name}: kernel {g!r} != reference {w!r}"


ATLAS = nx.graph_atlas_g()

#: Relabelings reaching the kernel's non-identity label paths: contiguous
#: negative int64 labels (searchsorted) and labels at or beyond 2⁶³,
#: which the CSR keeps as Python ints and keys modulo 2⁶⁴.
RELABELINGS = {
    "shifted-negative": lambda v: v - 5,
    "beyond-int64": lambda v: (1 << 63) + 7 * v,
}


@pytest.mark.parametrize("early_exit", [False, True])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_matches_reference_on_every_atlas_graph(alpha, early_exit):
    for index, graph in enumerate(ATLAS):
        try:
            assert_matches_reference(graph, alpha, seed=index, early_exit=early_exit)
        except AssertionError as failure:
            raise AssertionError(f"atlas graph {index}: {failure}")


@pytest.mark.parametrize("relabeling", sorted(RELABELINGS))
def test_matches_reference_on_relabeled_atlas(relabeling):
    for index, graph in enumerate(ATLAS):
        graph = nx.relabel_nodes(graph, RELABELINGS[relabeling])
        try:
            assert_matches_reference(graph, 2, seed=index)
        except AssertionError as failure:
            raise AssertionError(f"atlas graph {index} ({relabeling}): {failure}")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("alpha", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [10, 1000, 20_000])
def test_matches_reference_on_workload_graphs(n, alpha, seed):
    graph = bounded_arboricity_graph(n, alpha, seed=seed)
    assert_matches_reference(graph, alpha, seed=seed)
