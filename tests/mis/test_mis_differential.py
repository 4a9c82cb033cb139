"""Exhaustive differential for the Métivier, Luby A/B and Ghaffari kernels.

The reference oracles are the per-node loops the library ran before the
columnar kernels (:mod:`repro.mis.bulk`) became each rule's only fast
engine: a set of active nodes, adjacency sets pruned in place, and one
key (or marking coin) per node per iteration.  Every
:class:`~repro.mis.engine.MISResult` field must match the oracle on every
graph in ``nx.graph_atlas_g()`` (all 1,253 graphs on at most 7 nodes,
the empty graph included), under label relabelings that reach each
keyed-randomness path, and on the workload generator.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Set, Tuple

import networkx as nx
import pytest

from repro.graphs.csr import csr_from_graph
from repro.graphs.generators import bounded_arboricity_graph
from repro.mis.constants import GHAFFARI_MARK_TAG, GHAFFARI_MIN_EXPONENT, LUBY_B_TAG
from repro.mis.engine import (
    MISResult,
    active_adjacency,
    competition_winners,
    eliminate_winners,
)
from repro.mis.ghaffari import ghaffari_mis
from repro.mis.luby import luby_a_mis, luby_b_mis
from repro.mis.metivier import metivier_mis
from repro.rng import priority_draw, uniform_draw


def _competition_loop(graph, algorithm, seed, max_iterations, iteration_keys):
    """The loop Métivier and Luby A/B share: keys, local maxima, eliminate.

    ``iteration_keys(active, adjacency, iteration)`` returns the keys and
    the eligible set (None: every active node may win).
    """
    adjacency = active_adjacency(graph)
    active: Set = set(graph.nodes())
    mis: Set = set()
    history = []

    iteration = 0
    while active and iteration < max_iterations:
        history.append(len(active))
        keys, eligible = iteration_keys(active, adjacency, iteration)
        winners = competition_winners(active, adjacency, keys, eligible=eligible)
        mis |= winners
        eliminate_winners(active, adjacency, winners)
        iteration += 1

    return MISResult(
        mis=mis,
        iterations=iteration,
        algorithm=algorithm,
        seed=seed,
        active_history=history,
        extra={"completed": not active},
    )


def reference_metivier(graph: nx.Graph, seed: int = 0, max_iterations: int = 10_000) -> MISResult:
    """Métivier et al.: key ``(priority, id)``, local maxima join."""

    def keys(active, adjacency, iteration):
        return {v: (priority_draw(seed, v, iteration), v) for v in active}, None

    return _competition_loop(graph, "metivier", seed, max_iterations, keys)


def reference_luby_a(graph: nx.Graph, seed: int = 0, max_iterations: int = 10_000) -> MISResult:
    """Luby A: Métivier's rule with priorities ``1 + draw mod n⁴``."""
    range_size = max(1, graph.number_of_nodes()) ** 4

    def keys(active, adjacency, iteration):
        return {
            v: (1 + priority_draw(seed, v, iteration) % range_size, v) for v in active
        }, None

    return _competition_loop(graph, "luby-a", seed, max_iterations, keys)


def reference_luby_b(graph: nx.Graph, seed: int = 0, max_iterations: int = 10_000) -> MISResult:
    """Luby B: mark with probability 1/(2d) (1 when d = 0); marked nodes
    play ``(1, d, id)``, unmarked ones ``(0, 0, id)`` and cannot win."""

    def keys(active, adjacency, iteration):
        table: Dict = {}
        marked = set()
        for v in active:
            degree = sum(1 for u in adjacency[v] if u in active)
            if degree == 0 or uniform_draw(
                seed, v, iteration, tag=LUBY_B_TAG
            ) < 1.0 / (2.0 * degree):
                marked.add(v)
                table[v] = (1, degree, v)
            else:
                table[v] = (0, 0, v)
        return table, marked

    return _competition_loop(graph, "luby-b", seed, max_iterations, keys)


def reference_ghaffari(graph: nx.Graph, seed: int = 0, max_iterations: int = 20_000) -> MISResult:
    """Ghaffari's desire levels, kept as exponents ``p = 2^-j``."""
    adjacency = active_adjacency(graph)
    active: Set = set(graph.nodes())
    exponents: Dict = {v: 1 for v in graph.nodes()}
    mis: Set = set()
    history = []
    n = max(2, graph.number_of_nodes())
    shatter_threshold = n / max(1.0, math.log(n) ** 2)
    shatter_iteration = None

    iteration = 0
    while active and iteration < max_iterations:
        history.append(len(active))
        if shatter_iteration is None and len(active) <= shatter_threshold:
            shatter_iteration = iteration

        desire = {v: 2.0 ** -exponents[v] for v in active}
        marked = {
            v
            for v in active
            if uniform_draw(seed, v, iteration, tag=GHAFFARI_MARK_TAG) < desire[v]
        }
        winners = {
            v for v in marked if not any(u in marked for u in adjacency[v] if u in active)
        }

        # The desire update reads this iteration's p values over the
        # pre-elimination neighborhood.
        new_exponents = dict(exponents)
        for v in active:
            effective_degree = sum(desire[u] for u in adjacency[v] if u in active)
            if effective_degree >= 2.0:
                new_exponents[v] = min(GHAFFARI_MIN_EXPONENT, exponents[v] + 1)
            else:
                new_exponents[v] = max(1, exponents[v] - 1)
        exponents = new_exponents

        mis |= winners
        eliminate_winners(active, adjacency, winners)
        iteration += 1

    return MISResult(
        mis=mis,
        iterations=iteration,
        algorithm="ghaffari",
        seed=seed,
        active_history=history,
        extra={"completed": not active, "iterations_to_shatter": shatter_iteration},
    )


#: (kernel, oracle) per rule; tests elsewhere import this table.
RULES: Dict[str, Tuple[Callable[..., MISResult], Callable[..., MISResult]]] = {
    "metivier": (metivier_mis, reference_metivier),
    "luby-a": (luby_a_mis, reference_luby_a),
    "luby-b": (luby_b_mis, reference_luby_b),
    "ghaffari": (ghaffari_mis, reference_ghaffari),
}

FIELDS = tuple(field.name for field in dataclasses.fields(MISResult))


def assert_matches_reference(rule: str, graph: nx.Graph, seed: int = 0, **kwargs) -> None:
    kernel, oracle = RULES[rule]
    got, want = kernel(graph, seed=seed, **kwargs), oracle(graph, seed=seed, **kwargs)
    for name in FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert g == w, f"{rule} {name}: kernel {g!r} != reference {w!r}"


ATLAS = nx.graph_atlas_g()

#: The atlas graphs on at most six nodes (indices 0..208).
SMALL_ATLAS = [graph for graph in ATLAS if graph.number_of_nodes() <= 6]

#: Relabelings reaching the kernels' non-identity label paths: contiguous
#: negative int64 labels (searchsorted) and labels at or beyond 2⁶³,
#: which the CSR keeps as Python ints and keys modulo 2⁶⁴.
RELABELINGS = {
    "shifted-negative": lambda v: v - 5,
    "beyond-int64": lambda v: (1 << 63) + 7 * v,
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_matches_reference_on_every_atlas_graph(rule):
    # Atlas graph 0 is the empty graph, where the kernels used to return
    # extra={} instead of the oracle's completed (and shatter) keys.
    for index, graph in enumerate(ATLAS):
        try:
            assert_matches_reference(rule, graph, seed=index)
        except AssertionError as failure:
            raise AssertionError(f"atlas graph {index}: {failure}")


@pytest.mark.parametrize("relabeling", sorted(RELABELINGS))
@pytest.mark.parametrize("rule", sorted(RULES))
def test_matches_reference_on_relabeled_atlas(rule, relabeling):
    for index, graph in enumerate(SMALL_ATLAS):
        graph = nx.relabel_nodes(graph, RELABELINGS[relabeling])
        try:
            assert_matches_reference(rule, graph, seed=index)
        except AssertionError as failure:
            raise AssertionError(f"atlas graph {index} ({relabeling}): {failure}")


@pytest.fixture(scope="module", params=[10, 1000, 20_000], ids=lambda n: f"n={n}")
def workload(request):
    """``(n, graph)``: one generator call per size, shared by the four rules."""
    return request.param, bounded_arboricity_graph(request.param, 2, seed=request.param)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_matches_reference_on_workload_graphs(rule, workload):
    n, graph = workload
    assert_matches_reference(rule, graph, seed=n)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_matches_reference_when_iterations_run_out(rule, arb3_graph):
    for cap in (1, 2):
        assert_matches_reference(rule, arb3_graph, seed=5, max_iterations=cap)


def test_relabelings_reach_their_label_paths():
    # Guard the differential itself: the shifted labels go negative and
    # the large ones leave int64.
    graph = SMALL_ATLAS[-1]
    shifted = csr_from_graph(nx.relabel_nodes(graph, RELABELINGS["shifted-negative"]))
    assert int(shifted.labels[0]) < 0
    beyond = csr_from_graph(nx.relabel_nodes(graph, RELABELINGS["beyond-int64"]))
    assert beyond.integer_labeled and not hasattr(beyond.labels, "dtype")
