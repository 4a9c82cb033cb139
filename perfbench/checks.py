"""Output checks the benchmark owns, independent of ``repro``'s validators.

Every check runs outside the timed region and returns an error message
(or None), which the workload counts as a failed operation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

import numpy as np


def mis_violation(nodes: np.ndarray, edges: np.ndarray, mis: Iterable[int]) -> Optional[str]:
    """Why ``mis`` is not a maximal independent set of the graph, or None.

    ``nodes`` is the sorted array of node ids and ``edges`` an ``(m, 2)``
    array of endpoints.
    """
    members = np.fromiter((int(v) for v in mis), dtype=np.int64)
    if members.size != np.unique(members).size:
        return "the set repeats a node"
    where = np.searchsorted(nodes, members)
    known = where < nodes.size
    known[known] = nodes[where[known]] == members[known]
    if not known.all():
        return f"node {int(members[~known][0])} is not in the graph"
    selected = np.zeros(nodes.size, dtype=bool)
    selected[where] = True
    if edges.size == 0:
        uncovered = np.flatnonzero(~selected)
        return f"node {int(nodes[uncovered[0]])} is undominated" if uncovered.size else None
    u = np.searchsorted(nodes, edges[:, 0])
    v = np.searchsorted(nodes, edges[:, 1])
    both = selected[u] & selected[v]
    if both.any():
        i = int(np.flatnonzero(both)[0])
        return f"adjacent nodes {int(edges[i, 0])} and {int(edges[i, 1])} are both selected"
    dominated = selected.copy()
    dominated[u[selected[v]]] = True
    dominated[v[selected[u]]] = True
    if not dominated.all():
        return f"node {int(nodes[np.flatnonzero(~dominated)[0]])} is undominated"
    return None


def graph_arrays(graph) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted nodes, edge rows)`` of a networkx graph."""
    nodes = np.sort(np.fromiter(graph.nodes, dtype=np.int64, count=graph.number_of_nodes()))
    edges = np.array(list(graph.edges), dtype=np.int64).reshape(-1, 2)
    return nodes, edges


class ReplayGraph:
    """The benchmark's own copy of a served graph, mutated op by op.

    Mutations are idempotent, as the service defines them: adding a
    present edge or removing an absent one changes nothing, and an edge
    insert creates missing endpoints.
    """

    def __init__(self, edges: np.ndarray):
        self.adj: Dict[int, Set[int]] = {}
        for u, v in edges.tolist():
            self._add_edge(u, v)

    def _add_edge(self, u: int, v: int) -> None:
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def apply(self, op: str, u: int, v) -> None:
        if op == "add-edge":
            self._add_edge(u, v)
        elif op == "remove-edge":
            if v in self.adj.get(u, ()):
                self.adj[u].discard(v)
                self.adj[v].discard(u)
        elif op == "add-node":
            self.adj.setdefault(u, set())
        elif op == "remove-node":
            for w in self.adj.pop(u, ()):
                self.adj[w].discard(u)
        else:
            raise ValueError(f"unknown mutation op {op!r}")

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        nodes = np.array(sorted(self.adj), dtype=np.int64)
        edges = np.array(
            [(u, v) for u, near in self.adj.items() for v in near if u < v], dtype=np.int64
        ).reshape(-1, 2)
        return nodes, edges


def snapshot_violation(snapshot: dict, nodes: np.ndarray, edges: np.ndarray) -> Optional[str]:
    """Check a served snapshot against the replayed graph at its epoch."""
    if snapshot.get("nodes") != nodes.size or snapshot.get("edges") != len(edges):
        return (
            f"epoch {snapshot.get('epoch')}: snapshot has {snapshot.get('nodes')} nodes "
            f"and {snapshot.get('edges')} edges, replay has {nodes.size} and {len(edges)}"
        )
    error = mis_violation(nodes, edges, snapshot.get("mis", ()))
    return None if error is None else f"epoch {snapshot.get('epoch')}: {error}"


def replay_violations(
    bootstrap: np.ndarray,
    bootstrap_epoch: int,
    mutations_by_epoch: Dict[int, Sequence[Tuple[str, int, object]]],
    snapshots: Sequence[dict],
) -> Dict[int, str]:
    """Check every snapshot against the graph at its epoch.

    ``mutations_by_epoch`` holds each committed epoch's ops in the order
    they were sent.  Returns ``{snapshot index: error}``.
    """
    errors: Dict[int, str] = {}
    wanted: Dict[int, list] = {}
    for i, snap in enumerate(snapshots):
        wanted.setdefault(snap.get("epoch"), []).append(i)
    graph = ReplayGraph(bootstrap)
    known = {bootstrap_epoch, *mutations_by_epoch}
    for epoch, indices in wanted.items():
        if epoch not in known:
            for i in indices:
                errors[i] = f"snapshot at epoch {epoch}, which no mutate response committed"
    for epoch in sorted(known):
        for op in mutations_by_epoch.get(epoch, ()):
            graph.apply(*op)
        if epoch in wanted:
            nodes, edges = graph.arrays()
            for i in wanted[epoch]:
                error = snapshot_violation(snapshots[i], nodes, edges)
                if error is not None:
                    errors[i] = error
    return errors


def marginal_violation(
    observed: np.ndarray, expected: float, trials: int, sigmas: float = 6.0
) -> Optional[str]:
    """Each empirical marginal must lie within ``sigmas`` binomial standard
    errors of the analytic value."""
    tolerance = sigmas * math.sqrt(expected * (1.0 - expected) / trials)
    off = np.abs(np.asarray(observed, dtype=float) - expected)
    if not np.all(np.isfinite(off)):
        return "a marginal is not a number"
    if (off > tolerance).any():
        j = int(np.argmax(off))
        return (
            f"marginal of indicator {j} is {float(observed[j]):.4f}, expected "
            f"{expected:.4f} +- {tolerance:.4f}"
        )
    return None
