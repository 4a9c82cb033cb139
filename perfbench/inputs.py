"""Benchmark-owned inputs, made from the workload seed.

The serving graph, its mutation stream, its arrival schedule and the
read-k cells are generated here rather than by ``repro`` helpers, so a
change to the program cannot change the workload it is measured on.
(``run-arb`` and ``engines-shared`` call the program's generator on
purpose: generation is part of the ``repro run`` path they measure.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

#: One graph update as sent: (op, u, v); v is None for node ops.
Op = Tuple[str, int, object]

#: Share of each mutation kind: mostly edge churn, a trickle of node churn.
MUTATION_MIX = (("add-edge", 0.45), ("remove-edge", 0.45), ("add-node", 0.05), ("remove-node", 0.05))


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, input stream)."""
    return np.random.default_rng([seed, sum(map(ord, stream))])


def forest_union_edges(n: int, alpha: int, rng: np.random.Generator) -> np.ndarray:
    """Edges of a union of ``alpha`` random recursive trees on ``0..n-1``.

    Each tree is relabelled by a fresh permutation, so the union has
    arboricity at most ``alpha``; returns sorted unique ``(u, v)`` rows
    with ``u < v``.
    """
    parts = []
    for _ in range(alpha):
        perm = rng.permutation(n)
        child = np.arange(1, n)
        parent = (rng.random(n - 1) * child).astype(np.int64)
        parts.append(np.stack([perm[child], perm[parent]], axis=1))
    edges = np.sort(np.concatenate(parts), axis=1)
    return np.unique(edges, axis=0)


def arrival_schedule(
    rng: np.random.Generator, seconds: float, mutate_rate: float, query_rate: float
) -> List[Tuple[float, str]]:
    """Open-loop arrivals: two Poisson streams, each conditioned on its count.

    Fixing the counts (``rate * seconds``) keeps the offered load equal
    across seeds; the due times are uniform order statistics, which is a
    Poisson process given its count.
    """
    arrivals = []
    for op, rate in (("mutate", mutate_rate), ("query", query_rate)):
        count = max(1, int(round(rate * seconds)))
        arrivals += [(float(t), op) for t in rng.uniform(0.0, seconds, count)]
    arrivals.sort()
    return arrivals


class ChurnState:
    """The graph a mutation stream is generated against.

    Keeps node and edge lists with index maps so a uniform pick and a
    removal are O(1); ``adj`` is the adjacency the picks consult.
    """

    def __init__(self, n: int, edges: np.ndarray):
        self.adj: Dict[int, Set[int]] = {v: set() for v in range(n)}
        self.nodes: List[int] = list(range(n))
        self.node_at: Dict[int, int] = {v: v for v in range(n)}
        self.edges: List[Tuple[int, int]] = []
        self.edge_at: Dict[Tuple[int, int], int] = {}
        self.next_id = n
        for u, v in edges.tolist():
            self.add_edge(u, v)

    @staticmethod
    def _swap_pop(items: list, index: dict, key) -> None:
        i = index.pop(key)
        last = items.pop()
        if i < len(items):
            items[i] = last
            index[last] = i

    def add_edge(self, u: int, v: int) -> None:
        key = (min(u, v), max(u, v))
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.edge_at[key] = len(self.edges)
        self.edges.append(key)

    def remove_edge(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self._swap_pop(self.edges, self.edge_at, (min(u, v), max(u, v)))

    def add_node(self) -> int:
        v = self.next_id
        self.next_id += 1
        self.adj[v] = set()
        self.node_at[v] = len(self.nodes)
        self.nodes.append(v)
        return v

    def remove_node(self, v: int) -> None:
        for u in list(self.adj[v]):
            self.remove_edge(u, v)
        del self.adj[v]
        self._swap_pop(self.nodes, self.node_at, v)


def mutation_batches(
    rng: np.random.Generator, n: int, edges: np.ndarray, requests: int, ops: int
) -> List[Tuple[Op, ...]]:
    """``requests`` batches of ``ops`` mutations, each valid when sent.

    Every op is generated against the graph as the earlier ops left it,
    so deletes hit present edges and nodes and inserts add new edges.
    """
    state = ChurnState(n, edges)
    kinds = [kind for kind, _ in MUTATION_MIX]
    weights = np.array([w for _, w in MUTATION_MIX])
    batches = []
    for _ in range(requests):
        batch: List[Op] = []
        for kind in rng.choice(kinds, size=ops, p=weights / weights.sum()):
            if kind == "add-edge" and len(state.nodes) > 1:
                while True:
                    i, j = rng.integers(0, len(state.nodes), 2)
                    u, v = state.nodes[i], state.nodes[j]
                    if u != v and v not in state.adj[u]:
                        break
                state.add_edge(u, v)
                batch.append(("add-edge", u, v))
            elif kind == "remove-edge" and state.edges:
                u, v = state.edges[rng.integers(0, len(state.edges))]
                state.remove_edge(u, v)
                batch.append(("remove-edge", u, v))
            elif kind == "remove-node" and len(state.nodes) > 1:
                v = state.nodes[rng.integers(0, len(state.nodes))]
                state.remove_node(v)
                batch.append(("remove-node", v, None))
            else:
                batch.append(("add-node", state.add_node(), None))
        batches.append(tuple(batch))
    return batches


@dataclass(frozen=True)
class ReadKCell:
    """One read-k Monte-Carlo cell: a ``shared_parent_family`` shape."""

    indicators: int
    children: int
    sharing: int
    delta: float
    trials: int

    @property
    def marginal(self) -> float:
        """Pr[Y_j = 1] = Pr[some of c children beats the parent] = c/(c+1)."""
        return self.children / (self.children + 1)


#: The E4/E5 shapes; trials per estimate are fixed so every seed does the
#: same work, and are sized so the two cells cost about the same.
READK_CELLS = (ReadKCell(40, 2, 2, 0.5, 3000), ReadKCell(80, 3, 8, 0.5, 2000))


def trial_seeds(rng: np.random.Generator, count: int) -> List[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, count)]
