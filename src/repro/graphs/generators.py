"""Workload graph generators.

Every generator takes an explicit ``seed`` and returns a
:class:`networkx.Graph` with integer nodes ``0..n-1``, so experiments are
exactly reproducible.  The generators cover the graph families the paper
talks about:

* **trees / forests** (arboricity 1) — the Lenzen–Wattenhofer and Barenboim
  et al. setting the paper generalizes from;
* **unions of α random forests** — the canonical arboricity-≤α family and
  the primary workload for the paper's algorithm;
* **planar graphs, k-trees, grids** — the "rich family of constant
  arboricity graphs" the introduction name-checks (planar ⇒ α ≤ 3,
  k-tree ⇒ α ≤ k, grid ⇒ α ≤ 2);
* **G(n, p), random regular, hypercubes** — unbounded-arboricity contrast
  workloads for the baselines.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "GraphSpec",
    "random_tree",
    "random_binary_tree",
    "path_graph",
    "star_graph",
    "cycle_graph",
    "complete_graph",
    "grid_graph",
    "hypercube_graph",
    "gnp_graph",
    "random_regular",
    "k_tree",
    "bounded_arboricity_graph",
    "starry_arboricity_graph",
    "random_maximal_planar_graph",
    "barbell_of_trees",
]


def _require_positive(n: int) -> None:
    if n <= 0:
        raise ConfigurationError(f"graph size must be positive, got {n}")


def random_tree(n: int, seed: int = 0) -> nx.Graph:
    """A uniformly random labeled tree on ``n`` nodes via a Prüfer sequence.

    Uniformity over all n^(n-2) labeled trees matters for the experiments:
    random trees have Θ(log n / log log n) maximum degree, giving the MIS
    algorithms a non-trivial degree profile (unlike paths or stars).
    """
    _require_positive(n)
    u, v = _random_tree_edges(n, seed)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(u.tolist(), v.tolist()))
    return g


def _random_tree_edges(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Edge arrays of ``random_tree(n, seed)`` in Prüfer decode order
    (standard O(n log n) smallest-leaf heap), without building a graph."""
    if n <= 2:  # no edge, or the single edge (0, 1)
        return np.arange(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(key=seed))
    prufer = rng.integers(0, n, size=n - 2).tolist()
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    u: List[int] = []
    for x in prufer:
        u.append(heapq.heappop(leaves))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u.append(heapq.heappop(leaves))
    v = prufer + [heapq.heappop(leaves)]
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


def _forest_edges(n: int, seed: int) -> List[Tuple[int, int]]:
    """The edges of ``random_tree(n, seed)`` in the order its ``edges()``
    view lists them.

    A tree whose nodes are ``0..n-1`` in order reports edge ``{u, v}``
    from ``min(u, v)``, in the order the decode added it: the decode
    order stably sorted by the smaller endpoint, each edge oriented
    ``(min, max)``.  Adding these to a union leaves the same node order
    and per-node adjacency order as copying a built tree's ``edges()``.
    """
    u, v = _random_tree_edges(n, seed)
    low, high = np.minimum(u, v), np.maximum(u, v)
    order = np.argsort(low, kind="stable")
    return list(zip(low[order].tolist(), high[order].tolist()))


def random_binary_tree(n: int, seed: int = 0) -> nx.Graph:
    """A random binary tree: each new node attaches to a uniform node that
    still has fewer than 3 tree-neighbors (1 parent + 2 children)."""
    _require_positive(n)
    g = nx.Graph()
    g.add_node(0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    open_slots = [0, 0]  # node 0 can take two children
    for v in range(1, n):
        idx = int(rng.integers(0, len(open_slots)))
        parent = open_slots.pop(idx)
        g.add_edge(parent, v)
        open_slots.extend([v, v])
    return g


def path_graph(n: int) -> nx.Graph:
    """The path on ``n`` nodes (arboricity 1)."""
    _require_positive(n)
    return nx.path_graph(n)


def star_graph(n: int) -> nx.Graph:
    """A star with ``n`` nodes total (one hub, n-1 leaves)."""
    _require_positive(n)
    return nx.star_graph(n - 1)


def cycle_graph(n: int) -> nx.Graph:
    """The cycle on ``n`` nodes (arboricity 2 for n >= 3)."""
    _require_positive(n)
    return nx.cycle_graph(n)


def complete_graph(n: int) -> nx.Graph:
    """K_n — the unbounded-arboricity stress case (alpha = ceil(n/2))."""
    _require_positive(n)
    return nx.complete_graph(n)


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """A rows×cols grid, relabeled to integers (arboricity ≤ 2)."""
    _require_positive(rows)
    _require_positive(cols)
    g = nx.grid_2d_graph(rows, cols)
    mapping = {node: i for i, node in enumerate(sorted(g.nodes()))}
    return nx.relabel_nodes(g, mapping)


def hypercube_graph(dimension: int) -> nx.Graph:
    """The ``dimension``-dimensional hypercube on 2^dimension nodes."""
    if dimension < 0:
        raise ConfigurationError("hypercube dimension must be non-negative")
    g = nx.hypercube_graph(dimension)
    mapping = {node: i for i, node in enumerate(sorted(g.nodes()))}
    return nx.relabel_nodes(g, mapping)


def gnp_graph(n: int, p: float, seed: int = 0) -> nx.Graph:
    """Erdős–Rényi G(n, p), with isolated vertices kept.

    Uses the O(n + m) geometric-skip sampler, so sparse G(n, p) scales to
    the bulk-engine sizes (the naive sampler is Θ(n²)).
    """
    _require_positive(n)
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"edge probability must be in [0,1], got {p}")
    return nx.fast_gnp_random_graph(n, p, seed=seed)


def random_regular(n: int, d: int, seed: int = 0) -> nx.Graph:
    """A random d-regular graph (n*d must be even)."""
    _require_positive(n)
    if d < 0 or d >= n or (n * d) % 2 != 0:
        raise ConfigurationError(f"invalid regular graph parameters n={n}, d={d}")
    return nx.random_regular_graph(d, n, seed=seed)


def k_tree(n: int, k: int, seed: int = 0) -> nx.Graph:
    """A random k-tree on ``n`` nodes (treewidth exactly k, arboricity ≤ k).

    Built the standard way: start from a (k+1)-clique, then each new node is
    joined to a uniformly random existing k-clique.
    """
    _require_positive(n)
    if k < 1:
        raise ConfigurationError("k-tree parameter k must be >= 1")
    if n < k + 1:
        raise ConfigurationError(f"a k-tree needs at least k+1={k + 1} nodes, got {n}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = nx.complete_graph(k + 1)
    cliques = [tuple(c) for c in itertools.combinations(range(k + 1), k)]
    for v in range(k + 1, n):
        clique = cliques[int(rng.integers(0, len(cliques)))]
        for u in clique:
            g.add_edge(v, u)
        for subset in itertools.combinations(clique, k - 1):
            cliques.append(tuple(sorted(subset + (v,))))
    return g


def bounded_arboricity_graph(n: int, alpha: int, seed: int = 0) -> nx.Graph:
    """The union of ``alpha`` independent uniformly random spanning trees.

    This is the canonical construction of an arboricity-≤α graph: the edge
    set partitions into α forests by construction, so arboricity ≤ α, and
    for n ≫ α the union has ≈ α(n-1) distinct edges, making the
    Nash–Williams density ≈ α, i.e. the bound is essentially tight.  It is
    the primary workload for the paper's algorithm (DESIGN.md E1/E3/E6).

    Adjacency order is part of the contract, not only the edge set: nodes
    are ``0..n-1`` in order, and each tree's edges are added in the order
    a built ``random_tree``'s ``edges()`` lists them.  The per-node loops
    (finishing, repair, the test oracles) and the CONGEST simulator iterate the graph in these orders, so tests
    pin them with golden digests.
    """
    _require_positive(n)
    if alpha < 1:
        raise ConfigurationError("arboricity parameter must be >= 1")
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for forest_index in range(alpha):
        g.add_edges_from(
            _forest_edges(n, seed * 1_000_003 + forest_index + 1)
        )
    return g


def random_maximal_planar_graph(n: int, seed: int = 0) -> nx.Graph:
    """A random maximal planar graph (triangulation) on ``n ≥ 3`` nodes.

    Built incrementally: maintain a planar triangulation and insert each new
    node inside a uniformly random face, connecting it to the face's three
    corners.  Every step preserves maximal planarity, so the result has
    exactly 3n - 6 edges and arboricity exactly 3 (Nash–Williams:
    ⌈(3n-6)/(n-1)⌉ = 3 for n ≥ 4).
    """
    if n < 3:
        raise ConfigurationError("a maximal planar graph needs at least 3 nodes")
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = nx.Graph()
    g.add_edges_from([(0, 1), (1, 2), (0, 2)])
    faces = [(0, 1, 2), (0, 1, 2)]  # interior and exterior of the triangle
    for v in range(3, n):
        face_index = int(rng.integers(0, len(faces)))
        a, b, c = faces.pop(face_index)
        g.add_edges_from([(v, a), (v, b), (v, c)])
        faces.extend([(a, b, v), (b, c, v), (a, c, v)])
    return g


def starry_arboricity_graph(
    n: int, alpha: int, hubs: int = 4, seed: int = 0
) -> nx.Graph:
    """An arboricity-≤α graph with a *skewed* degree profile.

    The first forest is a chain of ``hubs`` stars (each hub collects
    ≈ n/hubs leaves; the hubs are joined in a path — still one tree), and
    the remaining α-1 forests are uniform random trees.  Maximum degree is
    Θ(n/hubs) while arboricity stays ≤ α, which is the regime where the
    paper's scale machinery (high-degree thresholds, the ρ_k opt-out,
    bad-node marking) actually fires — uniform random forests have
    Δ = O(log n) and finish before the first scale ends.
    """
    _require_positive(n)
    if alpha < 1:
        raise ConfigurationError("arboricity parameter must be >= 1")
    if hubs < 1 or hubs > n:
        raise ConfigurationError(f"hubs must be in [1, n], got {hubs}")
    g = nx.Graph()
    g.add_nodes_from(range(n))
    hub_ids = list(range(hubs))
    for i in range(hubs - 1):
        g.add_edge(hub_ids[i], hub_ids[i + 1])
    for v in range(hubs, n):
        g.add_edge(v, hub_ids[v % hubs])
    for forest_index in range(alpha - 1):
        g.add_edges_from(
            _forest_edges(n, seed * 2_000_003 + forest_index + 1)
        )
    return g


def barbell_of_trees(tree_size: int, alpha: int, seed: int = 0) -> nx.Graph:
    """Two arboricity-α blobs joined by a long path: a worst-case-ish
    workload where shattering leaves work at both ends (used in tests).
    """
    _require_positive(tree_size)
    left = bounded_arboricity_graph(tree_size, alpha, seed=seed)
    right = bounded_arboricity_graph(tree_size, alpha, seed=seed + 1)
    g = nx.Graph()
    g.add_edges_from(left.edges())
    offset = tree_size
    g.add_edges_from((u + offset, v + offset) for u, v in right.edges())
    bridge_length = max(2, tree_size // 4)
    previous = 0
    next_id = 2 * tree_size
    for _ in range(bridge_length):
        g.add_edge(previous, next_id)
        previous = next_id
        next_id += 1
    g.add_edge(previous, offset)
    return g


@dataclass(frozen=True)
class GraphSpec:
    """A named, seedable graph recipe used by the sweep harness.

    Keeping the recipe (rather than the graph) lets benchmark code vary
    ``n`` and ``seed`` while reporting a stable family name in tables.
    """

    family: str
    params: tuple = ()

    def build(self, n: int, seed: int = 0) -> nx.Graph:
        factory = _SPEC_FACTORIES.get(self.family)
        if factory is None:
            raise ConfigurationError(f"unknown graph family {self.family!r}")
        return factory(n, seed, *self.params)

    def label(self) -> str:
        if self.params:
            inner = ",".join(str(p) for p in self.params)
            return f"{self.family}({inner})"
        return self.family


_SPEC_FACTORIES: Dict[str, Callable] = {
    "tree": lambda n, seed: random_tree(n, seed),
    "binary-tree": lambda n, seed: random_binary_tree(n, seed),
    "path": lambda n, seed: path_graph(n),
    "star": lambda n, seed: star_graph(n),
    "cycle": lambda n, seed: cycle_graph(n),
    "grid": lambda n, seed: grid_graph(max(1, int(round(n**0.5))), max(1, int(round(n**0.5)))),
    "arb": lambda n, seed, alpha: bounded_arboricity_graph(n, alpha, seed),
    "starry": lambda n, seed, alpha, hubs: starry_arboricity_graph(n, alpha, hubs, seed),
    "planar": lambda n, seed: random_maximal_planar_graph(max(3, n), seed),
    "ktree": lambda n, seed, k: k_tree(max(k + 1, n), k, seed),
    "gnp": lambda n, seed, p: gnp_graph(n, p, seed),
    "regular": lambda n, seed, d: random_regular(n, d, seed),
}
