"""Golden hashes pinning the generators down to adjacency order.

Two builds of "the same graph" must agree on node order, every node's
adjacency insertion order and the ``edges()`` listing, not only on the
edge set: the columnar engines see only the sorted CSR, but the scalar
engines, the CONGEST simulator and every consumer that iterates the
graph see these orders.  The digests were recorded from the
graph-per-tree construction the generators used before they decoded
Prüfer sequences straight to edge lists.
"""

from __future__ import annotations

import hashlib

import networkx as nx
import pytest

from repro.graphs.generators import (
    barbell_of_trees,
    bounded_arboricity_graph,
    random_tree,
    starry_arboricity_graph,
)


def digest(graph: nx.Graph) -> str:
    payload = (list(graph), [list(graph.adj[v]) for v in graph], list(graph.edges))
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def build(case: str) -> nx.Graph:
    family, *params = case.split("/")
    p = [int(x) for x in params]
    if family == "arb":
        return bounded_arboricity_graph(p[0], p[1], seed=p[2])
    if family == "tree":
        return random_tree(p[0], seed=p[1])
    if family == "starry":
        return starry_arboricity_graph(p[0], p[1], hubs=p[2], seed=3)
    return barbell_of_trees(p[0], p[1], seed=2)


# Keys: arb/n/alpha/seed, tree/n/seed, starry/n/alpha/hubs (seed 3),
# barbell/tree_size/alpha (seed 2).
GOLDEN = {
    "arb/1/1/0": "6b1e2bce2c44d7364af0620aa8253f46c4b300c3686bca343e619c3e150f0698",
    "arb/1/1/7": "6b1e2bce2c44d7364af0620aa8253f46c4b300c3686bca343e619c3e150f0698",
    "arb/1/2/0": "6b1e2bce2c44d7364af0620aa8253f46c4b300c3686bca343e619c3e150f0698",
    "arb/1/2/7": "6b1e2bce2c44d7364af0620aa8253f46c4b300c3686bca343e619c3e150f0698",
    "arb/1/3/0": "6b1e2bce2c44d7364af0620aa8253f46c4b300c3686bca343e619c3e150f0698",
    "arb/1/3/7": "6b1e2bce2c44d7364af0620aa8253f46c4b300c3686bca343e619c3e150f0698",
    "arb/2/1/0": "ed54af32c3fd7afdf3c10e2102c03344f05f51973bfb415bd1bb60f3a896e81c",
    "arb/2/1/7": "ed54af32c3fd7afdf3c10e2102c03344f05f51973bfb415bd1bb60f3a896e81c",
    "arb/2/2/0": "ed54af32c3fd7afdf3c10e2102c03344f05f51973bfb415bd1bb60f3a896e81c",
    "arb/2/2/7": "ed54af32c3fd7afdf3c10e2102c03344f05f51973bfb415bd1bb60f3a896e81c",
    "arb/2/3/0": "ed54af32c3fd7afdf3c10e2102c03344f05f51973bfb415bd1bb60f3a896e81c",
    "arb/2/3/7": "ed54af32c3fd7afdf3c10e2102c03344f05f51973bfb415bd1bb60f3a896e81c",
    "arb/3/1/0": "ce5d633e2e2ab66d0e6fcdef43725ce9c8a17a96a4aac6fb4d657ea8663dff60",
    "arb/3/1/7": "4fb5b7eb74ea70a26b0877d411d3854bfa46b2e9a9d41f1f307ba374a26dbb86",
    "arb/3/2/0": "ce5d633e2e2ab66d0e6fcdef43725ce9c8a17a96a4aac6fb4d657ea8663dff60",
    "arb/3/2/7": "4fb5b7eb74ea70a26b0877d411d3854bfa46b2e9a9d41f1f307ba374a26dbb86",
    "arb/3/3/0": "46228975c125489a906b503a323e5c58e659e29979c05de38f777acfe0215c8d",
    "arb/3/3/7": "4fb5b7eb74ea70a26b0877d411d3854bfa46b2e9a9d41f1f307ba374a26dbb86",
    "arb/10/1/0": "f0e5abbd365c438090a23e3a7f6f7fcc62289e23a59392845d24cc0a73591f2f",
    "arb/10/1/7": "81a1b383f818cf3b1f497fe071b974c81cf091f8742169de1c6352a46336225f",
    "arb/10/2/0": "57b0691b741274c866b532b04d04e3f040cf40c3f6ac458b6c0236c6e76e2096",
    "arb/10/2/7": "33e479cbe24c18b96d72dbfb11d5039dcc0287fa1ec750270c2c5eeac5ca9bde",
    "arb/10/3/0": "33cafc72ea94bdc1d38507898b039bf0e2e960a7b5b19c511a70f9b96957e170",
    "arb/10/3/7": "e1ef1ad12e93e4e956b8ae9130deed90f1e7daca3b91b9f8925d763eb8b9aad5",
    "arb/1000/1/0": "6537228d615ef2f45bf177cab477c17be4616b2f4094df1390a5c94b2e91f3ec",
    "arb/1000/1/7": "376251d449b40b4268e18dfd21475a7547d4c350c31084279e1c78b0de4a1c93",
    "arb/1000/2/0": "855f09a27fecd333be2209a6f07f49e0a3ba2c4300ff52ef003d9da491ba1c35",
    "arb/1000/2/7": "506492c4d80f8dbc29b83377b7e4fee5c7fe09e61c2370ac87fc3fd143dab52d",
    "arb/1000/3/0": "7baf6a4d6e8a68f3741732c241aba1e94efcec3409ddd6cc112eb2f09dd99afe",
    "arb/1000/3/7": "518e1eb4b8640fc31984108c869a9a16a2a2d55eb6b4d56244d76cc4eaa66abd",
    "tree/1/0": "6b1e2bce2c44d7364af0620aa8253f46c4b300c3686bca343e619c3e150f0698",
    "tree/1/5": "6b1e2bce2c44d7364af0620aa8253f46c4b300c3686bca343e619c3e150f0698",
    "tree/2/0": "ed54af32c3fd7afdf3c10e2102c03344f05f51973bfb415bd1bb60f3a896e81c",
    "tree/2/5": "ed54af32c3fd7afdf3c10e2102c03344f05f51973bfb415bd1bb60f3a896e81c",
    "tree/3/0": "4fb5b7eb74ea70a26b0877d411d3854bfa46b2e9a9d41f1f307ba374a26dbb86",
    "tree/3/5": "4fb5b7eb74ea70a26b0877d411d3854bfa46b2e9a9d41f1f307ba374a26dbb86",
    "tree/17/0": "49c11ae2708b69c0666d4dc1b3ce30f676a8b39b2712c6414dac586e4ba1aa88",
    "tree/17/5": "d03b91de3a39457bada193a1f15ed732735071af6383bbd03cf9875ba1fc42b0",
    "tree/500/0": "065802abaac2a257a136726ebe91fc520aa217ac957fa54b2d53699a50f5d9e6",
    "tree/500/5": "afd48426bb9617876dfc6c7f6f17f0556d0dad2ed98ef46740a5f0fd3cb00e7e",
    "starry/1/1/1": "6b1e2bce2c44d7364af0620aa8253f46c4b300c3686bca343e619c3e150f0698",
    "starry/10/2/3": "41b7f1df793714a44520ea1f84b60e33a0668c9447d6119904eb2cbff2b19123",
    "starry/200/3/4": "037521066b479c2b9c6c8fdf49b7d1aa55df0718424668518691a957dc9d2f5b",
    "starry/1000/2/7": "9905e45d434c7836956055159baaa3ea1e18f5d73cd4b92f8e2b67efdb83ea30",
    "barbell/1/1": "9cb33c715ddad3e34b5796061766bb1a0e0e96366d3ed149d12262bdcc7348ec",
    "barbell/12/2": "b825deb7bdce30ac5658a5ef0d33bfc3841f0f423967522bbdb0f36009889ed7",
    "barbell/150/3": "b5a0f05acfb219171ea615058222738736d0370538bf29a0e3c908d69ffcec57",
}


def test_covers_the_bounded_arboricity_grid():
    grid = {
        f"arb/{n}/{a}/{s}"
        for n in (1, 2, 3, 10, 1000)
        for a in (1, 2, 3)
        for s in (0, 7)
    }
    assert grid <= set(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_generator_matches_golden_digest(case):
    assert digest(build(case)) == GOLDEN[case]
