"""MIS algorithms: the paper's baselines and comparators.

Every randomized algorithm here is implemented twice behind one interface
(DESIGN.md §4): as a CONGEST :class:`~repro.congest.algorithm.NodeAlgorithm`
for fidelity and as one columnar kernel (:mod:`repro.mis.bulk`) for speed,
with both drawing identical randomness from :mod:`repro.rng`, so their
outputs are bit-identical for equal seeds.

* :mod:`~repro.mis.luby` — Luby's Algorithm A (integer priorities) and
  Algorithm B (degree-based marking), the classic O(log n) baselines;
* :mod:`~repro.mis.metivier` — Métivier et al.'s priority variant, the
  engine inside all the tree/arboricity algorithms;
* :mod:`~repro.mis.ghaffari` — Ghaffari's SODA 2016 desire-level algorithm,
  the comparator the paper concedes dominates it (E12);
* :mod:`~repro.mis.tree` — Barenboim et al.'s TreeIndependentSet, the α = 1
  specialization the paper generalizes;
* :mod:`~repro.mis.greedy` — sequential greedy baselines and the lexical
  MIS used as ground truth in tests;
* :mod:`~repro.mis.validation` — independence/maximality checkers;
* :mod:`~repro.mis.csr` / :mod:`~repro.mis.bulk` — the columnar substrate
  and the kernel of each randomized algorithm (re-exported by its module
  above under the plain name), built for n up to 10⁷;
* :mod:`~repro.mis.constants` — the rng tags and bounds every engine of
  Luby B and Ghaffari shares.
"""

from repro.mis.bulk import (
    ghaffari_mis_bulk,
    luby_a_mis_bulk,
    luby_b_mis_bulk,
    metivier_mis_bulk,
)
from repro.mis.engine import MISResult
from repro.mis.ghaffari import GhaffariMIS, ghaffari_mis
from repro.mis.greedy import greedy_mis, lexicographic_mis, random_order_mis
from repro.mis.luby import LubyAMIS, LubyBMIS, luby_a_mis, luby_b_mis
from repro.mis.metivier import MetivierMIS, metivier_mis
from repro.mis.registry import available_algorithms, get_algorithm
from repro.mis.tree import tree_mis
from repro.mis.validation import (
    assert_valid_mis,
    is_independent_set,
    is_maximal_independent_set,
)

__all__ = [
    "MISResult",
    "luby_a_mis",
    "luby_b_mis",
    "LubyAMIS",
    "LubyBMIS",
    "metivier_mis",
    "MetivierMIS",
    "ghaffari_mis",
    "GhaffariMIS",
    "tree_mis",
    "greedy_mis",
    "lexicographic_mis",
    "random_order_mis",
    "is_independent_set",
    "is_maximal_independent_set",
    "assert_valid_mis",
    "available_algorithms",
    "get_algorithm",
    "metivier_mis_bulk",
    "luby_a_mis_bulk",
    "luby_b_mis_bulk",
    "ghaffari_mis_bulk",
]
