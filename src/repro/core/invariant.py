"""The per-scale Invariant of §3.

    At the end of scale k, for all v ∈ VIB:
        |{w ∈ Γ_IB(v) : deg_IB(w) > Δ/2^k + α}| ≤ Δ/2^(k+2)

The algorithm enforces it *by construction* (violators are moved to the bad
set B in step 2(b)); what the paper proves — and experiment E7 measures —
is that violations are rare, so B stays tiny.  This module provides the
per-node measurement primitives, which the tests' per-node reference
implementation of Algorithm 1 is also built from.
"""

from __future__ import annotations

from typing import Dict, Mapping, Set

from repro.core.parameters import Parameters

__all__ = [
    "active_degrees",
    "high_degree_neighbor_counts",
    "invariant_violators",
    "invariant_holds",
]


def active_degrees(active: Set[int], adjacency: Mapping[int, Set[int]]) -> Dict[int, int]:
    """deg_IB(v) for every active v: neighbors still in the active set."""
    return {v: sum(1 for u in adjacency[v] if u in active) for v in active}


def high_degree_neighbor_counts(
    active: Set[int],
    adjacency: Mapping[int, Set[int]],
    degree_threshold: float,
) -> Dict[int, int]:
    """|{w ∈ Γ_IB(v) : deg_IB(w) > threshold}| for every active v."""
    degrees = active_degrees(active, adjacency)
    high = {v for v in active if degrees[v] > degree_threshold}
    return {
        v: sum(1 for u in adjacency[v] if u in high)
        for v in active
    }


def invariant_violators(
    active: Set[int],
    adjacency: Mapping[int, Set[int]],
    parameters: Parameters,
    k: int,
) -> Set[int]:
    """Active nodes violating the scale-k Invariant (step 2(b)'s bad set)."""
    counts = high_degree_neighbor_counts(
        active, adjacency, parameters.high_degree_threshold(k)
    )
    bad_threshold = parameters.bad_threshold(k)
    return {v for v, c in counts.items() if c > bad_threshold}


def invariant_holds(
    active: Set[int],
    adjacency: Mapping[int, Set[int]],
    parameters: Parameters,
    k: int,
) -> bool:
    """Whether the scale-k Invariant holds for every active node."""
    return not invariant_violators(active, adjacency, parameters, k)
