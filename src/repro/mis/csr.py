"""Columnar round-engine substrate shared by every bulk MIS engine.

One iteration of any competition-process MIS algorithm (DESIGN.md §4) is,
in columnar form, a fixed recipe over a :class:`~repro.graphs.csr.CSRGraph`:

1. draw keyed randomness for every node at once
   (:func:`keyed_priorities` / :func:`keyed_uniforms` — the vectorized
   twins of ``repro.rng.priority_draw`` / ``uniform_draw``);
2. reduce over neighborhoods (:func:`neighbor_max`, :func:`neighbor_sum`,
   :func:`neighbor_count`, :func:`neighbor_any` — CSR segment reductions);
3. pick winners (:func:`masked_competition` — vectorized strict-local-max
   with an exact scalar fallback for the ≤ n²/2⁶⁴ degenerate draws);
4. eliminate winners and their neighbors (:func:`eliminate_winners_bulk` —
   an O(m) scatter, no per-winner Python loop).

The bulk algorithms in :mod:`repro.mis.bulk` and :mod:`repro.core.bulk`
are thin compositions of these kernels; adding a new bulk algorithm means
writing only its key/marking rule (docs/columnar_substrate.md walks
through one).

Everything here is a pure function of its arguments — no wall clocks, no
global state — so the substrate inherits the determinism contract the
lint enforces for the CONGEST node programs.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import NotAnIndependentSetError, NotMaximalError
from repro.graphs.csr import CSRGraph
from repro.rng import priority_array

__all__ = [
    "segment_max",
    "segment_sum",
    "neighbor_max",
    "neighbor_sum",
    "neighbor_count",
    "neighbor_any",
    "spread_to_neighbors",
    "keyed_priorities",
    "keyed_uniforms",
    "masked_competition",
    "eliminate_winners_bulk",
    "validate_mis_csr",
]


# -- segment reductions ------------------------------------------------------


def segment_max(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment maximum; empty segments get 0.

    ``reduceat`` quirks handled here: an empty segment would otherwise
    report ``values[start]`` instead of an identity, and a trailing empty
    segment's start index (== ``values.size``) would be out of bounds.
    The out-of-bounds start is kept in range by padding ``values`` with
    one identity element, never by clipping the start: clipping would
    shift the *previous* segment's end boundary and silently drop its
    last element from the reduction.  Empty-segment garbage is discarded
    by the ``nonempty`` mask.
    """
    result = np.zeros(len(indptr) - 1, dtype=values.dtype)
    nonempty = indptr[:-1] < indptr[1:]
    if values.size:
        padded = np.concatenate([values, np.zeros(1, dtype=values.dtype)])
        maxima = np.maximum.reduceat(padded, indptr[:-1])
        result[nonempty] = maxima[nonempty]
    return result


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment sum; empty segments get 0.

    Summation is sequential in ascending index order (``add.reduceat``),
    which for float inputs fixes one definite association order — see the
    effective-degree note in docs/columnar_substrate.md.
    """
    result = np.zeros(len(indptr) - 1, dtype=values.dtype)
    nonempty = indptr[:-1] < indptr[1:]
    if values.size:
        # Same identity-padding scheme as segment_max (see its docstring
        # for why clipping the starts would be wrong).
        padded = np.concatenate([values, np.zeros(1, dtype=values.dtype)])
        sums = np.add.reduceat(padded, indptr[:-1])
        result[nonempty] = sums[nonempty]
    return result


def neighbor_max(values: np.ndarray, csr: CSRGraph) -> np.ndarray:
    """Per-node maximum of ``values`` over its neighbors (0 if none)."""
    return segment_max(values[csr.indices], csr.indptr)


def neighbor_sum(values: np.ndarray, csr: CSRGraph) -> np.ndarray:
    """Per-node sum of ``values`` over its neighbors (0 if none)."""
    return segment_sum(values[csr.indices], csr.indptr)


def neighbor_count(mask: np.ndarray, csr: CSRGraph) -> np.ndarray:
    """Per-node count of flagged neighbors."""
    return segment_sum(mask[csr.indices].astype(np.int64), csr.indptr)


def neighbor_any(mask: np.ndarray, csr: CSRGraph) -> np.ndarray:
    """Per-node boolean: does any neighbor carry the flag?"""
    return neighbor_max(mask.astype(np.uint8), csr).astype(bool)


def spread_to_neighbors(mask: np.ndarray, csr: CSRGraph) -> np.ndarray:
    """Boolean mask of nodes adjacent to a flagged node (O(m) scatter)."""
    out = np.zeros(csr.n, dtype=bool)
    if mask.any():
        edge_flag = np.repeat(mask, csr.degrees())
        out[csr.indices[edge_flag]] = True
    return out


# -- keyed randomness --------------------------------------------------------


def keyed_priorities(
    csr: CSRGraph, seed: int, iteration: int, tag: int = 0
) -> np.ndarray:
    """All nodes' 64-bit priorities for one iteration, in position order.

    Bit-identical to ``priority_draw(seed, label, iteration, tag)`` per
    node on integer-labeled graphs (``key_ids`` holds the labels).
    """
    return priority_array(seed, csr.key_ids, iteration, tag)


def keyed_uniforms(
    csr: CSRGraph, seed: int, iteration: int, tag: int = 0
) -> np.ndarray:
    """All nodes' uniform [0, 1) draws, bit-identical to ``uniform_draw``.

    Same construction as ``uniform_draw``: top 53 bits of the keyed hash
    scaled by 2⁻⁵³ — both steps exact in float64, so the comparison
    against any threshold lands on the same side in both engines.
    """
    raw = keyed_priorities(csr, seed, iteration, tag)
    return (raw >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


# -- competition step --------------------------------------------------------


def masked_competition(
    csr: CSRGraph,
    contenders: np.ndarray,
    keys: np.ndarray,
    blockers: Optional[np.ndarray] = None,
    exact_key: Optional[Callable[[int], Tuple]] = None,
) -> np.ndarray:
    """Winners of one competition step: contenders beating every neighbor.

    ``keys`` is a uint64 array where every non-participant holds 0 and
    participants hold a value whose numeric order equals their tuple key
    order.  The fast path declares a contender a winner iff its key
    strictly exceeds the neighborhood maximum; it is taken whenever the
    contender keys are unique and nonzero, which holds with probability
    ≥ 1 - n²/2⁶⁴ per iteration for hash-drawn keys (and always for
    id-embedding encodings).

    On a degenerate draw the exact scalar rule runs instead: ``exact_key``
    maps a position to the full comparison tuple (ending in the tiebreak
    id, so keys are unique) and ``blockers`` (default: contenders) marks
    the nodes whose keys can dominate a neighbor.  This reproduces the
    node programs' ``(priority, id)`` comparison bit for bit.
    """
    if blockers is None:
        blockers = contenders
    contender_values = keys[contenders]
    degenerate = bool((contender_values == 0).any()) or (
        len(np.unique(contender_values)) != int(contenders.sum())
    )
    if not degenerate:
        return contenders & (keys > neighbor_max(keys, csr))
    if exact_key is None:
        raise ValueError("degenerate keys need an exact_key fallback")
    winners = np.zeros(csr.n, dtype=bool)
    indptr, indices = csr.indptr, csr.indices
    for i in np.nonzero(contenders)[0]:
        key = exact_key(i)
        beats_all = True
        for j in indices[indptr[i] : indptr[i + 1]]:
            if blockers[j] and exact_key(int(j)) >= key:
                beats_all = False
                break
        winners[i] = beats_all
    return winners


def eliminate_winners_bulk(
    csr: CSRGraph, active: np.ndarray, winners: np.ndarray
) -> np.ndarray:
    """Remove winners and their active neighbors from ``active`` (in place).

    Returns the eliminated mask (winners ∪ their active neighbors) — the
    vectorized twin of :func:`repro.mis.engine.eliminate_winners`.
    """
    eliminated = (winners | spread_to_neighbors(winners, csr)) & active
    active &= ~eliminated
    return eliminated


# -- validation --------------------------------------------------------------


def validate_mis_csr(csr: CSRGraph, members: np.ndarray) -> None:
    """Assert ``members`` (a position mask) is an MIS of ``csr``.

    The O(n + m) columnar twin of ``repro.mis.validation.assert_valid_mis``
    for graphs that never materialize as ``networkx`` objects (the n = 10⁷
    benchmark path).
    """
    conflict = members & neighbor_any(members, csr)
    if conflict.any():
        position = int(np.nonzero(conflict)[0][0])
        raise NotAnIndependentSetError(
            f"adjacent members around position {position}"
        )
    undominated = ~members & ~neighbor_any(members, csr)
    if undominated.any():
        position = int(np.nonzero(undominated)[0][0])
        raise NotMaximalError(
            f"position {position} is neither a member nor dominated"
        )
