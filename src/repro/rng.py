"""Splittable, reproducible randomness for distributed simulations.

The reproduction's correctness argument for using a fast centralized engine
in large parameter sweeps is that the CONGEST engine and the fast engine are
*bit-identical* for the same seed (DESIGN.md §4).  That property only holds
if both engines draw the same random numbers in the same logical positions.
This module provides the shared scheme:

* every (algorithm run) has a root integer ``seed``;
* every node ``v`` derives a per-node stream from ``(seed, v)``;
* every round/iteration ``t`` derives its draw from ``(seed, v, t, tag)``.

Streams are implemented with :class:`numpy.random.Philox`, a counter-based
generator designed precisely for this kind of keyed, order-independent
derivation.  Two engines that agree on the ``(seed, node, round, tag)`` keys
agree on every draw regardless of the order in which they evaluate nodes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "derive_seed",
    "derive_seed_array",
    "ring_array",
    "node_round_rng",
    "priority_draw",
    "priority_array",
    "priority_vector",
    "uniform_draw",
    "bernoulli_draw",
    "PRIORITY_BITS",
    "PRIORITY_SCALE",
]

# Priorities are drawn as integers in [0, 2**PRIORITY_BITS) so that they fit
# in O(log n)-bit CONGEST messages (Métivier et al. show O(log n) random bits
# per node per round suffice; 64 bits makes ties vanishingly unlikely and we
# additionally break ties by node id).
PRIORITY_BITS = 64
PRIORITY_SCALE = float(2**PRIORITY_BITS)

_MIX_1 = 0x9E3779B97F4A7C15  # golden-ratio increment used by splitmix64
_MIX_2 = 0xBF58476D1CE4E5B9
_MIX_3 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 mixing step; a cheap, well-distributed 64-bit hash."""
    x = (x + _MIX_1) & _MASK
    x = ((x ^ (x >> 30)) * _MIX_2) & _MASK
    x = ((x ^ (x >> 27)) * _MIX_3) & _MASK
    return x ^ (x >> 31)


def derive_seed(*keys: int) -> int:
    """Derive a 64-bit seed from an ordered tuple of integer keys.

    The derivation is a splitmix64 chain, so ``derive_seed(a, b)`` and
    ``derive_seed(b, a)`` differ and collisions behave like a random hash.
    Negative keys are folded into the 64-bit ring.
    """
    state = 0x8E51_2FB9_C3A4_D901
    for key in keys:
        state = _splitmix64((state ^ (key & _MASK)) & _MASK)
    return state


def node_round_rng(seed: int, node: int, round_index: int, tag: int = 0) -> np.random.Generator:
    """Return the RNG for node ``node`` in round ``round_index``.

    ``tag`` distinguishes independent draws within the same round (e.g. the
    priority draw vs. a marking coin).  Both simulation engines call this
    with identical keys, which is what makes them bit-identical.
    """
    key = derive_seed(seed, node, round_index, tag)
    return np.random.Generator(np.random.Philox(key=key))


def priority_draw(seed: int, node: int, round_index: int, tag: int = 0) -> int:
    """Draw the 64-bit integer priority of ``node`` for ``round_index``.

    Returns a uniform integer in ``[0, 2**PRIORITY_BITS)``.  Callers compare
    priorities as ``(value, node_id)`` tuples so ties are impossible.  The
    draw is a pure splitmix64 hash of the key tuple — constant time, no
    generator state — which keeps the fast engine fast while remaining
    bit-identical with the CONGEST engine.
    """
    return derive_seed(seed, node, round_index, tag)


def uniform_draw(seed: int, node: int, round_index: int, tag: int = 0) -> float:
    """Draw a uniform float in [0, 1) keyed by (seed, node, round, tag).

    Uses the top 53 bits of the keyed 64-bit hash, matching the precision of
    an IEEE double mantissa.
    """
    return (derive_seed(seed, node, round_index, tag) >> 11) * (1.0 / (1 << 53))


def bernoulli_draw(p: float, seed: int, node: int, round_index: int, tag: int = 0) -> bool:
    """Draw a Bernoulli(p) coin keyed by (seed, node, round, tag)."""
    return uniform_draw(seed, node, round_index, tag) < p


def ring_array(ids: Sequence[int]) -> "np.ndarray":
    """Integer ids folded into the 64-bit ring (``v & MASK``) as uint64.

    The fold :func:`derive_seed` applies to every key, done in bulk:
    int64 input reinterprets negative ids as their two's complement, and
    ids at or beyond 2⁶³ (which int64 cannot hold) take a per-element
    path, so every id folds exactly as the scalar chain folds it.
    """
    try:
        return np.array(ids, dtype=np.int64).reshape(-1).view(np.uint64)
    except OverflowError:
        return np.fromiter(
            (int(v) & _MASK for v in ids), dtype=np.uint64, count=len(ids)
        )


def derive_seed_array(*keys) -> "np.ndarray":
    """Vectorized :func:`derive_seed`: each key is an int or a uint64 array.

    Replicates the exact splitmix64 chain with numpy uint64 arithmetic
    (which wraps mod 2^64 natively); scalar keys broadcast against the
    array keys, so ``derive_seed_array(a, ring_array([v]), c)[0] ==
    derive_seed(a, v, c)`` bit for bit.
    """
    mix1, mix2, mix3 = np.uint64(_MIX_1), np.uint64(_MIX_2), np.uint64(_MIX_3)
    state = np.uint64(0x8E51_2FB9_C3A4_D901)
    with np.errstate(over="ignore"):
        for key in keys:
            if not isinstance(key, np.ndarray):
                key = np.uint64(key & _MASK)
            x = (state ^ key) + mix1
            x = (x ^ (x >> np.uint64(30))) * mix2
            x = (x ^ (x >> np.uint64(27))) * mix3
            state = x ^ (x >> np.uint64(31))
    return state


def priority_array(seed: int, nodes: "np.ndarray", round_index: int, tag: int = 0) -> "np.ndarray":
    """Vectorized :func:`priority_draw` over an array of node ids.

    ``priority_array(s, np.array([v]), t, g)[0] == priority_draw(s, v, t, g)``
    bit for bit — the property that lets the bulk engines
    (:mod:`repro.mis.bulk`) draw what the CONGEST node programs draw.
    """
    return derive_seed_array(seed, nodes.astype(np.uint64), round_index, tag)


def priority_vector(seed: int, nodes: Iterable[int], round_index: int, tag: int = 0) -> dict:
    """Priorities for many nodes in one call, as a ``{node: priority}`` dict.

    Bit-identical to ``{v: priority_draw(seed, v, round_index, tag) for v
    in nodes}`` — each node still gets its own keyed stream, so the result
    does not depend on the iteration order of ``nodes`` — but computed
    through one :func:`priority_array` call rather than a per-node Python
    loop.  Node ids are folded into the 64-bit ring up front (``v & MASK``,
    exactly what :func:`derive_seed` does), so negative ids and ids beyond
    2⁶³ draw the same values on both paths.
    """
    node_list = list(nodes)
    if not node_list:
        return {}
    values = priority_array(seed, ring_array(node_list), round_index, tag)
    return {v: int(p) for v, p in zip(node_list, values)}
