"""The columnar engine of each randomized MIS rule.

Métivier, Luby A, Luby B and Ghaffari each have exactly two
implementations (DESIGN.md §4): a CONGEST node program for fidelity
(:mod:`repro.mis.metivier`, :mod:`repro.mis.luby`,
:mod:`repro.mis.ghaffari`) and the kernel here for speed.  Each kernel
runs its rule as masked array operations over the shared columnar
substrate (:mod:`repro.mis.csr` kernels over a
:class:`repro.graphs.csr.CSRGraph`) and draws the same keyed randomness
as the node program (:func:`repro.rng.priority_array` replicates the
per-node splitmix64 chain bit for bit), so both return the same MIS for
equal seeds — including the astronomically-unlikely tie cases, which are
detected per iteration and resolved with the exact ``(key, id)`` tuple
rule.

* :func:`metivier_mis` — the Métivier et al. priority process;
* :func:`luby_a_mis` — Luby's Algorithm A (``{1..n⁴}`` priorities);
* :func:`luby_b_mis` — Luby's Algorithm B (degree-based marking);
* :func:`ghaffari_mis` — Ghaffari's desire-level algorithm.

The algorithm modules re-export these under the same names, and
:mod:`repro.mis.registry` registers each under its plain name and under
``<name>-bulk``; ``metivier_mis_bulk is metivier_mis`` and so on.  The
tests pin every kernel against the per-node loop it replaced.

Every engine accepts either a :class:`networkx.Graph` (any hashable node
labels — labels are mapped to dense positions once and translated back in
``MISResult.mis``) or a prebuilt :class:`~repro.graphs.csr.CSRGraph`,
which is what powers the n = 10⁷ rows of E16/E17 without ever building a
``networkx`` object.  The fixed set-up cost (CSR build, array
allocation, a few dozen numpy calls per iteration) makes a Métivier call
on a 5-node graph take ~0.17 ms against ~0.03 ms for a per-node loop;
the kernel is faster from n ≈ 30–100 up.
"""

from __future__ import annotations

import math
from typing import Union

import networkx as nx
import numpy as np

from repro.errors import AlgorithmError
from repro.graphs.csr import CSRGraph, csr_from_graph
from repro.mis.constants import GHAFFARI_MARK_TAG, GHAFFARI_MIN_EXPONENT, LUBY_B_TAG
from repro.mis.csr import (
    eliminate_winners_bulk,
    keyed_priorities,
    keyed_uniforms,
    masked_competition,
    neighbor_any,
    neighbor_count,
    neighbor_sum,
)
from repro.mis.engine import MISResult
from repro.obs.trace import (
    SPAN_BULK_ITERATION,
    SPAN_KERNEL_COMPETE,
    SPAN_KERNEL_DEGREES,
    SPAN_KERNEL_DRAW,
    SPAN_KERNEL_ELIMINATE,
    SPAN_RUN,
)

__all__ = [
    "metivier_mis",
    "luby_a_mis",
    "luby_b_mis",
    "ghaffari_mis",
    "metivier_mis_bulk",
    "luby_a_mis_bulk",
    "luby_b_mis_bulk",
    "ghaffari_mis_bulk",
]

_UINT64_CARDINALITY = 1 << 64


def _as_csr(graph: Union[nx.Graph, CSRGraph]) -> CSRGraph:
    if isinstance(graph, CSRGraph):
        return graph
    return csr_from_graph(graph)


def _package(
    csr: CSRGraph,
    in_mis: np.ndarray,
    iteration: int,
    algorithm: str,
    seed: int,
    history,
    active: np.ndarray,
    extra=None,
) -> MISResult:
    payload = {"completed": not bool(active.any())}
    if extra:
        payload.update(extra)
    return MISResult(
        mis=csr.label_set(in_mis),
        iterations=iteration,
        algorithm=algorithm,
        seed=seed,
        active_history=history,
        extra=payload,
    )


def metivier_mis(
    graph: Union[nx.Graph, CSRGraph],
    seed: int = 0,
    max_iterations: int = 10_000,
    tracer=None,
) -> MISResult:
    """Métivier et al.'s priority process, run to completion.

    Returns a :class:`MISResult` whose ``iterations`` counts priority
    exchanges (each costs 3 CONGEST rounds; the CONGEST engine
    :func:`repro.mis.metivier.metivier_mis_congest` reports the exact
    round count).

    Winner rule per iteration: active node wins iff its ``(priority, id)``
    exceeds every active neighbor's.  The vectorized path compares raw
    priorities; iterations containing a duplicate or zero active priority
    (a ≤ n²/2⁶⁴ event) fall back to exact tuple comparison.

    Exhausting ``max_iterations`` returns the partial result with
    ``extra["completed"] = False``, as every kernel here does.  An
    iteration that produces no winner while nodes remain active is
    impossible for this process (the maximum active key always wins) and
    raises :class:`~repro.errors.AlgorithmError` instead of silently
    returning a non-maximal set.
    """
    csr = _as_csr(graph)
    n = csr.n
    active = np.ones(n, dtype=bool)
    in_mis = np.zeros(n, dtype=bool)
    history = []

    run_span = tracer.begin(SPAN_RUN) if tracer is not None else None
    iteration = 0
    while active.any() and iteration < max_iterations:
        history.append(int(active.sum()))
        it_span = (
            tracer.begin(SPAN_BULK_ITERATION, round=iteration)
            if tracer is not None
            else None
        )
        k_span = (
            tracer.begin(SPAN_KERNEL_DRAW, round=iteration)
            if tracer is not None
            else None
        )
        priorities = keyed_priorities(csr, seed, iteration)
        # Inactive nodes play 0 so they never beat anyone; a genuine zero
        # priority is routed through the exact fallback.
        masked = np.where(active, priorities, np.uint64(0))
        if tracer is not None:
            tracer.end(k_span)
            k_span = tracer.begin(SPAN_KERNEL_COMPETE, round=iteration)
        winners = masked_competition(
            csr,
            contenders=active,
            keys=masked,
            blockers=active,
            exact_key=lambda i: (int(masked[i]), csr.tiebreak_id(i)),
        )
        if tracer is not None:
            tracer.end(k_span)
        if not winners.any():
            raise AlgorithmError(
                "metivier made no progress with nodes still active "
                f"(iteration {iteration}) — engine invariant violated"
            )
        if tracer is not None:
            k_span = tracer.begin(SPAN_KERNEL_ELIMINATE, round=iteration)
        in_mis |= winners
        eliminate_winners_bulk(csr, active, winners)
        if tracer is not None:
            tracer.end(k_span, winners=int(winners.sum()))
            tracer.end(it_span, active=history[-1])
        iteration += 1

    if tracer is not None:
        tracer.end(run_span, iterations=iteration)
    return _package(csr, in_mis, iteration, "metivier", seed, history, active)


def luby_a_mis(
    graph: Union[nx.Graph, CSRGraph],
    seed: int = 0,
    max_iterations: int = 10_000,
    tracer=None,
) -> MISResult:
    """Luby's Algorithm A: Métivier's process with ``{1..n⁴}`` priorities.

    Priorities are ``1 + draw mod n⁴``, as the node program draws them.
    For n⁴ < 2⁶⁴ the modulus is computed in uint64; beyond that every
    64-bit draw is below n⁴, so the raw draw already has the priority's
    order and serves as the comparison key directly.  Ties (likelier
    than Métivier's since the range is n⁴) fall back to the exact
    ``(priority, id)`` rule.
    """
    csr = _as_csr(graph)
    n = csr.n
    range_size = max(1, n) ** 4
    small_range = range_size < _UINT64_CARDINALITY
    active = np.ones(n, dtype=bool)
    in_mis = np.zeros(n, dtype=bool)
    history = []

    run_span = tracer.begin(SPAN_RUN) if tracer is not None else None
    iteration = 0
    while active.any() and iteration < max_iterations:
        history.append(int(active.sum()))
        it_span = (
            tracer.begin(SPAN_BULK_ITERATION, round=iteration)
            if tracer is not None
            else None
        )
        k_span = (
            tracer.begin(SPAN_KERNEL_DRAW, round=iteration)
            if tracer is not None
            else None
        )
        raw = keyed_priorities(csr, seed, iteration)
        if small_range:
            keys = np.mod(raw, np.uint64(range_size)) + np.uint64(1)
        else:
            keys = raw  # same order as 1 + raw, and 1 + raw is the priority
        masked = np.where(active, keys, np.uint64(0))
        if tracer is not None:
            tracer.end(k_span)
            k_span = tracer.begin(SPAN_KERNEL_COMPETE, round=iteration)
        winners = masked_competition(
            csr,
            contenders=active,
            keys=masked,
            blockers=active,
            exact_key=lambda i: (1 + int(raw[i]) % range_size, csr.tiebreak_id(i)),
        )
        if tracer is not None:
            tracer.end(k_span)
        if not winners.any():
            raise AlgorithmError(
                "luby-a made no progress with nodes still active "
                f"(iteration {iteration}) — engine invariant violated"
            )
        if tracer is not None:
            k_span = tracer.begin(SPAN_KERNEL_ELIMINATE, round=iteration)
        in_mis |= winners
        eliminate_winners_bulk(csr, active, winners)
        if tracer is not None:
            tracer.end(k_span, winners=int(winners.sum()))
            tracer.end(it_span, active=history[-1])
        iteration += 1

    if tracer is not None:
        tracer.end(run_span, iterations=iteration)
    return _package(csr, in_mis, iteration, "luby-a", seed, history, active)


def luby_b_mis(
    graph: Union[nx.Graph, CSRGraph],
    seed: int = 0,
    max_iterations: int = 10_000,
    tracer=None,
) -> MISResult:
    """Vectorized Luby Algorithm B (degree-based marking).

    The node program's key ``(marked, active_degree, id)`` is encoded into one
    uint64 as ``degree·n + position + 1`` for marked nodes and 0 for
    everyone else: positions are assigned in sorted-label order, so the
    encoding's numeric order equals the tuple order, and embedding the
    position makes keys unique — the fast path is always exact.  Marking
    coins replicate the node program's float comparison bit for bit.

    Iterations where no node marks itself legitimately select no winner
    (the node program idles the same way), so only ``max_iterations``
    bounds the loop, with the partial-result contract of
    :func:`metivier_mis`.
    """
    csr = _as_csr(graph)
    n = csr.n
    positions = np.arange(n, dtype=np.uint64)
    active = np.ones(n, dtype=bool)
    in_mis = np.zeros(n, dtype=bool)
    history = []

    run_span = tracer.begin(SPAN_RUN) if tracer is not None else None
    iteration = 0
    while active.any() and iteration < max_iterations:
        history.append(int(active.sum()))
        it_span = (
            tracer.begin(SPAN_BULK_ITERATION, round=iteration)
            if tracer is not None
            else None
        )
        k_span = (
            tracer.begin(SPAN_KERNEL_DEGREES, round=iteration)
            if tracer is not None
            else None
        )
        degrees = neighbor_count(active, csr)
        degrees[~active] = 0
        if tracer is not None:
            tracer.end(k_span)
            k_span = tracer.begin(SPAN_KERNEL_DRAW, round=iteration)
        uniforms = keyed_uniforms(csr, seed, iteration, tag=LUBY_B_TAG)
        # Marking coin: p = 1/(2d), or certainty when the active degree is 0.
        thresholds = 1.0 / (2.0 * np.maximum(degrees, 1).astype(np.float64))
        marked = active & ((degrees == 0) | (uniforms < thresholds))
        if tracer is not None:
            tracer.end(k_span)
            k_span = tracer.begin(SPAN_KERNEL_COMPETE, round=iteration)

        keys = np.where(
            marked,
            degrees.astype(np.uint64) * np.uint64(n) + positions + np.uint64(1),
            np.uint64(0),
        )
        winners = masked_competition(
            csr,
            contenders=marked,
            keys=keys,
            blockers=active,
            exact_key=lambda i: (
                (1, int(degrees[i]), csr.tiebreak_id(i))
                if marked[i]
                else (0, 0, csr.tiebreak_id(i))
            ),
        )
        if tracer is not None:
            tracer.end(k_span)
            k_span = tracer.begin(SPAN_KERNEL_ELIMINATE, round=iteration)
        in_mis |= winners
        eliminate_winners_bulk(csr, active, winners)
        if tracer is not None:
            tracer.end(k_span, winners=int(winners.sum()))
            tracer.end(it_span, active=history[-1])
        iteration += 1

    if tracer is not None:
        tracer.end(run_span, iterations=iteration)
    return _package(csr, in_mis, iteration, "luby-b", seed, history, active)


def ghaffari_mis(
    graph: Union[nx.Graph, CSRGraph],
    seed: int = 0,
    max_iterations: int = 20_000,
    tracer=None,
) -> MISResult:
    """Vectorized Ghaffari desire-level MIS.

    Desire levels stay in exponent form (p = 2⁻ʲ, j ∈ [1, 60]); marking
    coins, the no-marked-neighbor join rule, and the effective-degree
    update are all segment reductions.  Effective degrees are sums of
    exact powers of two accumulated in ascending neighbor order — see
    docs/columnar_substrate.md for why this matches the node program's
    per-node sums.
    """
    csr = _as_csr(graph)
    n = csr.n
    active = np.ones(n, dtype=bool)
    in_mis = np.zeros(n, dtype=bool)
    exponents = np.ones(n, dtype=np.int64)
    history = []
    n_floor = max(2, n)
    shatter_threshold = n_floor / max(1.0, math.log(n_floor) ** 2)
    shatter_iteration = None

    run_span = tracer.begin(SPAN_RUN) if tracer is not None else None
    iteration = 0
    while active.any() and iteration < max_iterations:
        active_count = int(active.sum())
        history.append(active_count)
        if shatter_iteration is None and active_count <= shatter_threshold:
            shatter_iteration = iteration

        it_span = (
            tracer.begin(SPAN_BULK_ITERATION, round=iteration)
            if tracer is not None
            else None
        )
        k_span = (
            tracer.begin(SPAN_KERNEL_DRAW, round=iteration)
            if tracer is not None
            else None
        )
        desires = np.ldexp(1.0, -exponents.astype(np.int32))  # exact 2^-j
        uniforms = keyed_uniforms(csr, seed, iteration, tag=GHAFFARI_MARK_TAG)
        marked = active & (uniforms < desires)
        if tracer is not None:
            tracer.end(k_span)
            k_span = tracer.begin(SPAN_KERNEL_COMPETE, round=iteration)
        winners = marked & ~neighbor_any(marked, csr)
        if tracer is not None:
            tracer.end(k_span)
            k_span = tracer.begin(SPAN_KERNEL_DEGREES, round=iteration)

        # Desire update against the pre-elimination neighborhood, as in
        # the paper: d_t(v) sums this iteration's p values.
        effective = neighbor_sum(np.where(active, desires, 0.0), csr)
        raised = np.minimum(GHAFFARI_MIN_EXPONENT, exponents + 1)
        lowered = np.maximum(1, exponents - 1)
        exponents = np.where(
            active, np.where(effective >= 2.0, raised, lowered), exponents
        )
        if tracer is not None:
            tracer.end(k_span)
            k_span = tracer.begin(SPAN_KERNEL_ELIMINATE, round=iteration)

        in_mis |= winners
        eliminate_winners_bulk(csr, active, winners)
        if tracer is not None:
            tracer.end(k_span, winners=int(winners.sum()))
            tracer.end(it_span, active=active_count)
        iteration += 1

    if tracer is not None:
        tracer.end(run_span, iterations=iteration)
    return _package(
        csr,
        in_mis,
        iteration,
        "ghaffari",
        seed,
        history,
        active,
        extra={"iterations_to_shatter": shatter_iteration},
    )


#: The ``<name>-bulk`` spellings: the same functions, one per rule.
metivier_mis_bulk = metivier_mis
luby_a_mis_bulk = luby_a_mis
luby_b_mis_bulk = luby_b_mis
ghaffari_mis_bulk = ghaffari_mis
