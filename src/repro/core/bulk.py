"""Algorithm 1's columnar kernel: its one fast implementation.

:mod:`repro.core.bounded_arb` describes the algorithm and re-exports this
kernel beside the CONGEST engine, which stays as the fidelity oracle.
Every iteration is a handful of segment reductions over the shared
columnar substrate (:mod:`repro.mis.csr`), keyed by the same
``(seed, node, iteration)`` draws as the CONGEST engine (DESIGN.md §4), so
the two are bit-identical for equal seeds — verified by tests.  Pass a
prebuilt :class:`~repro.graphs.csr.CSRGraph` and no ``networkx`` object is
ever materialized: this is what lets Algorithm 1 run at n = 10⁷
(benchmark E17).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Union

import networkx as nx
import numpy as np

from repro.core.parameters import Parameters, compute_parameters
from repro.errors import ConfigurationError
from repro.graphs.csr import CSRGraph, csr_from_graph
from repro.mis.csr import (
    keyed_priorities,
    masked_competition,
    neighbor_count,
    spread_to_neighbors,
)
from repro.obs.trace import (
    SPAN_ARB_SCALE,
    SPAN_BULK_ITERATION,
    SPAN_KERNEL_COMPETE,
    SPAN_KERNEL_DEGREES,
    SPAN_KERNEL_ELIMINATE,
    SPAN_RUN,
)

__all__ = [
    "ScaleStats",
    "BoundedArbResult",
    "bounded_arb_independent_set",
    "bounded_arb_independent_set_bulk",
]


@dataclass
class ScaleStats:
    """What happened during one scale (experiments E6/E7 read these)."""

    scale: int
    iterations_used: int
    active_before: int
    active_after: int
    joined: int
    eliminated: int
    bad_added: int
    max_high_degree_neighbors: int
    bad_threshold: float
    invariant_satisfied: bool


@dataclass
class BoundedArbResult:
    """Output of Algorithm 1: the sets (I, B) and the residual VIB."""

    independent_set: Set[int]
    bad_set: Set[int]
    residual: Set[int]
    parameters: Parameters
    iterations: int
    seed: int
    scale_stats: List[ScaleStats] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"bounded-arb: |I|={len(self.independent_set)} |B|={len(self.bad_set)} "
            f"|VIB|={len(self.residual)} scales={self.parameters.theta} "
            f"iterations={self.iterations}"
        )


def bounded_arb_independent_set(
    graph: Union[nx.Graph, CSRGraph],
    alpha: int,
    seed: int = 0,
    profile: str = "practical",
    p_constant: int = 1,
    early_exit: bool = False,
    parameters: Optional[Parameters] = None,
    tracer=None,
) -> BoundedArbResult:
    """Run Algorithm 1 and return ``(I, B)`` plus the residual VIB.

    Parameters
    ----------
    graph:
        The input graph, as ``networkx`` or a prebuilt
        :class:`~repro.graphs.csr.CSRGraph` (arboricity ≤ ``alpha`` for
        the guarantees to apply; the algorithm runs — without them — on
        any simple graph).
    alpha:
        The arboricity bound fed into the parameter formulas.
    profile / p_constant / parameters:
        Parameter selection; an explicit ``parameters`` overrides the
        profile computation (used by the ablation benchmark E10).
    early_exit:
        Skip the rest of a scale's iterations once the Invariant holds at
        every active node.  Changes the randomness schedule, so leave off
        when comparing against the CONGEST engine.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` for run → scale →
        iteration → kernel spans.
    """
    if alpha < 1:
        raise ConfigurationError(f"alpha must be >= 1, got {alpha}")
    csr = graph if isinstance(graph, CSRGraph) else csr_from_graph(graph)
    params = parameters or compute_parameters(
        alpha, csr.max_degree(), profile=profile, p_constant=p_constant
    )

    n = csr.n
    if n == 0:
        return BoundedArbResult(
            independent_set=set(),
            bad_set=set(),
            residual=set(),
            parameters=params,
            iterations=0,
            seed=seed,
        )

    active = np.ones(n, dtype=bool)
    in_mis = np.zeros(n, dtype=bool)
    bad = np.zeros(n, dtype=bool)
    stats: List[ScaleStats] = []
    iteration_counter = 0
    # deg_IB of every active node, refreshed whenever ``active`` shrinks.
    degrees = csr.degrees()

    def high_degree_counts(threshold: float) -> np.ndarray:
        return neighbor_count(active & (degrees > threshold), csr)

    run_span = tracer.begin(SPAN_RUN) if tracer is not None else None
    for k in params.scales():
        scale_span = (
            tracer.begin(SPAN_ARB_SCALE) if tracer is not None else None
        )
        if scale_span is not None:
            scale_span.add(scale=k)
        rho_k = params.rho(k)
        active_before = int(active.sum())
        joined_this_scale = 0
        eliminated_this_scale = 0
        iterations_used = 0
        high_threshold = params.high_degree_threshold(k)
        bad_threshold = params.bad_threshold(k)

        for _ in range(params.lambda_iterations):
            if not active.any():
                break
            if early_exit:
                counts = high_degree_counts(high_threshold)
                if not (active & (counts > bad_threshold)).any():
                    break
            it_span = (
                tracer.begin(SPAN_BULK_ITERATION, round=iteration_counter)
                if tracer is not None
                else None
            )
            k_span = (
                tracer.begin(SPAN_KERNEL_COMPETE, round=iteration_counter)
                if tracer is not None
                else None
            )
            # The paper's priority rule: r(v) = 0 deterministically when
            # deg_IB(v) > ρ_k, a keyed uniform draw otherwise.
            competitive = active & (degrees <= rho_k)
            priorities = keyed_priorities(csr, seed, iteration_counter)
            masked = np.where(competitive, priorities, np.uint64(0))
            # Competitive nodes play (1, priority, id); active
            # non-competitive neighbors play (0, 0, id) and can never block.
            winners = masked_competition(
                csr,
                contenders=competitive,
                keys=masked,
                blockers=active,
                exact_key=lambda i: (
                    (1, int(masked[i]), csr.tiebreak_id(i))
                    if competitive[i]
                    else (0, 0, csr.tiebreak_id(i))
                ),
            )
            if tracer is not None:
                tracer.end(k_span)
                k_span = tracer.begin(SPAN_KERNEL_ELIMINATE, round=iteration_counter)

            in_mis |= winners
            eliminated = (winners | spread_to_neighbors(winners, csr)) & active
            joined = int(winners.sum())
            joined_this_scale += joined
            eliminated_this_scale += int(eliminated.sum()) - joined
            active &= ~eliminated
            if tracer is not None:
                tracer.end(k_span, winners=joined)
                k_span = tracer.begin(SPAN_KERNEL_DEGREES, round=iteration_counter)
            degrees = neighbor_count(active, csr)
            if tracer is not None:
                tracer.end(k_span)
                tracer.end(it_span)
            iteration_counter += 1
            iterations_used += 1

        # Step 2(b): mark and remove bad nodes.
        counts = high_degree_counts(high_threshold)
        newly_bad = active & (counts > bad_threshold)
        bad_added = int(newly_bad.sum())
        if bad_added:
            bad |= newly_bad
            active &= ~newly_bad
            degrees = neighbor_count(active, csr)
            counts = high_degree_counts(high_threshold)
        remaining = counts[active]
        stats.append(
            ScaleStats(
                scale=k,
                iterations_used=iterations_used,
                active_before=active_before,
                active_after=int(active.sum()),
                joined=joined_this_scale,
                eliminated=eliminated_this_scale,
                bad_added=bad_added,
                max_high_degree_neighbors=int(remaining.max()) if remaining.size else 0,
                bad_threshold=bad_threshold,
                invariant_satisfied=bool((remaining <= bad_threshold).all()),
            )
        )
        if tracer is not None:
            tracer.end(
                scale_span,
                iterations=iterations_used,
                joined=joined_this_scale,
            )

    if tracer is not None:
        tracer.end(run_span, iterations=iteration_counter)
    return BoundedArbResult(
        independent_set=csr.label_set(in_mis),
        bad_set=csr.label_set(bad),
        residual=csr.label_set(active),
        parameters=params,
        iterations=iteration_counter,
        seed=seed,
        scale_stats=stats,
    )


#: Alias for callers that name the kernel explicitly (E17, the perf gate).
bounded_arb_independent_set_bulk = bounded_arb_independent_set
