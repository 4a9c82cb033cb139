"""Algorithm 1: BoundedArbIndependentSet.

The paper's engine.  Θ scales; in scale k, Λ iterations of the Métivier
priority competition in which nodes with active degree above ρ_k are
*non-competitive* (priority pinned to 0, the mechanism behind the read-ρ_k
analysis of Event (2)); after the Λ iterations, nodes with more than
Δ/2^(k+2) high-degree neighbors (degree > Δ/2^k + α) are marked *bad*,
moved to B, and taken out of the game.  Returns ``(I, B)`` plus the
residual active set VIB, which §3.3's finishing machinery completes.

The algorithm needs no orientation and no knowledge of a forest
decomposition — only α and Δ enter through the parameters, exactly as in
the paper.

Engines
-------
* :func:`bounded_arb_independent_set` — the columnar kernel
  (:mod:`repro.core.bulk`, re-exported here), the one fast implementation.
  It takes a ``networkx`` graph or a prebuilt
  :class:`~repro.graphs.csr.CSRGraph`, and has an ``early_exit``
  optimization (skip remaining iterations of a scale once every active
  node already satisfies the Invariant; off by default, since skipping
  shifts the randomness schedule away from the CONGEST engine's);
* :class:`BoundedArbNodeProgram` — CONGEST engine, the fidelity oracle.
  Each scale costs 3Λ + 2 rounds: 3 per iteration (keys / decide /
  notify) plus a degree exchange and a bad-announcement round at the
  scale boundary.
"""

from __future__ import annotations

from typing import Set, Tuple

import networkx as nx

from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.network import Network
from repro.congest.simulator import SynchronousSimulator
from repro.core.bulk import BoundedArbResult, ScaleStats, bounded_arb_independent_set
from repro.core.parameters import Parameters, ROUNDS_PER_ITERATION, compute_parameters
from repro.graphs.properties import max_degree as graph_max_degree
from repro.rng import priority_draw

__all__ = [
    "ScaleStats",
    "BoundedArbResult",
    "bounded_arb_independent_set",
    "BoundedArbNodeProgram",
    "bounded_arb_congest",
]


# ---------------------------------------------------------------------------
# CONGEST engine
# ---------------------------------------------------------------------------

_PHASE_KEYS = 0
_PHASE_DECIDE = 1
_PHASE_NOTIFY = 2
_PHASE_DEGREES = 3  # scale boundary: exchange active degrees
_PHASE_BAD = 4  # scale boundary: bad nodes announce and leave


class BoundedArbNodeProgram(NodeAlgorithm):
    """CONGEST engine for Algorithm 1.

    Every node derives the same :class:`Parameters` locally from the
    globally-known (α, Δ) — the standard CONGEST assumption the paper also
    makes — so the whole network agrees on the round → (scale, phase)
    mapping without coordination.  Nodes halt with outputs
    ``("mis", ...)``, ``("dominated", ...)``, ``("bad", scale)`` or, when
    the scale loop ends, ``("residual",)``.
    """

    name = "bounded-arb"

    def __init__(self, parameters: Parameters):
        self.params = parameters
        self.rounds_per_scale = ROUNDS_PER_ITERATION * parameters.lambda_iterations + 2
        self.total_rounds = parameters.theta * self.rounds_per_scale

    def _locate(self, round_index: int) -> Tuple[int, int, int]:
        """Map a round to (scale k, phase, global iteration index)."""
        scale_index = round_index // self.rounds_per_scale  # 0-based
        within = round_index % self.rounds_per_scale
        if within < ROUNDS_PER_ITERATION * self.params.lambda_iterations:
            phase = within % ROUNDS_PER_ITERATION
            iteration_in_scale = within // ROUNDS_PER_ITERATION
        else:
            phase = (
                _PHASE_DEGREES
                if within == ROUNDS_PER_ITERATION * self.params.lambda_iterations
                else _PHASE_BAD
            )
            iteration_in_scale = self.params.lambda_iterations
        global_iteration = scale_index * self.params.lambda_iterations + iteration_in_scale
        return scale_index + 1, phase, global_iteration

    def on_start(self, ctx: NodeContext) -> None:
        ctx.state["active_neighbors"] = set(ctx.neighbors)
        ctx.state["my_key"] = None
        if self.total_rounds == 0:
            ctx.halt(("residual",))

    def on_round(self, ctx: NodeContext, inbox) -> None:
        k, phase, iteration = self._locate(ctx.round_index)
        active: Set[int] = ctx.state["active_neighbors"]

        if phase == _PHASE_KEYS:
            for message in inbox:
                if message.payload[0] in ("leave", "bad-leave"):
                    active.discard(message.sender)
            degree = len(active)
            if degree > self.params.rho(k):
                ctx.state["my_key"] = (0, 0, ctx.node)
                ctx.state["competitive"] = False
            else:
                ctx.state["my_key"] = (1, priority_draw(ctx.seed, ctx.node, iteration), ctx.node)
                ctx.state["competitive"] = True
            for u in active:
                ctx.send(u, ("key",) + ctx.state["my_key"])

        elif phase == _PHASE_DECIDE:
            neighbor_keys = {
                m.sender: tuple(m.payload[1:])
                for m in inbox
                if m.payload[0] == "key" and m.sender in active
            }
            my_key = ctx.state["my_key"]
            if ctx.state["competitive"] and all(
                key < my_key for key in neighbor_keys.values()
            ):
                for u in active:
                    ctx.send(u, ("join",))
                ctx.halt(("mis", k, iteration))

        elif phase == _PHASE_NOTIFY:
            if any(m.payload[0] == "join" for m in inbox):
                for u in active:
                    ctx.send(u, ("leave",))
                ctx.halt(("dominated", k, iteration))

        elif phase == _PHASE_DEGREES:
            for message in inbox:
                if message.payload[0] in ("leave", "bad-leave"):
                    active.discard(message.sender)
            for u in active:
                ctx.send(u, ("deg", len(active)))

        else:  # _PHASE_BAD
            neighbor_degrees = {
                m.sender: m.payload[1]
                for m in inbox
                if m.payload[0] == "deg" and m.sender in active
            }
            threshold = self.params.high_degree_threshold(k)
            high_count = sum(1 for d in neighbor_degrees.values() if d > threshold)
            if high_count > self.params.bad_threshold(k):
                for u in active:
                    ctx.send(u, ("bad-leave",))
                ctx.halt(("bad", k))
                return
            if ctx.round_index + 1 >= self.total_rounds:
                ctx.halt(("residual",))


def bounded_arb_congest(
    graph: nx.Graph,
    alpha: int,
    seed: int = 0,
    profile: str = "practical",
    p_constant: int = 1,
    enforce_congest: bool = False,
) -> BoundedArbResult:
    """Run the CONGEST engine and package its output as
    :class:`BoundedArbResult` (same shape as the fast engine's)."""
    params = compute_parameters(
        alpha, graph_max_degree(graph), profile=profile, p_constant=p_constant
    )
    network = Network(graph)
    program = BoundedArbNodeProgram(params)
    simulator = SynchronousSimulator(network, seed=seed, enforce_congest=enforce_congest)
    run = simulator.run(program, max_rounds=program.total_rounds + 3)

    independent, bad, residual = set(), set(), set()
    for v, out in run.outputs.items():
        if out is None:
            continue
        if out[0] == "mis":
            independent.add(v)
        elif out[0] == "bad":
            bad.add(v)
        elif out[0] == "residual":
            residual.add(v)

    result = BoundedArbResult(
        independent_set=independent,
        bad_set=bad,
        residual=residual,
        parameters=params,
        iterations=params.total_iterations(),
        seed=seed,
        extra={"congest_rounds": run.metrics.rounds, "metrics": run.metrics},
    )
    return result
