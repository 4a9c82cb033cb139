"""Luby's MIS algorithms (1986): Algorithm A and Algorithm B.

*Algorithm A* draws, per iteration, an integer priority uniformly from
``{1, ..., n^4}`` and selects local minima (equivalently maxima; we keep
Luby's minima convention internally but expose the same competition
interface).  As the paper's footnote 1 notes, this is "essentially
identical" to Métivier et al. — the difference is only the priority range,
so ties are possible and tie-broken by node id.

*Algorithm B* — what the paper (and folklore) calls "Luby's algorithm" — is
the degree-based marking process: each active node marks itself with
probability ``1/(2 deg(v))`` (probability 1 if its active degree is 0); a
marked node joins unless a marked neighbor has strictly larger
``(degree, id)``; winners and neighbors leave.  O(log n) iterations w.h.p.

Each has two engines with shared randomness (DESIGN.md §4): the columnar
kernels :func:`luby_a_mis` and :func:`luby_b_mis` (:mod:`repro.mis.bulk`,
re-exported here) and the CONGEST node programs :class:`LubyAMIS` and
:class:`LubyBMIS`.
"""

from __future__ import annotations

from typing import Tuple

import networkx as nx

from repro.congest.algorithm import NodeContext
from repro.congest.network import Network
from repro.congest.simulator import SynchronousSimulator
from repro.mis.bulk import luby_a_mis, luby_b_mis
from repro.mis.constants import LUBY_B_TAG
from repro.mis.engine import MISResult, PhasedMISNodeProgram, mis_from_outputs
from repro.rng import priority_draw, uniform_draw

__all__ = [
    "luby_a_mis",
    "luby_b_mis",
    "LubyAMIS",
    "LubyBMIS",
    "luby_a_mis_congest",
    "luby_b_mis_congest",
]


def _luby_a_priority(seed: int, node: int, iteration: int, n: int) -> int:
    """A uniform draw from {1, ..., n^4} derived from the 64-bit stream."""
    range_size = max(1, n) ** 4
    return 1 + priority_draw(seed, node, iteration) % range_size


class LubyAMIS(PhasedMISNodeProgram):
    """CONGEST engine for Luby's Algorithm A."""

    name = "luby-a"

    def competition_key(self, ctx: NodeContext, iteration: int) -> Tuple:
        return (_luby_a_priority(ctx.seed, ctx.node, iteration, ctx.n), ctx.node)


def luby_a_mis_congest(graph: nx.Graph, seed: int = 0, max_rounds: int = 30_000) -> MISResult:
    """Run the Algorithm A CONGEST engine and package the result."""
    network = Network(graph)
    run = SynchronousSimulator(network, seed=seed).run(LubyAMIS(), max_rounds=max_rounds)
    return MISResult(
        mis=mis_from_outputs(run.outputs),
        iterations=(run.metrics.rounds + 2) // 3,
        algorithm="luby-a-congest",
        seed=seed,
        congest_rounds=run.metrics.rounds,
        metrics=run.metrics,
        extra={"completed": run.halted},
    )


def _luby_b_marked(seed: int, node: int, iteration: int, active_degree: int) -> bool:
    """Luby B's marking coin: probability 1/(2d), or 1 when d = 0."""
    if active_degree == 0:
        return True
    return uniform_draw(seed, node, iteration, tag=LUBY_B_TAG) < 1.0 / (2.0 * active_degree)


class LubyBMIS(PhasedMISNodeProgram):
    """CONGEST engine for Luby's Algorithm B."""

    name = "luby-b"

    def competition_key(self, ctx: NodeContext, iteration: int) -> Tuple:
        degree = len(ctx.state["active_neighbors"])
        if _luby_b_marked(ctx.seed, ctx.node, iteration, degree):
            ctx.state["marked"] = True
            return (1, degree, ctx.node)
        ctx.state["marked"] = False
        return (0, 0, ctx.node)

    def may_win(self, ctx: NodeContext, iteration: int) -> bool:
        return bool(ctx.state.get("marked"))


def luby_b_mis_congest(graph: nx.Graph, seed: int = 0, max_rounds: int = 30_000) -> MISResult:
    """Run the Algorithm B CONGEST engine and package the result."""
    network = Network(graph)
    run = SynchronousSimulator(network, seed=seed).run(LubyBMIS(), max_rounds=max_rounds)
    return MISResult(
        mis=mis_from_outputs(run.outputs),
        iterations=(run.metrics.rounds + 2) // 3,
        algorithm="luby-b-congest",
        seed=seed,
        congest_rounds=run.metrics.rounds,
        metrics=run.metrics,
        extra={"completed": run.halted},
    )
