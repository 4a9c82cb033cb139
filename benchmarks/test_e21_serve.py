"""E21 — serving under churn: incremental repair vs full recompute.

The serving layer's core bet (docs/serving.md) is that under bounded
churn, repairing the damaged neighborhood costs far fewer CONGEST rounds
per update than recomputing the MIS from scratch.  This experiment pins
that: the same seeded workload (``repro.serve.loadgen``) is applied to
two sessions — one that always repairs (``repair_damage_cap=1.0``) and
one that always recomputes (``repair_damage_cap=0.0``) — across a sweep
of churn rates, and the repaired rounds-per-update must stay below the
recompute line at every churn rate, most decisively at the highest.

A second table gives E21 an n-axis: the wall time of one repair epoch
(churn 16) on an alpha=2 graph at n = 10^3, 10^4 and 10^5.  Epochs cost
O(damage) — an undo-log hash update, a local MIS certificate, and one
C-level copy of the MIS set — so the epoch wall stays nearly flat while
n grows 100x (a full-graph pass would grow it 100x).

Everything is deterministic (keyed RNG end to end), so the round and
|MIS| contents are reproducible bit-for-bit; the committed throughput
baseline lives in ``benchmarks/baselines/BENCH_e21_serve.json`` and is
gated by ``benchmarks/perf_gate.py --check --experiment e21`` in CI.
"""

from __future__ import annotations

import statistics
import time

from _common import emit
from perf_gate import serve_epoch_walls
from repro.mis.validation import assert_valid_mis
from repro.serve.incremental import GraphSession, Mutation
from repro.serve.loadgen import LoadGenConfig, initial_edges, mutation_batches

NODES = 400
EPOCHS = 15
CHURNS = [2, 8, 16]
SEED = 0


def run_churn(mode: str, churn: int):
    """Apply the seeded workload in one maintenance mode; return stats."""
    config = LoadGenConfig(seed=SEED, nodes=NODES, epochs=EPOCHS, churn=churn)
    cap = 1.0 if mode == "repair" else 0.0
    session = GraphSession(f"e21-{mode}", seed=SEED, repair_damage_cap=cap)
    bootstrap = [Mutation("add-edge", u, v) for u, v in initial_edges(config)]
    session.apply_epoch(bootstrap)
    rounds = updates = 0
    start = time.perf_counter()
    for batch in mutation_batches(config):
        report = session.apply_epoch(batch)
        rounds += report.rounds
        updates += report.mutations
    seconds = time.perf_counter() - start
    assert_valid_mis(session.graph, set(session.mis))
    return {
        "rounds": rounds,
        "updates": updates,
        "rounds_per_update": rounds / max(1, updates),
        "mis_size": len(session.mis),
        "seconds": seconds,
        "fingerprint": session.fingerprint,
    }


def test_e21_repair_beats_recompute_under_churn(benchmark):
    rows = []
    by_churn = {}
    for churn in CHURNS:
        pair = {}
        for mode in ("repair", "recompute"):
            stats = run_churn(mode, churn)
            pair[mode] = stats
            rows.append(
                {
                    "churn": churn,
                    "mode": mode,
                    "epochs": EPOCHS,
                    "rounds": stats["rounds"],
                    "rounds/update": round(stats["rounds_per_update"], 2),
                    "|MIS|": stats["mis_size"],
                    "wall s": round(stats["seconds"], 3),
                }
            )
        by_churn[churn] = pair
        # Both maintenance modes walk the graph through identical states.
        assert (
            pair["repair"]["fingerprint"] == pair["recompute"]["fingerprint"]
        ), churn
    emit(
        "e21_serve_churn",
        rows,
        f"E21: rounds per update, repair vs recompute "
        f"(n={NODES}, {EPOCHS} epochs, seed={SEED})",
    )

    # The headline claim: incremental repair is cheaper per update at
    # every churn rate, including the highest.
    for churn, pair in by_churn.items():
        assert (
            pair["repair"]["rounds_per_update"]
            < pair["recompute"]["rounds_per_update"]
        ), (churn, pair["repair"]["rounds_per_update"],
            pair["recompute"]["rounds_per_update"])

    benchmark.pedantic(
        lambda: run_churn("repair", CHURNS[-1]), rounds=3, iterations=1
    )


def test_e21_repair_cost_tracks_churn_not_graph_size():
    """Repair rounds should scale with damage, not with n: doubling the
    graph at fixed churn must not double the repaired rounds."""
    totals = {}
    for nodes in (NODES, 2 * NODES):
        config = LoadGenConfig(seed=SEED, nodes=nodes, epochs=10, churn=4)
        session = GraphSession("e21-local", seed=SEED, repair_damage_cap=1.0)
        session.apply_epoch(
            [Mutation("add-edge", u, v) for u, v in initial_edges(config)]
        )
        totals[nodes] = sum(
            session.apply_epoch(batch).rounds
            for batch in mutation_batches(config)
        )
    assert totals[2 * NODES] < 2 * totals[NODES], totals


SIZES = [1_000, 10_000, 100_000]
EPOCH_CHURN = 16


def test_e21_epoch_wall_flat_in_n():
    """Repair-epoch wall time must not track n: 100x the graph may cost
    a few C-level set copies more, never a Python pass over the graph."""
    rows = []
    walls = {}
    for n in SIZES:
        seconds, rounds, mis_size = serve_epoch_walls(
            n, EPOCH_CHURN, EPOCHS, SEED
        )
        walls[n] = statistics.median(seconds)
        rows.append(
            {
                "n": n,
                "churn": EPOCH_CHURN,
                "epochs": EPOCHS,
                "rounds": rounds,
                "|MIS|": mis_size,
                "epoch ms p50": round(walls[n] * 1e3, 3),
                "epoch ms max": round(max(seconds) * 1e3, 3),
            }
        )
    emit(
        "e21_epoch_wall",
        rows,
        f"E21: repair-epoch wall time vs n (alpha=2 graph, churn "
        f"{EPOCH_CHURN}, {EPOCHS} epochs, seed={SEED})",
    )
    # An O(n) epoch would grow ~100x from n=10^3 to 10^5; the one MIS
    # copy left grows it well under 25x.
    assert walls[SIZES[-1]] < 25 * walls[SIZES[0]], walls
