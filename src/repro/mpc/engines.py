"""Registry-facing wrappers: the four ``<name>-mpc`` MIS engines.

Each wrapper has the same call shape as its columnar-kernel twin
(``fn(graph, seed=0, max_iterations=...)``) so it can slot into
:mod:`repro.mis.registry`, sweeps, and the CLI unchanged, while passing
the sharded runtime's extra knobs (``shards``, ``workers``, ``budget``,
``failure_policy``, ``crashes``) through as keyword arguments.  Unset
knobs fall back to the ``REPRO_MPC_SHARDS`` / ``REPRO_MPC_WORKERS``
environment variables (defaults: 4 shards, inline execution), mirroring
how ``REPRO_MIS_ENGINE`` selects the engine itself.
"""

from __future__ import annotations

from repro.mis.engine import MISResult
from repro.mpc.runtime import run_sharded

__all__ = [
    "metivier_mis_mpc",
    "luby_a_mis_mpc",
    "luby_b_mis_mpc",
    "ghaffari_mis_mpc",
]


def metivier_mis_mpc(
    graph, seed: int = 0, max_iterations: int = 10_000, **kwargs
) -> MISResult:
    """Sharded Métivier MIS, bit-identical to ``metivier-bulk``."""
    return run_sharded(
        "metivier", graph, seed=seed, max_iterations=max_iterations, **kwargs
    )


def luby_a_mis_mpc(
    graph, seed: int = 0, max_iterations: int = 10_000, **kwargs
) -> MISResult:
    """Sharded Luby Algorithm A, bit-identical to ``luby-a-bulk``."""
    return run_sharded(
        "luby-a", graph, seed=seed, max_iterations=max_iterations, **kwargs
    )


def luby_b_mis_mpc(
    graph, seed: int = 0, max_iterations: int = 10_000, **kwargs
) -> MISResult:
    """Sharded Luby Algorithm B, bit-identical to ``luby-b-bulk``."""
    return run_sharded(
        "luby-b", graph, seed=seed, max_iterations=max_iterations, **kwargs
    )


def ghaffari_mis_mpc(
    graph, seed: int = 0, max_iterations: int = 20_000, **kwargs
) -> MISResult:
    """Sharded Ghaffari desire-level MIS, bit-identical to ``ghaffari-bulk``."""
    return run_sharded(
        "ghaffari", graph, seed=seed, max_iterations=max_iterations, **kwargs
    )
