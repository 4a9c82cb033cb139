"""Sharded MPC-style round runtime (docs/mpc_runtime.md).

Partitions a :class:`~repro.graphs.csr.CSRGraph` into contiguous
position-range shards (:mod:`repro.mpc.partition`), runs the bulk round
kernels per shard — inline or on a ``multiprocessing`` pool with
shared-memory statics — exchanging only frontier state between rounds
(:mod:`repro.mpc.runtime`), with every inter-shard byte metered against
a configurable per-shard budget (:mod:`repro.mpc.budget`).  The sharded
engines are bit-identical to the columnar kernels for every seed and
shard count; select them with ``REPRO_MIS_ENGINE=mpc`` or
``get_algorithm(name, engine="mpc")``.
"""

from repro.mpc.budget import CommBudget, CommReport, ShardCommMeter
from repro.mpc.engines import (
    ghaffari_mis_mpc,
    luby_a_mis_mpc,
    luby_b_mis_mpc,
    metivier_mis_mpc,
)
from repro.mpc.partition import Shard, ShardPlan, partition_csr, reassemble
from repro.mpc.runtime import InjectedShardCrash, ShardCrash, run_sharded

__all__ = [
    "CommBudget",
    "CommReport",
    "ShardCommMeter",
    "Shard",
    "ShardPlan",
    "partition_csr",
    "reassemble",
    "ShardCrash",
    "InjectedShardCrash",
    "run_sharded",
    "metivier_mis_mpc",
    "luby_a_mis_mpc",
    "luby_b_mis_mpc",
    "ghaffari_mis_mpc",
]
