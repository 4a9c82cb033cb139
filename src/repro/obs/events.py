"""The typed event schema of the run-telemetry layer.

Every observable occurrence in a run — a round finishing, a node halting,
a pipeline phase starting, a sweep point completing — is one
:class:`ObsEvent`.  Events serialize to flat JSON objects (one per JSONL
line) with a small set of reserved keys; everything else rides in
``data`` and is merged into the same object, so streams stay greppable
with standard tools (``jq 'select(.kind=="round")'``).

Two invariants the rest of the layer depends on:

* **Determinism up to clocks.**  Every wall-clock-derived field lives in
  :data:`TIMESTAMP_FIELDS`.  :func:`strip_timestamps` removes exactly
  those, and two same-seed runs must produce identical streams after
  stripping — ``repro obs diff`` and a tier-1 test both pin this.
* **Self-describing streams.**  An events file needs no side channel to
  be summarized: kind names are stable strings (the ``EVENT_*``
  constants) and aggregate events (``run-end``, ``sweep-point``) carry
  the totals redundantly so truncated or sampled streams still sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "ObsEvent",
    "SCHEMA_VERSION",
    "TIMESTAMP_FIELDS",
    "RESERVED_FIELDS",
    "strip_timestamps",
    "event_from_dict",
    "EVENT_RUN_START",
    "EVENT_RUN_END",
    "EVENT_ROUND",
    "EVENT_START_ROUND",
    "EVENT_HALT",
    "EVENT_CRASH",
    "EVENT_RECOVER",
    "EVENT_FAULT",
    "EVENT_SEND",
    "EVENT_SWEEP_FAILURE",
    "EVENT_PHASE_START",
    "EVENT_PHASE_END",
    "EVENT_SWEEP_START",
    "EVENT_SWEEP_POINT",
    "EVENT_SWEEP_END",
    "EVENT_ASYNC_RUN_END",
    "EVENT_MPC_ROUND",
    "EVENT_MPC_RUN_END",
    "EVENT_NOTE",
    "EVENT_SINK_STATS",
    "EVENT_SPAN",
    "EVENT_SERVE_REQUEST",
    "EVENT_SERVE_EPOCH",
    "EVENT_SERVE_RETRY",
    "EVENT_SERVE_SHED",
    "EVENT_SERVE_AUDIT",
]

#: Bumped whenever the reserved keys or the meaning of a kind changes.
SCHEMA_VERSION = 1

# -- event kinds -------------------------------------------------------------

EVENT_RUN_START = "run-start"
EVENT_RUN_END = "run-end"
EVENT_ROUND = "round"
EVENT_START_ROUND = "start-round"  # the synthetic on_start pre-round
EVENT_HALT = "halt"
EVENT_CRASH = "crash"
EVENT_RECOVER = "recover"  # crash-recovery: node rejoined with wiped state
EVENT_FAULT = "fault"  # adversary injected a message fault (data: fault=kind)
EVENT_SEND = "send"  # per-message; only via trace forwarding, always sampleable
EVENT_SWEEP_FAILURE = "sweep-failure"  # one sweep cell errored/timed out
EVENT_PHASE_START = "phase-start"
EVENT_PHASE_END = "phase-end"
EVENT_SWEEP_START = "sweep-start"
EVENT_SWEEP_POINT = "sweep-point"
EVENT_SWEEP_END = "sweep-end"
EVENT_ASYNC_RUN_END = "async-run-end"
EVENT_MPC_ROUND = "mpc-round"  # one sharded-runtime round: active, winners, comm bytes
EVENT_MPC_RUN_END = "mpc-run-end"  # aggregate: rounds, per-shard comm bytes, sparsification
EVENT_NOTE = "note"
EVENT_SINK_STATS = "sink-stats"
EVENT_SPAN = "span"  # one closed tracer span; name in `phase`, tree in `span`/`parent`
EVENT_SERVE_REQUEST = "serve-request"  # one completed service request: op, status, served, queue_depth
EVENT_SERVE_EPOCH = "serve-epoch"  # one committed epoch: mode=repair|recompute, rounds, mutations
EVENT_SERVE_RETRY = "serve-retry"  # epoch retried after an engine failure
EVENT_SERVE_SHED = "serve-shed"  # request shed with an explicit response (ladder bottom)
EVENT_SERVE_AUDIT = "serve-audit"  # periodic full-graph audit of a repair epoch: ok=true|false

#: Keys whose values come from a wall clock.  ``repro obs diff`` (and the
#: determinism acceptance test) compare streams with these removed.
#: ``cpu_s``/``start_s`` are span clocks; ``shard_seconds`` is the
#: per-shard wall map on ``mpc-round`` events.
TIMESTAMP_FIELDS = frozenset(
    {"ts", "dur_s", "seconds_by_algorithm", "cpu_s", "start_s", "shard_seconds"}
)

#: Keys an event's free-form ``data`` may not shadow.
RESERVED_FIELDS = frozenset({"kind", "ts", "round", "node", "phase", "dur_s"})


@dataclass(frozen=True)
class ObsEvent:
    """One telemetry event.

    ``ts`` is wall-clock seconds since the epoch (None for events created
    outside a session, e.g. by a bare :class:`~repro.congest.tracing.
    TraceRecorder`, which keeps those streams bit-deterministic).
    ``dur_s`` is a wall-clock duration for span-like events
    (``phase-end``, ``run-end``, ``sweep-point``).
    """

    kind: str
    ts: Optional[float] = None
    round: Optional[int] = None
    node: Optional[int] = None
    phase: Optional[str] = None
    dur_s: Optional[float] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        shadowed = RESERVED_FIELDS.intersection(self.data)
        if shadowed:
            raise ValueError(
                f"event data may not use reserved keys {sorted(shadowed)}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready dict; reserved keys first, None keys omitted."""
        out: Dict[str, Any] = {"kind": self.kind}
        for key in ("ts", "round", "node", "phase", "dur_s"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        out.update(self.data)
        return out

    def __str__(self) -> str:
        head = f"[{self.kind}]"
        if self.round is not None:
            head += f" r{self.round}"
        if self.node is not None:
            head += f" node={self.node}"
        if self.phase is not None:
            head += f" phase={self.phase}"
        if self.dur_s is not None:
            head += f" dur={self.dur_s:.4f}s"
        tail = " ".join(f"{k}={v}" for k, v in sorted(self.data.items()))
        return f"{head} {tail}".rstrip()


def event_from_dict(record: Dict[str, Any]) -> ObsEvent:
    """Inverse of :meth:`ObsEvent.to_dict` (tolerant of extra keys)."""
    data = {
        k: v for k, v in record.items() if k not in RESERVED_FIELDS
    }
    return ObsEvent(
        kind=record.get("kind", EVENT_NOTE),
        ts=record.get("ts"),
        round=record.get("round"),
        node=record.get("node"),
        phase=record.get("phase"),
        dur_s=record.get("dur_s"),
        data=data,
    )


def strip_timestamps(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Copies of ``records`` with every :data:`TIMESTAMP_FIELDS` key removed.

    This is the canonical "identical up to timestamps" projection used by
    ``repro obs diff`` and the determinism tests.
    """
    return [
        {k: v for k, v in record.items() if k not in TIMESTAMP_FIELDS}
        for record in records
    ]
