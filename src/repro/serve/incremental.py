"""Incremental MIS maintenance under churn — the serving layer's core.

The paper's algorithms assume a static input, but Ghaffari's
local-complexity view (arXiv:1506.05093) observes that the residual
instance after partial progress is itself an MIS instance.  That is
exactly the property this module exploits: after a batch of graph
mutations, the *damaged neighborhood* (mutation endpoints plus fallout)
is a small residual MIS instance, and an MIS of the new graph is
recovered by

1. an **eviction round** — every new member–member edge (only edge
   insertions can create one) is resolved by keyed priority, the loser
   withdraws — followed by
2. a **restricted Métivier competition** over the nodes left
   undominated (eviction fallout, nodes whose dominator was deleted,
   fresh nodes), identical in structure to the crash-repair pass of
   :mod:`repro.core.repair` (PR 4) but driven by *update* faults.

Costs are reported in honest CONGEST rounds: one eviction round when an
eviction happened plus ``ROUNDS_PER_ITERATION`` per competition
iteration — the ``repair_rounds`` metric the E21 benchmark compares
against recompute-from-scratch across churn rates.

Determinism: epoch ``k`` of a session draws every coin from
``derive_seed(seed, k)`` under a dedicated tag, so same-seed mutation
sequences repair identically — the Hypothesis suite pins repair ≡ valid
MIS and same-seed obs-stream identity on top of this.

:class:`GraphSession` owns one named dynamic graph and implements the
compute half of the degradation ladder: incremental repair, with
automatic fallback to **full recompute** when the repair budget (damage
fraction or competition iterations) is exceeded.  A committed repair
epoch costs O(damage), not O(n): the content hash is updated from the
epoch's undo log, the MIS is checked by a *local certificate* over the
touched nodes, and a full-graph audit runs every ``audit_every``-th
epoch as a backstop.  Readers see only immutable
:class:`CommittedSnapshot` values, swapped in whole at commit.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx

from repro.core.parameters import ROUNDS_PER_ITERATION
from repro.errors import ReproError
from repro.mis.engine import (
    active_adjacency,
    competition_winners,
    eliminate_winners,
)
from repro.mis.validation import assert_valid_mis
from repro.obs.trace import (
    SPAN_SERVE_APPLY,
    SPAN_SERVE_AUDIT,
    SPAN_SERVE_FINGERPRINT,
    SPAN_SERVE_RECOMPUTE,
    SPAN_SERVE_REPAIR,
    SPAN_SERVE_VALIDATE,
)
from repro.rng import derive_seed, derive_seed_array, priority_draw, ring_array
from repro.serve.errors import BadRequestError

__all__ = [
    "Mutation",
    "UpdateRepairReport",
    "EpochReport",
    "CommittedSnapshot",
    "CACHE_KEY_FIELDS",
    "snapshot_key",
    "GraphSession",
    "RepairBudgetExceeded",
    "ComputeAborted",
    "AuditFailure",
    "apply_mutations",
    "rollback_mutations",
    "update_repair",
    "graph_fingerprint",
    "MUTATION_OPS",
]

#: Keyed-RNG tag for update-repair priorities; distinct from the crash
#: repair tag (47) and the finishing tags (41/43) so churn repair never
#: replays another stage's coins.
_UPDATE_TAG = 53

#: Domain tags of the content hash: ``H(NODE_TAG, v)`` and
#: ``H(EDGE_TAG, u, v)`` can never collide by construction.
NODE_TAG = 79
EDGE_TAG = 83

_MASK = (1 << 64) - 1

MUTATION_OPS = ("add-node", "remove-node", "add-edge", "remove-edge")


class RepairBudgetExceeded(ReproError):
    """Internal signal: incremental repair would exceed its budget.

    Callers (the session's epoch loop) catch this and fall back to a
    full recompute — it never escapes the serving layer.
    """


class AuditFailure(ReproError):
    """The periodic full-graph audit found an invalid committed MIS.

    The local certificate passed, so the damage predates this epoch or
    lies outside what the certificate inspects.  It is an engine
    failure: the epoch rolls back and the service counts it — never a
    silent fix.
    """


class ComputeAborted(ReproError):
    """Cooperative cancellation: the abort callback returned True.

    Raised between competition iterations; the server maps it to a
    ``deadline-exceeded`` response.
    """


@dataclass(frozen=True)
class Mutation:
    """One graph update: an edge or node insert/delete.

    Mutations are **idempotent**: adding a present edge, deleting an
    absent one, or deleting an unknown node is a no-op, which makes
    coalesced batches insensitive to duplication and reordering races
    in open-loop traffic.
    """

    op: str
    u: int
    v: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in MUTATION_OPS:
            raise BadRequestError(
                f"unknown mutation op {self.op!r}; use one of {MUTATION_OPS}"
            )
        if self.op.endswith("-edge"):
            if self.v is None:
                raise BadRequestError(f"{self.op} requires both endpoints")
            if self.u == self.v:
                raise BadRequestError(
                    f"self-loop {self.u}-{self.v} is not a graph edge"
                )

    @classmethod
    def from_dict(cls, record: Dict) -> "Mutation":
        try:
            return cls(
                op=record["op"],
                u=int(record["u"]),
                v=int(record["v"]) if record.get("v") is not None else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequestError(f"malformed mutation {record!r}: {exc}") from None

    def to_dict(self) -> Dict:
        out: Dict = {"op": self.op, "u": self.u}
        if self.v is not None:
            out["v"] = self.v
        return out


#: Below this many elements the scalar hash beats numpy's per-call
#: overhead (an epoch's undo log); above it the vectorized path wins
#: (bootstrap, the from-scratch reference).
_SCALAR_HASH_MAX = 64


def _content_hash(nodes: Sequence[int], edges: Sequence[Tuple[int, int]]) -> int:
    """``Σ H(NODE_TAG, v) + Σ H(EDGE_TAG, u, v) mod 2⁶⁴`` over the elements.

    ``H`` is the :func:`~repro.rng.derive_seed` splitmix chain; ids are
    folded into the 64-bit ring first and each edge is keyed smaller
    endpoint first, so the sum is order-free.  The scalar and numpy
    paths compute the same value (a property test pins it on ids that
    are negative or at least 2⁶³).
    """
    if len(nodes) + len(edges) <= _SCALAR_HASH_MAX:
        return _content_hash_scalar(nodes, edges)
    return _content_hash_numpy(nodes, edges)


def _content_hash_scalar(nodes: Sequence[int], edges: Sequence[Tuple[int, int]]) -> int:
    total = sum(derive_seed(NODE_TAG, v) for v in nodes)
    for u, v in edges:
        u, v = u & _MASK, v & _MASK
        total += derive_seed(EDGE_TAG, min(u, v), max(u, v))
    return total & _MASK


def _content_hash_numpy(nodes: Sequence[int], edges: Sequence[Tuple[int, int]]) -> int:
    total = 0
    if nodes:
        total += int(derive_seed_array(NODE_TAG, ring_array(nodes)).sum())
    if edges:
        ends = ring_array(list(itertools.chain.from_iterable(edges))).reshape(-1, 2)
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        total += int(derive_seed_array(EDGE_TAG, lo, hi).sum())
    return total & _MASK


def graph_fingerprint(
    graph: nx.Graph,
    previous: Optional[str] = None,
    undo: Sequence[Tuple] = (),
) -> str:
    """Content hash of a graph: the cache key's graph component.

    A commutative multiset hash, ``Σ_v H(NODE_TAG, v) + Σ_{u<v}
    H(EDGE_TAG, u, v) mod 2⁶⁴`` as 16 hex characters, where ``H`` is
    the keyed splitmix chain of :func:`repro.rng.derive_seed`.  Node
    labels matter (relabeled isomorphic graphs differ) and mutation
    no-ops leave it unchanged.

    Without ``previous`` the hash is computed from scratch over the
    whole graph: the reference.  Because it is a sum, it can also be
    moved along with the graph: given ``previous``, the fingerprint of
    ``graph`` before the changes the :func:`apply_mutations` undo log
    ``undo`` records, it is updated from the log alone in O(len(undo)).
    Every record is an *effective* change, so adding ``H`` of what the
    changes created and subtracting ``H`` of what they deleted gives
    exactly the from-scratch value — the per-epoch update a session
    makes.
    """
    if previous is None:
        return f"{_content_hash(list(graph.nodes), list(graph.edges)):016x}"
    born_nodes: List[int] = []
    dead_nodes: List[int] = []
    born_edges: List[Tuple[int, int]] = []
    dead_edges: List[Tuple[int, int]] = []
    for kind, u, v, extra in undo:
        if kind == "del-node":
            born_nodes.append(u)
        elif kind == "restore-node":
            dead_nodes.append(u)
            dead_edges.extend(extra)
        elif kind == "del-edge":
            born_edges.append((u, v))
            born_nodes.extend(extra)
        else:  # restore-edge
            dead_edges.append((u, v))
    digest = (
        int(previous, 16)
        + _content_hash(born_nodes, born_edges)
        - _content_hash(dead_nodes, dead_edges)
    )
    return f"{digest & _MASK:016x}"


def _undo_effects(graph: nx.Graph, undo: Sequence[Tuple]) -> Tuple[List[int], int]:
    """(nodes the logged changes deleted for good, edge-count change).

    Keeps a session's edge count without ``graph.number_of_edges()``,
    which is a pass over every node.
    """
    departed: List[int] = []
    edges = 0
    for kind, u, _, extra in undo:
        if kind == "restore-node":
            edges -= len(extra)
            if u not in graph:
                departed.append(u)
        elif kind == "del-edge":
            edges += 1
        elif kind == "restore-edge":
            edges -= 1
    return departed, edges


def apply_mutations(
    graph: nx.Graph,
    mutations: Sequence[Mutation],
    undo: Optional[List[Tuple]] = None,
) -> Set[int]:
    """Apply a mutation batch in place; return the damaged node set.

    The damaged set is every node whose membership or domination status
    could have changed: endpoints of inserted/deleted edges, inserted
    nodes, and the former neighbors of deleted nodes.  Deleted nodes
    themselves are *not* damaged (they no longer exist).

    When ``undo`` is given, an inverse record is appended for every
    *effective* change (no-ops record nothing), so a failed epoch can
    roll the graph back with :func:`rollback_mutations` — an epoch
    either commits whole or leaves no trace.
    """
    damaged: Set[int] = set()
    for m in mutations:
        if m.op == "add-node":
            if not graph.has_node(m.u):
                graph.add_node(m.u)
                if undo is not None:
                    undo.append(("del-node", m.u, None, ()))
            damaged.add(m.u)
        elif m.op == "remove-node":
            if graph.has_node(m.u):
                damaged.update(graph.neighbors(m.u))
                if undo is not None:
                    undo.append(
                        ("restore-node", m.u, None, tuple(graph.edges(m.u)))
                    )
                graph.remove_node(m.u)
            damaged.discard(m.u)
        elif m.op == "add-edge":
            if m.u == m.v:
                raise BadRequestError(f"self-loop {m.u}-{m.v} is not a graph edge")
            if not graph.has_edge(m.u, m.v):
                fresh = tuple(
                    v for v in (m.u, m.v) if not graph.has_node(v)
                )
                graph.add_edge(m.u, m.v)
                if undo is not None:
                    undo.append(("del-edge", m.u, m.v, fresh))
            damaged.update((m.u, m.v))
        else:  # remove-edge
            if graph.has_edge(m.u, m.v):
                graph.remove_edge(m.u, m.v)
                if undo is not None:
                    undo.append(("restore-edge", m.u, m.v, ()))
                damaged.update((m.u, m.v))
    return {v for v in damaged if graph.has_node(v)}


def rollback_mutations(graph: nx.Graph, undo: List[Tuple]) -> None:
    """Undo an :func:`apply_mutations` log (inverse ops, reverse order)."""
    for kind, u, v, extra in reversed(undo):
        if kind == "del-node":
            graph.remove_node(u)
        elif kind == "restore-node":
            graph.add_node(u)
            graph.add_edges_from(extra)
        elif kind == "del-edge":
            graph.remove_edge(u, v)
            for node in extra:  # endpoints the edge insertion created
                graph.remove_node(node)
        else:  # restore-edge
            graph.add_edge(u, v)


@dataclass(frozen=True)
class UpdateRepairReport:
    """What one incremental-repair pass changed and what it cost."""

    mis: frozenset
    evicted: frozenset
    added: frozenset
    #: CONGEST rounds distributed: one eviction round (only when a
    #: member-member conflict existed) plus 3 per competition iteration.
    repair_rounds: int
    iterations: int
    damaged: int
    #: ``C = damaged ∪ evicted ∪ added ∪ N(evicted)``: every node whose
    #: adjacency, membership or dominator the epoch could have changed.
    #: A new member–member edge has a damaged or added endpoint, and a
    #: node that lost its dominator is damaged (edge or dominator
    #: deleted), evicted, or next to an evicted member — so if the MIS
    #: was valid before, ``assert_valid_mis(graph, mis, nodes=C)``
    #: certifies all of it (the *local certificate*).
    certificate: frozenset = frozenset()


def update_repair(
    graph: nx.Graph,
    mis: AbstractSet[int],
    damaged: Set[int],
    seed: int,
    epoch: int,
    max_iterations: int = 10_000,
    should_abort: Optional[Callable[[], bool]] = None,
    *,
    departed: Iterable[int],
) -> UpdateRepairReport:
    """Repair ``mis`` after mutations that damaged ``damaged`` nodes.

    Generalizes :func:`repro.core.repair.repair` from crash faults to
    update faults: only the damaged neighborhood is inspected, so the
    cost scales with the churn, not the graph.  ``departed`` lists the
    members of ``mis`` the mutations deleted from ``graph`` (the session
    reads them off the epoch's undo log); every other member must still
    be in ``graph``.  ``mis`` is never scanned, only copied once into
    the result.  Raises
    :class:`RepairBudgetExceeded` when the competition would exceed
    ``max_iterations`` and :class:`ComputeAborted` when ``should_abort``
    fires between iterations (cooperative cancellation).
    """
    epoch_seed = derive_seed(seed, epoch)
    departed = set(departed).intersection(mis)

    # Empty damage: the old MIS survives verbatim, zero rounds.  (The
    # same early-return contract the crash repair now honors.)
    if not damaged:
        return UpdateRepairReport(
            mis=frozenset(mis).difference(departed),
            evicted=frozenset(),
            added=frozenset(),
            repair_rounds=0,
            iterations=0,
            damaged=0,
        )

    if should_abort is not None and should_abort():
        raise ComputeAborted("update repair aborted before start")

    # Eviction round: only an inserted edge can make two members
    # adjacent, and both its endpoints are damaged, so scanning damaged
    # members finds every conflict.  The lower keyed priority withdraws.
    violating: List[Tuple[int, int]] = []
    for v in sorted(damaged.intersection(mis)):
        for u in graph.neighbors(v):
            if u in mis and (u > v or u not in damaged):
                violating.append((v, u))
    evicted: Set[int] = set()
    if violating:
        priority = {
            v: (priority_draw(epoch_seed, v, 0, tag=_UPDATE_TAG), v)
            for edge in violating
            for v in edge
        }
        for u, v in violating:
            evicted.add(u if priority[u] < priority[v] else v)

    # The surviving members are ``mis - evicted``; membership is tested
    # against ``mis`` rather than a copy of it, so only the final
    # result below costs O(|mis|).
    def member(u: int) -> bool:
        return u in mis and u not in evicted

    # Undominated region: domination can only have changed for damaged
    # nodes and the neighbors of evicted members.
    candidates = set(damaged)
    for v in evicted:
        candidates.update(graph.neighbors(v))
    certificate = frozenset(candidates | evicted)  # added ⊆ candidates
    uncovered = {
        v
        for v in candidates
        if not member(v) and not any(member(u) for u in graph.neighbors(v))
    }

    # Restricted Métivier competition over the uncovered region.  This
    # is the same loop as repro.core.finishing.restricted_metivier_mis,
    # inlined to thread the abort callback and the iteration budget
    # through (cooperative cancellation reaches the engine loop).
    adjacency = active_adjacency(graph.subgraph(uncovered))
    active = set(uncovered)
    added: Set[int] = set()
    iteration = 0
    while active:
        if should_abort is not None and should_abort():
            raise ComputeAborted(
                f"update repair aborted at iteration {iteration}"
            )
        if iteration >= max_iterations:
            raise RepairBudgetExceeded(
                f"update repair exceeded {max_iterations} iteration(s) "
                f"with {len(active)} node(s) still active"
            )
        keys = {
            v: (priority_draw(epoch_seed, v, iteration, tag=_UPDATE_TAG), v)
            for v in active
        }
        winners = competition_winners(active, adjacency, keys)
        added |= winners
        eliminate_winners(active, adjacency, winners)
        iteration += 1

    # departed and evicted are disjoint subsets of mis, and added is
    # disjoint from ``mis - evicted``, so the new MIS is one symmetric
    # difference: a single C-level copy of the old set.
    changed = departed | (evicted ^ added)
    return UpdateRepairReport(
        mis=frozenset(mis).symmetric_difference(changed)
        if changed
        else frozenset(mis),
        evicted=frozenset(evicted),
        added=frozenset(added),
        repair_rounds=(1 if violating else 0)
        + ROUNDS_PER_ITERATION * iteration,
        iterations=iteration,
        damaged=len(damaged),
        certificate=certificate,
    )


@dataclass
class EpochReport:
    """Outcome of committing one coalesced mutation batch."""

    epoch: int
    #: ``"repair"`` (incremental) or ``"recompute"`` (budget fallback).
    mode: str
    mutations: int
    damaged: int
    #: Honest CONGEST-round cost of this epoch: repair rounds for the
    #: incremental path, the engine's round count for recompute.
    rounds: int
    evicted: int
    added: int
    mis_size: int
    fingerprint: str
    #: Whether this epoch also passed the periodic full-graph audit.
    audited: bool = False


#: The snapshot fields that make up a result-cache key, in key order.
CACHE_KEY_FIELDS = ("session", "epoch", "fingerprint", "seed", "algorithm", "engine")


def snapshot_key(body: Dict) -> Tuple[str, int, str, int, str, str]:
    """The result-cache key of a snapshot body (see :meth:`GraphSession.cache_key`).

    Taken from the body itself, so a cached entry's key and content
    always describe the same committed epoch.
    """
    return tuple(body[name] for name in CACHE_KEY_FIELDS)


@dataclass(frozen=True)
class CommittedSnapshot:
    """One committed ``(graph, MIS)`` state of a session, never mutated.

    The session builds one at the end of every committed epoch and
    publishes it with a single attribute assignment, so a reader on
    another thread sees either the previous epoch or this one whole —
    never a graph the executor is half-way through mutating.  Building
    it is O(1): node/edge counts and the content hash are maintained
    incrementally, and ``mis`` is the epoch's own frozenset.
    """

    session: str
    epoch: int
    fingerprint: str
    seed: int
    algorithm: str
    engine: str
    nodes: int
    edges: int
    mis: frozenset
    repairs: int
    recomputes: int
    repair_rounds: int
    recompute_rounds: int

    @property
    def key(self) -> Tuple[str, int, str, int, str, str]:
        """The result-cache key (see :meth:`GraphSession.cache_key`)."""
        return tuple(getattr(self, name) for name in CACHE_KEY_FIELDS)

    def body(self) -> Dict:
        """The query response body: MIS + session metadata."""
        return {
            "session": self.session,
            "epoch": self.epoch,
            "fingerprint": self.fingerprint,
            "algorithm": self.algorithm,
            "engine": self.engine,
            "seed": self.seed,
            "nodes": self.nodes,
            "edges": self.edges,
            "mis": sorted(self.mis),
            "mis_size": len(self.mis),
            "repairs": self.repairs,
            "recomputes": self.recomputes,
            "repair_rounds": self.repair_rounds,
            "recompute_rounds": self.recompute_rounds,
        }


class GraphSession:
    """One named dynamic graph with an always-valid maintained MIS.

    The session is the compute half of the serving layer: it owns the
    graph, the current MIS, the epoch counter, and the incremental →
    recompute half of the degradation ladder.  It is synchronous and
    single-writer — the asyncio service serializes epochs per session
    (coalescing concurrent mutations into one epoch) and runs them on an
    executor.  Readers on other threads use only :attr:`committed`.

    ``audit_every`` sets the full-graph audit period: every
    ``audit_every``-th committed repair epoch re-validates the whole
    graph on top of the local certificate.
    """

    def __init__(
        self,
        name: str,
        seed: int = 0,
        algorithm: str = "metivier",
        engine: Optional[str] = None,
        graph: Optional[nx.Graph] = None,
        repair_iteration_budget: int = 10_000,
        repair_damage_cap: float = 1.0,
        audit_every: int = 64,
    ):
        if audit_every < 1:
            raise ValueError(f"audit_every must be >= 1, got {audit_every}")
        self.name = name
        self.seed = seed
        self.algorithm = algorithm
        self.engine = engine
        self.graph = graph if graph is not None else nx.Graph()
        self.epoch = 0
        #: Optional span tracer (set by the service); spans are recorded
        #: around the synchronous compute only, where nesting is strict.
        self.tracer = None
        self.repair_iteration_budget = repair_iteration_budget
        self.repair_damage_cap = repair_damage_cap
        self.audit_every = audit_every
        self.mis: frozenset = frozenset()
        self.total_repair_rounds = 0
        self.total_recompute_rounds = 0
        self.repairs = 0
        self.recomputes = 0
        if self.graph.number_of_nodes():
            self._recompute(should_abort=None)
            # Bootstrap keeps full validation: local certificates assume
            # a valid predecessor, and this state is every epoch's root.
            assert_valid_mis(self.graph, self.mis)
        self.committed = self._freeze(
            graph_fingerprint(self.graph), self.graph.number_of_edges()
        )

    # -- identity -------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Content hash of the committed graph."""
        return self.committed.fingerprint

    def cache_key(self) -> Tuple[str, int, str, int, str, str]:
        """The result-cache key, scoped to one committed snapshot.

        ``(session, epoch)`` pins the entry to this session's history:
        the maintained MIS draws its coins from ``derive_seed(seed,
        epoch)`` and snapshots embed session metadata (name, epoch,
        repair counters), so entries are never shared across sessions —
        a cross-session hit would leak another session's identity and
        break same-seed determinism.  The determinism tuple
        ``(fingerprint, seed, algorithm, engine)`` rides along so a key
        can never alias two different graph contents or configurations.
        It is read from :attr:`committed`, so it never reflects an epoch
        still in flight.
        """
        return self.committed.key

    def _freeze(self, fingerprint: str, edges: int) -> CommittedSnapshot:
        return CommittedSnapshot(
            session=self.name,
            epoch=self.epoch,
            fingerprint=fingerprint,
            seed=self.seed,
            algorithm=self.algorithm,
            engine=self.engine or "scalar",
            nodes=self.graph.number_of_nodes(),
            edges=edges,
            mis=self.mis,
            repairs=self.repairs,
            recomputes=self.recomputes,
            repair_rounds=self.total_repair_rounds,
            recompute_rounds=self.total_recompute_rounds,
        )

    # -- compute --------------------------------------------------------------

    def _recompute(self, should_abort: Optional[Callable[[], bool]]) -> int:
        """Full recompute of the MIS; returns its round cost."""
        if should_abort is not None and should_abort():
            raise ComputeAborted("recompute aborted before start")
        if self.graph.number_of_nodes() == 0:
            self.mis = frozenset()
            return 0
        from repro.mis.registry import get_algorithm

        fn = get_algorithm(self.algorithm, engine=self.engine)
        result = fn(self.graph, seed=derive_seed(self.seed, self.epoch))
        self.mis = frozenset(result.mis)
        if result.congest_rounds is not None:
            return result.congest_rounds
        return ROUNDS_PER_ITERATION * result.iterations

    def _span(self, name: str):
        """A tracer span when tracing is on, else a no-op context."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def apply_epoch(
        self,
        mutations: Sequence[Mutation],
        should_abort: Optional[Callable[[], bool]] = None,
    ) -> EpochReport:
        """Commit one coalesced mutation batch as one epoch.

        Attempts incremental repair first; falls back to full recompute
        when the damage fraction or the competition-iteration budget is
        exceeded.  The resulting MIS is validated before the epoch
        commits — a serving layer must never cache or return an invalid
        set.  A repair epoch is checked by the local certificate over
        ``damaged ∪ evicted ∪ added ∪ N(evicted)``, which is complete
        because the previous committed state was valid; a recompute
        epoch is checked in full, and so is every ``audit_every``-th
        committed epoch (a failure there raises :class:`AuditFailure`).
        """
        prev = self.committed
        undo: List[Tuple] = []
        mode = "repair"
        evicted = added = 0
        audited = False
        try:
            with self._span(SPAN_SERVE_APPLY):
                damaged = apply_mutations(self.graph, mutations, undo=undo)
                departed, edge_delta = _undo_effects(self.graph, undo)
            with self._span(SPAN_SERVE_FINGERPRINT):
                fingerprint = graph_fingerprint(
                    self.graph, previous=prev.fingerprint, undo=undo
                )
            n = self.graph.number_of_nodes()
            try:
                if damaged and n and len(damaged) > self.repair_damage_cap * n:
                    raise RepairBudgetExceeded(
                        f"{len(damaged)}/{n} nodes damaged exceeds the "
                        f"{self.repair_damage_cap:.0%} repair cap"
                    )
                with self._span(SPAN_SERVE_REPAIR):
                    report = update_repair(
                        self.graph,
                        self.mis,
                        damaged,
                        seed=self.seed,
                        epoch=self.epoch,
                        max_iterations=self.repair_iteration_budget,
                        should_abort=should_abort,
                        departed=departed,
                    )
                self.mis = report.mis
                rounds = report.repair_rounds
                evicted, added = len(report.evicted), len(report.added)
                certificate: Optional[frozenset] = report.certificate
            except RepairBudgetExceeded:
                mode = "recompute"
                certificate = None
                with self._span(SPAN_SERVE_RECOMPUTE):
                    rounds = self._recompute(should_abort)
            with self._span(SPAN_SERVE_VALIDATE):
                assert_valid_mis(self.graph, self.mis, certificate)
            if certificate is not None and (self.epoch + 1) % self.audit_every == 0:
                audited = True
                with self._span(SPAN_SERVE_AUDIT):
                    try:
                        assert_valid_mis(self.graph, self.mis)
                    except ReproError as exc:
                        raise AuditFailure(
                            f"session {self.name!r} epoch {self.epoch + 1}: "
                            f"full-graph audit failed after the local "
                            f"certificate passed: {exc}"
                        ) from exc
        except BaseException:
            # Transactional epochs: any failure — a bad mutation raised
            # mid-application, an aborted or failed compute, a validation
            # or audit error — rolls the mutations and the MIS back, so
            # the session keeps a consistent (graph, mis, epoch) triple
            # and a retry replays the exact same epoch (same coins, same
            # damage).  The content hash needs no undo: the committed
            # snapshot still holds the previous value.
            rollback_mutations(self.graph, undo)
            self.mis = prev.mis
            raise

        if mode == "repair":
            self.repairs += 1
            self.total_repair_rounds += rounds
        else:
            self.recomputes += 1
            self.total_recompute_rounds += rounds
        self.epoch += 1
        self.committed = self._freeze(fingerprint, prev.edges + edge_delta)
        return EpochReport(
            epoch=self.epoch,
            mode=mode,
            mutations=len(mutations),
            damaged=len(damaged),
            rounds=rounds,
            evicted=evicted,
            added=added,
            mis_size=len(self.mis),
            fingerprint=self.committed.fingerprint,
            audited=audited,
        )

    # -- queries --------------------------------------------------------------

    def snapshot(self) -> Dict:
        """The query response body of the committed state."""
        return self.committed.body()


def mutations_from_records(records: Iterable[Dict]) -> List[Mutation]:
    """Parse a wire-form mutation list (raises BadRequestError)."""
    return [Mutation.from_dict(record) for record in records]
