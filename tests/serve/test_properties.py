"""Property-based tests for the serving layer (Hypothesis).

The properties the whole design leans on:

* **Validity under arbitrary churn** — for any mutation sequence, both
  the incremental-repair path and the recompute-only path maintain a
  valid MIS after every epoch, and a session that mixes the two via the
  damage-cap ladder is valid as well.
* **The incremental content hash is the content hash** — after every
  epoch, committed or rolled back, the session's fingerprint equals the
  from-scratch :func:`graph_fingerprint`, and the vectorized hash agrees
  with the scalar ``derive_seed`` definition on any integer ids.
* **Local certificate ≡ full validation** — on repair epochs, checking
  only ``damaged ∪ evicted ∪ added ∪ N(evicted)`` accepts exactly when
  the full check does, including on planted corruptions.
* **Same-seed determinism** — driving the same seeded workload twice in
  lockstep produces identical obs event streams up to timestamps.
"""

from __future__ import annotations

import asyncio

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.mis.validation import assert_valid_mis
from repro.obs.manifest import RunManifest
from repro.obs.session import ObsSession
from repro.obs.sinks import MemorySink
from repro.obs.summary import diff_streams
from repro.rng import derive_seed
from repro.serve.incremental import (
    EDGE_TAG,
    NODE_TAG,
    GraphSession,
    Mutation,
    apply_mutations,
    graph_fingerprint,
    _content_hash_numpy,
    _content_hash_scalar,
    update_repair,
)
from repro.serve.loadgen import LoadGenConfig, drive
from repro.serve.server import MISService, ServeConfig

_MASK = (1 << 64) - 1

_NODES = 12

_raw_mutation = st.tuples(
    st.sampled_from(["add-edge", "remove-edge", "add-node", "remove-node"]),
    st.integers(0, _NODES - 1),
    st.integers(0, _NODES - 1),
)

_batches = st.lists(
    st.lists(_raw_mutation, min_size=1, max_size=5), min_size=1, max_size=6
)


def _materialize(raw_batches):
    """Raw draws → Mutation batches (self-loop edge draws become no-ops)."""
    batches = []
    for raw in raw_batches:
        batch = []
        for op, u, v in raw:
            if op in ("add-edge", "remove-edge"):
                if u == v:
                    continue
                batch.append(Mutation(op, u, v))
            else:
                batch.append(Mutation(op, u))
        if batch:
            batches.append(batch)
    return batches


class TestValidityUnderChurn:
    @settings(max_examples=30, deadline=None)
    @given(raw=_batches, seed=st.integers(0, 2**16))
    def test_repair_and_recompute_both_valid(self, raw, seed):
        batches = _materialize(raw)
        # repair_damage_cap=1.0 never falls back; cap=0.0 always does.
        repairing = GraphSession("r", seed=seed, repair_damage_cap=1.0)
        recomputing = GraphSession("c", seed=seed, repair_damage_cap=0.0)
        for batch in batches:
            repairing.apply_epoch(list(batch))
            recomputing.apply_epoch(list(batch))
            assert_valid_mis(repairing.graph, set(repairing.mis))
            assert_valid_mis(recomputing.graph, set(recomputing.mis))
            # Identical graphs regardless of how the MIS was maintained.
            assert repairing.fingerprint == recomputing.fingerprint

    @settings(max_examples=20, deadline=None)
    @given(raw=_batches, seed=st.integers(0, 2**16))
    def test_ladder_mix_stays_valid(self, raw, seed):
        session = GraphSession("m", seed=seed, repair_damage_cap=0.4)
        for batch in _materialize(raw):
            report = session.apply_epoch(list(batch))
            assert report.mode in ("repair", "recompute")
            assert_valid_mis(session.graph, set(session.mis))


def _verdict(graph, candidate, nodes=None):
    """The validator's answer: None when valid, else the error type."""
    try:
        assert_valid_mis(graph, candidate, nodes)
    except ReproError as exc:
        return type(exc)
    return None


def _bad_mutation(u):
    """A self-loop built past Mutation's validation: raises mid-batch."""
    m = object.__new__(Mutation)
    object.__setattr__(m, "op", "add-edge")
    object.__setattr__(m, "u", u)
    object.__setattr__(m, "v", u)
    return m


def _injected_abort():
    raise RuntimeError("injected engine failure")


#: How an epoch ends: commits, hits a bad mutation mid-batch, or the
#: engine fails mid-compute (cooperative abort, or an arbitrary error).
_fates = st.sampled_from(["commit", "bad-mutation", "abort", "crash"])


class TestIncrementalFingerprint:
    @settings(max_examples=40, deadline=None)
    @given(
        raw=_batches,
        fates=st.lists(_fates, min_size=6, max_size=6),
        seed=st.integers(0, 2**16),
        cap=st.sampled_from([1.0, 0.3]),
    )
    def test_fingerprint_after_every_epoch(self, raw, fates, seed, cap):
        session = GraphSession("f", seed=seed, repair_damage_cap=cap)
        for batch, fate in zip(_materialize(raw), fates):
            before = session.fingerprint
            should_abort = None
            if fate == "bad-mutation":
                batch = batch[:1] + [_bad_mutation(batch[0].u)] + batch[1:]
            elif fate == "abort":
                should_abort = lambda: True  # noqa: E731
            elif fate == "crash":
                should_abort = _injected_abort
            try:
                session.apply_epoch(batch, should_abort=should_abort)
                committed = True
            except Exception:
                committed = False
            assert session.fingerprint == graph_fingerprint(session.graph)
            if not committed:
                assert session.fingerprint == before
            snap = session.snapshot()
            assert snap["nodes"] == session.graph.number_of_nodes()
            assert snap["edges"] == session.graph.number_of_edges()
            assert_valid_mis(session.graph, set(session.mis))

    @settings(max_examples=60, deadline=None)
    @given(
        nodes=st.lists(
            st.one_of(
                st.integers(-(2**64), -1),
                st.integers(2**63, 2**65),
                st.integers(0, 2**63 - 1),
            ),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        data=st.data(),
    )
    def test_numpy_and_scalar_paths_agree_on_any_ids(self, nodes, data):
        pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        edges = [(u, v) for u, v in data.draw(st.lists(pairs, max_size=20)) if u != v]
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        scalar = sum(derive_seed(NODE_TAG, v) for v in graph.nodes)
        for u, v in graph.edges:
            a, b = sorted((u & _MASK, v & _MASK))
            scalar += derive_seed(EDGE_TAG, a, b)
        assert graph_fingerprint(graph) == f"{scalar & _MASK:016x}"
        elements = (list(graph.nodes), list(graph.edges))
        assert _content_hash_numpy(*elements) == scalar & _MASK
        assert _content_hash_scalar(*elements) == scalar & _MASK
        # The session's undo-log update lands on the same value.
        session = GraphSession("ids", seed=0)
        session.apply_epoch([Mutation("add-node", v) for v in nodes])
        session.apply_epoch([Mutation("add-edge", u, v) for u, v in edges])
        assert session.fingerprint == graph_fingerprint(graph)
        session.apply_epoch([Mutation("remove-node", nodes[0])])
        graph.remove_node(nodes[0])
        assert session.fingerprint == graph_fingerprint(graph)


class TestLocalCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        raw=_batches,
        flips=st.lists(
            st.one_of(st.none(), st.integers(0, 10**6)), min_size=6, max_size=6
        ),
        seed=st.integers(0, 2**16),
    )
    def test_certificate_accepts_exactly_when_full_check_does(
        self, raw, flips, seed
    ):
        graph = nx.Graph()
        mis = frozenset()
        for epoch, (batch, flip) in enumerate(zip(_materialize(raw), flips)):
            damaged = apply_mutations(graph, batch)
            departed = [v for v in mis if v not in graph]
            report = update_repair(
                graph, mis, damaged, seed=seed, epoch=epoch, departed=departed
            )
            nodes = report.certificate
            candidate = report.mis
            if flip is not None and nodes:
                # Plant a corruption inside C: one node flipped into or
                # out of the repaired MIS.
                candidate = candidate ^ {sorted(nodes)[flip % len(nodes)]}
            local = _verdict(graph, candidate, nodes)
            assert local == _verdict(graph, candidate)
            assert (local is None) == (candidate == report.mis)
            mis = report.mis


def _drive_once(seed: int):
    """One lockstep drive against a fresh service; returns event dicts."""
    sink = MemorySink()
    manifest = RunManifest(run_id="prop", kind="test", created_at="t")
    obs = ObsSession("unused", manifest, sink)

    async def scenario():
        service = MISService(
            ServeConfig(retries=0, backoff_base=0.0), obs=obs
        )
        try:
            config = LoadGenConfig(seed=seed, nodes=24, epochs=5, churn=3)
            report = await drive(service, config)
            assert report.unhandled == 0
            return report.to_dict()
        finally:
            await service.close()

    report = asyncio.run(scenario())
    return report, [event.to_dict() for event in sink.events]


class TestSameSeedDeterminism:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_obs_streams_identical_up_to_timestamps(self, seed):
        report_a, events_a = _drive_once(seed)
        report_b, events_b = _drive_once(seed)
        assert report_a == report_b
        assert events_a, "drive should emit obs events"
        diff = diff_streams(events_a, events_b)
        assert diff.identical, diff.differences[:5]
