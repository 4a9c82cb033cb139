"""Tests for the serving layer's algorithmic core: mutations, update
repair, transactional epochs, the incremental → recompute ladder, the
incremental content hash, local certificates, the periodic audit, and
committed-snapshot reads."""

from __future__ import annotations

import dataclasses
import sys
import threading

import networkx as nx
import pytest

from repro.core.parameters import ROUNDS_PER_ITERATION
from repro.mis.validation import assert_valid_mis
from repro.obs.trace import (
    SPAN_SERVE_APPLY,
    SPAN_SERVE_AUDIT,
    SPAN_SERVE_FINGERPRINT,
    SPAN_SERVE_REPAIR,
    SPAN_SERVE_VALIDATE,
    Tracer,
)
from repro.serve.errors import BadRequestError
from repro.serve.incremental import (
    AuditFailure,
    ComputeAborted,
    GraphSession,
    Mutation,
    RepairBudgetExceeded,
    apply_mutations,
    graph_fingerprint,
    mutations_from_records,
    rollback_mutations,
    snapshot_key,
    update_repair,
)


def _raw_mutation(op, u, v=None):
    """A Mutation bypassing __post_init__ validation (tests only)."""
    m = object.__new__(Mutation)
    object.__setattr__(m, "op", op)
    object.__setattr__(m, "u", u)
    object.__setattr__(m, "v", v)
    return m


class TestMutation:
    def test_unknown_op_rejected(self):
        with pytest.raises(BadRequestError):
            Mutation("frobnicate", 1)

    def test_edge_ops_need_both_endpoints(self):
        with pytest.raises(BadRequestError):
            Mutation("add-edge", 1)

    def test_round_trips_through_dict(self):
        m = Mutation("add-edge", 1, 2)
        assert Mutation.from_dict(m.to_dict()) == m

    def test_self_loop_rejected_at_parse_time(self):
        # Parse-time rejection: a self-loop must never reach a batch
        # where it could fail mid-application.
        with pytest.raises(BadRequestError):
            Mutation("add-edge", 3, 3)
        with pytest.raises(BadRequestError):
            Mutation.from_dict({"op": "add-edge", "u": 3, "v": 3})

    def test_malformed_record_rejected(self):
        with pytest.raises(BadRequestError):
            Mutation.from_dict({"op": "add-edge", "u": "x", "v": 2})
        with pytest.raises(BadRequestError):
            mutations_from_records([{"u": 1}])


class TestApplyMutations:
    def test_damaged_set_covers_endpoints(self):
        g = nx.path_graph(4)
        damaged = apply_mutations(g, [Mutation("add-edge", 0, 3)])
        assert damaged == {0, 3}

    def test_removed_node_damages_former_neighbors(self):
        g = nx.star_graph(4)  # hub 0
        damaged = apply_mutations(g, [Mutation("remove-node", 0)])
        assert damaged == {1, 2, 3, 4}
        assert not g.has_node(0)

    def test_idempotent_noops(self):
        g = nx.path_graph(3)
        damaged = apply_mutations(
            g,
            [
                Mutation("add-edge", 0, 1),  # already present
                Mutation("remove-edge", 0, 2),  # absent
                Mutation("remove-node", 99),  # unknown
            ],
        )
        # Present-edge re-adds still touch the endpoints; true no-ops don't.
        assert damaged == {0, 1}
        assert sorted(g.edges) == [(0, 1), (1, 2)]

    def test_self_loop_rejected_at_apply_time(self):
        # Defense in depth behind the parse-time check: a mutation built
        # outside the validating constructor still cannot apply.
        with pytest.raises(BadRequestError):
            apply_mutations(nx.Graph(), [_raw_mutation("add-edge", 5, 5)])

    def test_rollback_restores_graph_exactly(self):
        g = nx.gnp_random_graph(20, 0.2, seed=1)
        before_fp = graph_fingerprint(g)
        undo = []
        apply_mutations(
            g,
            [
                Mutation("add-edge", 0, 19),
                Mutation("add-edge", 100, 101),  # creates both nodes
                Mutation("remove-node", 3),
                Mutation("remove-edge", 1, 2),
                Mutation("add-node", 55),
                Mutation("remove-node", 55),
            ],
            undo=undo,
        )
        rollback_mutations(g, undo)
        assert graph_fingerprint(g) == before_fp


class TestContentHash:
    def test_insertion_order_free_but_label_sensitive(self):
        a = nx.Graph([(0, 1), (1, 2), (2, 3)])
        b = nx.Graph([(3, 2), (1, 0), (2, 1)])
        assert graph_fingerprint(a) == graph_fingerprint(b)
        relabeled = nx.relabel_nodes(a, {0: 10})
        assert graph_fingerprint(relabeled) != graph_fingerprint(a)
        # An isolated node is content too.
        b.add_node(99)
        assert graph_fingerprint(a) != graph_fingerprint(b)


class TestUpdateRepair:
    def test_empty_damage_is_free(self):
        g = nx.path_graph(5)
        report = update_repair(g, {0, 2, 4}, set(), seed=0, epoch=0, departed=())
        assert report.repair_rounds == 0
        assert report.mis == frozenset({0, 2, 4})

    def test_inserted_edge_conflict_is_repaired(self):
        g = nx.path_graph(5)
        g.add_edge(0, 2)
        report = update_repair(g, {0, 2, 4}, {0, 2}, seed=0, epoch=0, departed=())
        assert_valid_mis(g, set(report.mis))
        assert len(report.evicted) == 1
        assert report.repair_rounds >= 1

    def test_deleted_dominator_recovers_coverage(self):
        g = nx.path_graph(5)
        g.remove_node(2)  # 2 dominated 1 and 3
        report = update_repair(g, {0, 4}, {1, 3}, seed=0, epoch=0, departed=())
        assert_valid_mis(g, set(report.mis))

    def test_round_accounting(self):
        g = nx.path_graph(6)
        g.add_edge(0, 2)
        report = update_repair(g, {0, 2, 4}, {0, 2}, seed=0, epoch=0, departed=())
        assert (
            report.repair_rounds
            == 1 + ROUNDS_PER_ITERATION * report.iterations
        )

    def test_repair_is_local(self):
        # Damage at one end of a long path leaves the far end untouched.
        g = nx.path_graph(30)
        mis = set(range(0, 30, 2))
        g.add_edge(0, 2)
        report = update_repair(g, mis, {0, 2}, seed=0, epoch=0, departed=())
        assert set(range(10, 30, 2)) <= report.mis

    def test_epoch_keys_differ(self):
        g = nx.gnp_random_graph(25, 0.2, seed=2)
        mis = set()
        damaged = set(g.nodes)
        a = update_repair(g, mis, damaged, seed=7, epoch=0, departed=())
        b = update_repair(g, mis, damaged, seed=7, epoch=1, departed=())
        again = update_repair(g, mis, damaged, seed=7, epoch=0, departed=())
        assert a.mis == again.mis  # same epoch → same coins
        assert_valid_mis(g, set(b.mis))

    def test_budget_exceeded_raises(self):
        g = nx.gnp_random_graph(30, 0.3, seed=3)
        with pytest.raises(RepairBudgetExceeded):
            update_repair(
                g, set(), set(g.nodes), seed=0, epoch=0, max_iterations=0, departed=()
            )

    def test_departed_members_must_be_named(self):
        # Leaving ``departed`` out is an error, never an MIS that keeps
        # a member the mutations deleted.
        g = nx.path_graph(3)
        with pytest.raises(TypeError):
            update_repair(g, {0, 2}, set(), seed=0, epoch=0)

    def test_cooperative_abort(self):
        g = nx.gnp_random_graph(30, 0.3, seed=3)
        with pytest.raises(ComputeAborted):
            update_repair(
                g, set(), set(g.nodes), seed=0, epoch=0,
                should_abort=lambda: True, departed=(),
            )


class TestGraphSession:
    def test_epochs_maintain_validity(self):
        session = GraphSession("s", seed=1)
        session.apply_epoch([Mutation("add-edge", u, u + 1) for u in range(10)])
        for epoch in range(5):
            session.apply_epoch([Mutation("add-edge", 2 * epoch, 2 * epoch + 5)])
            assert_valid_mis(session.graph, set(session.mis))

    def test_damage_cap_forces_recompute(self):
        session = GraphSession("s", seed=1, repair_damage_cap=0.1)
        report = session.apply_epoch(
            [Mutation("add-edge", u, u + 1) for u in range(20)]
        )
        assert report.mode == "recompute"
        assert session.recomputes == 1

    def test_small_damage_repairs_incrementally(self):
        session = GraphSession(
            "s", seed=1, graph=nx.gnp_random_graph(40, 0.1, seed=4)
        )
        report = session.apply_epoch([Mutation("add-edge", 0, 1)])
        assert report.mode == "repair"
        assert report.rounds <= 1 + ROUNDS_PER_ITERATION * report.damaged

    def test_failed_epoch_rolls_back(self):
        session = GraphSession(
            "s", seed=1, graph=nx.gnp_random_graph(30, 0.15, seed=5)
        )
        fp = session.fingerprint
        mis = session.mis
        epoch = session.epoch
        with pytest.raises(ComputeAborted):
            session.apply_epoch(
                [Mutation("add-edge", 0, 9), Mutation("remove-node", 3)],
                should_abort=lambda: True,
            )
        assert session.fingerprint == fp
        assert session.mis == mis
        assert session.epoch == epoch
        # And the replay commits cleanly.
        report = session.apply_epoch(
            [Mutation("add-edge", 0, 9), Mutation("remove-node", 3)]
        )
        assert report.epoch == epoch + 1

    def test_mid_batch_failure_rolls_back_whole_batch(self):
        # A mutation that raises at apply time (validation bypassed to
        # simulate it) must not leave earlier batch members applied:
        # the epoch either commits whole or leaves no trace.
        session = GraphSession("s", seed=1, graph=nx.path_graph(6))
        fp = session.fingerprint
        mis = session.mis
        epoch = session.epoch
        with pytest.raises(BadRequestError):
            session.apply_epoch(
                [Mutation("add-edge", 0, 2), _raw_mutation("add-edge", 3, 3)]
            )
        assert not session.graph.has_edge(0, 2)
        assert session.fingerprint == fp
        assert session.mis == mis
        assert session.epoch == epoch
        # The session is not bricked: the next clean epoch commits.
        report = session.apply_epoch([Mutation("add-edge", 0, 5)])
        assert report.epoch == epoch + 1

    def test_same_seed_sessions_identical(self):
        batches = [
            [Mutation("add-edge", u, u + 3) for u in range(e, e + 4)]
            for e in range(6)
        ]
        finals = []
        for _ in range(2):
            session = GraphSession("s", seed=9)
            reports = [session.apply_epoch(batch) for batch in batches]
            finals.append((session.mis, [r.rounds for r in reports]))
        assert finals[0] == finals[1]

    def test_cache_key_scoped_to_session_and_epoch(self):
        # Identical graph content and config must NOT share a key: the
        # maintained MIS depends on the epoch history and snapshots
        # embed session metadata, so a cross-session hit would leak
        # another session's identity.
        a = GraphSession("a", seed=0, graph=nx.path_graph(4))
        b = GraphSession("b", seed=0)
        b.apply_epoch([Mutation("add-edge", u, u + 1) for u in range(3)])
        assert a.fingerprint == b.fingerprint
        assert a.cache_key() != b.cache_key()
        # Within one session the key moves with every committed epoch,
        # and carries the content fingerprint.
        before = b.cache_key()
        b.apply_epoch([Mutation("add-edge", 0, 3)])
        after = b.cache_key()
        assert before != after
        assert b.fingerprint in after

    def test_removed_member_leaves_the_mis(self):
        session = GraphSession("s", seed=0, graph=nx.star_graph(5))
        leaf_member = next(v for v in session.mis if v != 0)
        session.apply_epoch([Mutation("remove-node", leaf_member)])
        assert leaf_member not in session.mis
        assert_valid_mis(session.graph, set(session.mis))

    def test_empty_graph_session(self):
        session = GraphSession("s", seed=0)
        report = session.apply_epoch([])
        assert report.mis_size == 0
        assert report.rounds == 0


class TestCommittedReads:
    def test_snapshot_key_is_read_off_the_body(self):
        session = GraphSession("s", seed=0, graph=nx.path_graph(10))
        for edge in [(0, 2), (4, 9)]:
            assert snapshot_key(session.snapshot()) == session.cache_key()
            session.apply_epoch([Mutation("add-edge", *edge)])
        assert snapshot_key(session.snapshot()) == session.cache_key()

    def test_mid_epoch_peek_sees_previous_commit(self):
        # Regression: snapshot() and cache_key() used to read the live
        # graph, so a reader racing the executor saw epoch 0 with the
        # batch's 11 edges (epoch 0 has 9) and an MIS that is not valid
        # for the graph it reported.  should_abort runs mid-epoch, after
        # the mutations are applied, so it can peek like such a reader.
        session = GraphSession("s", seed=0, graph=nx.path_graph(10))
        before = session.snapshot()
        before_key = session.cache_key()
        peeks = []

        def peek() -> bool:
            peeks.append((session.snapshot(), session.cache_key()))
            return False

        session.apply_epoch(
            [Mutation("add-edge", 0, 5), Mutation("add-edge", 2, 7)],
            should_abort=peek,
        )
        assert peeks
        for snap, key in peeks:
            assert snap == before
            assert key == before_key
            assert (snap["epoch"], snap["nodes"], snap["edges"]) == (0, 10, 9)
            assert_valid_mis(nx.path_graph(10), set(snap["mis"]))
        after = session.snapshot()
        assert (after["epoch"], after["edges"]) == (1, 11)
        assert session.cache_key() != before_key

    def test_concurrent_readers_only_see_whole_epochs(self):
        # Stress: one writer thread commits epochs while more reader
        # threads than cores snapshot the session under a tiny switch
        # interval.  Every body a reader saw must equal the body a
        # serial replay of the same seeded session has at that epoch.
        batches = [
            [Mutation("add-edge", (7 * e + k) % 40, (11 * e + 3 * k + 1) % 40)
             for k in range(4)] + [Mutation("remove-node", (5 * e) % 40)]
            for e in range(30)
        ]
        batches = [[m for m in b if m.u != m.v] for b in batches]
        session = GraphSession("s", seed=3, graph=nx.path_graph(40))
        seen = []
        done = threading.Event()

        def read():
            while not done.is_set():
                seen.append(session.snapshot())

        def write():
            try:
                for batch in batches:
                    session.apply_epoch(batch)
            finally:
                done.set()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(2)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old)

        replay = GraphSession("s", seed=3, graph=nx.path_graph(40))
        expected = {0: replay.snapshot()}
        for batch in batches:
            report = replay.apply_epoch(batch)
            expected[report.epoch] = replay.snapshot()
        assert session.snapshot() == expected[len(batches)]
        assert seen
        for snap in seen:
            assert snap == expected[snap["epoch"]]

    def test_committed_snapshot_is_immutable(self):
        session = GraphSession("s", seed=0, graph=nx.path_graph(4))
        committed = session.committed
        with pytest.raises(dataclasses.FrozenInstanceError):
            committed.epoch = 5
        session.apply_epoch([Mutation("add-edge", 0, 3)])
        assert committed.epoch == 0
        assert session.committed is not committed


class TestAudit:
    def test_every_kth_repair_epoch_is_audited(self):
        session = GraphSession("s", seed=0, graph=nx.path_graph(12), audit_every=3)
        audited = [
            session.apply_epoch([Mutation("add-edge", e, e + 4)]).audited
            for e in range(6)
        ]
        assert audited == [False, False, True, False, False, True]

    def test_audit_period_must_be_positive(self):
        with pytest.raises(ValueError):
            GraphSession("s", audit_every=0)

    def test_failed_audit_rolls_back_and_is_never_fixed(self):
        # Plant a corruption the local certificate cannot see (a far
        # member dropped from the committed MIS, so node 19 is
        # undominated), then commit an epoch at the other end.
        session = GraphSession("s", seed=0, graph=nx.path_graph(20), audit_every=1)
        far = next(v for v in session.mis if v >= 18)
        bad = session.mis - {far}
        session.mis = bad
        session.committed = dataclasses.replace(session.committed, mis=bad)
        fp, epoch = session.fingerprint, session.epoch
        with pytest.raises(AuditFailure):
            session.apply_epoch([Mutation("add-edge", 0, 2)])
        assert not session.graph.has_edge(0, 2)
        assert session.mis == bad
        assert (session.fingerprint, session.epoch) == (fp, epoch)
        # Still refused on retry: a failed audit is never fixed silently.
        with pytest.raises(AuditFailure):
            session.apply_epoch([Mutation("add-edge", 0, 2)])


class TestEpochSpans:
    def test_epoch_phases_are_traced(self):
        records = []
        session = GraphSession("s", seed=0, graph=nx.path_graph(10), audit_every=2)
        session.tracer = Tracer(collector=records)
        session.apply_epoch([Mutation("add-edge", 0, 5)])
        names = [r["name"] for r in records]
        assert names == [
            SPAN_SERVE_APPLY,
            SPAN_SERVE_FINGERPRINT,
            SPAN_SERVE_REPAIR,
            SPAN_SERVE_VALIDATE,
        ]
        records.clear()
        session.apply_epoch([Mutation("add-edge", 1, 6)])
        assert [r["name"] for r in records][-1] == SPAN_SERVE_AUDIT
