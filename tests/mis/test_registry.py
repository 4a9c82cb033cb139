"""Tests for the algorithm registry."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.mis import bulk, ghaffari, luby, metivier
from repro.mis.registry import (
    available_algorithms,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.mis.validation import assert_valid_mis


class TestRegistry:
    def test_default_algorithms_present(self):
        names = available_algorithms()
        for expected in (
            "luby-a",
            "luby-b",
            "metivier",
            "ghaffari",
            "tree-independent-set",
            "arb-mis",
        ):
            assert expected in names

    def test_lookup_and_run(self):
        fn = get_algorithm("metivier")
        g = nx.path_graph(10)
        assert_valid_mis(g, fn(g, seed=1).mis)

    def test_arb_mis_takes_alpha(self):
        fn = get_algorithm("arb-mis")
        from repro.graphs.generators import bounded_arboricity_graph

        g = bounded_arboricity_graph(60, 2, seed=1)
        assert_valid_mis(g, fn(g, alpha=2, seed=1).mis)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_algorithm("definitely-not-an-algorithm")

    def test_duplicate_registration_rejected(self):
        register_algorithm("test-only-dummy", lambda g, seed=0: None)
        try:
            with pytest.raises(ConfigurationError):
                register_algorithm("test-only-dummy", lambda g, seed=0: None)
        finally:
            unregister_algorithm("test-only-dummy")
        assert "test-only-dummy" not in available_algorithms()


class TestEngineSelection:
    def test_bulk_variants_registered(self):
        names = available_algorithms()
        for expected in ("metivier-bulk", "luby-a-bulk", "luby-b-bulk", "ghaffari-bulk"):
            assert expected in names

    @pytest.mark.parametrize(
        "name,exported,kernel,alias",
        [
            pytest.param(
                name, getattr(module, attr), getattr(bulk, attr), getattr(bulk, attr + "_bulk"), id=name
            )
            for name, module, attr in (
                ("metivier", metivier, "metivier_mis"),
                ("luby-a", luby, "luby_a_mis"),
                ("luby-b", luby, "luby_b_mis"),
                ("ghaffari", ghaffari, "ghaffari_mis"),
            )
        ],
    )
    def test_one_function_per_rule(self, name, exported, kernel, alias):
        # The plain name, its -bulk alias and every non-mpc engine value
        # are one columnar kernel, which the algorithm module re-exports.
        assert exported is kernel and alias is kernel
        for registered in (name, f"{name}-bulk"):
            for engine in (None, "scalar", "bulk"):
                assert get_algorithm(registered, engine=engine) is kernel

    def test_engine_argument_upgrades_to_bulk(self):
        from repro.mis.bulk import metivier_mis_bulk
        from repro.mis.metivier import metivier_mis

        assert get_algorithm("metivier", engine="bulk") is metivier_mis_bulk
        assert get_algorithm("metivier", engine="scalar") is metivier_mis
        assert get_algorithm("metivier") is metivier_mis
        assert metivier_mis is metivier_mis_bulk

    def test_engine_env_knob(self, monkeypatch):
        from repro.mis.bulk import luby_a_mis_bulk
        from repro.mis.luby import luby_a_mis
        from repro.mpc.engines import luby_a_mis_mpc

        for value in ("bulk", "scalar", ""):
            monkeypatch.setenv("REPRO_MIS_ENGINE", value)
            assert get_algorithm("luby-a") is luby_a_mis is luby_a_mis_bulk
        monkeypatch.setenv("REPRO_MIS_ENGINE", "mpc")
        assert get_algorithm("luby-a") is luby_a_mis_mpc

    def test_explicit_engine_beats_env(self, monkeypatch):
        from repro.mis.metivier import metivier_mis
        from repro.mpc.engines import metivier_mis_mpc

        monkeypatch.setenv("REPRO_MIS_ENGINE", "mpc")
        assert get_algorithm("metivier", engine="scalar") is metivier_mis
        monkeypatch.setenv("REPRO_MIS_ENGINE", "bulk")
        assert get_algorithm("metivier", engine="mpc") is metivier_mis_mpc

    def test_bulk_falls_back_when_no_bulk_engine(self):
        # tree-independent-set has no columnar twin; the knob must not
        # break sweeps that include it.
        scalar = get_algorithm("tree-independent-set")
        assert get_algorithm("tree-independent-set", engine="bulk") is scalar
        assert get_algorithm("tree-independent-set", engine="mpc") is scalar

    def test_bulk_name_stays_bulk(self):
        from repro.mis.bulk import metivier_mis_bulk

        assert get_algorithm("metivier-bulk", engine="bulk") is metivier_mis_bulk
        assert get_algorithm("metivier-bulk", engine="mpc") is metivier_mis_bulk

    def test_results_carry_the_plain_label(self):
        graph = nx.path_graph(6)
        for name in ("metivier", "luby-a", "luby-b", "ghaffari"):
            for registered in (name, f"{name}-bulk"):
                assert get_algorithm(registered)(graph, seed=0).algorithm == name

    def test_engines_survive_pickling(self):
        # SweepRunner ships registry functions to worker processes.
        import pickle

        for name in ("metivier", "luby-a-bulk", "luby-b", "ghaffari-bulk"):
            fn = get_algorithm(name)
            assert pickle.loads(pickle.dumps(fn)) is fn

    def test_unknown_engine_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="engine"):
            get_algorithm("metivier", engine="gpu")
        monkeypatch.setenv("REPRO_MIS_ENGINE", "gpu")
        with pytest.raises(ConfigurationError, match="engine"):
            get_algorithm("metivier")


class TestNodeProgramRegistry:
    def test_available_node_programs_instantiate(self):
        import networkx as nx

        from repro.mis.registry import available_node_programs, get_node_program

        graph = nx.path_graph(10)
        for name in available_node_programs():
            program, max_rounds = get_node_program(name, graph, alpha=2)
            assert hasattr(program, "on_round")
            assert max_rounds is None or max_rounds > 0

    def test_arb_mis_gets_a_fixed_schedule(self):
        import networkx as nx

        from repro.mis.registry import get_node_program

        program, max_rounds = get_node_program("arb-mis", nx.path_graph(20))
        assert max_rounds == program.total_rounds + 3

    def test_unknown_node_program_lists_available(self):
        import networkx as nx
        import pytest

        from repro.errors import ConfigurationError
        from repro.mis.registry import get_node_program

        with pytest.raises(ConfigurationError, match="metivier"):
            get_node_program("nonsense", nx.path_graph(4))
