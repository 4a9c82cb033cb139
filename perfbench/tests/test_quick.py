"""End-to-end runs of the benchmark in quick mode, and planted faults.

Quick mode shrinks every size so all four workloads, traced and
untraced, finish in seconds; the metric names and units must still be
exactly those ``BENCHMARK.json`` declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, workload, trace, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick", "--trace-out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in workloads.PER_LAYER
    ]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric(tmp_path, workload, trace):
    done = _run(tmp_path, workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage_frac"]["value"] > 0.9
        assert list(tmp_path.glob(f"trace-{workload}-*.json"))


def _planted(monkeypatch, capsys, workload):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                     "--quick", "--trace-out", "unused"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def _corrupt_solver(monkeypatch, corrupt):
    from repro.mis import registry

    real = registry.get_algorithm

    def get_algorithm(name, engine=None):
        solve = real(name, engine)

        def corrupted(graph, *args, **kwargs):
            result = solve(graph, *args, **kwargs)
            result.mis = corrupt(graph, set(result.mis))
            return result

        return corrupted

    monkeypatch.setattr(registry, "get_algorithm", get_algorithm)


def test_planted_non_independent_set_fails_the_run(monkeypatch, capsys):
    def add_neighbor(graph, mis):
        v = next(iter(mis))
        return mis | {next(iter(graph.neighbors(v)))}

    _corrupt_solver(monkeypatch, add_neighbor)
    # The program's own validator would raise; take it out so the
    # benchmark's checker is what catches the planted fault.
    monkeypatch.setattr("repro.mis.validation.assert_valid_mis", lambda graph, mis: None)
    code, result = _planted(monkeypatch, capsys, "run-arb")
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


def test_planted_non_maximal_set_fails_the_run(monkeypatch, capsys):
    _corrupt_solver(monkeypatch, lambda graph, mis: mis - {min(mis)})
    monkeypatch.setattr("repro.mis.validation.assert_valid_mis", lambda graph, mis: None)
    code, result = _planted(monkeypatch, capsys, "engines-shared")
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_planted_bad_snapshot_fails_serve_churn(monkeypatch, capsys):
    from repro.serve.incremental import GraphSession

    real = GraphSession.snapshot

    def snapshot(self):
        body = real(self)
        return {**body, "mis": body["mis"][1:]}

    monkeypatch.setattr(GraphSession, "snapshot", snapshot)
    code, result = _planted(monkeypatch, capsys, "serve-churn")
    assert code == 1 and result["correct"] is False


def test_planted_biased_sampler_fails_readk(monkeypatch, capsys):
    from repro.readk.family import ReadKFamily

    real = ReadKFamily.sample_matrix

    def sample_matrix(self, trials, seed=0):
        matrix = real(self, trials, seed)
        matrix[:, 0] = True  # one indicator always fires
        return matrix

    monkeypatch.setattr(ReadKFamily, "sample_matrix", sample_matrix)
    code, result = _planted(monkeypatch, capsys, "readk-mc")
    assert code == 1 and result["correct"] is False


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path / "out", "run-arb", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
