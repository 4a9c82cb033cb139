"""Golden digests pinning :func:`repro.core.arb_mis.arb_mis` end to end.

Each digest hashes ``(sorted MIS, iterations, congest_rounds, scale_stats)``
of one run, so any change to Algorithm 1's schedule, to the degree
reduction or to either finishing strategy shows up here.  The digests were
recorded from the per-node scalar Algorithm-1 loop the pipeline ran before
it moved onto the columnar kernel.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.cli import main
from repro.core.arb_mis import arb_mis
from repro.graphs.generators import bounded_arboricity_graph, starry_arboricity_graph


def digest(result) -> str:
    payload = (
        sorted(result.mis),
        result.iterations,
        result.congest_rounds,
        [dataclasses.astuple(s) for s in result.extra["report"].partial.scale_stats],
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def build(case: str):
    """``(graph, alpha, seed, finishing_strategy)`` for a GOLDEN key."""
    family, *params, strategy = case.split("/")
    p = [int(x) for x in params]
    if family == "arb":
        n, alpha, seed = p
        return bounded_arboricity_graph(n, alpha, seed=seed), alpha, seed, strategy
    n, alpha, hubs = p
    return starry_arboricity_graph(n, alpha, hubs=hubs, seed=3), alpha, 0, strategy


# Keys: arb/n/alpha/seed/strategy, starry/n/alpha/hubs/strategy (graph
# seed 3, run seed 0; its hubs exceed the degree-reduction threshold).
GOLDEN = {
    "arb/100/1/0/linial": "3291de5e2f1a9093b5e29b7e840771849edef527ec96f927e2169c7f135791c0",
    "arb/100/1/0/metivier": "56727047e51369289a5c8e97e1532dafa5ea54d98c4cb196a8e4987bfe1d5491",
    "arb/100/1/1/linial": "8239995701ac475dea761be287a891985b5d5805d94b3f895d923c894484fd5c",
    "arb/100/1/1/metivier": "261509bfd1bfb4117947be9992aaf11b170e14ed60b8c6b690e4c34c986f8308",
    "arb/100/2/0/linial": "0b0173f9b599efb7d99c97b21363e5a780ebe8d0b69067048650303c07cc9c16",
    "arb/100/2/0/metivier": "138cd79c80c3a966a7172db2e3b5f8aa19064456164e47857c8d43929eb552d8",
    "arb/100/2/1/linial": "5240d4004a3b847c23d765147f6d0a87cb73d4f70c5a273b14b8ade03b37eec5",
    "arb/100/2/1/metivier": "32836ef2ea90d1e6f67d61a876bfc2059e7bd853b3aef1e62cba6ecb49a0f5a5",
    "arb/100/3/0/linial": "5aae6416376fea07c4e53f4d5f06fa704a7230ef76a576a6e4e03eaf20d3248d",
    "arb/100/3/0/metivier": "e66fb8ad485a91418bbb86913c8507cb40802c27d75c8e6e8045af60ef63951f",
    "arb/100/3/1/linial": "89e4041bc9792b54df9671983c99861173df6360cbbecbb42363d59a16c90802",
    "arb/100/3/1/metivier": "acbab5c8f307a8617099a7dcb5a81605a70f5dc8b1ef50859085e7afbf36033c",
    "arb/5000/1/0/linial": "062500474b39df2697a157b195ced8022762dd8ef317e0ad706c3058953608e7",
    "arb/5000/1/0/metivier": "e56cff0c8b2e013aee45e743bc04e9e10a1b6ce8d69e42ab34a3236285cd097c",
    "arb/5000/1/1/linial": "d8ae48f22f5ed62e2e74a3afaec65c32ae42c27472d248dec878e5e2f4dfe6b7",
    "arb/5000/1/1/metivier": "ae0682b8a564b024146f2da6331997154bd236df39c6122032f25eca8ed11230",
    "arb/5000/2/0/linial": "069a3db670e4a30cc6be94e63364fbcbd92633f2ea5e15f3512c4c002d441ff2",
    "arb/5000/2/0/metivier": "3fa0648132e6f0227d404559f14e9d867b581193542ac06a4d82e5ec67bc77b7",
    "arb/5000/2/1/linial": "5ec647d6098329d640869108f7104f3c53a61239e8f2d7f878304281f3d0b205",
    "arb/5000/2/1/metivier": "0c22b49b41e9b32f5cc64a48d08e1e5620ce22ec0f4b5f143ff7f77efed52af1",
    "arb/5000/3/0/linial": "d23dade2946aa8f154dbb8987b0c808349ffed85269ca83f70b4484c2098cae6",
    "arb/5000/3/0/metivier": "6dc1822faec6cbf54f8ab3087ea7122e156df29dd755e65acd32bc81766d67d8",
    "arb/5000/3/1/linial": "d3ad2a1bf518b6670c72ff712c6e0a635e1f9f20d05413242e81991eb5311b5f",
    "arb/5000/3/1/metivier": "0b3b9d49f588990f71299d2bb56d34bb46d34619f0b9aedb6b62057c9853b2bd",
    "starry/2000/2/4/linial": "09f12a25cf2bd63a829aeef426cd9bff28a467d2d6419a40fcf1b0ecce3c4d23",
    "starry/2000/2/4/metivier": "21f85bd0ddb1e54d04820bc472a3b19e5573db6147226c67a73929af2b8270d4",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_arb_mis_matches_golden_digest(case):
    graph, alpha, seed, strategy = build(case)
    result = arb_mis(graph, alpha=alpha, seed=seed, finishing_strategy=strategy)
    assert digest(result) == GOLDEN[case]


def test_golden_covers_degree_reduction():
    graph, alpha, seed, _ = build("starry/2000/2/4/metivier")
    reduction = arb_mis(graph, alpha=alpha, seed=seed).extra["report"].reduction
    assert reduction is not None and not reduction.was_noop


@pytest.mark.parametrize(
    "family_args",
    [["--family", "arb", "--n", "3000"], ["--family", "starry", "--n", "2000"]],
)
def test_cli_engine_flag_does_not_change_arb_mis_output(capsys, monkeypatch, family_args):
    monkeypatch.delenv("REPRO_MIS_ENGINE", raising=False)
    argv = ["run", *family_args, "--alpha", "2", "--seed", "4", "--algorithm", "arb-mis", "--report"]
    outputs = []
    for engine_flag in ([], ["--engine", "scalar"], ["--engine", "bulk"]):
        assert main(argv + engine_flag) == 0
        outputs.append(capsys.readouterr().out)
    assert "[validated]" in outputs[0]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
