"""Run one benchmark workload against the ``repro`` sources of this checkout.

    python3 perfbench/run.py --workload run-arb --seed 1 --seconds 28 --trace 0

Prints a readable report, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).  Exits 1 when
any output check failed and 2 when the checkout has no ``src/repro``.
``--quick`` runs tiny sizes for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("run-arb", "engines-shared", "serve-churn", "readk-mc")


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Refuses an installed copy elsewhere: the benchmark measures the
    sources it was checked out with.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes (tests)")
    parser.add_argument(
        "--trace-out",
        default=str(ROOT / "perfbench" / "out"),
        help="directory the traced run writes its spans to",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    from perfbench import workloads

    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        sizes=workloads.QUICK if args.quick else workloads.FULL,
        trace=bool(args.trace),
    )
    report = workloads.WORKLOADS[args.workload](ctx)
    for line in workloads.describe(report):
        print(line)
    if report.spans:
        out = Path(args.trace_out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps([span.to_dict() for span in report.spans]))
        print(f"spans written to {path}")
    tally = report.tally
    correct = tally.attempted > 0 and tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
