"""The repository benchmark: four workloads timed from outside ``repro``.

Run one workload with ``python3 perfbench/run.py --workload <name>``;
README.md in this directory describes the workloads and metrics.
"""
